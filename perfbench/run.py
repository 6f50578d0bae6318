"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream_detect --seed 7 \
        --seconds 16 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  One run repeats timed passes, each on fresh inputs derived
from ``--seed`` and a fresh pipeline, until the passes have measured
``--seconds`` (at least one pass).  Outputs are checked after every
pass, and against a reference computation after the last one; a failed
check fails the run.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every pass runs twice on the same inputs, first without
and then with the hooks of ``tracing.py``, and the run reports the
per-layer metrics.

The next-to-last stdout line is the run record (run facts, sample
counts, per-pass figures); the last line is the result object.  Spans
of a traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.lib.format import read_array

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("stream_detect", "service_ingest", "forensic_mine")
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Each pass is cut into this many equal runs of input calls for
#: ``flows_per_s``.
SEGMENTS_PER_PASS = 8
#: Failed checks listed in the record and on stderr (all are counted).
MAX_ERRORS = 20
#: Generous limits for the child processes (normal: a few seconds).
CHILD_TIMEOUT_S = 120


def pass_seed(seed: int, index: int) -> int:
    """The input seed of pass ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def setup_seconds(workload, scratch: Path) -> float:
    """One ``setup_probe.py`` child: its import-to-ready seconds."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name,
         str(scratch)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup_probe.py failed:\n{done.stderr}")
    return json.loads(done.stdout)["setup_s"]


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile in seconds; ``inf`` without samples."""
    if not samples:
        return float("inf")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def segment_rates(result) -> list[float]:
    """Input flows / wall of each segment of a pass."""
    marks = result.marks
    n = len(marks) - 1
    cuts = [round(i * n / SEGMENTS_PER_PASS)
            for i in range(SEGMENTS_PER_PASS + 1)]
    return [
        (marks[b][1] - marks[a][1]) / (marks[b][0] - marks[a][0])
        for a, b in zip(cuts, cuts[1:]) if b > a
    ]


def _ms(seconds: float) -> float:
    """Milliseconds.  A failed operation's ``inf`` becomes the largest
    float: it misses every limit and stays valid JSON."""
    return min(1e3 * seconds, sys.float_info.max)


class _Reads:
    """Only the ``read`` of a pipe: numpy then reads it in chunks, where
    it would seek on a real file object."""

    def __init__(self, pipe):
        self.read = pipe.read


def generate_inputs(workload, seed: int) -> dict:
    """One pass's input arrays, read from a ``gen_inputs.py`` child
    straight into place (no second copy, no file)."""
    command = [sys.executable, str(HERE / "gen_inputs.py"),
               workload.name, str(seed)]
    with subprocess.Popen(command, cwd=ROOT,
                          stdout=subprocess.PIPE) as child:
        try:
            pipe = _Reads(child.stdout)
            arrays = {}
            for _ in range(int(read_array(pipe))):
                key = str(read_array(pipe))
                arrays[key] = read_array(pipe)
        except BaseException:
            child.kill()
            raise
        status = child.wait(timeout=CHILD_TIMEOUT_S)
    if status != 0:
        raise RuntimeError(f"gen_inputs.py {workload.name} {seed} failed")
    return arrays


def _git_commit() -> str | None:
    """The checkout's commit; None when it is not a git work tree.
    Git may not look above the checkout for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_passes(workload, seed: int, seconds: float, tmp: Path,
               hooks=None) -> dict:
    """Timed passes until ``seconds`` are measured; checks each one.

    With ``hooks`` every pass also runs traced on the same inputs, and
    ``seconds`` counts the traced passes.
    """
    plain, traced, errors = [], [], []
    peak_rss_mib = None
    index = 0
    while True:
        inputs = workload.load(
            generate_inputs(workload, pass_seed(seed, index))
        )
        runs = [("plain", plain)] + ([("traced", traced)] if hooks else [])
        for kind, results in runs:
            pass_dir = tmp / f"{kind}{index}"
            pass_dir.mkdir()
            pipe = workload.open(pass_dir)
            try:
                if kind == "traced":
                    hooks.install()
                try:
                    result = workload.run(pipe, inputs)
                finally:
                    if kind == "traced":
                        hooks.uninstall()
                        hooks.rec.end_pass()
            finally:
                workload.close(pipe)
            if peak_rss_mib is None:
                # Read before any check allocates: the peak of loading
                # the inputs, set-up and one timed pass.
                peak_rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss / 1024
            errors += workload.check(inputs, result)
            results.append(result)
            shutil.rmtree(pass_dir)
        index += 1
        measured = sum(r.wall for r in (traced if hooks else plain))
        if measured >= seconds:
            break
    errors += workload.check_reference(inputs, result, tmp)
    return {"plain": plain, "traced": traced, "errors": errors,
            "peak_rss_mib": peak_rss_mib}


def end_to_end(workload, done: dict, tmp: Path) -> tuple:
    plain = done["plain"]
    probes = []
    for n in range(SETUP_PROBES):
        probe_dir = tmp / f"probe{n}"
        probe_dir.mkdir()
        probes.append(setup_seconds(workload, probe_dir))
    latency = [s for r in plain for s in r.latency]
    alarm = [s for r in plain for s in r.alarm]
    query = [s for r in plain for s in r.query]
    rates = [rate for r in plain for rate in segment_rates(r)]
    values = {
        "flows_per_s": ("flows/s", statistics.median(rates), len(rates)),
        "latency_ms_p50": ("ms", _ms(_percentile(latency, 50)),
                           len(latency)),
        "latency_ms_p90": ("ms", _ms(_percentile(latency, 90)),
                           len(latency)),
        "alarm_ms_p50": ("ms", _ms(_percentile(alarm, 50)), len(alarm)),
        "query_ms_p50": ("ms", _ms(_percentile(query, 50)), len(query)),
        "setup_s": ("s", statistics.median(probes), len(probes)),
        "peak_rss_mib": ("MiB", done["peak_rss_mib"], 1),
    }
    metrics = {name: {"value": value, "unit": unit}
               for name, (unit, value, _) in values.items()}
    samples = {name: n for name, (_, _, n) in values.items()}
    return metrics, samples


def per_layer(workload, seed: int, done: dict, rec) -> tuple:
    """The traced run's metrics; writes its spans to :data:`OUT`."""
    from tracing import layer_metrics

    traced_wall = sum(r.wall for r in done["traced"]) - rec.bookkeeping_s()
    untraced_wall = sum(r.wall for r in done["plain"])
    metrics = layer_metrics(rec, traced_wall, untraced_wall)
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
    return metrics, {"spans": len(rec.spans), "passes": len(done["traced"])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Hooks, Recorder
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp_name:
        tmp = Path(tmp_name)
        if args.trace:
            rec = Recorder()
            hooks = Hooks(rec)
            done = run_passes(workload, args.seed, args.seconds, tmp, hooks)
            metrics, samples = per_layer(workload, args.seed, done, rec)
        else:
            hooks = None
            done = run_passes(workload, args.seed, args.seconds, tmp)
            metrics, samples = end_to_end(workload, done, tmp)

    runs = done["traced"] if args.trace else done["plain"]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "samples": samples,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "passes": [
            {"wall_s": r.wall, "flows": r.flows, "ops": r.attempted}
            for r in runs
        ],
        "errors": done["errors"][:MAX_ERRORS],
        "errors_total": len(done["errors"]),
    }
    if hooks is not None:
        record["missing_layers"] = hooks.missing
    for line in done["errors"][:MAX_ERRORS]:
        print(f"check failed: {line}", file=sys.stderr)
    for layer, targets in (hooks.missing if hooks else {}).items():
        print(f"layer {layer} missing: {targets}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not done["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if done["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
