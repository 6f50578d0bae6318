"""Pipeline throughput end to end, split by stage.

The ``bench_service_ingest`` worm outbreak (24 intervals x 20k flows,
outbreak after a 16-interval calibration) goes through
``AnomalyExtractor.run_trace``: detection on every interval, prefilter
and mining on the alarmed ones.  The bench reports flows per second of
the whole run and, per stage, the seconds, share of the wall and call
count that the pipeline's own ``repro_stage_seconds`` histogram
recorded - no profiler, so a regression names its stage from the same
numbers an operator's ``--metrics`` export shows.

``BENCH_pipeline.json`` keeps a trajectory: ``metrics.records`` holds
one record per labelled run, and a re-run under the same label replaces
its record.  ``BENCH_PIPELINE_LABEL`` names the run, e.g. the before
and after of a performance change measured on the same machine:

    BENCH_PIPELINE_LABEL=after PYTHONPATH=src \\
        python -m pytest benchmarks/bench_pipeline.py -q
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.config import ExtractionConfig
from repro.core.pipeline import AnomalyExtractor
from repro.detection.detector import DetectorConfig
from repro.obs.instruments import STAGES, catalogued
from repro.obs.metrics import MetricsRegistry
from repro.traffic.scenarios import worm_outbreak_trace

N_INTERVALS = 24
FLOWS_PER_INTERVAL = 20_000
TRAINING_INTERVALS = 16
OUTBREAK_INTERVAL = 20
BINS = 256
CLONES = 3
MIN_SUPPORT = 500
#: The record keeps the fastest of this many runs (noise robustness).
REPEATS = 5


def _run(flows) -> dict:
    """One timed run; the wall and the stage histogram's split."""
    config = ExtractionConfig(
        detector=DetectorConfig(
            clones=CLONES, bins=BINS, vote_threshold=CLONES,
            training_intervals=TRAINING_INTERVALS,
        ),
        min_support=MIN_SUPPORT,
    )
    registry = MetricsRegistry()
    with AnomalyExtractor(config, seed=1, metrics=registry) as extractor:
        start = time.perf_counter()
        result = extractor.run_trace(flows, 900.0)
        wall = time.perf_counter() - start
        pipeline = extractor.instruments.pipeline
    histogram = catalogued(registry, "repro_stage_seconds")
    stages = {
        stage: {
            "seconds": histogram.labels(pipeline, stage).sum,
            "count": histogram.labels(pipeline, stage).count,
        }
        for stage in STAGES
    }
    return {
        "wall_s": wall,
        "stages": stages,
        "extractions": len(result.extractions),
    }


def _trajectory(record: dict) -> list[dict]:
    """The records already in the output file, with ``record`` replacing
    any earlier record of the same label."""
    out_dir = os.environ.get("BENCH_JSON_DIR", os.getcwd())
    path = Path(out_dir) / "BENCH_pipeline.json"
    try:
        previous = json.loads(path.read_text())["metrics"]["records"]
    except (OSError, ValueError, KeyError, TypeError):
        previous = []
    return [
        *(r for r in previous if r.get("label") != record["label"]),
        record,
    ]


def test_pipeline_throughput_and_stage_split(report):
    trace = worm_outbreak_trace(
        flows_per_interval=FLOWS_PER_INTERVAL,
        n_intervals=N_INTERVALS,
        outbreak_interval=OUTBREAK_INTERVAL,
    )
    n_flows = len(trace.flows)
    best = min(
        (_run(trace.flows) for _ in range(REPEATS)),
        key=lambda run: run["wall_s"],
    )
    wall = best["wall_s"]
    stages = best["stages"]
    # Every interval is detected once; the outbreak is extracted.
    assert stages["detection"]["count"] == N_INTERVALS
    assert best["extractions"] >= 1
    timed = sum(stage["seconds"] for stage in stages.values())
    assert timed <= wall
    record = {
        "label": os.environ.get("BENCH_PIPELINE_LABEL", "unlabelled"),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "flows": n_flows,
        "wall_s": round(wall, 4),
        "flows_per_s": round(n_flows / wall),
        "stages": {
            name: {
                "seconds": round(stage["seconds"], 4),
                "share": round(stage["seconds"] / wall, 4),
                "count": stage["count"],
            }
            for name, stage in stages.items()
        },
        "untimed_share": round(1 - timed / wall, 4),
    }
    split = ", ".join(
        f"{name} {stage['share']:.1%}"
        for name, stage in record["stages"].items()
    )
    report(
        f"  pipeline [{record['label']}]: {n_flows} flows in "
        f"{wall:.3f} s = {record['flows_per_s']:,} flows/s; {split}",
        records=_trajectory(record),
    )
