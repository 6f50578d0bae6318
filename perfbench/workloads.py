"""The benchmark's three workloads.

Each workload is a closed loop on one thread: the next input goes in
only after the previous call returned.  A workload provides:

* ``generate(seed)`` makes one pass's inputs as named numpy arrays.  It
  runs in a child process (``gen_inputs.py``) that hands them over
  through a pipe, so neither its time, its memory nor any disk write
  counts against the measured process.
* ``load(arrays)`` turns them into the pass's inputs; ``open(tmp)``
  builds the pipeline (the set-up that ``setup_s`` times);
  ``close(pipe)`` releases it.
* ``run(pipe, inputs)`` is the timed pass.  It returns a
  :class:`PassResult` whose ``wall`` runs from the first input to the
  last result.
* ``check(inputs, result)`` and ``check_reference(inputs, result,
  tmp)`` verify the outputs after the timed region; each returns a list
  of failures.  The reference check recomputes the outputs another way
  and is run once per run, on the last pass.

NOTES.md says why each workload exists and what each metric means.
"""

from __future__ import annotations

import asyncio
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.api as api
from repro.core.config import ExtractionConfig, ServiceSettings
from repro.core.pipeline import AnomalyExtractor
from repro.detection.detector import DetectorConfig
from repro.detection.features import Feature
from repro.detection.metadata import Metadata
from repro.fleet.manager import FleetManager
from repro.flows.stream import DEFAULT_INTERVAL_SECONDS
from repro.flows.table import ALL_COLUMNS, FlowTable
from repro.incidents.store import IncidentStore
from repro.mining.items import decode_item
from repro.obs.metrics import MetricsRegistry
from repro.service import protocol
from repro.service.app import ServiceApp

#: The daemon's shipped request body limit.
MAX_BODY_BYTES = ServiceSettings().max_body_bytes
#: Features whose values identify an injected actor (host or service).
ACTOR_FEATURES = (
    Feature.SRC_IP, Feature.DST_IP, Feature.SRC_PORT, Feature.DST_PORT,
)


@dataclass
class PassResult:
    """One timed pass.  Latencies are seconds; a failed operation is
    recorded as ``inf`` so it misses every latency limit."""

    wall: float = 0.0
    flows: int = 0
    latency: list[float] = field(default_factory=list)
    alarm: list[float] = field(default_factory=list)
    query: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    output: object = None
    #: ``(time, flows input so far)`` after every input call; the
    #: first mark is the pass start, the last the final result.
    marks: list[tuple[float, int]] = field(default_factory=list)

    def begin(self) -> None:
        self.marks = [(perf_counter(), 0)]

    def mark(self, flows: int) -> None:
        self.marks.append((perf_counter(), flows))

    def end(self) -> None:
        self.mark(self.marks[-1][1])
        self.wall = self.marks[-1][0] - self.marks[0][0]

    def fail(self, what: str, samples: list[float]) -> None:
        self.failed += 1
        samples.append(float("inf"))
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _columns(flows: FlowTable) -> dict[str, np.ndarray]:
    return {name: flows.column(name) for name in ALL_COLUMNS}


def _flows(arrays) -> FlowTable:
    return FlowTable({name: arrays[name] for name in ALL_COLUMNS})


def _meta(value) -> np.ndarray:
    """JSON-encode ``value`` as a 0-d array (npz holds only arrays)."""
    return np.array(json.dumps(value))


def _unmeta(array) -> object:
    return json.loads(str(array))


def _slices(flows: FlowTable, rows: int) -> list[FlowTable]:
    return [
        FlowTable({c: flows.column(c)[i:i + rows] for c in ALL_COLUMNS})
        for i in range(0, len(flows), rows)
    ]


def _items(items) -> list[tuple[Feature, int]]:
    return [decode_item(int(item)) for item in items]


# ----------------------------------------------------------------------
# stream_detect
# ----------------------------------------------------------------------
class StreamDetect:
    """Detection-heavy streaming through the library surface: the
    Table IV event mix fed as pre-built chunks into a stream session
    with a file-backed incident store, no parsing."""

    name = "stream_detect"
    FLOWS_PER_INTERVAL = 4000
    N_INTERVALS = 240
    #: The service's shipped ``chunk_rows``.
    CHUNK_ROWS = ServiceSettings().chunk_rows
    MIN_SUPPORT = 500
    #: Share of event intervals that must be flagged with an item-set
    #: naming one of the interval's injected actors (27 to 29 of 31 on
    #: the seeds tried).
    FLAGGED_SHARE = 0.8

    def generate(self, seed: int) -> dict:
        from repro.traffic.scenarios import two_week_trace

        trace = two_week_trace(
            flows_per_interval=self.FLOWS_PER_INTERVAL,
            seed=seed,
            n_intervals=self.N_INTERVALS,
        )
        events: dict[int, list] = {}
        for event in trace.events:
            index = int(event.start // trace.interval_seconds)
            events.setdefault(index, []).extend(
                [column, int(value)]
                for column, value in event.signature.items()
            )
        return {**_columns(trace.flows), "events": _meta(events)}

    def load(self, arrays) -> dict:
        flows = _flows(arrays)
        events = _unmeta(arrays["events"])
        return {
            "flows": flows,
            "chunks": _slices(flows, self.CHUNK_ROWS),
            "events": {int(k): v for k, v in events.items()},
        }

    def open(self, tmp: Path):
        store = IncidentStore(str(tmp / "incidents.db"))
        try:
            session = api.session(
                mode="stream",
                keep_reports=False,
                min_support=self.MIN_SUPPORT,
                sink=store,
            )
        except BaseException:
            store.close()
            raise
        return session, store

    def close(self, pipe) -> None:
        session, store = pipe
        try:
            session.close()
        finally:
            store.close()

    def run(self, pipe, inputs: dict) -> PassResult:
        session, store = pipe
        assembler = session.assembler
        r = PassResult(flows=len(inputs["flows"]))
        fed = 0
        r.begin()
        for chunk in inputs["chunks"]:
            emitted = assembler.intervals_emitted
            r.attempted += 1
            began = perf_counter()
            try:
                extractions = session.feed(chunk)
            except Exception:
                r.fail("feed", r.latency)
                continue
            took = perf_counter() - began
            fed += len(chunk)
            r.mark(fed)
            if assembler.intervals_emitted != emitted:
                r.latency.append(took)
            if not extractions:
                continue
            r.alarm.append(took)
            # The operator re-reads the ranking on every alarm, so the
            # queries sweep the same store sizes whatever the seed.
            r.attempted += 1
            began = perf_counter()
            try:
                store.incidents()
            except Exception:
                r.fail("incidents", r.query)
                continue
            r.query.append(perf_counter() - began)
        r.attempted += 1
        try:
            session.finish()
            ranked = store.incidents()
        except Exception:
            r.fail("finish", r.latency)
            ranked = []
        r.end()
        r.output = {
            "reports": [report.to_json() for report in store.reports()],
            "incidents": len(ranked),
        }
        return r

    def check(self, inputs: dict, r: PassResult) -> list[str]:
        errors = []
        reports = [json.loads(doc) for doc in r.output["reports"]]
        if not reports or not r.output["incidents"]:
            errors.append("stream_detect: no extraction or no incident")
        flagged = 0
        for interval, actors in inputs["events"].items():
            wanted = {(c, v) for c, v in actors
                      if c in {f.column for f in ACTOR_FEATURES}}
            named = any(
                (feature.column, value) in wanted
                for report in reports if report["interval"] == interval
                for itemset in report["itemsets"]
                for feature, value in _items(itemset["items"])
            )
            flagged += named
        share = flagged / max(1, len(inputs["events"]))
        if share < self.FLAGGED_SHARE:
            errors.append(
                f"stream_detect: {flagged}/{len(inputs['events'])} event "
                f"intervals flagged with an injected actor "
                f"(< {self.FLAGGED_SHARE:.0%})"
            )
        return errors

    def check_reference(self, inputs: dict, r: PassResult, tmp: Path):
        """Stream-mode reports must equal batch ``run_trace``."""
        batch: list = []
        config = ExtractionConfig(min_support=self.MIN_SUPPORT)
        with AnomalyExtractor(config) as extractor:
            extractor.run_trace(
                inputs["flows"], DEFAULT_INTERVAL_SECONDS, sink=batch
            )
        if [report.to_json() for report in batch] != r.output["reports"]:
            return ["stream_detect: stream reports differ from run_trace"]
        return []


# ----------------------------------------------------------------------
# service_ingest
# ----------------------------------------------------------------------
class ServiceIngest:
    """Raw CSV bytes through the deployed service shape: HTTP/1.1
    requests parsed from an in-memory stream, dispatched by
    ``ServiceApp`` over a two-pipeline fleet with durable stores,
    live metrics and periodic checkpoints."""

    name = "service_ingest"
    FLOWS_PER_INTERVAL = 10_000
    N_INTERVALS = 48
    TRAINING_INTERVALS = 24
    OUTBREAK_INTERVAL = 36
    BODY_ROWS = 2048
    #: Low enough that each infected host's scans (about 250 flows per
    #: pipeline) form their own item-sets, so the ranking can name them.
    MIN_SUPPORT = 200
    #: An operator reads the incident ranking every this many POSTs.
    QUERY_EVERY = 4
    #: An infected host must be named within this many top incidents:
    #: on some seeds a baseline {dstPort=80, #packets=1} item-set, which
    #: the union prefilter lets through, outranks the worm.
    TOP_K = 3

    def generate(self, seed: int) -> dict:
        from repro.traffic.scenarios import worm_outbreak_trace

        trace = worm_outbreak_trace(
            flows_per_interval=self.FLOWS_PER_INTERVAL,
            seed=seed,
            n_intervals=self.N_INTERVALS,
            outbreak_interval=self.OUTBREAK_INTERVAL,
        )
        flows = trace.flows
        header = ",".join(ALL_COLUMNS)
        columns = [flows.column(c).tolist() for c in ALL_COLUMNS]
        # str() of each cell, as the repro CSV writer formats them.
        rows = [",".join(map(str, row)) for row in zip(*columns)]
        bodies = [
            ("\n".join([header, *rows[i:i + self.BODY_ROWS]]) + "\n")
            .encode()
            for i in range(0, len(rows), self.BODY_ROWS)
        ]
        worm = trace.events[0].event_id
        infected = np.unique(flows.src_ip[flows.label == worm])
        return {
            "bodies": np.frombuffer(b"".join(bodies), dtype=np.uint8),
            "sizes": np.array([len(body) for body in bodies]),
            "truth": _meta({
                "flows": len(flows),
                "infected": [int(ip) for ip in infected],
            }),
        }

    def load(self, arrays) -> dict:
        blob = memoryview(arrays["bodies"])
        ends = np.cumsum(arrays["sizes"]).tolist()
        requests = [
            b"POST /ingest HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: text/csv\r\n"
            b"Content-Length: %d\r\n\r\n" % (end - begin)
            + blob[begin:end]
            for begin, end in zip([0, *ends[:-1]], ends)
        ]
        truth = _unmeta(arrays["truth"])
        return {
            "requests": requests,
            "flows": truth["flows"],
            "infected": set(truth["infected"]),
        }

    def config(self) -> ExtractionConfig:
        # keep_extractions=False, as the serve command configures it.
        return ExtractionConfig(
            detector=DetectorConfig(
                training_intervals=self.TRAINING_INTERVALS
            ),
            min_support=self.MIN_SUPPORT,
            keep_extractions=False,
        )

    def fleet(self, store_dir: Path | None) -> FleetManager:
        config = self.config()
        return FleetManager(
            {"link0": config, "link1": config},
            route="dst_ip%2",
            store_dir=None if store_dir is None else str(store_dir),
            metrics=MetricsRegistry(),
        )

    def open(self, tmp: Path) -> ServiceApp:
        settings = ServiceSettings()
        fleet = self.fleet(tmp / "stores")
        try:
            return ServiceApp(
                fleet,
                checkpoint_path=str(tmp / "fleet.ckpt"),
                checkpoint_every=settings.checkpoint_every,
                chunk_rows=settings.chunk_rows,
            )
        except BaseException:
            fleet.close()
            raise

    def close(self, app: ServiceApp) -> None:
        app.fleet.close()

    @staticmethod
    async def _exchange(app: ServiceApp, raw: bytes) -> tuple[int, bytes]:
        """One request: parse the raw bytes, dispatch, render."""
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        request = await protocol.read_request(reader, MAX_BODY_BYTES)
        status, body, content_type = app.handle(request)
        protocol.render_response(status, body, content_type)
        return status, body

    async def _serve(self, app: ServiceApp, inputs: dict) -> PassResult:
        r = PassResult(flows=inputs["flows"])
        query = b"GET /incidents HTTP/1.1\r\nHost: bench\r\n\r\n"
        assemblers = [
            app.fleet.session(name).assembler for name in app.fleet.names
        ]
        acked = 0
        r.begin()
        for n, raw in enumerate(inputs["requests"], start=1):
            emitted = sum(a.intervals_emitted for a in assemblers)
            r.attempted += 1
            began = perf_counter()
            try:
                status, body = await self._exchange(app, raw)
                if status != 200:
                    raise RuntimeError(f"POST /ingest: {status} {body!r}")
            except Exception:
                r.fail("POST /ingest", r.latency)
                continue
            took = perf_counter() - began
            acked += json.loads(body)["rows"]
            r.mark(acked)
            r.latency.append(took)
            # One pass alarms on a single interval, too few samples for
            # a steady median: the alarm figure covers every POST that
            # closed an interval, i.e. ran detection (and mining, when
            # it alarmed).
            if sum(a.intervals_emitted for a in assemblers) != emitted:
                r.alarm.append(took)
            if n % self.QUERY_EVERY == 0:
                r.attempted += 1
                began = perf_counter()
                try:
                    status, body = await self._exchange(app, query)
                    if status != 200:
                        raise RuntimeError(f"GET /incidents: {status}")
                except Exception:
                    r.fail("GET /incidents", r.query)
                    continue
                r.query.append(perf_counter() - began)
        r.attempted += 1
        try:
            status, body = await self._exchange(app, query)
            if status != 200:
                raise RuntimeError(f"GET /incidents: {status}")
        except Exception:
            r.fail("final GET /incidents", r.query)
            body = b'{"incidents": []}'
        r.end()
        r.output = {
            "acked": acked,
            "sequence": app.sequence,
            "final": json.loads(body)["incidents"],
            "ranking": [e.to_dict() for e in app.fleet.incidents()],
        }
        return r

    def run(self, app: ServiceApp, inputs: dict) -> PassResult:
        return asyncio.run(self._serve(app, inputs))

    def check(self, inputs: dict, r: PassResult) -> list[str]:
        out = r.output
        errors = []
        if out["acked"] != inputs["flows"]:
            errors.append(
                f"service_ingest: acked {out['acked']} rows, "
                f"generated {inputs['flows']}"
            )
        if out["sequence"] != len(inputs["requests"]):
            errors.append("service_ingest: ingest sequence != POSTs")
        named = {
            value
            for top in out["final"][:self.TOP_K]
            for feature, value in _items(top["items"])
            if feature is Feature.SRC_IP
        }
        if not named & inputs["infected"]:
            errors.append(
                f"service_ingest: no infected host in the top "
                f"{self.TOP_K} incidents"
            )
        return errors

    def check_reference(self, inputs: dict, r: PassResult, tmp: Path):
        """The served ranking must equal a direct ``feed()`` of the
        same CSV parsed once with ``read_csv``."""
        from repro.flows.io import read_csv

        # The bodies' rows, in order, under one header: the whole trace.
        csv_path = tmp / "trace.csv"
        with open(csv_path, "wb") as handle:
            for n, raw in enumerate(inputs["requests"]):
                body = raw.split(b"\r\n\r\n", 1)[1]
                handle.write(body if n == 0 else body.split(b"\n", 1)[1])
        with self.fleet(None) as fleet:
            fleet.feed(read_csv(csv_path))
            ranking = [e.to_dict() for e in fleet.incidents()]
        if ranking != r.output["ranking"]:
            return ["service_ingest: served ranking != direct feed()"]
        served = [
            {k: v for k, v in e.items() if k != "id"}
            for e in r.output["final"]
        ]
        if served != json.loads(json.dumps(ranking)):
            return ["service_ingest: GET /incidents != fleet ranking"]
        return []


# ----------------------------------------------------------------------
# forensic_mine
# ----------------------------------------------------------------------
class ForensicMine:
    """The paper's post-mortem drill: each flagged interval mined at a
    ladder of supports (Sec. II, "start at 1-10% and adjust in 2-3
    trials")."""

    name = "forensic_mine"
    CASES = 34
    TABLE2_SCALE = 0.05
    BASELINE_FLOWS = 25_000
    #: Supports as shares of the case's input flows, in trial order.
    LADDER = (0.04, 0.02, 0.01)
    PORTS = (7000, 80, 9022, 25)

    def generate(self, seed: int) -> dict:
        from repro.traffic.generator import TraceGenerator
        from repro.traffic.profiles import switch_like
        from repro.traffic.scenarios import table2_interval

        seeds = np.random.SeedSequence(seed).generate_state(self.CASES)
        cases, victims = [], []
        for case_seed in seeds.tolist():
            table2 = table2_interval(scale=self.TABLE2_SCALE, seed=case_seed)
            baseline = TraceGenerator(
                switch_like(self.BASELINE_FLOWS), seed=case_seed
            ).generate(1).flows
            cases.append(FlowTable.concat([table2.flows, baseline]))
            victims.append(table2.flooding_victim)
        return {
            **_columns(FlowTable.concat(cases)),
            "cases": _meta({
                "sizes": [len(case) for case in cases],
                "victims": victims,
            }),
        }

    def load(self, arrays) -> dict:
        flows = _flows(arrays)
        meta = _unmeta(arrays["cases"])
        ends = np.cumsum(meta["sizes"]).tolist()
        cases = [
            flows.select(np.arange(begin, end))
            for begin, end in zip([0, *ends[:-1]], ends)
        ]
        metadata = Metadata()
        metadata.add(
            Feature.DST_PORT, np.array(self.PORTS, dtype=np.uint64)
        )
        return {"cases": cases, "victims": meta["victims"],
                "metadata": metadata}

    def open(self, tmp: Path) -> AnomalyExtractor:
        return AnomalyExtractor(ExtractionConfig())

    def close(self, extractor: AnomalyExtractor) -> None:
        extractor.close()

    def run(self, extractor: AnomalyExtractor, inputs: dict) -> PassResult:
        r = PassResult()
        trials = []
        r.begin()
        for case, flows in enumerate(inputs["cases"]):
            for share in self.LADDER:
                support = max(1, int(share * len(flows)))
                r.attempted += 1
                began = perf_counter()
                try:
                    result = extractor.extract_with_metadata(
                        flows, inputs["metadata"], min_support=support
                    )
                except Exception:
                    r.fail("extract_with_metadata", r.latency)
                    continue
                took = perf_counter() - began
                r.latency.append(took)
                r.flows += len(flows)
                r.mark(r.flows)
                trials.append((case, support, [
                    (itemset.items, itemset.support)
                    for itemset in result.itemsets
                ]))
        r.end()
        # Every request mines a flagged interval and is the operator's
        # query, so both figures are the request latencies.
        r.alarm = r.query = r.latency
        r.output = trials
        return r

    def check(self, inputs: dict, r: PassResult) -> list[str]:
        errors = []
        for case, support, itemsets in r.output:
            flows = inputs["cases"][case]
            keep = np.isin(flows.dst_port, self.PORTS)
            columns = {f: f.extract(flows)[keep] for f in Feature}
            where = f"forensic_mine: case {case} at support {support}"
            sets = [frozenset(items) for items, _ in itemsets]
            for items, count in itemsets:
                mask = np.ones(int(keep.sum()), dtype=bool)
                for feature, value in _items(items):
                    mask &= columns[feature] == value
                if int(mask.sum()) != count or count < support:
                    errors.append(
                        f"{where}: item-set {items} reports support "
                        f"{count}, counted {int(mask.sum())}"
                    )
            if any(a < b for a in sets for b in sets):
                errors.append(f"{where}: a reported item-set is not maximal")
            victim = inputs["victims"][case]
            if not any(
                {(Feature.DST_IP, victim), (Feature.DST_PORT, 7000)}
                <= set(_items(items))
                for items, _ in itemsets
            ):
                errors.append(f"{where}: flood victim not on dstPort 7000")
        return errors

    def check_reference(self, inputs: dict, r: PassResult, tmp: Path):
        """None beyond :meth:`check`, which recounts every support."""
        return []


WORKLOADS = {
    w.name: w for w in (StreamDetect(), ServiceIngest(), ForensicMine())
}
