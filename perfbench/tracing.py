"""Per-layer tracing for the benchmark's traced runs.

The traced run wraps each layer's public functions from outside the
program: :data:`HOOKS` maps a layer name to the functions it times,
each named where its caller looks it up (``kl_from_counts`` is wrapped
in both modules that call it, ``iter_csv_handle`` in the service module
that imports it).  Every wrapped call records one span - layer, start,
end, parent - into an in-memory list; generators get one span per
``next()``, coroutines one span around the ``await``.  A layer's self
time is the duration of its spans minus the part of each span that its
child spans cover.

Counters (:data:`COUNTERS`) run after a wrapped call returns; a probe
(:data:`PROBES`) is a counter on a function that is not a layer of its
own and gets no span.  Counter time is recorded as a bookkeeping span,
so it is charged neither to the layer that called it nor to the traced
wall.

No hook is installed in an untraced run.  A target that no longer
exists is reported as a missing layer instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
from collections.abc import Callable
from time import perf_counter

import numpy as np

from repro.core.config import ExtractionConfig
from repro.errors import ReproError

#: Layer -> the targets it times, as ``module:attribute.path``.  A
#: trailing ``[key]`` names an entry of a mapping, which is how the
#: pipeline looks up its miner (``MINERS.get(config.miner)``);
#: ``{miner}`` is the shipped default miner's name.
HOOKS: dict[str, tuple[str, ...]] = {
    "sketch.cloning": (
        "repro.sketch.cloning:CloneSet.update",
        "repro.sketch.cloning:CloneSet.snapshots",
    ),
    "detection.kl": (
        "repro.detection.detector:kl_from_counts",
        "repro.detection.binid:kl_from_counts",
    ),
    "detection.binid": (
        "repro.detection.detector:identify_anomalous_bins",
        "repro.sketch.histogram:HistogramSnapshot.values_in_bins",
    ),
    "detection.voting": ("repro.detection.detector:vote",),
    "detection.features": ("repro.detection.features:Feature.extract",),
    "detection.manager": ("repro.detection.manager:DetectorBank.observe",),
    "flows.io": ("repro.service.app:iter_csv_handle",),
    "service.protocol": (
        "repro.service.protocol:read_request",
        "repro.service.protocol:render_response",
    ),
    "service.app": ("repro.service.app:ServiceApp.handle",),
    "fleet.manager": (
        "repro.fleet.manager:FleetManager.feed",
        "repro.fleet.manager:FleetManager.route_chunk",
    ),
    "service.checkpoint": (
        "repro.service.app:fleet_checkpoint",
        "repro.service.app:write_checkpoint",
    ),
    "streaming.assembler": (
        "repro.streaming.assembler:IntervalAssembler.push",
    ),
    "core.session": ("repro.core.session:ExtractionSession.feed",),
    "core.prefilter": (
        "repro.core.pipeline:prefilter",
        "repro.core.session:prefilter",
    ),
    "mining.transactions": (
        "repro.mining.transactions:TransactionSet.from_flows",
    ),
    "mining.miner": ("repro.mining:MINERS[{miner}]",),
    "core.report": ("repro.core.report:ExtractionReport.from_result",),
    "incidents.store": (
        "repro.incidents.store:IncidentStore.append",
        "repro.incidents.store:IncidentStore.note_interval",
    ),
    "incidents.rank": (
        "repro.incidents.store:IncidentStore.incidents",
        "repro.fleet.manager:FleetManager.incidents",
    ),
}

#: Count metrics, each with its unit, in report order.
COUNT_UNITS = {
    "flows.io.rows": "rows",
    "service.checkpoint.bytes": "bytes",
    "service.checkpoint.writes": "count",
    "streaming.assembler.pending_flows_max": "flows",
    "streaming.assembler.late_dropped": "flows",
    "sketch.cloning.distinct_ratio": "ratio",
    "detection.manager.alarm_ratio": "ratio",
    "detection.manager.extraction_yield": "ratio",
    "core.prefilter.selectivity": "ratio",
    "mining.miner.itemsets": "count",
    "incidents.store.appends": "count",
}

_BOOKKEEPING = -1
#: What a vanished hook target raises (``ReproError``: an unknown
#: registry name).
_MISSING = (ImportError, AttributeError, KeyError, ReproError)
_TARGET = re.compile(r"^([\w.]+):([\w.]+)(?:\[(\w+)\])?$")


class Recorder:
    """The span list of one traced run plus the raw counter sums."""

    def __init__(self) -> None:
        self.layers = list(HOOKS)
        #: One ``[layer, start, end, parent]`` list per span; layer is
        #: an index into :attr:`layers` or ``_BOOKKEEPING``.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        #: Assemblers seen in the current pass, read at its end.
        self.assemblers: dict[int, object] = {}

    def open(self, layer: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def high(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0.0), value)

    def current_layer(self) -> int | None:
        """Layer of the innermost open span, bookkeeping aside."""
        for index in reversed(self._stack):
            if self.spans[index][0] != _BOOKKEEPING:
                return self.spans[index][0]
        return None

    def end_pass(self) -> None:
        """Fold the pass's per-assembler late drops into the sums."""
        self.add("streaming.assembler.late_dropped", sum(
            a.late_dropped for a in self.assemblers.values()
        ))
        self.assemblers.clear()

    def bookkeeping_s(self) -> float:
        """Time spent in counters (nested counters do not occur)."""
        return sum(e - s for layer, s, e, _ in self.spans
                   if layer == _BOOKKEEPING)

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-layer (self seconds, calls)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        busy = np.zeros(len(self.layers))
        calls = np.zeros(len(self.layers), dtype=np.int64)
        for index, (layer, start, end, _) in enumerate(self.spans):
            if layer == _BOOKKEEPING:
                continue
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            busy[layer] += (end - start) - covered
            calls[layer] += 1
        return busy, calls

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for layer, start, end, parent in self.spans:
                name = (
                    "bookkeeping" if layer == _BOOKKEEPING
                    else self.layers[layer]
                )
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")


def _wrap(fn: Callable, layer: int | None, rec: Recorder, count) -> Callable:
    """Time ``fn`` as ``layer`` (no span when None), then count."""

    def after(args, result) -> None:
        index = rec.open(_BOOKKEEPING)
        try:
            count(rec, args, result)
        finally:
            rec.close(index)

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = rec.open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec.close(index)
                    if count is not None:
                        after(args, item)
                    yield item
            finally:
                inner.close()

        return gen_wrapper

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            index = rec.open(layer)
            try:
                result = await fn(*args, **kwargs)
            finally:
                rec.close(index)
            if count is not None:
                after(args, result)
            return result

        return async_wrapper

    if layer is None:
        @functools.wraps(fn)
        def probe_wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return probe_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if count is not None:
            after(args, result)
        return result

    return wrapper


# ----------------------------------------------------------------------
# Counters: (recorder, call args, result) -> None
# ----------------------------------------------------------------------
def _count_rows(rec, args, chunk) -> None:
    rec.add("flows.io.rows", len(chunk))


def _count_checkpoint(rec, args, size) -> None:
    rec.add("service.checkpoint.bytes", size)
    rec.add("service.checkpoint.writes", 1)


def _count_assembler(rec, args, views) -> None:
    assembler = args[0]
    rec.high("streaming.assembler.pending_flows_max", assembler.pending_flows)
    rec.assemblers[id(assembler)] = assembler


def _count_distinct(rec, args, result) -> None:
    clones, values = args[0], args[1]
    rec.add("_distinct_values", len(np.unique(values)) * len(clones))


_CLONING = list(HOOKS).index("sketch.cloning")


def _count_hashed(rec, args, result) -> None:
    if rec.current_layer() == _CLONING:
        rec.add("_rows_hashed", len(args[1]))


def _count_observe(rec, args, report) -> None:
    rec.add("_observed", 1)
    if report.alarm:
        rec.add("_alarms", 1)
        if not report.metadata().is_empty():
            rec.add("_alarms_with_metadata", 1)


def _count_prefilter(rec, args, selected) -> None:
    rec.add("_prefilter_in", selected.input_flows)
    rec.add("_prefilter_out", selected.selected_flows)


def _count_itemsets(rec, args, mining) -> None:
    rec.add("mining.miner.itemsets", len(mining.itemsets))


def _count_append(rec, args, result) -> None:
    rec.add("incidents.store.appends", 1)


COUNTERS = {
    "repro.service.app:iter_csv_handle": _count_rows,
    "repro.service.app:write_checkpoint": _count_checkpoint,
    "repro.streaming.assembler:IntervalAssembler.push": _count_assembler,
    "repro.sketch.cloning:CloneSet.update": _count_distinct,
    "repro.detection.manager:DetectorBank.observe": _count_observe,
    "repro.core.pipeline:prefilter": _count_prefilter,
    "repro.core.session:prefilter": _count_prefilter,
    "repro.mining:MINERS[{miner}]": _count_itemsets,
    "repro.incidents.store:IncidentStore.append": _count_append,
}


#: Counter-only hooks: the rows the clone histograms actually hash.
PROBES = {
    "repro.sketch.hashing:UniversalHash.hash_array": _count_hashed,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Hooks:
    """Install the hook table around a traced pass; undo it after.

    A target that cannot be found is recorded in :attr:`missing`.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.missing: dict[str, list[str]] = {}
        self._undo: list[Callable[[], None]] = []

    def install(self) -> None:
        miner = ExtractionConfig().miner
        self.missing = {}
        for layer_index, (layer, targets) in enumerate(HOOKS.items()):
            for spec in targets:
                target = spec.format(miner=miner)
                try:
                    self._patch(
                        target, layer_index, COUNTERS.get(spec)
                    )
                except _MISSING as exc:
                    self.missing.setdefault(layer, []).append(
                        f"{target}: {exc}"
                    )
        for target, count in PROBES.items():
            try:
                self._patch(target, None, count)
            except _MISSING as exc:
                self.missing.setdefault("probes", []).append(
                    f"{target}: {exc}"
                )

    def _patch(self, target: str, layer: int | None, count) -> None:
        match = _TARGET.match(target)
        if match is None:
            raise KeyError(f"malformed hook target {target!r}")
        module_name, path, key = match.groups()
        owner = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if key is not None:
            mapping = getattr(owner, name)
            original = mapping[key]
            mapping[key] = _wrap(original, layer, self.rec, count)
            self._undo.append(
                lambda: mapping.__setitem__(key, original)
            )
            return
        if not isinstance(owner, type):
            raw = getattr(owner, name)
            setattr(owner, name, _wrap(raw, layer, self.rec, count))
            self._undo.append(lambda: setattr(owner, name, raw))
            return
        # Read the raw class attribute, wherever in the MRO it lives, so
        # classmethods stay classmethods.
        defining = next(
            (k for k in owner.__mro__ if name in k.__dict__), None
        )
        if defining is None:
            raise AttributeError(f"{owner.__name__} has no {name!r}")
        raw = defining.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(raw.__func__, layer, self.rec, count))
        else:
            wrapped = _wrap(raw, layer, self.rec, count)
        setattr(owner, name, wrapped)
        if defining is owner:
            self._undo.append(lambda: setattr(owner, name, raw))
        else:
            self._undo.append(lambda: delattr(owner, name))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def layer_metrics(
    rec: Recorder, traced_wall: float, untraced_wall: float
) -> dict[str, dict]:
    """The per-layer metrics of a traced run, in report order.

    ``traced_wall`` is the traced passes' wall time less the counters'
    bookkeeping time; ``untraced_wall`` is the same passes run without
    hooks.  A layer whose hooks are missing reads zero.
    """
    busy, calls = rec.self_times()
    out: dict[str, dict] = {}
    for index, layer in enumerate(rec.layers):
        out[f"{layer}.busy_s"] = {"value": float(busy[index]), "unit": "s"}
        out[f"{layer}.calls"] = {"value": int(calls[index]),
                                 "unit": "count"}
        out[f"{layer}.share"] = {
            "value": _ratio(float(busy[index]), traced_wall),
            "unit": "ratio",
        }
    s, m = rec.sums, rec.maxima
    values = {
        "flows.io.rows": s.get("flows.io.rows", 0),
        "service.checkpoint.bytes": s.get("service.checkpoint.bytes", 0),
        "service.checkpoint.writes": s.get("service.checkpoint.writes", 0),
        "streaming.assembler.pending_flows_max": m.get(
            "streaming.assembler.pending_flows_max", 0
        ),
        "streaming.assembler.late_dropped": s.get(
            "streaming.assembler.late_dropped", 0
        ),
        "sketch.cloning.distinct_ratio": _ratio(
            s.get("_distinct_values", 0), s.get("_rows_hashed", 0)
        ),
        "detection.manager.alarm_ratio": _ratio(
            s.get("_alarms", 0), s.get("_observed", 0)
        ),
        "detection.manager.extraction_yield": _ratio(
            s.get("_alarms_with_metadata", 0), s.get("_alarms", 0)
        ),
        "core.prefilter.selectivity": _ratio(
            s.get("_prefilter_out", 0), s.get("_prefilter_in", 0)
        ),
        "mining.miner.itemsets": s.get("mining.miner.itemsets", 0),
        "incidents.store.appends": s.get("incidents.store.appends", 0),
    }
    for name, unit in COUNT_UNITS.items():
        value = values[name]
        if unit != "ratio":
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    out["trace_overhead"] = {
        "value": _ratio(traced_wall, untraced_wall) - 1.0,
        "unit": "ratio",
    }
    return out
