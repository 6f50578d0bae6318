"""Hostile histogram state is refused before any detector state moves.

Snapshots, clone sets and detector checkpoints can arrive from outside
(federation digests, service checkpoints).  A document whose counts are
negative, NaN or fractional, or whose observed values are unsorted or
repeated, is refused with a typed ``ReproError`` at decode time; a
snapshot object carrying such state is refused by ``observe_snapshots``
before the interval advances.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.detection.detector import (
    DetectorConfig,
    HistogramDetector,
    clone_seed,
)
from repro.detection.features import Feature
from repro.detection.manager import DetectorBank
from repro.errors import CheckpointError, ReproError, SketchError
from repro.flows.table import FlowTable, pack_array
from repro.sketch.cloning import CloneSet
from repro.sketch.histogram import HistogramSnapshot

BINS = 32
CONFIG = DetectorConfig(clones=3, bins=BINS, training_intervals=4)

#: (name, counts edit, observed) - each breaks one validity rule.
HOSTILE = [
    ("negative count", lambda c: c.__setitem__(0, -1.0), [1, 2, 3]),
    ("nan count", lambda c: c.__setitem__(1, np.nan), [1, 2, 3]),
    ("inf count", lambda c: c.__setitem__(1, np.inf), [1, 2, 3]),
    ("fractional count", lambda c: c.__setitem__(2, 0.5), [1, 2, 3]),
    ("unsorted observed", lambda c: None, [3, 1, 2]),
    ("duplicate observed", lambda c: None, [1, 1, 2]),
]


def _hostile_state(edit, observed):
    counts = np.zeros(BINS)
    counts[:3] = 1.0
    edit(counts)
    return counts, np.asarray(observed, dtype=np.uint64)


def _flows(rng, n=300):
    return FlowTable.from_arrays(
        src_ip=rng.integers(0, 500, n),
        dst_ip=rng.integers(0, 500, n),
        src_port=rng.integers(1024, 65536, n),
        dst_port=rng.integers(1, 1000, n),
        protocol=[6] * n,
        packets=[1] * n,
        bytes_=[40] * n,
    )


def _trained_bank(seed=0):
    bank = DetectorBank(CONFIG, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        bank.observe(_flows(rng))
    return bank


def _snapshots(feature, flows, seed=0):
    """The clone snapshots a detector of ``feature`` takes of ``flows``."""
    clones = CloneSet(CONFIG.clones, BINS, seed=clone_seed(seed, feature))
    clones.update(feature.extract(flows))
    return clones.snapshots()


def _canonical(state) -> str:
    return json.dumps(state, sort_keys=True)


@pytest.mark.parametrize("name,edit,observed", HOSTILE)
class TestDecodeRefusal:
    def test_snapshot_document(self, name, edit, observed):
        hash_fn = CloneSet(1, BINS, seed=0)[0].hash_fn
        counts, values = _hostile_state(edit, observed)
        doc = {
            "hash": {"a": hash_fn.a, "b": hash_fn.b, "bins": BINS},
            "counts": pack_array(counts),
            "observed": pack_array(values),
        }
        with pytest.raises(SketchError):
            HistogramSnapshot.from_dict(doc)

    def test_clone_set_document(self, name, edit, observed):
        clone_set = CloneSet(2, BINS, seed=0)
        clone_set.update(np.arange(10, dtype=np.uint64))
        doc = clone_set.to_dict()
        counts, values = _hostile_state(edit, observed)
        doc["histograms"][1] = {
            "counts": pack_array(counts),
            "observed": pack_array(values),
        }
        with pytest.raises(SketchError):
            CloneSet.from_dict(doc)

    def test_bank_checkpoint_leaves_bank_untouched(
        self, name, edit, observed
    ):
        bank = _trained_bank()
        before = _canonical(bank.to_state())
        state = json.loads(before)
        counts, values = _hostile_state(edit, observed)
        # Corrupt only the LAST detector: the ones before it must not
        # have been restored either.
        last = state["features"][-1]
        state["detectors"][last]["prev"][0] = {
            "counts": pack_array(counts),
            "observed": pack_array(values),
        }
        state["detectors"][state["features"][0]]["interval"] = 99
        with pytest.raises(CheckpointError):
            bank.from_state(state)
        assert _canonical(bank.to_state()) == before

    def test_observe_snapshots_moves_no_state(self, name, edit, observed):
        detector = HistogramDetector(Feature.DST_PORT, CONFIG)
        rng = np.random.default_rng(1)
        for _ in range(3):
            detector.observe(_flows(rng))
        before = _canonical(detector.to_state())
        counts, values = _hostile_state(edit, observed)
        snapshots = _snapshots(Feature.DST_PORT, _flows(rng))
        snapshots[2] = HistogramSnapshot(
            snapshots[2].hash_fn, counts, values
        )
        for _ in range(2):
            with pytest.raises(SketchError):
                detector.observe_snapshots(snapshots)
        assert detector.interval == 2
        assert len(detector.kl_series(0)) == 3
        assert _canonical(detector.to_state()) == before


def test_bank_observe_snapshots_is_all_or_nothing():
    """A bad snapshot for the last feature refuses the interval before
    the earlier features' detectors advance."""
    bank = _trained_bank()
    before = _canonical(bank.to_state())
    flows = _flows(np.random.default_rng(9))
    snapshots = {
        feature: _snapshots(feature, flows) for feature in bank.features
    }
    last = bank.features[-1]
    bad = snapshots[last][0]
    counts = bad.counts.copy()
    counts[0] = np.nan
    snapshots[last][0] = HistogramSnapshot(bad.hash_fn, counts, bad.observed)
    with pytest.raises(ReproError):
        bank.observe_snapshots(snapshots, flow_count=300)
    assert _canonical(bank.to_state()) == before
    assert len(bank.reports) == 3


def test_bank_checkpoint_missing_detector_is_typed():
    bank = _trained_bank()
    state = bank.to_state()
    del state["detectors"][state["features"][-1]]
    with pytest.raises(CheckpointError):
        bank.from_state(state)


def test_valid_snapshots_still_observed():
    """The checks refuse only unreachable state: a bank fed its twin's
    snapshots matches the twin that observed the flows."""
    rng = np.random.default_rng(5)
    flows = [_flows(rng) for _ in range(6)]
    direct = DetectorBank(CONFIG, seed=3)
    fed = DetectorBank(CONFIG, seed=3)
    for interval in flows:
        direct.observe(interval)
        fed.observe_snapshots(
            {
                feature: _snapshots(feature, interval, seed=3)
                for feature in fed.features
            },
            flow_count=len(interval),
        )
    assert _canonical(fed.to_state()) == _canonical(direct.to_state())
