"""Golden corpus: absolute pins on the pipeline's outputs.

Every other equivalence test is relative (batch == stream == fleet ==
federation); a change that shifts every mode the same way passes all of
them.  These tests pin sha256 hashes of three canonical renderings for
a fixed set of scenarios:

* ``reports`` - the canonical ``ExtractionReport.to_json()`` documents
  of every extraction, one per line;
* ``bank_state`` - ``DetectorBank.to_state()`` after the whole trace
  (reference histograms, KL/diff series, calibration), as sorted-key
  compact JSON;
* ``incidents`` - the ranked incident list (``rank_incidents`` over
  ``correlate`` of the reports), as sorted-key compact JSON.

The pins live in ``hashes.json`` next to this file.  Re-blessing one
means the pipeline's output changed: regenerate with

    PYTHONPATH=src python tests/golden/test_golden.py --bless

and add a CHANGES line saying why the output changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable
from pathlib import Path

import pytest

from repro.anomalies import DDoSInjector, EventSchedule
from repro.core.config import ExtractionConfig
from repro.core.pipeline import AnomalyExtractor
from repro.core.report import ExtractionReport
from repro.detection.detector import DetectorConfig
from repro.flows.table import ALL_COLUMNS, FlowTable
from repro.incidents.correlate import correlate
from repro.incidents.rank import rank_incidents
from repro.traffic import TraceGenerator, switch_like
from repro.traffic.scenarios import (
    table2_interval,
    two_day_trace,
    worm_outbreak_trace,
)

HASHES = Path(__file__).with_name("hashes.json")
INTERVAL = 900.0


def _canonical(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(
    flows: FlowTable, config: ExtractionConfig, seed: int
) -> dict[str, str]:
    """Run the batch pipeline and hash its three renderings."""
    with AnomalyExtractor(config, seed=seed) as extractor:
        result = extractor.run_trace(flows, INTERVAL)
        bank = extractor.detector_bank
        bank_state = bank.to_state()
        last = next(iter(bank.detectors.values())).interval
    reports = [
        ExtractionReport.from_result(extraction, INTERVAL)
        for extraction in result.extractions
    ]
    ranked = rank_incidents(correlate(reports, now=last))
    return {
        "reports": _sha256("\n".join(r.to_json() for r in reports)),
        "bank_state": _sha256(_canonical(bank_state)),
        "incidents": _sha256(_canonical([r.to_dict() for r in ranked])),
    }


def _table2() -> dict[str, str]:
    """The Table II interval (flooding on dstPort 7000 plus the three
    popular ports) dropped into the last of ten background intervals."""
    background = TraceGenerator(switch_like(2_000), seed=42).generate(10)
    table2 = table2_interval(scale=0.02, seed=42).flows
    shifted = FlowTable({
        **{name: table2.column(name) for name in ALL_COLUMNS},
        "start": table2.start + 9 * INTERVAL,
    })
    flows = FlowTable.concat([background.flows, shifted]).sort_by_start()
    config = ExtractionConfig(
        detector=DetectorConfig(bins=256, training_intervals=8),
        min_support=200,
    )
    return _run(flows, config, seed=1)


def _worm_outbreak() -> dict[str, str]:
    trace = worm_outbreak_trace(flows_per_interval=1_500, seed=23)
    config = ExtractionConfig(
        detector=DetectorConfig(bins=256, training_intervals=6),
        min_support=300,
    )
    return _run(trace.flows, config, seed=0)


def _two_day() -> dict[str, str]:
    trace = two_day_trace(flows_per_interval=800, seed=11)
    config = ExtractionConfig(
        detector=DetectorConfig(bins=512, training_intervals=48),
        min_support=300,
    )
    return _run(trace.flows, config, seed=0)


def _quickstart_ddos() -> dict[str, str]:
    """``examples/quickstart.py``: six hours, one DDoS at interval 20."""
    profile = switch_like(flows_per_interval=4_000)
    schedule = EventSchedule()
    schedule.add_at_interval(
        DDoSInjector(victim_ip=profile.internal_base + 123, target_port=80,
                     flows=6_000, sources=1_500),
        interval_index=20,
        interval_seconds=INTERVAL,
        duration=880.0,
    )
    trace = TraceGenerator(profile, seed=42).generate(24, schedule=schedule)
    config = ExtractionConfig(
        detector=DetectorConfig(
            clones=3, bins=1024, vote_threshold=3, training_intervals=8
        ),
        min_support=800,
    )
    return _run(trace.flows, config, seed=7)


SCENARIOS: dict[str, Callable[[], dict[str, str]]] = {
    "table2_interval": _table2,
    "worm_outbreak_trace": _worm_outbreak,
    "two_day_trace": _two_day,
    "quickstart_ddos": _quickstart_ddos,
}


def _pinned() -> dict[str, dict[str, str]]:
    pinned: dict[str, dict[str, str]] = json.loads(HASHES.read_text())
    return pinned


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_hashes(scenario: str) -> None:
    assert SCENARIOS[scenario]() == _pinned()[scenario]


def test_every_scenario_is_pinned() -> None:
    assert sorted(_pinned()) == sorted(SCENARIOS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: test_golden.py --bless")
    blessed = {name: build() for name, build in sorted(SCENARIOS.items())}
    HASHES.write_text(json.dumps(blessed, indent=2, sort_keys=True) + "\n")
    print(f"wrote {HASHES}")
