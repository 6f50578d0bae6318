"""Histogram clone sets.

A clone set is ``C`` hashed histograms over the same feature, each with an
independent universal hash function (paper Section II-D).  Clones provide
alternative random binnings; the voting step intersects their views to
weed out normal feature values that collide into anomalous bins.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.errors import ConfigError, SketchError
from repro.sketch.hashing import HashFamily
from repro.sketch.histogram import (
    HashedHistogram,
    HistogramSnapshot,
    decode_state,
    distinct_counts,
)


class CloneSet:
    """``C`` independent hashed histograms of one traffic feature."""

    def __init__(self, clones: int, bins: int, seed: int = 0):
        if clones < 1:
            raise ConfigError(f"need at least one clone: {clones}")
        self._seed = seed
        family = HashFamily(bins=bins, seed=seed)
        self._histograms = [HashedHistogram(fn) for fn in family.take(clones)]

    def __len__(self) -> int:
        return len(self._histograms)

    def __iter__(self) -> Iterator[HashedHistogram]:
        return iter(self._histograms)

    def __getitem__(self, index: int) -> HashedHistogram:
        return self._histograms[index]

    @property
    def bins(self) -> int:
        return self._histograms[0].bins

    @property
    def seed(self) -> int:
        """Seed of the hash family shared by the clones."""
        return self._seed

    def reset(self) -> None:
        """Start a new measurement interval on every clone."""
        for histogram in self._histograms:
            histogram.reset()

    def update(self, values: np.ndarray) -> None:
        """Feed one interval's feature column to every clone.

        The column is reduced to its distinct values once; each clone
        then hashes only those, so per-clone work follows the number of
        distinct values rather than the number of flows.
        """
        distinct, counts = distinct_counts(values)
        for histogram in self._histograms:
            histogram.add_distinct(distinct, counts)

    def snapshots(self) -> list[HistogramSnapshot]:
        """Freeze every clone's interval state."""
        return [histogram.snapshot() for histogram in self._histograms]

    # ------------------------------------------------------------------
    # Federation: canonical wire form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe document of the clone set.

        The clone hash functions are NOT serialized: they derive
        deterministically from ``(clones, bins, seed)``, so the document
        stays small and a restored set provably uses the same binning.
        Per-clone state reuses the snapshot encoding minus the redundant
        hash block.
        """
        return {
            "clones": len(self._histograms),
            "bins": self.bins,
            "seed": self._seed,
            "histograms": [
                {
                    key: value
                    for key, value in histogram.snapshot().to_dict().items()
                    if key != "hash"
                }
                for histogram in self._histograms
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CloneSet":
        """Rebuild a clone set (hash functions re-derived from the seed)
        from :meth:`to_dict` output."""
        try:
            clone_set = cls(
                clones=int(doc["clones"]),
                bins=int(doc["bins"]),
                seed=int(doc["seed"]),
            )
            states = list(doc["histograms"])
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise SketchError(
                f"malformed clone-set document: {exc}"
            ) from exc
        if len(states) != len(clone_set):
            raise SketchError(
                f"clone-set document carries {len(states)} histograms "
                f"for {len(clone_set)} clones"
            )
        for histogram, state in zip(clone_set, states, strict=True):
            try:
                counts, observed = decode_state(
                    state["counts"], state["observed"], clone_set.bins
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise SketchError(
                    f"malformed clone histogram state: {exc}"
                ) from exc
            histogram.restore(counts, observed)
        return clone_set
