"""Hashed histograms - the per-clone data structure of the detector.

A :class:`HashedHistogram` counts flows per bin, where the bin of a flow
is the universal hash of one of its feature values.  It also retains the
set of distinct feature values observed per interval so that anomalous
bins can later be mapped back to the feature values that hashed into
them (paper Section II-C, step 2).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigError, SketchError
from repro.flows.table import pack_array, unpack_array
from repro.sketch.hashing import UniversalHash


def distinct_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A feature column reduced to its sorted distinct values and the
    number of flows carrying each one.

    This is the unit of per-clone work: a clone set computes it once per
    column and every clone hashes the distinct values only.
    """
    return np.unique(np.asarray(values, dtype=np.uint64), return_counts=True)


def decode_state(
    counts_doc: object, observed_doc: object, bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode and validate one clone's packed ``(counts, observed)``.

    Every decoder of histogram state (snapshot and clone-set documents,
    detector checkpoints) goes through here, so a hostile document is
    refused before any state is built from it: ``bins`` counts and an
    array of non-negative integer values that pass :func:`check_state`.
    Raises ``ValueError`` with the reason; each caller wraps it in its
    own error type.
    """
    counts = unpack_array(counts_doc)
    observed = unpack_array(observed_doc)
    if counts.ndim != 1 or observed.ndim != 1:
        raise ValueError("histogram state arrays must be one-dimensional")
    if counts.dtype.kind not in "uif":
        raise ValueError(f"counts must be numeric, got {counts.dtype}")
    counts = counts.astype(np.float64)
    if len(counts) != bins:
        raise ValueError(
            f"histogram state has {len(counts)} counts, expected {bins} bins"
        )
    if observed.size and (
        observed.dtype.kind not in "ui" or observed.min() < 0
    ):
        raise ValueError("observed values must be non-negative integers")
    observed = observed.astype(np.uint64)
    check_state(counts, observed)
    return counts, observed


def check_state(counts: np.ndarray, observed: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``(counts, observed)`` is a state a
    histogram can reach: finite, non-negative, integral counts and
    strictly increasing observed values."""
    if not np.isfinite(counts).all():
        raise ValueError("histogram counts must be finite")
    if counts.min(initial=0.0) < 0:
        raise ValueError("histogram counts must be non-negative")
    if not (counts == np.floor(counts)).all():
        raise ValueError("histogram counts must be integral")
    if not (observed[1:] > observed[:-1]).all():
        raise ValueError(
            "observed values must be sorted and free of duplicates"
        )


class HashedHistogram:
    """Histogram over ``m`` bins with a value->bin map for the current
    interval.

    The paper's clone keeps "a map of bins and corresponding feature
    values"; we store the observed distinct values with the bin of each,
    aligned, so the back-map never re-hashes.  The bins are derived
    state: they are not serialized, and :meth:`restore` recomputes them.
    """

    __slots__ = ("_hash", "_counts", "_observed", "_value_bins")

    def __init__(self, hash_fn: UniversalHash):
        self._hash = hash_fn
        self._counts = np.zeros(hash_fn.bins, dtype=np.float64)
        self._observed: np.ndarray = np.empty(0, dtype=np.uint64)
        self._value_bins: np.ndarray = np.empty(0, dtype=np.int64)

    @property
    def bins(self) -> int:
        return self._hash.bins

    @property
    def hash_fn(self) -> UniversalHash:
        return self._hash

    @property
    def counts(self) -> np.ndarray:
        """Per-bin flow counts for the current interval (read-only copy)."""
        return self._counts.copy()

    @property
    def total(self) -> float:
        return float(self._counts.sum())

    def reset(self) -> None:
        """Clear counts and the observed-value set for a new interval."""
        self._counts[:] = 0.0
        self._observed = np.empty(0, dtype=np.uint64)
        self._value_bins = np.empty(0, dtype=np.int64)

    def update(self, values: np.ndarray) -> None:
        """Add one flow per entry of ``values`` (a feature column)."""
        self.add_distinct(*distinct_counts(values))

    def add_distinct(self, distinct: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts[i]`` flows carrying value ``distinct[i]``.

        ``distinct`` must be sorted and duplicate-free, as
        :func:`distinct_counts` returns it, and is kept by reference
        (the clones of a set share it).  Only the distinct values
        are hashed; the counts land with one weighted ``bincount``
        (exact: counts are integers far below 2^53).
        """
        if distinct.size == 0:
            return
        bins = self._hash.hash_array(distinct)
        self._counts += np.bincount(bins, weights=counts, minlength=self.bins)
        if self._observed.size == 0:
            self._observed, self._value_bins = distinct, bins
            return
        merged_bins = np.concatenate((self._value_bins, bins))
        self._observed, first = np.unique(
            np.concatenate((self._observed, distinct)), return_index=True
        )
        self._value_bins = merged_bins[first]

    def observed_values(self) -> np.ndarray:
        """Distinct feature values seen in the current interval."""
        return self._observed.copy()

    def values_in_bins(self, bins: np.ndarray | list[int]) -> np.ndarray:
        """Observed feature values that hash into any of ``bins``.

        This is the bin->values back-map used after anomalous bins have
        been identified.
        """
        wanted = np.asarray(bins, dtype=np.int64)
        if wanted.size == 0 or self._observed.size == 0:
            return np.empty(0, dtype=np.uint64)
        if wanted.min() < 0 or wanted.max() >= self.bins:
            raise ConfigError(
                f"bin index out of range [0, {self.bins}): {wanted}"
            )
        return self._observed[np.isin(self._value_bins, wanted)]

    def distribution(self, pseudocount: float = 0.0) -> np.ndarray:
        """Normalized bin distribution, optionally Laplace-smoothed."""
        if pseudocount < 0:
            raise ConfigError(f"pseudocount must be >= 0: {pseudocount}")
        smoothed = self._counts + pseudocount
        total = smoothed.sum()
        if total == 0:
            # Degenerate empty interval: fall back to uniform.
            return np.full(self.bins, 1.0 / self.bins)
        return smoothed / total

    def snapshot(self) -> "HistogramSnapshot":
        """Freeze the current interval state (counts + observed values,
        and the bins already computed for them)."""
        return HistogramSnapshot(
            hash_fn=self._hash,
            counts=self._counts,
            observed=self._observed,
            value_bins=self._value_bins,
        )

    def restore(self, counts: np.ndarray, observed: np.ndarray) -> None:
        """Replace this histogram's interval state (digest replay path).

        ``counts`` must match the bin count; both arrays are copied.
        """
        counts = np.asarray(counts, dtype=np.float64)
        if len(counts) != self.bins:
            raise SketchError(
                f"histogram state has {len(counts)} bins, "
                f"expected {self.bins}"
            )
        self._counts = counts.copy()
        self._observed = np.asarray(observed, dtype=np.uint64).copy()
        self._value_bins = self._hash.hash_array(self._observed)


class HistogramSnapshot:
    """Immutable state of a :class:`HashedHistogram` at interval end.

    Snapshots are what the detector stores as the reference (previous
    interval) distribution and what the bin-identification algorithm
    manipulates.  ``value_bins`` - the bin of each observed value, as
    the histogram computed it - rides along when the snapshot is taken;
    a decoded or merged snapshot derives it on first use.
    """

    __slots__ = ("hash_fn", "_counts", "_observed", "_value_bins")

    def __init__(
        self,
        hash_fn: UniversalHash,
        counts: np.ndarray,
        observed: np.ndarray,
        value_bins: np.ndarray | None = None,
    ):
        if len(counts) != hash_fn.bins:
            raise ConfigError(
                f"snapshot counts length {len(counts)} != bins {hash_fn.bins}"
            )
        if value_bins is not None and len(value_bins) != len(observed):
            raise ConfigError(
                f"{len(value_bins)} value bins for "
                f"{len(observed)} observed values"
            )
        self.hash_fn = hash_fn
        self._counts = _frozen(counts, np.float64)
        self._observed = _frozen(observed, np.uint64)
        self._value_bins = (
            None if value_bins is None else _frozen(value_bins, np.int64)
        )

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def observed(self) -> np.ndarray:
        return self._observed

    @property
    def value_bins(self) -> np.ndarray:
        """Bin of each observed value, aligned with :attr:`observed`."""
        if self._value_bins is None:
            self._value_bins = _frozen(
                self.hash_fn.hash_array(self._observed), np.int64
            )
        return self._value_bins

    @property
    def bins(self) -> int:
        return self.hash_fn.bins

    @property
    def total(self) -> float:
        return float(self._counts.sum())

    def distribution(self, pseudocount: float = 0.0) -> np.ndarray:
        """Normalized (optionally smoothed) bin distribution."""
        if pseudocount < 0:
            raise ConfigError(f"pseudocount must be >= 0: {pseudocount}")
        smoothed = self._counts + pseudocount
        total = smoothed.sum()
        if total == 0:
            return np.full(self.bins, 1.0 / self.bins)
        return smoothed / total

    def values_in_bins(self, bins: np.ndarray | list[int]) -> np.ndarray:
        """Observed feature values hashing into any of ``bins``."""
        wanted = np.asarray(bins, dtype=np.int64)
        if wanted.size == 0 or self._observed.size == 0:
            return np.empty(0, dtype=np.uint64)
        return self._observed[np.isin(self.value_bins, wanted)]

    def with_counts(self, counts: np.ndarray) -> "HistogramSnapshot":
        """Copy of this snapshot with replaced counts (used by the
        iterative bin-cleaning simulation)."""
        return HistogramSnapshot(
            self.hash_fn, counts, self._observed, self._value_bins
        )

    # ------------------------------------------------------------------
    # Federation: merge + canonical wire form
    # ------------------------------------------------------------------
    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two snapshots of the *same* hash function.

        Bin counts add cell-wise and the observed-value sets union, so
        the result is byte-identical to a snapshot taken over the
        concatenated flow streams (counts are integer-valued float64,
        addition is exact; ``union1d`` output is the sorted union either
        way).  That exactness - not an approximation - is what the
        federated detection-equivalence tests assert.  Snapshots binned
        by different hash functions count different events per bin, so
        merging them is refused.
        """
        if self.hash_fn != other.hash_fn:
            raise SketchError(
                f"cannot merge histogram snapshots with different hash "
                f"functions: {self.hash_fn} vs {other.hash_fn}"
            )
        return HistogramSnapshot(
            hash_fn=self.hash_fn,
            counts=self._counts + other._counts,
            observed=np.union1d(self._observed, other._observed),
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe document (checkpoint-document
        discipline: identical state renders identical bytes)."""
        return {
            "hash": {
                "a": self.hash_fn.a,
                "b": self.hash_fn.b,
                "bins": self.hash_fn.bins,
            },
            "counts": pack_array(self._counts),
            "observed": pack_array(self._observed),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "HistogramSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output."""
        try:
            hash_fn = UniversalHash(
                a=int(doc["hash"]["a"]),
                b=int(doc["hash"]["b"]),
                bins=int(doc["hash"]["bins"]),
            )
            counts, observed = decode_state(
                doc["counts"], doc["observed"], hash_fn.bins
            )
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise SketchError(
                f"malformed histogram snapshot document: {exc}"
            ) from exc
        return cls(hash_fn=hash_fn, counts=counts, observed=observed)


def _frozen(array: np.ndarray, dtype: type) -> np.ndarray:
    """Read-only private copy of ``array`` as ``dtype``."""
    frozen = np.array(array, dtype=dtype)
    frozen.setflags(write=False)
    return frozen
