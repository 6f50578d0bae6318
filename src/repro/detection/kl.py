"""Kullback-Leibler distance between histogram distributions.

Section II-C: each detector computes, at the end of every interval, the
KL distance between the current feature distribution and the previous
interval's distribution (used as the reference, avoiding training):

    D(p || q) = sum_i p_i * log2(p_i / q_i)

Coinciding distributions give 0; deviations give positive spikes at the
start and end of an anomaly.  The paper leaves empty-bin handling
unspecified; we use additive smoothing so the distance stays finite
(see "Paper mapping" in the README).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

#: Default Laplace pseudo-count applied to both distributions.
DEFAULT_PSEUDOCOUNT = 0.5

#: ``np.isclose(total, 1.0, atol=1e-6)`` as one scalar bound: its
#: absolute tolerance plus the default relative tolerance times 1.
_SUM_TOLERANCE = 1e-6 + 1e-5


def kl_distance(p: np.ndarray, q: np.ndarray) -> float:
    """KL distance (in bits) between two discrete distributions.

    Both inputs must be proper distributions on the same support: equal
    length, non-negative, each summing to ~1.  Zero p-bins contribute 0;
    a zero q-bin with positive p yields ``inf`` (use smoothing upstream
    to avoid this).

    The detector calls this once per clone and interval and once per
    bin-identification round, so the checks use scalar reductions; the
    result is bit-identical to the masked ``np.isclose`` formulation.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ConfigError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.ndim != 1:
        raise ConfigError("distributions must be one-dimensional")
    # NaN minima compare False here and fail the sum check below.
    p_min = p.min(initial=np.inf)
    q_min = q.min(initial=np.inf)
    if p_min < 0 or q_min < 0:
        raise ConfigError("distributions must be non-negative")
    if not (
        abs(p.sum() - 1.0) <= _SUM_TOLERANCE
        and abs(q.sum() - 1.0) <= _SUM_TOLERANCE
    ):
        raise ConfigError("distributions must sum to 1")
    if p_min > 0 and q_min > 0:
        # Every bin contributes and no ratio divides by zero - always
        # the case with a positive pseudocount.
        return float(np.sum(p * np.log2(p / q)))
    mask = p > 0
    if not mask.any():
        return 0.0
    with np.errstate(divide="ignore"):
        ratios = np.log2(p[mask] / q[mask])
    return float(np.sum(p[mask] * ratios))


def kl_from_counts(
    current: np.ndarray,
    reference: np.ndarray,
    pseudocount: float = DEFAULT_PSEUDOCOUNT,
) -> float:
    """KL distance computed from raw bin *counts* with smoothing.

    This is the exact quantity the detector tracks: counts are Laplace-
    smoothed with ``pseudocount`` and normalized before the distance is
    taken.  Smoothing guarantees finiteness even for bins that empty out
    between intervals.
    """
    if pseudocount < 0:
        raise ConfigError(f"pseudocount must be >= 0: {pseudocount}")
    cur = np.asarray(current, dtype=np.float64) + pseudocount
    ref = np.asarray(reference, dtype=np.float64) + pseudocount
    if cur.shape != ref.shape:
        raise ConfigError(f"shape mismatch: {cur.shape} vs {ref.shape}")
    cur_total = cur.sum()
    ref_total = ref.sum()
    if cur_total == 0 or ref_total == 0:
        # Both-zero histograms (pseudocount 0 and empty intervals): no
        # information, no distance.
        return 0.0
    return kl_distance(cur / cur_total, ref / ref_total)


def first_difference(series: np.ndarray) -> np.ndarray:
    """First difference of a KL time series; element ``t`` is
    ``series[t] - series[t-1]`` and index 0 is defined as 0.

    The paper observed this difference to be approximately normal with
    zero mean, which justifies the MAD-based threshold of
    :mod:`repro.detection.threshold`.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ConfigError("KL series must be one-dimensional")
    if len(series) == 0:
        return np.empty(0, dtype=np.float64)
    diff = np.empty_like(series)
    diff[0] = 0.0
    diff[1:] = series[1:] - series[:-1]
    return diff
