"""Property-based tests for the KL distance machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.detection.kl import first_difference, kl_distance, kl_from_counts
from repro.errors import ConfigError

counts_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=64),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


def _paired_counts():
    return st.integers(min_value=2, max_value=64).flatmap(
        lambda n: st.tuples(
            hnp.arrays(
                dtype=np.float64,
                shape=n,
                elements=st.floats(min_value=0.0, max_value=1e6),
            ),
            hnp.arrays(
                dtype=np.float64,
                shape=n,
                elements=st.floats(min_value=0.0, max_value=1e6),
            ),
        )
    )


@settings(max_examples=100, deadline=None)
@given(pair=_paired_counts())
def test_kl_non_negative(pair):
    current, reference = pair
    distance = kl_from_counts(current, reference, pseudocount=0.5)
    assert distance >= -1e-9  # Gibbs inequality (numerical slack)


@settings(max_examples=100, deadline=None)
@given(counts=counts_arrays)
def test_kl_self_distance_zero(counts):
    assert kl_from_counts(counts, counts, pseudocount=0.5) == 0.0


@settings(max_examples=100, deadline=None)
@given(counts=counts_arrays, scale=st.floats(min_value=1.1, max_value=100.0))
def test_kl_volume_invariance_without_smoothing(counts, scale):
    # Scaling all counts leaves the distribution unchanged; with zero
    # pseudocount the distance must be exactly 0 (the paper's robustness
    # to volume-only changes).
    distance = kl_from_counts(counts * scale, counts, pseudocount=0.0)
    assert abs(distance) < 1e-9


@settings(max_examples=100, deadline=None)
@given(pair=_paired_counts())
def test_kl_finite_with_smoothing(pair):
    current, reference = pair
    assert np.isfinite(kl_from_counts(current, reference, pseudocount=0.5))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=32),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_kl_asymmetric_in_general(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    forward = kl_distance(p, q)
    backward = kl_distance(q, p)
    # Both defined and non-negative; equality only in degenerate cases.
    assert forward >= 0 and backward >= 0


@settings(max_examples=100, deadline=None)
@given(
    series=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=1, max_value=100),
        elements=st.floats(min_value=-1e9, max_value=1e9),
    )
)
def test_first_difference_reconstructs_series(series):
    diffs = first_difference(series)
    assert len(diffs) == len(series)
    assert diffs[0] == 0.0
    reconstructed = series[0] + np.cumsum(diffs)
    assert np.allclose(reconstructed, series, rtol=1e-9, atol=1e-6)


# ----------------------------------------------------------------------
# Bit-identity with the masked np.isclose formulation
# ----------------------------------------------------------------------
def reference_kl_distance(p, q):
    """The straightforward formulation: every check via ``np.isclose``
    and a boolean mask over the positive p-bins."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ConfigError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.ndim != 1:
        raise ConfigError("distributions must be one-dimensional")
    if (p < 0).any() or (q < 0).any():
        raise ConfigError("distributions must be non-negative")
    if not np.isclose(p.sum(), 1.0, atol=1e-6) or not np.isclose(
        q.sum(), 1.0, atol=1e-6
    ):
        raise ConfigError("distributions must sum to 1")
    mask = p > 0
    if not mask.any():
        return 0.0
    with np.errstate(divide="ignore"):
        ratios = np.log2(p[mask] / q[mask])
    return float(np.sum(p[mask] * ratios))


def reference_kl_from_counts(current, reference, pseudocount):
    cur = np.asarray(current, dtype=np.float64) + pseudocount
    ref = np.asarray(reference, dtype=np.float64) + pseudocount
    cur_total, ref_total = cur.sum(), ref.sum()
    if cur_total == 0 or ref_total == 0:
        return 0.0
    return reference_kl_distance(cur / cur_total, ref / ref_total)


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# Integer histogram counts with many empty bins, so pseudocount 0
# produces zero-p bins (masked) and zero-q bins (infinite distance).
sparse_counts = st.integers(min_value=2, max_value=64).flatmap(
    lambda n: st.tuples(*(
        hnp.arrays(
            dtype=np.float64,
            shape=n,
            elements=st.one_of(
                st.just(0.0),
                st.integers(min_value=1, max_value=10**6).map(float),
            ),
        )
        for _ in range(2)
    ))
)


@settings(max_examples=300, deadline=None)
@given(pair=sparse_counts, pseudocount=st.sampled_from([0.0, 0.5, 1.0]))
def test_kl_from_counts_bit_identical_to_reference(pair, pseudocount):
    cur, ref = pair
    assert same_bits(
        kl_from_counts(cur, ref, pseudocount),
        reference_kl_from_counts(cur, ref, pseudocount),
    )


def _outcome(fn, p, q):
    try:
        return np.float64(fn(p, q)).tobytes()
    except ConfigError:
        return "refused"


@settings(max_examples=300, deadline=None)
@given(
    pair=sparse_counts,
    p_scale=st.floats(min_value=1 - 4e-5, max_value=1 + 4e-5),
    q_scale=st.floats(min_value=1 - 4e-5, max_value=1 + 4e-5),
    corrupt=st.sampled_from(["none", "negative", "nan", "inf"]),
)
def test_kl_distance_matches_reference_including_refusals(
    pair, p_scale, q_scale, corrupt
):
    """Same floats where the reference accepts, a refusal exactly where
    it refuses: sums straddling the 1.1e-5 tolerance, negative, NaN and
    infinite entries."""
    cur, ref = (counts + 1.0 for counts in pair)
    p = cur / cur.sum() * p_scale
    q = ref / ref.sum() * q_scale
    if corrupt == "negative":
        p[0] = -p[0]
    elif corrupt == "nan":
        q[-1] = np.nan
    elif corrupt == "inf":
        p[-1] = np.inf
    assert _outcome(kl_distance, p, q) == _outcome(
        reference_kl_distance, p, q
    )


def test_kl_distance_refusals():
    good = np.array([0.5, 0.5])
    for p, q in (
        (np.array([1.5, -0.5]), good),        # negative
        (np.array([0.5, 0.6]), good),         # does not sum to 1
        (good, np.array([1 / 3] * 3)),        # shape mismatch
        (np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])),  # not 1-D
    ):
        for fn in (kl_distance, reference_kl_distance):
            with pytest.raises(ConfigError):
                fn(p, q)
