"""Property-based tests for universal hashing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.hashing import MERSENNE_PRIME, UniversalHash


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=MERSENNE_PRIME - 1),
    b=st.integers(min_value=0, max_value=MERSENNE_PRIME - 1),
    bins=st.integers(min_value=1, max_value=1 << 20),
    values=st.lists(
        st.integers(min_value=0, max_value=2**64 - 1),
        min_size=1,
        max_size=20,
    ),
)
def test_vectorized_equals_scalar(a, b, bins, values):
    """The uint64 split-multiply must match exact Python arithmetic."""
    fn = UniversalHash(a=a, b=b, bins=bins)
    array = np.array(values, dtype=np.uint64)
    assert fn.hash_array(array).tolist() == [fn(v) for v in values]


#: Values at the fold boundaries: multiples of p and its neighbours,
#: powers of two around 2^61, and the top of the uint64 range.
EDGE_VALUES = sorted({
    v
    for k in range(9)
    for v in (k * MERSENNE_PRIME - 1, k * MERSENNE_PRIME,
              k * MERSENNE_PRIME + 1)
    if 0 <= v < 2**64
} | {2**61, 2**62, 2**63, 2**64 - 2, 2**64 - 1})


@settings(max_examples=100, deadline=None)
@given(
    a=st.one_of(
        st.sampled_from([1, 2, 2**31 - 1, 2**31, MERSENNE_PRIME - 1]),
        st.integers(min_value=1, max_value=MERSENNE_PRIME - 1),
    ),
    b=st.one_of(
        st.sampled_from([0, MERSENNE_PRIME - 1]),
        st.integers(min_value=0, max_value=MERSENNE_PRIME - 1),
    ),
    bins=st.sampled_from([1, 2, 3, 977, 1024, 1 << 20]),
)
def test_vectorized_equals_scalar_at_fold_edges(a, b, bins):
    fn = UniversalHash(a=a, b=b, bins=bins)
    array = np.array(EDGE_VALUES, dtype=np.uint64)
    assert fn.hash_array(array).tolist() == [
        ((a * v + b) % MERSENNE_PRIME) % bins for v in EDGE_VALUES
    ]


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=MERSENNE_PRIME - 1),
    b=st.integers(min_value=0, max_value=MERSENNE_PRIME - 1),
    bins=st.integers(min_value=1, max_value=4096),
    value=st.integers(min_value=0, max_value=2**48),
)
def test_output_in_range(a, b, bins, value):
    fn = UniversalHash(a=a, b=b, bins=bins)
    assert 0 <= fn(value) < bins


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=MERSENNE_PRIME - 1),
    b=st.integers(min_value=0, max_value=MERSENNE_PRIME - 1),
    value=st.integers(min_value=0, max_value=2**48),
)
def test_definition_matches_formula(a, b, value):
    fn = UniversalHash(a=a, b=b, bins=977)
    assert fn(value) == ((a * value + b) % MERSENNE_PRIME) % 977


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    bins=st.integers(min_value=2, max_value=2048),
)
def test_family_reproducible(seed, bins):
    from repro.sketch.hashing import HashFamily

    first = HashFamily(bins=bins, seed=seed).take(2)
    second = HashFamily(bins=bins, seed=seed).take(2)
    assert first == second
