"""Universal hash functions for histogram cloning and sketches.

Histogram cloning (paper Section II-D) requires *independent* hash
functions that randomly place each feature value into one of ``m`` bins.
We use the classic Carter–Wegman multiply-shift family

    h_{a,b}(x) = ((a * x + b) mod p) mod m

with ``p`` a Mersenne prime (2^61 - 1) larger than any 32-bit feature
value, ``a`` drawn uniformly from [1, p) and ``b`` from [0, p).  The
family is 2-universal, which is what the collision analysis of the paper
(equation (3), q = B/m) assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Mersenne prime 2^61 - 1; comfortably exceeds 32-bit feature values.
MERSENNE_PRIME = (1 << 61) - 1


@dataclass(frozen=True, slots=True)
class UniversalHash:
    """One member of the multiply-shift universal family.

    ``a`` and ``b`` fully determine the function, so instances can be
    persisted and compared; equality means identical binning.
    """

    a: int
    b: int
    bins: int

    def __post_init__(self) -> None:
        if not 1 <= self.a < MERSENNE_PRIME:
            raise ConfigError(f"hash multiplier out of range: {self.a}")
        if not 0 <= self.b < MERSENNE_PRIME:
            raise ConfigError(f"hash offset out of range: {self.b}")
        if self.bins < 1:
            raise ConfigError(f"bin count must be >= 1: {self.bins}")

    def __call__(self, value: int) -> int:
        """Hash a single non-negative integer value to a bin index."""
        return int(((self.a * int(value) + self.b) % MERSENNE_PRIME) % self.bins)

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized hashing of an integer array to bin indices.

        Computes ``(a*x + b) mod p`` without 64-bit overflow by splitting
        both operands into 31/30-bit halves and exploiting the Mersenne
        identity ``2^61 === 1 (mod p)``:

            a*x = aH*xH*2^62 + (aH*xL + aL*xH)*2^31 + aL*xL

        where ``2^62 === 2 (mod p)`` and the middle term's shift by 31 is
        folded with the same identity.  Reductions mod ``p`` are folds
        (``t === (t & p) + (t >> 61)``), not divisions: intermediates
        stay congruent, below 2^64, and only the sum is brought into
        ``[0, p)``.  The scalar path (``__call__``) uses
        arbitrary-precision Python ints and the test suite asserts both
        agree.
        """
        x = _fold(np.asarray(values, dtype=np.uint64))  # < 2^61 + 8
        a_hi = np.uint64(self.a >> 31)                  # < 2^30
        a_lo = np.uint64(self.a & ((1 << 31) - 1))      # < 2^31
        x_hi = x >> np.uint64(31)                       # <= 2^30
        x_lo = x & np.uint64((1 << 31) - 1)             # < 2^31
        # High term: aH*xH*2^62 === 2*aH*xH (mod p), below 2^61.
        t1 = np.uint64(2) * a_hi * x_hi
        # Middle term: y = aH*xL + aL*xH < 2^62, and y*2^31 ===
        # (y mod 2^30)*2^31 + (y >> 30) (mod p), below 2^61 + 2^32.
        y = a_hi * x_lo + a_lo * x_hi
        t2 = ((y & np.uint64((1 << 30) - 1)) << np.uint64(31)) + (
            y >> np.uint64(30)
        )
        # Low term: aL*xL < 2^62, folded below 2^61 + 2.
        t3 = _fold(a_lo * x_lo)
        # Sum < 2^63 + 2^33: fold, then one conditional subtraction.
        hashed = _fold(t1 + t2 + t3 + np.uint64(self.b))
        hashed -= _P * (hashed >= _P)
        return (hashed % np.uint64(self.bins)).astype(np.int64)


_P = np.uint64(MERSENNE_PRIME)


def _fold(t: np.ndarray) -> np.ndarray:
    """``t`` reduced to a congruent value below ``2^61 + 8`` (mod p)."""
    return (t & _P) + (t >> np.uint64(61))


class HashFamily:
    """Deterministic generator of independent :class:`UniversalHash`
    functions.

    A family is seeded; clone ``i`` of every run with the same seed gets
    the same hash function, which makes detection experiments exactly
    reproducible.
    """

    def __init__(self, bins: int, seed: int = 0):
        if bins < 1:
            raise ConfigError(f"bin count must be >= 1: {bins}")
        self._bins = bins
        self._rng = np.random.default_rng(seed)
        self._issued: list[UniversalHash] = []

    @property
    def bins(self) -> int:
        return self._bins

    def fresh(self) -> UniversalHash:
        """Draw the next independent hash function."""
        a = int(self._rng.integers(1, MERSENNE_PRIME))
        b = int(self._rng.integers(0, MERSENNE_PRIME))
        fn = UniversalHash(a=a, b=b, bins=self._bins)
        self._issued.append(fn)
        return fn

    def take(self, count: int) -> list[UniversalHash]:
        """Draw ``count`` independent hash functions."""
        if count < 1:
            raise ConfigError(f"must request at least one hash: {count}")
        return [self.fresh() for _ in range(count)]

    @property
    def issued(self) -> tuple[UniversalHash, ...]:
        """All functions issued so far, in order."""
        return tuple(self._issued)
