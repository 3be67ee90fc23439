"""Sieves and smooth-number generation underpinning all enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Hard cap on sieve size; anything above this raises CapacityLimit.
DEFAULT_MAX_LIMIT = 50_000_000


class CapacityLimit(MemoryError):
    """Requested sieve limit exceeds the configured memory budget."""


@dataclass(frozen=True)
class SieveTables:
    """Least-prime-factor, Moebius and prime tables up to ``limit``.

    ``least_prime_factor[m]`` is the smallest prime dividing m (index 0 and 1
    are 0), ``mobius[m]`` is mu(m) with mu[0] = 0, and ``primes`` ascends.
    Immutable once built; safe to share.
    """

    limit: int
    least_prime_factor: np.ndarray
    mobius: np.ndarray
    primes: np.ndarray


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n."""
    if n < 0 or k < 1:
        raise ValueError
    r = round(n ** (1.0 / k))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def sieve_tables(N: int, max_limit: int = DEFAULT_MAX_LIMIT) -> SieveTables:
    if N < 2:
        raise ValueError("N must be at least 2")
    if N > max_limit:
        raise CapacityLimit(f"sieve limit {N} exceeds budget {max_limit}")

    lpf = np.zeros(N + 1, dtype=np.int64)
    for p in range(2, math.isqrt(N) + 1):
        if lpf[p] == 0:
            view = lpf[p * p :: p]
            view[view == 0] = p
    untouched = lpf == 0
    untouched[:2] = False
    idx = np.arange(N + 1, dtype=np.int64)
    lpf[untouched] = idx[untouched]  # remaining entries are prime

    primes = idx[2:][lpf[2:] == idx[2:]]

    # every m <= N has at most one prime factor above sqrt(N): flip the sign
    # once per small prime factor, then once more where the cofactor left
    # after dividing out each small prime once is a large prime
    mobius = np.ones(N + 1, dtype=np.int64)
    mobius[0] = 0
    cofactor = idx
    for p in primes[primes * primes <= N]:
        mobius[p::p] *= -1
        mobius[p * p :: p * p] = 0
        cofactor[p::p] //= p
    np.negative(mobius, out=mobius, where=cofactor > 1)

    return SieveTables(limit=N, least_prime_factor=lpf, mobius=mobius, primes=primes)


@dataclass(frozen=True)
class SmoothSet:
    """All integers in [1, P] whose prime divisors are at most R.

    1 belongs vacuously (it has no prime divisor), so the set is never empty.
    """

    P: int
    R: int
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, m: int) -> bool:
        i = int(np.searchsorted(self.members, m))
        return i < len(self.members) and int(self.members[i]) == m


def smooth_set(P: int, R: int, max_limit: int = DEFAULT_MAX_LIMIT) -> SmoothSet:
    if not 2 <= R <= P:
        raise ValueError(f"need 2 <= R <= P, got R={R}, P={P}")
    if P > max_limit:
        raise CapacityLimit(f"smooth-set limit {P} exceeds budget {max_limit}")
    keep = np.ones(P + 1, dtype=bool)
    keep[0] = False
    # m is R-smooth iff no prime > R divides it
    for p in sieve_tables(P).primes:
        if p > R:
            keep[p::p] = False
    return SmoothSet(P=P, R=R, members=np.flatnonzero(keep).astype(np.int64))


def smooth_bound(P: int, eta: float) -> int:
    """Materialise the smoothness bound R = ceil(P**eta), floored at 2."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    return max(2, math.ceil(P**eta))
