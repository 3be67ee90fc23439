"""Sieves, smooth numbers and reduced residues underpinning all enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Hard cap on sieve size; anything above this raises CapacityLimit.  It is
#: below 2**31, so every entry and index of the int32 sieve tables fits.
DEFAULT_MAX_LIMIT = 50_000_000
#: The block a sieve fill, an lpf recurrence or a count fold keeps in L2 while
#: every prime or summand passes over it.
_BLOCK_BYTES = 1 << 19


class CapacityLimit(MemoryError):
    """Requested sieve or count-table limit exceeds the memory budget."""


class PrecisionLimit(ArithmeticError):
    """A weight domain n past the int64 range, or a float phase |m * phase|
    (near a/q, |beta * m * phase|) past 2**53."""


@dataclass(frozen=True)
class SieveTables:
    """Least-prime-factor, Moebius and prime tables up to ``limit``.

    ``least_prime_factor[m]`` (int32) is the smallest prime dividing m (index
    0 and 1 are 0), filled one _BLOCK_BYTES block at a time; ``mobius[m]``
    (int8) is mu(m) with mu[0] = 0, filled from the least prime factors by
    ``_lpf_recurrence``, also in blocks; and ``primes`` (int64, so squares of
    primes stay exact) ascends.  All three are built eagerly.  Limits above
    DEFAULT_MAX_LIMIT raise CapacityLimit.  Immutable once built; safe to
    share.
    """

    limit: int
    least_prime_factor: np.ndarray
    mobius: np.ndarray
    primes: np.ndarray


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n."""
    if n < 0 or k < 1:
        raise ValueError(f"iroot needs n >= 0 and k >= 1, got n={n}, k={k}")
    if n < 2 or k == 1:
        return n
    # integer Newton from 2**ceil(bits/k), above the root: the iterates fall
    # to the root and stop there, exact for every n, with no float in between
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def coprime_mask(q: int) -> np.ndarray:
    """mask[a] is gcd(a, q) == 1 for a = 0..q, both ends included (so 0/1 and 1/1
    for q = 1): the one-row ``_coprime_rows``, held to the sieve budget first."""
    if q < 1:
        raise ValueError("q must be at least 1")
    _check_budget(q, "modulus q = {}")
    return _coprime_rows([q])


def _coprime_rows(qs: list[int]) -> np.ndarray:
    """coprime_mask(q) for each q of qs, end to end in one flat array: each prime
    factor p of q, by trial division, strikes its multiples in one strided store."""
    flat, o = np.ones(sum(qs) + len(qs), dtype=bool), 0
    for q in qs:
        rest, p = q, 2
        while rest > 1:
            p = p if p * p <= rest else rest  # no factor up to sqrt(rest): rest is prime
            if rest % p == 0:
                flat[o : o + q + 1 : p] = False
                while rest % p == 0:
                    rest //= p
            p += 2 if p > 2 else 1
        o += q + 1
    return flat


def reduced_residues(qs: np.ndarray, size: float = math.inf, rng=None) -> tuple:
    """(row, a, phi): the a in [0, q] coprime to q, ascending by row of the ascending qs,
    and their count phi; a row of more than ``size`` keeps the a at one ``rng.choice(phi,
    size, replace=False)``, row by row.  Rows come in 2**20-cell chunks, one row at least."""
    _check_budget(top := int(qs.max(initial=0)), "modulus q = {}")
    step, parts = max(1, 2**20 // (top + 1)), [(np.empty(0, int),) * 3]
    for lo in range(0, len(qs), step):
        cells = np.concatenate(([0], np.cumsum(qs[lo : lo + step] + 1)))  # row i: cells[i:i+2]
        flat = _coprime_rows(qs[lo : lo + step].tolist()).nonzero()[0]
        start = np.searchsorted(flat, cells)
        f = start[1:] - start[:-1]
        ranks = [rng.choice(c, size, replace=False) if c > size else np.arange(c) for c in f]
        r = np.repeat(np.arange(len(f)), [len(x) for x in ranks])
        idx = np.sort(np.concatenate(ranks) + start[r])  # one sort: the row ranges ascend
        parts.append((r + lo, flat[idx] - cells[r], f))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _check_budget(N: int, what: str) -> None:
    """Raise CapacityLimit for N above DEFAULT_MAX_LIMIT, the one budget of
    every sieve and count table; each caller checks before it allocates any
    array, and names what N counts in ``what``, a template for N."""
    if N > DEFAULT_MAX_LIMIT:
        raise CapacityLimit(f"{what.format(N)} exceeds budget {DEFAULT_MAX_LIMIT}")


def primes_up_to(N: int) -> np.ndarray:
    """The primes up to N, ascending, as int64 (so their squares stay exact),
    from a bool sieve over the odd numbers only; empty below 2."""
    _check_budget(N, "sieve limit {}")
    if N < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((N + 1) // 2, dtype=bool)  # odd[i] stands for 2i + 1
    odd[0] = False
    for p in range(3, math.isqrt(N) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False  # the odd multiples of p from p*p
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)


def _lpf_table(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(least_prime_factor, primes) of ``sieve_tables(N)``, with no Moebius
    table, for callers that read only the least prime factors.

    A composite m has lpf(m)**2 <= m, so striding from p*p over the primes up
    to sqrt(N) in descending order leaves the least prime factor written last.
    The table is filled one _BLOCK_BYTES block at a time, every prime striding
    over a block while it sits in cache, not once each over the whole table.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    _check_budget(N, "sieve limit {}")
    small_primes = primes_up_to(math.isqrt(N)).tolist()
    lpf = np.zeros(N + 1, dtype=np.int32)
    step = _BLOCK_BYTES // lpf.itemsize
    for lo in range(0, N + 1, step):
        blk = lpf[lo : lo + step]
        for p in reversed(small_primes):
            if p * p < lo + len(blk):  # from p*p, or from p's first multiple in the block
                blk[max(p * p, -(-lo // p) * p) - lo :: p] = p
    primes = np.flatnonzero(lpf == 0)[2:]  # untouched entries past 0 and 1 are prime
    lpf[primes] = primes
    return lpf, primes


def sieve_tables(N: int) -> SieveTables:
    lpf, primes = _lpf_table(N)
    # mu(m) = -mu(c) for p = lpf(m) and c = m / p, but 0 where p divides c
    # again, that is where lpf(c) = p (lpf(1) = 0, so mu(p) = -1)
    mobius = np.zeros(N + 1, dtype=np.int8)
    mobius[1] = 1
    _lpf_recurrence(lpf, mobius, lambda mu_c, p, c: -mu_c * (lpf[c] != p))
    return SieveTables(limit=N, least_prime_factor=lpf, mobius=mobius, primes=primes)


def _lpf_recurrence(lpf: np.ndarray, values: np.ndarray, step) -> np.ndarray:
    """Fill values[m] = step(values[c], p, c) for m = 2..len(values)-1, where
    p = lpf[m] and c = m // p (intp).  A block [lo, hi) ends at 2*lo at the
    latest, so every cofactor c lies below lo and the block reads finished
    entries only; it also ends after _BLOCK_BYTES of cofactors, so the
    temporaries of a step stay in cache and O(_BLOCK_BYTES) in size."""
    lo, end, most = 2, len(values), _BLOCK_BYTES // np.dtype(np.intp).itemsize
    while lo < end:
        hi = min(2 * lo, lo + most, end)
        p = lpf[lo:hi]
        # divided in int32, which is faster, then widened once: numpy would
        # cast an int32 index array again on every gather of the step
        c = np.arange(lo, hi, dtype=lpf.dtype)
        c //= p
        c = c.astype(np.intp)
        values[lo:hi] = step(values[c], p, c)
        lo = hi
    return values


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


def smooth_set(P: int, R: int) -> SmoothSet:
    if not 2 <= R <= P:
        raise ValueError(f"need 2 <= R <= P, got R={R}, P={P}")
    lpf = _lpf_table(P)[0]  # checks the budget before keep exists
    keep = np.zeros(P + 1, dtype=bool)
    keep[1] = True
    # m > 1 is R-smooth iff lpf(m) <= R and m / lpf(m) is
    _lpf_recurrence(lpf, keep, lambda smooth_c, p, c: (p <= R) & smooth_c)
    return SmoothSet(P=P, R=R, members=np.flatnonzero(keep).astype(np.int64))


def smooth_bound(P: int, eta: float) -> int:
    """Materialise the smoothness bound R = ceil(P**eta), floored at 2."""
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    return max(2, math.ceil(P**eta))
