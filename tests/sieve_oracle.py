"""Test-only oracle for the sieve layer: the least-prime-factor fill as one
strided store per prime over the whole table, and the least-prime-factor
recurrence in doubling blocks [2**i, 2**(i+1)) of any length, with Moebius
values by ``np.where``."""

import math

import numpy as np


def lpf_table(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(lpf, primes) up to N >= 2: int32 least prime factors (0 at 0 and 1)
    and the int64 primes, ascending."""
    small = [p for p in range(2, math.isqrt(N) + 1)
             if all(p % d for d in range(2, math.isqrt(p) + 1))]
    lpf = np.zeros(N + 1, dtype=np.int32)
    for p in reversed(small):  # descending: the least prime factor is written last
        lpf[p * p :: p] = p
    primes = np.flatnonzero(lpf == 0)[2:].astype(np.int64)
    lpf[primes] = primes
    return lpf, primes


def lpf_recurrence(lpf: np.ndarray, values: np.ndarray, step) -> np.ndarray:
    """values[m] = step(values[c], p, c) for m >= 2, p = lpf[m], c = m // p."""
    lo, end = 2, len(values)
    while lo < end:
        hi = min(2 * lo, end)
        p = lpf[lo:hi]
        c = np.arange(lo, hi, dtype=lpf.dtype) // p
        values[lo:hi] = step(values[c], p, c)
        lo = hi
    return values


def sieve_tables(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(least_prime_factor, mobius, primes) as arith.sieve_tables gives them."""
    lpf, primes = lpf_table(N)
    mobius = np.zeros(N + 1, dtype=np.int8)
    mobius[1] = 1
    lpf_recurrence(lpf, mobius, lambda mu_c, p, c: np.where(lpf[c] == p, 0, -mu_c))
    return lpf, mobius, primes


def smooth_members(P: int, R: int) -> np.ndarray:
    """The R-smooth integers in [1, P], ascending, as int64."""
    lpf = lpf_table(P)[0]
    keep = np.zeros(P + 1, dtype=bool)
    keep[1] = True
    lpf_recurrence(lpf, keep, lambda smooth_c, p, c: (p <= R) & smooth_c)
    return np.flatnonzero(keep).astype(np.int64)


def series_coeffs(cache, m: int, Q: int) -> np.ndarray:
    """A_m(q) for q = 0..Q from the prime-power tables of a singular._GaussSumCache."""
    lpf = lpf_table(max(Q, 2))[0]
    pp = lpf_recurrence(lpf, np.ones(Q + 1, dtype=np.int64),
                        lambda pp_c, p, c: np.where(c % p == 0, pp_c * p, p))
    cof = np.arange(Q + 1) // pp
    A = np.zeros(Q + 1)
    for q in np.flatnonzero(cof == 1).tolist():
        A[q] = cache.table(q)[m % q]
    return lpf_recurrence(lpf, A, lambda _, p, c: A[pp[p * c]] * A[cof[p * c]])
