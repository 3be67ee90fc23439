"""Gauss sums, truncated singular series, the exact singular integral, and
local solubility of the square-plus-k-th-powers congruences.

One Gauss-sum path: ``_GaussSumCache`` keeps a float64 table of A_m(q) for
every m mod q, and ``a_coeff`` is its front.  At q = p^j with p not dividing k
the local structure gives the table (Vaughan, *The Hardy-Littlewood Method*,
2nd ed., ch. 4): for j = 1 and gcd(k, p - 1) = 1, x -> x^k permutes Z/p, so
S(p, a) = 0 and A_m(p) = 0 (s >= 1); for 2 <= j <= k, S(p^j, a) = p^(j-1) for
every a coprime to p, so A_m(p^j) = p^((j-1)s) c_{p^j}(m), a Ramanujan sum.
Every other q takes one length-q FFT of S^s over the reduced residues, with
S(q, a) for every a from ``_gauss_sums_all``'s int64 counts of x^k mod q.
A_m(q) is multiplicative in q, so the series takes tables at prime powers,
products elsewhere: every other A_m(q) is the product of two earlier ones,
found through the least-prime-factor table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from typing import Optional

import numpy as np

from partitio.arith import _lpf_recurrence, _lpf_table, coprime_mask


def _gauss_sums_all(q: int, k: int) -> np.ndarray:
    """S(q, a) for a = 0..q-1 at once: the inverse DFT of the residue-count
    vector of x -> x^k mod q (x^k by int64 multiply-and-reduce)."""
    x = np.arange(q, dtype=np.int64)
    r = np.full(q, 1 % q, dtype=np.int64)
    for _ in range(k):
        r = r * x % q
    counts = np.bincount(r, minlength=q)
    return np.fft.ifft(counts) * q  # entry a equals sum_v counts[v] e(av/q)


def a_coeff(m: int, q: int, s: int, k: int) -> float:
    """A_m(q) = sum over reduced residues a of S(q,a)^s e(-a m / q)."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return float(_GaussSumCache(k, s).table(q)[m % q])


@dataclass(frozen=True)
class SingularSeriesResult:
    m: int
    s: int
    k: int
    Q_cut: int
    partial: float     # sum_{q <= Q_cut} q^{-s} A_m(q)
    last_block: float  # contribution of q in (Q_cut/2, Q_cut]


class _GaussSumCache:
    """Per-(k, s) cache of one float64 table of A_m(q) per modulus q; the
    series asks for prime powers q only."""

    def __init__(self, k: int, s: int):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if s < 1:
            raise ValueError(f"s must be at least 1, got {s}")
        self.k = k
        self.s = s
        self._tables: dict[int, np.ndarray] = {}
        self._powers = np.zeros(1)  # float(q**s) for q = 0..len - 1

    def table(self, q: int) -> np.ndarray:
        """A_m(q), m = 0..q-1.  At a prime power q = p^j, p not dividing k, it is
        0 for j = 1 with gcd(k, p - 1) = 1, and p^((j-1)s) c_{p^j}(m) for
        2 <= j <= k (Vaughan, ch. 4).  Any other q takes the DFT of S(q, a)^s
        over a coprime to q, real by the pairing a <-> q - a; its imaginary
        residue is checked against a q**s-scaled tolerance before being dropped."""
        if q not in self._tables:
            p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
            j, rest = 0, q
            while rest > 1 and rest % p == 0:
                j, rest = j + 1, rest // p
            local = rest == 1 and self.k % p != 0  # q = p^j, p not dividing k
            if local and j == 1 and gcd(self.k, p - 1) == 1:
                self._tables[q] = np.zeros(q)
            elif local and 2 <= j <= self.k:
                # c_{p^j}(m) is phi(p^j) at p^j | m, -p^(j-1) at p^(j-1) || m, else 0
                scale, A = p ** ((j - 1) * self.s), np.zeros(q)
                A[:: q // p] = -float(scale * (q // p))
                A[0] = float(scale * (q - q // p))
                self._tables[q] = A
            else:
                S = _gauss_sums_all(q, self.k)
                A = np.fft.fft(np.where(coprime_mask(q)[:q], S**self.s, 0))
                worst = np.abs(A.imag).max()
                if worst > 1e-9 * max(1.0, float(q) ** self.s):
                    raise ArithmeticError(f"A_m({q}) imaginary part {worst} too large")
                self._tables[q] = A.real.copy()  # a view would keep all 16 B per entry alive
        return self._tables[q]

    def series_coeffs(self, m: int, Q: int) -> np.ndarray:
        """A_m(q) for q = 0..Q (entry 0 is 0), from tables at prime powers only:
        A_m is multiplicative in q, so A_m(q) = A_m(pp(q)) A_m(q / pp(q)),
        where pp(q) is the power of lpf(q) in q."""
        lpf = _lpf_table(max(Q, 2))[0]
        pp = _lpf_recurrence(lpf, np.ones(Q + 1, dtype=np.int64),
                             lambda pp_c, p, c: np.where(c % p == 0, pp_c * p, p))
        cof = np.arange(Q + 1) // pp
        A = np.zeros(Q + 1)
        for q in np.flatnonzero(cof == 1).tolist():  # q = 1 and the prime powers
            A[q] = self.table(q)[m % q]
        # at a prime power the product is A_m(q) A_m(1) = A_m(q); elsewhere both
        # factors are at most q / 2, below the block being filled
        return _lpf_recurrence(lpf, A, lambda _, p, c: A[pp[p * c]] * A[cof[p * c]])

    def series_terms(self, m: int, Q: int) -> np.ndarray:
        """q**-s A_m(q) for q = 1..Q.  The powers are kept as float64, each the
        Python-int q**s rounded once, so every term is the one correctly
        rounded quotient that A_m(q) / q**s gives in Python."""
        if len(self._powers) <= Q:
            self._powers = np.array([float(q**self.s) for q in range(Q + 1)])
        return self.series_coeffs(m, Q)[1:] / self._powers[1 : Q + 1]


def singular_series(
    m: int,
    s: int,
    k: int,
    Q_cut: int = 1000,
    cache: Optional[_GaussSumCache] = None,
) -> SingularSeriesResult:
    """Truncated singular series sum_{q <= Q_cut} q^{-s} A_m(q).

    No effective tail bound is asserted; ``last_block`` (the contribution of
    the top dyadic block) is reported as the convergence diagnostic instead.
    """
    return singular_series_blocks(m, s, k, [Q_cut], cache=cache)[0]


def singular_series_blocks(
    m: int, s: int, k: int, Q_cuts: list[int], cache: Optional[_GaussSumCache] = None
) -> list[SingularSeriesResult]:
    """Partial sums at several cutoffs from one pass over q <= max(Q_cuts).

    Each partial and last block is a plain left-to-right float sum, so it
    equals the one-cutoff loop bit for bit.
    """
    if any(Q < 1 for Q in Q_cuts):
        raise ValueError("Q_cut must be at least 1")
    if s < 4:
        raise ValueError("series needs s >= 4 for absolute convergence")
    cache = cache or _GaussSumCache(k, s)
    if (cache.k, cache.s) != (k, s):
        raise ValueError(f"cache holds (k, s) = {(cache.k, cache.s)}, not {(k, s)}")
    terms = cache.series_terms(m, max(Q_cuts, default=0)).tolist()
    partials = [*accumulate(terms, initial=0.0)]
    last_blocks = [[*accumulate(terms[Q // 2 : Q], initial=0.0)][-1] for Q in Q_cuts]
    return [SingularSeriesResult(m, s, k, Q, partials[Q], b) for Q, b in zip(Q_cuts, last_blocks)]


def singular_integral(m: int, s: int, k: int) -> tuple[float, float]:
    """(exact, asymptotic) archimedean density for s k-th powers at m.

    exact: the composition sum over u_1 + ... + u_s = m, u_j >= 1, of
    (u_1 ... u_s)^(1/k - 1), computed by iterated truncated convolution.
    asymptotic: Gamma(1/k)^s / Gamma(s/k) * m^(s/k - 1), the constant that
    matches the sum with its k^-s normalisation factor omitted (note
    Gamma(1/k) = k * Gamma(1 + 1/k)).  The ratio exact/asymptotic tends to 1
    from below, at the slow rate set by the u^(1/k-1) endpoint corrections.
    """
    for name, value, least in (("s", s, 1), ("k", k, 1), ("m", m, 0)):
        if value < least:
            raise ValueError(f"singular integral needs {name} >= {least}, got {value}")
    if s > 6 or m > 10**4:
        raise ValueError("exact path is guarded to s <= 6, m <= 10**4")
    asymptotic = math.gamma(1 / k) ** s / math.gamma(s / k) * m ** (s / k - 1) if m > 0 else 0.0
    if m < s:
        return 0.0, asymptotic
    kernel = np.zeros(m + 1)
    u = np.arange(1, m + 1, dtype=float)
    kernel[1:] = u ** (1.0 / k - 1.0)
    acc = kernel.copy()
    for _ in range(s - 1):
        acc = np.convolve(acc, kernel)[: m + 1]
    return float(acc[m]), asymptotic


@dataclass(frozen=True)
class LocalSolubility:
    modulus: int                       # 4k
    R_set: frozenset[int]              # residues j mod 4k with 1 <= j <= s
    n_minus_square_hits_R: bool
    witness: Optional[tuple[int, int]]  # (x0, j) with n - x0^2 = j mod 4k


def local_solubility(k: int, s: int, n: int) -> LocalSolubility:
    """Search for x0 with n - x0^2 in a residue class j mod 4k, 1 <= j <= s.

    For k a power of two the class set is the genuine obstruction; otherwise
    every class is admissible and the set is all of Z/4k.  Odd x0 are
    preferred (they realise the squares-of-odd-numbers classes 1 + 8l), with
    even x0 as a fallback.
    """
    if k < 1 or s < 1:
        raise ValueError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    mod = 4 * k
    if k & (k - 1) == 0:
        R = frozenset(j % mod for j in range(1, min(s, mod) + 1))
    else:
        R = frozenset(range(mod))
    witness = None
    for x0 in [*range(1, mod + 1, 2), *range(2, mod + 1, 2)]:
        j = (n - x0 * x0 - 1) % mod + 1  # the residue of n - x0^2, taken in 1..mod
        if j <= s:
            witness = (x0, j)
            break
    return LocalSolubility(mod, R, n_minus_square_hits_R=witness is not None, witness=witness)
