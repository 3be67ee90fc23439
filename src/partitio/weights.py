"""Arithmetic weights on [1, n] and their bookkeeping.

A weight is a finitely supported function m -> w(m); the built-in kinds are
the indicator of the squares, squares of primes, log-weighted primes, the
Moebius function, h-th powers, k-th powers of R-smooth integers (so that its
exponential sum agrees with the smooth Weyl sum), and products of two prime
squares from staggered ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from partitio.arith import SmoothSet, iroot, sieve_tables, smooth_set

KINDS = (
    "squares",
    "prime_squares",
    "primes_log",
    "mobius",
    "hth_powers",
    "smooth_kth_powers",
    "e2",
)


@dataclass(frozen=True)
class Weight:
    """Finitely supported arithmetic function on [1, n].

    ``support`` holds the m with w(m) != 0 in ascending order, ``values`` the
    matching w(m) (real for every built-in kind), ``norm`` the sum of |w(m)|.
    ``phase`` scales alpha at evaluation time (used by the staggered
    prime-square kind, whose definition carries a fixed multiplier j).
    """

    n: int
    kind: str
    support: np.ndarray
    values: np.ndarray
    norm: float
    phase: int = 1
    params: dict = field(default_factory=dict)

    def value(self, m: int) -> float:
        i = int(np.searchsorted(self.support, m))
        if i < len(self.support) and int(self.support[i]) == m:
            return float(self.values[i])
        return 0.0

    @property
    def is_nonnegative(self) -> bool:
        return bool(np.all(self.values >= 0)) and not np.iscomplexobj(self.values)


def make_weight(
    kind: str,
    n: int,
    *,
    h: Optional[int] = None,
    k: Optional[int] = None,
    P: Optional[int] = None,
    R: Optional[int] = None,
    smooth: Optional[SmoothSet] = None,
    j: int = 1,
) -> Weight:
    if n < 1:
        raise ValueError("n must be at least 1")
    params: dict = {}

    if kind == "squares":
        support = np.arange(1, math.isqrt(n) + 1, dtype=np.int64) ** 2
        values = np.ones(len(support))
    elif kind == "prime_squares":
        root = math.isqrt(n)
        primes = sieve_tables(max(root, 2)).primes
        primes = primes[primes <= root]
        support = (primes * primes).astype(np.int64)
        values = np.ones(len(support))
    elif kind == "primes_log":
        primes = sieve_tables(max(n, 2)).primes
        primes = primes[primes <= n]
        support = primes.astype(np.int64)
        values = np.log(primes.astype(float))
    elif kind == "mobius":
        mu = sieve_tables(max(n, 2)).mobius[: n + 1]
        support = np.flatnonzero(mu != 0).astype(np.int64)
        support = support[support >= 1]
        values = mu[support].astype(float)
    elif kind == "hth_powers":
        if h is None or h < 2:
            raise ValueError("hth_powers needs h >= 2")
        params["h"] = h
        xs = np.arange(1, iroot(n, h) + 1, dtype=np.int64)
        support = xs**h
        values = np.ones(len(support))
    elif kind == "smooth_kth_powers":
        if k is None or k < 3:
            raise ValueError("smooth_kth_powers needs k >= 3")
        if smooth is None:
            if P is None or R is None:
                raise ValueError("smooth_kth_powers needs (P, R) or a SmoothSet")
            smooth = smooth_set(P, R)
        params.update(k=k, P=smooth.P, R=smooth.R)
        powers = [int(x) ** k for x in smooth.members]  # exact ints, then trim
        support = np.array([p for p in powers if p <= n], dtype=np.int64)
        values = np.ones(len(support))
    elif kind == "e2":
        if j not in (1, 2):
            raise ValueError("phase multiplier j must be 1 or 2")
        params["j"] = j
        m1, m2 = iroot(n, 6), iroot(n, 3)
        primes = sieve_tables(max(m2, 2)).primes
        p1 = primes[(primes <= m1) & (primes % 3 == 1)]
        p2 = primes[(primes <= m2) & (primes % 3 == 1)]
        if len(p1) == 0 or len(p2) == 0:
            support = np.empty(0, dtype=np.int64)
            values = np.empty(0)
        else:
            prods = (np.outer(p1, p2).ravel().astype(np.int64)) ** 2
            support, counts = np.unique(prods, return_counts=True)
            values = counts.astype(float)
        return Weight(
            n=n, kind=kind, support=support, values=values,
            norm=float(values.sum()), phase=j, params=params,
        )
    else:
        raise ValueError(f"unknown weight kind {kind!r}")

    return Weight(
        n=n,
        kind=kind,
        support=support,
        values=values,
        norm=float(np.abs(values).sum()),
        params=params,
    )


@dataclass(frozen=True)
class WeightStats:
    norm: float
    half_mass_ratio: float
    is_regular: bool
    is_empty: bool


def weight_stats(w: Weight, threshold: float = 0.25) -> WeightStats:
    """Mass on [1, n/2] relative to the whole domain, for nonnegative weights.

    A weight counts as regular when the ratio clears ``threshold``.  Empty
    weights report ratio 0 with the norm-0 flag set rather than erroring.
    """
    if np.iscomplexobj(w.values):
        raise ValueError("weight_stats requires a real-valued weight")
    if np.any(w.values < 0):
        raise ValueError("weight_stats requires a nonnegative weight")
    if w.norm == 0:
        return WeightStats(norm=0.0, half_mass_ratio=0.0, is_regular=False, is_empty=True)
    half = float(w.values[w.support <= w.n // 2].sum())
    ratio = half / w.norm
    return WeightStats(
        norm=w.norm,
        half_mass_ratio=ratio,
        is_regular=ratio >= threshold,
        is_empty=False,
    )


def phi_exponent(kind: str, h: Optional[int] = None) -> float:
    """Decay exponent quoted for a built-in weight: the sup of |W| over the
    height-Q slice scales like norm * Q**(-phi).

    h-th powers follow 2**(2-h)/h for h <= 5, 1/72 at h = 6 and
    2/(h^2 (h-1)) beyond; log-weighted primes and the Moebius function are
    2/5-weights; prime squares 1/8; the staggered prime-square products
    behave like a 1/6-weight.
    """
    if kind in ("squares", "hth_powers"):
        hh = 2 if kind == "squares" else h
        if hh is None or hh < 2:
            raise ValueError("need h >= 2")
        if hh <= 5:
            return 2.0 ** (2 - hh) / hh
        if hh == 6:
            return 1.0 / 72.0
        return 2.0 / (hh * hh * (hh - 1))
    return {
        "prime_squares": 1.0 / 8.0,
        "primes_log": 2.0 / 5.0,
        "mobius": 2.0 / 5.0,
        "e2": 1.0 / 6.0,
    }[kind]
