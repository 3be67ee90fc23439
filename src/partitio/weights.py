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

from partitio.arith import (
    PrecisionLimit, _check_budget, iroot, primes_up_to, sieve_tables, smooth_set,
)

KINDS = (
    "squares",
    "prime_squares",
    "primes_log",
    "mobius",
    "hth_powers",
    "smooth_kth_powers",
    "e2",
)

#: The kind that reads each parameter beyond n; None leaves one unset, and
#: so does the default phase multiplier j = 1.
_READER = {"h": "hth_powers", "k": "smooth_kth_powers", "P": "smooth_kth_powers",
           "R": "smooth_kth_powers", "j": "e2"}


@dataclass(frozen=True)
class Weight:
    """Finitely supported arithmetic function on [1, n].

    ``support`` holds the m with w(m) != 0 in ascending order, ``values`` the
    matching real w(m); complex values are refused.  ``phase`` scales alpha
    at evaluation time (used by the staggered prime-square kind, whose
    definition carries a fixed multiplier j).  ``norm``, the sum of |w(m)|,
    is derived from ``values`` when the weight is made.
    """

    n: int
    support: np.ndarray
    values: np.ndarray
    phase: int = 1
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError("weight values must be real")
        object.__setattr__(self, "norm", float(np.abs(self.values).sum()))

    @property
    def is_nonnegative(self) -> bool:
        return bool(np.all(self.values >= 0))


def make_weight(
    kind: str,
    n: int,
    *,
    h: Optional[int] = None,
    k: Optional[int] = None,
    P: Optional[int] = None,
    R: Optional[int] = None,
    j: int = 1,
) -> Weight:
    """The built-in weight of this kind on [1, n].  A parameter set for a
    kind that does not read it is refused (``_READER``); e2 takes the phase
    multiplier j (1 or 2).  Supports are int64, so n past that range is
    refused first; the squares and h-th powers hold their support length to
    the sieve budget before they allocate it, as the sieves do."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n >= 2**63:
        raise PrecisionLimit(f"n = {n} is past the int64 range of a support")
    if kind not in KINDS:
        raise ValueError(f"unknown weight kind {kind!r}")
    given = {"h": h, "k": k, "P": P, "R": R, "j": None if j == 1 else j}
    for name, value in given.items():
        if value is not None and _READER[name] != kind:
            raise ValueError(f"parameter {name} is read only by {_READER[name]}, not {kind!r}")
    if kind == "e2" and j not in (1, 2):
        raise ValueError("phase multiplier j must be 1 or 2")

    if kind == "squares":
        X = math.isqrt(n)
        _check_budget(X, "support of {} squares")
        support = np.arange(1, X + 1, dtype=np.int64) ** 2
        values = np.ones(len(support))
    elif kind == "prime_squares":
        support = primes_up_to(math.isqrt(n)) ** 2
        values = np.ones(len(support))
    elif kind == "primes_log":
        support = primes_up_to(n)
        values = np.log(support.astype(float))
    elif kind == "mobius":
        mu = sieve_tables(max(n, 2)).mobius[: n + 1]
        support = np.flatnonzero(mu != 0).astype(np.int64)
        support = support[support >= 1]
        values = mu[support].astype(float)
    elif kind == "hth_powers":
        if h is None or h < 2:
            raise ValueError("hth_powers needs h >= 2")
        X = iroot(n, h)
        _check_budget(X, "support of {} h-th powers")
        support = np.arange(1, X + 1, dtype=np.int64) ** h
        values = np.ones(len(support))
    elif kind == "smooth_kth_powers":
        if k is None or k < 3:
            raise ValueError("smooth_kth_powers needs k >= 3")
        if P is None or R is None:
            raise ValueError("smooth_kth_powers needs P and R")
        powers = [int(x) ** k for x in smooth_set(P, R).members]  # exact ints, then trim
        support = np.array([p for p in powers if p <= n], dtype=np.int64)
        values = np.ones(len(support))
    else:  # e2
        m1, m2 = iroot(n, 6), iroot(n, 3)
        p2 = primes_up_to(m2)
        p2 = p2[p2 % 3 == 1]
        p1 = p2[p2 <= m1]
        prods = (np.outer(p1, p2).ravel().astype(np.int64)) ** 2
        support, counts = np.unique(prods, return_counts=True)
        values = counts.astype(float)

    return Weight(n=n, support=support, values=values, phase=j)


@dataclass(frozen=True)
class WeightStats:
    half_mass_ratio: float
    is_regular: bool


def weight_stats(w: Weight) -> WeightStats:
    """Mass on [1, n/2] relative to the whole domain, for nonnegative weights.

    A weight counts as regular when the ratio is at least 1/4.  An empty
    weight (norm 0) reports ratio 0 rather than erroring.
    """
    if np.any(w.values < 0):
        raise ValueError("weight_stats requires a nonnegative weight")
    if w.norm == 0:
        return WeightStats(half_mass_ratio=0.0, is_regular=False)
    ratio = float(w.values[w.support <= w.n // 2].sum()) / w.norm
    return WeightStats(half_mass_ratio=ratio, is_regular=ratio >= 0.25)

