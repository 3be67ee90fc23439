"""Exact representation counts, convolution moments, and arc quadrature.

Counts are additive convolutions of power-value indicators: a table starts
as one bincount of its longest summand list (a boolean scatter for a zero
set), and each fold out[m] = sum_v acc[m - v] runs in the narrowest of int8,
int16, int32, int64 and Python integers that holds its per-entry bound (see
_fold), walking the output in 512 KiB blocks so the table passes through
cache once per fold, not once per summand.  A finished table is int64, or
object past 2**63 - 1, and an int64 table with a negative entry raises
ArithmeticError.  N is held to the sieve budget, arith.DEFAULT_MAX_LIMIT.  A
zero set is where the same builder's boolean table (+= is logical or) is
False.  Moments of the smooth Weyl sum come exactly from Parseval (sum of
squared counts) or from grid or per-arc quadrature; the mean value of the
square and smooth Weyl sums is the same Parseval sum over the table of one
square plus r smooth powers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from math import isqrt
from typing import Optional, Union

import numpy as np

from partitio.arcs import Dissection
from partitio.arith import (
    _BLOCK_BYTES, SmoothSet, _check_budget, iroot, primes_up_to, reduced_residues, smooth_set,
)
# exp_sum_many is not called here; it stays bound in this module because the
# benchmark's tracer self-test wraps counting.exp_sum_many as an import site
from partitio.expsums import exp_sum_arcs, exp_sum_grid, exp_sum_many  # noqa: F401
from partitio.weights import Weight

_INT64_MAX = 2**63 - 1

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class CountTable:
    """Nonnegative integer counts indexed 0..limit."""

    limit: int
    counts: np.ndarray

    def total(self) -> int:
        """Exact sum of the counts, also when it passes 2**63."""
        c = self.counts
        if c.dtype == object:
            return int(sum(int(v) for v in c))
        # each half sums below 2**31 per entry, far from the int64 limit
        return (int((c >> 31).sum()) << 31) + int((c & (2**31 - 1)).sum())

    def __getitem__(self, m: int) -> int:
        if not 0 <= m <= self.limit:
            raise IndexError(f"m={m} outside 0..{self.limit}")
        return int(self.counts[m])


def _summands(
    k: int, s: int, N: int, x_kind: str = "square", x_nonneg: bool = True,
    y_nonneg: bool = True, h: Optional[int] = None, base: Union[str, SmoothSet] = "all",
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The y-values (k-th powers of the base, in its order; 0 first when
    y_nonneg) and the ascending x-values (None for x_kind "none"), all at
    most N, under the conventions of representation_counts.  N is held to
    the sieve budget before any array exists."""
    _check_budget(N, "count-table limit {}")
    if s < 1 or N < 1 or k < 1:
        raise ValueError("need s >= 1, N >= 1, k >= 1")
    ymax = iroot(N, k)
    if isinstance(base, SmoothSet):
        ys = base.members[base.members <= ymax]
    elif base == "all":
        ys = np.arange(1, ymax + 1, dtype=np.int64)
    else:
        raise ValueError(f"unknown base {base!r}")
    kernel = ys ** k
    if y_nonneg:
        kernel = np.concatenate([np.zeros(1, dtype=np.int64), kernel])
    if len(kernel) == 0:
        raise ValueError("empty summand set")
    if x_kind == "none":
        return kernel, None

    if x_kind == "prime_square":
        xv = primes_up_to(isqrt(N)) ** 2
    elif x_kind in ("square", "hth_power"):
        h = 2 if x_kind == "square" else h  # a square is the h = 2 power
        if h is None or h < 1:
            raise ValueError("hth_power needs h >= 1")
        xv = np.arange(0 if x_nonneg else 1, iroot(N, h) + 1, dtype=np.int64) ** h
    else:
        raise ValueError(f"unknown x_kind {x_kind!r}")
    if len(xv) == 0:
        raise ValueError("empty x summand set")
    return kernel, xv


def _on_rung(acc: np.ndarray, count: int) -> np.ndarray:
    """An integer acc on the first rung of the ladder int8, int16, int32, int64
    (up to _INT64_MAX), object that holds max(acc) * count; any other as is."""
    if acc.dtype.kind != "i":
        return acc
    bound = int(acc.max()) * count
    ladder = ((np.int8, 2**7 - 1), (np.int16, 2**15 - 1), (np.int32, 2**31 - 1),
              (np.int64, _INT64_MAX))
    return acc.astype(next((t for t, most in ladder if bound <= most), object), copy=False)


def _fold(acc: np.ndarray, values: np.ndarray, N: int) -> np.ndarray:
    """One convolution step: out[m] = sum over v in values, v <= N, of acc[m - v].

    With acc >= 0 every out[m], and every partial sum on the way to it, is at
    most max(acc) times the number of values v <= N: an integer acc moves to
    the first rung of the ladder that holds that bound (_on_rung), past int64
    to Python integers.  A boolean acc stays boolean (+= is logical or).  acc
    may stop short of N + 1 where the rest is zero.  Each _BLOCK_BYTES block
    of the output takes every summand's shifted acc while it sits in cache:
    per entry the same adds as a whole-table pass per summand, in any order of
    values (a SmoothSet built by hand need not ascend).
    """
    values = values[values <= N]
    acc = _on_rung(acc, len(values))
    out = np.zeros(N + 1, dtype=acc.dtype)
    L, step, vs = len(acc), _BLOCK_BYTES // out.itemsize, values.tolist()
    for lo in range(0, N + 1, step):
        blk, hi = out[lo : lo + step], min(lo + step, N + 1)
        for v in vs:
            if v >= hi:
                continue
            if v >= lo:
                blk[v - lo : v - lo + L] += acc[: hi - v]
            elif v + L > lo:  # acc shifted by v started in an earlier block
                blk[: v + L - lo] += acc[lo - v : hi - v]
    return out


def _count_table(
    ys: np.ndarray, s: int, N: int, xs: Optional[np.ndarray], dtype: type = np.int64,
) -> CountTable:
    """Counts of m <= N as s y-values plus one x-value (none when xs is None),
    or with dtype bool whether m is reachable at all (every value <= N).  The
    longest list starts the table, one bincount on its rung or one boolean
    scatter (a stable sort: ties keep ys before xs); each fold's rung copy
    replaces the table before _fold allocates.  A finished table is int64,
    checked by one overflow backstop, or object."""
    first, *rest = sorted([ys] * s + ([] if xs is None else [xs]), key=len, reverse=True)
    if dtype is bool:
        acc = np.zeros(N + 1, dtype=bool)
        acc[first] = True
    else:
        acc = _on_rung(np.bincount(first, minlength=N + 1), 1)
    top = int(first.max()) + 1  # acc[top:] is zero: no fold shifts it
    for values in rest:
        acc = _on_rung(acc[:top], len(values))
        acc = _fold(acc, values, N)
        top += int(values.max())
    if acc.dtype.kind == "i":
        acc = acc.astype(np.int64, copy=False)
        if np.any(acc < 0):
            raise ArithmeticError("count overflow slipped past the guard")
    return CountTable(limit=N, counts=acc)


def power_convolution(
    k: int,
    s: int,
    N: int,
    base: Union[str, SmoothSet] = "all",
    allow_zero: bool = False,
) -> CountTable:
    """Counts of ordered s-tuples of k-th powers summing to each m <= N.

    base "all" uses x in [1, floor(N**(1/k))]; a SmoothSet restricts x to its
    members.  allow_zero adds x = 0 as a summand.
    """
    ys, _ = _summands(k, s, N, "none", y_nonneg=allow_zero, base=base)
    return _count_table(ys, s, N, None)


def representation_counts(
    k: int,
    s: int,
    N: int,
    x_kind: str = "square",
    x_nonneg: bool = True,
    y_nonneg: bool = True,
    h: Optional[int] = None,
    base: Union[str, SmoothSet] = "all",
) -> CountTable:
    """Counts of x_term + y_1^k + ... + y_s^k = n for n <= N.

    x_kind selects the extra summand (a square, a prime square, an h-th
    power, or nothing); x_nonneg admits x = 0, y_nonneg admits y_j = 0.
    With the defaults this counts representations by one square and s
    non-negative k-th powers; prime_square with y_nonneg=False counts the
    prime-square variant over natural-number y.
    """
    ys, xs = _summands(k, s, N, x_kind, x_nonneg, y_nonneg, h, base)
    return _count_table(ys, s, N, xs)


def zero_set(k: int, s: int, N: int, **kwargs) -> list[int]:
    """All n in [1, N] with no representation, under the keyword conventions
    of representation_counts: the False entries of the boolean table."""
    ys, xs = _summands(k, s, N, **kwargs)
    reach = _count_table(ys, s, N, xs, dtype=bool).counts
    return (np.flatnonzero(~reach[1:]) + 1).tolist()


def nu_convolution(w: Weight, rho: CountTable, n: int) -> Union[int, float]:
    """The additive convolution sum over m <= n of w(m) * rho(n - m).

    Exact integer arithmetic when the weight takes integer values.
    """
    if rho.limit < n:
        raise ValueError("count table too short for this n")
    if w.n < n:
        raise ValueError("weight domain too short for this n")
    mask = w.support <= n
    ms = w.support[mask]
    vals = w.values[mask]
    rho_vals = rho.counts[n - ms]
    if np.all(vals == np.rint(vals)):
        return int(sum(int(round(v)) * int(c) for v, c in zip(vals, rho_vals)))
    return float(np.dot(vals, rho_vals.astype(float)))


def _sum_of_squares(counts: np.ndarray) -> int:
    """Exact sum of counts[m]**2, also past 2**63 and on object dtype, over
    Python integers made from one fixed chunk of the table at a time."""
    chunks = (counts[i : i + 2**16].tolist() for i in range(0, len(counts), 2**16))
    return sum(sum(map(operator.mul, c, c)) for c in chunks)


def moment_exact(k: int, r: int, P: int, R: int) -> int:
    """Number of 2r-tuples from the R-smooth integers in [1, P] whose k-th
    powers balance; equals the full-interval 2r-th power moment exactly."""
    if r < 1:
        raise ValueError("r must be at least 1")
    sm = smooth_set(P, R)
    N = r * int(sm.members[-1]) ** k
    return _sum_of_squares(power_convolution(k, r, N, base=sm, allow_zero=False).counts)


def mean_value_N(k: int, r: int, n: int, R: int) -> int:
    """Exact count of x1^2 - x2^2 = sum_j (y_j^k - z_j^k) with 1 <= x_i <=
    sqrt(n) and y, z drawn from the R-smooth integers up to n**(1/k): by
    Parseval, the sum of rho(m)^2, where rho(m) counts the ways to write
    m = x^2 + y_1^k + ... + y_r^k over the same ranges."""
    P = iroot(n, k)
    sm = smooth_set(P, min(R, P))
    X = isqrt(n)
    N = r * int(sm.members[-1]) ** k + X * X
    ys, _ = _summands(k, r, N, "none", y_nonneg=False, base=sm)
    squares = np.arange(1, X + 1, dtype=np.int64) ** 2
    return _sum_of_squares(_count_table(ys, r, N, squares).counts)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    grid_points: int
    doubled_value: Optional[float] = None
    rel_change: Optional[float] = None


def _grid_integral(w: Weight, t: int, G: int, region: str, Q: Optional[float]) -> float:
    integrand = np.abs(exp_sum_grid(w, G)) ** t
    if region != "full":
        d, alphas = Dissection(w.n), np.arange(G, dtype=float) / G
        integrand = integrand[
            d.in_major_many(alphas, Q) if region == "major" else d.in_slice_many(alphas, Q)
        ]
    # periodic integrand, uniform grid: the mean is the trapezoid value
    return float(integrand.sum() / G)


def quadrature_moment(
    w: Weight,
    t: int,
    region: str = "full",
    *,
    grid_points: int,
    Q: Optional[float] = None,
    doubling: bool = True,
) -> QuadratureResult:
    """Grid quadrature of the t-th power moment of |W| over a region.

    region is "full", "major" (the height-Q arcs M(Q)) or "slice" (N(Q)),
    both on the dissection at the weight's own n.  The doubling check
    recomputes on twice the grid; the relative change is the stability
    diagnostic that acceptance requires below 0.5 percent.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if region not in ("full", "major", "slice"):
        raise ValueError(f"unknown region {region!r}")
    if region != "full" and Q is None:
        raise ValueError(f"region {region!r} needs Q")
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    value = _grid_integral(w, t, grid_points, region, Q)
    if not doubling:
        return QuadratureResult(value=value, grid_points=grid_points)
    doubled = _grid_integral(w, t, 2 * grid_points, region, Q)
    rel = abs(doubled - value) / max(abs(doubled), 1e-300)
    return QuadratureResult(
        value=value, grid_points=grid_points, doubled_value=doubled, rel_change=rel
    )


# ---------------------------------------------------------------------------
# Per-arc quadrature for large dissections
# ---------------------------------------------------------------------------


def _arc_ugrid(U: float) -> np.ndarray:
    """Symmetric grid in u = n|alpha - a/q|: steps of 1/4 near the centre
    where the integrand peaks, 16 points a decade out to the arc edge."""
    u0 = min(4.0, U)
    pts = list(np.arange(0.0, u0 + 1e-12, 0.25))
    if pts[-1] < u0:
        pts.append(u0)
    if U > u0 * (1 + 1e-12):
        n_log = max(2, int(math.ceil(16 * math.log10(U / u0))))
        pts.extend(np.geomspace(u0, U, n_log + 1)[1:])
    pos = np.array(pts)
    return np.concatenate([-pos[:0:-1], pos])


def _arc_integrals(w: Weight, t: int, n: int, q: int, a_values: list[int], U: float) -> np.ndarray:
    """Integral of |W|^t over the height-capped arcs around a/q, one value
    per entry of a_values, by the trapezoid rule in u = n (alpha - a/q).
    Endpoint arcs (a = 0, a = q) use their half."""
    us = _arc_ugrid(U)
    # one separable evaluation over every arc of this q
    rows = np.abs(exp_sum_arcs(w, q, a_values, us / n)) ** t
    values = _trapezoid(rows, us, axis=-1) / n
    c = len(us) // 2  # us[c] = 0
    halves = {0: slice(c, None), q: slice(None, c + 1)}
    for i, a in enumerate(a_values):
        if a in halves:
            values[i] = _trapezoid(rows[i, halves[a]], us[halves[a]]) / n
    return values


def major_arc_moment(
    w: Weight,
    t: int,
    Q: float,
    n: int,
    exact_q: int = 48,
    band_q_samples: int = 40,
    band_a_samples: int = 16,
    seed: int = 0,
) -> float:
    """Estimate of the |W|^t integral over the height-Q arcs M(Q).

    Arcs with q <= exact_q are integrated arc by arc; higher levels are
    covered by stratified sampling over dyadic q-bands, scaled by the number
    of reduced fractions per level.  Deterministic for a fixed seed.  For
    q above sqrt(n)/2 the Farey cells are approximated by their enclosing
    half-width-1/(2 sqrt(n)) intervals, a slight overcount on a region where
    the integrand is already tiny.
    """
    for name, value in (("exact_q", exact_q), ("band_q_samples", band_q_samples),
                        ("band_a_samples", band_a_samples)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    d = Dissection(n)
    qmax = int(math.floor(min(Q, d.full_height)))
    cap = d.cap(Q)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = 0.0

    qs = np.arange(1, min(exact_q, qmax) + 1)
    for chunk in np.array_split(qs, max(1, int(qs.sum()) >> 20)):  # at most ~2**21 cells each
        row, a, _ = reduced_residues(chunk)
        for q, a_values in zip(chunk.tolist(), np.split(a, np.flatnonzero(np.diff(row)) + 1)):
            total += float(_arc_integrals(w, t, n, q, a_values, cap / q).sum())

    lo = exact_q
    while lo < qmax:
        hi = min(qmax, 2 * lo)
        qs_all = np.arange(lo + 1, hi + 1)
        qs = qs_all
        if len(qs_all) > band_q_samples:
            qs = qs_all[np.unique(np.linspace(0, len(qs_all) - 1, band_q_samples).astype(int))]
        row, a, phi = reduced_residues(qs, band_a_samples, rng)  # q >= 2: no a = 0 or q
        per_q = [phi_q * float(_arc_integrals(w, t, n, q, a_q, cap / q).mean()) for q, a_q, phi_q
                 in zip(qs.tolist(), np.split(a, np.flatnonzero(np.diff(row)) + 1), phi.tolist())]
        total += float(np.mean(per_q)) * len(qs_all)
        lo = hi
    return total
