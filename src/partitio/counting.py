"""Exact representation counts, convolution moments, and arc quadrature.

Counts are additive convolutions of power-value indicators, kept in checked
64-bit integers with an automatic escalation to Python big integers when a
fold could overflow.  Moments of the smooth Weyl sum come either exactly from
Parseval (sum of squared convolution counts) or numerically from grid or
per-arc quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional, Union

import numpy as np

from partitio.arcs import Dissection
from partitio.arith import SmoothSet, iroot, sieve_tables, smooth_set
from partitio.expsums import exp_sum_many
from partitio.weights import Weight

_INT64_GUARD = 2**62

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class Provenance:
    k: int
    s: int
    base: str                    # "all" or "smooth(P,R)"
    allow_zero: bool
    x_kind: Optional[str] = None
    x_nonneg: Optional[bool] = None


@dataclass
class CountTable:
    """Nonnegative integer counts indexed 0..limit with provenance."""

    limit: int
    counts: np.ndarray
    provenance: Provenance

    def total(self) -> int:
        return int(sum(int(c) for c in self.counts)) if self.counts.dtype == object else int(
            self.counts.sum(dtype=np.int64)
        )

    def __getitem__(self, m: int) -> int:
        return int(self.counts[m])


def _fold(acc: np.ndarray, kernel_values: np.ndarray, N: int, running_total: int) -> tuple[np.ndarray, int]:
    """One convolution step: out[m] = sum over v in kernel of acc[m - v].

    ``running_total`` tracks sum(acc) in exact Python arithmetic; when the
    next fold could exceed the int64 guard the accumulator escalates to
    Python integers (the "big-integer mode" of the overflow contract).
    """
    next_total = running_total * len(kernel_values)
    if acc.dtype != object and next_total > _INT64_GUARD:
        acc = acc.astype(object)
    out = np.zeros(N + 1, dtype=acc.dtype)
    for v in kernel_values:
        v = int(v)
        if v <= N:
            out[v:] += acc[: N + 1 - v]
    return out, next_total


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
    if s < 1 or N < 1 or k < 1:
        raise ValueError("need s >= 1, N >= 1, k >= 1")
    if isinstance(base, SmoothSet):
        xs = [int(x) for x in base.members]
        base_tag = f"smooth({base.P},{base.R})"
    else:
        if base != "all":
            raise ValueError(f"unknown base {base!r}")
        xs = list(range(1, iroot(N, k) + 1))
        base_tag = "all"
    values = [x**k for x in xs if x**k <= N]
    if allow_zero:
        values = [0] + values
    if not values:
        raise ValueError("empty summand set")
    kernel = np.array(values, dtype=np.int64)

    acc = np.zeros(N + 1, dtype=np.int64)
    acc[0] = 1
    total = 1
    for _ in range(s):
        acc, total = _fold(acc, kernel, N, total)
    if acc.dtype != object and np.any(acc < 0):
        raise ArithmeticError("count overflow slipped past the guard")
    return CountTable(
        limit=N,
        counts=acc,
        provenance=Provenance(k=k, s=s, base=base_tag, allow_zero=allow_zero),
    )


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
    table = power_convolution(k, s, N, base=base, allow_zero=y_nonneg)
    if x_kind == "none":
        return table

    if x_kind == "square":
        x_start = 0 if x_nonneg else 1
        xv = [x * x for x in range(x_start, isqrt(N) + 1)]
    elif x_kind == "prime_square":
        primes = sieve_tables(max(isqrt(N), 2)).primes
        xv = [int(p) * int(p) for p in primes if p * p <= N]
    elif x_kind == "hth_power":
        if h is None or h < 1:
            raise ValueError("hth_power needs h >= 1")
        x_start = 0 if x_nonneg else 1
        xv = [x**h for x in range(x_start, iroot(N, h) + 1)]
    else:
        raise ValueError(f"unknown x_kind {x_kind!r}")
    if not xv:
        raise ValueError("empty x summand set")

    counts, _ = _fold(table.counts, np.array(xv, dtype=np.int64), N, table.total())
    return CountTable(
        limit=N,
        counts=counts,
        provenance=Provenance(
            k=k, s=s, base=table.provenance.base, allow_zero=y_nonneg,
            x_kind=x_kind, x_nonneg=x_nonneg,
        ),
    )


def zero_set(k: int, s: int, N: int, **kwargs) -> list[int]:
    """All n in [1, N] with no representation (default x/y conventions)."""
    table = representation_counts(k, s, N, **kwargs)
    return [int(n) for n in np.flatnonzero(table.counts[1:] == 0) + 1]


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
    if np.allclose(vals, np.rint(vals)):
        return int(sum(int(round(v)) * int(c) for v, c in zip(vals, rho_vals)))
    return float(np.dot(vals, rho_vals.astype(float)))


def moment_exact(k: int, r: int, P: int, R: int) -> int:
    """Number of 2r-tuples from the R-smooth integers in [1, P] whose k-th
    powers balance; equals the full-interval 2r-th power moment exactly."""
    if r < 1:
        raise ValueError("r must be at least 1")
    sm = smooth_set(P, R)
    N = r * int(sm.members[-1]) ** k
    table = power_convolution(k, r, N, base=sm, allow_zero=False)
    return int(sum(int(c) * int(c) for c in table.counts))


def _autocorrelation_int(counts: np.ndarray) -> np.ndarray:
    """Exact D[v] = sum_m counts[m] counts[m+v] via zero-padded FFT."""
    m = len(counts)
    size = 1
    while size < 2 * m:
        size <<= 1
    f = np.fft.rfft(counts.astype(float), size)
    ac = np.fft.irfft(f * np.conj(f), size)[:m]
    rounded = np.rint(ac)
    if np.max(np.abs(ac - rounded)) > 1e-3:
        raise ArithmeticError("autocorrelation lost integrality; counts too large for FFT path")
    return rounded.astype(np.int64)


def mean_value_N(k: int, r: int, n: int, R: int) -> int:
    """Exact count of x1^2 - x2^2 = sum_j (y_j^k - z_j^k) with 1 <= x_i <=
    sqrt(n) and y, z drawn from the R-smooth integers up to n**(1/k)."""
    P = iroot(n, k)
    sm = smooth_set(P, min(R, P))
    table = power_convolution(k, r, r * int(sm.members[-1]) ** k, base=sm, allow_zero=False)
    if table.counts.dtype == object:
        raise ArithmeticError("counts exceeded the int64 range; reduce r or n")
    D = _autocorrelation_int(table.counts)

    X = isqrt(n)
    squares = np.arange(1, X + 1, dtype=np.int64) ** 2
    diffs = (squares[:, None] - squares[None, :]).ravel()
    pos = diffs[diffs > 0]
    if len(pos) == 0:
        return X * int(D[0])
    S = np.bincount(pos)
    vmax = min(len(D) - 1, len(S) - 1)
    cross = sum(int(S[v]) * int(D[v]) for v in range(1, vmax + 1) if S[v])
    return X * int(D[0]) + 2 * cross


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    grid_points: int
    doubled_value: Optional[float] = None
    rel_change: Optional[float] = None

    def __float__(self) -> float:
        return self.value


def _grid_integral(w: Weight, t: int, G: int, region: str, Q: Optional[float], n: int) -> float:
    alphas = np.arange(G, dtype=float) / G
    mags = np.abs(exp_sum_many(w, alphas))
    integrand = mags**t
    if region == "full":
        mask = np.ones(G, dtype=bool)
    else:
        if Q is None:
            raise ValueError(f"region {region!r} needs Q")
        d = Dissection(n)
        if region == "major":
            mask = d.in_major_many(alphas, Q)
        elif region == "slice":
            mask = d.in_slice_many(alphas, Q)
        else:
            raise ValueError(f"unknown region {region!r}")
    # periodic integrand, uniform grid: the mean is the trapezoid value
    return float(integrand[mask].sum() / G)


def quadrature_moment(
    w: Weight,
    t: int,
    region: str = "full",
    grid_points: Optional[int] = None,
    Q: Optional[float] = None,
    n: Optional[int] = None,
    doubling: bool = True,
) -> QuadratureResult:
    """Grid quadrature of the t-th power moment of |W| over a region.

    region is "full", "major" (the height-Q arcs M(Q)) or "slice" (N(Q)).
    The doubling check recomputes on twice the grid; the relative change is
    the stability diagnostic that acceptance requires below 0.5 percent.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if n is None:
        k = w.params.get("k")
        P = w.params.get("P")
        n = P**k if (k and P) else w.n
    if grid_points is None:
        P = w.params.get("P") or iroot(w.n, w.params.get("k", 1))
        grid_points = max(2048, 64 * t * int(P))
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    value = _grid_integral(w, t, grid_points, region, Q, n)
    if not doubling:
        return QuadratureResult(value=value, grid_points=grid_points)
    doubled = _grid_integral(w, t, 2 * grid_points, region, Q, n)
    rel = abs(doubled - value) / max(abs(doubled), 1e-300)
    return QuadratureResult(
        value=value, grid_points=grid_points, doubled_value=doubled, rel_change=rel
    )


# ---------------------------------------------------------------------------
# Per-arc quadrature for large dissections
# ---------------------------------------------------------------------------


def _totients(N: int) -> np.ndarray:
    phi = np.arange(N + 1, dtype=np.int64)
    for p in sieve_tables(max(N, 2)).primes:
        if p > N:
            break
        phi[p::p] -= phi[p::p] // p
    return phi


def _arc_ugrid(U: float, inner_step: float = 0.25, per_decade: int = 16) -> np.ndarray:
    """Symmetric grid in u = n|alpha - a/q|: uniform near the centre where
    the integrand peaks, logarithmic out to the arc edge."""
    u0 = min(4.0, U)
    pts = list(np.arange(0.0, u0 + 1e-12, inner_step))
    if pts[-1] < u0:
        pts.append(u0)
    if U > u0 * (1 + 1e-12):
        n_log = max(2, int(math.ceil(per_decade * math.log10(U / u0))))
        pts.extend(np.geomspace(u0, U, n_log + 1)[1:])
    pos = np.array(pts)
    return np.concatenate([-pos[:0:-1], pos])


def _arc_integrals(w: Weight, t: int, n: int, q: int, a_values: list[int], U: float) -> np.ndarray:
    """Integral of |W|^t over the height-capped arcs around a/q, one value
    per entry of a_values.  Endpoint arcs (a = 0, a = q) use their half."""
    us = _arc_ugrid(U)
    out = np.empty(len(a_values))
    for i, a in enumerate(a_values):
        grid = us
        if a == 0:
            grid = us[us >= 0]
        elif a == q:
            grid = us[us <= 0]
        alphas = a / q + grid / n
        mags = np.abs(exp_sum_many(w, alphas))
        out[i] = _trapezoid(mags**t, alphas)
    return out


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
    d = Dissection(n)
    qmax = int(math.floor(min(Q, d.full_height)))
    cap = min(Q, 0.5 * math.sqrt(n))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    total = 0.0

    for q in range(1, min(exact_q, qmax) + 1):
        a_values = [a for a in range(0, q + 1) if gcd(a, q) == 1]
        total += float(_arc_integrals(w, t, n, q, a_values, cap / q).sum())

    totient = _totients(qmax) if qmax > exact_q else None
    lo = exact_q
    while lo < qmax:
        hi = min(qmax, 2 * lo)
        qs_all = np.arange(lo + 1, hi + 1)
        if len(qs_all) > band_q_samples:
            picks = np.unique(np.linspace(0, len(qs_all) - 1, band_q_samples).astype(int))
            qs = qs_all[picks]
        else:
            qs = qs_all
        per_q = []
        for q in qs:
            q = int(q)
            coprime = [a for a in range(1, q) if gcd(a, q) == 1]
            if len(coprime) > band_a_samples:
                coprime = sorted(rng.choice(coprime, size=band_a_samples, replace=False))
            vals = _arc_integrals(w, t, n, q, coprime, cap / q)
            per_q.append(int(totient[q]) * float(vals.mean()))
        total += float(np.mean(per_q)) * len(qs_all)
        lo = hi
    return total
