"""Diophantine approximation and the Farey-dissection arc families.

The unit interval is dissected at order 2*sqrt(n): every alpha gets coprime
(a, q) with q <= 2*sqrt(n) and |q*alpha - a| <= 1/(2*sqrt(n)).  Height-Q
major arcs M(Q) collect |q*alpha - a| <= Q/n over q <= Q while Q stays below
sqrt(n)/2; beyond that M(Q) grows by the order-2*sqrt(n) Farey cells of
height up to Q.  N(Q) = M(Q) minus M(Q/4) are the dyadic slices.  Below
sqrt(n)/2 the height-Q arcs are disjoint: one walk decides every level L <= Q.

Points exactly on an arc boundary are assigned to the smaller q (the <=
comparisons below), a measure-zero convention that keeps classification
deterministic.  The splitting of the complement into Farey cells uses the
best-approximation cell of each point, i.e. the convergent minimising
|q*alpha - a|, with ties again resolved toward smaller q.

Classification runs on whole arrays and is exact.  The best approximation
with denominator at most q_max is the last continued-fraction convergent
with q <= q_max, so it is fixed by the Euclid walk on alpha taken as an exact
rational.  A float alpha in [0, 1] is the binary rational num / 2**shift
with num < 2**53.  ``dirichlet_approx`` answers small heights, q_max <=
``_FAREY_MAX``, from the Farey sequence F_{q_max}, and runs the walk on int64
arrays for every larger q_max below 2**63; both give the same bits.

The lookup rests on the neighbour theorem (Hardy & Wright, ch. III and X):
the last convergent with q <= N is one of alpha's two neighbours in F_N, and
it minimises |q*alpha - a| over q <= N.  Of neighbours a/q < a'/q', the
first is nearer, q*alpha - a < a' - q'*alpha, exactly when alpha lies below
their mediant m = (a + a')/(q + q').  They tie only at m, where the
convergent has the smaller q (at N = 1 and alpha = 1/2 both have q = 1, and
the walk's 0/1 has the smaller a).  So entry k of F_N is the answer strictly
between the mediants m_{k-1} and m_k:

* F_N is built once per N: read-only int64 a and q, ascending, and the
  floats of the mediants m_k of neighbouring entries.  The float of a
  rational is correctly rounded, so x < fl(m) implies x < m and x > fl(m)
  implies x > m.  One ``searchsorted`` gives each point x the entry k with
  fl(m_{k-1}) < x <= fl(m_k), and k is the answer unless x = fl(m_k);
* only there is the side taken exactly, from the sign of num*(q_k + q_{k+1})
  - (a_k + a_{k+1})*2**shift: above m_k entry k + 1 wins, below it entry k,
  and at m_k the smaller q, then the smaller a;
* err is the winner's one exact residual r = q*num - a*2**shift.  For shift
  <= 62 and q <= N <= 64 both fit int64: q*num < 2**59, and |r| <= 2**shift
  since |q*alpha - a| <= 1.  At a mediant float, (a + a')*2**shift is
  (q + q')*num <= 2**60 up to a factor 1 + 2**-53;
* points below 2**-10 are 0/1 with err alpha without a lookup: alpha*(q_max +
  1) < 1/2 there, since q_max + 1 <= 512, so a_1 > q_max (see below).

The walk, for q_max above ``_FAREY_MAX``:

* it carries the convergents p/q and the residual r = q*num - p*2**shift,
  which obeys the recurrence of p and q, r_next = a_i*r + r_prev.  The |r|
  are the Euclid remainders of (2**shift, num), alternate in sign and shrink;
* a partial quotient a_i can be as large as 2**shift when a remainder
  reaches 1, so the stop rule q_next > q_max is tested as a_i > (q_max -
  q_prev) // q before a_i*q + q_prev is formed; an accepted step has q_next
  <= q_max, and p_next <= q_next because alpha <= 1;
* err = ldexp(|r|, -shift) equals float(|q*alpha - p|) bit for bit, on both
  paths: the one rounding is that of |r| to 53 bits, or of the subnormal
  result.

For alpha >= 2**-10 (and alpha = 0) the shift is at most 62, so 2**shift
and every remainder fit int64.  Below, the first partial quotient a_1 =
2**shift // num exceeds q_max whenever alpha*(q_max + 1) < 1, and the answer
is 0/1 with err alpha; a float product below 1/2 proves that for the whole
array at once.  The rest take one Python ``divmod`` for a_1 and the first
remainder, after which every value is below 2**53.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

from partitio.arith import PrecisionLimit, _check_budget, reduced_residues

Points = Union[float, np.ndarray]  # one point or a 1-D float array of them

_FAREY_MAX = 64  # dirichlet_approx reads F_{q_max} up to this q_max, and walks above it


@dataclass(frozen=True)
class RationalApprox:
    a: int
    q: int
    err: float  # |q*alpha - a|


def _points(alphas: Points) -> np.ndarray:
    """A scalar or sequence of float points as a 1-D float64 array; exact
    ``Fraction`` values (an object array) are refused."""
    x = np.atleast_1d(np.asarray(alphas))
    if x.ndim != 1:
        raise ValueError("alphas must be a scalar or a 1-D array")
    if x.dtype == object:
        raise ValueError("alphas must be floats, not exact rationals")
    return x.astype(float, copy=False)


def dirichlet_approx(alphas: Points, q_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rational approximations with denominator at most q_max: int64
    arrays a and q and float64 err = |q*alpha - a|, one entry per point.

    The last convergent with q <= q_max minimises |q*alpha - a| over all q <=
    q_max, and satisfies |q*alpha - a| <= 1/q_max.  q_max is an integer (a
    float is refused).  Up to ``_FAREY_MAX`` it is read off F_{q_max}: the
    entry between the mediants around alpha, by one ``searchsorted`` on their
    floats and an exact test only where alpha equals one.  Above it the int64
    Euclid walk runs.  The module docstring proves both give the same bits.
    """
    q_max = operator.index(q_max)
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    if q_max >= 2**63:
        raise PrecisionLimit(f"q_max = {q_max} is past the int64 range of the walk")
    x = _points(alphas)
    bad = ~((x >= 0.0) & (x <= 1.0))
    if bad.any():
        raise ValueError(f"alpha must lie in [0, 1], got {x[bad][0]}")
    mant, ex = np.frexp(x)
    num = (mant * 2.0**53).astype(np.int64)
    shift = 53 - ex.astype(np.int64)  # alpha = num / 2**shift
    wide = shift > 62
    if q_max <= _FAREY_MAX:
        return _farey_nearest(x, num, shift, np.flatnonzero(~wide), q_max)
    den = np.left_shift(np.int64(1), np.where(wide, 0, shift))

    # lane state: convergents p0/q0 (previous), p1/q1 (current), residuals
    # |r0| = u and |r1| = v; a lane that never walks keeps 0/1 and err alpha
    p1 = num // den
    p0, q0, q1 = np.ones_like(p1), np.zeros_like(p1), np.ones_like(p1)
    u, v = den, num - p1 * den
    a, q, err = np.zeros_like(p1), np.ones_like(p1), x.copy()
    walk = ~wide
    for i in np.flatnonzero(wide & (x * float(q_max + 1) >= 0.5)):
        a1, r = divmod(1 << int(shift[i]), int(num[i]))
        if a1 <= q_max:
            walk[i] = True
            p0[i], q0[i], p1[i], q1[i], u[i], v[i] = 0, 1, 1, a1, num[i], r
    live = np.flatnonzero(walk)
    p0, p1, q0, q1, u, v, shift = (arr[live] for arr in (p0, p1, q0, q1, u, v, shift))
    while live.size:
        go = v != 0
        a_i = u // np.where(go, v, 1)
        go &= a_i <= (q_max - q0) // q1
        if not go.all():
            end = ~go
            at = live[end]
            a[at], q[at] = p1[end], q1[end]
            err[at] = np.ldexp(v[end].astype(float), -shift[end])
            p0, p1, q0, q1, u, v, shift, a_i, live = (
                arr[go] for arr in (p0, p1, q0, q1, u, v, shift, a_i, live)
            )
        p0, p1 = p1, a_i * p1 + p0
        q0, q1 = q1, a_i * q1 + q0
        u, v = v, u - a_i * v
    return a, q, err


@functools.lru_cache(maxsize=None)
def _farey(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F_N, read-only: int64 a and q of the coprime 0 <= a <= q <= N,
    ascending, and the floats of the mediants of neighbouring entries, then
    inf.  A fraction and its reduced form round to one float, and distinct
    entries are 1/N**2 apart, so of each run of equal floats over the pairs
    0 <= a <= q <= N, listed by q, the first is reduced."""
    q = np.repeat(np.arange(1, N + 1), np.arange(2, N + 2))
    a = np.arange(len(q)) - (q * (q + 1) // 2 - 1)
    first = np.unique(a / q, return_index=True)[1]
    a, q = a[first], q[first]
    mid = np.append((a[:-1] + a[1:]) / (q[:-1] + q[1:]), np.inf)
    for arr in (a, q, mid):
        arr.flags.writeable = False
    return a, q, mid


def _farey_nearest(x, num, shift, live, N):
    """``dirichlet_approx`` for N <= _FAREY_MAX: the points at ``live`` (shift
    <= 62) take the entry of F_N between their mediants, the rest 0/1."""
    fa, fq, mid = _farey(N)
    a, q, err = np.zeros(len(x), np.int64), np.ones(len(x), np.int64), x.copy()
    num, shift = num[live], shift[live]
    den = np.left_shift(np.int64(1), shift)
    best = np.searchsorted(mid, x[live])
    on = np.flatnonzero(mid[best] == x[live])
    if on.size:  # x is a mediant's float: decide its side exactly
        k = best[on]
        side = num[on] * (fq[k] + fq[k + 1]) - (fa[k] + fa[k + 1]) * den[on]
        best[on] += (side > 0) | (side == 0) & (fq[k + 1] < fq[k])
    a[live], q[live] = fa[best], fq[best]
    err[live] = np.ldexp(np.abs(fq[best] * num - fa[best] * den).astype(float), -shift)
    return a, q, err


@dataclass(frozen=True)
class Dissection:
    """Arc families of the order-2*sqrt(n) dissection for one fixed n, on 1-D
    float point arrays; a classifier call reads both ends of a slice off the
    walks of one ``_cells`` call.  ``assign`` and ``in_major`` are one-element
    wrappers kept for the benchmark: its tracer self-test wraps both, its
    oracle calls ``assign``."""

    n: int

    @property
    def half_height(self) -> int:
        # largest integer q allowed in the low half of the dissection
        return max(1, math.isqrt(self.n) // 2)

    @property
    def full_height(self) -> int:
        return math.isqrt(4 * self.n)  # floor(2*sqrt(n))

    def cap(self, L: float) -> float:
        """The height-L bound is |q*alpha - a| <= cap(L)/n on both sides of
        sqrt(n)/2; one float expression, so M(L) nests in M(L') for L <= L'."""
        return min(L, 0.5 * math.sqrt(self.n))

    def _cells(self, alphas: Points, Q: float) -> tuple[tuple, tuple]:
        """The walks deciding M(L) for every level 1 <= L <= Q, as a pair: one
        for the levels up to sqrt(n)/2, one for those above.  Both are the walk
        to floor(Q) if Q <= sqrt(n)/2; else the walk to half_height and the
        Farey cells of ``assign_many``."""
        if not 1 <= Q <= 2 * math.sqrt(self.n) + 1e-9:
            raise ValueError(f"Q={Q} outside [1, 2*sqrt(n)]")
        x = _points(alphas)
        if Q <= 0.5 * math.sqrt(self.n):
            first = dirichlet_approx(x, int(math.floor(Q)))
            return first, first
        a, q, err = first = dirichlet_approx(x, self.half_height)
        far = np.flatnonzero(~(err <= self.cap(Q) / self.n))
        if far.size:
            a, q, err = (arr.copy() for arr in first)
            a[far], q[far], err[far] = dirichlet_approx(x[far], self.full_height)
        return first, (a, q, err)

    def _inside(self, cells: tuple[tuple, tuple], L: float) -> np.ndarray:
        """Membership in M(L) of the points, from their ``_cells`` at some Q >= L."""
        bound = self.cap(L) / self.n
        if L <= 0.5 * math.sqrt(self.n):
            _, q, err = cells[0]
            return (q <= L) & (err <= bound)
        _, q, err = cells[1]
        return np.where(q <= self.half_height, err <= bound, q <= L)

    def assign_many(self, alphas: Points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Farey cells (a, q, err) of the points: the containing low-height
        arc if there is one, otherwise the best order-2*sqrt(n) approximation."""
        return self._cells(alphas, 2 * math.sqrt(self.n))[1]

    def assign(self, alpha: float) -> RationalApprox:
        a, q, err = self.assign_many(alpha)
        return RationalApprox(a=int(a[0]), q=int(q[0]), err=float(err[0]))

    def in_major_many(self, alphas: Points, Q: float) -> np.ndarray:
        """Boolean mask of the points lying in M(Q)."""
        return self._inside(self._cells(alphas, Q), Q)

    def in_major(self, alpha: float, Q: float) -> bool:
        return bool(self.in_major_many(alpha, Q)[0])

    def in_slice_many(self, alphas: Points, Q: float) -> np.ndarray:
        """Boolean mask of the points lying in N(Q) = M(Q) minus M(Q/4)."""
        cells = self._cells(alphas, Q)
        inside = self._inside(cells, Q)
        return inside & ~self._inside(cells, Q / 4) if Q / 4 >= 1 else inside


def _top_denominator(n: int, Q: float) -> int:
    """floor(min(Q, 2*sqrt(n))) (at least 1), the top q of N(Q), held to the sieve budget."""
    qhi = max(1, int(math.floor(min(Q, Dissection(n).full_height))))
    _check_budget(qhi, f"top slice denominator {{}} (n = {n}, Q = {Q:.12g})")
    return qhi


def _arc_points(qs: np.ndarray, n: int, rng: np.random.Generator, shift) -> np.ndarray:
    """a/q + shift(q*n) (q*n rounded once), flat, for up to four random reduced a per q."""
    row, a, _ = reduced_residues(qs, 4, rng)
    qn = np.array([q * n for q in qs.tolist()], dtype=float)
    return ((a / qs[row])[:, None] + shift(qn[row, None])).ravel()


def sample_slice_alphas(n: int, Q: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified sample from the slice N(Q), at most ``count`` points.

    Mixes arc centres a/q for q in (Q/4, Q], offset by j/8 of the arc half-width to
    stress the boundary, rim points of lower arcs and uniform draws; the top q is held
    to the sieve budget first.  Each arc stratum is one ``reduced_residues`` pass (an
    ``rng.choice`` per q, ascending) and a broadcast; one walk filters them, one the draws.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    d = Dissection(n)
    qlo, qhi = max(0, int(math.floor(Q / 4))), _top_denominator(n, Q)

    # centre stratum: q is drawn by index, the same draws as from a listed range
    qs = (np.arange(qlo + 1, qhi + 1) if qhi - qlo <= 80
          else np.unique(qlo + 1 + rng.choice(qhi - qlo, size=80, replace=False)))
    offsets = np.array([0.0, 0.25, -0.25, 0.625, -0.625, 0.875, -0.875])
    pieces = [_arc_points(qs, n, rng, lambda qn: offsets * (d.cap(Q) / qn) * 0.999)]

    # rim stratum: the annulus of the lower arcs q <= Q/4 that N(Q) keeps
    vlo, vhi = d.cap(Q / 4), d.cap(Q)
    if qlo >= 1 and vhi > vlo * 1.001:
        rim_qs = np.arange(1, qlo + 1) if qlo <= 40 else np.unique(
            np.concatenate([np.arange(1, 9), 1 + rng.choice(qlo, size=32, replace=False)]))
        steps = np.multiply.outer(np.geomspace(vlo * 1.02, vhi * 0.999, 4), (1.0, -1.0)).ravel()
        pieces.append(_arc_points(rim_qs, n, rng, lambda qn: steps / qn))

    cand = np.concatenate(pieces)
    cand = cand[(0.0 <= cand) & (cand <= 1.0)]
    out = cand[d.in_slice_many(cand, Q)]

    # uniform stratum: the first accepted draws, up to count*4 points in all
    draws = rng.random(max(8, int(count * 0.25)) * 4)
    need = count * 4 - len(out)
    if need > 0:
        out = np.concatenate([out, draws[d.in_slice_many(draws, Q)][:need]])

    arr = np.sort(out)
    if len(arr) > count:
        # even-spaced thinning preserves every stratum, unlike a random draw
        idx = np.unique(np.round(np.linspace(0, len(arr) - 1, count)).astype(int))
        arr = arr[idx]
    return arr


@dataclass(frozen=True)
class SliceStats:
    fraction_in_slice: float  # sampled frequency of the |W| window inside N(Q)
    sup_in_slice: float       # max |W| seen inside the window (0 if empty)
    samples_in_band: int
    samples_total: int


def size_slices(w, n: int, Q: float, T: float, samples: int, seed: int = 0) -> SliceStats:
    """Monte-Carlo portrait of the size-T window inside the height-Q slice.

    The window collects alpha in N(Q) with norm/T < |W(alpha)| <= 2*norm/T.
    """
    from partitio.expsums import exp_sum_many

    if T < 2:
        raise ValueError("T must be at least 2")
    if w.norm == 0:
        raise ValueError("zero-norm weight")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    alphas = sample_slice_alphas(n, Q, samples, rng)
    if len(alphas) == 0:
        return SliceStats(0.0, 0.0, 0, 0)
    mags = np.abs(exp_sum_many(w, alphas))
    lo, hi = w.norm / T, 2 * w.norm / T
    in_band = (mags > lo) & (mags <= hi)
    sup = float(mags[in_band].max()) if in_band.any() else 0.0
    return SliceStats(
        fraction_in_slice=float(in_band.mean()),
        sup_in_slice=sup,
        samples_in_band=int(in_band.sum()),
        samples_total=len(alphas),
    )
