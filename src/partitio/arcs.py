"""Diophantine approximation and the Farey-dissection arc families.

The unit interval is dissected at order 2*sqrt(n): every alpha gets coprime
(a, q) with q <= 2*sqrt(n) and |q*alpha - a| <= 1/(2*sqrt(n)).  Height-Q
major arcs M(Q) collect |q*alpha - a| <= Q/n over q <= Q while Q stays below
sqrt(n)/2; beyond that M(Q) grows by the order-2*sqrt(n) Farey cells of
height up to Q.  N(Q) = M(Q) minus M(Q/4) are the dyadic slices.

Points exactly on an arc boundary are assigned to the smaller q (the <=
comparisons below), a measure-zero convention that keeps classification
deterministic.  The splitting of the complement into Farey cells uses the
best-approximation cell of each point, i.e. the convergent minimising
|q*alpha - a|, with ties again resolved toward smaller q.

Classification runs on whole arrays and is exact.  The best approximation
with denominator at most q_max is the last continued-fraction convergent
with q <= q_max, so it is fixed by the Euclid walk on alpha taken as an exact
rational.  A float alpha in [0, 1] is the binary rational num / 2**shift
with num < 2**53, and ``dirichlet_approx`` runs the walk on int64 arrays for
every q_max below 2**63:

* it carries the convergents p/q and the residual r = q*num - p*2**shift,
  which obeys the recurrence of p and q, r_next = a_i*r + r_prev.  The |r|
  are the Euclid remainders of (2**shift, num), alternate in sign and shrink;
* a partial quotient a_i can be as large as 2**shift when a remainder
  reaches 1, so the stop rule q_next > q_max is tested as a_i > (q_max -
  q_prev) // q before a_i*q + q_prev is formed; an accepted step has q_next
  <= q_max, and p_next <= q_next because alpha <= 1;
* err = ldexp(|r|, -shift) equals float(|q*alpha - p|) bit for bit: the one
  rounding is that of |r| to 53 bits, or of the subnormal result.

For alpha >= 2**-10 (and alpha = 0) the shift is at most 62, so 2**shift
and every remainder fit int64.  Below, the first partial quotient a_1 =
2**shift // num exceeds q_max whenever alpha*(q_max + 1) < 1, and the answer
is 0/1 with err alpha; a float product below 1/2 proves that for the whole
array at once.  The rest take one Python ``divmod`` for a_1 and the first
remainder, after which every value is below 2**53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from partitio.arith import PrecisionLimit, coprime_mask

Points = Union[float, np.ndarray]  # one point or a 1-D float array of them


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
    q_max, and satisfies |q*alpha - a| <= 1/q_max (see the module docstring).
    """
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


@dataclass(frozen=True)
class ArcLabel:
    in_major: np.ndarray  # bool per point: in M(Q)
    slice_q: np.ndarray   # smallest level Q/4**j still containing the point, nan outside M(Q)
    core: np.ndarray      # bool per point: in the core arc


@dataclass(frozen=True)
class Dissection:
    """Arc families of the order-2*sqrt(n) dissection for one fixed n, on 1-D
    float point arrays; every method classifies by the one walk
    ``dirichlet_approx``.  ``assign`` and ``in_major`` are one-element wrappers
    kept for the benchmark: its tracer self-test wraps both, its oracle calls
    ``assign``."""

    n: int

    @property
    def half_height(self) -> int:
        # largest integer q allowed in the low half of the dissection
        return max(1, math.isqrt(self.n) // 2)

    @property
    def full_height(self) -> int:
        return math.isqrt(4 * self.n)  # floor(2*sqrt(n))

    def assign_many(self, alphas: Points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Farey cells (a, q, err) of the points: the containing low-height
        arc if there is one, otherwise the best order-2*sqrt(n) approximation."""
        x = _points(alphas)
        a, q, err = dirichlet_approx(x, self.half_height)
        far = np.flatnonzero(~(err <= 0.5 / math.sqrt(self.n)))
        if far.size:
            a[far], q[far], err[far] = dirichlet_approx(x[far], self.full_height)
        return a, q, err

    def assign(self, alpha: float) -> RationalApprox:
        a, q, err = self.assign_many(alpha)
        return RationalApprox(a=int(a[0]), q=int(q[0]), err=float(err[0]))

    def in_major_many(self, alphas: Points, Q: float) -> np.ndarray:
        """Boolean mask of the points lying in M(Q)."""
        if not 1 <= Q <= 2 * math.sqrt(self.n) + 1e-9:
            raise ValueError(f"Q={Q} outside [1, 2*sqrt(n)]")
        if Q <= 0.5 * math.sqrt(self.n):
            _, _, err = dirichlet_approx(alphas, int(math.floor(Q)))
            return err <= Q / self.n
        _, q, err = self.assign_many(alphas)
        return np.where(q <= self.half_height, err <= 0.5 / math.sqrt(self.n), q <= Q)

    def in_major(self, alpha: float, Q: float) -> bool:
        return bool(self.in_major_many(alpha, Q)[0])

    def in_slice_many(self, alphas: Points, Q: float) -> np.ndarray:
        """Boolean mask of the points lying in N(Q) = M(Q) minus M(Q/4)."""
        x = _points(alphas)
        inside = self.in_major_many(x, Q)
        if Q / 4 >= 1:
            hit = np.flatnonzero(inside)
            inside[hit] = ~self.in_major_many(x[hit], Q / 4)
        return inside

    def arc_halfwidth(self, q: int, Q: float) -> float:
        """Half-width (in alpha) of the height-Q arc around a/q."""
        return min(Q, 0.5 * math.sqrt(self.n)) / (q * self.n)


def upsilon(alphas: Points, n: int) -> np.ndarray:
    """(q + n|q*alpha - a|)**-1 over the Farey cells of the points; each lies in (0, 1]."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _, q, err = Dissection(n).assign_many(alphas)
    return 1.0 / (q + n * err)


def arc_classify(alphas: Points, n: int, Q: float) -> ArcLabel:
    """Locate the points relative to M(Q), its dyadic levels and the core.

    Each level Q/4**j >= 1 takes one ``in_major_many`` call over the points
    still inside.  The core is |alpha - a/q| <= B/n over q <= B =
    (log n)**(1/15); every n the dissection accepts has a float sqrt(n), so
    log n < 710, B < 1.55 and only the q = 1 arc occurs (none at n = 2).
    """
    d, x = Dissection(n), _points(alphas)
    in_major = d.in_major_many(x, Q)
    slice_q, inside, level = np.where(in_major, Q, np.nan), np.flatnonzero(in_major), Q
    while level / 4 >= 1 and inside.size:
        level /= 4
        inside = inside[d.in_major_many(x[inside], level)]
        slice_q[inside] = level
    B = math.log(n) ** (1.0 / 15.0)
    core = (B >= 1) & (np.minimum(x, 1 - x) <= B / n)
    return ArcLabel(in_major=in_major, slice_q=slice_q, core=core)


def _coprime_residues(q: int, rng: np.random.Generator) -> np.ndarray:
    """The a in [0, q] coprime to q, thinned to 4 random ones."""
    a = np.flatnonzero(coprime_mask(q))
    return rng.choice(a, size=4, replace=False) if len(a) > 4 else a


def sample_slice_alphas(n: int, Q: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified sample from the slice N(Q).

    Mixes arc centres a/q for q in (Q/4, Q] with offsets j/8 of the arc
    half-width (boundary stress), rim points of lower arcs, and uniform
    draws; every candidate is then filtered through the exact classifier.
    """
    d = Dissection(n)
    qlo = int(math.floor(Q / 4))
    qhi = max(1, int(math.floor(min(Q, d.full_height))))

    # centre stratum; below the half height membership in M(Q) is automatic.
    # q is drawn by index (as from the listed range), so no q range is listed
    if qhi - qlo <= 80:
        qs = np.arange(qlo + 1, qhi + 1)
    else:
        qs = np.unique(qlo + 1 + rng.choice(qhi - qlo, size=80, replace=False))
    offsets = np.array([0.0, 0.25, -0.25, 0.625, -0.625, 0.875, -0.875])
    pieces, test_top = [np.empty(0)], [np.zeros(0, dtype=bool)]
    for q in qs:
        q = int(q)
        deltas = offsets * d.arc_halfwidth(q, Q) * 0.999
        pieces.append(((_coprime_residues(q, rng) / q)[:, None] + deltas).ravel())
        test_top.append(np.full(len(pieces[-1]), q > d.half_height))

    # rim stratum: the annulus of the lower arcs q <= Q/4 that N(Q) keeps
    vlo = min(Q / 4, 0.5 * math.sqrt(n))
    vhi = min(Q, 0.5 * math.sqrt(n))
    if qlo >= 1 and vhi > vlo * 1.001:
        if qlo <= 40:
            rim_qs = np.arange(1, qlo + 1)
        else:
            rim_qs = np.unique(
                np.concatenate([np.arange(1, 9), 1 + rng.choice(qlo, size=32, replace=False)])
            )
        rim_vs = np.geomspace(vlo * 1.02, vhi * 0.999, 4)
        steps = np.multiply.outer(rim_vs, (1.0, -1.0)).ravel()
        for q in rim_qs:
            q = int(q)
            pieces.append(((_coprime_residues(q, rng) / q)[:, None] + steps / (q * n)).ravel())
            test_top.append(np.zeros(len(pieces[-1]), dtype=bool))

    # both strata leave M(Q/4); centres above the half height must be in M(Q)
    cand = np.concatenate(pieces)
    keep = (0.0 <= cand) & (cand <= 1.0)
    top = np.flatnonzero(keep & np.concatenate(test_top))
    if top.size:
        keep[top] = d.in_major_many(cand[top], Q)
    low = np.flatnonzero(keep)
    if Q / 4 >= 1 and low.size:
        keep[low] = ~d.in_major_many(cand[low], Q / 4)
    out = cand[keep]

    # uniform stratum: the first accepted draws, up to count*4 points in all
    draws = rng.random(max(8, int(count * 0.25)) * 4)
    need = count * 4 - len(out)
    if need > 0:
        out = np.concatenate([out, draws[d.in_slice_many(draws, Q)][:need]])

    if not len(out):
        return np.empty(0)
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


def size_slices(
    w,
    n: int,
    Q: float,
    T: float,
    samples: int,
    seed: int = 0,
) -> SliceStats:
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
