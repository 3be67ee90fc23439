"""Exponential-sum evaluation and empirical decay-exponent fitting.

W(alpha) = sum over the weight support of w(m) e(t m), with e(z) =
exp(2 pi i z) and t = phase * alpha.  On the uniform grid alpha = j/G,
``exp_sum_grid`` bins the weight by the integer residue m * phase mod G and
takes one length-G DFT, so its phases are exact; ``exp_sum_rational`` reads
one entry of it.  ``exp_sum_many`` is the one off-grid evaluator;
``exp_sum_arcs`` evaluates the points a/q + beta of whole arcs (below).
``exp_sum_many`` reduces t mod 1 (t - floor(t), exact) and runs whichever of
two kernels its operation count says is cheaper:

* Dense: the |points| x |support| phase matrix x = t m, reduced by
  x - rint(x), then cos(2 pi x) @ w + i sin(2 pi x) @ w, in row blocks of at
  most ``_DENSE_BLOCK`` elements, the cos and the sin from one tangent
  (``_cos_sin``; numpy's float64 tan is SIMD, its cos and sin scalar libm).
  Each phase is one float product, off by up to 2**-53 |t m|; on scattered
  points these errors cancel (about 1e-13 of the norm at n = 1e5), but next
  to a rational of small denominator they add up (6e-11 of the norm at
  n = 5e5, one ulp below t = 1).  The tests hold the NUFFT to this kernel,
  and this kernel to a cos-and-sin one on the same reduced phases.
* Type-2 NUFFT (Greengard & Lee, "Accelerating the nonuniform FFT", SIAM
  Rev. 46 (2004); Gaussian kernel, oversampling 2).  With m = m0 + k and
  |k| <= span/2, the coefficients are divided by the Fourier factors of a
  periodised Gaussian of variance ``_GAUSS_VAR`` cells squared, one real FFT
  of a 5-smooth length R >= 2 (span + 1) puts the smoothed sum on the grid
  l/R, each point reads its 2w nearest grid values (w = ``_HALF_WIDTH``),
  and the result is multiplied by e(m0 t).  At w = 14 the aliasing and the
  truncation errors balance at exp(-2 pi w / 3) ~ 2e-13 of the norm.  The
  grid position t R and the phase m0 t come from a Veltkamp split of t into
  two 26-bit halves, so they are exact before their last rounding; against
  phases computed exactly in integers the kernel was within 3e-14 of the
  norm (squares, primes, Moebius at n up to 1e6), where the dense kernel
  was off by up to 1.3e-10.  The exponential-of-semicircle kernel (Barnett,
  Magland & af Klinteberg, SISC 41 (2019)) would need fewer reads per
  point, but the reads are not what costs here.  The weight-only half
  (offsets, deconvolution, binning, one real FFT of the real weight) is a
  plan, built by the first NUFFT call on a weight and kept on that
  instance, outside its dataclass fields, for one R; later calls at any
  points reuse it, with the same bits as a fresh transform.

Cost model, in ns measured (best of 5-7 calls) on one core of a 2-vCPU
AVX-512 Xeon with numpy 2.4: dense ``_DENSE_NS`` per term and point
(``_dense`` on five weight kinds at 20-200 points: 5.2-12 ns, median 8;
36-46 ns with a cos and a sin); NUFFT ``_FFT_NS`` per R log2 R for the one
real FFT (``rfft`` with its zero padding, 0.8-1.7 ns for R in 1e5..4e6),
``_SPREAD_NS`` per support term (``_plan`` less its FFT, 9-45 ns) and
``_GATHER_NS`` per grid read (26-30 ns at 2000 points).  The
NUFFT runs only when its estimate is the lower one and R <= ``_NUFFT_MAX_GRID``
(its buffers then stay near 100 MB), never for a single point or a support
of at most 2w terms.  The choice depends only on |support|, the support's
span and the number of points, not on a plan, so equal calls give equal bits.

Precision limit: off the grid, t m is an exact float product only while
|m * phase| <= 2**53; past that ``float(m)`` is no longer m, and
``exp_sum_many`` raises ``PrecisionLimit`` instead of returning a wrong sum.

Arcs: near a/q the phase splits, e(m (a/q + beta)) = e(a m / q) e(beta m)
(Vaughan, *The Hardy-Littlewood Method*, 2nd ed., ch. 2 and 4).
``exp_sum_arcs`` forms W = (E w) @ F^T over blocks of the support, with
E[a, m] = e((a r mod q) / q) from the exact int64 residue r = m phase mod q
and F[beta, m] = e(beta phase m) from one float product reduced by
x - rint(x), both by ``_cos_sin``; tan is odd bit for bit, so a -beta column
takes the conjugate of the +beta row.  Each phase is off by at most
2**-53 |beta phase m| (within 3e-14 of the norm in the tests, where float
points a/q + beta are off by up to 2e-9 at n = 1.25e8).  So m past 2**53 is no limit; |beta m phase| past 2**53 raises
``PrecisionLimit``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from partitio.arcs import _top_denominator, sample_slice_alphas
from partitio.arith import PrecisionLimit, _check_budget
from partitio.weights import Weight

TWO_PI = 2.0 * math.pi

_PHASE_LIMIT = 2**53
_DENSE_BLOCK = 1 << 16        # phase-matrix elements per block (512 KiB)
_NUFFT_MAX_GRID = 1 << 22     # largest oversampled grid R
_HALF_WIDTH = 14              # stencil half-width w, in grid cells
_GAUSS_VAR = 2 * _HALF_WIDTH / (3 * math.pi)
_DENSE_NS = 8.0               # cost-model constants, nanoseconds (module docstring)
_FFT_NS = 1.5
_SPREAD_NS = 20.0
_GATHER_NS = 40.0


def exp_sum_many(w: Weight, alphas: np.ndarray) -> np.ndarray:
    """W at every alpha, by the dense or the NUFFT kernel, whichever costs less."""
    alphas = np.asarray(alphas, dtype=float)
    if len(w.support) == 0:
        return np.zeros(len(alphas), dtype=complex)
    lo, hi = int(w.support.min()), int(w.support.max())
    if max(-lo, hi) * abs(w.phase) > _PHASE_LIMIT:
        raise PrecisionLimit(
            f"|m * phase| up to {max(-lo, hi) * abs(w.phase)} exceeds 2**53"
        )
    t = alphas * float(w.phase)
    t -= np.floor(t)
    grid = _nufft_grid(len(w.support), hi - lo, len(t))
    if grid:
        return _nufft(w, t, grid)
    return _dense(w.support.astype(float), w.values, t)


def _nufft_grid(terms: int, span: int, points: int) -> int:
    """The NUFFT grid length R if that kernel is the cheaper one, else 0."""
    if points < 2 or terms <= 2 * _HALF_WIDTH:
        return 0
    R = _smooth_length(2 * (span + 1))
    if R > _NUFFT_MAX_GRID:
        return 0
    cost = _FFT_NS * R * math.log2(R) + _SPREAD_NS * terms + _GATHER_NS * 2 * _HALF_WIDTH * points
    return R if cost < _DENSE_NS * terms * points else 0


@functools.lru_cache(maxsize=1024)
def _smooth_length(n: int) -> int:
    """Least 2**a 3**b 5**c >= n."""
    best = 1 << max(0, (n - 1).bit_length())
    p3 = 1
    while p3 < best:
        p5 = p3
        while p5 < best:
            r = p5 << max(0, (-(-n // p5) - 1).bit_length())
            best = min(best, r)
            p5 *= 5
        p3 *= 3
    return best


def _dense(m: np.ndarray, values: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.empty(len(t), dtype=complex)
    rows = max(1, _DENSE_BLOCK // len(m))
    for start in range(0, len(t), rows):
        cos, sin = _cos_sin(np.multiply.outer(t[start : start + rows], m))
        out[start : start + rows] = cos @ values + 1j * (sin @ values)
    return out


def _cos_sin(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos 2 pi x, sin 2 pi x) = (2d - 1, 2ud), with u = tan(pi x) and
    d = 1/(1 + u**2), after x -= rint(x) in place; x becomes the sine.  At
    x = +-1/2, u is 1.6e16, not inf."""
    x -= np.rint(x)
    x *= math.pi
    np.tan(x, out=x)
    d = x * x
    d += 1.0
    np.divide(2.0, d, out=d)
    x *= d
    d -= 1.0
    return d, x


def _split(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split t = hi + lo, each with at most 26 significant bits."""
    c = t * 134217729.0  # 2**27 + 1
    hi = c - (c - t)
    return hi, t - hi


def _frac_times(t: np.ndarray, m: int) -> np.ndarray:
    """t*m - rint(t*m) for an integer |m| <= 2**53, from four exact products."""
    hi, lo = _split(t)
    a, b = divmod(m, 1 << 27)
    x = sum(p - np.rint(p) for p in (hi * float(a << 27), lo * float(a << 27), hi * b, lo * b))
    return x - np.rint(x)


def _plan(w: Weight, R: int) -> tuple:
    """The NUFFT plan of w at grid length R as (lo, c, spectrum), built once."""
    plan = vars(w).get("_nufft_plan")
    if plan is None or plan[0] != R:
        lo = int(w.support.min())
        span = int(w.support.max()) - lo
        c = span // 2
        idx = w.support - lo
        k = (idx - c) / R
        deconv = np.exp(2 * math.pi**2 * _GAUSS_VAR * k * k)
        spectrum = np.fft.rfft(np.bincount(idx, weights=w.values * deconv, minlength=span + 1), R)
        vars(w)["_nufft_plan"] = plan = (R, lo, c, spectrum)
    return plan[1:]


def _nufft(w: Weight, t: np.ndarray, R: int) -> np.ndarray:
    lo, c, spectrum = _plan(w, R)
    # stencil around each point: grid cells l0 + o with |t R - l0 - o| <= w;
    # the mode shift e(-c l / R) splits into e(-c o / R) here and e(-c l0 / R)
    # in the point's phase below
    hi, low = _split(t)
    u_hi, u_lo = hi * R, low * R  # exact, since R < 2**27
    l0 = np.floor(u_hi + u_lo)
    offsets = np.arange(1 - _HALF_WIDTH, _HALF_WIDTH + 1)
    d = ((u_hi - l0)[:, None] - offsets) + u_lo[:, None]
    kernel = np.exp(d * d / (-2 * _GAUSS_VAR)) * np.exp((-TWO_PI / R * c) * 1j * offsets)
    l0 = l0.astype(np.int64)
    L = (l0[:, None] + offsets) % R

    # grid value sum_i G_i e(i l / R) from rfft(G)[l] (conjugated) or rfft(G)[R - l]
    grid = spectrum[np.minimum(L, R - L)]
    np.negative(grid.imag, out=grid.imag, where=L < R - L)

    smooth = (grid * kernel).sum(axis=1) / math.sqrt(TWO_PI * _GAUSS_VAR)
    phase = _frac_times(t, lo + c) - (c * l0 % R) / R
    return smooth * np.exp(TWO_PI * 1j * phase)


def exp_sum_grid(w: Weight, G: int) -> np.ndarray:
    """W(j/G) for j = 0..G-1: the length-G DFT of the weight binned by its
    exact phase residue m * phase mod G, so no phase is rounded.  G is held
    to the sieve budget before any array exists."""
    _check_budget(G, "grid of {} points")
    if G < 1:
        raise ValueError(f"G must be at least 1, got {G}")
    r = (w.support % G) * (w.phase % G) % G
    return G * np.fft.ifft(np.bincount(r, w.values, G))


def exp_sum_rational(w: Weight, a: int, q: int) -> complex:
    """Exact-phase evaluation of W(a/q), one entry of the length-q grid."""
    if q < 1 or q > w.n:
        raise ValueError(f"need 1 <= q <= n, got q={q}, n={w.n}")
    return complex(exp_sum_grid(w, q)[a % q])


def exp_sum_arcs(w: Weight, q: int, a_values: Sequence[int], betas: np.ndarray) -> np.ndarray:
    """W(a/q + beta), one row per a and one column per beta, with the
    weight's own phase folded in, by the separable kernel (module docstring)."""
    if not 1 <= q <= 2**31:
        raise ValueError(f"q must be in 1..2**31, got {q}")
    a = np.asarray(a_values, dtype=np.int64) % q
    betas = np.asarray(betas, dtype=float)
    terms = len(w.support)
    if terms == 0 or a.size == 0 or betas.size == 0:
        return np.zeros((a.size, betas.size), dtype=complex)
    top = max(-int(w.support.min()), int(w.support.max())) * abs(w.phase)
    reach = top * float(np.abs(betas).max())
    if reach > _PHASE_LIMIT:
        raise PrecisionLimit(f"|beta * m * phase| up to {reach:.3g} exceeds 2**53")
    r = (w.support % q) * (w.phase % q) % q
    m, bp = w.support.astype(float), betas * float(w.phase)
    # e(-x) is conj(e(x)) bit for bit, so +beta and -beta share one trig row
    mags, inverse = np.unique(np.abs(bp), return_inverse=True)
    plus = np.zeros((a.size, mags.size), dtype=complex)
    minus = np.zeros_like(plus)
    cols = max(1, _DENSE_BLOCK // max(a.size, mags.size))
    for start in range(0, terms, cols):
        block = slice(start, start + cols)
        rows = _unit(np.multiply.outer(a, r[block]) % q / q) * w.values[block]
        f = _unit(np.multiply.outer(mags, m[block])).T
        plus += rows @ f
        minus += rows @ f.conj()
    return np.where(bp < 0, minus[:, inverse], plus[:, inverse])


def _unit(x: np.ndarray) -> np.ndarray:
    """e(x) elementwise, after reducing x by x - rint(x) in place."""
    z = np.empty(x.shape, dtype=complex)
    z.real, z.imag = _cos_sin(x)
    return z


def sup_profile(
    w: Weight,
    n: int,
    Q_list: Sequence[float],
    samples_per_slice: int = 300,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Sampled sup of |W| over each height-Q slice N(Q).

    Slices get independent child streams of the seed and one ``exp_sum_many``
    call each, so splitting the Q-list across workers reproduces this output
    exactly.  The top slice is held to the sampler's budget before any slice.
    """
    if any(Q_list[i] >= Q_list[i + 1] for i in range(len(Q_list) - 1)):
        raise ValueError("Q_list must ascend")
    if samples_per_slice < 1:
        raise ValueError(f"samples_per_slice must be at least 1, got {samples_per_slice}")
    _top_denominator(n, max(Q_list, default=1))
    children = np.random.SeedSequence(seed).spawn(len(Q_list))
    profile = []
    for Q, child in zip(Q_list, children):
        rng = np.random.default_rng(child)
        alphas = sample_slice_alphas(n, Q, samples_per_slice, rng)
        sup = float(np.abs(exp_sum_many(w, alphas)).max()) if len(alphas) else 0.0
        profile.append((float(Q), sup))
    return profile


@dataclass(frozen=True)
class DecayFit:
    phi_hat: float   # decay exponent: sup ~ c * norm * Q**(-phi)
    c_hat: float
    residual: float  # RMS in log space


def fit_decay(profile: Sequence[tuple[float, float]], norm: float) -> DecayFit:
    """Least squares for log(sup/norm) = log(c) - phi * log(Q)."""
    if len(profile) < 2:
        raise ValueError("need at least two profile points")
    qs = np.array([p[0] for p in profile], dtype=float)
    sups = np.array([p[1] for p in profile], dtype=float)
    if np.any(sups <= 0):
        raise ValueError("all sups must be positive")
    if np.all(qs == qs[0]):
        raise ValueError("degenerate profile: all Q equal")
    x = np.log(qs)
    y = np.log(sups / norm)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(phi_hat=float(-slope), c_hat=float(math.exp(intercept)), residual=resid)
