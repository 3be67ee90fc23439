"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three assertions are expected to fail and are left failing on purpose; each
carries an analysis comment.  They assert claims that are provably false at
the stated parameters (verified here against brute-force oracles and
high-precision arithmetic), and weakening them to force green would hide
that: criterion 7b (truncated singular series nonnegativity for k=4, s=7),
criterion 7c (per-m monotone dyadic block magnitudes) and criterion 8c (a
two-term asymptotic comparison whose dropped lower-order term is positive).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from constants_oracle import e_oracle
from partitio import constants as C
from partitio.arith import smooth_bound
from partitio.counting import (
    major_arc_moment,
    moment_exact,
    quadrature_moment,
    representation_counts,
    zero_set,
)
from partitio.expsums import fit_decay, sup_profile
from partitio.singular import _GaussSumCache, local_solubility, singular_series_blocks
from partitio.weights import make_weight


def _report(num: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {tag}  {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. pruning-constant table
# ---------------------------------------------------------------------------


def test_criterion_01_constants_table():
    start = time.perf_counter()
    rows = C.c2_star_table()
    ok = len(rows) == 10
    worst = 0.0
    for row in rows:
        # digit-for-digit reproduction under the printed rounding convention;
        # the single documented erratum cell (z* at phi = 1/16, printed one
        # final-digit ulp above the ceil of the true root) is tolerated at
        # exactly that one ulp
        ok &= row.acceptable
        values = (row.rhs, row.z_star, row.c2_star, row.c1_value)
        for got, ref, digits in zip(values, row.reference, C.C2_TABLE_DIGITS):
            gap = abs(got - float(ref))
            worst = max(worst, gap - 10.0**-digits)
            ok &= gap <= 10.0**-digits + 5e-7
        # the computed values themselves are pinned by equation residuals
        rhs = 2 - C.ZETA_STAR - float(row.phi) - math.log(float(row.phi))
        ok &= abs(row.z_star - math.log(row.z_star) - rhs) < 5e-7
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert _report("1 (constants table)", ok, f"elapsed={elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. headline constants
# ---------------------------------------------------------------------------


def test_criterion_02_headline_constants():
    start = time.perf_counter()
    rep = C.constants_report()
    ok = abs(rep.c0 - 2.136294) <= 1e-6
    ok &= abs(rep.c - 2.134693) <= 1e-6
    ok &= abs(2 * rep.c - (2 + math.log(5 * rep.c - 1))) < 1e-10
    ok &= abs(rep.c_tilde - 3.3532) <= 1e-4
    ok &= abs(rep.theta - math.log(rep.theta) - (11 / 8 + math.log(4))) < 1e-10
    ok &= 0.4046 < rep.phi_star < 0.4047
    ok &= rep.sigma_star > 2.3954
    ok &= abs(2 * rep.sigma_star - (rep.phi_star + 3 + 2 * math.log(2))) < 1e-12
    _, c2_eighth = C.c2_fn(0.125, C.ZETA_STAR)
    ok &= abs(c2_eighth - rep.c_tilde) < 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert _report("2 (headline constants)", ok, f"elapsed={elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 3. stored exponent rows, exact rational arithmetic
# ---------------------------------------------------------------------------


def test_criterion_03_exponent_table():
    start = time.perf_counter()
    rows = C.exponent_table_check()
    ok = len(rows) == 6
    for row in rows:
        star = Fraction(row.k, 16) * (1 - Fraction(row.t, row.s - 2 * row.r))
        ok &= row.delta_star == star                      # exact rational
        ok &= row.display_matches                         # round-down match
        ok &= row.delta_s_plus_t <= star                  # bound holds exactly
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert _report("3 (exponent data rows)", ok, f"elapsed={elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 4. exact enumeration
# ---------------------------------------------------------------------------


def test_criterion_04_exact_enumeration():
    start = time.perf_counter()
    ok = zero_set(4, 6, 200) == [47, 62, 63, 77, 78, 79, 143, 158, 159]
    table = representation_counts(4, 6, 16 * 2000)
    ok &= table[15] == 1
    ok &= table[16 * 47] == 0
    ok &= all(table[16 * n] == table[n] for n in range(1, 2001))
    big = representation_counts(4, 6, 15 * 16**3)
    ok &= all(big[15 * 16**l] == 1 for l in range(4))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    assert _report("4 (exact enumeration)", ok, f"elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. oracle equivalence of the moments
# ---------------------------------------------------------------------------


def test_criterion_05_moment_oracles():
    start = time.perf_counter()

    def brute(P):
        return sum(
            1
            for x in itertools.product(range(1, P + 1), repeat=4)
            if x[0] ** 3 + x[1] ** 3 == x[2] ** 3 + x[3] ** 3
        )

    ok = moment_exact(3, 2, 10, 10) == brute(10) == 190
    ok &= moment_exact(3, 2, 12, 12) == brute(12)
    for t, P in ((2, 30), (4, 30)):
        k = 3
        w = make_weight("smooth_kth_powers", P**k, k=k, P=P, R=P)
        exact = moment_exact(k, t // 2, P, P)
        res = quadrature_moment(w, t, grid_points=(t // 2) * P**k + 17)
        ok &= abs(res.value - exact) / exact <= 1e-3
        ok &= res.rel_change is not None and res.rel_change < 5e-3
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    assert _report("5 (moment oracles)", ok, f"elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. E machinery
# ---------------------------------------------------------------------------


def test_criterion_06_e_machinery():
    start = time.perf_counter()
    ok = True
    for k in range(5, 13):
        kp = C.k_params(k)
        ok &= abs(C.e_closed(kp.sigma_k, kp.phi_k, float(kp.zeta_k)).value - 1.0) <= 1e-9
    # 20 x 20 grid inside the strict-monotonicity region, at k = 8 (whose
    # phi_k = 0.3885 admits all four phi values below)
    kp = C.k_params(8)
    zeta = float(kp.zeta_k)
    h = 1e-5
    for phi in np.linspace(0.05, 0.95 * kp.phi_k, 20):
        for sigma in np.linspace(kp.sigma_k, C.c1(phi), 20):
            closed = C.e_closed(sigma, phi, zeta).value
            ok &= abs(closed - e_oracle(sigma, phi, zeta, 1e-4)) <= 1e-6
            dsig = C.e_closed(sigma + h, phi, zeta).value - C.e_closed(sigma - h, phi, zeta).value
            dphi = C.e_closed(sigma, phi + h, zeta).value - C.e_closed(sigma, phi - h, zeta).value
            ok &= dsig < 0 and dphi < 0
    for phi in (1 / 16, 1 / 8, 1 / 4, 3 / 8):
        ok &= C.e_closed(C.c1(phi), phi, zeta).value < 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _report("6 (E machinery)", ok, f"elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. singular series
# ---------------------------------------------------------------------------

_SERIES_CUTS = [64, 128, 256, 512, 1000]


def _series_sample(k, s, count=100):
    rng = np.random.default_rng(20240817)
    cache = _GaussSumCache(k, s)
    out = []
    for m in rng.integers(1, 10**4, size=count):
        out.append((int(m), singular_series_blocks(int(m), s, k, _SERIES_CUTS, cache=cache)))
    return out


def test_criterion_07a_series_nonnegative_cubes():
    start = time.perf_counter()
    sample = _series_sample(3, 5)
    worst = min(blocks[-1].partial for _, blocks in sample)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-6 and elapsed < 300.0
    assert _report("7a (series >= -1e-6, k=3 s=5)", ok, f"min={worst:.3g} elapsed={elapsed:.1f}s")


def test_criterion_07b_series_nonnegative_biquadrates():
    # EXPECTED FAIL.  The full series is nonnegative (it is 0 on the residue
    # classes m = 8..15 mod 16, which seven fourth powers cannot reach), but
    # the truncation at height 1000 oscillates around that limit with
    # amplitude ~0.2: the mod-16 coefficient alone contributes a term of
    # size 2.19 (verified against a direct double-loop evaluation), and the
    # partial sum at m = 7611 is -0.21.  No implementation of the stated
    # formula can make the truncated value clear -1e-6 for all m.
    start = time.perf_counter()
    sample = _series_sample(4, 7)
    worst = min(blocks[-1].partial for _, blocks in sample)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-6 and elapsed < 300.0
    assert _report("7b (series >= -1e-6, k=4 s=7)", ok, f"min={worst:.3g} elapsed={elapsed:.1f}s")


def test_criterion_07c_dyadic_blocks_nonincreasing():
    # EXPECTED FAIL.  Individual dyadic blocks are oscillating sums over
    # q-ranges; their magnitudes fluctuate per m (e.g. k=3, s=5, m=5 gives
    # |blocks| = 1.3e-1, 1.3e-1, 3.6e-2, 1.8e-2, 2.3e-2 - the last step
    # rises).  Only the envelope (e.g. the geometric mean over m, tested in
    # the module suite) decays; the per-m claim is false for most m.
    start = time.perf_counter()
    bad = 0
    total = 0
    for k, s in ((3, 5), (4, 7)):
        for _, blocks in _series_sample(k, s):
            mags = [abs(b.last_block) for b in blocks]
            total += 1
            if any(mags[i + 1] > mags[i] for i in range(len(mags) - 1)):
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 300.0
    assert _report(
        "7c (blocks nonincreasing)", ok, f"violations={bad}/{total} elapsed={elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 8. asymptotic-regime properties
# ---------------------------------------------------------------------------


def test_criterion_08a_squares_decay_exponent():
    start = time.perf_counter()
    n = 10**6
    w = make_weight("squares", n)
    Q_list = sorted(2 * math.sqrt(n) / 2**j for j in range(7))
    prof = sup_profile(w, n, Q_list, samples_per_slice=250, seed=1)
    fit = fit_decay(prof, w.norm)
    ok = 0.4 <= fit.phi_hat <= 0.6
    elapsed = time.perf_counter() - start
    assert _report("8a (squares decay)", ok, f"phi_hat={fit.phi_hat:.3f} elapsed={elapsed:.1f}s")


def test_criterion_08b_major_arc_moment_slope():
    start = time.perf_counter()
    k, P, t = 3, 500, 8
    R = smooth_bound(P, 0.5)
    n = P**k
    w = make_weight("smooth_kth_powers", n, k=k, P=P, R=R)
    Qs = [math.sqrt(P) * 2**j for j in range(9)]  # dyadic in [P**0.5, P**1.5]
    vals = [
        major_arc_moment(w, t, Q, n, exact_q=32, band_q_samples=20, band_a_samples=8, seed=7)
        for Q in Qs
    ]
    slope = float(np.polyfit(np.log(Qs), np.log(vals), 1)[0])
    bound = 2 * (3 * C.eta(8 / 3)) / 3 + 0.5
    ok = slope <= bound
    elapsed = time.perf_counter() - start
    assert _report(
        "8b (height-moment slope)", ok,
        f"slope={slope:.3f} <= {bound:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_08c_small_phi_two_term_comparison():
    # EXPECTED FAIL.  The comparison asks for
    #   c2*(1/kappa) < (log kappa + log log kappa)/2 + 1 + zeta*/2
    # at kappa = 1e8.  Writing z* for the root of z - log z = 2 - zeta*
    # - 1/kappa + log kappa, one has exactly
    #   c2*(1/kappa) - RHS = (z* - log kappa - log log kappa - 2 + zeta*)/2,
    # and z* always exceeds log kappa + log log kappa + 2 - zeta* (because
    # log z* > log log kappa), so the difference is positive for every
    # kappa: +0.0963 at 1e8, +0.23 at 128 (checked against the printed
    # reference table).  The inequality only holds with its lower-order
    # term ~ log log kappa / (2 log kappa) on the right-hand side.
    start = time.perf_counter()
    kappa = 1e8
    _, c2s = C.c2_fn(1 / kappa, C.ZETA_STAR)
    rhs = 0.5 * (math.log(kappa) + math.log(math.log(kappa))) + 1 + 0.5 * C.ZETA_STAR
    diff = c2s - rhs
    elapsed = time.perf_counter() - start
    ok = diff < 0
    assert _report("8c (two-term comparison)", ok, f"diff={diff:+.4f} elapsed={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. congruence structure
# ---------------------------------------------------------------------------


def test_criterion_09_congruence_structure():
    start = time.perf_counter()
    ok = {(x * x) % 16 for x in range(1, 1001)} == {0, 1, 4, 9}
    ok &= {(y**4) % 16 for y in range(1, 1001)} == {0, 1}
    for n in range(16):
        ok &= local_solubility(4, 7, n).witness is not None
    for n in range(32):
        ok &= local_solubility(8, 24, n).witness is not None
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert _report("9 (congruence structure)", ok, f"elapsed={elapsed:.3f}s")
