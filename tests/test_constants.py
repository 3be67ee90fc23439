import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from constants_oracle import e_oracle, eta_array
from partitio import constants as C

LOG2 = math.log(2)


# ---------------------------------------------------------------------------
# solve_monotone
# ---------------------------------------------------------------------------


def test_solve_identity():
    assert C.solve_monotone(lambda x: x, 0.5, (0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_solve_theta_equation():
    # x - log x = 11/8 + log 4 on [1, 10]
    target = 11 / 8 + math.log(4)
    theta = C.solve_monotone(lambda x: x - math.log(x), target, (1.0, 10.0))
    assert abs(theta - math.log(theta) - target) < 1e-12


def test_solve_c_equation():
    c = C.solve_monotone(lambda x: 2 * x - math.log(5 * x - 1), 2.0, (1.0, 3.0))
    assert c == pytest.approx(2.134693, abs=1e-6)


def test_solve_bad_bracket():
    with pytest.raises(C.BracketError):
        C.solve_monotone(lambda x: x, 0.5, (2.0, 3.0))


@pytest.mark.parametrize("bracket", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.inf)])
def test_solve_rejects_an_empty_or_unbounded_bracket(bracket):
    calls = []

    def g(x):
        calls.append(x)
        return x

    with pytest.raises(ValueError, match="bad bracket"):
        C.solve_monotone(g, 0.5, bracket)
    assert calls == []  # rejected before g is evaluated


def test_solve_no_convergence_after_the_iteration_cap():
    # a step has no root: the bracket shrinks round x = 0.3 until the cap
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x < 0.3 else 1.0

    with pytest.raises(C.NoConvergence):
        C.solve_monotone(step, 0.0, (0.0, 1.0))
    assert len(calls) == 2 + C.ROOT_MAX_ITERATIONS == 202  # both ends, then the cap


def test_solve_decreasing_function():
    x = C.solve_monotone(lambda x: -x + 1 / x, -1.0, (0.1, 5.0))
    assert -x + 1 / x == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# eta and friends
# ---------------------------------------------------------------------------


def test_eta_reference_values():
    assert C.eta(0.5 + LOG2) == pytest.approx(0.5, abs=1e-12)
    assert C.eta(0.8 + math.log(5)) == pytest.approx(0.2, abs=1e-12)


def test_eta_at_one():
    # root of y + log y = 0, frozen from an independent bisection
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + math.log(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert C.eta(1.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)
    assert C.eta(1.0) == pytest.approx(0.567143290, abs=1e-9)


@given(st.floats(min_value=0.01, max_value=30.0))
def test_eta_residual(t):
    y = C.eta(t)
    assert 0 < y < 1
    assert abs(y + math.log(y) - (1 - t)) < 1e-12


def test_eta_strictly_decreasing():
    ts = np.linspace(0.1, 20, 300)
    ys = eta_array(ts)
    assert np.all(np.diff(ys) < 0)


def test_eta_array_oracle_matches_eta():
    ts = np.linspace(0.01, 30, 300)
    assert eta_array(ts) == pytest.approx([C.eta(t) for t in ts], abs=1e-14)


def test_eta_derivative_relation():
    # d/dt eta = -eta / (1 + eta), checked by central differences
    h = 1e-5
    for t in np.linspace(0.3, 12, 25):
        num = (C.eta(t + h) - C.eta(t - h)) / (2 * h)
        y = C.eta(t)
        assert abs(num + y / (1 + y)) < 1e-6


def test_eta_inverse_closed_form():
    assert C.eta_inverse(0.5) == pytest.approx(0.5 + LOG2, abs=1e-14)
    assert C.eta_inverse(0.2) == pytest.approx(0.8 + math.log(5), abs=1e-14)
    assert C.eta(C.eta_inverse(0.37)) == pytest.approx(0.37, abs=1e-10)
    with pytest.raises(ValueError):
        C.eta_inverse(1.5)


@given(st.floats(min_value=1e-3, max_value=2 - 1e-3))
def test_c1_is_eta_inverse_of_half(phi):
    assert C.c1(phi) == pytest.approx(C.eta_inverse(phi / 2), abs=1e-12)


def test_c1_values():
    assert C.c1(0.5) == pytest.approx(0.75 + math.log(4), abs=1e-12)
    assert C.c1(0.125) == pytest.approx(3.710089, abs=1e-6)
    assert C.c1(2.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        C.c1(0.0)


# ---------------------------------------------------------------------------
# per-k parameters
# ---------------------------------------------------------------------------


def test_k_params_reference_values():
    assert C.k_params(5).zeta_k == Fraction(6, 5)
    assert C.k_params(6).zeta_k == Fraction(4, 3)
    # phi_6 from an independent bisection of phi + log phi = log 2 - 4/3
    target = LOG2 - 4 / 3
    lo, hi = 1e-6, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid + math.log(mid) < target:
            lo = mid
        else:
            hi = mid
    assert C.k_params(6).phi_k == pytest.approx(0.5 * (lo + hi), abs=1e-10)
    assert C.k_params(6).phi_k == pytest.approx(0.3657, abs=5e-5)


def test_k_params_invariants():
    rep = C.constants_report()
    for k in range(3, 41):
        kp = C.k_params(k)
        z = float(kp.zeta_k)
        assert C.ZETA_STAR * k <= 2 * kp.r < C.ZETA_STAR * k + 2
        assert 0 < z - C.ZETA_STAR < 2 / k
        assert abs(kp.phi_k + math.log(kp.phi_k) - (LOG2 - z)) < 1e-12
        assert kp.sigma_k == pytest.approx(C.c1(kp.phi_k), abs=1e-14)
        assert abs(2 * (kp.sigma_k - z) - kp.phi_k - 2) < 1e-10
        assert kp.phi_k < rep.phi_star


# ---------------------------------------------------------------------------
# headline constants
# ---------------------------------------------------------------------------


def test_constants_report():
    rep = C.constants_report()
    for name, r in rep.residuals().items():
        assert abs(r) < 1e-10, name
    assert 0.4046 < rep.phi_star < 0.4047
    assert rep.sigma_star > 2.3954
    assert rep.c == pytest.approx(2.134693, abs=1e-6)
    assert rep.c0 == pytest.approx(2.136294, abs=1e-6)
    assert rep.c_tilde == pytest.approx(3.3532, abs=1e-4)
    assert rep.D == 4.5139506


def test_c_tilde_equals_c2_star_at_eighth():
    rep = C.constants_report()
    _, c2 = C.c2_fn(0.125, C.ZETA_STAR)
    assert abs(c2 - rep.c_tilde) < 1e-10


# ---------------------------------------------------------------------------
# c2
# ---------------------------------------------------------------------------


def test_c2_fn_table_rows():
    z, c2 = C.c2_fn(0.125, C.ZETA_STAR)
    assert z == pytest.approx(4.1952465, abs=1.1e-7)
    assert c2 == pytest.approx(3.353271, abs=1.1e-6)
    z, c2 = C.c2_fn(0.375, C.ZETA_STAR)
    assert z == pytest.approx(2.2020882, abs=1.1e-7)
    assert c2 == pytest.approx(2.481692, abs=1.1e-6)
    assert z >= 2


def test_c2_fn_out_of_range():
    with pytest.raises(C.NoRootAboveOne):
        C.c2_fn(0.9, C.ZETA_STAR)  # rhs falls below 1


def test_c2_star_table_reproduced():
    rows = C.c2_star_table()
    assert len(rows) == 10
    for row in rows:
        statuses = row.cell_status()
        assert row.acceptable, (row.phi, row.display, row.reference)
        # equation residuals certify the computed values to far better than
        # the displayed precision
        rhs = 2 - C.ZETA_STAR - float(row.phi) - math.log(float(row.phi))
        assert abs(row.z_star - math.log(row.z_star) - rhs) < 1e-11
        for got, ref, digits in zip(
            (row.rhs, row.z_star, row.c2_star, row.c1_value),
            row.reference,
            C.C2_TABLE_DIGITS,
        ):
            assert abs(got - float(ref)) < 10.0**-digits + 5e-7
    # exactly one documented erratum cell in the whole table
    all_status = [s for row in rows for s in row.cell_status()]
    assert all_status.count("erratum") == 1
    assert all_status.count("mismatch") == 0


def test_c2_k_dependence_bound():
    for k in range(5, 31):
        zk = float(C.k_params(k).zeta_k)
        for phi in (0.125, 1 / 6, 0.25):
            _, c2k = C.c2_fn(phi, zk)
            _, c2s = C.c2_fn(phi, C.ZETA_STAR)
            assert c2k < c2s + 1 / k


# ---------------------------------------------------------------------------
# E machinery
# ---------------------------------------------------------------------------


def test_e_closed_equals_one_at_kparams():
    for k in range(5, 13):
        kp = C.k_params(k)
        e = C.e_closed(kp.sigma_k, kp.phi_k, float(kp.zeta_k))
        assert abs(e.value - 1.0) < 1e-9, k


def test_e_closed_eta_branch_example():
    e = C.e_closed(4.0, 0.5, 1.2)
    assert e.branch == "eta-branch"
    assert e.tau0 is None
    assert e.value == pytest.approx(2 * C.eta(4.0) / 0.5, abs=1e-14)
    assert e.value == pytest.approx(0.1899, abs=2e-4)


def test_e_closed_domain_error():
    with pytest.raises(ValueError):
        C.e_closed(1.0, 0.5, 1.2)


def test_e_oracle_minimum_at_zero_on_eta_branch():
    # here the objective is increasing, so the grid minimum is the tau=0 value
    val = e_oracle(4.0, 0.5, 1.2, 1e-3)
    assert val == pytest.approx(2 * C.eta(4.0) / 0.5, abs=1e-9)


def test_e_oracle_refinement_never_increases():
    kp = C.k_params(7)
    z = float(kp.zeta_k)
    for sigma, phi in [(2.7, 0.2), (3.0, 0.1), (kp.sigma_k, kp.phi_k)]:
        coarse = e_oracle(sigma, phi, z, 2e-3)
        fine = e_oracle(sigma, phi, z, 1e-3)
        assert fine <= coarse + 1e-15


def test_e_closed_matches_oracle_on_region():
    kp = C.k_params(8)
    z = float(kp.zeta_k)
    for phi in np.linspace(0.06, 0.9 * kp.phi_k, 6):
        for sigma in np.linspace(kp.sigma_k, C.c1(phi), 6):
            closed = C.e_closed(sigma, phi, z)
            assert closed.branch == "F-branch"
            oracle = e_oracle(sigma, phi, z, 1e-4)
            assert abs(closed.value - oracle) < 1e-6


def test_e_derivative_signs_on_region():
    kp = C.k_params(8)
    z = float(kp.zeta_k)
    h = 1e-5
    for phi in np.linspace(0.06, 0.9 * kp.phi_k, 5):
        for sigma in np.linspace(kp.sigma_k, C.c1(phi), 5):
            dsig = C.e_closed(sigma + h, phi, z).value - C.e_closed(sigma - h, phi, z).value
            dphi = C.e_closed(sigma, phi + h, z).value - C.e_closed(sigma, phi - h, z).value
            assert dsig < 0
            assert dphi < 0


def test_f_below_one_at_c1():
    for k in (5, 8, 10):
        kp = C.k_params(k)
        for phi in (1 / 16, 1 / 8, 1 / 4):
            e = C.e_closed(C.c1(phi), phi, float(kp.zeta_k))
            assert e.value < 1


def test_c2_is_the_exact_threshold():
    kp = C.k_params(5)
    z = float(kp.zeta_k)
    for phi in (0.1, 0.2, 0.3):
        _, c2v = C.c2_fn(phi, z)
        assert c2v < C.c1(phi)
        for sigma in np.linspace(kp.sigma_k, C.c1(phi), 101):
            if abs(sigma - c2v) > 1e-9:
                assert (C.e_closed(sigma, phi, z).value < 1) == (sigma > c2v)


# ---------------------------------------------------------------------------
# admissible exponents, conditions, bounds
# ---------------------------------------------------------------------------


def test_admissible_table_values():
    assert C.admissible_exponent(3, 5) == pytest.approx(10 / 17)
    assert C.admissible_exponent(4, 7) == pytest.approx(0.849408)
    assert C.admissible_exponent(5, 9) == pytest.approx(1.181868)
    with pytest.raises(C.MissingTableEntry):
        C.admissible_exponent(5, 11)


def test_admissible_large_k():
    assert C.admissible_exponent(10, 20, "large-k") == pytest.approx(10 * C.eta(2.0), abs=1e-12)
    assert C.admissible_exponent(10, 20, "large-k") == pytest.approx(2.7846, abs=1e-4)
    with pytest.raises(ValueError):
        C.admissible_exponent(10, 3, "large-k")


def test_admissible_interpolate():
    # "interpolate" is no source: no k stores Delta at both t - 1 and t + 1
    assert C.DELTA_SOURCES == ("table", "large-k")
    for call in (lambda: C.admissible_exponent(5, 8, "interpolate"),
                 lambda: C._try_delta(5, 8, "interpolate")):
        with pytest.raises(ValueError, match="unknown delta source 'interpolate'") as exc:
            call()
        assert not isinstance(exc.value, C.MissingTableEntry)


@pytest.mark.parametrize("source", C.DELTA_SOURCES)
@pytest.mark.parametrize("t", [5.5, 5.9, 6.5])
def test_admissible_rejects_non_integer_t(source, t):
    # truncating t = 5.5 or 5.9 would return the stored Delta_5
    with pytest.raises(ValueError):
        C.admissible_exponent(3, t, source)
    assert C._try_delta(3, t, source) is None


def test_condition_check_prime_square_rows():
    rep = C.condition_check(7, 20, Fraction(1, 8), r=4, t=6)
    assert rep.delta_star == Fraction(7, 32)
    assert rep.slice_condition is True
    assert rep.height_condition is None  # Delta_20 not stored for k=7
    rep = C.condition_check(12, 38, Fraction(1, 8), r=7, t=12)
    assert rep.delta_star == Fraction(3, 8)
    assert rep.slice_condition is True


def test_condition_check_k5():
    rep = C.condition_check(5, 9, 0.5)
    assert rep.height_condition is True  # 2 * 1.181868 < 2.5
    assert rep.s_ge_3k_over_2 and rep.size_condition
    assert rep.all_passed()


def test_condition_check_unresolvable():
    with pytest.raises(C.UnresolvableDelta):
        C.condition_check(6, 11, 0.5)


def test_unknown_delta_source_is_rejected_up_front():
    # a misspelt source is a ValueError naming it, not an unresolvable Delta
    for call in (lambda: C.condition_check(7, 20, Fraction(1, 8), delta_source="tabel"),
                 lambda: C.condition_check(7, 20, Fraction(1, 8), r=4, t=6, delta_source="tabel"),
                 lambda: C.admissible_exponent(7, 26, "tabel")):
        with pytest.raises(ValueError, match="tabel") as exc:
            call()
        assert not isinstance(exc.value, C.UnresolvableDelta)


def test_exponent_table_check_rows():
    rows = C.exponent_table_check()
    assert len(rows) == 6
    for row in rows:
        assert row.half_condition
        assert row.bound_holds
        assert row.display_matches
    by_k = {r.k: r for r in rows}
    assert by_k[7].delta_star == Fraction(7, 32)
    assert by_k[8].delta_star == Fraction(3, 14)
    assert by_k[12].delta_star == Fraction(3, 8)


def test_bound_catalog():
    cat = C.bound_catalog(3)
    assert cat.s0_bound == 8
    assert cat.s0_small == 5
    cat = C.bound_catalog(10)
    assert cat.s0_tilde == 31
    assert cat.t0_small == 64
    cat = C.bound_catalog(20)
    assert cat.g_bound == 144
    assert cat.t0_bound == math.ceil((5 * 400 - 40 + 1) / 8) + math.isqrt(42)
    cat = C.bound_catalog(6, h=3)
    assert cat.s0_mobius == 11
    assert cat.mixed_power_bound == pytest.approx((2 * math.log(3) + 3.20032) * 6 + 2)
    with pytest.raises(ValueError):
        C.bound_catalog(2)


def test_round_conventions():
    assert C.round_up_str(2.4816912479, 6) == "2.481692"
    assert C.round_down_str(Fraction(7, 32), 4) == "0.2187"
    assert C.round_down_str(Fraction(3, 8), 4) == "0.3750"
    assert C.round_up_str(5.15736789271855, 7) == "5.1573679"
    # fixed point, never exponent form
    assert C.round_down_str(5e-8, 8) == "0.00000004"
    assert C.round_up_str(5e-8, 8) == "0.00000005"
    assert C.round_down_str(0.0, 8) == "0.00000000"
    # a Fraction is rounded as itself, not as the nearest float
    assert C.round_down_str(Fraction(3, 10), 4) == "0.3000"
    assert C.round_up_str(Fraction(1, 10), 4) == "0.1000"


@given(st.fractions(max_denominator=10**9).filter(lambda f: abs(f) < 10**9), st.integers(0, 12))
def test_round_conventions_are_exact_on_fractions(x, digits):
    # a Fraction is rounded as itself, not as the nearest float: 3/10 rounds
    # down to 0.3000, where the float 0.3 rounds down to 0.2999
    step = Fraction(1, 10**digits)
    down, up = C.round_down_str(x, digits), C.round_up_str(x, digits)
    for text in (down, up):
        assert "E" not in text and len(text.partition(".")[2]) == digits
    assert Fraction(down) <= x < Fraction(down) + step
    assert Fraction(up) - step < x <= Fraction(up)
