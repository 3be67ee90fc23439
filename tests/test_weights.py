import dataclasses
import math

import numpy as np
import pytest

from partitio import arith, weights
from partitio.arith import (
    DEFAULT_MAX_LIMIT, CapacityLimit, PrecisionLimit, iroot, sieve_tables, smooth_set,
)
from partitio.expsums import exp_sum
from partitio.weights import KINDS, Weight, make_weight, phi_exponent, weight_stats


def test_squares_weight():
    w = make_weight("squares", 100)
    assert list(w.support) == [x * x for x in range(1, 11)]
    assert w.norm == 10
    assert w.value(49) == 1.0 and w.value(50) == 0.0


def test_primes_log_norm():
    w = make_weight("primes_log", 10)
    assert w.norm == pytest.approx(sum(math.log(p) for p in (2, 3, 5, 7)), abs=1e-12)
    assert w.norm == pytest.approx(5.3471, abs=1e-4)


def test_prime_squares():
    w = make_weight("prime_squares", 100)
    assert list(w.support) == [4, 9, 25, 49]


def test_mobius_weight():
    w = make_weight("mobius", 30)
    assert w.value(1) == 1 and w.value(4) == 0.0 and w.value(6) == 1 and w.value(30) == -1
    assert w.norm == sum(1 for m in range(1, 31) if w.value(m) != 0)


def test_hth_powers():
    w = make_weight("hth_powers", 1000, h=3)
    assert list(w.support) == [x**3 for x in range(1, 11)]


def test_smooth_kth_powers_matches_weyl_sum():
    sm = smooth_set(20, 5)
    w = make_weight("smooth_kth_powers", 20**3, k=3, P=20, R=5)
    assert w.norm == len(sm)
    for alpha in (0.0, 0.1234, 0.875, 1 / 3):
        direct = sum(np.exp(2j * np.pi * alpha * int(x) ** 3) for x in sm.members)
        assert exp_sum(w, alpha) == pytest.approx(direct, rel=1e-9)


def test_e2_empty_below_seven_sixth():
    w = make_weight("e2", 10**5)
    assert len(w.support) == 0 and w.norm == 0.0


def test_e2_small_nonempty():
    n = 7**6
    w = make_weight("e2", n)
    # p1 = 7 only; p2 in primes = 1 mod 3 up to 49
    p2s = [7, 13, 19, 31, 37, 43]
    assert w.norm == len(p2s)
    assert set(int(m) for m in w.support) == {(7 * p) ** 2 for p in p2s}
    assert w.phase == 1
    w2 = make_weight("e2", n, j=2)
    assert w2.phase == 2


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 10, 7**6, 10**6 + 3])
def test_prime_weights_from_primes_only_sieve(n):
    # the primes-only kinds against the primes of the full sieve tables
    primes = [p for p in sieve_tables(max(n, 2)).primes.tolist() if p <= n]
    w = make_weight("primes_log", n)
    assert w.support.dtype == np.int64 and w.support.tolist() == primes
    assert np.array_equal(w.values, np.log(np.array(primes, dtype=float)))
    w = make_weight("prime_squares", n)
    assert w.support.dtype == np.int64
    assert w.support.tolist() == [p * p for p in primes if p * p <= n]
    m1, m2 = iroot(n, 6), iroot(n, 3)
    p2 = [p for p in primes if p <= m2 and p % 3 == 1]
    prods = sorted({(a * b) ** 2 for a in p2 if a <= m1 for b in p2})
    assert make_weight("e2", n).support.tolist() == prods


#: the parameters each kind needs beyond n
_KIND_ARGS = {"hth_powers": {"h": 3}, "smooth_kth_powers": {"k": 3, "P": 10, "R": 5}}


def test_primes_only_kinds_keep_the_sieve_budget():
    for kind in ("primes_log", "prime_squares"):
        with pytest.raises(CapacityLimit):
            make_weight(kind, {"primes_log": 10**8, "prime_squares": 10**16}[kind])
    # e2 sieves to n**(1/3), past the budget only beyond int64, where n is refused first
    with pytest.raises(PrecisionLimit):
        make_weight("e2", 10**24)


def test_power_kinds_keep_the_sieve_budget():
    # one support entry past the budget is refused; at h >= 3 that n is past
    # int64, where n is refused first
    with pytest.raises(CapacityLimit):
        make_weight("squares", (DEFAULT_MAX_LIMIT + 1) ** 2)
    with pytest.raises(CapacityLimit):
        make_weight("hth_powers", (DEFAULT_MAX_LIMIT + 1) ** 2, h=2)
    with pytest.raises(PrecisionLimit):
        make_weight("hth_powers", (DEFAULT_MAX_LIMIT + 1) ** 3, h=3)


def test_every_kind_refuses_n_past_int64(monkeypatch):
    # a support entry past 2**63 would wrap in int64; the top of the range works
    top = make_weight("hth_powers", 2**63 - 1, h=3).support
    assert top[-1] == iroot(2**63 - 1, 3) ** 3 and (top > 0).all()
    # refused before anything is built: without numpy any allocation would
    # raise another error
    monkeypatch.setattr(weights, "np", None)
    monkeypatch.setattr(arith, "np", None)
    for kind in KINDS:
        for n in (2**63, 10**20):
            with pytest.raises(PrecisionLimit):
                make_weight(kind, n, **_KIND_ARGS.get(kind, {}))


def test_weight_values_are_real():
    with pytest.raises(ValueError, match="real"):
        Weight(n=10, support=np.array([1, 4]), values=np.array([1.0, 1j]))


def test_phase_multiplier_is_read_only_by_e2():
    for kind in KINDS:
        if kind != "e2":
            assert make_weight(kind, 1000, j=1, **_KIND_ARGS.get(kind, {})).phase == 1
            with pytest.raises(ValueError, match="read only by e2"):
                make_weight(kind, 1000, j=5, **_KIND_ARGS.get(kind, {}))
    for j in (0, 3):
        with pytest.raises(ValueError, match="1 or 2"):
            make_weight("e2", 7**6, j=j)


_FOREIGN = [(kind, name) for kind in KINDS for name in ("h", "k", "P", "R", "j")
            if name not in _KIND_ARGS.get(kind, {}) and (kind, name) != ("e2", "j")]


@pytest.mark.parametrize("kind, name", _FOREIGN)
def test_parameters_the_kind_does_not_read_are_refused(kind, name):
    # None is unset for every parameter, and so is j = 1
    args = _KIND_ARGS.get(kind, {})
    assert make_weight(kind, 1000, **{name: None if name != "j" else 1}, **args).n == 1000
    with pytest.raises(ValueError, match=f"parameter {name} is read only by"):
        make_weight(kind, 1000, **{name: 2}, **args)


def test_weight_norm_is_derived_from_its_values():
    values = np.array([2.0, -3.5, 0.25])
    w = Weight(n=10, support=np.array([1, 4, 9]), values=values, phase=2)
    assert w.norm == float(np.abs(values).sum()) == 5.75
    assert [f.name for f in dataclasses.fields(Weight) if f.init] == [
        "n", "support", "values", "phase"]
    with pytest.raises(TypeError):
        Weight(n=10, support=np.array([1]), values=np.ones(1), norm=1.0)


def test_weight_stats_squares():
    st = weight_stats(make_weight("squares", 100))
    assert st.half_mass_ratio == pytest.approx(0.7)
    assert st.is_regular


def test_weight_stats_all_ones_limit():
    # dense weight: ratio tends to 1/2
    support = np.arange(1, 10001, dtype=np.int64)
    w = Weight(n=10000, support=support, values=np.ones(10000))
    st = weight_stats(w)
    assert st.half_mass_ratio == pytest.approx(0.5, abs=1e-3)


def test_weight_stats_empty_and_negative():
    st = weight_stats(make_weight("e2", 100))
    assert st.half_mass_ratio == 0.0 and not st.is_regular
    with pytest.raises(ValueError):
        weight_stats(make_weight("mobius", 50))


def test_norm_is_w_at_zero_for_nonnegative():
    for kind in ("squares", "prime_squares", "primes_log"):
        w = make_weight(kind, 500)
        assert exp_sum(w, 0.0) == pytest.approx(w.norm, rel=1e-12)


def test_sup_bounded_by_norm(rng):
    w = make_weight("squares", 2000)
    for alpha in rng.random(25):
        assert abs(exp_sum(w, float(alpha))) <= w.norm * (1 + 1e-9)


def test_conjugate_symmetry(rng):
    for kind in ("squares", "mobius"):
        w = make_weight(kind, 700)
        for alpha in rng.random(10):
            a = exp_sum(w, float(alpha))
            b = exp_sum(w, 1.0 - float(alpha))
            assert b == pytest.approx(np.conj(a), abs=1e-9 * max(1.0, w.norm))


def test_phi_exponent_data():
    assert phi_exponent("squares") == 0.5
    assert phi_exponent("hth_powers", 5) == pytest.approx(2.0**-3 / 5)
    assert phi_exponent("hth_powers", 6) == pytest.approx(1 / 72)
    assert phi_exponent("hth_powers", 8) == pytest.approx(2 / (64 * 7))
    assert phi_exponent("prime_squares") == 0.125
    assert phi_exponent("mobius") == 0.4
    assert phi_exponent("e2") == pytest.approx(1 / 6)


def test_bad_kind_and_params():
    with pytest.raises(ValueError):
        make_weight("nope", 10)
    with pytest.raises(ValueError):
        make_weight("hth_powers", 10, h=1)
    with pytest.raises(ValueError):
        make_weight("smooth_kth_powers", 10, k=3)
