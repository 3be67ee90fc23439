import cmath
import math
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from partitio import arith, singular
from partitio.singular import (
    _GaussSumCache,
    a_coeff,
    local_solubility,
    singular_integral,
    singular_series,
    singular_series_blocks,
)

import gauss_oracle
import sieve_oracle


def _gauss_brute(q, a, k):
    return sum(cmath.exp(2j * math.pi * a * pow(x, k, q) / q) for x in range(1, q + 1))


def _a_brute(m, q, s, k):
    """(value, mass): the reduced-residue sum and its L1 mass sum |S|^s.

    The mass is the conditioning scale: both evaluation routes cancel an
    alternating sum of terms that large, so agreement can only be expected
    to ~1e-12 of it."""
    total = 0
    mass = 0.0
    for a in range(1, q + 1):
        if gcd(a, q) == 1:
            S = _gauss_brute(q, a, k)
            total += S**s * cmath.exp(-2j * math.pi * a * m / q)
            mass += abs(S) ** s
    return total, mass


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def _gauss_sum(q, a, k):
    return singular._gauss_sums_all(q, k)[a % q]


def test_gauss_trivial_modulus():
    for k in (2, 3, 4, 7):
        assert _gauss_sum(1, 1, k) == pytest.approx(1.0)


def test_gauss_two_and_nine():
    assert _gauss_sum(2, 1, 3) == pytest.approx(0.0, abs=1e-12)
    assert _gauss_sum(9, 1, 3) == pytest.approx(3 * (1 + 2 * math.cos(2 * math.pi / 9)), abs=1e-9)


def test_gauss_matches_brute():
    # every modulus q <= 120 and exponent 1..7, at a = 1, q - 1 and the
    # first unit above q/2: covers q = 1, k = 1 and the int64 residue counts
    for q in range(1, 121):
        above_half = next((a for a in range(q // 2 + 1, q) if gcd(a, q) == 1), 1)
        for k in range(1, 8):
            for a in {1, q - 1, above_half}:
                assert _gauss_sum(q, a, k) == pytest.approx(_gauss_brute(q, a, k), abs=1e-9 * q)


def test_gauss_bound_and_conjugate(rng):
    for _ in range(25):
        q = int(rng.integers(2, 80))
        k = int(rng.integers(2, 6))
        a = int(rng.integers(1, q))
        if gcd(a, q) != 1:
            continue
        s1 = _gauss_sum(q, a, k)
        assert abs(s1) <= q + 1e-9
        s2 = _gauss_sum(q, q - a, k)
        assert s2 == pytest.approx(np.conj(s1), abs=1e-9 * q)


def test_gauss_rejects_common_factor():
    with pytest.raises(ValueError):
        gauss_oracle.gauss_sum(6, 2, 3)


# ---------------------------------------------------------------------------
# A_m(q)
# ---------------------------------------------------------------------------


def test_a_coeff_trivial():
    for m, s, k in [(0, 4, 3), (17, 6, 4), (123, 5, 5)]:
        assert a_coeff(m, 1, s, k) == pytest.approx(1.0)


def test_a_coeff_zero_from_vanishing_gauss_sum():
    assert a_coeff(0, 2, 4, 3) == pytest.approx(0.0, abs=1e-12)


def test_a_coeff_matches_brute(rng):
    for _ in range(20):
        m = int(rng.integers(0, 400))
        q = int(rng.integers(1, 40))
        s = int(rng.integers(4, 8))
        k = int(rng.integers(3, 6))
        ref, mass = _a_brute(m, q, s, k)
        assert a_coeff(m, q, s, k) == pytest.approx(ref.real, abs=1e-10 * mass + 1e-9)


def test_a_coeff_imaginary_guard(monkeypatch):
    # S e(0.05) breaks the conjugate pairing, so the table is far from real.
    # q = 7 at k = 3 takes the FFT: 7 = 1 mod 3, so 7 is no vanishing prime
    gauss = singular._gauss_sums_all
    monkeypatch.setattr(singular, "_gauss_sums_all",
                        lambda q, k: gauss(q, k) * cmath.exp(0.1j * math.pi))
    with pytest.raises(ArithmeticError):
        _GaussSumCache(3, 5).table(7)


def test_gauss_table_matches_brute():
    for k, s in ((3, 5), (4, 7), (5, 4)):
        cache = _GaussSumCache(k, s)
        for q in range(1, 41):
            table = cache.table(q)
            assert table.dtype == np.float64 and len(table) == q
            for m in range(q):
                ref, mass = _a_brute(m, q, s, k)
                assert table[m] == pytest.approx(ref.real, abs=1e-12 * mass + 1e-12)


def _as_prime_power(q):
    """(p, j) with q = p^j, j >= 1; None for q = 1 and q with two prime factors."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    j = 0
    while q % p == 0:
        q, j = q // p, j + 1
    return (p, j) if q == 1 else None


_PRIME_POWERS = [q for q in range(2, 2001) if _as_prime_power(q)]


@given(k=st.integers(1, 8), s=st.integers(4, 13),
       q=st.one_of(st.sampled_from(_PRIME_POWERS), st.integers(1, 2000)))
@example(k=3, s=5, q=2)        # vanishing prime
@example(k=5, s=9, q=11)       # p = 1 mod k: the FFT
@example(k=5, s=9, q=5)        # p = k, vanishing: x^5 = x mod 5
@example(k=7, s=13, q=7)       # p = k, vanishing: the FFT leaves noise there
@example(k=6, s=5, q=3)        # p | k, gcd(k, p - 1) = 2: the FFT
@example(k=4, s=7, q=9)        # Ramanujan prime power
@example(k=3, s=13, q=1331)    # Ramanujan values past 2**53
@example(k=3, s=5, q=16)       # j > k: the FFT
@example(k=1, s=4, q=1999)     # k = 1: every prime vanishes
@example(k=3, s=5, q=1)
@example(k=3, s=5, q=1980)     # composite
def test_structured_tables_match_the_fft_oracle(k, s, q):
    table = _GaussSumCache(k, s).table(q)
    oracle = gauss_oracle.fft_table(q, k, s)
    assert table.dtype == np.float64 and table.shape == (q,)
    tol = 1e-12 * max(1.0, float(q) ** s)
    p, j = _as_prime_power(q) or (q, 0)
    if j == 1 and gcd(k, p - 1) == 1:
        assert table.tobytes() == np.zeros(q).tobytes()
        assert np.abs(oracle).max() <= tol
    elif 2 <= j <= k and k % p:
        c = [q - q // p if m == 0 else -(q // p) if m % (q // p) == 0 else 0 for m in range(q)]
        exact = [p ** ((j - 1) * s) * c_m for c_m in c]
        assert np.abs(table - oracle).max() <= tol
        assert all(table[m] == v for m, v in enumerate(exact) if abs(v) < 2**53)
    else:
        assert table.tobytes() == oracle.tobytes()


def test_a_coeff_multiplicative_crt(rng):
    # the CRT identity behind the series' product path, checked on the
    # direct one-table a_coeff
    for _ in range(20):
        m = int(rng.integers(0, 1000))
        s = int(rng.integers(4, 8))
        k = int(rng.integers(3, 6))
        lhs = a_coeff(m, 6, s, k)
        rhs = a_coeff(m, 2, s, k) * a_coeff(m, 3, s, k)
        assert lhs == pytest.approx(rhs, abs=1e-6 * max(1.0, abs(lhs), abs(rhs)))


# ---------------------------------------------------------------------------
# A_m(q) for all q <= Q: prime-power tables and products
# ---------------------------------------------------------------------------

_SERIES_CACHES: dict = {}
_DIRECT_CACHES: dict = {}


def _divisors(q):
    return [d for d in range(1, q + 1) if q % d == 0]


@given(
    k=st.integers(2, 6),
    s=st.integers(4, 9),
    q=st.one_of(
        # q = 1, 2; prime powers 2^10, 3^6, 7^3; products of three or more
        # prime powers (1980 = 4 * 9 * 5 * 11)
        st.sampled_from([1, 2, 1024, 729, 343, 210, 840, 1001, 1980, 1536, 2000]),
        st.integers(1, 2000),
    ),
    m=st.one_of(st.integers(-10**6, 10**6), st.sampled_from([0, -1, 1, 2048, 10**12])),
)
def test_series_coeffs_match_direct_tables(k, s, q, m):
    # the product path against the direct length-d table at every divisor d
    # of q (so q's factors and the entries its products read), to a tolerance
    # scaled by the table's magnitude
    series = _SERIES_CACHES.setdefault((k, s), _GaussSumCache(k, s)).series_coeffs(m, q)
    assert series.shape == (q + 1,) and series[0] == 0
    direct = _DIRECT_CACHES.setdefault((k, s), _GaussSumCache(k, s))
    for d in _divisors(q):
        table = direct.table(d)
        assert abs(series[d] - table[m % d]) <= 1e-11 * max(1.0, np.abs(table).max()), d


@given(st.integers(1, 12), st.integers(1, 40), st.integers(-1, 1), st.integers(0, 100))
def test_blocked_series_coeffs_match_the_unblocked_oracle(block_cells, blocks, d, m):
    # blocks of a few intp cofactors, Q + 1 on or beside a multiple of one
    Q = max(1, block_cells * blocks + d - 1)
    cache = _SERIES_CACHES.setdefault((3, 5), _GaussSumCache(3, 5))
    with mock.patch.object(arith, "_BLOCK_BYTES", block_cells * np.dtype(np.intp).itemsize):
        got = cache.series_coeffs(m, Q)
    assert got.tolist() == sieve_oracle.series_coeffs(cache, m, Q).tolist()


def test_series_coeffs_only_build_prime_power_tables():
    cache = _GaussSumCache(3, 5)
    cache.series_coeffs(5, 200)
    assert sorted(cache._tables) == [1] + [q for q in _PRIME_POWERS if q <= 200]


def test_series_rejects_cache_for_other_k_s():
    # a (3, 5) cache used for k = 4, s = 7 would give 0.98726 instead of 3.57101
    with pytest.raises(ValueError):
        singular_series(5, 7, 4, 100, cache=_GaussSumCache(3, 5))
    with pytest.raises(ValueError):
        singular_series_blocks(5, 7, 4, [10], cache=_GaussSumCache(4, 6))
    assert singular_series(5, 7, 4, 100).partial == pytest.approx(3.57101, abs=1e-5)


# ---------------------------------------------------------------------------
# singular series
# ---------------------------------------------------------------------------


def test_series_q1():
    res = singular_series(10, 5, 3, 1)
    assert res.partial == pytest.approx(1.0)


def test_series_slow_convergence_profile():
    # frozen from direct computation: the cubic five-power series at m = 5
    # drifts at the 1e-2 scale between cutoffs 100 and 1000 (tail ~ Q**-1/2),
    # and the drift shrinks with the cutoff
    cache = _GaussSumCache(3, 5)
    p10, p100, p1000, p5000 = [
        singular_series(5, 5, 3, Q, cache=cache).partial for Q in (10, 100, 1000, 5000)
    ]
    assert p1000 == pytest.approx(0.196189, abs=1e-5)
    assert abs(p1000 - p100) < 0.05
    assert abs(p5000 - p1000) < abs(p1000 - p100)


def test_series_nonnegative_for_cubes(rng):
    cache = _GaussSumCache(3, 5)
    for m in rng.integers(1, 10**4, size=40):
        res = singular_series(int(m), 5, 3, 400, cache=cache)
        assert res.partial >= -1e-6


def test_series_block_envelope_decays():
    # per-cutoff block magnitudes fluctuate, but the sample geometric mean
    # over m decays along the dyadic cutoffs
    cache = _GaussSumCache(3, 5)
    rng = np.random.default_rng(8)
    cuts = [64, 256, 1024]
    logs = np.zeros(len(cuts))
    ms = rng.integers(1, 5000, size=25)
    for m in ms:
        blocks = singular_series_blocks(int(m), 5, 3, cuts, cache=cache)
        logs += np.log([max(abs(b.last_block), 1e-12) for b in blocks])
    means = np.exp(logs / len(ms))
    assert means[0] > means[1] > means[2]


def test_series_insoluble_class_oscillates_to_zero():
    # m = 11 mod 16 has no representation by seven fourth powers, so the
    # full series is 0; the truncated value must shrink along cutoffs
    cache = _GaussSumCache(4, 7)
    m = 7611
    p_small = singular_series(m, 7, 4, 256, cache=cache).partial
    p_big = singular_series(m, 7, 4, 4096, cache=cache).partial
    assert abs(p_big) < max(abs(p_small), 0.05)
    assert abs(p_big) < 0.05


def test_series_blocks_equal_one_cutoff_loops():
    # one pass over q <= max(cuts) against the per-cutoff loop, bit for bit,
    # with unsorted and repeated cutoffs (math.fsum differs at 13, 29 and 42).
    # The loop over the direct a_coeff cannot match bit for bit: at q = 28 and
    # 36 the direct tables leave 1e-11 and 5e-10 where the products give 0.
    # It agrees to rounding, scaled by the sum of |terms| as in direct_series.
    m, s, k = 5, 5, 3
    cuts = [42, 1, 29, 42, 2, 13]
    blocks = singular_series_blocks(m, s, k, cuts)
    A = _GaussSumCache(k, s).series_coeffs(m, max(cuts)).tolist()
    assert [b.Q_cut for b in blocks] == cuts
    for Q, b in zip(cuts, blocks):
        partial = 0.0
        last_block = 0.0
        direct = scale = 0.0
        for q in range(1, Q + 1):
            term = A[q] / q**s
            partial += term
            if q > Q / 2:
                last_block += term
            direct += a_coeff(m, q, s, k) / q**s
            scale += abs(term)
        assert (b.partial, b.last_block) == (partial, last_block)
        assert b == singular_series(m, s, k, Q)
        assert abs(b.partial - direct) <= 1e-14 * scale


@pytest.mark.parametrize("s", range(4, 13))
def test_series_terms_are_the_python_quotients(s):
    # the float64 powers give each term the bits of A_m(q) / q**s with the
    # Python-int power, for the largest cutoff first and smaller ones after
    cache = _GaussSumCache(3, s)
    for Q in (2000, 1, 37, 1999):
        A = cache.series_coeffs(7, Q).tolist()
        want = np.array([A[q] / q**s for q in range(1, Q + 1)])
        assert cache.series_terms(7, Q).tobytes() == want.tobytes()


def test_series_requires_s_at_least_four():
    with pytest.raises(ValueError):
        singular_series(5, 3, 3, 10)


# ---------------------------------------------------------------------------
# singular integral
# ---------------------------------------------------------------------------


def test_integral_base_cases():
    exact, _ = singular_integral(2, 2, 3)
    assert exact == pytest.approx(1.0)
    exact, _ = singular_integral(1, 2, 3)
    assert exact == 0.0  # m < s
    exact, _ = singular_integral(3, 2, 3)
    assert exact == pytest.approx(2 * 2 ** (-2 / 3), abs=1e-12)


def test_integral_matches_composition_loop():
    k, s, m = 3, 3, 40
    brute = 0.0
    for u1 in range(1, m + 1):
        for u2 in range(1, m - u1 + 1):
            u3 = m - u1 - u2
            if u3 >= 1:
                brute += (u1 * u2 * u3) ** (1 / k - 1)
    exact, _ = singular_integral(m, s, k)
    assert exact == pytest.approx(brute, rel=1e-10)


def test_integral_approaches_gamma_asymptotics():
    # endpoint corrections of u**(1/k-1) make the approach slow: frozen
    # ratios 0.440, 0.615, 0.744 at m = 100, 400, 1600 (s=4, k=3), strictly
    # increasing toward 1 from below
    k, s = 3, 4
    ratios = []
    for m in (100, 400, 1600):
        exact, asym = singular_integral(m, s, k)
        ratios.append(exact / asym)
    assert ratios[0] == pytest.approx(0.4401, abs=1e-3)
    assert ratios[2] == pytest.approx(0.7445, abs=1e-3)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    # faster convergence at s = 2 reaches 4 percent by m = 10**4
    exact, asym = singular_integral(10**4, 2, k)
    assert exact / asym == pytest.approx(0.957, abs=2e-3)


def test_integral_guard():
    with pytest.raises(ValueError):
        singular_integral(20000, 4, 3)
    with pytest.raises(ValueError):
        singular_integral(100, 7, 3)
    with pytest.raises(ValueError, match="m >= 0"):
        singular_integral(-1, 5, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gauss_oracle.gauss_sum(5, 1, 0),
        lambda: a_coeff(1, 5, 5, 0),
        lambda: a_coeff(1, 5, 0, 3),
        lambda: a_coeff(1, 5, -1, 3),
        lambda: singular_series(5, 5, -2, 10),
        lambda: local_solubility(0, 5, 37),
        lambda: local_solubility(4, 0, 37),
    ],
    ids=["gauss_sum", "a_coeff", "a_coeff_s0", "a_coeff_s-1", "singular_series", "local_k",
         "local_s"],
)
def test_k_and_s_below_one_are_refused(call):
    with pytest.raises(ValueError, match="at least 1|>= 1"):
        call()


# ---------------------------------------------------------------------------
# local solubility
# ---------------------------------------------------------------------------


def test_local_solubility_biquadrates():
    loc = local_solubility(4, 7, 3)
    assert loc.modulus == 16
    assert loc.R_set == frozenset(range(1, 8))
    for n in range(16):
        res = local_solubility(4, 7, n)
        assert res.witness is not None
        x0, j = res.witness
        assert 1 <= x0 <= 4 * 4 and 1 <= j <= 7
        assert (n - x0 * x0) % 16 == j % 16


def test_odd_squares_mod_16():
    assert {(x * x) % 16 for x in range(1, 17, 2)} == {1, 9}
    assert {(1 + 8 * l) % 16 for l in range(16)} == {1, 9}


def test_local_solubility_k8():
    res = local_solubility(8, 24, 10**6)
    assert res.witness is not None
    x0, j = res.witness
    assert (10**6 - x0 * x0) % 32 == j % 32 and 1 <= j <= 24


def test_local_solubility_non_power_of_two():
    res = local_solubility(3, 5, 7)
    assert res.R_set == frozenset(range(12))
    assert res.n_minus_square_hits_R
