import numpy as np
import pytest
from hypothesis import given, strategies as st

from partitio.arith import CapacityLimit, sieve_tables, smooth_bound, smooth_set


def _trial_factor_smooth(m, R):
    if m == 1:
        return True
    d = 2
    while d * d <= m:
        while m % d == 0:
            if d > R:
                return False
            m //= d
        d += 1
    return m == 1 or m <= R


def _mu_brute(m):
    if m == 1:
        return 1
    mu, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if m > 1 else mu


def test_mobius_small_values():
    t = sieve_tables(100)
    assert t.mobius[1] == 1
    assert t.mobius[4] == 0
    assert t.mobius[6] == 1
    assert t.mobius[30] == -1


def test_primes_up_to_ten():
    assert list(sieve_tables(10).primes) == [2, 3, 5, 7]


def test_mertens_value():
    t = sieve_tables(100)
    assert int(t.mobius[1:101].sum()) == sum(_mu_brute(m) for m in range(1, 101))
    assert int(t.mobius[1:101].sum()) == 1


def _check_mobius(N):
    t = sieve_tables(N)
    assert len(t.mobius) == N + 1 and t.mobius[0] == 0
    for m in range(1, N + 1):
        assert t.mobius[m] == _mu_brute(m), m


def test_mobius_matches_brute_force():
    _check_mobius(2000)


@pytest.mark.parametrize("N", [2, 3, 4, 24, 25, 26, 120, 121, 122])
def test_mobius_matches_brute_force_at_square_boundaries(N):
    # N around p*p decides which primes the sieve treats as small
    _check_mobius(N)


def test_lpf_properties():
    t = sieve_tables(500)
    for p in t.primes:
        assert t.least_prime_factor[p] == p
    for m in range(2, 501):
        lpf = int(t.least_prime_factor[m])
        assert m % lpf == 0
        assert all(m % q for q in range(2, lpf))


def test_capacity_limit():
    with pytest.raises(CapacityLimit):
        sieve_tables(10**7, max_limit=10**6)


def test_smooth_examples():
    assert list(smooth_set(10, 2).members) == [1, 2, 4, 8]
    assert list(smooth_set(10, 10).members) == list(range(1, 11))


@given(st.integers(min_value=2, max_value=300), st.integers(min_value=2, max_value=300))
def test_smooth_vs_trial_division(P, R):
    R = min(R, P)
    members = set(int(m) for m in smooth_set(P, R).members)
    for m in range(1, P + 1):
        assert (m in members) == _trial_factor_smooth(m, R)


def test_smooth_monotone_in_R():
    a = set(int(m) for m in smooth_set(200, 5).members)
    b = set(int(m) for m in smooth_set(200, 13).members)
    assert a <= b
    assert len(smooth_set(200, 200)) == 200


def test_smooth_membership_chain_vs_trial_division():
    # least-prime-factor chain agrees with trial division on all m <= 10^4
    t = sieve_tables(10**4)
    R = 31
    members = set(int(m) for m in smooth_set(10**4, R).members)
    for m in range(2, 10**4 + 1):
        mm, ok = m, True
        while mm > 1:
            p = int(t.least_prime_factor[mm])
            if p > R:
                ok = False
                break
            mm //= p
        assert (m in members) == ok


def test_smooth_bound():
    assert smooth_bound(100, 0.5) == 10
    assert smooth_bound(100, 0.01) == 2  # floor at 2
    assert smooth_bound(500, 1.0) == 500
    with pytest.raises(ValueError):
        smooth_bound(100, 0.0)


def test_smooth_set_contains():
    s = smooth_set(100, 7)
    assert 1 in s and 63 in s and 64 in s
    assert 22 not in s  # 11 is a prime factor
