import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from partitio import arith
from partitio.arith import (
    DEFAULT_MAX_LIMIT, CapacityLimit, coprime_mask, primes_up_to, reduced_residues, sieve_tables,
    smooth_bound, smooth_set,
)
from partitio.singular import _GaussSumCache
from partitio.weights import make_weight

import sieve_oracle


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
        sieve_tables(DEFAULT_MAX_LIMIT + 1)
    with pytest.raises(CapacityLimit):
        primes_up_to(DEFAULT_MAX_LIMIT + 1)


@given(st.integers(min_value=0, max_value=3000))
def test_primes_up_to_matches_sieve_tables(N):
    primes = primes_up_to(N)
    assert primes.dtype == np.int64
    assert primes.tolist() == [p for p in sieve_tables(max(N, 2)).primes.tolist() if p <= N]


def test_primes_up_to_large_and_at_squares():
    # odd-only striding starts at p*p: limits at and around odd prime squares
    for N in [p * p + d for p in (3, 5, 7, 997) for d in (-1, 0, 1)] + [10**6]:
        assert np.array_equal(primes_up_to(N), sieve_tables(N).primes), N


def _lpf_brute(m):
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def test_sieve_tables_match_brute_force():
    # every N up to 400, then N around p*p, which decides the small primes,
    # and N around 2**j, where the recurrence's doubling blocks end
    boundaries = [p * p + d for p in (23, 29, 31, 37, 41, 43, 47) for d in (-1, 0, 1)]
    boundaries += [2**j + d for j in (10, 11, 12) for d in (-1, 0, 1)]
    top = max(boundaries)
    lpf = [0, 0] + [_lpf_brute(m) for m in range(2, top + 1)]
    mu = [0] + [_mu_brute(m) for m in range(1, top + 1)]
    for N in list(range(2, 401)) + boundaries:
        t = sieve_tables(N)
        assert (t.least_prime_factor.dtype, t.mobius.dtype, t.primes.dtype) == (
            np.int32, np.int8, np.int64)
        assert t.least_prime_factor.tolist() == lpf[: N + 1], N
        assert t.mobius.tolist() == mu[: N + 1], N
        assert t.primes.tolist() == [m for m in range(2, N + 1) if lpf[m] == m], N


def test_capacity_limit_at_int32_range(monkeypatch):
    # the tables are int32 and the budget is below 2**31, so 2**31 is refused
    # before any array exists (without numpy, any allocation would raise
    # another error); smooth sets and the mobius weight sieve under the same
    # budget
    assert DEFAULT_MAX_LIMIT < 2**31
    monkeypatch.setattr(arith, "np", None)
    with pytest.raises(CapacityLimit):
        sieve_tables(2**31)
    with pytest.raises(CapacityLimit):
        smooth_set(DEFAULT_MAX_LIMIT + 1, 2)
    with pytest.raises(CapacityLimit):
        make_weight("mobius", DEFAULT_MAX_LIMIT + 1)
    with pytest.raises(CapacityLimit):
        _GaussSumCache(3, 5).series_coeffs(1, DEFAULT_MAX_LIMIT + 1)


def test_mobius_at_scale():
    # Mertens M(10**6) = 212 and 607,926 squarefree m <= 10**6
    mu = sieve_tables(10**6).mobius
    assert int(mu.sum(dtype=np.int64)) == 212
    assert int(np.count_nonzero(mu)) == 607_926


def test_sieve_tables_memory_ceiling():
    # the fill and the recurrence work in blocks: beyond the tables they
    # return they hold at most a quarter as much again
    tracemalloc.start()
    try:
        t = sieve_tables(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = t.least_prime_factor.nbytes + t.mobius.nbytes + t.primes.nbytes
    assert peak <= 1.25 * tables, (peak, tables)


@st.composite
def _sieve_cases(draw):
    """A block of a few cells, for the int32 fill and for the intp cofactors
    of the recurrence, and N on or beside a multiple of either."""
    block_bytes = 8 * draw(st.integers(1, 12))
    cells = block_bytes // draw(st.sampled_from([4, np.dtype(np.intp).itemsize]))
    N = cells * draw(st.integers(1, 40)) + draw(st.integers(-1, 1))
    return block_bytes, max(N, 2)


def _assert_tables_equal(t, want, N):
    lpf, mobius, primes = want
    pairs = [(t.least_prime_factor, lpf[: N + 1]), (t.mobius, mobius[: N + 1]),
             (t.primes, primes[primes <= N])]
    for got, exp in pairs:
        assert got.dtype == exp.dtype and got.tolist() == exp.tolist(), N


@given(_sieve_cases(), st.integers(2, 60))
def test_blocked_sieve_matches_the_unblocked_oracle(case, R):
    block_bytes, N = case
    R = min(R, N)
    with mock.patch.object(arith, "_BLOCK_BYTES", block_bytes):
        t = sieve_tables(N)
        members = smooth_set(N, R).members
    _assert_tables_equal(t, sieve_oracle.sieve_tables(N), N)
    assert members.dtype == np.int64
    assert members.tolist() == sieve_oracle.smooth_members(N, R).tolist()


def test_sieve_at_the_library_block_edges():
    # at the library's block size, N on and beside the edges of the fill's
    # int32 blocks and the recurrence's intp blocks up to about 1e6, and at
    # 2**i +- 1; tables up to a smaller N are prefixes of the largest ones
    cells = arith._BLOCK_BYTES // np.dtype(np.intp).itemsize
    Ns = {k * cells + d for k in (1, 2, 3, 4, 7, 8, 15) for d in (-1, 0, 1)}
    Ns |= {2**i + d for i in range(1, 21) for d in (-1, 0, 1)} - {1}
    want = sieve_oracle.sieve_tables(max(Ns))
    smooth = sieve_oracle.smooth_members(max(Ns), 50)
    for N in sorted(Ns):
        _assert_tables_equal(sieve_tables(N), want, N)
        if N % cells in (1, cells - 1):
            assert smooth_set(N, 50).members.tolist() == smooth[smooth <= N].tolist(), N


def test_lpf_only_callers_build_no_mobius_table(monkeypatch):
    # smooth sets and the series' coefficients read least prime factors only
    def refuse(**_):
        raise AssertionError("built the Moebius table too")

    monkeypatch.setattr(arith, "SieveTables", refuse)
    assert smooth_set(1000, 7).members.tolist() == sieve_oracle.smooth_members(1000, 7).tolist()
    _GaussSumCache(3, 5).series_coeffs(1, 100)


def test_smooth_examples():
    assert list(smooth_set(10, 2).members) == [1, 2, 4, 8]
    assert list(smooth_set(10, 10).members) == list(range(1, 11))


@given(st.integers(min_value=2, max_value=300), st.integers(min_value=2, max_value=300))
def test_smooth_vs_trial_division(P, R):
    R = min(R, P)
    members = set(int(m) for m in smooth_set(P, R).members)
    for m in range(1, P + 1):
        assert (m in members) == _trial_factor_smooth(m, R)


def test_smooth_every_R_vs_largest_prime_factor():
    # every (P, R) with 2 <= R <= P < 130, against largest prime factors by
    # trial division; P crosses the doubling-block edges 2**i
    top = 130
    gpf = [1] * (top + 1)
    for m in range(2, top + 1):
        r, d = m, 2
        while d * d <= r:
            while r % d == 0:
                gpf[m], r = d, r // d
            d += 1
        if r > 1:
            gpf[m] = r
    gpf = np.array(gpf)
    for P in range(2, top):
        for R in range(2, P + 1):
            expected = np.flatnonzero(gpf[1 : P + 1] <= R) + 1
            assert np.array_equal(smooth_set(P, R).members, expected), (P, R)


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


def _iroot_by_bisection(n, k):
    lo, hi = 0, 1
    while hi**k <= n:
        hi *= 2
    while hi - lo > 1:  # lo**k <= n < hi**k
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid)
    return lo


@given(st.integers(0, 10**600), st.integers(1, 64))
@example(10**300, 2)  # a float root of this is off by ~1e134
@example(10**400, 3)  # past the float range
@example(10**399 - 1, 3)
@example(2**1023 * 3, 5)
def test_iroot_is_exact_for_every_int(n, k):
    assert arith.iroot(n, k) == _iroot_by_bisection(n, k)


def test_smooth_set_contains():
    members = smooth_set(100, 7).members.tolist()
    assert 1 in members and 63 in members and 64 in members
    assert 22 not in members  # 11 is a prime factor


def test_coprime_mask_matches_gcd():
    for q in range(1, 2001):
        mask = coprime_mask(q)
        assert mask.tolist() == [math.gcd(a, q) == 1 for a in range(q + 1)]
    with pytest.raises(ValueError):
        coprime_mask(0)


@pytest.mark.parametrize("qs, size", [
    (range(1, 13), 4),                       # rows of phi <= 4 kept whole, the rest thinned
    (range(1, 49), math.inf),                # no thinning: every residue, no draw
    (range(9000, 10300, 13), 4),             # rows past one chunk of 2**20 cells
    ([10007, 10009, 20011], 300),            # phi > 10,000 and size > phi // 50: tail shuffle
    ([2, 3, 4, 30, 31, 32, 1_000_003], 16),  # a one-row chunk past 2**19
])
def test_reduced_residues_match_one_choice_per_q(qs, size):
    # one table pass for the masks, one rng.choice per thinned row in
    # ascending q: the residues of one listed choice per q, sorted, and the
    # generator left where that leaves it
    qs = np.array(list(qs))
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    row, a, phi = reduced_residues(qs, size, got_rng)
    for i, q in enumerate(qs.tolist()):
        listed = np.flatnonzero(np.gcd(np.arange(q + 1), q) == 1)
        assert phi[i] == len(listed)
        if len(listed) > size:
            listed = np.sort(want_rng.choice(listed, size=size, replace=False))
        assert a[row == i].tolist() == listed.tolist()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_reduced_residues_keep_the_sieve_budget(monkeypatch):
    # refused before any array of the pass exists
    qs = np.array([3, DEFAULT_MAX_LIMIT + 1])
    monkeypatch.setattr(arith, "np", None)
    with pytest.raises(CapacityLimit, match=r"^modulus q = 50000001 "):
        reduced_residues(qs, 4)


def test_coprime_mask_keeps_the_sieve_budget(monkeypatch):
    # refused before the mask exists: without numpy an allocation would
    # raise another error
    monkeypatch.setattr(arith, "np", None)
    with pytest.raises(CapacityLimit):
        coprime_mask(DEFAULT_MAX_LIMIT + 1)
