import functools
import math
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sampler_oracle
from farey_oracle import fraction_approx
from partitio import arcs
from partitio.arcs import (
    Dissection,
    RationalApprox,
    dirichlet_approx,
    sample_slice_alphas,
    size_slices,
)
from partitio.arith import DEFAULT_MAX_LIMIT, CapacityLimit, PrecisionLimit
from partitio.weights import make_weight


def _best_approx_brute(alpha: Fraction, q_max: int):
    best = None
    for q in range(1, q_max + 1):
        a = round(q * alpha)
        a = min(max(a, 0), q)
        err = abs(q * alpha - a)
        if best is None or err < best[2]:
            best = (a, q, err)
    return best


def _walk(alpha: float, q_max: int) -> RationalApprox:
    a, q, err = dirichlet_approx(alpha, q_max)
    return RationalApprox(int(a[0]), int(q[0]), float(err[0]))


def test_dirichlet_simple():
    b = _walk(0.5, 10)
    assert (b.a, b.q, b.err) == (1, 2, 0.0)
    b = _walk(0.0, 5)
    assert (b.a, b.q, b.err) == (0, 1, 0.0)
    b = _walk(1.0, 5)
    assert (b.a, b.q, b.err) == (1, 1, 0.0)


def test_dirichlet_pi_digits():
    # frozen from the brute-force oracle below
    b = _walk(0.14159265, 100)
    ref = _best_approx_brute(Fraction(0.14159265), 100)
    assert (b.a, b.q) == (1, 7) == (ref[0], ref[1])
    assert b.err == pytest.approx(float(ref[2]), abs=1e-15)
    assert b.err == pytest.approx(0.00885145, abs=1e-8)


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=400))
def test_dirichlet_properties(alpha, q_max):
    b = _walk(alpha, q_max)
    assert 1 <= b.q <= q_max
    assert 0 <= b.a <= b.q
    assert gcd(b.a, b.q) == 1
    assert b.err <= 1.0 / q_max + 1e-15
    assert abs(alpha - b.a / b.q) <= 1.0 / (b.q * q_max) + 1e-15


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=60))
def test_dirichlet_matches_brute_force(alpha, q_max):
    x = Fraction(alpha)
    b = _walk(alpha, q_max)
    ref = _best_approx_brute(x, q_max)
    assert abs(b.q * x - b.a) == pytest.approx(ref[2], abs=1e-15)


def _near_rational(a_q, step):
    a, q = a_q
    return min(max(math.nextafter(a / q, step), 0.0), 1.0)


@functools.lru_cache(maxsize=None)
def _farey_list(N):
    # F_N as ascending Fractions
    return sorted({Fraction(a, q) for q in range(1, N + 1) for a in range(q + 1)})


def _farey_point(N_i, kind):
    # the float of entry i of F_N, a float neighbour of it, or the mediant of
    # entries i and i + 1, where alpha's two neighbours in F_N tie
    N, i = N_i
    lo, hi = _farey_list(N)[i:i + 2]
    if kind == "mediant":
        return float(Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator))
    return _near_rational((lo.numerator, lo.denominator), kind)


_alphas = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0**-10, math.nextafter(1.0, 0.0), 5e-324]),
    st.floats(min_value=0.0, max_value=2.0**-9),  # binary denominators past int64
    st.floats(min_value=2.0**-12, max_value=2.0**-8),  # and their edge
    st.builds(lambda m, k: k / 2**m, st.integers(1, 62), st.integers(0, 2**62))
    .filter(lambda x: x <= 1.0),  # dyadic k/2**m
    st.builds(
        _near_rational,
        st.integers(1, 10**7).flatmap(lambda q: st.tuples(st.integers(0, q), st.just(q))),
        st.sampled_from([-math.inf, 0.0, math.inf]),
    ),  # floats of a/q and their neighbours
    st.builds(
        _farey_point,
        st.integers(1, arcs._FAREY_MAX + 1).flatmap(
            lambda N: st.tuples(st.just(N), st.integers(0, len(_farey_list(N)) - 2))),
        st.sampled_from([-math.inf, 0.0, math.inf, "mediant"]),
    ),  # small-q points, their neighbours and the Farey mediants
    st.floats(min_value=0.0, max_value=1e-9).map(lambda e: 1.0 - e),  # near 1
    st.floats(min_value=0.0, max_value=1.0),
)

_q_maxes = st.one_of(
    st.integers(1, 100), st.integers(1, math.isqrt(4 * 10**12)),
    st.integers(1, 2**63 - 1),
    st.sampled_from([arcs._FAREY_MAX, arcs._FAREY_MAX + 1, 1023, 1024, 1025, 2**33, 2**62,
                     2**63 - 1]),
)


def _assert_walk_is_oracle(alphas, q_max):
    a, q, err = dirichlet_approx(np.array(alphas, dtype=float), q_max)
    assert a.dtype == q.dtype == np.int64 and err.dtype == np.float64
    for i, alpha in enumerate(alphas):
        b = fraction_approx(float(alpha), q_max)
        assert (int(a[i]), int(q[i]), float(err[i]).hex()) == (b.a, b.q, b.err.hex())


@given(st.lists(_alphas, min_size=1, max_size=12), _q_maxes)
@example([0.5], 1)  # the mediant of 0/1 and 1/1: both q = 1, the smaller a wins
@example([1 / 8], 7)  # 1/(N + 1) ties 0/1 and 1/N: the smaller q wins
@example([1 / arcs._FAREY_MAX], arcs._FAREY_MAX - 1)  # the same tie, exact in binary
@example([1 / (arcs._FAREY_MAX + 1)], arcs._FAREY_MAX)
@example([math.nextafter(2.0**-10, 0.0), 2.0**-10, 5e-324], arcs._FAREY_MAX)
def test_array_walk_matches_fraction_walk(alphas, q_max):
    _assert_walk_is_oracle(alphas, q_max)


@given(
    st.integers(1024, 2**63 - 1).flatmap(lambda q_max: st.tuples(
        st.lists(st.floats(0.5 / (q_max + 1), 2.0**-10, exclude_max=True),
                 min_size=1, max_size=12),
        st.just(q_max),
    ))
)
@example(([1 / 1024, 1 / 1025, math.nextafter(1 / 1025, 1.0)], 1024))
@example(([2.0**-63, 3 * 2.0**-64, 2.0**-62], 2**63 - 1))
def test_array_walk_matches_fraction_walk_below_int64_denominators(alphas_q_max):
    # points below 2**-10 near 1/(q_max + 1): the float test cannot settle
    # them, and the first partial quotient is taken on Python ints
    _assert_walk_is_oracle(*alphas_q_max)


def test_array_walk_matches_fraction_walk_sweep():
    # seeded points at every binary magnitude from 2**-60 to 1
    rng = np.random.default_rng(2)
    alphas = rng.random(1500) * 2.0 ** -rng.integers(0, 61, size=1500)
    for q_max in (7, arcs._FAREY_MAX, arcs._FAREY_MAX + 1, 1000, 10**6,
                  math.isqrt(4 * 10**12), 2**62, 2**63 - 1):
        _assert_walk_is_oracle(alphas, q_max)


def test_farey_lookup_matches_the_walk_exhaustively():
    # up to N = 24: the floats of every fraction with denominator <= 2N + 1
    # and their float neighbours; at N = 24 and on both sides of _FAREY_MAX:
    # every F_N entry, its neighbours and each adjacent pair's mediant, where
    # alpha's two neighbours tie
    for N in range(1, 25):
        points = [_near_rational((f.numerator, f.denominator), step)
                  for f in _farey_list(2 * N + 1) for step in (-math.inf, 0.0, math.inf)]
        _assert_walk_is_oracle(points, N)
    for N in (24, arcs._FAREY_MAX, arcs._FAREY_MAX + 1):
        points = [_farey_point((N, i), kind) for i in range(len(_farey_list(N)) - 1)
                  for kind in (-math.inf, 0.0, math.inf, "mediant")]
        _assert_walk_is_oracle(points + [1.0], N)


def test_farey_bound_keeps_the_lookup_exact():
    # below 2**-10 the lookup answers 0/1 unseen, which holds only while
    # alpha*(q_max + 1) < 1/2; the same bound keeps its residuals in int64
    assert arcs._FAREY_MAX + 1 <= 512


def test_array_walk_exact_inputs_and_errors():
    # exact points take the Fraction oracle: err of 2/7 + 1e-9 is 7e-9 exactly
    b = fraction_approx(Fraction(2, 7) + Fraction(1, 10**9), 10)
    assert (b.a, b.q, b.err) == (2, 7, 7e-9)
    # the array classifiers take floats only, as a list, an object array or one point
    exact = [Fraction(1, 3), Fraction(2, 7) + Fraction(1, 10**9), 0.25]
    d = Dissection(10**4)
    classifiers = (lambda x: dirichlet_approx(x, 10), d.assign_many,
                   lambda x: d.in_major_many(x, 4.0), lambda x: d.in_slice_many(x, 4.0))
    for classify in classifiers:
        for points in (exact, np.array(exact, dtype=object), exact[1]):
            with pytest.raises(ValueError, match="floats"):
                classify(points)
    a, q, err = dirichlet_approx([0.5, 0.25], 10)
    assert (list(a), list(q), list(err)) == ([1, 1], [2, 4], [0.0, 0.0])
    assert len(dirichlet_approx(np.empty(0), 5)[0]) == 0
    with pytest.raises(ValueError):
        dirichlet_approx([0.5, 1.5], 5)
    with pytest.raises(ValueError):
        dirichlet_approx([0.5, float("nan")], 5)
    with pytest.raises(ValueError):
        dirichlet_approx([0.5], 0)
    # q_max is held to int64, where the walk runs
    for q_max in (2**63, 2**64):
        with pytest.raises(PrecisionLimit):
            dirichlet_approx([3 * 2.0**-64], q_max)


def _height_bound(n, L):
    # |q*alpha - a| <= min(L, sqrt(n)/2) / n, the one height-L bound on both
    # sides of sqrt(n)/2
    return min(L, 0.5 * math.sqrt(n)) / n


def _assign_oracle(d, alpha):
    best = fraction_approx(alpha, d.half_height)
    if best.err <= _height_bound(d.n, math.inf):
        return best
    return fraction_approx(alpha, d.full_height)


def _in_major_oracle(d, alpha, Q):
    # the scalar definition of M(Q), on the Fraction walk
    if Q <= 0.5 * math.sqrt(d.n):
        return fraction_approx(alpha, int(math.floor(Q))).err <= _height_bound(d.n, Q)
    best = _assign_oracle(d, alpha)
    if best.q <= d.half_height:
        return best.err <= _height_bound(d.n, Q)
    return best.q <= Q


@pytest.mark.parametrize("n", [10**4, 10**7 + 3])
def test_array_classifiers_match_scalar(n):
    d = Dissection(n)
    rng = np.random.default_rng(n)
    pts = np.concatenate([rng.random(150), np.arange(160) / 160, rng.random(40) * 2.0**-9])
    half = 0.5 * math.sqrt(n)
    for Q in (1.0, 4.0, half * 0.9, half, half * 1.1, 2 * math.sqrt(n)):
        major, slice_ = d.in_major_many(pts, Q), d.in_slice_many(pts, Q)
        assert major.dtype == slice_.dtype == bool
        want = [_in_major_oracle(d, float(x), Q) for x in pts]
        if Q / 4 >= 1:
            below = [_in_major_oracle(d, float(x), Q / 4) for x in pts]
            want_slice = [m and not b for m, b in zip(want, below)]
        else:
            want_slice = want
        assert list(major) == want == [d.in_major(float(x), Q) for x in pts]
        assert list(slice_) == want_slice
    a, q, err = d.assign_many(pts)
    for i, x in enumerate(pts):
        got = RationalApprox(int(a[i]), int(q[i]), float(err[i]))
        assert got == d.assign(float(x)) == _assign_oracle(d, float(x))


_n_and_Q = st.one_of(
    st.integers(2, 9),
    st.sampled_from([10, 17, 100, 10**4, 10**6 + 7, 10**9, 10**12]),
    st.integers(10, 10**12),
).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
    st.sampled_from([1.0, 2.0, 4.5, 16.0, 300.0]).map(lambda Q: min(Q, 2 * math.sqrt(n))),
    st.floats(1.0, 2 * math.sqrt(n)),
)))


@given(_n_and_Q, st.lists(_alphas, min_size=1, max_size=12))
@example((2, 1.0), [0.0, 0.25, 0.5, 1.0])
@example((3, 2.0), [0.0, 0.3, 2.0**-11, math.nextafter(1.0, 0.0)])
@example((10**6 + 7, 1000.0), [1 / 7, 1 / 7 + 2.5e-6, 0.5, 2.0**-20])
@example((10**4, 1.0), [0.005, 0.5025])  # on the rim of a low arc: the low q wins
# alpha = L/n at L = Q/4 = sqrt(n)/2: on the rim of the q = 1 arc, whose
# Farey cell it keeps
@example((5, 2 * math.sqrt(5)), [2 * math.sqrt(5) / 4 / 5])
def test_classifiers_match_scalar_oracles(n_Q, alphas):
    n, Q = n_Q
    d = Dissection(n)
    assert d.in_major_many(np.array(alphas), Q).tolist() == [
        _in_major_oracle(d, x, Q) for x in alphas]
    assert d.in_slice_many(alphas, Q).tolist() == [
        _in_major_oracle(d, x, Q) and not (Q / 4 >= 1 and _in_major_oracle(d, x, Q / 4))
        for x in alphas
    ]


def test_one_walk_per_classifier_call(monkeypatch):
    # every dyadic level, and both ends of a slice, come from the same cells
    q_maxes = []

    def counted(alphas, q_max):
        q_maxes.append(q_max)
        return dirichlet_approx(alphas, q_max)

    monkeypatch.setattr(arcs, "dirichlet_approx", counted)
    x = np.random.default_rng(1).random(300)
    Dissection(10**9).in_slice_many(x, 1000.0)  # 1000 <= sqrt(n)/2: one walk, both levels
    assert q_maxes == [1000]
    d = Dissection(10**4)
    for Q, walks in ((50.0, [50]), (200.0, [d.half_height, d.full_height])):
        q_maxes.clear()
        d.in_slice_many(x, Q)  # Q = 50 <= sqrt(n)/2 < 200
        assert q_maxes == walks


def test_upsilon_on_extreme_minor_arcs(rng):
    # frozen from a sampling experiment: Upsilon = 1/(q + n*err) over the
    # Farey cells, times sqrt(n), stays order one
    n = 10**4
    d = Dissection(n)
    alphas = rng.random(4000)
    _, q, err = d.assign_many(alphas[~d.in_major_many(alphas, 0.5 * math.sqrt(n))])
    ratios = math.sqrt(n) / (q + n * err)
    assert len(ratios) > 100
    assert 0.3 <= ratios.min() and ratios.max() <= 2.1


def test_arc_classify_centers_and_edges():
    n = 10**4
    d = Dissection(n)
    assert d.in_major_many(1 / 3, 10.0).tolist() == [True]
    edges = [0.0 + 1.2 * 1.0 / n, 0.0 + 0.8 * 1.0 / n]
    assert d.in_major_many(edges, 1.0).tolist() == [False, True]


def test_slice_q_label():
    n = 10**4
    d = Dissection(n)
    assert d.in_major_many([0.5, 1 / 7 + 2.5 / n], 32.0).tolist() == [True, True]
    # the q = 2 arc lies in M(2), hence below every slice N(8), N(32)
    assert [bool(d.in_slice_many(0.5, Q)[0]) for Q in (2.0, 8.0, 32.0)] == [True, False, False]


def test_arc_nesting_across_half_height():
    # at n = 5, alpha = (sqrt(5)/2)/5 lies on the rim of the q = 1 arc of
    # M(sqrt(5)/2); 0.5/sqrt(5) is 1 ulp below it, so a bound written that
    # way above sqrt(n)/2 left alpha out of M(1.2), a larger family
    n = 5
    d, half = Dissection(n), 0.5 * math.sqrt(n)
    alpha = half / n
    assert 0.5 / math.sqrt(n) < alpha
    for L in (half, math.nextafter(half, 2.0), 1.2, 2 * math.sqrt(n)):
        assert d.in_major_many([alpha], L).tolist() == [True]
    assert d.assign_many(alpha)[1].tolist() == [1]


@given(
    st.one_of(st.integers(2, 99), st.integers(100, 10**12)),
    st.lists(st.floats(0.0, 1.0), max_size=3),
    st.lists(_alphas, min_size=1, max_size=12),
)
def test_major_arcs_nest(n, fractions, picks):
    # M(L) lies in M(L') for L <= L', below, across and above sqrt(n)/2: the
    # levels are 1, sqrt(n)/2 and its float neighbours, 2 sqrt(n) and drawn
    # ones; the points include the rims a/q +- min(L, sqrt(n)/2)/(q n)
    d, half, top = Dissection(n), 0.5 * math.sqrt(n), 2 * math.sqrt(n)
    ladder = [half, math.nextafter(half, 0.0), math.nextafter(half, top), 1.2 * half]
    levels = sorted({min(max(L, 1.0), top) for L in
                     [1.0, top, *ladder, *(1.0 + f * (top - 1.0) for f in fractions)]})
    rims = [max(0.0, min(1.0, a / q + sign * _height_bound(n, L) / q))
            for L in levels for sign in (1.0, -1.0) for a, q in ((0, 1), (1, 2), (1, 3))]
    alphas = np.array(picks + rims)
    masks = [d.in_major_many(alphas, L) for L in levels]
    for inner, outer in zip(masks, masks[1:]):
        assert outer[inner].all()


def test_arc_nesting_and_slices():
    n = 10**4
    d = Dissection(n)
    alphas = np.random.default_rng(5).random(300)
    Q = 64.0
    assert d.in_major_many(alphas, Q)[d.in_major_many(alphas, Q / 4)].all()  # nested
    levels = [d.in_slice_many(alphas, Q / 4**j) for j in range(3)]
    assert (np.sum(levels, axis=0) <= 1).all()  # dyadic slices are disjoint


def test_slice_partition_exhaustive():
    # every point of M(Q) lands in exactly one N(Q/4^j) or the lowest level
    n = 10**4
    d = Dissection(n)
    rng = np.random.default_rng(11)
    Q = 32.0
    alphas = rng.random(400)
    alphas = alphas[d.in_major_many(alphas, Q)]
    hits, levels = [], [Q]
    while levels[-1] / 4 >= 1:
        hits.append(d.in_slice_many(alphas, levels[-1]))
        levels.append(levels[-1] / 4)
    hits.append(d.in_major_many(alphas, levels[-1]))
    assert (np.sum(hits, axis=0) == 1).all()


def test_major_measure_against_formula(rng):
    # sampled measure of M(Q) vs sum over q <= Q of phi(q) * 2Q / (q n)
    n, Q = 4 * 10**4, 12.0
    d = Dissection(n)
    expected = sum(
        sum(1 for a in range(1, q + 1) if gcd(a, q) == 1) * 2 * Q / (q * n)
        for q in range(1, int(Q) + 1)
    )
    samples = 200_000
    hits = int(d.in_major_many(rng.random(samples), Q).sum())
    est = hits / samples
    sigma = math.sqrt(expected * (1 - expected) / samples)
    assert abs(est - expected) < 5 * sigma + 1e-6


def test_upsilon_bounded_on_slices():
    n = 10**4
    rng = np.random.default_rng(3)
    for Q in (16.0, 64.0, 150.0):
        alphas = sample_slice_alphas(n, Q, 150, rng)
        assert len(alphas) > 0
        _, q, err = Dissection(n).assign_many(alphas)
        assert (1.0 / (q + n * err) <= 4.0 / Q).all()


_sampler_n_and_Q = st.one_of(
    st.integers(2, 99),
    st.sampled_from([10**4, 10**6 + 7, 10**9]),
    st.integers(100, 10**9),
).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
    st.sampled_from([1.0, 4.0, 0.5 * math.sqrt(n), 2 * math.sqrt(n)])
    .map(lambda Q: min(max(Q, 1.0), 2 * math.sqrt(n))),  # both sides of sqrt(n)/2
    st.floats(1.0, 2 * math.sqrt(n)),
)))


@settings(max_examples=30)
@given(_sampler_n_and_Q, st.integers(0, 2**32 - 1))
def test_sampled_points_lie_in_their_slice(n_Q, seed):
    # the sampler's strata land near arc boundaries: each returned point is
    # in N(Q) = M(Q) minus M(Q/4) by the Fraction walk
    n, Q = n_Q
    d = Dissection(n)
    alphas = sample_slice_alphas(n, Q, 12, np.random.default_rng(seed))
    for x in alphas.tolist():
        assert _in_major_oracle(d, x, Q)
        assert not (Q / 4 >= 1 and _in_major_oracle(d, x, Q / 4))


@pytest.mark.parametrize("population, size", [
    (81, 80), (1000, 32), (10**4 + 1, 80), (10**6, 32),  # the sampler's sizes: Floyd's method
    (2 * 10**4, 500),  # numpy's other method, a shuffle of the listed range
])
def test_index_draws_equal_listed_draws(population, size):
    # the sampler draws its denominators as offset + choice(count): the same
    # draws, and the same generator state after, as a choice from the listed range
    by_index, listed = np.random.default_rng(population), np.random.default_rng(population)
    got = 7 + by_index.choice(population, size=size, replace=False)
    want = listed.choice(np.arange(7, 7 + population), size=size, replace=False)
    assert got.tolist() == want.tolist()
    assert by_index.random() == listed.random()


def test_sampler_denominators_keep_the_sieve_budget():
    # q up to 4e9 at n = 4e18: refused before a residue mask, or a list of the
    # q range, exists
    tracemalloc.start()
    try:
        with pytest.raises(CapacityLimit):
            sample_slice_alphas(4 * 10**18, 4e9, 5, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # the top denominator isqrt(4n) is held to the budget, whatever the seed:
    # n = 625000025000000 is the last n whose top slice is drawn
    assert Dissection(625_000_025_000_000).full_height == DEFAULT_MAX_LIMIT
    for seed in range(3):
        with pytest.raises(CapacityLimit, match=r"^top slice denominator 50000001 "):
            sample_slice_alphas(625_000_025_000_001, 2 * math.sqrt(625_000_025_000_001), 5,
                                np.random.default_rng(seed))


def _oracle_Q(n: int):
    # both sides of sqrt(n)/2 up to 2 sqrt(n), with Q at most 3e4 so that the
    # per-q oracle stays cheap (the explicit examples go further)
    half, top = 0.5 * math.sqrt(n), 2 * math.sqrt(n)
    lim = min(top, 3e4)
    return st.one_of(
        st.sampled_from([1.0, half * (1 - 1e-9), half, half * (1 + 1e-9), top])
        .map(lambda Q: min(max(Q, 1.0), lim)),
        st.floats(1.0, lim),
    )


_oracle_n = st.one_of(
    st.integers(2, 10**4), st.integers(10**4, 10**9), st.integers(10**9, 625_000_025_000_000),
)


@settings(max_examples=40)
@given(_oracle_n.flatmap(lambda n: st.tuples(st.just(n), _oracle_Q(n))),
       st.integers(1, 300), st.integers(0, 2**32 - 1))
@example((2, 1.0), 1, 0)
@example((10**8, 2e4), 300, 5)  # phi(q) > 10,000 for many q; the table spans two row chunks
@example((10**11, 2 * math.sqrt(10**11)), 40, 3)  # q past 2**19: one row per chunk
@example((625_000_025_000_000, 1000.0), 60, 11)  # q*n past 2**53, rounded once
@example((2**53 + 1, 100.0), 300, 0)  # n past 2**53: q*n from the exact product
@example((5, 2.0), 300, 1)  # q = 1 in the centre stratum: the point 0 + delta shows all of delta
@example((10**6, 16.0), 300, 7)
def test_sampler_matches_the_per_q_oracle(n_Q, count, seed):
    # the array passes draw the same residues as one choice per q from the
    # listed residues, and leave the generator where the per-q loop leaves it
    n, Q = n_Q
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_slice_alphas(n, Q, count, got_rng)
    want = sampler_oracle.sample_slice_alphas(n, Q, count, want_rng)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("count", [0, -3])
def test_sampler_refuses_an_empty_count(count):
    # fewer than one point is refused by name, by the sampler and so by
    # size_slices, which would report an all-zero SliceStats for it
    with pytest.raises(ValueError, match=f"^count must be at least 1, got {count}$"):
        sample_slice_alphas(10**6, 16.0, count, np.random.default_rng(0))
    w = make_weight("squares", 10**6)
    with pytest.raises(ValueError, match=f"^count must be at least 1, got {count}$"):
        size_slices(w, 10**6, 16.0, 4, count)


def test_top_slice_is_the_extreme_minor_arcs(rng):
    # N(2 sqrt n) = M(2 sqrt n) minus M(sqrt n / 2) is exactly the complement
    # of the low-height major arcs, and the full dissection covers [0, 1]
    n = 10**4
    d = Dissection(n)
    top = 2 * math.sqrt(n)
    alphas = rng.random(150)
    assert d.in_major_many(alphas, top).all()
    low = d.in_major_many(alphas, 0.5 * math.sqrt(n))
    assert d.in_slice_many(alphas, top).tolist() == (~low).tolist()


def test_assignment_invariants(rng):
    n = 10**4
    d = Dissection(n)
    for alpha in rng.random(200):
        b = d.assign(float(alpha))
        assert 1 <= b.q <= d.full_height
        assert gcd(b.a, b.q) == 1
        assert b.err <= 0.5 / math.sqrt(n) + 1e-15


def test_size_slices_squares():
    n = 10**6
    w = make_weight("squares", n)
    Q = 1000.0
    # T below Q**(phi - delta) empties the window.  At this scale the
    # constant in sup|W| ~ 2.7 * norm * Q**-0.5 forces delta ~ 0.2:
    # the frozen experiment has sup = 84.7, so windows with T <= 11 are empty.
    st = size_slices(w, n, Q, T=8.0, samples=400, seed=2)
    assert st.samples_total > 50
    assert st.fraction_in_slice == 0.0
    # a window calibrated to the observed sup is nonempty by construction
    from partitio.expsums import exp_sum_many

    rng = np.random.default_rng(9)
    alphas = sample_slice_alphas(n, Q, 300, rng)
    sup = float(np.abs(exp_sum_many(w, alphas)).max())
    T_hit = 1.5 * w.norm / sup
    st2 = size_slices(w, n, Q, T=T_hit, samples=400, seed=2)
    assert st2.fraction_in_slice > 0.0
    assert st2.sup_in_slice <= 2 * w.norm / T_hit + 1e-9


def test_size_slices_windows_disjoint():
    n = 10**5
    w = make_weight("squares", n)
    got = []
    for T in (8.0, 16.0):
        st = size_slices(w, n, 200.0, T=T, samples=200, seed=4)
        got.append(st)
    # windows (norm/T, 2 norm/T] for T and 2T are disjoint by construction:
    # both cannot claim the same magnitude
    assert got[0].sup_in_slice == 0.0 or got[1].sup_in_slice == 0.0 or (
        got[1].sup_in_slice <= w.norm / 8.0 + 1e-9
    )


def test_size_slices_zero_norm_rejected():
    w = make_weight("e2", 100)
    with pytest.raises(ValueError):
        size_slices(w, 100, 4.0, T=4.0, samples=10)
