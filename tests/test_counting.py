import itertools
import math
import tracemalloc
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from partitio import counting
from partitio.arith import DEFAULT_MAX_LIMIT, CapacityLimit, SmoothSet, iroot, smooth_set
from partitio.counting import (
    CountTable,
    _count_table,
    _fold,
    _summands,
    major_arc_moment,
    mean_value_N,
    moment_exact,
    nu_convolution,
    power_convolution,
    quadrature_moment,
    representation_counts,
    zero_set,
)
from partitio.weights import Weight, make_weight

import fold_oracle
import sampler_oracle
from phase_oracle import exact_arcs
from zero_set_oracle import sieve_zero_set


def test_iroot():
    assert iroot(26, 3) == 2 and iroot(27, 3) == 3 and iroot(28, 3) == 3
    assert iroot(10**12, 4) == 1000
    # k = 0 reaches iroot before any other check of mean_value_N
    with pytest.raises(ValueError, match="n=100, k=0"):
        mean_value_N(0, 1, 100, 5)


# ---------------------------------------------------------------------------
# power_convolution
# ---------------------------------------------------------------------------


def test_single_cube():
    t = power_convolution(3, 1, 100)
    assert t[27] == 1 and t[26] == 0 and t[64] == 1


def test_count_table_index_is_held_to_0_through_limit():
    t = representation_counts(3, 2, 50)
    assert t[0] == 1 and t[50] == int(t.counts[50])
    for m in (-1, -51, 51):
        with pytest.raises(IndexError):
            t[m]


def test_taxicab_ordered_pairs():
    t = power_convolution(3, 2, 1729)
    assert t[1729] == 4  # 1+12^3 twice ordered, 9^3+10^3 twice


def test_smooth_base_small():
    sm = smooth_set(10, 2)  # {1, 2, 4, 8}
    t = power_convolution(3, 2, 600, base=sm)
    assert t[2] == 1  # 1 + 1
    assert t[9] == 2  # 1 + 8, 8 + 1


def test_convolution_matches_nested_loops():
    sm = smooth_set(12, 5)
    members = [int(m) for m in sm.members]
    N = 800
    t = power_convolution(3, 3, N, base=sm)
    brute = np.zeros(N + 1, dtype=np.int64)
    for xs in itertools.product(members, repeat=3):
        v = sum(x**3 for x in xs)
        if v <= N:
            brute[v] += 1
    assert np.array_equal(t.counts, brute)


def test_allow_zero_matches_loops():
    N = 200
    t = power_convolution(4, 2, N, allow_zero=True)
    brute = np.zeros(N + 1, dtype=np.int64)
    for xs in itertools.product(range(0, iroot(N, 4) + 1), repeat=2):
        v = xs[0] ** 4 + xs[1] ** 4
        if v <= N:
            brute[v] += 1
    assert np.array_equal(t.counts, brute)


def test_overflow_escalates_to_big_integers():
    # 40-fold convolution over {0..40}: counts[m] = C(m+39, 39) exceeds the
    # int64 range well before m = 40, so the table must escalate, not wrap
    t = power_convolution(1, 40, 40, allow_zero=True)
    assert t.counts.dtype == object
    for m in (0, 1, 17, 40):
        assert t[m] == math.comb(m + 39, 39)
    assert min(int(c) for c in t.counts) >= 0


_RUNGS = ["int8", "int16", "int32", "int64", "object"]


@pytest.mark.parametrize("s, N, last", [(2, 100, "int8"), (3, 100, "int16"), (6, 40, "int32"),
                                        (12, 40, "int64"), (40, 40, "object")])
def test_closed_form_counts_on_every_rung(s, N, last):
    # s-tuples from {0..N} summing to m number C(m + s - 1, s - 1); the folds
    # climb the ladder to `last` (s = 40 passes every rung in turn), and the
    # table comes back as int64 or object, never on a narrower rung
    rungs = []

    def spy(acc, values, n):
        out = _fold(acc, values, n)
        rungs.append(out.dtype.name)
        return out

    with mock.patch.object(counting, "_fold", spy):
        t = power_convolution(1, s, N, allow_zero=True)
    assert rungs == sorted(rungs, key=_RUNGS.index) and rungs[-1] == last
    assert s < 40 or set(rungs) == set(_RUNGS)
    assert t.counts.dtype == (object if last == "object" else np.int64)
    assert t.counts.tolist() == [math.comb(m + s - 1, s - 1) for m in range(N + 1)]


def test_fold_guard_is_per_entry_at_int64_max():
    # 2**63 - 1 = 7 * M: seven summands <= N on entries of at most M fill an
    # entry to exactly the int64 maximum; one more unit needs big integers
    M = (2**63 - 1) // 7
    values = np.array([0, 1, 2, 3, 4, 5, 6, 25], dtype=np.int64)  # 25 > N plays no part
    acc = np.full(21, M, dtype=np.int64)
    out = _fold(acc, values, 20)
    assert out.dtype == np.int64
    assert out.tolist() == [(m + 1) * M for m in range(6)] + [2**63 - 1] * 15
    acc[20] = M + 1
    out = _fold(acc, values, 20)
    assert out.dtype == object
    assert out[20] == 2**63 and out[19] == 2**63 - 1


@pytest.mark.parametrize("rung, wider", [(np.int8, np.int16), (np.int16, np.int32),
                                         (np.int32, np.int64)])
@pytest.mark.parametrize("given", ["rung", "int64"])
def test_fold_guard_is_per_entry_at_each_rung(rung, wider, given):
    # one summand on entries at the rung's maximum stays on the rung, whatever
    # dtype acc comes in; two summands on entries of (max + 1) / 2 fill an
    # entry to one past it and take the next rung, not a wider one
    M = int(np.iinfo(rung).max)
    dtype = rung if given == "rung" else np.int64
    out = _fold(np.full(21, M, dtype=dtype), np.array([0, 25]), 20)  # 25 > N plays no part
    assert out.dtype == rung
    assert out.tolist() == [M] * 21
    out = _fold(np.full(21, (M + 1) // 2, dtype=dtype), np.array([0, 1, 25]), 20)
    assert out.dtype == wider
    assert out.tolist() == [(M + 1) // 2] + [M + 1] * 20


@st.composite
def _fold_cases(draw):
    """A fold whose N + 1 lies on or next to a multiple of the block length,
    at the library's block size or a small one: acc of any length from one
    entry up to N + 1, and summands on and beside the block edges, at random,
    or the k-th powers of a SmoothSet base, in ascending or shuffled order.
    An int8, int16 or int32 acc meets one or two summands v <= N (and any
    past N), its largest entry the rung's maximum or half of one past it, so
    max(acc) times the summands lands on the maximum or one past it."""
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64, bool, object]))
    block_bytes = draw(st.sampled_from([counting._BLOCK_BYTES, 64, 200]))
    cells = block_bytes // np.dtype(dtype).itemsize
    blocks = draw(st.integers(1, 3 if block_bytes == counting._BLOCK_BYTES else 12))
    N = blocks * cells + draw(st.integers(-1, 1)) - 1
    L = draw(st.one_of(st.just(1), st.integers(1, N + 1), st.just(N + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    edges = [j * cells + d for j in range(blocks + 1) for d in range(-2, 3)]
    if draw(st.booleans()):
        P = draw(st.integers(2, 60))
        k = draw(st.integers(1, 4))
        values = _summands(k, 1, N, "none", base=smooth_set(P, draw(st.integers(2, P))))[0]
    else:
        picks = draw(st.lists(st.sampled_from(edges) | st.integers(0, N + 2), min_size=1,
                              max_size=12))
        values = np.array(sorted({v for v in picks if v >= 0}), dtype=np.int64)
    if dtype is bool:
        acc = rng.random(L) < draw(st.sampled_from([0.01, 0.5]))
    elif dtype in (np.int8, np.int16, np.int32):
        n = draw(st.sampled_from([1, 2]))
        inside = st.sampled_from([v for v in edges if 0 <= v <= N]) | st.integers(0, N)
        picks = draw(st.lists(inside, min_size=n, max_size=n, unique=True))
        values = np.array(picks + [v for v in values.tolist() if v > N], dtype=np.int64)
        top = -(-int(np.iinfo(dtype).max) // n)  # the maximum, or half of one past it
        acc = rng.integers(0, top, L, endpoint=True).astype(dtype)
        acc[rng.integers(L)] = top
    else:
        top = 2**62 if dtype is np.int64 and draw(st.booleans()) else 1000  # 2**62 widens
        acc = rng.integers(0, top, L, endpoint=True)
        if dtype is object:
            acc = acc.astype(object) * 2**70
    if draw(st.booleans()):  # a SmoothSet built by hand need not ascend
        values = rng.permutation(values)
    return block_bytes, acc, values, N


def _full_size_case(dtype, blocks, L):
    """At the library's block size: N + 1 one past `blocks` blocks, and
    summands on, before and after every block edge."""
    cells = counting._BLOCK_BYTES // np.dtype(dtype).itemsize
    acc = np.random.default_rng(blocks).integers(0, 3, L).astype(dtype)
    values = np.array([0, 1] + [j * cells + d for j in range(1, blocks + 1) for d in (-1, 0, 1)])
    return counting._BLOCK_BYTES, acc, values, blocks * cells


def _hand_built_base_case():
    """A SmoothSet built by hand with its members out of order (the class does
    not sort them): the cubes of the 7-smooth integers up to 60, shuffled,
    over ten blocks."""
    sm = smooth_set(60, 7)
    base = SmoothSet(sm.P, sm.R, np.random.default_rng(3).permutation(sm.members))
    N = 3 * 60**3
    values = _summands(3, 1, N, "none", base=base)[0]
    return counting._BLOCK_BYTES, np.random.default_rng(4).integers(0, 3, 70_000), values, N


@given(_fold_cases())
@example(_hand_built_base_case())
@example(_full_size_case(np.int64, 2, 2 * 65536 + 1))
@example(_full_size_case(np.int64, 3, 1))
@example(_full_size_case(np.int8, 2, 2 * 524288 + 1))
@example(_full_size_case(bool, 2, 524288 + 7))
@example(_full_size_case(object, 1, 65536 + 1))
def test_blocked_fold_matches_the_per_summand_oracle(case):
    block_bytes, acc, values, N = case
    with mock.patch.object(counting, "_BLOCK_BYTES", block_bytes):
        got = _fold(acc, values, N)
    want = fold_oracle.fold(acc, values, N)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_wide_int64_table_keeps_exact_entries_and_total():
    # sum(acc) * |kernel| passes 2**62 before the last fold, but no entry
    # can pass 2**61: the table stays int64 while its total needs 65 bits
    t = power_convolution(1, 8, 1000, allow_zero=True)
    assert t.counts.dtype == np.int64
    assert t.counts.tolist() == [math.comb(m + 7, 7) for m in range(1001)]
    assert t.total() == math.comb(1008, 8) > 2**64


def test_backstop_covers_the_x_fold(monkeypatch):
    # with the int64 rung's bound lifted, the nine y folds climb the ladder
    # to int64 (entries near 2**61) and the square fold then wraps; the
    # backstop on the finished table must see it
    monkeypatch.setattr(counting, "_INT64_MAX", 2**80)
    with pytest.raises(ArithmeticError, match="overflow"):
        representation_counts(1, 9, 700)


def test_count_tables_under_the_sieve_budget(monkeypatch):
    # refused before any array exists: without numpy, any allocation would
    # raise another error
    monkeypatch.setattr(counting, "np", None)
    N = DEFAULT_MAX_LIMIT + 1
    with pytest.raises(CapacityLimit):
        representation_counts(3, 2, N)
    with pytest.raises(CapacityLimit):
        zero_set(3, 2, N)
    with pytest.raises(CapacityLimit):
        moment_exact(1, N // 3, 3, 3)  # the 3-smooth set {1, 2, 3}: N = r * 3
    with pytest.raises(CapacityLimit):
        mean_value_N(1, N // 3, 3, 3)  # the same y-values and x = 1: N = r * 3 + 1


# ---------------------------------------------------------------------------
# representation_counts / zero_set
# ---------------------------------------------------------------------------


def test_biquadrate_reference_counts():
    t = representation_counts(4, 6, 200)
    assert t[15] == 1
    assert t[47] == 0


def test_zero_set_reference():
    assert zero_set(4, 6, 200) == [47, 62, 63, 77, 78, 79, 143, 158, 159]
    assert zero_set(4, 6, 46) == []


def test_cube_plus_square_zero_set_vs_brute():
    got = zero_set(3, 1, 20)
    reachable = set()
    for x in range(0, 5):
        for y in range(0, 3):
            v = x * x + y**3
            if v <= 20:
                reachable.add(v)
    assert got == [n for n in range(1, 21) if n not in reachable]


def test_r35_of_five():
    t = representation_counts(3, 5, 5)
    assert t[5] == 11  # x=0: 1 way; x=1: 5 ways; x=2: 5 ways


def test_representation_counts_brute(rng):
    N = 120
    t = representation_counts(3, 2, N)
    brute = np.zeros(N + 1, dtype=np.int64)
    for x in range(0, math.isqrt(N) + 1):
        for y1 in range(0, iroot(N, 3) + 1):
            for y2 in range(0, iroot(N, 3) + 1):
                v = x * x + y1**3 + y2**3
                if v <= N:
                    brute[v] += 1
    assert np.array_equal(t.counts, brute)


def test_prime_square_natural_variant():
    # x prime, y_j >= 1
    t = representation_counts(3, 2, 100, x_kind="prime_square", y_nonneg=False)
    brute = np.zeros(101, dtype=np.int64)
    for p in (2, 3, 5, 7):
        for y1 in range(1, 5):
            for y2 in range(1, 5):
                v = p * p + y1**3 + y2**3
                if v <= 100:
                    brute[v] += 1
    assert np.array_equal(t.counts, brute)


def test_sixteen_n_identity():
    t = representation_counts(4, 6, 16 * 300)
    for n in range(1, 301):
        assert t[16 * n] == t[n]


def test_doubling_map_is_a_bijection():
    # (x, y1..y6) -> (4x, 2y1..2y6) maps solutions at n into solutions at
    # 16n; it is injective, so matching cardinalities (from the exact count
    # table) make it onto.  Enumerate the small side, count the big side.
    N = 300
    sols: dict[int, list] = {n: [] for n in range(0, N + 1)}
    for x in range(0, math.isqrt(N) + 1):
        for y in itertools.product(range(0, iroot(N, 4) + 1), repeat=6):
            v = x * x + sum(t**4 for t in y)
            if v <= N:
                sols[v].append((x,) + y)
    table = representation_counts(4, 6, 16 * N)
    for n in range(1, N + 1):
        assert len(sols[n]) == table[n]
        for s in sols[n]:
            X, *Y = (4 * s[0],) + tuple(2 * t for t in s[1:])
            assert X * X + sum(t**4 for t in Y) == 16 * n
        assert len(sols[n]) == table[16 * n]  # injective + equal count = onto


def test_doubling_map_surjective_small_direct():
    # independent full enumeration of the 16n side for tiny n: every 6-tuple
    # of fourth powers up to 16N once, indexed by its sum (a tuple summing to
    # at most v has every entry at most iroot(v, 4), so one index serves both
    # sides of every n)
    N = 30
    Ymax = iroot(16 * N, 4)
    by_sum = defaultdict(list)
    for y in itertools.product(range(0, Ymax + 1), repeat=6):
        by_sum[sum(t**4 for t in y)].append(y)

    def solutions(v):
        return {(x,) + y for x in range(0, math.isqrt(v) + 1) for y in by_sum[v - x * x]}

    for n in range(1, N + 1):
        big = solutions(16 * n)
        small = solutions(n)
        mapped = {(4 * s[0],) + tuple(2 * t for t in s[1:]) for s in small}
        assert mapped == big, n


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _enumerated_counts(k, s, N, x_kind, x_nonneg, y_nonneg, h, members):
    """Counts of x_term + y_1^k + ... + y_s^k = n, one summand at a time in
    Python integers; members is None for every y >= 1."""
    ys = [0] if y_nonneg else []
    ys += [y**k for y in range(1, N + 1) if y**k <= N and (members is None or y in members)]
    x_start = 0 if x_nonneg else 1
    xs = {
        "square": [x * x for x in range(x_start, N + 1) if x * x <= N],
        "prime_square": [p * p for p in range(2, N + 1) if p * p <= N and _is_prime(p)],
        "hth_power": [x**h for x in range(x_start, N + 1) if x**h <= N] if h else [],
        "none": [0],
    }[x_kind]
    counts = [1] + [0] * N
    for vals in [ys] * s + [xs]:
        nxt = [0] * (N + 1)
        for t, c in enumerate(counts):
            for v in vals:
                if c and t + v <= N:
                    nxt[t + v] += c
        counts = nxt
    return xs, counts


@given(
    k=st.integers(2, 5),
    s=st.integers(1, 4),
    N=st.integers(1, 300),
    x_kind=st.sampled_from(["square", "prime_square", "hth_power", "none"]),
    x_nonneg=st.booleans(),
    y_nonneg=st.booleans(),
    h=st.sampled_from([None, 1, 2, 3, 4]),
    smooth=st.one_of(st.none(), st.tuples(st.integers(2, 20), st.integers(2, 20))),
)
def test_counts_and_zero_sets_match_enumeration(k, s, N, x_kind, x_nonneg, y_nonneg, h, smooth):
    base, members = "all", None
    if smooth is not None:
        base = smooth_set(max(smooth), min(smooth))
        members = {int(m) for m in base.members}
    kwargs = dict(x_kind=x_kind, x_nonneg=x_nonneg, y_nonneg=y_nonneg, h=h, base=base)
    xs, ref = _enumerated_counts(k, s, N, x_kind, x_nonneg, y_nonneg, h, members)
    if not xs:
        for f in (representation_counts, zero_set):
            with pytest.raises(ValueError):
                f(k, s, N, **kwargs)
        return
    t = representation_counts(k, s, N, **kwargs)
    assert t.counts.dtype == np.int64
    assert t.counts.tolist() == ref
    assert t.total() == sum(ref)
    assert zero_set(k, s, N, **kwargs) == [n for n in range(1, N + 1) if ref[n] == 0]


def test_zero_set_matches_count_table(rng):
    # the oracle sieves candidates by the x-values and never folds them; the
    # last four draws (k >= 3, N near 1e5) fold the x-values first
    for i in range(20):
        k, s = int(rng.integers(2, 6) if i < 16 else rng.integers(3, 6)), int(rng.integers(1, 5))
        N = int(rng.integers(2000, 6000) if i < 16 else rng.integers(90000, 110000))
        kwargs = dict(
            x_kind=("square", "prime_square", "hth_power", "none")[i % 4],
            x_nonneg=bool(rng.integers(2)), y_nonneg=bool(rng.integers(2)), h=3,
            base="all" if i % 3 else smooth_set(int(rng.integers(20, 80)), int(rng.integers(2, 20))),
        )
        assert zero_set(k, s, N, **kwargs) == sieve_zero_set(k, s, N, **kwargs), (k, s, N, kwargs)


def _folds_in_fixed_order(ys, s, N, xs, seed=object):
    """The same folds as _count_table, y-values s times and then the x-values;
    on the default object seed, Python integers that never widen or wrap."""
    acc = np.ones(1, dtype=seed)
    for values in [ys] * s + ([] if xs is None else [xs]):
        acc = _fold(acc, values, N)
    return acc


@given(
    k=st.integers(1, 5),
    s=st.integers(1, 5),
    N=st.integers(1, 300),
    x_kind=st.sampled_from(["square", "prime_square", "hth_power", "none"]),
    x_nonneg=st.booleans(),
    y_nonneg=st.booleans(),
    h=st.integers(1, 4),
    smooth=st.one_of(st.none(), st.tuples(st.integers(2, 20), st.integers(2, 20))),
)
def test_fold_order_changes_no_table(k, s, N, x_kind, x_nonneg, y_nonneg, h, smooth):
    base = "all" if smooth is None else smooth_set(max(smooth), min(smooth))
    try:
        ys, xs = _summands(k, s, N, x_kind, x_nonneg, y_nonneg, h, base)
    except ValueError:  # an empty summand list
        return
    ref = _folds_in_fixed_order(ys, s, N, xs)
    assert _count_table(ys, s, N, xs).counts.tolist() == ref.tolist()
    assert _count_table(ys, s, N, xs, dtype=bool).counts.tolist() == (ref > 0).tolist()


@pytest.mark.parametrize("members", [[5, 1, 3, 1, 2, 5, 4], [2] * 130 + [3, 1, 3]])
@pytest.mark.parametrize("x_kind", ["none", "square"])
def test_hand_built_base_with_repeats_matches_fixed_order_folds(members, x_kind):
    # a SmoothSet built by hand is neither sorted nor deduplicated: a repeated
    # member is one more summand in the first bincount as in a fold (130 twos
    # start the table past int8), and the boolean scatter takes it once
    base = SmoothSet(5, 5, np.array(members, dtype=np.int64))
    for s, N in ((1, 200), (2, 400), (3, 500)):
        ys, xs = _summands(3, s, N, x_kind, base=base)
        ref = _folds_in_fixed_order(ys, s, N, xs)
        assert _count_table(ys, s, N, xs).counts.tolist() == ref.tolist()
        assert _count_table(ys, s, N, xs, dtype=bool).counts.tolist() == (ref > 0).tolist()


def test_wide_table_is_the_same_in_either_fold_order():
    # 20 cubes and a square: entries reach 65 bits, so both orders widen to
    # object dtype, at different folds
    ys, xs = _summands(3, 20, 5000)
    ref = _folds_in_fixed_order(ys, 20, 5000, xs)
    assert max(ref).bit_length() == 65
    assert _folds_in_fixed_order(ys, 20, 5000, xs, seed=np.int64).dtype == object
    t = representation_counts(3, 20, 5000)
    assert t.counts.dtype == object
    assert t.counts.tolist() == ref.tolist()


def test_zero_set_holds_no_int64_candidates():
    # two boolean tables of N + 1 entries at the peak; an int64 candidate
    # list would cost 8 bytes per n on its own
    N = 2 * 10**6
    tracemalloc.start()
    try:
        zero_set(4, 6, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * N, peak / N


def test_count_table_memory_ceiling():
    # each fold's rung copy replaces the table before the fold allocates its
    # output: beyond the returned int64 table at most one more of its size is
    # alive (a narrower table kept beside them would read about 2.5x)
    N = 2 * 10**5
    tracemalloc.start()
    try:
        t = representation_counts(3, 8, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * t.counts.nbytes, peak / t.counts.nbytes


def test_square_and_fourth_power_ranges_mod16():
    assert {(x * x) % 16 for x in range(1, 101)} == {0, 1, 4, 9}
    assert {(y**4) % 16 for y in range(1, 101)} == {0, 1}


# ---------------------------------------------------------------------------
# nu_convolution
# ---------------------------------------------------------------------------


def test_nu_squares_vs_brute():
    n = 500
    P = iroot(n, 3)
    sm = smooth_set(P, P)
    rho = power_convolution(3, 2, n, base=sm)
    w = make_weight("squares", n)
    members = [int(m) for m in sm.members]
    for nv in range(2, 501, 61):
        brute = 0
        for x in range(1, math.isqrt(nv) + 1):
            for y1 in members:
                for y2 in members:
                    if x * x + y1**3 + y2**3 == nv:
                        brute += 1
        assert nu_convolution(w, rho, nv) == brute


def test_nu_zero_weight():
    w = make_weight("e2", 100)
    rho = power_convolution(3, 2, 100)
    assert nu_convolution(w, rho, 100) == 0


def test_nu_keeps_a_non_integer_weight_unrounded():
    # within allclose's rtol of an integer, but not an integer
    w = Weight(n=10, support=np.array([1, 2]), values=np.array([100000.5, 3.0]))
    rho = power_convolution(1, 1, 10)  # one way to write each m >= 1
    assert nu_convolution(w, rho, 10) == 100003.5


def test_nu_mobius_cancellation():
    # cancellation diagnostic, frozen as a regression bound
    n = 10**4
    P = iroot(n, 3)
    rho = power_convolution(3, 8, n, base=smooth_set(P, P))
    w = make_weight("mobius", n)
    val = nu_convolution(w, rho, n)
    assert abs(val) <= 0.05 * rho.total()


def test_nu_bounded_by_full_count():
    n = 400
    rho = power_convolution(3, 3, n)
    w = make_weight("squares", n)
    full = representation_counts(3, 3, n, x_nonneg=False, y_nonneg=False)
    for nv in (50, 200, 399):
        assert nu_convolution(w, rho, nv) <= full[nv] + 0  # x >= 1, y >= 1 subsets


# ---------------------------------------------------------------------------
# moment_exact / mean_value_N
# ---------------------------------------------------------------------------


def test_moment_diagonal_only():
    assert moment_exact(3, 1, 10, 10) == 10


def test_moment_quadruple_loop():
    def brute(P):
        return sum(
            1
            for x in itertools.product(range(1, P + 1), repeat=4)
            if x[0] ** 3 + x[1] ** 3 == x[2] ** 3 + x[3] ** 3
        )

    assert moment_exact(3, 2, 10, 10) == brute(10) == 190
    assert moment_exact(3, 2, 12, 12) == brute(12) == 284


def test_parseval_identity():
    sm = smooth_set(9, 9)
    t = power_convolution(3, 2, 2 * 9**3, base=sm)
    assert int((t.counts.astype(object) ** 2).sum()) == moment_exact(3, 2, 9, 9)


def _square_difference_count(k, r, n, R):
    """x1^2 - x2^2 = sum y^k - sum z^k counted from the differences of every
    two r-fold sums, with no count table and no Parseval sum."""
    P, X = iroot(n, k), math.isqrt(n)

    def smooth(m):
        for p in range(2, R + 1):
            while m % p == 0:
                m //= p
        return m == 1

    members = [m for m in range(1, P + 1) if smooth(m)]
    sums = Counter(sum(y**k for y in ys) for ys in itertools.product(members, repeat=r))
    diffs = Counter()
    for a, ca in sums.items():
        for b, cb in sums.items():
            diffs[a - b] += ca * cb
    return sum(diffs[x1 * x1 - x2 * x2] for x1 in range(1, X + 1) for x2 in range(1, X + 1))


@st.composite
def _mean_value_inputs(draw):
    k, r = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    # P**r stays at most 300, so the oracle pairs few r-fold sums
    P = draw(st.integers(2, min(iroot(2000, k), iroot(300, r))))
    n = draw(st.integers(P**k, min(2000, (P + 1) ** k - 1)))
    return k, r, n, draw(st.integers(2, P))


@given(_mean_value_inputs())
@example((3, 1, 64, 4))
@example((4, 1, 81, 3))
def test_mean_value_small_oracle(case):
    assert mean_value_N(*case) == _square_difference_count(*case)


def test_mean_value_past_the_int64_range():
    # sum(rho**2) is about 2.5e19, past 2**64
    assert mean_value_N(3, 10, 1000, 10) == 25420972793156919140


def test_mean_value_diagonal_lower_bound():
    n, k, r, R = 10**4, 3, 1, 21
    P = iroot(n, k)
    assert mean_value_N(k, r, n, R) >= math.isqrt(n) * moment_exact(k, r, P, R)


def test_mean_value_growth():
    k, r = 3, 1
    vals = {}
    for n in (10**3, 10**4, 10**5):
        vals[n] = mean_value_N(k, r, n, iroot(n, k))
    factor = 2.0 ** ((2 * r + 1) / k + 2)
    for n in (10**3, 10**4):
        lo, hi = vals[n], vals[10 * n]
        assert hi / lo <= (10.0 ** ((2 * r + 1) / k)) * 10 ** 2  # generous envelope
    # frozen growth-by-doubling check on the geometric subsequence
    assert vals[10**4] / vals[10**3] < factor ** math.log2(10)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_full_matches_parseval():
    P, k = 10, 3
    w = make_weight("smooth_kth_powers", P**k, k=k, P=P, R=P)
    res = quadrature_moment(w, 2, grid_points=P**k + 17)
    assert res.value == pytest.approx(moment_exact(k, 1, P, P), rel=1e-3)
    assert res.rel_change < 5e-3


def test_quadrature_t4_matches_exact():
    P, k = 30, 3
    w = make_weight("smooth_kth_powers", P**k, k=k, P=P, R=P)
    res = quadrature_moment(w, 4, grid_points=2 * P**k + 17)
    assert abs(res.value - moment_exact(k, 2, P, P)) / moment_exact(k, 2, P, P) < 1e-3
    assert res.rel_change < 5e-3


def test_quadrature_alias_free_grid_is_exact():
    # |W|^(2r) has frequencies |f| <= r P^k, so a grid of G > 2 r P^k points
    # integrates it exactly; only rounding separates the two values
    for k, r, P, R in ((3, 1, 10, 10), (3, 2, 12, 5), (4, 2, 6, 6)):
        w = make_weight("smooth_kth_powers", P**k, k=k, P=P, R=R)
        G = max(1000, 2 * r * P**k + 1)
        res = quadrature_moment(w, 2 * r, grid_points=G)
        exact = moment_exact(k, r, P, R)
        assert abs(res.value - exact) <= 1e-12 * exact
        assert abs(res.doubled_value - exact) <= 1e-12 * exact


def test_quadrature_major_monotone_in_Q():
    P, k = 10, 3
    n = P**k
    w = make_weight("smooth_kth_powers", n, k=k, P=P, R=P)
    values = [
        quadrature_moment(w, 2, region="major", Q=Q, grid_points=4096, doubling=False).value
        for Q in (2.0, 8.0, 15.0)
    ]
    assert values[0] <= values[1] <= values[2]
    full = quadrature_moment(w, 2, grid_points=4096, doubling=False).value
    assert values[-1] <= full + 1e-9


def test_quadrature_checks_region_before_any_transform(monkeypatch):
    def no_transform(*args):
        raise AssertionError("exp_sum_grid ran before the region check")

    monkeypatch.setattr(counting, "exp_sum_grid", no_transform)
    w = make_weight("squares", 10**4)
    for region, Q, fault in (("bogus", None, "unknown region"), ("bogus", 4.0, "unknown region"),
                             ("major", None, "needs Q"), ("slice", None, "needs Q")):
        with pytest.raises(ValueError, match=fault):
            quadrature_moment(w, 2, region=region, Q=Q, grid_points=20_000)


def _exact_arc_integrals(w, t, n, q, a_values, U):
    """The trapezoid in u of |W(a/q + u/n)|^t from exact phases, arc by arc."""
    from partitio.counting import _arc_ugrid, _trapezoid

    us = _arc_ugrid(U)
    values = []
    for a in a_values:
        grid = us[us >= 0] if a == 0 else us[us <= 0] if a == q else us
        integrand = np.abs(exact_arcs(w, q, [a], grid / n)[0]) ** t
        values.append(_trapezoid(integrand, grid) / n)
    return np.array(values)


def test_arc_integrals_batch_matches_arc_by_arc():
    # one evaluation per q over all its arcs; each arc's trapezoid must equal
    # the one taken on its own grid from exact phases, endpoint half-arcs included
    from math import gcd

    from partitio.counting import _arc_integrals

    P = 40
    n = P**3
    w = make_weight("smooth_kth_powers", n, k=3, P=P, R=7)
    for q, t in ((1, 2), (1, 4), (7, 2), (7, 4)):
        a_values = [a for a in range(0, q + 1) if gcd(a, q) == 1]
        U = 0.5 * math.sqrt(n) / q
        batch = _arc_integrals(w, t, n, q, a_values, U)
        exact = _exact_arc_integrals(w, t, n, q, a_values, U)
        assert batch == pytest.approx(exact, rel=1e-13)


def test_major_arc_moment_past_2_53():
    # 3-smooth cubes up to 210000**3: the top term 9.25e15 passes 2**53, but
    # |beta m| stays at most 40, and a/q comes from exact residues, so no
    # phase is off by more than 2**-53 * 40 (float points a/q + beta raise)
    from partitio.counting import _arc_integrals

    P = 210000
    n = P**3
    w = make_weight("smooth_kth_powers", n, k=3, P=P, R=3)
    assert len(w.support) == 114 and int(w.support.max()) > 2**53
    value = major_arc_moment(w, 2, 40.0, n, exact_q=8, band_q_samples=4, band_a_samples=4)
    assert value > 0
    for q, a_values in ((1, [0, 1]), (2, [1])):
        got = _arc_integrals(w, 2, n, q, a_values, 40.0 / q)
        exact = _exact_arc_integrals(w, 2, n, q, a_values, 40.0 / q)
        assert got == pytest.approx(exact, rel=1e-12)


@settings(max_examples=25)
@given(
    n=st.one_of(st.integers(2, 10**4), st.integers(10**4, 10**9)),
    Q=st.floats(0.5, 3000.0),
    exact_q=st.integers(1, 12),
    band_q=st.integers(1, 6),
    band_a=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=10**4, Q=150.0, exact_q=48, band_q=40, band_a=16, seed=0)  # the defaults
# q = 10007 has phi = 10006 > 10,000 and 300 > 10006 // 50: numpy's choice
# takes its tail shuffle there, not Floyd's method
@example(n=10**8, Q=10007.5, exact_q=2, band_q=2, band_a=300, seed=3)
def test_major_arc_moment_matches_the_per_q_oracle(n, Q, exact_q, band_q, band_a, seed):
    # the exact-q and band loops read one residue pass per loop: the same
    # residues, the same draws and the same sum as one mask and choice per q
    w = make_weight("squares", 400)
    args = (w, 2, Q, n)
    kw = dict(exact_q=exact_q, band_q_samples=band_q, band_a_samples=band_a, seed=seed)
    assert major_arc_moment(*args, **kw) == sampler_oracle.major_arc_moment(*args, **kw)


def test_major_arc_moment_reads_the_exact_residues_a_slice_at_a_time(monkeypatch):
    # the exact-q loop over q <= 2100 (2.2e6 mask cells) asks for the residues
    # in slices of at most about 2**21 cells, so its memory does not grow as
    # exact_q**2; every q still gets the a of its trial-division mask, in order
    spans, seen = [], []
    real = counting.reduced_residues

    def residues(qs, *args):
        spans.append(qs.tolist())
        return real(qs, *args)

    def integrals(w, t, n, q, a_values, U):
        seen.append((q, a_values))
        return np.zeros(len(a_values))

    monkeypatch.setattr(counting, "reduced_residues", residues)
    monkeypatch.setattr(counting, "_arc_integrals", integrals)
    major_arc_moment(make_weight("squares", 400), 2, 2100.0, 10**9, exact_q=2100)
    assert len(spans) > 1 and all(sum(s) + len(s) <= 2**21 + 2**12 for s in spans)
    assert sum(spans, []) == list(range(1, 2101)) == [q for q, _ in seen]
    for q, a_values in seen[::7] + seen[-5:]:
        assert np.array_equal(a_values, np.flatnonzero(sampler_oracle.trial_division_mask(q)))


@pytest.mark.parametrize("bad", [dict(exact_q=0), dict(exact_q=-3), dict(band_q_samples=0),
                                 dict(band_a_samples=0)])
def test_major_arc_moment_rejects_empty_samples(bad):
    # exact_q < 1 never left the band loop; zero samples gave nan or a numpy error
    w = make_weight("smooth_kth_powers", 20**3, k=3, P=20, R=5)
    with pytest.raises(ValueError, match=next(iter(bad))):
        major_arc_moment(w, 2, 400.0, 20**3, **bad)
