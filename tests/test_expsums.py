import dataclasses
import math
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from partitio import cli, expsums
from partitio.arith import DEFAULT_MAX_LIMIT, CapacityLimit, PrecisionLimit, smooth_set
from partitio.expsums import (
    DecayFit,
    exp_sum_grid,
    exp_sum_many,
    exp_sum_rational,
    fit_decay,
    sup_profile,
)
from partitio.weights import KINDS, Weight, make_weight

from phase_oracle import dense_cos_sin, exact_arcs


def test_exp_sum_at_zero_counts_support():
    sm = smooth_set(50, 7)
    w = make_weight("smooth_kth_powers", 50**3, k=3, P=50, R=7)
    assert exp_sum_many(w, np.array([0.0]))[0] == pytest.approx(len(sm), rel=1e-12)


def test_exp_sum_half_squares():
    # four-term evaluation: e(1/2) + e(2) + e(9/2) + e(8) = -1 + 1 - 1 + 1
    w = make_weight("squares", 16)
    assert exp_sum_many(w, np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-12)


def test_exp_sum_equals_definition(rng):
    w = make_weight("squares", 10**4)
    for alpha in rng.random(100):
        direct = sum(np.exp(2j * np.pi * alpha * m) for m in w.support)
        assert exp_sum_many(w, np.array([float(alpha)]))[0] == pytest.approx(direct, rel=1e-9)


def test_exp_sum_many_matches_scalar(rng):
    w = make_weight("mobius", 3000)
    alphas = rng.random(40)
    batch = exp_sum_many(w, alphas)
    for a, b in zip(alphas, batch):
        assert exp_sum_many(w, np.array([float(a)]))[0] == pytest.approx(b, abs=1e-9 * w.norm)


def _reduced(w, alphas):
    t = np.asarray(alphas, dtype=float) * float(w.phase)
    return t - np.floor(t)


def _dense_oracle(w, alphas):
    return dense_cos_sin(w.support.astype(float), w.values, _reduced(w, alphas))


def _grid_length(w):
    return expsums._smooth_length(2 * (int(w.support.max() - w.support.min()) + 1))


def _test_weight(kind, n, j):
    if kind == "signed":  # signed real values on a scattered random support
        rng = np.random.default_rng(n)
        support = np.unique(rng.integers(1, n + 1, size=max(2, n // 5)))
        return Weight(n=n, support=support, values=rng.normal(size=len(support)))
    if kind == "hth_powers":
        return make_weight(kind, n, h=2 + j)
    if kind == "smooth_kth_powers":
        P = max(2, round(n ** (1 / 3)))
        return make_weight(kind, n, k=3, P=P, R=max(2, P // 7))
    return make_weight(kind, n, j=j) if kind == "e2" else make_weight(kind, n)


@given(
    kind=st.sampled_from(("mobius", "primes_log", "squares", "e2", "signed")),
    log_n=st.floats(min_value=1.7, max_value=5.3),
    j=st.sampled_from((1, 2)),
    q=st.integers(min_value=1, max_value=97),
    a=st.integers(min_value=0, max_value=97),
    nodes=st.lists(st.integers(min_value=0, max_value=2**22), min_size=1, max_size=3),
    others=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
)
@example(kind="e2", log_n=5.3, j=2, q=7, a=3, nodes=[0, 12345], others=[0.3])
@example(kind="e2", log_n=5.0, j=1, q=97, a=41, nodes=[2**22], others=[])
@example(kind="mobius", log_n=5.3, j=1, q=3, a=1, nodes=[1, 99999], others=[0.5])
@example(kind="primes_log", log_n=5.3, j=2, q=31, a=7, nodes=[7], others=[1e-9])
@example(kind="squares", log_n=5.3, j=1, q=2, a=1, nodes=[3], others=[0.999])
@example(kind="signed", log_n=5.3, j=2, q=1, a=0, nodes=[5], others=[0.25])
def test_exp_sum_many_and_nufft_match_dense_oracle(kind, log_n, j, q, a, nodes, others):
    n = int(10**log_n)
    if kind == "e2":
        n = max(n, 7**6)  # the first n with a nonempty e2 support
    w = _test_weight(kind, n, j)
    w = dataclasses.replace(w, phase=j * w.phase)
    R = _grid_length(w)
    alphas = np.array(
        [0.0, 1.0, np.nextafter(1.0, 0.0), (a % (q + 1)) / q]
        + [(node % R) / R for node in nodes] + others
    )
    oracle = _dense_oracle(w, alphas)
    tol = 1e-10 * w.norm
    assert np.abs(exp_sum_many(w, alphas) - oracle).max() <= tol
    forced = expsums._nufft(w, _reduced(w, alphas), R)
    assert np.abs(forced - oracle).max() <= tol


@given(
    kind=st.sampled_from(KINDS + ("signed",)),
    log_n=st.floats(min_value=1.7, max_value=9.0),
    j=st.sampled_from((1, 2)),
    alphas=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
@example(kind="prime_squares", log_n=9.0, j=1, alphas=[0.5, 1 / 3, np.nextafter(1.0, 0.0)])
@example(kind="mobius", log_n=6.0, j=1, alphas=[0.0, 0.25, 0.123456789])
@example(kind="squares", log_n=9.0, j=1, alphas=[0.5, 0.75])
@example(kind="e2", log_n=9.0, j=2, alphas=[0.3, 0.5])
def test_dense_matches_cos_sin_oracle(kind, log_n, j, alphas):
    # the same reduced phases through the tangent kernel and through libm cos
    # and sin: only the turn of a phase into e(x) differs.  Thin kinds go up
    # to n = 1e9, dense ones to 1e6.
    n = int(10**log_n)
    w = _test_weight(kind, min(n, 10**6) if kind in ("primes_log", "mobius", "signed") else n, j)
    if len(w.support) == 0:
        return
    m, t = w.support.astype(float), _reduced(w, alphas)
    got = expsums._dense(m, w.values, t)
    assert np.abs(got - dense_cos_sin(m, w.values, t)).max() <= 1e-13 * w.norm


def test_unit_edges(rng):
    half = np.nextafter(0.5, 0.0)
    tiny = np.array([5e-324, 2.0**-1030, np.finfo(float).tiny, 1e-300])
    x = np.concatenate([[0.0, 0.25, 0.5, half, 1.0, 3.5, 2.0**40 + 0.5], tiny,
                        rng.random(1000) - 0.5, rng.uniform(-1e6, 1e6, 1000)])
    x = np.concatenate([x, -x])
    z = expsums._unit(x.copy())
    assert np.isfinite(z.real).all() and np.isfinite(z.imag).all()
    assert np.abs(np.abs(z) - 1).max() <= 4 * np.finfo(float).eps
    assert np.abs(z - np.exp(2j * np.pi * (x - np.rint(x)))).max() <= 1e-15
    assert z[0] == 1 and z[2].real == -1
    # e(-x) is conj(e(x)) bit for bit; at an integer x both reduce to +0, so
    # there the zero sines differ in sign only
    plus, minus, x = z[: len(z) // 2], z[len(z) // 2 :], x[: len(z) // 2]
    whole = x == np.rint(x)
    assert minus[~whole].tobytes() == plus[~whole].conj().tobytes()
    assert (minus[whole] == plus[whole].conj()).all()


def test_nufft_exact_phases_at_large_span(rng):
    # phases t*m exact to the last bit (Python integers on t = num / 2**e): the
    # NUFFT error stays at the kernel's ~1e-15 of the norm where a float
    # product m0 * t alone would be off by ~1e-16 * m0 ~ 1e-10
    n = 10**6
    support = np.unique(rng.integers(1, n + 1, size=300))
    values = rng.normal(size=len(support))
    w = Weight(n=n, support=support, values=values)
    alphas = np.concatenate([[np.nextafter(1.0, 0.0), 1 / 3, 0.5, 2 / 7], rng.random(4)])
    exact = []
    for alpha in alphas:
        num, den = float(alpha).as_integer_ratio()
        phases = np.array([(int(m) * num % den) / den for m in support])
        exact.append(np.sum(values * np.exp(2j * np.pi * phases)))
    got = expsums._nufft(w, _reduced(w, alphas), _grid_length(w))
    assert np.abs(got - np.array(exact)).max() <= 1e-13 * w.norm



@settings(max_examples=20)
@given(
    kind=st.sampled_from(("mobius", "primes_log", "signed")),
    calls=st.lists(st.tuples(st.integers(min_value=2, max_value=300), st.sampled_from((1, 2)),
                             st.integers(min_value=0, max_value=2**32 - 1)),
                   min_size=1, max_size=4),
    order=st.randoms(use_true_random=False),
)
def test_planned_weight_matches_fresh_weight_bitwise(kind, calls, order):
    # one weight per phase serves every call from its plan, in shuffled order
    # and each call twice; a replace() copy starts without a plan and
    # transforms anew
    w = _test_weight(kind, 30000, 1)
    phased = {j: dataclasses.replace(w, phase=j) for j in (1, 2)}
    points = [np.random.default_rng(seed).random(count) for count, _, seed in calls]
    fresh = [exp_sum_many(dataclasses.replace(phased[j]), x)
             for x, (_, j, _) in zip(points, calls)]
    schedule = list(range(len(calls))) * 2
    order.shuffle(schedule)
    for i in schedule:
        assert exp_sum_many(phased[calls[i][1]], points[i]).tobytes() == fresh[i].tobytes()


def _count_rfft(monkeypatch):
    calls = []
    rfft = np.fft.rfft

    def spy(*args, **kwargs):
        calls.append(len(args[0]))
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    return calls


def test_plan_is_outside_the_dataclass_fields(monkeypatch):
    w = make_weight("mobius", 10**5)
    twin, text = dataclasses.replace(w), repr(w)
    names = [f.name for f in dataclasses.fields(w)]
    rffts = _count_rfft(monkeypatch)
    rng = np.random.default_rng(1)
    for _ in range(3):
        exp_sum_many(w, rng.random(64))
    assert len(rffts) == 1 and "_nufft_plan" in vars(w)
    assert [f.name for f in dataclasses.fields(w)] == names
    assert w == twin and repr(w) == text


def test_cli_weights_transforms_the_weight_once(monkeypatch, capsys):
    argv = ["weights", "--kind", "primes_log", "--limit", "200000", "--format", "csv"]
    rffts = _count_rfft(monkeypatch)
    assert cli.main(argv) == 0
    planned = capsys.readouterr().out
    assert len(rffts) == 1

    # the per-call transform: drop the plan before every NUFFT call
    plan = expsums._plan

    def unplanned(w, R):
        vars(w).pop("_nufft_plan", None)
        return plan(w, R)

    monkeypatch.setattr(expsums, "_plan", unplanned)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == planned
    assert len(rffts) > 2

def _kernel_taken(monkeypatch, w, points):
    taken = []
    for name in ("_dense", "_nufft"):
        def spy(*args, _kernel=getattr(expsums, name), _name=name):
            taken.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(expsums, name, spy)
    exp_sum_many(w, np.random.default_rng(0).random(points))
    monkeypatch.undo()
    return taken


def test_kernel_choice(monkeypatch):
    mobius = make_weight("mobius", 10**5)
    assert _kernel_taken(monkeypatch, mobius, 1) == ["_dense"]
    assert _kernel_taken(monkeypatch, mobius, 48) == ["_nufft"]
    assert _kernel_taken(monkeypatch, make_weight("squares", 10**7), 60) == ["_dense"]
    # the grid fits, but 1000 terms x 250 points is cheaper dense
    assert _kernel_taken(monkeypatch, make_weight("squares", 10**6), 250) == ["_dense"]
    assert _kernel_taken(monkeypatch, make_weight("e2", 10**10), 48) == ["_dense"]
    # 41,538 terms x 26 points: dense at one tangent per term, NUFFT at a cos and a sin
    assert _kernel_taken(monkeypatch, make_weight("primes_log", 5 * 10**5), 26) == ["_dense"]
    # at most 2w terms: dense whatever the point count
    tiny = make_weight("squares", 2 * expsums._HALF_WIDTH * (2 * expsums._HALF_WIDTH))
    assert _kernel_taken(monkeypatch, tiny, 5000) == ["_dense"]


def test_smooth_length_is_least_5_smooth():
    def smooth(r):
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        return r == 1

    for n in range(1, 3000):
        R = expsums._smooth_length(n)
        assert R >= n and smooth(R)
        assert not any(smooth(r) for r in range(n, R))


def test_precision_limit_boundary():
    def single(m, phase=1):
        return Weight(n=m, support=np.array([m], dtype=np.int64), values=np.ones(1),
                      phase=phase)

    # 2**53 - 1 is odd, so W(1/2) = e((2**53 - 1) / 2) = -1 exactly
    assert exp_sum_many(single(2**53 - 1), np.array([0.5]))[0] == pytest.approx(-1.0, abs=1e-15)
    assert exp_sum_many(single(2**53), np.array([0.5]))[0] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(PrecisionLimit):
        exp_sum_many(single(2**53 + 2), np.array([0.5]))
    assert exp_sum_many(single(2**52, phase=2), np.array([0.25]))[0] == pytest.approx(
        1.0, abs=1e-15)
    with pytest.raises(PrecisionLimit):
        exp_sum_many(single(2**52 + 1, phase=2), np.array([0.25]))
    with pytest.raises(PrecisionLimit):
        exp_sum_many(single(2**52 + 1, phase=2), np.array([0.1, 0.2]))
    # fifth powers up to 1e17: float phases would be silently wrong
    with pytest.raises(ArithmeticError):
        exp_sum_many(make_weight("hth_powers", 10**17, h=5), np.array([3 / 7]))


def test_exp_sum_phase_multiplier():
    w = make_weight("squares", 400)
    alpha = 0.1375
    doubled = dataclasses.replace(w, phase=2)
    assert exp_sum_many(doubled, np.array([alpha]))[0] == pytest.approx(
        exp_sum_many(w, np.array([2 * alpha]))[0], rel=1e-10)
    w2 = make_weight("e2", 7**6, j=2)
    direct = sum(v * np.exp(2j * np.pi * 2 * alpha * m) for m, v in zip(w2.support, w2.values))
    assert exp_sum_many(w2, np.array([alpha]))[0] == pytest.approx(direct, rel=1e-9)


def test_exp_sum_rational_q1():
    w = make_weight("primes_log", 100)
    assert exp_sum_rational(w, 1, 1) == pytest.approx(w.norm, rel=1e-12)


def test_exp_sum_rational_squares_quarter():
    # e(1/4) + e(1) + e(9/4) + e(4) = i + 1 + i + 1
    w = make_weight("squares", 16)
    assert exp_sum_rational(w, 1, 4) == pytest.approx(2 + 2j, abs=1e-12)


def test_exp_sum_rational_matches_exp_sum(rng):
    w = make_weight("squares", 5000)
    count = 0
    while count < 50:
        q = int(rng.integers(1, 200))
        a = int(rng.integers(0, q + 1))
        if gcd(a, q) != 1:
            continue
        count += 1
        assert exp_sum_rational(w, a, q) == pytest.approx(
            exp_sum_many(w, np.array([a / q]))[0], abs=1e-9 * max(1.0, w.norm)
        )


def test_exp_sum_rational_rejects_large_q():
    w = make_weight("squares", 100)
    with pytest.raises(ValueError):
        exp_sum_rational(w, 1, 101)


def _grid_oracle(w, G):
    """W(j/G) from phases reduced mod G in Python integers."""
    js = np.arange(G)
    out = np.zeros(G, dtype=complex)
    for m, v in zip(w.support.tolist(), w.values.tolist()):
        out += v * np.exp(2j * np.pi * (m * w.phase % G * js % G) / G)
    return out


@given(
    kind=st.sampled_from(("squares", "e2", "signed", "huge")),
    n=st.integers(min_value=1, max_value=3000),
    G=st.integers(min_value=1, max_value=400),
    a=st.integers(min_value=0, max_value=2000),
)
@example(kind="squares", n=100, G=1, a=5)
@example(kind="squares", n=50, G=400, a=3)
@example(kind="e2", n=7**6, G=97, a=250)
@example(kind="signed", n=300, G=299, a=1000)
@example(kind="huge", n=2**62, G=360, a=361)
def test_exp_sum_grid_matches_integer_oracle(kind, n, G, a):
    if kind == "e2":
        w = make_weight("e2", max(n, 7**6), j=2)  # phase 2
    elif kind == "huge":
        rng = np.random.default_rng(n)
        support = np.unique(rng.integers(2**53, 2**62, size=40, endpoint=True))
        values = rng.normal(size=len(support))
        w = Weight(n=2**62, support=support, values=values, phase=3)
    else:
        w = _test_weight(kind, n, 1)
    oracle = _grid_oracle(w, G)
    tol = 1e-12 * max(1.0, w.norm)
    assert np.abs(exp_sum_grid(w, G) - oracle).max() <= tol
    if G <= w.n:
        assert abs(exp_sum_rational(w, a, G) - oracle[a % G]) <= tol


def test_exp_sum_grid_empty_support():
    w = make_weight("e2", 100)
    assert len(w.support) == 0
    assert not exp_sum_grid(w, 5).any() and exp_sum_rational(w, 3, 7) == 0


def test_exp_sum_grid_under_the_sieve_budget(monkeypatch):
    # refused before any array exists: without numpy, any allocation would
    # raise another error
    w = make_weight("squares", 100)
    monkeypatch.setattr(expsums, "np", None)
    with pytest.raises(CapacityLimit):
        exp_sum_grid(w, DEFAULT_MAX_LIMIT + 1)


def _arc_weight(kind, size):
    if kind == "cubes":  # smooth cubes: sparse, wide span
        return make_weight("smooth_kth_powers", size**3, k=3, P=size, R=max(2, size // 7))
    if kind == "e2":  # phase 2
        return make_weight("e2", max(size**3, 7**6), j=2)
    if kind == "prime_squares":  # given phase 2
        return dataclasses.replace(make_weight("prime_squares", size**2), phase=2)
    if kind == "primes_log":  # dense with a small span
        return make_weight("primes_log", 10 * size)
    return _test_weight("signed", 5 * size, 1)


@given(
    kind=st.sampled_from(("cubes", "e2", "prime_squares", "primes_log", "signed")),
    size=st.integers(min_value=12, max_value=400),
    q=st.integers(min_value=1, max_value=60),
    picks=st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    us=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=6),
    U=st.floats(min_value=0.25, max_value=300.0),
)
@example(kind="cubes", size=400, q=7, picks=[3], us=[0.0, -1.0, 0.3, 1.0], U=57.0)
@example(kind="e2", size=300, q=60, picks=[59, 7], us=[0.0, 0.5], U=300.0)
@example(kind="prime_squares", size=400, q=1, picks=[], us=[-1.0, 1.0], U=1.0)
@example(kind="primes_log", size=400, q=13, picks=[1, 2, 3, 4, 5],
         us=[-1.0, -0.5, 0.0, 0.5, 1.0, 0.7], U=40.0)
@example(kind="signed", size=400, q=5, picks=[1, 2, 3, 4, 5],
         us=[-1.0, -0.5, 0.0, 0.5, 1.0, 0.7], U=9.0)
def test_exp_sum_arcs_matches_exact_phases(kind, size, q, picks, us, U):
    # a/q + beta for a in 0..q (both ends included) and |beta| <= U/n
    w = _arc_weight(kind, size)
    a_values = [0, q] + [p % (q + 1) for p in picks]
    betas = np.array(us) * U / w.n
    got = expsums.exp_sum_arcs(w, q, a_values, betas)
    assert got.shape == (len(a_values), len(betas))
    alphas = np.add.outer(np.array(a_values) / q, betas).ravel()
    flat = exp_sum_many(w, alphas).reshape(got.shape)
    exact = exact_arcs(w, q, a_values, betas)
    # the flat kernels' own bound: each float phase t m is off by 2**-53 |t m|
    flat_bound = 2 * np.pi * 2.0**-53 * np.abs(alphas * w.phase).max() * w.support.max() * w.norm
    sep_bound = 1e-13 * w.norm
    assert np.abs(got - flat).max() <= flat_bound + sep_bound
    assert np.abs(got - exact).max() <= sep_bound


def test_exp_sum_arcs_precision_limit():
    w = Weight(n=2**60, support=np.array([2**60], dtype=np.int64), values=np.ones(1))
    # exact residues carry a/q; beta m stays small, so 2**60 is no limit here
    got = expsums.exp_sum_arcs(w, 3, [0, 1, 2], np.array([0.0, 2.0**-62]))
    roots = np.exp(2j * np.pi * (np.arange(3) * (2**60 % 3) / 3))
    assert np.allclose(got, np.stack([roots, roots * 1j], axis=1), atol=1e-15)
    with pytest.raises(PrecisionLimit):
        expsums.exp_sum_arcs(w, 3, [1], np.array([2.0**-6]))
    with pytest.raises(ValueError):
        expsums.exp_sum_arcs(w, 0, [1], np.array([0.0]))
    empty = expsums.exp_sum_arcs(make_weight("e2", 100), 5, [1, 2], np.zeros(3))
    assert empty.shape == (2, 3) and not empty.any()


def test_norm_bound_sampled(rng):
    w = make_weight("primes_log", 2000)
    for alpha in rng.random(30):
        assert abs(exp_sum_many(w, np.array([float(alpha)]))[0]) <= w.norm * (1 + 1e-6)


def test_mobius_small_q_cancellation():
    # regression bound, not a proven estimate: |M(a/q)| / n stays under 0.05 at the
    # first 20+ rationals with small q
    n = 10**5
    w = make_weight("mobius", n)
    points = 0
    worst = 0.0
    for q in range(1, 9):
        for a in range(0, q + 1):
            if gcd(a, q) == 1:
                points += 1
                worst = max(worst, abs(exp_sum_rational(w, a, q)) / n)
    assert points >= 20
    assert worst <= 0.05


def test_sup_profile_constant_weight_kernel_decay():
    # w = 1 on [1, n]: |W| is the Dirichlet kernel; slice sup follows its
    # tails ~ n / (pi * u) at distance u/n from an integer (sanity only)
    n = 20000
    support = np.arange(1, n + 1, dtype=np.int64)
    from partitio.weights import Weight

    w = Weight(n=n, support=support, values=np.ones(n))
    prof = sup_profile(w, n, [8.0, 32.0, 128.0], samples_per_slice=150, seed=3)
    sups = [s for _, s in prof]
    assert sups[0] > sups[1] > sups[2]
    for (Q, sup) in prof:
        assert 0.2 * n / Q <= sup <= 3.0 * n / Q


def test_sup_profile_prime_squares_floor():
    n = 10**5
    w = make_weight("prime_squares", n)
    top = 2 * math.sqrt(n)
    Q_list = sorted(top / 2**j for j in range(5))
    prof = sup_profile(w, n, Q_list, samples_per_slice=200, seed=1)
    fit = fit_decay(prof, w.norm)
    assert fit.phi_hat >= 0.1


def test_sup_profile_deterministic():
    n = 10**4
    w = make_weight("squares", n)
    a = sup_profile(w, n, [20.0, 80.0], samples_per_slice=100, seed=7)
    b = sup_profile(w, n, [20.0, 80.0], samples_per_slice=100, seed=7)
    assert a == b


def test_sup_profile_partition_independent():
    # per-slice child seeds: computing slices separately reproduces the batch
    n = 10**4
    w = make_weight("squares", n)
    batch = sup_profile(w, n, [20.0, 80.0, 160.0], samples_per_slice=80, seed=5)
    children = np.random.SeedSequence(5).spawn(3)
    for (Q, sup), child in zip(batch, children):
        from partitio.arcs import sample_slice_alphas

        rng = np.random.default_rng(child)
        alphas = sample_slice_alphas(n, Q, 80, rng)
        again = float(np.abs(exp_sum_many(w, alphas)).max())
        assert again == sup


def test_sup_profile_refuses_the_top_slice_before_any_work(monkeypatch):
    # slices ascend, but the top one, past the sampler budget at n = 1e15, is
    # refused before any slice is sampled or summed
    def never(*args, **kwargs):
        raise AssertionError("a slice was sampled or summed before the refusal")

    monkeypatch.setattr(expsums, "exp_sum_many", never)
    monkeypatch.setattr(expsums, "sample_slice_alphas", never)
    n = 10**15
    top = 2 * math.sqrt(n)
    with pytest.raises(CapacityLimit, match=r"^top slice denominator 63245553 "
                       r"\(n = 1000000000000000, Q = 63245553\.2034\) exceeds budget 50000000$"):
        sup_profile(make_weight("squares", 100), n, [top / 2**j for j in range(5, -1, -1)])


def test_fit_decay_exact_power_law():
    prof = [(float(Q), Q**(-1 / 3)) for Q in (4, 16, 64, 256)]
    fit = fit_decay(prof, 1.0)
    assert fit.phi_hat == pytest.approx(1 / 3, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_with_noise(rng):
    qs = 2.0 ** np.arange(2, 12)
    noise = 1 + 0.01 * (2 * rng.random(len(qs)) - 1)
    prof = [(float(q), 5.0 * q**-0.42 * eps) for q, eps in zip(qs, noise)]
    fit = fit_decay(prof, 1.0)
    assert abs(fit.phi_hat - 0.42) < 0.02


def test_fit_decay_two_points_interpolates():
    prof = [(2.0, 0.5), (8.0, 0.125)]
    fit = fit_decay(prof, 1.0)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert fit.phi_hat == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_degenerate():
    with pytest.raises(ValueError):
        fit_decay([(4.0, 1.0), (4.0, 0.5)], 1.0)
    with pytest.raises(ValueError):
        fit_decay([(4.0, 1.0)], 1.0)
