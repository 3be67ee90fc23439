"""Seeded job lists for the three benchmark workloads, and the job runner.

A job is a plain dict.  ``{"job": "cli", "argv": [...]}`` runs one CLI
command in-process through ``partitio.cli.main`` with stdout captured; every
other job is one public library call for work the CLI cannot reach (sup
profiles over a chosen Q-list, ``size_slices`` windows, arc-local quadrature,
a table past the int64 guard, a warm singular series, sieve builds).  Weights
and sieves are built inside the jobs, because every CLI invocation pays for
them.  Library functions are looked up on their module at call time, so the
tracer's wrappers see every call.

Why each workload exists:

* ``sparse-slices``: thin weights (a few thousand terms at most), so exp sums
  are cheap and the scalar ``Fraction`` Farey classifier in ``arcs`` dominates.
* ``dense-weyl``: weights with tens of thousands of terms, so the dense phase
  matrix in ``expsums`` dominates at off-grid points; ``arcs`` keeps a second,
  smaller exposure.
* ``exact-tables``: exact counts, uniform-grid moments, Gauss sums, sieves,
  constant tables and emission, with no ``arcs`` call at all.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

from partitio import arcs, arith, cli, counting, expsums, singular, weights

#: The README's seven CLI commands; the weights one belongs to sparse-slices.
README_WEIGHTS = ["weights", "--kind", "squares", "--limit", "1000000", "--seed", "1"]
README_EXACT = [
    ["constants", "--format", "csv"],
    ["thm14-table"],
    ["counts", "--k", "4", "--s", "6", "--limit", "200", "--zero-set"],
    ["moments", "--k", "3", "--r", "2", "--limit", "12", "--t", "4"],
    ["singular", "--k", "3", "--s", "5", "--m", "5", "--integral", "--n", "37"],
    ["check", "--k", "7", "--s", "20", "--phi", "1/8", "--r", "4", "--t", "6"],
]

FORMATS = ("csv", "json", "pretty")


def _cli(*argv) -> dict:
    return {"job": "cli", "argv": [str(a) for a in argv]}


def _ladder(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` ascending sizes spread over [lo, hi] on a log scale, each
    jittered by 1%.  Job sizes set the latency percentiles, so they follow a
    fixed ladder; the seed changes the jitter and every other input."""
    a, step = math.log(lo), (math.log(hi) - math.log(lo)) / count
    return [math.exp(a + (i + 0.5) * step) * rng.uniform(0.99, 1.01) for i in range(count)]


def _rungs(count: int, key: str) -> list[float]:
    """The midpoints of ``count`` equal rungs of [0, 1), in an order fixed by
    ``key``: positions for sizes that are not paired with a ladder in order.
    Like ``_ladder``, this keeps the spread of job sizes the same for every seed."""
    points = [(i + 0.5) / count for i in range(count)]
    random.Random(key).shuffle(points)
    return points


def _log_at(rng: random.Random, position: float, lo: float, hi: float) -> float:
    """The size at ``position`` of [lo, hi] on a log scale, jittered by 1%."""
    return lo * (hi / lo) ** position * rng.uniform(0.99, 1.01)


def _q_list(Q: float, rng: random.Random, slices: int) -> list[float]:
    return [round(Q * 2.0**j * rng.uniform(0.99, 1.01), 3) for j in range(slices)]


def _sparse_slices(rng: random.Random) -> list[dict]:
    # thin weights, at most a few thousand terms: squares stop at n = 1e7
    thin = [("squares", None, 1e7), ("prime_squares", None, 1e9), ("hth_powers", 3, 1e9),
            ("prime_squares", None, 1e9), ("hth_powers", 4, 1e9), ("hth_powers", 5, 1e9)]
    jobs = [_cli(*README_WEIGHTS)]
    count = 80
    Qs = _ladder(rng, count, 6, 24)
    samples = _ladder(rng, count, 20, 60)[::-1]
    ns = _rungs(count, "sparse-slices:sup_profile")
    for i in range(count):
        weight, h, hi = thin[i % len(thin)]
        jobs.append({
            "job": "sup_profile", "weight": weight, "h": h,
            "n": int(_log_at(rng, ns[i], 1e6, hi)), "Q_list": _q_list(Qs[i], rng, 2),
            "samples": int(samples[i]), "seed": rng.randrange(2**31),
        })
    count = 24
    Qs = _ladder(rng, count, 8, 48)
    ns = _rungs(count, "sparse-slices:size_slices")
    samples = _rungs(count, "sparse-slices:size_slices:samples")
    for i in range(count):
        weight, h, hi = thin[i % len(thin)]
        jobs.append({
            "job": "size_slices", "weight": weight, "h": h,
            "n": int(_log_at(rng, ns[i], 1e6, hi)), "Q": round(Qs[i], 3),
            "T": (2, 3, 4, 8)[i % 4], "samples": round(_log_at(rng, samples[i], 30, 60)),
            "seed": rng.randrange(2**31),
        })
    for P, Q, G in zip((8, 10, 12), (6, 9, 12), _ladder(rng, 3, 1000, 1600)):
        # a (major, slice) pair on one grid, so the oracle can test slice <= major <= full
        Q = round(Q * rng.uniform(0.95, 1.05), 3)
        for region in ("major", "slice"):
            jobs.append(_cli("moments", "--k", 3, "--r", 2, "--limit", P, "--t", 4,
                             "--region", region, "--Q", Q, "--grid-points", int(G),
                             "--format", "json"))
    return jobs


def _dense_weyl(rng: random.Random) -> list[dict]:
    jobs = []
    # Cost is about support x points: big supports get few samples, small ones many.
    dense = [("primes_log", 2e4, 5e5), ("mobius", 2e4, 1e5)]
    count = 64
    Qs = _ladder(rng, count, 6, 24)
    for weight, lo, hi in dense:
        ns = _ladder(rng, count // 2, lo, hi)
        samples = _ladder(rng, count // 2, 16, 48)[::-1]
        for n, s in zip(ns, samples):
            jobs.append({
                "job": "sup_profile", "weight": weight, "h": None, "n": int(n),
                "Q_list": _q_list(Qs.pop(), rng, 1 + len(jobs) % 2),
                "samples": int(s), "seed": rng.randrange(2**31),
            })
    for n, Q, s in zip(_ladder(rng, 5, 1e9, 1e10), _ladder(rng, 5, 6, 16),
                       _ladder(rng, 5, 16, 48)):
        jobs.append({
            "job": "sup_profile", "weight": "e2", "h": None, "n": int(n),
            "Q_list": _q_list(Q, rng, 2), "samples": int(s), "seed": rng.randrange(2**31),
        })
    count = 24
    Qs = _ladder(rng, count, 6, 24)
    for n, s, Q in zip(_ladder(rng, count, 1e4, 1e5), _ladder(rng, count, 16, 32)[::-1], Qs):
        jobs.append({
            "job": "size_slices", "weight": "primes_log", "h": None, "n": int(n),
            "Q": round(Q, 3), "T": (4, 8, 16)[len(jobs) % 3],
            "samples": int(s), "seed": rng.randrange(2**31),
        })
    Rs, Qs = _ladder(rng, 8, 10, 60), _ladder(rng, 8, 16, 48)[::-1]
    for i, (R, Q) in enumerate(zip(Rs, Qs)):
        jobs.append({
            "job": "major_arc_moment", "P": 500, "R": int(R), "t": (4, 6)[i % 2],
            "Q": int(Q), "exact_q": min(int(Q), 16), "seed": rng.randrange(2**31),
        })
    return jobs


def _exact_tables(rng: random.Random) -> list[dict]:
    jobs = [_cli(*argv) for argv in README_EXACT]
    count = 30
    limits = _ladder(rng, count, 500, 4000)
    for i in range(count):
        argv = ["counts", "--k", 3 + i % 3, "--s", 3 + i % 4, "--limit", int(limits[i]),
                "--format", FORMATS[i % 3],
                "--x-kind", ("square", "prime_square", "square", "none")[i % 4]]
        if i % 5 == 0:
            argv.append("--natural")
        jobs.append(_cli(*argv))
    for k, s in ((4, rng.choice((6, 7))), (5, rng.choice((8, 9)))):
        jobs.append(_cli("counts", "--k", k, "--s", s, "--limit", 10**6 - rng.randrange(1000),
                         "--zero-set"))
    # past the int64 guard: the fold falls back to object dtype
    jobs.append({"job": "representation_counts", "k": 3, "s": 10,
                 "N": 200000 + rng.randint(-1000, 1000)})
    for i, P in enumerate(_ladder(rng, 10, 6, 13)):
        P = int(P)
        # alias-free: a uniform grid wider than every difference of r-fold cube sums
        G = max(1000, 2 * P**3 + rng.randint(1, 50))
        argv = ["moments", "--k", 3, "--r", 2, "--limit", P, "--t", 4,
                "--eta", ("1.0", "0.8")[i % 2], "--grid-points", G, "--format", "json"]
        if i % 3 != 2:
            argv.append("--mean-value")
        jobs.append(_cli(*argv))
    for i, Q in enumerate(_ladder(rng, 12, 50, 250)):
        k = 3 + i % 3
        s = rng.randint(max(4, k + 1), 2 * k + 1)
        m = rng.randint(1, 200) if i % 2 else rng.randint(1, 20)
        argv = ["singular", "--k", k, "--s", s, "--m", m, "--q-cut", int(Q),
                "--format", FORMATS[i % 3]]
        if s <= 6 and m <= 20:
            argv.append("--integral")
        if i % 4 < 2:
            argv += ["--n", rng.randint(1, 10**6)]
        jobs.append(_cli(*argv))
    for i, Q in enumerate(_ladder(rng, 3, 100, 200)):
        jobs.append({"job": "series_warm", "k": 3 + i % 2, "s": rng.randint(5, 8),
                     "Q_cut": int(Q), "ms": rng.sample(range(1, 500), 8)})
    for N, P in zip((2e5, 5e5, 1e6), _ladder(rng, 3, 1e4, 5e4)):
        # sizes fixed to within 2%: the largest sieve sets much of the peak RSS
        jobs.append({"job": "sieve_tables", "N": int(N) - rng.randrange(int(N) // 50)})
        jobs.append({"job": "smooth_set", "P": int(P), "R": rng.randint(10, 100)})
    for i in range(15):
        jobs.append(_cli("constants", "--format", FORMATS[i % 3]))
        jobs.append(_cli("thm14-table", "--format", FORMATS[(i + 1) % 3]))
    for i in range(20):
        k = rng.randint(4, 12)
        r = rng.randint(2, k)
        s = 2 * rng.randint(r + 1, 2 * k)
        jobs.append(_cli("check", "--k", k, "--s", s,
                         "--phi", rng.choice(("1/8", "1/6", "1/4", "2/5", "1/10")),
                         "--r", r, "--t", 2 * rng.randint(1, 3),
                         "--delta-source", "large-k", "--format", FORMATS[i % 3]))
    return jobs


_GENERATORS = {
    "sparse-slices": _sparse_slices,
    "dense-weyl": _dense_weyl,
    "exact-tables": _exact_tables,
}


def job_list(workload: str, seed: int) -> list[dict]:
    """The workload's jobs for this seed.

    The seed draws the inputs; the order is one fixed interleaving per
    workload, because the order of allocations sets the peak RSS.
    """
    jobs = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    random.Random(workload).shuffle(jobs)
    return jobs


def _weight(job: dict):
    return weights.make_weight(job["weight"], job["n"], h=job["h"])


def _run_cli(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(job["argv"])
    return rc, out.getvalue()


def _run_series_warm(job):
    cache = singular._GaussSumCache(job["k"], job["s"])
    return [singular.singular_series(m, job["s"], job["k"], job["Q_cut"], cache=cache)
            for m in job["ms"]]


def _run_sup_profile(job):
    w = _weight(job)
    return w, expsums.sup_profile(w, job["n"], job["Q_list"],
                                  samples_per_slice=job["samples"], seed=job["seed"])


def _run_size_slices(job):
    w = _weight(job)
    return w, arcs.size_slices(w, job["n"], job["Q"], job["T"], job["samples"], seed=job["seed"])


def _run_major_arc_moment(job):
    P = job["P"]
    w = weights.make_weight("smooth_kth_powers", P**3, k=3, P=P, R=job["R"])
    return w, counting.major_arc_moment(w, job["t"], job["Q"], P**3,
                                        exact_q=job["exact_q"], seed=job["seed"])


# Jobs on a weight return it with their output, so the oracles can check it.
_RUNNERS = {
    "cli": _run_cli,
    "sup_profile": _run_sup_profile,
    "size_slices": _run_size_slices,
    "major_arc_moment": _run_major_arc_moment,
    "representation_counts": lambda j: counting.representation_counts(j["k"], j["s"], j["N"]),
    "series_warm": _run_series_warm,
    "sieve_tables": lambda j: arith.sieve_tables(j["N"]),
    "smooth_set": lambda j: arith.smooth_set(j["P"], j["R"]),
}


def run_job(job: dict):
    """Run one job and return its raw result (``(rc, stdout)`` for CLI jobs)."""
    return _RUNNERS[job["job"]](job)


def is_failure(job: dict, result) -> bool:
    """Exit code 2 is a usage or configuration error; 1 is a command's own verdict."""
    return job["job"] == "cli" and result[0] == 2
