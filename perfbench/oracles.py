"""Correctness checks on job outputs, run outside the timed region.

Each check returns a list of problems (empty when the output is right).
Where possible the reference is computed by a different method from the one
being timed: counts by enumerating multisets of powers, moments by counting
balanced tuples, sieves by a bytearray sieve, best approximations by a
search over every denominator.  Brute-force references are cached for the
life of one run.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np

from partitio import arcs, counting, expsums, report, singular, weights

BRUTE_LIMIT = 2000
BRUTE_TUPLES = 50_000
LOG2 = math.log(2.0)
ZETA_STAR = 0.5 + LOG2


def iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n."""
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _prime_flags(n: int) -> bytearray:
    """A bytearray sieve: flags[i] is 1 exactly when i <= n is prime."""
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def primes(n: int) -> list[int]:
    """Primes up to n from a bytearray sieve."""
    return [i for i, f in enumerate(_prime_flags(n)) if f]


def _smooth_members(P: int, R: int) -> list[int]:
    """R-smooth integers in [1, P], generated multiplicatively from 1."""
    found = {1}
    for p in primes(R):
        for x in sorted(found):
            x *= p
            while x <= P:
                found.add(x)
                x *= p
    return sorted(found)


def _factor(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        while m % p == 0:
            out.append(p)
            m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# Parsing CLI output: every format carries the same display strings
# ---------------------------------------------------------------------------


def parse_output(text: str, fmt: str) -> tuple[list[list[str]], dict]:
    """(display rows, meta) of one emitted report."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["display"], payload["meta"]
    lines = text.rstrip("\n").split("\n")
    if fmt == "csv":
        return [line.split(",") for line in lines[1:]], {}
    dashes = lines[3]
    spans = [m.span() for m in re.finditer(r"-+", dashes)]
    rows, meta, i = [], {}, 4
    while i < len(lines) and lines[i]:
        rows.append([lines[i][a : (b if j + 1 < len(spans) else None)].strip()
                     for j, (a, b) in enumerate(spans)])
        i += 1
    for line in lines[i:]:
        if ": " in line and not line.startswith("status: "):
            key, value = line.split(": ", 1)
            meta[key] = value
    return rows, meta


def _flags(argv: list[str]) -> dict[str, object]:
    out: dict[str, object] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


class Oracles:
    """Output checks for one run; caches its brute-force references."""

    def __init__(self) -> None:
        self._counts: dict = {}
        self._series: dict = {}
        self._assign_checked: dict[int, list[str]] = {}
        self._regions: dict = {}

    def check(self, job: dict, result) -> list[str]:
        if job["job"] == "cli":
            return self._check_cli(job["argv"], *result)
        return getattr(self, "_lib_" + job["job"])(job, result)

    # -- references -------------------------------------------------------

    def brute_counts(self, k: int, s: int, L: int, natural: bool, x_kind: str) -> list[int]:
        """Representation counts for n <= L by enumerating multisets of k-th powers."""
        key = (k, s, L, natural, x_kind)
        if key not in self._counts:
            y0 = 1 if natural else 0
            powers = [y**k for y in range(y0, iroot(L, k) + 1)]
            sums: dict[int, int] = defaultdict(int)
            for combo in combinations_with_replacement(powers, s):
                total = sum(combo)
                if total <= L:
                    ways = math.factorial(s)
                    for mult in Counter(combo).values():
                        ways //= math.factorial(mult)
                    sums[total] += ways
            if x_kind == "square":
                xs = [x * x for x in range(y0, math.isqrt(L) + 1)]
            elif x_kind == "prime_square":
                xs = [p * p for p in primes(math.isqrt(L))]
            else:
                xs = [0]
            counts = [0] * (L + 1)
            for total, ways in sums.items():
                for x in xs:
                    if total + x <= L:
                        counts[total + x] += ways
            self._counts[key] = counts
        return self._counts[key]

    @staticmethod
    def brute_limit(k: int, s: int, limit: int) -> int:
        """Largest L <= min(limit, BRUTE_LIMIT), halving, with few enough multisets."""
        L = min(limit, BRUTE_LIMIT)
        while math.comb(iroot(L, k) + s, s) > BRUTE_TUPLES:
            L //= 2
        return L

    def direct_series(self, m: int, s: int, k: int, Q: int) -> tuple[float, float, float]:
        """(partial, last block, sum of |terms|) from a direct sum of a_coeff."""
        key = (m, s, k, Q)
        if key not in self._series:
            terms = [singular.a_coeff(m, q, s, k) / q**s for q in range(1, Q + 1)]
            self._series[key] = (math.fsum(terms), math.fsum(terms[Q // 2 :]),
                                 math.fsum(abs(t) for t in terms))
        return self._series[key]

    def _check_series(self, m, s, k, Q, partial, last_block) -> list[str]:
        ref, ref_last, scale = self.direct_series(m, s, k, Q)
        tol = 1e-9 * max(1.0, scale)
        out = []
        if abs(partial - ref) > tol:
            out.append(f"series m={m} s={s} k={k} Q={Q}: {partial} != direct {ref}")
        if abs(last_block - ref_last) > tol:
            out.append(f"series last block m={m}: {last_block} != direct {ref_last}")
        return out

    def check_weight(self, w) -> list[str]:
        """exp_sum_many at a/q against exp_sum_rational, and the Farey
        assignment at the weight's n."""
        out = []
        points = [(a, q) for a, q in ((1, 3), (2, 7), (5, 11), (7, 31), (10, 97)) if q <= w.n]
        if points:
            many = expsums.exp_sum_many(w, np.array([a / q for a, q in points]))
            for (a, q), value in zip(points, many):
                exact = expsums.exp_sum_rational(w, a, q)
                if abs(value - exact) > 1e-6 * max(w.norm, 1.0):
                    out.append(f"exp_sum_many({a}/{q}) off by {abs(value - exact):.3g}")
        return out + self.check_assign(w.n)

    def check_assign(self, n: int, samples: int = 8) -> list[str]:
        """Dissection.assign against a search over every denominator."""
        if n in self._assign_checked:
            return self._assign_checked[n]
        d = arcs.Dissection(n)
        rng = random.Random(n)
        alphas = [rng.random() for _ in range(samples // 2)]
        for _ in range(samples - len(alphas)):
            q = rng.randint(1, d.half_height)
            alphas.append(min(1.0, max(0.0, rng.randint(0, q) / q + rng.uniform(-1, 1) / (q * n))))
        problems = []
        for alpha in alphas:
            got = d.assign(alpha)
            best = _best_approx(alpha, d.half_height)
            if float(best[2]) > 0.5 / math.sqrt(n):
                best = _best_approx(alpha, d.full_height)
            if (got.a, got.q) != best[:2]:
                problems.append(f"assign({alpha!r}) at n={n}: {got.a}/{got.q} "
                                f"!= {best[0]}/{best[1]}")
        self._assign_checked[n] = problems
        return problems

    # -- CLI jobs -----------------------------------------------------------

    def _check_cli(self, argv: list[str], rc: int, out: str) -> list[str]:
        flags = _flags(argv)
        fmt = flags.get("format", "pretty")
        problems = []
        if fmt == "json" and report.reemit_json(out) != out:
            problems.append("json output does not round-trip through reemit_json")
        rows, meta = parse_output(out, fmt)
        check = getattr(self, "_cli_" + argv[0].replace("-", "_"))
        return problems + check(flags, rows, meta)

    def _cli_counts(self, f, rows, meta) -> list[str]:
        k, s, limit = int(f["k"]), int(f["s"]), int(f["limit"])
        natural = bool(f.get("natural"))
        L = self.brute_limit(k, s, limit)
        ref = self.brute_counts(k, s, L, natural, f.get("x-kind", "square"))
        if f.get("zero-set"):
            zeros = [int(r[0]) for r in rows]
            expected = [n for n in range(1, L + 1) if ref[n] == 0]
            problems = []
            if [z for z in zeros if z <= L] != expected:
                problems.append(f"zero set differs below {L}")
            if "count" in meta and int(meta["count"]) != len(zeros):
                problems.append("zero-set count does not match its rows")
            return problems
        counts = [int(r[1]) for r in rows]
        if [int(r[0]) for r in rows] != list(range(1, limit + 1)):
            return ["count rows are not n = 1..limit"]
        problems = [f"count at n={n}: {counts[n - 1]} != {ref[n]}"
                    for n in range(1, L + 1) if counts[n - 1] != ref[n]][:3]
        if "total" in meta and int(meta["total"]) != sum(counts) + ref[0]:
            problems.append("meta total does not match the rows")
        return problems

    def _cli_moments(self, f, rows, meta) -> list[str]:
        k, r, P = int(f["k"]), int(f["r"]), int(f["limit"])
        eta = float(f.get("eta", 1.0))
        R = max(2, math.ceil(P**eta))
        values = {row[0]: float(row[1]) for row in rows}
        members = [m for m in range(1, P + 1) if max(_factor(m), default=1) <= R]
        sums = Counter(sum(x**k for x in xs) for xs in product(members, repeat=r))
        exact = sum(c * c for c in sums.values())
        problems = []
        if values.get("moment_exact") != exact:
            problems.append(f"moment_exact {values.get('moment_exact')} != balanced tuples {exact}")
        region = f.get("region", "full")
        if "t" in f:
            t = int(float(f["t"]))
            value = values[f"quadrature[{region}] t={t}"]
            if region == "full" and t == 2 * r and abs(value - exact) > 1e-3 * exact:
                problems.append(f"full moment {value} differs from exact {exact}")
            if region != "full":
                problems += self._region_order(k, P, R, t, float(f["Q"]), int(f["grid-points"]),
                                               region, value)
        if "mean-value" in f:
            n = P**k
            diffs = Counter()
            for a, ca in sums.items():
                for b, cb in sums.items():
                    diffs[a - b] += ca * cb
            X = math.isqrt(n)
            ref = sum(diffs.get(x1 * x1 - x2 * x2, 0)
                      for x1 in range(1, X + 1) for x2 in range(1, X + 1))
            if values["mean_value_N"] != ref:
                problems.append(f"mean_value_N {values['mean_value_N']} != {ref}")
        return problems

    def _region_order(self, k, P, R, t, Q, G, region, value) -> list[str]:
        key = (k, P, R, t, Q, G)
        if key not in self._regions:
            w = weights.make_weight("smooth_kth_powers", P**k, k=k, P=P, R=R)
            self._regions[key] = {
                reg: counting.quadrature_moment(w, t, region=reg, grid_points=G, Q=Q,
                                                doubling=False).value
                for reg in ("full", "major", "slice")
            }
        ref = self._regions[key]
        problems = []
        if value != ref[region]:
            problems.append(f"{region} moment {value} != recomputed {ref[region]}")
        if not 0 <= ref["slice"] <= ref["major"] <= ref["full"]:
            problems.append(f"region moments out of order: {ref}")
        return problems

    def _cli_weights(self, f, rows, meta) -> list[str]:
        n = int(f["limit"])
        w = weights.make_weight(f["kind"], n, h=int(f["h"]) if "h" in f else None)
        problems = []
        if abs(float(meta["norm"]) - w.norm) > 1e-9 * w.norm:
            problems.append("norm differs from the weight's own")
        for Q, sup, ratio in rows:
            if not 0 <= float(sup) <= w.norm * (1 + 1e-9):
                problems.append(f"sup {sup} at Q={Q} outside [0, norm]")
        return problems + self.check_weight(w)

    def _cli_singular(self, f, rows, meta) -> list[str]:
        k, s = int(f["k"]), int(f["s"])
        values = {row[0]: row for row in rows}
        problems = []
        if "m" in f:
            m, Q = int(f["m"]), int(f.get("q-cut", 1000))
            problems += self._check_series(m, s, k, Q, float(values["series_partial"][1]),
                                           float(values["series_last_block"][1]))
            if "integral" in f:
                ref = _composition_sum(m, s, k)
                got = float(values["integral_exact"][1])
                if abs(got - ref) > 1e-9 * max(1.0, ref):
                    problems.append(f"integral_exact {got} != composition sum {ref}")
        if "n" in f:
            n = int(f["n"])
            match = re.search(r"witness=\((\d+), (\d+)\) mod=(\d+)", values["local_witness"][2])
            if match:
                x0, j, mod = map(int, match.groups())
                if (n - x0 * x0 - j) % mod or not 1 <= j <= s:
                    problems.append(f"local witness {(x0, j)} is wrong for n={n}")
        return problems

    def _cli_constants(self, f, rows, meta) -> list[str]:
        problems = [] if len(rows) == 10 else [f"{len(rows)} constant rows, expected 10"]
        for phi, rhs, z, c2, c1 in ([float(v) for v in row] for row in rows):
            # displayed values are rounded up in their last digit
            if abs(z - math.log(z) - rhs) > 2e-6:
                problems.append(f"z_star at phi={phi} does not solve z - log z = rhs")
            if abs(c2 - (z / 2 + ZETA_STAR + phi / 2)) > 2e-6:
                problems.append(f"c2_star at phi={phi} is not z/2 + zeta* + phi/2")
            if abs(c1 - (1 + LOG2 - phi / 2 - math.log(phi))) > 2e-6:
                problems.append(f"c1 at phi={phi} is wrong")
        if "c0" in meta and abs(float(meta["c0"]) - (0.75 + 2 * LOG2)) > 1e-12:
            problems.append("c0 is not 3/4 + 2 log 2")
        return problems

    def _cli_thm14_table(self, f, rows, meta) -> list[str]:
        problems = [] if rows else ["empty exponent table"]
        for row in rows:
            k, r, s, t = int(row[0]), int(row[1]), int(row[3]), int(row[4])
            if not all(v in ("true", "false") for v in row[7:]):
                problems.append(f"non-boolean check columns in row k={k}")
            if s <= 2 * r or t < 1:
                problems.append(f"row k={k} does not satisfy s > 2r")
        return problems

    def _cli_check(self, f, rows, meta) -> list[str]:
        k, s, phi = int(f["k"]), int(f["s"]), Fraction(f["phi"])
        holds = {row[0]: row[1] == "true" for row in rows}
        expected = {
            "s_ge_3k_over_2": 2 * s >= 3 * k,
            "size_condition": s > (1 - phi) * (2 * (k // 2) + 4) + 2 * phi,
        }
        return [f"{name} should be {want}" for name, want in expected.items()
                if holds.get(name) != want]

    # -- library jobs -------------------------------------------------------

    def _lib_sup_profile(self, job, result) -> list[str]:
        w, profile = result
        problems = []
        if [Q for Q, _ in profile] != [float(Q) for Q in job["Q_list"]]:
            problems.append("profile Q values differ from the requested Q-list")
        if not all(0 <= sup <= w.norm * (1 + 1e-9) for _, sup in profile):
            problems.append("sup outside [0, norm]")
        return problems + self.check_weight(w)

    def _lib_size_slices(self, job, result) -> list[str]:
        w, st = result
        lo, hi = w.norm / job["T"], 2 * w.norm / job["T"]
        problems = []
        if not 0 <= st.samples_in_band <= st.samples_total:
            problems.append("band count outside [0, samples]")
        total = st.samples_total
        if total and abs(st.fraction_in_slice - st.samples_in_band / total) > 1e-12:
            problems.append("fraction_in_slice is not in-band / total")
        if st.samples_in_band and not lo < st.sup_in_slice <= hi:
            problems.append("sup_in_slice outside the size window")
        return problems + self.check_weight(w)

    def _lib_major_arc_moment(self, job, result) -> list[str]:
        w, value = result
        # |W| <= norm and the arcs have measure at most 1
        if not 0 <= value <= w.norm ** job["t"]:
            return [f"major arc moment {value} outside [0, norm^t]"]
        return self.check_weight(w)

    def _lib_representation_counts(self, job, table) -> list[str]:
        k, s, N = job["k"], job["s"], job["N"]
        problems = []
        if table.total() != sum(int(c) for c in table.counts):
            problems.append("total differs from the Python-int sum of entries")
        # every entry modulo a prime, by an int64 fold independent of the object path
        p = 2**31 - 1
        kernel = [y**k for y in range(0, iroot(N, k) + 1)]
        acc = np.zeros(N + 1, dtype=np.int64)
        acc[0] = 1
        for xs in [kernel] * s + [[x * x for x in range(0, math.isqrt(N) + 1)]]:
            out = np.zeros_like(acc)
            for v in xs:  # entries stay below len(xs) * p, far from the int64 limit
                out[v:] += acc[: N + 1 - v]
            acc = out % p
        if not np.array_equal(np.array(table.counts % p, dtype=np.int64), acc):
            problems.append("entries disagree with an int64 fold modulo 2**31 - 1")
        L = self.brute_limit(k, s, N)
        ref = self.brute_counts(k, s, L, False, "square")
        if [int(c) for c in table.counts[: L + 1]] != ref:
            problems.append(f"entries below {L} disagree with enumeration")
        return problems

    def _lib_series_warm(self, job, results) -> list[str]:
        problems = []
        for m, res in zip(job["ms"], results):
            problems += self._check_series(m, job["s"], job["k"], job["Q_cut"],
                                           res.partial, res.last_block)
        return problems

    def _lib_sieve_tables(self, job, tables) -> list[str]:
        N = job["N"]
        problems = []
        # compared as arrays: lists of 80,000 Python ints would set the peak RSS
        reference = np.flatnonzero(np.frombuffer(_prime_flags(N), dtype=np.uint8))
        if not np.array_equal(tables.primes, reference):
            problems.append("primes differ from a bytearray sieve")
        for m in range(2, min(N, 3000) + 1):
            fs = _factor(m)
            mu = 0 if len(set(fs)) < len(fs) else (-1) ** len(fs)
            if tables.least_prime_factor[m] != fs[0] or tables.mobius[m] != mu:
                problems.append(f"lpf or mobius wrong at {m}")
                break
        return problems

    def _lib_smooth_set(self, job, sm) -> list[str]:
        if sm.members.tolist() != _smooth_members(job["P"], job["R"]):
            return ["smooth set differs from multiplicative generation"]
        return []


def _best_approx(alpha: float, q_max: int) -> tuple[int, int, Fraction]:
    """(a, q, |q alpha - a|) minimising the error over every q <= q_max,
    ties to the smaller q; candidates from float arithmetic, settled exactly."""
    qs = np.arange(1, q_max + 1, dtype=np.float64)
    errs = np.abs(qs * alpha - np.round(qs * alpha))
    x = Fraction(alpha)
    best = None
    for q in np.flatnonzero(errs <= errs.min() + 1e-9) + 1:
        q = int(q)
        a = round(q * x)
        err = abs(q * x - a)
        if best is None or err < best[2]:
            best = (a, q, err)
    return best


def _composition_sum(m: int, s: int, k: int) -> float:
    """Sum over compositions u_1 + ... + u_s = m of prod u_j^(1/k - 1)."""
    if s == 1:
        return m ** (1.0 / k - 1.0)
    return math.fsum(u ** (1.0 / k - 1.0) * _composition_sum(m - u, s - 1, k)
                     for u in range(1, m - s + 2))
