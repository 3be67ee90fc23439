"""Command-line front end.

Subcommands: constants, thm14-table, counts, moments, weights, singular,
check.  Options resolve in the order: explicit flag, config file (key=value
lines, '#' comments), environment (PARTITIO_<NAME>), built-in default.
Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Any, Optional

from partitio import arith, constants, counting, singular, weights
from partitio.expsums import fit_decay, sup_profile
from partitio.report import Column, Report, emit

FORMATS = ("csv", "json", "pretty")


class ConfigError(ValueError):
    pass


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            values[key] = value.strip()
    return values


class Options:
    """Layered option resolution: CLI > config file > environment > default."""

    def __init__(self, args: argparse.Namespace, known: set[str]):
        self.args = args
        self.config: dict[str, str] = {}
        if getattr(args, "config", None):
            self.config = _parse_config_file(args.config)
            unknown = set(self.config) - known
            if unknown:
                raise ConfigError(
                    f"{args.config}: unknown keys {sorted(unknown)} (allowed: {sorted(known)})"
                )

    def get(self, name: str, cast, default=None):
        cli = getattr(self.args, name.replace("-", "_"), None)
        if cli is not None:
            return cli
        if name in self.config:
            return cast(self.config[name])
        env = os.environ.get("PARTITIO_" + name.upper().replace("-", "_"))
        if env is not None:
            return cast(env)
        return default

    def require(self, name: str, cast):
        value = self.get(name, cast, None)
        if value is None:
            raise ConfigError(f"missing required option --{name}")
        return value


def _parse_phi(text: str) -> Fraction:
    return Fraction(text)


def _bool_cast(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--config", default=None, help="key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partitio",
        description="Desk-scale circle-method workbench: exact counts, "
        "Weyl-sum profiles, singular series, constants engine.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("constants", help="pruning-constant table and headline constants")
    _add_common(p)

    p = sub.add_parser("thm14-table", help="verify the stored exponent rows (phi = 1/8)")
    _add_common(p)

    p = sub.add_parser("counts", help="representation counts and zero sets")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--zero-set", action="store_true", default=None)
    p.add_argument("--x-kind", choices=("square", "prime_square", "hth_power", "none"), default=None)
    p.add_argument("--natural", action="store_true", default=None,
                   help="restrict x and y to be at least 1")

    p = sub.add_parser("moments", help="exact and quadrature moments of the smooth Weyl sum")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--limit", type=int, default=None, help="P, the summand bound")
    p.add_argument("--eta", type=float, default=None, help="smoothness exponent, R = ceil(P**eta)")
    p.add_argument("--t", type=float, default=None, help="quadrature moment order (even)")
    p.add_argument("--Q", type=float, default=None)
    p.add_argument("--region", choices=("full", "major", "slice"), default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--mean-value", action="store_true", default=None,
                   help="also count the square-difference mean value at n = limit**k")

    p = sub.add_parser("weights", help="sup profile of |W| over dyadic slices, with decay fit")
    _add_common(p)
    p.add_argument("--kind", choices=weights.KINDS, default=None)
    p.add_argument("--limit", type=int, default=None, help="weight domain n")
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--slices", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("singular", help="singular series, exact integral, local solubility")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--q-cut", type=int, default=None)
    p.add_argument("--integral", action="store_true", default=None)
    p.add_argument("--n", type=int, default=None, help="check local solubility at this n")

    p = sub.add_parser("check", help="entry conditions and the bound catalogue")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--phi", type=_parse_phi, default=None, help="e.g. 1/8 or 0.125")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--delta-source", choices=("table", "large-k", "interpolate"), default=None)
    p.add_argument("--h", type=int, default=None)

    return parser


_KNOWN_KEYS = {
    "format", "seed", "tolerance", "k", "s", "phi", "limit", "Q", "t",
    "r", "eta", "kind", "h", "m", "q-cut", "n", "region", "grid-points", "slices",
    "samples", "zero-set", "x-kind", "natural", "integral", "mean-value", "delta-source",
}


def _cmd_constants(opts: Options) -> Report:
    rows = constants.c2_star_table()
    rep = constants.constants_report()
    data = [[float(r.phi), r.rhs, r.z_star, r.c2_star, r.c1_value] for r in rows]
    kparams = {
        str(k): {
            "r": kp.r,
            "zeta": f"{kp.zeta_k.numerator}/{kp.zeta_k.denominator}",
            "phi_k": kp.phi_k,
            "sigma_k": kp.sigma_k,
        }
        for k, kp in ((k, constants.k_params(k)) for k in range(5, 13))
    }
    residuals = rep.residuals()
    statuses = [r.cell_status() for r in rows]
    ok = all(r.acceptable for r in rows) and all(abs(v) < 1e-10 for v in residuals.values())
    meta = {
        "zeta_star": rep.zeta_star,
        "phi_star": rep.phi_star,
        "sigma_star": rep.sigma_star,
        "c": rep.c,
        "theta": rep.theta,
        "c_tilde": rep.c_tilde,
        "c0": rep.c0,
        "D": rep.D,
        "k_params": kparams,
        "cells_exact": sum(s.count("exact") for s in statuses),
        "cells_erratum": sum(s.count("erratum") for s in statuses),
        "cells_mismatch": sum(s.count("mismatch") for s in statuses),
    }
    return Report(
        name="pruning-constants",
        columns=[
            Column("phi"),
            Column("rhs", 8, "ceil"),
            Column("z_star", 7, "ceil"),
            Column("c2_star", 6, "ceil"),
            Column("c1", 6, "ceil"),
        ],
        rows=data,
        meta=meta,
        ok=ok,
    )


def _cmd_exponent_table(opts: Options) -> Report:
    rows = constants.exponent_table_check()
    data = [
        [r.k, r.r, float(r.delta_2r), r.s, r.t, float(r.delta_s_plus_t), r.delta_star,
         r.half_condition, r.bound_holds, r.display_matches]
        for r in rows
    ]
    ok = all(r.half_condition and r.bound_holds and r.display_matches for r in rows)
    return Report(
        name="prime-square-exponent-rows",
        columns=[
            Column("k"), Column("r"), Column("delta_2r", 2), Column("s"), Column("t"),
            Column("delta_s_plus_t", 4), Column("delta_star", 4, "floor"),
            Column("half_condition"), Column("bound_holds"), Column("display_matches"),
        ],
        rows=data,
        ok=ok,
    )


def _cmd_counts(opts: Options) -> Report:
    k = opts.require("k", int)
    s = opts.require("s", int)
    limit = opts.require("limit", int)
    natural = bool(opts.get("natural", _bool_cast, False))
    x_kind = opts.get("x-kind", str, "square")
    table = counting.representation_counts(
        k, s, limit, x_kind=x_kind, x_nonneg=not natural, y_nonneg=not natural
    )
    if opts.get("zero-set", _bool_cast, False):
        zeros = [int(n) for n in range(1, limit + 1) if table.counts[n] == 0]
        return Report(
            name=f"zero-set k={k} s={s} limit={limit}",
            columns=[Column("n")],
            rows=[[z] for z in zeros],
            meta={"count": len(zeros)},
        )
    rows = [[n, int(table.counts[n])] for n in range(1, limit + 1)]
    return Report(
        name=f"representation-counts k={k} s={s}",
        columns=[Column("n"), Column("count")],
        rows=rows,
        meta={"total": table.total()},
    )


def _cmd_moments(opts: Options) -> Report:
    k = opts.require("k", int)
    r = opts.require("r", int)
    P = opts.require("limit", int)
    eta = opts.get("eta", float, 1.0)
    tol = opts.get("tolerance", float, 1e-3)
    R = arith.smooth_bound(P, eta)
    rows = []
    exact = counting.moment_exact(k, r, P, R)
    rows.append(["moment_exact", float(exact), ""])
    ok = True
    t = opts.get("t", float, None)
    if t is not None:
        t = int(t)
        w = weights.make_weight("smooth_kth_powers", P**k, k=k, P=P, R=R)
        region = opts.get("region", str, "full")
        Q = opts.get("Q", float, None)
        res = counting.quadrature_moment(
            w, t, region=region, Q=Q, grid_points=opts.get("grid-points", int, None)
        )
        rows.append([f"quadrature[{region}] t={t}", res.value, f"rel_change={res.rel_change:.2e}"])
        ok &= res.rel_change is not None and res.rel_change < 5e-3
        if region == "full" and t == 2 * r:
            rel = abs(res.value - exact) / exact
            rows.append(["quadrature_vs_exact", rel, f"tolerance={tol}"])
            ok &= rel <= tol
    if opts.get("mean-value", _bool_cast, False):
        n = P**k
        rows.append(["mean_value_N", float(counting.mean_value_N(k, r, n, R)), f"n={n}"])
    return Report(
        name=f"moments k={k} r={r} P={P} R={R}",
        columns=[Column("quantity"), Column("value"), Column("detail")],
        rows=rows,
        ok=ok,
    )


def _cmd_weights(opts: Options) -> Report:
    kind = opts.require("kind", str)
    n = opts.require("limit", int)
    h = opts.get("h", int, None)
    seed = opts.get("seed", int, 0)
    n_slices = opts.get("slices", int, 7)
    samples = opts.get("samples", int, 250)
    w = weights.make_weight(kind, n, h=h)
    stats = weights.weight_stats(w) if w.is_nonnegative else None
    top = 2.0 * math.sqrt(n)
    Q_list = sorted(top / 2**j for j in range(n_slices))
    profile = sup_profile(w, n, Q_list, samples_per_slice=samples, seed=seed)
    rows = [[Q, sup, sup / w.norm if w.norm else 0.0] for Q, sup in profile]
    meta: dict[str, Any] = {"kind": kind, "n": n, "norm": w.norm, "seed": seed}
    positive = [p for p in profile if p[1] > 0]
    if len(positive) >= 2 and w.norm > 0:
        fit = fit_decay(positive, w.norm)
        meta.update(phi_hat=fit.phi_hat, c_hat=fit.c_hat, fit_residual=fit.residual)
    if stats is not None:
        meta.update(half_mass_ratio=stats.half_mass_ratio, is_regular=stats.is_regular)
    return Report(
        name=f"sup-profile {kind} n={n}",
        columns=[Column("Q"), Column("sup"), Column("sup_over_norm")],
        rows=rows,
        meta=meta,
    )


def _cmd_singular(opts: Options) -> Report:
    k = opts.require("k", int)
    s = opts.require("s", int)
    rows = []
    ok = True
    m = opts.get("m", int, None)
    if m is not None:
        q_cut = opts.get("q-cut", int, 1000)
        res = singular.singular_series(m, s, k, q_cut)
        rows.append(["series_partial", res.partial, f"m={m} Q_cut={q_cut}"])
        rows.append(["series_last_block", res.last_block, ""])
        ok &= res.partial >= -1e-6
        if opts.get("integral", _bool_cast, False):
            exact, asym = singular.singular_integral(m, s, k)
            rows.append(["integral_exact", exact, ""])
            rows.append(["integral_asymptotic", asym, ""])
    n = opts.get("n", int, None)
    if n is not None:
        loc = singular.local_solubility(k, s, n)
        rows.append(
            ["local_witness", 1.0 if loc.witness else 0.0,
             f"witness={loc.witness} mod={loc.modulus}"]
        )
        ok &= loc.n_minus_square_hits_R
    if not rows:
        raise ConfigError("singular needs --m and/or --n")
    return Report(
        name=f"singular k={k} s={s}",
        columns=[Column("quantity"), Column("value"), Column("detail")],
        rows=rows,
        ok=ok,
    )


def _cmd_check(opts: Options) -> Report:
    k = opts.require("k", int)
    s = opts.require("s", int)
    phi = opts.require("phi", _parse_phi)
    r = opts.get("r", int, None)
    t = opts.get("t", float, None)
    if t is not None and t == int(t):
        t = int(t)
    source = opts.get("delta-source", str, "table")
    rep = constants.condition_check(k, s, phi, r=r, t=t, delta_source=source)
    rows = [
        ["s_ge_3k_over_2", rep.s_ge_3k_over_2, ""],
        ["size_condition", rep.size_condition, ""],
    ]
    if rep.height_condition is not None:
        rows.append(["height_condition", rep.height_condition, f"delta_s={rep.delta_s}"])
    if rep.slice_condition is not None:
        rows.append(
            ["slice_condition", rep.slice_condition,
             f"delta_s_plus_t={rep.delta_s_plus_t} delta_star={rep.delta_star}"]
        )
    cat = constants.bound_catalog(k, h=opts.get("h", int, None))
    meta = {
        "delta_star": None if rep.delta_star is None else float(rep.delta_star),
        "bounds": {
            "g_bound": cat.g_bound,
            "p_bound": cat.p_bound,
            "s0_bound": cat.s0_bound,
            "s0_small": cat.s0_small,
            "t0_bound": cat.t0_bound,
            "t0_small": cat.t0_small,
            "s0_tilde": cat.s0_tilde,
            "s0_mobius": cat.s0_mobius,
            "mixed_power_bound": cat.mixed_power_bound,
        },
    }
    return Report(
        name=f"condition-check k={k} s={s} phi={phi}",
        columns=[Column("condition"), Column("holds"), Column("detail")],
        rows=rows,
        meta=meta,
        ok=rep.all_passed(),
    )


_COMMANDS = {
    "constants": _cmd_constants,
    "thm14-table": _cmd_exponent_table,
    "counts": _cmd_counts,
    "moments": _cmd_moments,
    "weights": _cmd_weights,
    "singular": _cmd_singular,
    "check": _cmd_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        opts = Options(args, _KNOWN_KEYS)
        report = _COMMANDS[args.command](opts)
        fmt = opts.get("format", str, "pretty")
        if fmt not in FORMATS:
            raise ConfigError(f"unknown format {fmt!r}")
        sys.stdout.write(emit(report, fmt))
        return 0 if report.ok else 1
    except (ConfigError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
