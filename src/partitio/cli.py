"""Command-line front end.

Subcommands: constants, thm14-table, counts, moments, weights, singular,
check.  Each option is declared once in ``_OPTIONS`` and each command once in
``_COMMANDS``; both feed the parser and the resolver.  Options resolve in the
order: explicit flag, config file (key=value lines, '#' comments),
environment (PARTITIO_<NAME>), built-in default, and every value passes the
option's own type and choices.  Exit codes: 0 success, 1 verification
failure, 2 usage or config error, or an input past a precision or capacity
limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from fractions import Fraction
from typing import Any, Optional

from partitio import arith, constants, counting, singular, weights
from partitio.expsums import fit_decay, sup_profile
from partitio.report import EMITTERS, Column, Report, emit

FORMATS = tuple(EMITTERS)


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


def _parse_phi(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"phi {text!r} has a zero denominator") from None


def _switch(text: str) -> bool:
    """A switch's value as spelled in a config file or the environment."""
    value = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}.get(text.strip().lower())
    if value is None:
        raise ValueError("a switch takes 1/0, true/false, yes/no or on/off")
    return value

#: Every option once: name -> (type, default, choices, help).  A type of bool
#: is a switch.  Config keys are these names; environment variables are
#: PARTITIO_<NAME> with '-' read as '_'.
_OPTIONS: dict[str, tuple[Any, Any, Optional[tuple], Optional[str]]] = {
    "format": (str, "pretty", FORMATS, None),
    "k": (int, None, None, None),
    "s": (int, None, None, None),
    "r": (int, None, None, None),
    "limit": (int, None, None, "N for counts, P (the summand bound) for moments, "
              "the weight domain n for weights"),
    "zero-set": (bool, False, None, None),
    "x-kind": (str, "square", ("square", "prime_square", "none"), None),
    "natural": (bool, False, None, "restrict x and y to be at least 1"),
    "eta": (float, 1.0, None, "smoothness exponent, R = ceil(P**eta)"),
    "t": (float, None, None, "moment order (even, for moments) or slice parameter (check)"),
    "Q": (float, None, None, None),
    "region": (str, "full", ("full", "major", "slice"), None),
    "grid-points": (int, None, None, None),
    "mean-value": (bool, False, None,
                   "also count the square-difference mean value at n = limit**k"),
    "tolerance": (float, 1e-3, None, "allowed relative gap, quadrature against exact moment"),
    # smooth_kth_powers needs k, P and R, which weights does not take
    "kind": (str, None, tuple(k for k in weights.KINDS if k != "smooth_kth_powers"), None),
    "h": (int, None, None, None),
    "slices": (int, 7, None, None),
    "samples": (int, 250, None, None),
    "seed": (int, 0, None, None),
    "m": (int, None, None, None),
    "q-cut": (int, 1000, None, None),
    "integral": (bool, False, None, None),
    "n": (int, None, None, "check local solubility at this n"),
    "phi": (_parse_phi, None, None, "e.g. 1/8 or 0.125"),
    "delta-source": (str, "table", constants.DELTA_SOURCES, None),
}


def _cmd_constants(o: argparse.Namespace) -> Report:
    rows = constants.c2_star_table()
    rep = constants.constants_report()
    data = list(zip(*([float(r.phi), r.rhs, r.z_star, r.c2_star, r.c1_value] for r in rows)))
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
        **dataclasses.asdict(rep),
        "k_params": kparams,
        "cells_exact": sum(s.count("exact") for s in statuses),
        "cells_erratum": sum(s.count("erratum") for s in statuses),
        "cells_mismatch": sum(s.count("mismatch") for s in statuses),
    }
    return Report(
        name="pruning-constants",
        columns=[Column("phi")] + [
            Column(name, digits, "ceil")
            for name, digits in zip(("rhs", "z_star", "c2_star", "c1"), constants.C2_TABLE_DIGITS)
        ],
        values=data,
        meta=meta,
        ok=ok,
    )


def _cmd_exponent_table(o: argparse.Namespace) -> Report:
    rows = constants.exponent_table_check()
    data = list(zip(*(
        [r.k, r.r, float(r.delta_2r), r.s, r.t, float(r.delta_s_plus_t), r.delta_star,
         r.half_condition, r.bound_holds, r.display_matches]
        for r in rows
    )))
    ok = all(r.half_condition and r.bound_holds and r.display_matches for r in rows)
    return Report(
        name="prime-square-exponent-rows",
        columns=[
            Column("k"), Column("r"), Column("delta_2r", 2), Column("s"), Column("t"),
            Column("delta_s_plus_t", 4),
            Column("delta_star", constants.DELTA_STAR_DIGITS, "floor"),
            Column("half_condition"), Column("bound_holds"), Column("display_matches"),
        ],
        values=data,
        ok=ok,
    )


def _cmd_counts(o: argparse.Namespace) -> Report:
    k, s, limit = o.k, o.s, o.limit
    conventions = dict(x_kind=o.x_kind, x_nonneg=not o.natural, y_nonneg=not o.natural)
    if o.zero_set:
        zeros = counting.zero_set(k, s, limit, **conventions)
        return Report(
            name=f"zero-set k={k} s={s} limit={limit}",
            columns=[Column("n")],
            values=[zeros],
            meta={"count": len(zeros)},
        )
    table = counting.representation_counts(k, s, limit, **conventions)
    return Report(
        name=f"representation-counts k={k} s={s}",
        columns=[Column("n"), Column("count")],
        values=[range(1, limit + 1), table.counts[1:limit + 1].tolist()],
        meta={"total": table.total()},
    )


def _compares_exact(o: argparse.Namespace) -> bool:
    """moments checks its quadrature against the exact moment: full circle, t = 2r."""
    return o.region == "full" and o.t == 2 * o.r


def _cmd_moments(o: argparse.Namespace) -> Report:
    k, r, P = o.k, o.r, o.limit
    R = arith.smooth_bound(P, o.eta)
    rows = []
    exact = counting.moment_exact(k, r, P, R)
    rows.append(["moment_exact", float(exact), ""])
    ok = True
    if o.t is not None:
        if not o.t.is_integer():
            raise ConfigError(f"--t must be an integer, got {o.t}")
        t = int(o.t)
        w = weights.make_weight("smooth_kth_powers", P**k, k=k, P=P, R=R)
        G = o.grid_points if o.grid_points is not None else max(2048, 64 * t * P)
        res = counting.quadrature_moment(w, t, region=o.region, Q=o.Q, grid_points=G)
        rows.append([f"quadrature[{o.region}] t={t}", res.value,
                     f"rel_change={res.rel_change:.2e}"])
        ok &= res.rel_change is not None and res.rel_change < 5e-3
        if _compares_exact(o):
            rel = abs(res.value - exact) / exact
            rows.append(["quadrature_vs_exact", rel, f"tolerance={o.tolerance}"])
            ok &= rel <= o.tolerance
    if o.mean_value:
        n = P**k
        rows.append(["mean_value_N", float(counting.mean_value_N(k, r, n, R)), f"n={n}"])
    return Report(
        name=f"moments k={k} r={r} P={P} R={R}",
        columns=[Column("quantity"), Column("value"), Column("detail")],
        values=list(zip(*rows)),
        ok=ok,
    )


def _cmd_weights(o: argparse.Namespace) -> Report:
    kind, n = o.kind, o.limit
    if o.slices < 1:
        raise ConfigError(f"--slices must be at least 1, got {o.slices}")
    w = weights.make_weight(kind, n, h=o.h if kind == "hth_powers" else None)
    stats = weights.weight_stats(w) if w.is_nonnegative else None
    top = 2.0 * math.sqrt(n)
    Q_list = sorted(top / 2**j for j in range(o.slices))
    profile = sup_profile(w, n, Q_list, samples_per_slice=o.samples, seed=o.seed)
    sups = [sup for _, sup in profile]
    values = [[Q for Q, _ in profile], sups, [sup / w.norm if w.norm else 0.0 for sup in sups]]
    meta: dict[str, Any] = {"kind": kind, "n": n, "norm": w.norm, "seed": o.seed}
    positive = [p for p in profile if p[1] > 0]
    if len(positive) >= 2 and w.norm > 0:
        fit = fit_decay(positive, w.norm)
        meta.update(phi_hat=fit.phi_hat, c_hat=fit.c_hat, fit_residual=fit.residual)
    if stats is not None:
        meta.update(half_mass_ratio=stats.half_mass_ratio, is_regular=stats.is_regular)
    return Report(
        name=f"sup-profile {kind} n={n}",
        columns=[Column("Q"), Column("sup"), Column("sup_over_norm")],
        values=values,
        meta=meta,
    )


def _cmd_singular(o: argparse.Namespace) -> Report:
    k, s, m = o.k, o.s, o.m
    rows = []
    ok = True
    if m is not None:
        res = singular.singular_series(m, s, k, o.q_cut)
        rows.append(["series_partial", res.partial, f"m={m} Q_cut={o.q_cut}"])
        rows.append(["series_last_block", res.last_block, ""])
        ok &= res.partial >= -1e-6
        if o.integral:
            exact, asym = singular.singular_integral(m, s, k)
            rows.append(["integral_exact", exact, ""])
            rows.append(["integral_asymptotic", asym, ""])
    if o.n is not None:
        loc = singular.local_solubility(k, s, o.n)
        rows.append(["local_witness", 1.0 if loc.witness else 0.0,
                     f"witness={loc.witness} mod={loc.modulus}"])
        ok &= loc.witness is not None
    if not rows:
        raise ConfigError("singular needs --m and/or --n")
    return Report(
        name=f"singular k={k} s={s}",
        columns=[Column("quantity"), Column("value"), Column("detail")],
        values=list(zip(*rows)),
        ok=ok,
    )


def _cmd_check(o: argparse.Namespace) -> Report:
    k, s, phi, t = o.k, o.s, o.phi, o.t
    if t is not None and not math.isfinite(t):
        raise ConfigError(f"--t must be finite, got {t}")
    if t is not None and t == int(t):
        t = int(t)
    rep = constants.condition_check(k, s, phi, r=o.r, t=t, delta_source=o.delta_source)
    rows = [
        ["s_ge_3k_over_2", rep.s_ge_3k_over_2, ""],
        ["size_condition", rep.size_condition, ""],
    ]
    if rep.height_condition is not None:
        rows.append(["height_condition", rep.height_condition, f"delta_s={rep.delta_s}"])
    if rep.slice_condition is not None:
        rows.append(["slice_condition", rep.slice_condition,
                     f"delta_s_plus_t={rep.delta_s_plus_t} delta_star={rep.delta_star}"])
    bounds = dataclasses.asdict(constants.bound_catalog(k, h=o.h))
    del bounds["k"], bounds["h"]
    meta = {
        "delta_star": None if rep.delta_star is None else float(rep.delta_star),
        "bounds": bounds,
    }
    return Report(
        name=f"condition-check k={k} s={s} phi={phi}",
        columns=[Column("condition"), Column("holds"), Column("detail")],
        values=list(zip(*rows)),
        meta=meta,
        ok=rep.all_passed(),
    )


#: Every command once: name -> (handler, help, required options, other options).
#: Each command also takes --format and --config.
_COMMANDS = {
    "constants": (_cmd_constants, "pruning-constant table and headline constants", (), ()),
    "thm14-table": (_cmd_exponent_table, "verify the stored exponent rows (phi = 1/8)", (), ()),
    "counts": (_cmd_counts, "representation counts and zero sets",
               ("k", "s", "limit"), ("zero-set", "x-kind", "natural")),
    "moments": (_cmd_moments, "exact and quadrature moments of the smooth Weyl sum",
                ("k", "r", "limit"),
                ("eta", "t", "Q", "region", "grid-points", "mean-value", "tolerance")),
    "weights": (_cmd_weights, "sup profile of |W| over dyadic slices, with decay fit",
                ("kind", "limit"), ("h", "slices", "samples", "seed")),
    "singular": (_cmd_singular, "singular series, exact integral, local solubility",
                 ("k", "s"), ("m", "q-cut", "integral", "n")),
    "check": (_cmd_check, "entry conditions and the bound catalogue",
              ("k", "s", "phi"), ("r", "t", "delta-source", "h")),
}

#: Options a command reads only beside another setting: (command, option) ->
#: (what it needs, test on the resolved options).  Passing one as a flag
#: without the other is a usage error; a config file or PARTITIO_<NAME> may
#: serve several commands, so a value from there is only left unread.
_NEEDS = {
    ("weights", "h"): ("--kind hth_powers", lambda o: o.kind == "hth_powers"),
    **{("moments", name): ("--t", lambda o: o.t is not None) for name in ("region", "grid-points")},
    ("moments", "Q"): ("--t and --region major|slice",
                       lambda o: o.t is not None and o.region != "full"),
    ("moments", "tolerance"): ("--region full and --t equal to 2r", _compares_exact),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use, then shared: argparse keeps no state between parses."""
    parser = argparse.ArgumentParser(
        prog="partitio",
        description="Desk-scale circle-method workbench: exact counts, "
        "Weyl-sum profiles, singular series, constants engine.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (_, help_text, required, optional) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in ("format", *required, *optional):
            kind, _, choices, help_text = _OPTIONS[name]
            how = (dict(action="store_true", default=None) if kind is bool
                   else dict(type=kind, choices=choices))
            p.add_argument(f"--{name}", help=help_text, **how)
        p.add_argument("--config", help="key=value config file")
    return parser


def _cast(name: str, text: str, origin: str) -> Any:
    """A config or environment value through the option's own type and choices."""
    kind, _, choices, _ = _OPTIONS[name]
    try:
        value = (_switch if kind is bool else kind)(text)
    except ValueError as exc:
        raise ConfigError(f"{origin}: invalid value {text!r} for --{name}: {exc}") from None
    if choices is not None and value not in choices:
        raise ConfigError(f"{origin}: invalid choice {text!r} for --{name} "
                          f"(choose from {', '.join(choices)})")
    return value


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Fill every option of the command that no flag set, from the config
    file, then PARTITIO_<NAME>, then the default; then refuse a flag whose
    ``_NEEDS`` do not hold."""
    config = _parse_config_file(args.config) if args.config else {}
    unknown = set(config) - set(_OPTIONS)
    if unknown:
        raise ConfigError(
            f"{args.config}: unknown keys {sorted(unknown)} (allowed: {sorted(_OPTIONS)})"
        )
    _, _, required, optional = _COMMANDS[args.command]
    flags = [name for name in optional if getattr(args, name.replace("-", "_")) is not None]
    for name in (*required, *optional, "format"):
        dest = name.replace("-", "_")
        if getattr(args, dest) is not None:
            continue
        env = "PARTITIO_" + dest.upper()
        if name in config:
            setattr(args, dest, _cast(name, config[name], f"{args.config}: {name}"))
        elif env in os.environ:
            setattr(args, dest, _cast(name, os.environ[env], env))
        elif name in required:
            raise ConfigError(f"missing required option --{name}")
        else:
            setattr(args, dest, _OPTIONS[name][1])
    for name in flags:
        needs, holds = _NEEDS.get((args.command, name), (None, None))
        if needs and not holds(args):
            raise ConfigError(f"--{name} is read only with {needs}")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        o = _resolve(args)
        report = _COMMANDS[args.command][0](o)
        sys.stdout.write(emit(report, o.format))
        return 0 if report.ok else 1
    except (ConfigError, OSError, ValueError, KeyError, arith.PrecisionLimit,
            arith.CapacityLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
