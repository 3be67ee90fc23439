"""Spans around the calls into each partitio layer, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules, and the
public methods of their classes (the ``Dissection`` methods among them), at
every import site inside the package: ``from x import y`` bindings such as
``expsums.sample_slice_alphas`` or ``cli.emit`` are replaced as well as the
defining module's own name.  ``Tracer.restore`` puts every original back.

A span is named ``<layer>.<function>``, the same names an in-program tracing
module would use, and records start, end, its parent span and the job id.
A few spans also carry work counters computed from their arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from oracles import iroot, primes

LAYERS = ("arith", "weights", "arcs", "expsums", "counting", "singular",
          "constants", "report", "cli")

CLASSIFIERS = ("arcs.Dissection.in_major", "arcs.Dissection.in_slice")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at a job's top level
    job: int
    counters: Optional[dict]


def _is_uniform_grid(alphas: np.ndarray) -> bool:
    G = len(alphas)
    return G > 0 and alphas[0] == 0 and np.array_equal(alphas, np.arange(G, dtype=float) / G)


def _exp_sum_many(a, result):
    alphas = np.asarray(a["alphas"], dtype=float)
    side = "points_grid" if _is_uniform_grid(alphas) else "points_offgrid"
    return {side: len(alphas), "terms": len(a["w"].support) * len(alphas)}


def _power_convolution(a, result):
    k, N = a["k"], a["N"]
    base = a["base"]
    if isinstance(base, str):
        kernel = iroot(N, k)
    else:
        kernel = int(np.count_nonzero(base.members <= iroot(N, k)))
    kernel += int(a["allow_zero"])
    return {"fold_cells": a["s"] * kernel * (N + 1), "table": 1,
            "bigint": int(result.counts.dtype == object)}


def _representation_counts(a, result):
    N, x_kind, zero = a["N"], a["x_kind"], int(a["x_nonneg"])
    xs = {"square": math.isqrt(N) + zero,
          "prime_square": len(primes(math.isqrt(N))),
          "hth_power": iroot(N, a["h"] or 1) + zero,
          "none": 0}[x_kind]
    return {"fold_cells": xs * (N + 1), "table": 1,
            "bigint": int(result.counts.dtype == object)}


#: Work counters per span name, computed from the bound arguments and result.
COUNTERS = {
    "expsums.exp_sum_many": _exp_sum_many,
    "expsums.exp_sum": lambda a, r: {"points_offgrid": 1, "terms": len(a["w"].support)},
    "expsums.exp_sum_rational": lambda a, r: {"points_grid": 1, "terms": len(a["w"].support)},
    "arcs.sample_slice_alphas": lambda a, r: {"points": len(r)},
    "counting.power_convolution": _power_convolution,
    "counting.representation_counts": _representation_counts,
    "singular.singular_series": lambda a, r: {"series_q": a["Q_cut"]},
    "arith.sieve_tables": lambda a, r: {"sieve_n": a["N"]},
    "arith.smooth_set": lambda a, r: {"smooth_p": a["P"]},
    "weights.make_weight": lambda a, r: {"support": len(r.support)},
    "report.emit": lambda a, r: {"bytes": len(r)},
}


class Tracer:
    """Collects spans in memory while installed; ``spans`` is cleared between passes."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = COUNTERS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.job, None)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx] = spans[idx]._replace(counters=hook(bound.arguments, result))
            return result

        return traced

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"partitio.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            name = f"{layer}.{obj.__name__}.{mname}"
                            self._patch(obj, mname, meth, self._wrap(name, meth))
        for modname, mod in list(sys.modules.items()):
            if modname != "partitio" and not modname.startswith("partitio."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, obj, wrappers[obj])

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def dump_spans(spans: list[Span]) -> dict:
    """Spans in a compact column form, for writing out at the end of a run."""
    names = sorted({s.name for s in spans})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "columns": ["name", "start", "end", "parent", "job", "counters"],
        "spans": [[index[s.name], s.start, s.end, s.parent, s.job, s.counters] for s in spans],
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and wall time.

    Self time is a span's duration minus the time its child spans cover.
    ``<layer>.calls`` counts entries into the layer from outside it.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counts: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        layer = layer_of(s.name)
        self_s[layer] += (s.end - s.start) - child_time[i]
        parent = spans[s.parent].name if s.parent >= 0 else ""
        inside = layer_of(parent) == layer
        if not inside:
            calls[layer] += 1
        for key, value in (s.counters or {}).items():
            if key in ("table", "bigint") and inside:
                continue  # count only tables returned across the layer boundary
            counts[key] += value
        if s.name == "arcs.dirichlet_approx":
            counts["approx_calls"] += 1
        elif s.name == "constants.solve_monotone":
            counts["solve_calls"] += 1
        elif s.name in CLASSIFIERS:
            if parent == "arcs.sample_slice_alphas":
                counts["sample_tests"] += 1
            elif parent == "counting.quadrature_moment":
                counts["mask_points"] += 1
        elif s.name == "expsums.exp_sum_many" and layer_of(parent) == "counting":
            c = s.counters
            counts["quad_points"] += c.get("points_grid", 0) + c.get("points_offgrid", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.share"] = self_s[layer] / wall_s
    out.update({
        "arcs.approx_calls": counts["approx_calls"],
        "arcs.points_sampled": counts["points"],
        "arcs.sample_yield": ratio(counts["points"], counts["sample_tests"]),
        "arcs.mask_points": counts["mask_points"],
        "expsums.points_grid": counts["points_grid"],
        "expsums.points_offgrid": counts["points_offgrid"],
        "expsums.terms": counts["terms"],
        "expsums.terms_per_s": ratio(counts["terms"], self_s["expsums"]),
        "counting.fold_cells": counts["fold_cells"],
        "counting.bigint_share": ratio(counts["bigint"], counts["table"]),
        "counting.quad_points": counts["quad_points"],
        "singular.series_q": counts["series_q"],
        "arith.sieve_n": counts["sieve_n"],
        "arith.smooth_p": counts["smooth_p"],
        "weights.support": counts["support"],
        "constants.solve_calls": counts["solve_calls"],
        "report.bytes": counts["bytes"],
    })
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
