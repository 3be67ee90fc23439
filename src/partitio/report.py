"""Report assembly and serialisation (csv, json, pretty).

A report holds its table as columns, one sequence of values per column, each
with an optional display convention (digit count plus "ceil"/"floor"
rounding, mirroring how the reference tables print their last digit).  The
emitters format each column once and zip the formatted columns into rows.
Emission is deterministic: fixed row order, '.' decimal separator, no locale,
stable JSON layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import Any, Optional, Sequence

from partitio.constants import round_down_str, round_up_str


@dataclass(frozen=True)
class Column:
    name: str
    digits: Optional[int] = None
    convention: Optional[str] = None  # "ceil" | "floor" | None


@dataclass
class Report:
    name: str
    columns: list[Column]
    values: list[Sequence[Any]]  # one sequence per column, parallel to `columns`
    meta: dict = field(default_factory=dict)
    ok: bool = True


def _display(value: Any, col: Column) -> str:
    if col.digits is not None and isinstance(value, (float, Fraction)):
        if col.convention == "ceil":
            return round_up_str(value, col.digits)
        if col.convention == "floor":
            return round_down_str(value, col.digits)
        return f"{float(value):.{col.digits}f}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _columns(report: Report) -> list[list[str]]:
    """`_display` of every cell, column by column.  Without digits `_display` is
    `str` except on bools and on float subclasses (numpy's repr differs)."""
    columns = []
    for col, values in zip(report.columns, report.values, strict=True):
        if col.digits is not None:
            columns.append([_display(v, col) for v in values])
        else:
            columns.append(["true" if v is True else "false" if v is False
                            else repr(v) if isinstance(v, float) else str(v) for v in values])
    return columns


def emit_csv(report: Report) -> str:
    lines = [",".join(c.name for c in report.columns)]
    lines.extend(map(",".join, zip(*_columns(report))))
    return "\n".join(lines) + "\n"


def _json_table(rows: list) -> str:
    """`json.dumps(rows, indent=2)` as laid out one level deep, for non-empty rows
    of scalars.  The C encoder writes bare newlines between items.  No encoded
    scalar holds a newline, starts with '[' or ends with ']', so ']\\n[' marks a
    row boundary and every newline can be indented in place."""
    if not rows:
        return "[]"
    text = json.dumps(rows, separators=("\n", ":")).replace("\n", ",\n      ")
    return ("[\n    [\n      " + text[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
            + "\n    ]\n  ]")


def emit_json(report: Report) -> str:
    """Byte for byte `json.dumps(payload, indent=2, sort_keys=True)`, but the
    tables skip the pure-Python encoder that `indent` selects."""
    cols = []
    for c in report.columns:
        entry: dict[str, Any] = {"name": c.name}
        if c.digits is not None:
            entry["digits"] = c.digits
        if c.convention is not None:
            entry["convention"] = c.convention
        cols.append(entry)
    values = report.values
    kinds = set(map(type, chain.from_iterable(values)))
    if any(issubclass(t, Fraction) for t in kinds):
        values = [[float(v) if isinstance(v, Fraction) else v for v in col] for col in values]
    payload = {"name": report.name, "ok": report.ok, "columns": cols, "meta": report.meta,
               "rows": list(zip(*values)), "display": list(zip(*_columns(report)))}
    scalars = (str, int, float, type(None), Fraction)
    if not report.columns or not all(issubclass(t, scalars) for t in kinds):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    parts = [f'  "{key}": ' + (_json_table(value) if key in ("display", "rows") else
                               json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
             for key, value in sorted(payload.items())]
    return "{\n" + ",\n".join(parts) + "\n}\n"


def reemit_json(payload_text: str) -> str:
    """Parse emitted JSON and re-serialise; byte-identical by construction."""
    return json.dumps(json.loads(payload_text), indent=2, sort_keys=True) + "\n"


def emit_pretty(report: Report) -> str:
    headers = [c.name for c in report.columns]
    columns = _columns(report)
    widths = [max(len(h), max(map(len, col), default=0)) for h, col in zip(headers, columns)]
    out = [report.name, "=" * len(report.name)]
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    padded = [list(map(str.ljust, col, repeat(w))) for col, w in zip(columns, widths)]
    out.extend(map("  ".join, zip(*padded)))
    if report.meta:
        out += ["", *(f"{key}: {value}" for key, value in report.meta.items())]
    out += ["", f"status: {'ok' if report.ok else 'FAILED'}"]
    return "\n".join(out) + "\n"


#: Every output format once: name -> emitter.
EMITTERS = {"csv": emit_csv, "json": emit_json, "pretty": emit_pretty}


def emit(report: Report, fmt: str) -> str:
    if fmt not in EMITTERS:
        raise ValueError(f"unknown format {fmt!r}")
    return EMITTERS[fmt](report)
