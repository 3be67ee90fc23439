"""Report assembly and serialisation (csv, json, pretty).

A report holds its table as columns, one sequence of values per column, each
with an optional display convention (digit count plus "ceil"/"floor"
rounding, mirroring how the reference tables print their last digit).  The
emitters format each column with one formatter, picked from the set of its
value types, and zip the formatted columns into rows; the JSON tables are
joined from cells encoded a column at a time.  Emission is deterministic:
fixed row order, '.' decimal separator, no locale, stable JSON layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
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


def _columns(report: Report) -> tuple[list[set[type]], list[list[str]]]:
    """The set of value types of each column, and `_display` of its cells by one
    formatter picked from that set: `str` on ints and strs (digits round only
    floats and Fractions), `repr` on floats without digits, and `_display`
    cell by cell on any other mix (bools, Fractions, float subclasses)."""
    kinds = [{int} if isinstance(values, range) else set(map(type, values))
             for values in report.values]
    return kinds, [list(map(str, values)) if types <= {int, str}
                   else list(map(repr, values)) if types == {float} and col.digits is None
                   else [_display(v, col) for v in values]
                   for col, values, types in zip(report.columns, report.values, kinds, strict=True)]


def emit_csv(report: Report) -> str:
    lines = [",".join(c.name for c in report.columns)]
    lines.extend(map(",".join, zip(*_columns(report)[1])))
    return "\n".join(lines) + "\n"


def _json_cells(values: Sequence[Any], types: set[type], shown: list[str]) -> list[str]:
    """Each cell of a column, Fractions already floats, as `json.dumps(...,
    indent=2)` writes it in a row.  An int column's cells are its display
    strings (`str` of an int is its JSON).  No scalar's JSON holds a raw
    newline, so any other column of scalars is one C-encoder line split at
    its separators; a column holding a container is encoded cell by cell."""
    if types <= {int}:
        return shown
    if not all(issubclass(t, (str, int, float, type(None), Fraction)) for t in types):
        return [json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n      ") for v in values]
    return json.dumps(list(values), separators=("\n", ":"))[1:-1].split("\n") if len(values) else []


def _json_table(columns: list[list[str]]) -> str:
    """`json.dumps(rows, indent=2)` one level deep, from each column's encoded cells."""
    rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*columns)))
    return "[\n    [\n      " + rows + "\n    ]\n  ]" if rows else "[]"


def emit_json(report: Report) -> str:
    """Byte for byte `json.dumps(payload, indent=2, sort_keys=True)`.  The
    `rows` and `display` tables are joined from encoded cells, one column at a
    time: an int column's cells are its display strings, a column of other
    scalars (Fractions as floats) takes one C-encoder call, and display strings
    take `encode_basestring_ascii`.  Only a column holding a list or another
    container goes cell by cell through the encoder that `indent` selects."""
    kinds, display = _columns(report)
    values = [[float(v) if isinstance(v, Fraction) else v for v in col]
              if any(issubclass(t, Fraction) for t in types) else col
              for col, types in zip(report.values, kinds)]
    columns = [{"name": c.name} | {key: v for key, v in (("digits", c.digits),
                                                         ("convention", c.convention)) if v is not None}
               for c in report.columns]
    head = {"name": report.name, "ok": report.ok, "columns": columns, "meta": report.meta}
    texts = {key: json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  ") for key, v in head.items()}
    texts["rows"] = _json_table([_json_cells(col, types, shown)
                                 for col, types, shown in zip(values, kinds, display)])
    texts["display"] = _json_table([list(map(encode_basestring_ascii, shown)) for shown in display])
    return "{\n" + ",\n".join(f'  "{key}": {texts[key]}' for key in sorted(texts)) + "\n}\n"


def reemit_json(payload_text: str) -> str:
    """Parse emitted JSON and re-serialise; byte-identical by construction."""
    return json.dumps(json.loads(payload_text), indent=2, sort_keys=True) + "\n"


def emit_pretty(report: Report) -> str:
    headers = [c.name for c in report.columns]
    columns = _columns(report)[1]
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
