import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import partitio
from partitio import cli, expsums
from partitio.cli import FORMATS, main
from partitio.counting import representation_counts, zero_set
from partitio.expsums import sup_profile
from partitio.report import Column, Report, _display, emit, emit_json, reemit_json
from partitio.weights import make_weight


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------


def _sample_report():
    return Report(
        name="sample",
        columns=[Column("x"), Column("value", 6, "ceil"), Column("note")],
        values=[[0.125, 0.375], [3.3532704041, 2.4816912479], ["a", "b"]],
        meta={"alpha": 1, "beta": [1, 2]},
    )


def test_emit_csv_golden():
    got = emit(_sample_report(), "csv")
    assert got == "x,value,note\n0.125,3.353271,a\n0.375,2.481692,b\n"


def test_emit_json_round_trips_byte_identically():
    text = emit(_sample_report(), "json")
    assert reemit_json(text) == text
    payload = json.loads(text)
    assert payload["columns"][1] == {"name": "value", "digits": 6, "convention": "ceil"}
    assert payload["display"][0][1] == "3.353271"


def test_emit_pretty_golden():
    got = emit(_sample_report(), "pretty")
    expected = (
        "sample\n"
        "======\n"
        "x      value     note\n"
        "-----  --------  ----\n"
        "0.125  3.353271  a   \n"
        "0.375  2.481692  b   \n"
        "\n"
        "alpha: 1\n"
        "beta: [1, 2]\n"
        "\n"
        "status: ok\n"
    )
    assert got == expected


def _reference_emit(report, fmt):
    """The per-cell emitters: `_display` on every cell of the rows zipped from
    the columns, and the JSON payload through `json.dumps(..., indent=2,
    sort_keys=True)`."""
    rows = [list(row) for row in zip(*report.values)]
    cells = [[_display(v, c) for v, c in zip(row, report.columns)] for row in rows]
    if fmt == "csv":
        return "\n".join([",".join(c.name for c in report.columns)]
                         + [",".join(r) for r in cells]) + "\n"
    if fmt == "json":
        cols = []
        for c in report.columns:
            entry = {"name": c.name}
            if c.digits is not None:
                entry["digits"] = c.digits
            if c.convention is not None:
                entry["convention"] = c.convention
            cols.append(entry)
        payload = {
            "name": report.name,
            "ok": report.ok,
            "columns": cols,
            "rows": [[float(v) if isinstance(v, Fraction) else v for v in row] for row in rows],
            "display": cells,
            "meta": report.meta,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    headers = [c.name for c in report.columns]
    widths = [max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
              for i in range(len(headers))]
    out = [report.name, "=" * len(report.name)]
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    out += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in cells]
    if report.meta:
        out.append("")
        out += [f"{key}: {report.meta[key]}" for key in report.meta]
    out += ["", f"status: {'ok' if report.ok else 'FAILED'}"]
    return "\n".join(out) + "\n"


def _outcome(fn, *args):
    try:
        return "text", fn(*args)
    except Exception as exc:
        return "raises", type(exc)


_texts = st.text(alphabet=st.sampled_from('ab,"\\\n\té€😀 -:'), max_size=8)
_numbers = st.one_of(
    st.integers(-2**80, 2**80),
    st.floats(),  # nan, +-inf and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.1, 2.0**70]),
    st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**9),
    st.floats().map(np.float64),  # a float subclass whose repr is not its str
)
_cells = st.one_of(_numbers, st.booleans(), st.none(), _texts,
                   st.lists(st.integers(), max_size=2))  # a nested cell
_digit_cells = st.one_of(
    st.floats(-1e9, 1e9), st.fractions(max_denominator=10**6).filter(lambda f: abs(f) < 10**6),
    st.integers(-10**6, 10**6), st.booleans(), st.none(),
)
_meta = st.dictionaries(
    _texts,
    st.recursive(st.one_of(st.integers(-2**70, 2**70), st.floats(), st.booleans(), st.none(),
                           _texts),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(_texts, inner, max_size=3),
                 max_leaves=6),
    max_size=3,
)


@st.composite
def _reports(draw):
    columns = draw(st.lists(
        st.builds(Column, _texts, st.none())
        | st.builds(Column, _texts, st.integers(0, 8), st.sampled_from([None, "ceil", "floor"])),
        max_size=4,
    ))
    n_rows = draw(st.integers(0, 5))
    # a column is a list of cells, a range (as `counts` passes n) or an int64
    # array's `.tolist()` (as `counts` passes the counts)
    start = draw(st.integers(-10**6, 10**6))
    ints = st.lists(st.integers(-2**63, 2**63 - 1), min_size=n_rows, max_size=n_rows)
    values = [draw(st.one_of(
        st.lists(_cells if c.digits is None else _digit_cells, min_size=n_rows, max_size=n_rows),
        st.just(range(start, start + n_rows)),
        ints.map(lambda v: np.array(v, dtype=np.int64).tolist()),
    )) for c in columns]
    return Report(name=draw(_texts), columns=columns, values=values, meta=draw(_meta),
                  ok=draw(st.booleans()))


_EDGE_REPORTS = {
    "int digits": Report("ints", [Column("n", 3, "ceil"), Column("m", 0)],
                         [[0, -7, 2**70], range(3)]),
    "float specials": Report("floats", [Column("x")],
                             [[math.nan, math.inf, -math.inf, -0.0, 0.1]]),
    "fractions": Report("fractions", [Column("q")], [[Fraction(1, 3), Fraction(-7, 2), Fraction(4)]]),
    "zero rows": Report("empty", [Column("a"), Column("b", 2, "floor")], [[], range(0)]),
    "str escapes": Report("strs", [Column("s")], [['"', "\\", "a\nb", "\U0001f600", ""]]),
}


@given(_reports(), st.sampled_from(["csv", "json", "pretty"]))
@example(Report("no columns", [], []), "json")
@example(_EDGE_REPORTS["int digits"], "json")
@example(_EDGE_REPORTS["int digits"], "pretty")
@example(_EDGE_REPORTS["float specials"], "json")
@example(_EDGE_REPORTS["float specials"], "csv")
@example(_EDGE_REPORTS["fractions"], "json")
@example(_EDGE_REPORTS["fractions"], "pretty")
@example(_EDGE_REPORTS["zero rows"], "json")
@example(_EDGE_REPORTS["zero rows"], "pretty")
@example(_EDGE_REPORTS["str escapes"], "json")
@example(_EDGE_REPORTS["str escapes"], "csv")
def test_emit_matches_per_cell_reference(report, fmt):
    assert _outcome(emit, report, fmt) == _outcome(_reference_emit, report, fmt)


def test_emit_json_encodes_columns_of_scalars_without_a_call_per_row(monkeypatch):
    calls = []
    dumps = json.dumps

    def counted(*args, **kwargs):
        calls.append(1)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    per_size = {}
    for rows in (10, 10**4):
        calls.clear()
        emit_json(Report("scalars", [Column("n"), Column("count"), Column("x", 3, "floor"),
                                     Column("q"), Column("s")],
                         [range(rows), list(range(rows, 2 * rows)), [0.5] * rows,
                          [Fraction(1, 3)] * rows, ["a"] * rows], meta={"total": rows}))
        per_size[rows] = len(calls)
    assert per_size[10] == per_size[10**4]


def test_digit_conventions_round_a_fraction_exactly():
    assert _display(Fraction(3, 10), Column("x", 4, "floor")) == "0.3000"
    assert _display(Fraction(1, 10), Column("x", 4, "ceil")) == "0.1000"
    assert _display(5e-8, Column("x", 8, "floor")) == "0.00000004"
    assert _display(Fraction(3, 10), Column("x", 4)) == "0.3000"


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit(_sample_report(), "xml")


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------


def test_constants_csv_reference_row(capsys):
    code, out, _ = run_cli(capsys, "constants", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "phi,rhs,z_star,c2_star,c1"
    assert len(lines) == 11
    assert "0.125,2.76129437,4.1952465,3.353271,3.710089" in lines


def test_zero_set_via_cli(capsys):
    code, out, _ = run_cli(
        capsys, "counts", "--k", "4", "--s", "6", "--limit", "200", "--zero-set",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["47", "62", "63", "77", "78", "79", "143", "158", "159"]


@pytest.mark.parametrize(
    "flags, kwargs",
    [
        (["--x-kind", "prime_square", "--natural"],
         dict(x_kind="prime_square", x_nonneg=False, y_nonneg=False)),
        (["--x-kind", "none"], dict(x_kind="none", x_nonneg=True, y_nonneg=True)),
    ],
)
def test_zero_set_via_cli_matches_library(capsys, flags, kwargs):
    code, out, _ = run_cli(
        capsys, "counts", "--k", "3", "--s", "2", "--limit", "300", "--zero-set",
        *flags, "--format", "csv",
    )
    assert code == 0
    expected = zero_set(3, 2, 300, **kwargs)
    assert expected
    assert out.splitlines()[1:] == [str(n) for n in expected]


def test_precision_limit_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "weights", "--kind", "hth_powers", "--h", "5",
        "--limit", "10000000000000000", "--slices", "20",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_slice_height_below_one_is_refused_at_any_sample_count(capsys):
    # --slices 6 at n = 100 reaches Q = 20/32 < 1, which no sample count lets through
    code, out, err = run_cli(
        capsys, "weights", "--kind", "squares", "--limit", "100", "--slices", "6",
        "--samples", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: Q=0.625 outside [1, 2*sqrt(n)]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("singular", "--k", "0", "--s", "5", "--m", "5"),
        ("singular", "--k", "-2", "--s", "5", "--n", "37"),
        ("singular", "--k", "3", "--s", "5", "--m", "-1", "--integral"),
        ("weights", "--kind", "mobius", "--limit", "100000000"),  # CapacityLimit of the sieve
        ("moments", "--k", "3", "--r", "2", "--limit", "400"),  # a 2 * 400**3 entry table
        ("weights", "--kind", "squares", "--limit", str(10**30)),  # 10**15 squares
        ("weights", "--kind", "hth_powers", "--h", "3", "--limit", str(10**400)),  # past floats
        ("weights", "--kind", "hth_powers", "--h", "3", "--limit", str(10**20)),  # past int64
        ("weights", "--kind", "e2", "--limit", str(10**20)),
    ],
)
def test_refused_inputs_are_usage_errors(capsys, monkeypatch, argv):
    # budgets are checked before any array exists: without numpy in counting
    # and weights, an allocation there would raise another error
    monkeypatch.setattr(cli.counting, "np", None)
    monkeypatch.setattr(cli.weights, "np", None)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err[len("error: "):].strip()


def test_oversized_quadrature_grid_is_usage_error(capsys, monkeypatch):
    # moment_exact runs first and needs numpy in counting, so only expsums
    # loses it: the grid is refused before exp_sum_grid allocates
    monkeypatch.setattr(expsums, "np", None)
    argv = ("moments", "--k", "3", "--r", "1", "--limit", "5", "--t", "2",
            "--grid-points", "50000001")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err[len("error: "):].strip()


@pytest.mark.parametrize("argv, message", [
    # the first n whose top slice needs a denominator past the budget:
    # isqrt(4n) = 50000001, refused before any draw
    (("weights", "--kind", "hth_powers", "--h", "10", "--limit", "625000025000001",
      "--slices", "1", "--samples", "5"),
     "top slice denominator 50000001 (n = 625000025000001, Q = 50000001)"),
    (("moments", "--k", "3", "--r", "2", "--limit", "12", "--t", "4",
      "--grid-points", "60000000"), "grid of 60000000 points"),
])
def test_budget_refusals_name_what_they_budget(capsys, argv, message):
    # neither number is a --limit the user gave, so the refusal names its own
    # (the sampler's, with the n and Q it follows from)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message} exceeds budget 50000000\n"


def test_weights_past_the_sampler_budget_is_refused_before_any_slice(capsys, monkeypatch):
    # the top slice is checked first: no exp sum of a lower slice runs
    def never(*args, **kwargs):
        raise AssertionError("a slice was summed before the refusal")

    monkeypatch.setattr(expsums, "exp_sum_many", never)
    code, out, err = run_cli(capsys, "weights", "--kind", "hth_powers", "--h", "3",
                             "--limit", "1000000000000000")
    assert (code, out) == (2, "")
    assert err == ("error: top slice denominator 63245553 (n = 1000000000000000, "
                   "Q = 63245553.2034) exceeds budget 50000000\n")


def test_mean_value_past_the_int64_range_cli(capsys):
    code, out, _ = run_cli(capsys, "moments", "--k", "3", "--r", "10", "--limit", "10",
                           "--mean-value", "--format", "csv")
    assert code == 0
    assert "mean_value_N,2.542097279315692e+19" in out


def test_empty_command_is_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert out == ""


def test_verification_failure_exit_code(capsys):
    # k=3, s=5, phi=0.1: the stored Delta_5 = 10/17 fails 2 Delta < k phi,
    # so the check must exit 1
    code, out, _ = run_cli(
        capsys, "check", "--k", "3", "--s", "5", "--phi", "0.1", "--format", "pretty"
    )
    assert code == 1
    assert "status: FAILED" in out


def test_unresolvable_delta_is_config_error(capsys):
    code, _, err = run_cli(capsys, "check", "--k", "7", "--s", "6", "--phi", "1/2")
    assert code == 2
    assert "Delta" in err


def test_missing_required_option(capsys):
    code, _, err = run_cli(capsys, "counts", "--k", "4", "--s", "6")
    assert code == 2
    assert "limit" in err


def test_thm14_cli(capsys):
    code, out, _ = run_cli(capsys, "thm14-table", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("7,4,3.27,20,6,0.1926,0.2187")


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 4\ns = 6\nlimit = 200   # truncation\nzero-set = true\nformat = csv\n")
    code, out, _ = run_cli(capsys, "counts", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1] == "47"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 4\nwibble = 2\n")
    code, _, err = run_cli(capsys, "counts", "--config", str(cfg))
    assert code == 2
    assert "wibble" in err


def test_config_file_parse_error_has_line_number(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 4\nthis is not a pair\n")
    code, _, err = run_cli(capsys, "counts", "--config", str(cfg))
    assert code == 2
    assert ":2:" in err


def test_cli_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("limit = 46\nzero-set = true\nformat = csv\n")
    code, out, _ = run_cli(
        capsys, "counts", "--k", "4", "--s", "6", "--limit", "200", "--config", str(cfg)
    )
    assert code == 0
    assert "47" in out.splitlines()


def test_env_override(monkeypatch, capsys):
    monkeypatch.setenv("PARTITIO_FORMAT", "csv")
    code, out, _ = run_cli(capsys, "thm14-table")
    assert code == 0
    assert out.startswith("k,r,delta_2r")


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "weights", "--kind", "squares", "--limit", "10000",
                         "--slices", "3", "--samples", "60", "--seed", "9",
                         "--format", "json")
    _, out2, _ = run_cli(capsys, "weights", "--kind", "squares", "--limit", "10000",
                         "--slices", "3", "--samples", "60", "--seed", "9",
                         "--format", "json")
    assert out1 == out2


def test_singular_cli(capsys):
    code, out, _ = run_cli(
        capsys, "singular", "--k", "3", "--s", "5", "--m", "5", "--q-cut", "200",
        "--integral", "--n", "37", "--format", "csv",
    )
    assert code == 0
    assert "series_partial" in out and "local_witness" in out


@pytest.mark.parametrize("q_cut", ["7", "8", "9", "10"])
def test_singular_cli_last_block_of_vanishing_terms_is_zero(q_cut, capsys):
    # every A_5(q) with Q_cut/2 < q <= Q_cut is 0 at k = 5: 2, 3 and 7 are
    # vanishing primes, c_4(5) = c_8(5) = c_9(5) = 0 are Ramanujan sums, and
    # x^5 = x mod 5 makes the FFT table at q = 5 exactly 0
    code, out, _ = run_cli(capsys, "singular", "--k", "5", "--s", "9", "--m", "5",
                           "--q-cut", q_cut, "--format", "csv")
    assert code == 0
    assert out == ("quantity,value,detail\n"
                   f"series_partial,1.0,m=5 Q_cut={q_cut}\n"
                   "series_last_block,0.0,\n")


def test_moments_cli_quadrature_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--k", "3", "--r", "1", "--limit", "10", "--t", "2",
        "--format", "csv",
    )
    assert code == 0
    assert "moment_exact,10.0" in out


def test_phi_with_zero_denominator_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--k", "7", "--s", "20", "--phi", "1/0"])
    assert exc.value.code == 2
    assert "1/0" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("phi = 1/0\n")
    code, out, err = run_cli(capsys, "check", "--k", "7", "--s", "20", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "zero denominator" in err


def test_moments_rejects_fractional_t(capsys):
    argv = ["moments", "--k", "3", "--r", "2", "--limit", "12", "--format", "csv"]
    code, out, err = run_cli(capsys, *argv, "--t", "4.7")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "4.7" in err
    for t in ("4", "4.0"):
        code, out, _ = run_cli(capsys, *argv, "--t", t)
        assert code == 0
        assert "quadrature[full] t=4," in out


def test_zero_samples_is_usage_error(capsys):
    with pytest.raises(ValueError):
        sup_profile(make_weight("squares", 10**4), 10**4, [20.0, 80.0], samples_per_slice=0)
    code, out, err = run_cli(capsys, "weights", "--kind", "squares", "--limit", "10000",
                             "--samples", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_non_finite_check_t_is_usage_error(capsys):
    for t in ("inf", "-inf", "nan"):
        code, out, err = run_cli(capsys, "check", "--k", "7", "--s", "20", "--phi", "1/8",
                                 "--r", "4", f"--t={t}")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "finite" in err


def test_nonpositive_slices_is_usage_error(tmp_path, capsys):
    argv = ["weights", "--kind", "squares", "--limit", "10000"]
    for slices in ("0", "-3"):
        code, out, err = run_cli(capsys, *argv, "--slices", slices)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "slices" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("slices = 0\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "slices" in err


README_COMMANDS = [
    ["constants", "--format", "csv"],
    ["thm14-table"],
    ["counts", "--k", "4", "--s", "6", "--limit", "200", "--zero-set"],
    ["moments", "--k", "3", "--r", "2", "--limit", "12", "--t", "4"],
    ["weights", "--kind", "squares", "--limit", "1000000", "--seed", "1"],
    ["singular", "--k", "3", "--s", "5", "--m", "5", "--integral", "--n", "37"],
    ["check", "--k", "7", "--s", "20", "--phi", "1/8", "--r", "4", "--t", "6"],
]


def _fresh_process_stdout(argv, **env):
    src = str(Path(partitio.__file__).resolve().parent.parent)
    environ = {k: v for k, v in os.environ.items() if not k.startswith("PARTITIO_")}
    environ.update(env, PYTHONPATH=src + os.pathsep + environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "partitio.cli", *argv], env=environ,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout


def test_shared_parser_output_matches_fresh_process(monkeypatch, capsys):
    for name in [k for k in os.environ if k.startswith("PARTITIO_")]:
        monkeypatch.delenv(name)
    expected = [_fresh_process_stdout(argv) for argv in README_COMMANDS]
    expected_env = _fresh_process_stdout(["thm14-table"], PARTITIO_FORMAT="json")
    for _ in range(2):
        for argv, want in zip(README_COMMANDS, expected):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out.encode() == want
            with pytest.raises(SystemExit):
                main(["counts", "--k", "four"])
            capsys.readouterr()
        monkeypatch.setenv("PARTITIO_FORMAT", "json")
        assert run_cli(capsys, "thm14-table")[1].encode() == expected_env
        monkeypatch.delenv("PARTITIO_FORMAT")
    assert cli.build_parser.cache_info().misses == 1


def test_counts_via_cli_prints_the_library_table(capsys):
    argv = ["counts", "--k", "3", "--s", "4", "--limit", "2000"]
    table = representation_counts(3, 4, 2000)
    rows = [[n, c] for n, c in enumerate(table.counts[1:2001].tolist(), start=1)]
    assert 0 < sum(c for _, c in rows) < table.total()  # n = 0 is counted, not printed
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,count", *(f"{n},{c}" for n, c in rows)]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert payload["rows"] == rows
    assert payload["display"] == [[str(n), str(c)] for n, c in rows]
    assert payload["meta"] == {"total": table.total()}
    code, out, _ = run_cli(capsys, *argv, "--format", "pretty")
    lines = out.splitlines()
    assert lines[2].split() == ["n", "count"]
    assert [[int(v) for v in line.split()] for line in lines[4:4 + len(rows)]] == rows
    assert lines[4 + len(rows):] == ["", f"total: {table.total()}", "", "status: ok"]


# sha256 of stdout.  Most runs print integer or closed-form output, the same
# on every platform; the moments quadrature rows and the weights sup profiles
# are float sums (FFT, dense or NUFFT) printed to the last bit, pinned as numpy
# computes them here.  The dense and arc kernels take e(x) from np.tan and the
# NUFFT from np.exp, both of which numpy dispatches to SIMD code by CPU, so
# these bits belong to the kind of CPU they were pinned on (an AVX-512 Xeon;
# with numpy's AVX-512 paths disabled the primes_log rows move).  A change to
# the layout of any table or format, to the default grid of moments, or to
# the bits of an exp-sum kernel shows here.
_PINNED = {
    "constants": {
        "csv": "53c508faad014ab953d3a67f13ab50ba76f0ff0a4f96eb466302164bf43a1f85",
        "json": "630f30d2a8ece64384f3eeb34d9079e35a0324791580cae6ac69bea9b1039bb7",
        "pretty": "a030167cae339506dfd3cb0afdf46529b9d0f5eb6553cb564a5b507f59ea326f",
    },
    "thm14-table": {
        "csv": "f6062b782c11505f100744e4116b248db5ab28d5c99b29666889a9f3c145d35c",
        "json": "d482a296205d3caf0eaa88781923258abc7b3e965f500045e559589dfc3627e1",
        "pretty": "7dab8576e58c229596bd759cf1d949fc26ee7b9651721fee18f720ac6f689a12",
    },
    "counts --k 4 --s 6 --limit 200 --zero-set": {
        "csv": "8f891b382c4bb578f0e773fe455858181cd2347be1e943fda5cfdf9df9732e21",
        "json": "b3aaac27feda38f79ab3282f0c59177a1461b149e94ac6cfc0d8846e042c247b",
        "pretty": "97cc8cc79ff58a4e60d1bbb38c2f1c46026c3dd1954e77d6de7d57d117c302cc",
    },
    "counts --k 3 --s 4 --limit 500": {
        "csv": "637213c42ecb80fe11c135dc4d5024c1ab86a86bcfb752ccfa95cd747035f729",
        "json": "6ea49963aee0b0a305b6c3b7174759d26f9772ac0a8449f01da9491525e7a136",
        "pretty": "6e2113193fe647dca0ae3e7b4604b6c7f14b9a97e81c730f4c31149be9ffbbcc",
    },
    "moments --k 3 --r 2 --limit 12 --mean-value": {
        "csv": "6e7f256a7f5408188c7942a67f5587fa287f70c9a11095a6c5cb477578e80cbc",
        "json": "66a2c9985429039d3edaf4e31af880361b6aee6cee1c38f824a30c34bdb1ecda",
        "pretty": "9e5dfce488b6e74555cf9d421953cfee5562ea3bd50a8a4a37f6118898b0c6a4",
    },
    "moments --k 3 --r 2 --limit 12 --t 4": {
        "csv": "94a954101bec128ec13ae2fc13cf57b39e55595e9ff8bc922b102270ec076117",
        "json": "9cfb344742636cde53a7e07b5714a461e1a91fbdbc75d3bc01af8f718f1b2bf8",
        "pretty": "cd7f494150e27746f60c45f7bad6a76ed3c5aae7eedc98c66fc65fec87dc4a9f",
    },
    "moments --k 3 --r 2 --limit 12 --t 4 --region major --Q 4": {
        "csv": "9d3c99fbd8243576c6b6ce8b5dce00b6171646d07ab95e50e8ebb9d2dc626836",
        "json": "8b86b1a2c865289ba8dd2f8314c36d7dd9a8daf1d4481b443413520e19229ca4",
        "pretty": "ca0dd40d258d0db526260fb41d8bc0cb9e15c932a6aa3af4a0945d5a846a718f",
    },
    "moments --k 3 --r 1 --limit 11 --t 2 --eta 0.5": {
        "csv": "c1f86e1d4862ea53a8dbf6bf654a9f07cb3060ff4174ee1003451f7ed916e57f",
        "json": "bd7d53ff91a1d4e0b4c1e1cc22ef53c9caa659dd70c5d6b304c5a0e905267f87",
        "pretty": "9f0bafd258e33b6a058c58135e2f39e55c0573e2cce94ca746a1d1615bb6d774",
    },
    "weights --kind squares --limit 1000000 --seed 1": {
        "csv": "f93e40ebd1399d3e5b648519f67925220ca383445512c396992369a88a8c1a42",
        "json": "65f9d29199ca800d5067edcc6906c9dff4ac735b9b11815706de62ed6f4efc15",
        "pretty": "5911c01669df1e4af5ec6d070c2d691a415a8fd46b80a22eca92f2970ec1ba66",
    },
    "weights --kind primes_log --limit 100000": {
        "csv": "f223b42a6c81b9873a994898bf118b4041474b7d6d7be8def38ccc54ad9ac019",
        "json": "956dbe013aac34223462ee891cbebf88948ed3f9e395882b46056d32bd5b799e",
        "pretty": "8ee9209ea237f3bf9cdf8d2bf15dbdd24a2594bbd846e5f9b1f5df95c7c53ad1",
    },
    "check --k 7 --s 20 --phi 1/8 --r 4 --t 6": {
        "csv": "6e3675a39580cfcf6cadb36f7e8d79298d5dc9b0cd580b74bcacd5a3b9c1eacb",
        "json": "fdd470ec63c0d13b21ea5dfa8fe3e4742875521b20f28fd5dec003113880ab4d",
        "pretty": "ceea7a32b367b5387c85c7cb509a9b9efe99e9a70d4bf4f98c4f38f61d926320",
    },
}


# pinned runs that report a failed verification: on the major arcs the grid
# doubling moves the arc mask, so rel_change stays above 5e-3
_PINNED_EXIT = {"moments --k 3 --r 2 --limit 12 --t 4 --region major --Q 4": 1}


@pytest.mark.parametrize("command", list(_PINNED))
@pytest.mark.parametrize("fmt", FORMATS)
def test_cli_stdout_is_pinned(command, fmt, monkeypatch, capsys):
    _clear_partitio_env(monkeypatch)
    code, out, _ = run_cli(capsys, *command.split(), "--format", fmt)
    assert code == _PINNED_EXIT.get(command, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED[command][fmt]


# ---------------------------------------------------------------------------
# The option table: flags, config keys and PARTITIO_<NAME> resolve alike
# ---------------------------------------------------------------------------

# one cheap valid run per command; each of these options is also tested alone
_BASE = {
    "constants": {},
    "thm14-table": {},
    "counts": {"k": "3", "s": "3", "limit": "120"},
    "moments": {"k": "3", "r": "1", "limit": "8"},
    "weights": {"kind": "squares", "limit": "4000", "slices": "2", "samples": "20"},
    "singular": {"k": "3", "s": "5", "m": "5", "q-cut": "40"},
    "check": {"k": "7", "s": "20", "phi": "1/8", "r": "4", "t": "6"},
}
# a valid value, other than the default, for every other option (True: a switch)
_VALUES = {
    "format": "json", "zero-set": True, "x-kind": "none", "natural": True, "eta": "0.8",
    "t": "2", "Q": "4", "region": "major", "grid-points": "1024", "mean-value": True,
    "tolerance": "0.5", "h": "3", "seed": "5", "integral": True, "n": "37",
    "delta-source": "large-k",
}
# what an option needs beside it to be read at all (cli._NEEDS)
_WITH = {("weights", "h"): {"kind": "hth_powers"},
         ("moments", "grid-points"): {"t": "2"},
         ("moments", "tolerance"): {"t": "2"},  # t = 2r, region full
         ("moments", "Q"): {"t": "2", "region": "major"},
         ("moments", "region"): {"t": "2", "Q": "4"}}
_PAIRS = [(command, name) for command, (_, _, required, optional) in cli._COMMANDS.items()
          for name in ("format", *required, *optional)]


def _clear_partitio_env(monkeypatch):
    for name in [k for k in os.environ if k.startswith("PARTITIO_")]:
        monkeypatch.delenv(name)


def _as_flags(options):
    argv = []
    for name, value in options.items():
        argv += [f"--{name}"] if value is True else [f"--{name}", value]
    return argv


@pytest.mark.parametrize("command, name", _PAIRS)
def test_option_resolves_alike_from_flag_config_and_env(command, name, tmp_path, monkeypatch,
                                                        capsys):
    _clear_partitio_env(monkeypatch)
    others = {k: v for k, v in {**_BASE[command], **_WITH.get((command, name), {})}.items()
              if k != name}
    value = _BASE[command].get(name, _VALUES.get(name))
    assert value is not None, f"no test value for --{name}"
    argv = [command, *_as_flags(others)]
    via_flag = run_cli(capsys, *argv, *_as_flags({name: value}))
    assert via_flag[0] != 2, via_flag[2]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {'yes' if value is True else value}\n")
    via_config = run_cli(capsys, *argv, "--config", str(cfg))
    monkeypatch.setenv("PARTITIO_" + name.upper().replace("-", "_"),
                       "On" if value is True else value)
    via_env = run_cli(capsys, *argv)
    assert via_config[:2] == via_flag[:2]
    assert via_env[:2] == via_flag[:2]


_CHOICE_OPTIONS = [(command, name) for command, name in _PAIRS
                   if cli._OPTIONS[name][2] is not None]


@pytest.mark.parametrize("command, name", _CHOICE_OPTIONS)
def test_value_outside_choices_is_usage_error(command, name, tmp_path, monkeypatch, capsys):
    _clear_partitio_env(monkeypatch)
    argv = [command, *_as_flags({k: v for k, v in _BASE[command].items() if k != name})]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = bogus\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert f"--{name}" in err and "bogus" in err
    monkeypatch.setenv("PARTITIO_" + name.upper().replace("-", "_"), "bogus")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"--{name}" in err and "bogus" in err


@pytest.mark.parametrize("command, name", list(cli._NEEDS))
def test_option_without_what_it_needs_is_usage_error(command, name, tmp_path, monkeypatch,
                                                     capsys):
    # as a flag these options used to be accepted and printed the bytes of a
    # run without them; a config or environment value may be meant for
    # another command, so there it is left unread, as before
    _clear_partitio_env(monkeypatch)
    assert set(_WITH) == set(cli._NEEDS)
    argv = [command, *_as_flags(_BASE[command])]
    value = _VALUES[name]
    code, out, err = run_cli(capsys, *argv, *_as_flags({name: value}))
    assert (code, out) == (2, "") and f"--{name}" in err
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {value}\n")
    assert run_cli(capsys, *argv, "--config", str(cfg)) == plain
    monkeypatch.setenv("PARTITIO_" + name.upper().replace("-", "_"), value)
    assert run_cli(capsys, *argv) == plain
    # beside what it needs, the same flag runs
    needed = {**_BASE[command], **_WITH[(command, name)], name: value}
    assert run_cli(capsys, command, *_as_flags(needed))[0] != 2


@pytest.mark.parametrize("name, flags", [
    ("Q", {"t": "2", "Q": "4"}),  # region full: the full circle reads no Q
    ("Q", {"t": "2", "region": "full", "Q": "4"}),
    ("tolerance", {"t": "4", "tolerance": "0.5"}),  # t != 2r: nothing to compare
    ("tolerance", {"t": "2", "region": "major", "Q": "4", "tolerance": "0.5"}),
])
def test_moments_option_with_t_but_the_wrong_region_or_t_is_usage_error(name, flags, tmp_path,
                                                                          monkeypatch, capsys):
    # each of these printed the bytes of the same run without the option
    _clear_partitio_env(monkeypatch)
    argv = ["moments", *_as_flags(_BASE["moments"])]
    code, out, err = run_cli(capsys, *argv, *_as_flags(flags))
    assert (code, out) == (2, "") and f"--{name} is read only with" in err
    plain = run_cli(capsys, *argv, *_as_flags({k: v for k, v in flags.items() if k != name}))
    assert plain[0] != 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {flags[name]}\n")
    assert run_cli(capsys, *argv, *_as_flags({k: v for k, v in flags.items() if k != name}),
                   "--config", str(cfg)) == plain


def test_one_config_serves_check_and_weights(tmp_path, monkeypatch, capsys):
    # `h` is read by check and by weights --kind hth_powers; a file written
    # for check must not stop a weights run of another kind
    _clear_partitio_env(monkeypatch)
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("h = 3\n")
    check = ["check", *_as_flags(_BASE["check"])]
    assert run_cli(capsys, *check, "--config", str(cfg)) == run_cli(capsys, *check, "--h", "3")
    weights = ["weights", *_as_flags(_BASE["weights"])]
    code, out, err = run_cli(capsys, *weights, "--config", str(cfg))
    assert code == 0 and (code, out, err) == run_cli(capsys, *weights)


def test_malformed_switch_is_usage_error(tmp_path, monkeypatch, capsys):
    _clear_partitio_env(monkeypatch)
    argv = ["counts", "--k", "3", "--s", "3", "--limit", "120"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("natural = ture\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "--natural" in err and "ture" in err
    monkeypatch.setenv("PARTITIO_ZERO_SET", "maybe")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "PARTITIO_ZERO_SET" in err and "--zero-set" in err
    # every accepted spelling, in any case, reads as the switch's value
    for text, zeros in (("1", True), ("TRUE", True), ("yes", True), ("On", True),
                        ("0", False), ("false", False), ("NO", False), ("off", False)):
        monkeypatch.setenv("PARTITIO_ZERO_SET", text)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.startswith("n\n" if zeros else "n,count\n"), text


def test_unknown_delta_source_in_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta-source = tabel\n")
    code, out, err = run_cli(capsys, "check", "--k", "7", "--s", "20", "--phi", "1/8",
                             "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "--delta-source" in err and "tabel" in err and "resolvable" not in err


def test_bad_env_option_fails_before_the_command_runs(monkeypatch, capsys):
    _clear_partitio_env(monkeypatch)
    monkeypatch.setenv("PARTITIO_REGION", "everywhere")
    code, out, err = run_cli(capsys, "moments", "--k", "3", "--r", "1", "--limit", "8")
    assert (code, out) == (2, "")
    assert "--region" in err


@pytest.mark.parametrize("argv", [
    ["constants", "--seed", "1"],
    ["counts", "--k", "3", "--s", "3", "--limit", "120", "--tolerance", "1e-3"],
])
def test_options_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_counts_rejects_the_hth_power_x_kind(capsys):
    # counts takes no --h, so an h-th power x could never be built
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--k", "3", "--s", "3", "--limit", "120", "--x-kind", "hth_power"])
    assert exc.value.code == 2
    assert "invalid choice: 'hth_power'" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_only_the_commands_own_options(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    _, _, required, optional = cli._COMMANDS[command]
    own = {"format", "config", *required, *optional}
    for name in [*cli._OPTIONS, "config"]:
        listed = re.search(rf"(?<![\w-])--{re.escape(name)}(?![\w-])", text) is not None
        assert listed == (name in own), (command, name)


def _readme_option_table():
    """command -> (required, other, choices) from the README's option table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| command | options |"):].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        names, cell = (c.strip() for c in line.strip("|").split(" | "))
        cell = re.sub(r"\s*\(.*\)$", "", cell)  # a closing remark, not an option
        required, other, choices = [], [], {}
        for item in [] if cell == "none" else cell.split(", "):
            m = re.fullmatch(r"(\*\*)?`--([\w-]+)(?: ([^`]+))?`(?(1)\*\*)", item)
            assert m, (names, item)
            (required if m[1] else other).append(m[2])
            if m[3]:
                choices[m[2]] = tuple(m[3].split("\\|"))
        for name in re.findall(r"`([\w-]+)`", names):
            rows[name] = (tuple(required), tuple(other), choices)
    return rows


def test_readme_option_table_matches_the_command_table():
    rows = _readme_option_table()
    assert list(rows) == list(cli._COMMANDS)
    for command, (_, _, required, optional) in cli._COMMANDS.items():
        choices = {name: cli._OPTIONS[name][2] for name in (*required, *optional)
                   if cli._OPTIONS[name][2] is not None}
        assert rows[command] == (required, optional, choices), command
