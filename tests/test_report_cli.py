import json

import pytest

from partitio.cli import main
from partitio.counting import zero_set
from partitio.report import Column, Report, emit, emit_json, reemit_json


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
        rows=[[0.125, 3.3532704041, "a"], [0.375, 2.4816912479, "b"]],
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


def test_moments_cli_quadrature_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--k", "3", "--r", "1", "--limit", "10", "--t", "2",
        "--format", "csv",
    )
    assert code == 0
    assert "moment_exact,10.0" in out
