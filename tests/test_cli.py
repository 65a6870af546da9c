"""Command-line surface: exit codes, JSON shape, golden files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from radsurj import cli

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schema" / "report.schema.json").read_text()
)
Draft7Validator.check_schema(SCHEMA)


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


def validate(doc):
    Draft7Validator(SCHEMA).validate(doc)


# ----------------------------------------------------------------------
# exit codes


def test_check_certified_exits_zero(capsys):
    code, doc, _ = run(["check", str(DATA / "circle.rs"), "--stable"], capsys)
    assert code == 0
    assert doc["surjectivity"]["verdict"] == "CERTIFIED_SURJECTIVE"
    assert doc["surjectivity"]["certificate_path"] == "polynomial-components"
    validate(doc)


def test_check_inconclusive_exits_three(capsys):
    code, doc, _ = run(["check", str(DATA / "axis.rs"), "--stable"], capsys)
    assert code == 3
    assert doc["surjectivity"]["verdict"] == "INCONCLUSIVE"
    second = doc["surjectivity"]["components"][1]
    assert second["guilty"] is True
    assert second["remainder"] == "1"
    validate(doc)


def test_missing_file_exits_two(capsys):
    code, doc, err = run(["check", str(DATA / "no_such_file.rs")], capsys)
    assert code == 2 and doc is None
    assert "error" in err


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.rs"
    bad.write_text("tower { d^2 = ; } param { x = t; }")
    code, doc, err = run(["check", str(bad)], capsys)
    assert code == 2 and doc is None
    assert "line 1" in err


def test_exhausted_budget_exits_four(capsys):
    code, doc, err = run(
        ["implicitize", str(DATA / "circle.rs"), "--budget", "1"], capsys
    )
    assert code == 4 and doc is None
    assert "budget" in err


def test_semantic_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.rs"
    bad.write_text("tower { d^2 = t; } param { x = t / 0; }")
    code, doc, err = run(["check", str(bad)], capsys)
    assert code == 2 and doc is None


# ----------------------------------------------------------------------
# command payloads


def test_missing_payload(capsys):
    code, doc, _ = run(["missing", str(DATA / "rational_circle.rs"), "--stable"], capsys)
    assert code == 0
    m = doc["missing"]
    assert m["implicit"] == ["x^2 + y^2 - 1"]
    assert m["candidates"] == [[{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]]
    validate(doc)


def test_sample_payload(capsys):
    code, doc, _ = run(
        ["sample", str(DATA / "rational_circle.rs"), "--points", "40", "--stable"],
        capsys,
    )
    assert code == 0
    s = doc["sample"]
    assert s["sample_count"] == 120
    assert s["rejected"] == 0
    assert s["max_implicit_residual"] < 1e-8
    assert [c["verdict"] for c in s["candidates"]] == ["likely-missing"]
    validate(doc)


def test_sample_csv(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    code, doc, _ = run(
        ["sample", str(DATA / "circle.rs"), "--points", "8", "--csv", str(out), "--stable"],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_re,t_im,d_re,d_im,x_re,x_im,y_re,y_im"
    assert len(lines) == doc["sample"]["accepted"] + 1


def test_implicitize_payload(capsys):
    code, doc, _ = run(["implicitize", str(DATA / "circle.rs"), "--stable"], capsys)
    assert code == 0
    assert doc["implicit"]["generators"] == ["x^2 + y^2 - 1"]
    validate(doc)


def test_expression_commands(capsys):
    code, doc, _ = run(
        ["rrem", str(DATA / "nested.rs"), "--expr", "d1*d2 + t", "--stable"], capsys
    )
    assert code == 0
    assert doc["value"] == {"kind": "rrem", "value": "t^4 - 3*t^3 + t^2"}
    validate(doc)

    code, doc, _ = run(
        ["nf", str(DATA / "circle.rs"), "--expr", "d^3", "--stable"], capsys
    )
    assert doc["value"]["value"] == "-t^2*d + d"

    code, doc, _ = run(
        ["degree", str(DATA / "circle.rs"), "--expr", "d^3", "--stable"], capsys
    )
    assert doc["value"]["value"] == "3"
    validate(doc)


def test_expression_rejects_coordinates(capsys):
    code, doc, err = run(
        ["nf", str(DATA / "circle.rs"), "--expr", "x + t"], capsys
    )
    assert code == 2 and doc is None
    assert "'x'" in err


# ----------------------------------------------------------------------
# settings block and flag precedence


def test_settings_default_and_flag_override(tmp_path, capsys):
    src = tmp_path / "with_settings.rs"
    src.write_text(
        "tower { d^2 = 1 - t^2; } param { x = t; y = d; } settings { mode = suspicious; }"
    )
    _, doc, _ = run(["check", str(src), "--stable"], capsys)
    assert doc["surjectivity"]["mode"] == "suspicious"
    _, doc, _ = run(["check", str(src), "--mode", "guilty", "--stable"], capsys)
    assert doc["surjectivity"]["mode"] == "guilty"


def test_unknown_setting_value_exits_two(tmp_path, capsys):
    src = tmp_path / "bad_settings.rs"
    src.write_text("tower { } param { x = t; } settings { mode = loud; }")
    code, doc, _ = run(["check", str(src)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "settings,flags",
    [
        ("points = abc;", []),
        ("points = 0;", []),
        ("", ["--points", "0"]),
        ("", ["--points", "-3"]),
        ("mdoe = suspicious;", []),
    ],
    ids=["points-word", "points-zero", "flag-zero", "flag-negative", "unknown-key"],
)
def test_bad_settings_exit_two(settings, flags, tmp_path, capsys):
    src = tmp_path / "bad_settings.rs"
    src.write_text(f"tower {{ }} param {{ x = t; }} settings {{ {settings} }}")
    code, doc, err = run(["sample", str(src), "--stable", *flags], capsys)
    assert code == 2 and doc is None
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "flags",
    [
        ["sample", "--tol", "nan"],
        ["sample", "--tol", "inf"],
        ["sample", "--tol=-1e-9"],
        ["missing", "--budget=-5"],
        ["sample", "--budget=-1"],
    ],
    ids=["tol-nan", "tol-inf", "tol-negative", "missing-budget-negative", "sample-budget-negative"],
)
def test_bad_numeric_flags_exit_two(flags, capsys):
    command, *rest = flags
    code, doc, err = run([command, str(DATA / "circle.rs"), "--stable", *rest], capsys)
    assert code == 2 and doc is None
    assert err.startswith("error: ")


def test_sample_skips_condition2_loci(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sample must not compute condition-2 loci")

    monkeypatch.setattr("radsurj.missing.condition2_locus", refuse)
    code, doc, _ = run(["sample", str(DATA / "cotas.rs"), "--stable"], capsys)
    assert code == 0
    validate(doc)


# ----------------------------------------------------------------------
# stability and goldens


def test_stable_output_is_reproducible(capsys):
    _, first, _ = run(["check", str(DATA / "circle.rs"), "--stable"], capsys)
    _, second, _ = run(["check", str(DATA / "circle.rs"), "--stable"], capsys)
    assert first == second
    assert first["timing"] == {"seconds": 0.0}


GOLDEN_CASES = [
    ("circle_check.json", ["check", str(DATA / "circle.rs"), "--stable"]),
    ("axis_check.json", ["check", str(DATA / "axis.rs"), "--stable"]),
    (
        "rational_circle_missing.json",
        ["missing", str(DATA / "rational_circle.rs"), "--stable"],
    ),
    (
        "nested_rrem.json",
        ["rrem", str(DATA / "nested.rs"), "--expr", "d1*d2 + t", "--stable"],
    ),
    ("cotas_missing.json", ["missing", str(DATA / "cotas.rs"), "--stable"]),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_byte_stability(golden, args, capsys):
    cli.main(args)
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text()
    validate(json.loads(out))


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "radsurj.cli", "check", str(DATA / "circle.rs"), "--stable"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["surjectivity"]["verdict"] == "CERTIFIED_SURJECTIVE"
