"""Command-line surface: exit codes, JSON shape, golden files."""

import argparse
import json
import re
import resource
import sys
from pathlib import Path
from random import Random

import pytest
from jsonschema import Draft7Validator, ValidationError

from radsurj import cli
from radsurj.errors import DomainError, StructuralError

from support import run_child

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


def test_schema_pins_the_derived_component_fields(capsys):
    # "gcd" stays a valid route: older schema-v1 documents may carry it
    _, doc, _ = run(["check", str(DATA / "axis.rs"), "--stable"], capsys)
    for field, value, valid in (
        ("hyp2_route", "gcd", True),
        ("hyp2_route", "bogus", False),
        ("suspicion_reason", "bogus", False),
    ):
        edited = json.loads(json.dumps(doc))
        edited["surjectivity"]["components"][0][field] = value
        if valid:
            validate(edited)
        else:
            with pytest.raises(ValidationError):
                validate(edited)


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
    assert err == "error: Groebner step budget exhausted\n"


def test_semantic_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.rs"
    bad.write_text("tower { d^2 = t; } param { x = t / 0; }")
    code, doc, err = run(["check", str(bad)], capsys)
    assert code == 2 and doc is None


def test_deep_nesting_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.rs"
    deep.write_text("tower { } param { x = " + "(" * 1000 + "t" + ")" * 1000 + "; }")
    code, doc, err = run(["nf", str(deep), "--expr", "t"], capsys)
    assert code == 2 and doc is None
    assert err.startswith("error: ") and err.count("\n") == 1


def test_mutated_inputs_exit_with_documented_codes(tmp_path, capsys):
    # delete, repeat, swap or replace tokens of the example inputs; a
    # replacement may also be a digit int() rejects, a non-ASCII letter
    # or a non-ASCII decimal digit
    rng = Random(20261018)
    sources = [re.findall(r"\w+|\S", p.read_text()) for p in sorted(DATA.glob("*.rs"))]
    # each mutant gets a new file: rewriting one file 300 times cost
    # most of this test's time on ext4
    for k in range(300):
        path = tmp_path / f"mutant{k}.rs"
        tokens = list(rng.choice(sources))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(tokens))
            op = rng.randrange(4)
            if op == 0:
                del tokens[i]
            elif op == 1:
                tokens.insert(i, tokens[i])
            elif op == 2 and i + 1 < len(tokens):
                tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
            else:
                tokens[i] = rng.choice(tokens + ["²", "é", "１"])
        text = " ".join(tokens)
        path.write_text(text, encoding="utf-8")
        code = cli.main(["nf", str(path), "--expr", "t"])
        capsys.readouterr()
        assert code in (0, 2, 4), text


def test_non_utf8_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin1.rs"
    bad.write_bytes(b"tower { } param { x = t; }  # caf\xe9\n")
    code, doc, err = run(["check", str(bad)], capsys)
    assert code == 2 and doc is None
    assert err.startswith(f"error: {bad}: not UTF-8") and err.count("\n") == 1


@pytest.mark.parametrize(
    "source,argv",
    [
        ("tower { } param { x = t^²; }", ["check"]),
        ("tower { } param { x = ²*t; }", ["check"]),
        ("tower { } param { x = t; } settings { points = ²; }", ["sample"]),
        ("tower { d²^2 = t; } param { x = t; }", ["check"]),
        ("tower { } param { x² = t; }", ["check"]),
        ("tower { } param { x = t; }", ["nf", "--expr", "²"]),
    ],
    ids=["exponent", "coefficient", "setting", "radical-name", "coordinate-name", "expr-flag"],
)
def test_non_decimal_digits_exit_two(source, argv, tmp_path, capsys):
    src = tmp_path / "digits.rs"
    src.write_text(source, encoding="utf-8")
    command, *rest = argv
    code, doc, err = run([command, str(src), *rest], capsys)
    assert code == 2 and doc is None
    assert err.startswith("error: line 1") and "unexpected character '²'" in err


def test_non_ascii_letters_and_decimal_digits_parse(tmp_path, capsys):
    src = tmp_path / "unicode.rs"
    src.write_text("tower { } param { é = １*t; }", encoding="utf-8")
    code, doc, _ = run(["nf", str(src), "--expr", "１２*t", "--stable"], capsys)
    assert code == 0
    assert doc["input"]["components"][0] == {"coordinate": "é", "numerator": "t", "denominator": "1"}
    assert doc["value"]["value"] == "12*t"


@pytest.mark.parametrize("error", [DomainError, StructuralError])
def test_other_package_errors_exit_four(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("raised inside the check")

    monkeypatch.setattr(cli, "check_surjective", fail)
    code, doc, err = run(["check", str(DATA / "circle.rs"), "--stable"], capsys)
    assert code == 4 and doc is None
    assert err == "error: raised inside the check\n"


@pytest.mark.parametrize(
    "source, command, reason",
    [
        ("x = (10^400*t + 1) / t; y = t;", "missing", "integer division result too large for a float"),
        ("x = (10^400*t + 1) / t; y = t;", "sample", "integer division result too large for a float"),
        ("x = t^500; y = t;", "sample", "complex exponentiation"),
        (
            "tower { d^2 = 10^300*t; } param { x = 10^300*d; y = d; }",
            "sample",
            "image coordinate too large for a float",
        ),
    ],
)
def test_float_overflow_exits_four(source, command, reason, tmp_path, capsys):
    # 10^400 has no float; 5^500 on the default schedule's real sweep passes
    # 10^308; 10^300*d overflows inside a complex product, which raises
    # nothing, and its NaN residual reached the JSON.  A source that is not
    # a whole file is the param block over an empty tower
    src = tmp_path / "overflow.rs"
    src.write_text(source if source.startswith("tower") else f"tower {{ }}\nparam {{ {source} }}\n")
    code, doc, err = run([command, str(src), "--stable"], capsys)
    assert code == 4 and doc is None
    assert err == f"error: numeric overflow ({reason})\n"


def test_overflowing_candidate_roots_exit_four(tmp_path, capsys):
    # the lead coefficient's roots are about 1e80, and the root iteration
    # overflows on the way; its NaN roots were a JSON traceback
    src = tmp_path / "roots.rs"
    src.write_text("tower { d^2 = 10^160*t^2 + 1; } param { x = d/t; y = t; }\n")
    code, doc, err = run(["missing", str(src), "--stable"], capsys)
    assert code == 4 and doc is None
    assert err == "error: root iteration overflowed\n"


@pytest.mark.parametrize(
    "param, digits",
    [
        pytest.param("x = 10^5000*t; y = t;", "1" + "0" * 5000, id="power"),
        pytest.param("x = " + "7" * 5000 + "*t; y = t;", "7" * 5000, id="literal"),
    ],
)
def test_numbers_past_the_int_str_limit(param, digits, tmp_path, capsys):
    # Python converts at most 4,300 digits between int and str by
    # default; a longer literal or coefficient was a traceback
    src = tmp_path / "digits.rs"
    src.write_text(f"tower {{ }} param {{ {param} }}\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, doc, err = run(["check", str(src), "--stable"], capsys)
    assert code == (0 if doc["surjectivity"]["verdict"] == "CERTIFIED_SURJECTIVE" else 3)
    assert doc["input"]["components"][0]["numerator"] == f"{digits}*t"
    assert err == ""
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    validate(doc)


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


def test_sample_with_an_empty_cloud_reports_null_distance(tmp_path, capsys):
    # every default sample is rejected, so no cloud point is near the
    # candidate: its distance was inf, which ended in a JSON traceback
    empty = tmp_path / "empty.rs"
    empty.write_text("tower { } param { x = 1 / (1/100000000000000000000*t); }")
    for args in (["sample", str(empty)], ["sample", str(DATA / "rational_circle.rs"), "--tol", "1e300"]):
        code, doc, _ = run(args + ["--stable"], capsys)
        assert code == 0
        validate(doc)
        s = doc["sample"]
        assert s["accepted"] == 0
        assert [(c["verdict"], c["distance"]) for c in s["candidates"]] == [("likely-missing", None)]


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
        ("ideal = auto;", []),
        ("mode = guilty; mode = suspicious;", []),
    ],
    ids=[
        "points-word",
        "points-zero",
        "flag-zero",
        "flag-negative",
        "unknown-key",
        "ideal-key",
        "repeated-key",
    ],
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


def test_huge_coefficients_skip_the_rational_root_sieve(tmp_path):
    # a 31-digit end coefficient kept trial division running for hours;
    # run in a child process so a regression fails on the timeout
    huge = tmp_path / "huge.rs"
    huge.write_text(
        "tower { } param { x = t^2 / (1000000000000000000000000000057*t^2 + 1); y = t; }"
    )
    proc = run_child(["-m", "radsurj.cli", "missing", str(huge), "--stable"], timeout=20)
    assert proc.returncode == 0
    x = json.loads(proc.stdout)["missing"]["coordinate_polys"][0]
    assert x["lead_coeff"] == "1000000000000000000000000000057*x - 1"
    assert x["rational_roots"] == []
    assert len(x["numeric_roots"]) == 1
    assert x["note"] == "rational root sieve skipped, coefficients too large"
    validate(json.loads(proc.stdout))


def test_gcd_route_on_a_radical_tower_finishes(tmp_path):
    # while the gcd's remainders kept their rational scalars,
    # gcd(R(p), R(q)) ran for minutes on this check_towers instance;
    # run in a child process so a regression fails on the timeout
    src = tmp_path / "tower.rs"
    src.write_text(
        "tower { d1^2 = t^4 + t^2 - 4*t - 1; d2^3 = 2*t^4 - 4*t^2*d1; }\n"
        "param { x = (2*t^2*d1 - t*d1) / (-2*t^4);\n"
        "        y = -t^4*d1*d2^2 - 4*t^4*d1 + 3*t^2*d1*d2 - 2*t^2; }\n"
        "settings { mode = suspicious; }\n"
    )
    proc = run_child(["-m", "radsurj.cli", "check", str(src), "--stable"], timeout=20)
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    validate(doc)
    first = doc["surjectivity"]["components"][0]
    # q = -2*t^4 and t^6 divides R(p): h = t^4 is no unit, and the
    # common zero at t = 0 fails hypothesis 2
    assert first["remainder"].endswith("- 39*t^8 + t^6")
    assert first["hyp2_exact"] is False


def test_resultant_gcd_is_bounded(tmp_path):
    # R(p) = t^(2^32) has a t-degree past CAP, so h is skipped and the
    # basis, whose packed keys cannot hold t^(2^31), runs out at once;
    # R(p) mod (t^2 + 1) would take 2^31 division steps unbudgeted; run
    # in a child process so a regression fails on the timeout
    src = tmp_path / "huge_degree.rs"
    src.write_text("tower { d^2 = t; } param { x = t^2147483648 / (t^2 + 1); y = d; }")
    proc = run_child(["-m", "radsurj.cli", "check", str(src), "--stable"], timeout=20)
    assert proc.returncode == 3
    notes = json.loads(proc.stdout)["surjectivity"]["notes"]
    assert "component 1: hypothesis-2 step budget exhausted" in notes


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command", ["missing", "sample"])
def test_dense_coefficients_past_cap_exit_four(command, tmp_path):
    # content_wrt asked for the dense coefficient list of R(p) =
    # t^(2^32), which ended in a MemoryError traceback; the child's
    # address space is capped at 2 GiB so a regression cannot take
    # the host's memory, and the timeout catches a slow one
    src = tmp_path / "huge_degree.rs"
    src.write_text("tower { d^2 = t; } param { x = t^2147483648 / (t^2 + 1); y = d; }")
    proc = run_child(
        ["-m", "radsurj.cli", command, str(src), "--stable"],
        timeout=20,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "missing", "sample"])
def test_out_of_memory_exits_four(command, tmp_path):
    # tower_norm pads d's coefficient list to length 10^11, which ended
    # in a MemoryError traceback; the child's address space is capped
    # at 2 GiB so the input cannot take the host's memory
    src = tmp_path / "huge_exponent.rs"
    src.write_text("tower { d^100000000000 = t; } param { x = d + t; y = t; }")
    proc = run_child(
        ["-m", "radsurj.cli", command, str(src), "--stable"],
        timeout=20,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def test_ideal_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", str(DATA / "circle.rs"), "--ideal", "exact"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ideal exact" in capsys.readouterr().err


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # main reuses one parser; alternating commands, a bad flag and an
    # expression command must each give what a fresh parser gives
    argvs = [
        ["check", str(DATA / "circle.rs"), "--stable"],
        ["missing", str(DATA / "rational_circle.rs"), "--stable"],
        ["sample", str(DATA / "circle.rs"), "--points", "5", "--stable"],
        ["sample", str(DATA / "circle.rs"), "--ideal", "exact"],
        ["nf", str(DATA / "nested.rs"), "--expr", "d1^3 + t", "--stable"],
        ["check", str(DATA / "axis.rs"), "--mode", "suspicious", "--stable"],
        ["sample", str(DATA / "axis.rs"), "--stable"],
    ]

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        return code, *capsys.readouterr()

    shared = [outcome(argv) for argv in argvs * 2]
    assert shared[3][0] == ("exit", 2)
    monkeypatch.setattr(cli, "_argparser", cli.build_argparser)
    assert shared == [outcome(argv) for argv in argvs * 2]
    monkeypatch.undo()
    assert cli._argparser() is cli._argparser()
    assert cli.build_argparser() is not cli.build_argparser()


def test_readme_synopsis_matches_argparser():
    # each synopsis line lists its command's own flags, and the
    # paragraph after it the flags that every command takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    _, synopsis, after = readme.split("## Command line", 1)[1].split("```", 2)
    documented = {
        line.split()[1]: set(re.findall(r"--[a-z]+", line))
        for line in synopsis.strip().splitlines()
    }
    parser = cli.build_argparser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actual = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    common = set.intersection(*actual.values())
    assert common == set(re.findall(r"`(--[a-z]+)", after.strip().split("\n\n")[0]))
    assert documented == {name: flags - common for name, flags in actual.items()}


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
    ("nested_implicitize.json", ["implicitize", str(DATA / "nested.rs"), "--stable"]),
    ("cotas_sample.json", ["sample", str(DATA / "cotas.rs"), "--stable"]),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_byte_stability(golden, args, capsys):
    cli.main(args)
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text()
    validate(json.loads(out))


def test_console_script_entry_point():
    proc = run_child(["-m", "radsurj.cli", "check", str(DATA / "circle.rs"), "--stable"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["surjectivity"]["verdict"] == "CERTIFIED_SURJECTIVE"
