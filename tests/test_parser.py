"""Input language: grammar, precedence, errors, round trips."""

from fractions import Fraction

import pytest

from radsurj.arith import MultiPoly, Role, VarTable
from radsurj.errors import InputError, ParseError
from radsurj.parser import MAX_NESTING, parse, parse_poly, parse_source, print_source

CIRCLE = """
tower {
  d1^2 = 1 - t^2;
}
param {
  x = t;
  y = d1;
}
"""

RATIONAL_CIRCLE = """
tower { }
param {
  x = 2*t / (t^2 + 1);
  y = (t^2 - 1) / (t^2 + 1);
}
"""

AXIS = """
tower { d^2 = t^2 - 1; }
param { x = 0; y = t - d; }
"""


def test_circle_file():
    param = parse(CIRCLE)
    assert param.tower.m == 1
    assert param.tower.levels[0].name == "d1"
    assert param.tower.levels[0].exponent == 2
    assert str(param.tower.levels[0].radicand) == "-t^2 + 1"
    assert param.coordinates == ("x", "y")
    assert str(param.components[0].numerator) == "t"
    assert param.components[0].denominator.is_const()
    assert str(param.components[1].numerator) == "d1"


def test_empty_tower_file():
    param = parse(RATIONAL_CIRCLE)
    assert param.tower.m == 0
    assert str(param.components[0].numerator) == "2*t"
    assert str(param.components[0].denominator) == "t^2 + 1"
    assert str(param.components[1].numerator) == "t^2 - 1"


def test_zero_numerator_component():
    param = parse(AXIS)
    assert param.components[0].numerator.is_zero()
    assert str(param.components[1].numerator) == "t - d"


def test_power_binds_tighter_than_product():
    param = parse("tower { } param { x = 2*t^3; }")
    f = param.components[0].numerator
    assert f.degree(0) == 3
    assert str(f) == "2*t^3"


def test_unary_minus_applies_to_whole_power():
    param = parse("tower { } param { x = -t^2 + 1; }")
    assert str(param.components[0].numerator) == "-t^2 + 1"


def test_fraction_coefficients():
    param = parse("tower { } param { x = 3/2*t - 1/3; }")
    f = param.components[0].numerator
    assert f.coeff_poly(0, 1).const_value() == Fraction(3, 2)
    assert f.coeff_poly(0, 0).const_value() == Fraction(-1, 3)


def test_bare_fraction_is_a_coefficient_not_a_denominator():
    param = parse("tower { } param { x = 3/2; }")
    assert param.components[0].numerator.const_value() == Fraction(3, 2)
    assert param.components[0].denominator.const_value() == 1


def test_component_slash_splits_numerator_and_denominator():
    param = parse("tower { } param { x = t^2 / 2; }")
    assert str(param.components[0].numerator) == "t^2"
    assert param.components[0].denominator.const_value() == 2


def test_comments_and_whitespace_are_ignored():
    text = "tower{d1^2=1-t^2;# the circle\n}param{x=t;y=d1;}# done\n"
    assert parse(text) == parse(CIRCLE)


def test_settings_block():
    src = parse_source(
        "tower { } param { x = t; } settings { mode = suspicious; points = 300; }"
    )
    assert src.settings == {"mode": "suspicious", "points": "300"}
    assert parse_source("tower { } param { x = t; }").settings == {}


def test_normalization_notes_surface():
    src = parse_source("tower { d1^2 = t; } param { x = d1^2; }")
    assert src.notes
    assert str(src.param.components[0].numerator) == "t"


# ----------------------------------------------------------------------
# canonical printing


@pytest.mark.parametrize("text", [CIRCLE, RATIONAL_CIRCLE, AXIS])
def test_print_parse_round_trip(text):
    param = parse(text)
    printed = print_source(param)
    assert parse(printed) == param
    assert print_source(parse(printed)) == printed


def test_round_trip_nested_tower():
    text = """
    tower {
      d1^2 = t - 1;
      d2^2 = 1/2*d1 + t^2;
    }
    param {
      x = (d1*d2 + 3/2) / (t^2 + 1);
      y = t;
    }
    """
    param = parse(text)
    assert parse(print_source(param)) == param


# ----------------------------------------------------------------------
# errors


def error_at(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


def test_unexpected_character_position():
    err = error_at("tower {\n  d1^2 = 1 $ t;\n}")
    assert err.line == 2 and err.col == 12


def test_missing_semicolon():
    err = error_at("tower { } param { x = t }")
    assert "';'" in str(err)


def test_reserved_parameter_name():
    assert "reserved" in str(error_at("tower { t^2 = 1 - t; } param { x = t; }"))
    assert "reserved" in str(error_at("tower { } param { t = 1; }"))


def test_duplicate_names():
    assert "twice" in str(error_at("tower { d^2 = t; d^3 = t; } param { x = d; }"))
    assert "twice" in str(error_at("tower { } param { x = t; x = 1; }"))


def test_repeated_setting_is_an_error_at_the_second_key():
    err = error_at("tower { } param { x = t; }\nsettings { mode = guilty; mode = suspicious; }")
    assert str(err).endswith("setting 'mode' given twice")
    assert err.line == 2 and err.col == 27


def test_unknown_identifier_position():
    err = error_at("tower { } param {\n  x = t + u;\n}")
    assert "'u'" in str(err)
    assert err.line == 2 and err.col == 11


def test_slash_needs_integer_literals_inside_polynomials():
    # t/2 in a radicand has no denominator slot to fall back on
    err = error_at("tower { d^2 = t/2; } param { x = d; }")
    assert "';'" in str(err)
    # inside parentheses the slash cannot split the component either
    error_at("tower { } param { x = (t/2); }")


def test_zero_coefficient_denominator():
    assert "zero denominator" in str(error_at("tower { } param { x = 3/0; }"))


def test_trailing_garbage():
    error_at("tower { } param { x = t; } extra")


def test_long_sums_and_products_fold_left_to_right():
    table = VarTable(("t",), (Role.PARAMETER,))
    t = MultiPoly.var(table, "t")
    text = "1"
    want = MultiPoly.one(table)
    for k in range(1, 2000):
        op = "-" if k % 3 == 0 else "+"
        term = (k % 5 + 1) * t ** (k % 17)
        text += f" {op} {k % 5 + 1}*t^{k % 17}"
        want = want - term if op == "-" else want + term
    got = parse_poly(text, table)
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)
    assert parse_poly(" * ".join(["t"] * 2000), table) == t**2000


def test_parenthesis_depth_is_bounded():
    table = VarTable(("t",), (Role.PARAMETER,))
    t = MultiPoly.var(table, "t")
    deep = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_poly(deep, table) == t
    for text, col in (("(" + deep + ")", MAX_NESTING + 1), ("-(" + deep + ")", MAX_NESTING + 2)):
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse_poly(text, table)
        assert info.value.col == col
    # unary minus signs need no nesting
    assert parse_poly("-" * 1001 + "t^2", table) == -(t**2)
    assert parse_poly("2 - - -t", table) == 2 - t


def test_semantic_errors_come_from_validation():
    with pytest.raises(InputError, match="exponent"):
        parse("tower { d^1 = t; } param { x = d; }")
    with pytest.raises(InputError, match="later"):
        parse("tower { a^2 = b; b^2 = t; } param { x = a; }")
    with pytest.raises(InputError, match="zero"):
        parse("tower { } param { x = t / 0; }")
