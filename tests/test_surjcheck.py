from fractions import Fraction
from random import Random

import pytest

from radsurj.arith import NEG_INF, MultiPoly, Role, VarTable
from radsurj.errors import InputError, ResourceError
from radsurj.surjcheck import (
    check_surjective,
    default_coordinates,
    hypothesis1,
    hypothesis2,
    normalize_param,
)
from radsurj.tower import RadicalLevel, RadicalTower

from support import TD1, TD12, random_reduced_poly, random_tower

t = MultiPoly.var(TD1, "t")
d1 = MultiPoly.var(TD1, "d1")
ONE = MultiPoly.one(TD1)
t3, e1, e2 = (MultiPoly.var(TD12, n) for n in ("t", "d1", "d2"))


def tower_circle():
    return RadicalTower(TD1, [RadicalLevel("d1", 2, 1 - t**2)])


def tower_hyperbola():
    return RadicalTower(TD1, [RadicalLevel("d1", 2, t**2 - 1)])


def tower_sqrt_t():
    return RadicalTower(TD1, [RadicalLevel("d1", 2, t)])


def param_of(tower, pairs, names=None):
    return normalize_param(tower, pairs, names)[0]


def circle_param():
    return param_of(tower_circle(), [(t, ONE), (d1, ONE)])


# ----------------------------------------------------------------------
# normalization


def test_normalize_reduces_and_notes():
    tw = tower_circle()
    param, notes = normalize_param(tw, [(d1**2, ONE), (t, d1**2)])
    assert param.components[0].numerator == 1 - t**2
    assert param.components[1].denominator == 1 - t**2
    assert len(notes) == 2
    assert "component 1: numerator" in notes[0]
    assert "component 2: denominator" in notes[1]


def test_normalize_is_silent_on_reduced_input():
    _, notes = normalize_param(tower_circle(), [(t, ONE), (d1, ONE)])
    assert notes == []


def test_normalize_rejects_zero_denominator():
    with pytest.raises(InputError):
        normalize_param(tower_circle(), [(t, MultiPoly.zero(TD1))])


def test_normalize_rejects_denominator_vanishing_mod_tower():
    q = d1**2 - (1 - t**2)
    with pytest.raises(InputError, match="vanishes"):
        normalize_param(tower_circle(), [(t, q)])


def test_normalize_rejects_empty_parametrization():
    with pytest.raises(InputError):
        normalize_param(tower_circle(), [])


def test_normalize_rejects_bad_coordinate_names():
    tw = tower_circle()
    with pytest.raises(InputError, match="collides"):
        normalize_param(tw, [(t, ONE)], ["d1"])
    with pytest.raises(InputError, match="distinct"):
        normalize_param(tw, [(t, ONE), (d1, ONE)], ["x", "x"])
    with pytest.raises(InputError, match="per component"):
        normalize_param(tw, [(t, ONE), (d1, ONE)], ["x"])


def test_default_coordinates():
    assert default_coordinates(2) == ("x", "y")
    assert default_coordinates(3) == ("x", "y", "z")
    assert default_coordinates(4) == ("x1", "x2", "x3", "x4")
    param = circle_param()
    assert param.coordinates == ("x", "y")
    assert param.n == 2


# ----------------------------------------------------------------------
# hypothesis 1


def test_hypothesis1_circle_witness_is_first_component():
    witness, records = hypothesis1(circle_param())
    assert witness == 1
    assert records[0].num_degree == Fraction(1)
    assert records[0].den_degree == Fraction(0)
    assert records[0].degree_condition
    assert not records[0].guilt.guilty
    # the second component is recorded too, even after a witness is found
    assert records[1].degree_condition
    assert not records[1].guilt.guilty


def test_hypothesis1_zero_numerator_is_skipped():
    tw = tower_hyperbola()
    param = param_of(tw, [(MultiPoly.zero(TD1), ONE), (t - d1, ONE)])
    witness, records = hypothesis1(param)
    assert witness is None
    assert records[0].num_degree == NEG_INF
    assert not records[0].degree_condition
    assert records[0].guilt is None and records[0].suspicion is None
    # t - d1 drops from weighted degree 2 to 0 after conjugation
    assert records[1].degree_condition
    assert records[1].guilt.guilty


def test_hypothesis1_suspicious_mode_flags_two_leading_terms():
    param = param_of(tower_hyperbola(), [(t - d1, ONE)])
    witness, records = hypothesis1(param, mode="suspicious")
    assert witness is None
    assert records[0].suspicion.suspicious
    assert records[0].suspicion.reason == "multiple-leading-terms"


def test_hypothesis1_rejects_unknown_mode():
    with pytest.raises(InputError):
        hypothesis1(circle_param(), mode="paranoid")


# ----------------------------------------------------------------------
# hypothesis 2


def test_hypothesis2_constant_denominator_shortcut():
    established, route, exact, gcd = hypothesis2(circle_param(), 1)
    assert established and route == "constant-denominator"
    assert exact is None and gcd is None


def test_hypothesis2_exact_route_decides_both_ways():
    tw = tower_sqrt_t()
    good = param_of(tw, [(t - 1, t + 1)])
    established, route, exact, _ = hypothesis2(good, 1, strategy="exact")
    assert established and route == "exact" and exact is True
    # t = 1, d1 = 1 is a common zero of numerator and denominator here
    bad = param_of(tw, [(t - 1, d1 - 1)])
    established, route, exact, _ = hypothesis2(bad, 1, strategy="exact")
    assert not established and route is None and exact is False


def test_hypothesis2_gcd_route_is_sufficient_only():
    tw = tower_sqrt_t()
    good = param_of(tw, [(t - 1, t + 1)])
    established, route, exact, gcd = hypothesis2(good, 1, strategy="gcd")
    assert established and route == "gcd" and gcd is True and exact is None
    bad = param_of(tw, [(t - 1, d1 - 1)])
    established, route, exact, gcd = hypothesis2(bad, 1, strategy="gcd")
    assert not established and route is None and gcd is False and exact is None


def test_hypothesis2_auto_degrades_to_gcd_on_budget():
    param = param_of(tower_sqrt_t(), [(t - 1, t**2 + t + 2)])
    established, route, exact, gcd = hypothesis2(param, 1, strategy="auto", step_budget=1)
    assert established and route == "gcd" and exact is None and gcd is True


def test_hypothesis2_exact_strategy_propagates_budget_error():
    param = param_of(tower_sqrt_t(), [(t - 1, t**2 + t + 2)])
    with pytest.raises(ResourceError):
        hypothesis2(param, 1, strategy="exact", step_budget=1)


def test_hypothesis2_zero_numerator_uses_denominator_only():
    # the castle of d1**2 = t is parametrized by d1 alone, so every
    # nonconstant reduced denominator vanishes somewhere on it and a
    # zero numerator can never pass through the exact route
    tw = tower_sqrt_t()
    zero = MultiPoly.zero(TD1)
    for q in (d1, t - 1):
        param = param_of(tw, [(zero, q)])
        established, route, exact, _ = hypothesis2(param, 1, strategy="exact")
        assert not established and route is None and exact is False
    established, route, _, _ = hypothesis2(param_of(tw, [(zero, ONE + ONE)]), 1)
    assert established and route == "constant-denominator"


def test_hypothesis2_rejects_unknown_strategy():
    with pytest.raises(InputError):
        hypothesis2(circle_param(), 1, strategy="fast")


def test_hypothesis2_routes_agree_on_random_instances():
    rng = Random(20260817)
    for _ in range(40):
        tower = random_tower(rng, 1)
        p = random_reduced_poly(rng, tower, tdeg=2, max_terms=3)
        q = random_reduced_poly(rng, tower, tdeg=2, max_terms=3)
        try:
            param = param_of(tower, [(p, q)])
        except InputError:
            continue
        est_gcd, _, _, gcd_res = hypothesis2(param, 1, strategy="gcd")
        est_exact, _, exact_res, _ = hypothesis2(param, 1, strategy="exact")
        if gcd_res is True:
            # the gcd certificate must never contradict the exact decision
            assert est_exact or exact_res is None
        if exact_res is False:
            assert not est_gcd


# ----------------------------------------------------------------------
# full checker


def test_circle_radical_param_is_certified_cor_pol():
    report = check_surjective(circle_param())
    assert report.certified
    assert report.verdict == "CERTIFIED_SURJECTIVE"
    assert report.witness_index == 1
    assert report.certificate_path == "polynomial-components"
    assert all(c.hyp2_established for c in report.components)


def test_rational_circle_param_is_inconclusive():
    tw = tower_circle()
    param = param_of(tw, [(1 - t**2, 1 + t**2), (2 * t, 1 + t**2)])
    report = check_surjective(param)
    assert not report.certified
    assert report.witness_index is None
    assert report.certificate_path is None
    assert any("degree condition" in n for n in report.notes)
    # hypothesis 2 is still evaluated and holds for both components
    assert all(c.hyp2_established for c in report.components)


def test_guilty_numerator_blocks_certification():
    tw = tower_hyperbola()
    param = param_of(tw, [(MultiPoly.zero(TD1), ONE), (t - d1, ONE)])
    report = check_surjective(param)
    assert not report.certified
    assert any("guilty" in n for n in report.notes)


def test_hyp2_failure_blocks_certification_with_witness():
    param = param_of(tower_sqrt_t(), [(t - 1, d1 - 1)])
    report = check_surjective(param)
    assert not report.certified
    assert report.witness_index == 1
    assert any("hypothesis 2 not established for component(s) 1" in n for n in report.notes)


def test_mixed_rational_witness_takes_cor_3_path():
    tw = tower_circle()
    param = param_of(tw, [(t**3, 1 + t**2), (d1, ONE)])
    report = check_surjective(param)
    assert report.certified
    assert report.witness_index == 1
    assert report.certificate_path == "rational-witness"


def test_suspicious_mode_path_and_general_route():
    tw = tower_circle()
    param = param_of(tw, [(d1, ONE), (t, 1 + t**2)])
    strict = check_surjective(param, mode="suspicious")
    assert strict.certified and strict.certificate_path == "suspicion-screen"
    default = check_surjective(param)
    assert default.certified and default.certificate_path == "degree-and-ideal"


def test_fermat_style_cube_root_param_is_certified():
    tw = RadicalTower(TD1, [RadicalLevel("d1", 3, t**3 + 1)])
    report = check_surjective(param_of(tw, [(t, ONE), (d1, ONE)]))
    assert report.certified
    assert report.certificate_path == "polynomial-components"


def test_nested_tower_param_is_certified():
    tw = RadicalTower(TD12, [RadicalLevel("d1", 2, t3), RadicalLevel("d2", 2, e1 + 1)])
    one = MultiPoly.one(TD12)
    report = check_surjective(param_of(tw, [(t3, one), (e2, one)]))
    assert report.certified
    assert report.witness_index == 1


def test_budget_exhaustion_is_reported_not_raised():
    param = param_of(tower_sqrt_t(), [(t - 1, t**2 + t + 2)])
    report = check_surjective(param, strategy="exact", step_budget=1)
    assert not report.certified
    assert any("step budget exhausted" in n for n in report.notes)


def test_suspicious_certificate_implies_guilty_certificate():
    rng = Random(99)
    hits = 0
    for _ in range(60):
        tower = random_tower(rng, 1)
        pairs = [
            (random_reduced_poly(rng, tower, tdeg=3, max_terms=3), MultiPoly.one(tower.table))
            for _ in range(2)
        ]
        param = param_of(tower, pairs)
        strict = check_surjective(param, mode="suspicious")
        if strict.certified:
            hits += 1
            assert check_surjective(param).certified
    assert hits > 0
