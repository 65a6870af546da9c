import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
import sympy

from radsurj import surjcheck
from radsurj.arith import NEG_INF, Budget, MultiPoly, Role, TermOrder, VarTable, poly_divmod, poly_gcd
from radsurj.errors import InputError
from radsurj.ideal import DEFAULT_STEP_BUDGET, common_zeros
from radsurj.parser import parse
from radsurj.report import surjectivity_json
from radsurj.surjcheck import (
    Condition2Locus,
    _rem_by_powers,
    check_surjective,
    condition2_locus,
    default_coordinates,
    normalize_param,
)
from radsurj.tower import RadicalLevel, RadicalTower, normalized_remainder

from support import (
    T_ONLY,
    TD1,
    TD12,
    common_zero_ideal_ref,
    hypothesis2_ref,
    random_nonzero_poly,
    random_poly_bounded,
    random_reduced_poly,
    random_tower,
    reduce_full_ref,
    run_child,
    to_sympy,
)

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
    report = check_surjective(circle_param())
    witness, records = report.witness_index, report.components
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
    report = check_surjective(param)
    witness, records = report.witness_index, report.components
    assert witness is None
    assert records[0].num_degree == NEG_INF
    assert not records[0].degree_condition
    assert records[0].guilt is None and records[0].suspicion is None
    # t - d1 drops from weighted degree 2 to 0 after conjugation
    assert records[1].degree_condition
    assert records[1].guilt.guilty


def test_hypothesis1_suspicious_mode_flags_two_leading_terms():
    param = param_of(tower_hyperbola(), [(t - d1, ONE)])
    report = check_surjective(param, mode="suspicious")
    witness, records = report.witness_index, report.components
    assert witness is None
    assert records[0].suspicion.suspicious
    assert records[0].suspicion.reason == "multiple-leading-terms"


def test_hypothesis1_rejects_unknown_mode():
    with pytest.raises(InputError):
        check_surjective(circle_param(), mode="paranoid")


# ----------------------------------------------------------------------
# hypothesis 2


def hyp2_fields(param, step_budget=DEFAULT_STEP_BUDGET):
    """(hyp2_established, hyp2_route, hyp2_exact) of every component,
    as the check report derives them from the condition-2 loci."""
    doc = surjectivity_json(check_surjective(param, step_budget=step_budget), param)
    return [(c["hyp2_established"], c["hyp2_route"], c["hyp2_exact"]) for c in doc["components"]]


def test_hypothesis2_constant_denominator_shortcut():
    # the constant generator answers before any basis run
    assert condition2_locus(circle_param(), 1) == Condition2Locus("empty", (ONE,))
    doc = surjectivity_json(check_surjective(circle_param()), circle_param())
    first = doc["components"][0]
    assert first["hyp2_established"] and first["hyp2_route"] == "constant-denominator"
    assert first["hyp2_exact"] is None and first["hyp2_gcd"] is None


def test_hypothesis2_exact_route_decides_both_ways():
    tw = tower_sqrt_t()
    good = param_of(tw, [(t - 1, t + 1)])
    assert condition2_locus(good, 1).classification == "empty"
    assert hyp2_fields(good) == [(True, "exact", True)]
    # t = 1, d1 = 1 is a common zero of numerator and denominator here
    bad = param_of(tw, [(t - 1, d1 - 1)])
    assert condition2_locus(bad, 1).classification == "finite"
    assert hyp2_fields(bad) == [(False, None, False)]


def common_zero_param():
    # numerator d1 - 1 and denominator t - 1 meet at (t, d1) = (1, 1):
    # h = t - 1 is no unit, and R(p) mod h takes one division step
    return param_of(tower_sqrt_t(), [(d1 - 1, t - 1)])


def test_unit_h_decides_exactly_within_one_step():
    # h = gcd(t^2 + t + 2, (t - 1)^2 mod (t^2 + t + 2)) = 1 after one
    # division step: the ideal is trivial without a basis run
    param = param_of(tower_sqrt_t(), [(t - 1, t**2 + t + 2)])
    assert condition2_locus(param, 1, step_budget=1) == Condition2Locus("empty", (ONE,))
    assert hyp2_fields(param, step_budget=1) == [(True, "exact", True)]


def test_exhausted_budget_builds_h_once_and_gives_unknown(monkeypatch):
    # the division runs out at budget 0 and the basis after h's one
    # division step at budget 1; neither builds h a second time
    divisions = []
    real = surjcheck.poly_divmod

    def counted(*args):
        divisions.append(args)
        return real(*args)

    monkeypatch.setattr(surjcheck, "poly_divmod", counted)
    for budget in (0, 1):
        divisions.clear()
        assert condition2_locus(common_zero_param(), 1, budget) == Condition2Locus("unknown", None)
        assert len(divisions) == 1


def test_check_hands_the_locus_r_of_p_from_the_guilt_report(monkeypatch):
    # the locus takes R(p) from the guilt report, so check computes
    # normalized remainders of denominators only, and only of those
    # that involve a radical
    seen = []
    real = surjcheck.normalized_remainder

    def recorded(f, tower):
        seen.append(f)
        return real(f, tower)

    monkeypatch.setattr(surjcheck, "normalized_remainder", recorded)
    data = Path(__file__).resolve().parent / "data"
    cotas = parse((data / "cotas.rs").read_text(encoding="utf-8"))
    radical_den = param_of(tower_circle(), [(t, d1 + 2), (d1, t + 1)])
    for param in (cotas, radical_den):
        seen.clear()
        check_surjective(param)
        assert seen == [c.denominator for c in param.components if c.denominator.variables() - {0}]
    assert len(seen) == 1


def test_hypothesis2_exhausted_budget_leaves_route_and_exact_null():
    for budget in (0, 1):  # the division runs out, then the basis
        report = check_surjective(common_zero_param(), step_budget=budget)
        assert "component 1: hypothesis-2 step budget exhausted" in report.notes
        assert hyp2_fields(common_zero_param(), budget) == [(False, None, None)]
    assert hyp2_fields(common_zero_param()) == [(False, None, False)]


def test_h_division_spends_the_step_budget():
    # R(p) = t^10000 mod t^2 + 1 takes 5000 division steps
    param = param_of(tower_sqrt_t(), [(t**5000, t**2 + 1)])
    assert condition2_locus(param, 1, step_budget=4999) == Condition2Locus("unknown", None)
    assert condition2_locus(param, 1, step_budget=5000) == Condition2Locus("empty", (ONE,))


def test_h_division_and_basis_share_one_budget():
    # cotas.rs: h's division takes 2 steps for component 1 and 4 for
    # component 2, and what is left of one budget runs the basis; a
    # fresh budget for the basis, or the division charged twice, moves
    # the smallest deciding budget
    cotas = parse((Path(__file__).resolve().parent / "data" / "cotas.rs").read_text(encoding="utf-8"))
    got = [condition2_locus(cotas, i, b).classification for i, b in ((1, 6), (1, 7), (2, 8), (2, 9))]
    assert got == ["unknown", "finite", "unknown", "finite"]


def locus_generators(param, i):
    """The generators condition2_locus hands common_zeros for component i."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surjcheck, "common_zeros", lambda gens, step_budget: seen.append(gens) or ("empty", ()))
        condition2_locus(param, i)
    [gens] = seen
    return gens


def test_h_from_powers_of_t_equals_gcd_of_r_and_s():
    # h = gcd(s, r mod s), with r mod s built from t^k mod s, is
    # gcd(r, s) itself, unit normalization included
    rng = Random(20261019)
    x = MultiPoly.var(T_ONLY, "t")
    nontrivial = 0
    for _ in range(60):
        common = random_nonzero_poly(rng, T_ONLY, max_terms=3)
        cofactor = random_nonzero_poly(rng, T_ONLY, max_exp=4) + x ** rng.choice((1, 7, 40, 300))
        r = common * cofactor * Fraction(rng.randint(1, 9), rng.randint(1, 4))
        s = poly_divmod(common * random_nonzero_poly(rng, T_ONLY, max_exp=5), r)[1]
        if s.is_zero() or r.is_const():
            continue
        rem = _rem_by_powers(r, s)
        assert rem == poly_divmod(r, s)[1]
        h = poly_gcd(s, rem)
        assert h == poly_gcd(r, s)
        nontrivial += not h.is_const()
    assert nontrivial >= 20
    assert _rem_by_powers(3 * x**1000000 + x + 1, x**2 + 1) == x + 4


def test_sparse_denominator_of_huge_degree_finishes(tmp_path):
    # gcd(r, s) by the PRS on r pseudo-divided about deg r times here and
    # took 22 s; run in a child process so a regression fails on the timeout
    path = tmp_path / "sparse.rs"
    path.write_text("tower { d^2 = t; } param { x = (t^2 + 1) / (3*t^1000000 + t + 1); y = d; }")
    proc = run_child(["-m", "radsurj.cli", "check", str(path), "--stable"], timeout=10)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)["surjectivity"]
    assert report["verdict"] == "CERTIFIED_SURJECTIVE"
    assert report["components"][0]["hyp2_route"] == "exact"


def test_zero_divisor_denominator_keeps_gcd_of_r_and_rp():
    # d1 - t is a zero divisor modulo d1^2 = t^2, so r = R(q) = 0 and
    # h = gcd(0, R(p)) = R(p) up to a constant
    tw = RadicalTower(TD1, [RadicalLevel("d1", 2, t**2)])
    for p, unit in ((ONE + ONE, True), (t, False)):
        param = param_of(tw, [(p, d1 - t)])
        assert (locus_generators(param, 1)[-1] == 1) is unit
        for strategy in ("exact", "auto"):
            assert hyp2_fields(param) == [hypothesis2_ref(param, 1, strategy)[:3]]


def test_hypothesis2_zero_numerator_uses_denominator_only():
    # the castle of d1**2 = t is parametrized by d1 alone, so every
    # nonconstant reduced denominator vanishes somewhere on it and a
    # zero numerator can never pass through the exact route
    tw = tower_sqrt_t()
    zero = MultiPoly.zero(TD1)
    for q in (d1, t - 1):
        param = param_of(tw, [(zero, q)])
        assert condition2_locus(param, 1).classification in ("finite", "positive-dimensional")
        assert hyp2_fields(param) == [(False, None, False)]
    constant = param_of(tw, [(zero, ONE + ONE)])
    assert hyp2_fields(constant) == [(True, "constant-denominator", None)]


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
        est_gcd, _, _, gcd_res = hypothesis2_ref(param, 1, "gcd")
        [(est_exact, _, exact_res)] = hyp2_fields(param)
        if gcd_res is True:
            # a gcd certificate implies that the exact decision establishes
            assert est_exact
        if exact_res is False:
            assert not est_gcd


def _h_corpus():
    """tests/data, bench/frozen without tall.rs, and 45 seeded one-
    component instances over towers of height 1-3, alternating
    denominators in t alone and denominators with radicals.  Cube
    roots come at height 1 only and nested radicands at heights 1-2:
    the reference basis without h runs past 20 s on some nested
    height-3 towers."""
    root = Path(__file__).resolve().parent
    files = sorted(root.glob("data/*.rs")) + sorted(root.parent.glob("bench/frozen/*.rs"))
    for path in files:
        if path.name != "tall.rs":
            yield parse(path.read_text())
    rng = Random(20261019)
    made = 0
    while made < 45:
        m = 1 + made % 3
        tower = random_tower(rng, m, max_e=3 if m == 1 else 2, tdeg=2, nested=m < 3)
        p = random_reduced_poly(rng, tower, tdeg=2, max_terms=3)
        if made % 2:
            q = random_poly_bounded(rng, tower.table, [3] * (1 + m), max_terms=3, only_vars={0})
        else:
            q = random_reduced_poly(rng, tower, tdeg=2, max_terms=3)
        if rng.random() < 0.3:  # a shared factor puts a common zero over t = 1
            shared = MultiPoly.var(tower.table, "t") - 1
            p, q = p * shared, q * shared
        try:
            param = param_of(tower, [(p, q)])
        except InputError:
            continue
        if not param.components[0].denominator.is_const():
            made += 1
            yield param


def test_h_lies_in_the_common_zero_ideal_and_changes_no_answer():
    # h joins the generators: same kind and reduced basis as without
    # it, h reduces to zero modulo that basis (so a unit h soundly
    # proves the ideal trivial), it is gcd(R(p), r) up to a constant,
    # and the check report answers hypothesis 2 as the exact and auto
    # strategies did before h
    kinds, units, seen = set(), 0, 0
    for param in _h_corpus():
        order = TermOrder.grevlex(param.tower.table)
        fields = hyp2_fields(param)
        for i, comp in enumerate(param.components, start=1):
            q = comp.denominator
            if q.is_const():
                continue
            gens = locus_generators(param, i)
            ref = common_zero_ideal_ref(param, i)
            h = gens[-1]
            assert gens[:-1] == ref
            kind, basis = common_zeros(ref)
            assert common_zeros(gens) == (kind, basis)
            assert reduce_full_ref(h, basis, order, Budget(10**6)).is_zero()
            if seen % 5 == 0:
                r = q if q.variables() <= {0} else normalized_remainder(q, param.tower)
                want = sympy.gcd(to_sympy(normalized_remainder(comp.numerator, param.tower)), to_sympy(r))
                assert sympy.cancel(to_sympy(h) / want).is_number
            for strategy in ("exact", "auto"):  # auto decides by the exact route here
                assert fields[i - 1] == hypothesis2_ref(param, i, strategy)[:3]
            kinds.add(kind)
            units += h == 1
            seen += 1
    assert seen >= 50 and units >= 5 and kinds == {"empty", "finite"}


# check_017.rs and check_020.rs of the check_towers workload, seed 0:
# grevlex bases on their common-zero ideals took 3 s and over 15 s
CHECK_017 = """tower {
  d1^3 = -2*t^4 + 2*t^3;
  d2^2 = -4*t^4*d1^2 - 4*t^3*d1 - 2*t^2 + 2*d1^2;
  d3^3 = t^2*d1*d2 + 3*t*d1*d2 - 4*d1^2*d2;
}
param {
  x = -4*t^4*d1*d3^2 - 4*t^3*d1^2 + 3*t^2*d1*d2*d3;
  y = (-2*t^4*d1^2*d2 - 3*t^3*d1^2*d3^2 - t^3*d1^2*d3 - d1^2*d3^2) / (-4*t^2 - 2);
}
"""
CHECK_020 = """tower {
  d1^2 = -3*t^3 - 4*t^2;
  d2^3 = t^3 + 2*t^2*d1;
  d3^3 = -2*t^2*d1*d2^2 + d2^2;
}
param {
  x = (t^3*d2^2 + 3*d1*d2^2*d3^2 + 2*d3^2) / (-2*t^4 + 3);
  y = 2*t^2*d2*d3^2 + 4*t*d1*d2^2 - 4*t*d1*d2*d3;
}
"""


@pytest.mark.parametrize("source", [CHECK_017, CHECK_020], ids=["check_017", "check_020"])
def test_unit_h_certifies_stalled_towers(source, tmp_path):
    # run in a child process so a regression fails on the timeout
    path = tmp_path / "tower.rs"
    path.write_text(source)
    proc = run_child(["-m", "radsurj.cli", "check", str(path), "--stable"], timeout=20)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)["surjectivity"]
    assert doc["verdict"] == "CERTIFIED_SURJECTIVE"
    routes = {c["hyp2_route"] for c in doc["components"]}
    assert routes == {"exact", "constant-denominator"}


def test_unit_h_needs_no_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a unit h must decide before any basis run")

    monkeypatch.setattr("radsurj.ideal.buchberger", refuse)
    assert condition2_locus(parse(CHECK_020), 1) == Condition2Locus("empty", (1,))


# ----------------------------------------------------------------------
# full checker


def test_circle_radical_param_is_certified_cor_pol():
    report = check_surjective(circle_param())
    assert report.certified
    assert report.verdict == "CERTIFIED_SURJECTIVE"
    assert report.witness_index == 1
    assert report.certificate_path == "polynomial-components"
    assert all(c.locus.classification == "empty" for c in report.components)


def test_rational_circle_param_is_inconclusive():
    tw = tower_circle()
    param = param_of(tw, [(1 - t**2, 1 + t**2), (2 * t, 1 + t**2)])
    report = check_surjective(param)
    assert not report.certified
    assert report.witness_index is None
    assert report.certificate_path is None
    assert any("degree condition" in n for n in report.notes)
    # hypothesis 2 is still evaluated and holds for both components
    assert all(c.locus.classification == "empty" for c in report.components)


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
    report = check_surjective(common_zero_param(), step_budget=1)
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
