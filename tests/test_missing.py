import importlib.util
import itertools
import json
import sys
from math import ceil, inf
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from radsurj import cli, missing, modular
from radsurj.arith import CAP, Budget, MultiPoly, Role, VarTable, content_wrt, squarefree_part
from radsurj.errors import ResourceError
from radsurj.ideal import DEFAULT_STEP_BUDGET
from radsurj.missing import (
    DEFAULT_FILTER_TOL,
    CandidateSet,
    CoordinateCandidates,
    candidate_polys,
    component_curve_poly,
    hyp1_bound,
    implicitize,
    infinity_bound,
    missing_candidates,
)
from radsurj.parser import parse
from radsurj.report import missing_json, surjectivity_json
from radsurj.surjcheck import check_surjective, condition2_locus, normalize_param
from radsurj.tower import RadicalLevel, RadicalTower

from support import (
    TD1,
    TD12,
    T_ONLY,
    exact_div_ref,
    hypothesis2_ref,
    random_nonzero_poly,
    random_reduced_poly,
    random_tower,
    run_child,
    scaled_residual_ref,
    to_sympy,
)

t = MultiPoly.var(TD1, "t")
d1 = MultiPoly.var(TD1, "d1")
ONE = MultiPoly.one(TD1)
t2, e1, e2 = (MultiPoly.var(TD12, n) for n in ("t", "d1", "d2"))
ONE2 = MultiPoly.one(TD12)
tt = MultiPoly.var(T_ONLY, "t")
ONET = MultiPoly.one(T_ONLY)


def circle_param():
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, 1 - t**2)])
    return normalize_param(tower, [(t, ONE), (d1, ONE)])[0]


def axis_param():
    # x = 0, y = t - sqrt(t^2 - 1): covers the vertical axis except the origin
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t**2 - 1)])
    return normalize_param(tower, [(MultiPoly.zero(TD1), ONE), (t - d1, ONE)])[0]


def rational_circle():
    tower = RadicalTower(T_ONLY, [])
    den = 1 + tt**2
    return normalize_param(tower, [(2 * tt, den), (tt**2 - 1, den)])[0]


def sharp_bounds_param():
    # (sqrt(t(t-1))/(t-1), sqrt((2t-1)(t-1))/(t-1)): misses four points
    tower = RadicalTower(
        TD12,
        [
            RadicalLevel("d1", 2, t2 * (t2 - 1)),
            RadicalLevel("d2", 2, (2 * t2 - 1) * (t2 - 1)),
        ],
    )
    return normalize_param(tower, [(e1, t2 - 1), (e2, t2 - 1)])[0]


def two_roots_param():
    # x = t(sqrt(t) - sqrt(t+1)): guilty numerator yet surjective
    tower = RadicalTower(TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 2, t2 + 1)])
    return normalize_param(tower, [(t2 * (e1 - e2), ONE2)])[0]


# ----------------------------------------------------------------------
# curve polynomials


def test_component_curve_poly_eliminates_radicals():
    g = component_curve_poly(circle_param(), 2)
    x = MultiPoly.var(g.table, "y")
    s = MultiPoly.var(g.table, "t")
    assert g == s**2 + x**2 - 1
    assert g.table.names == ("t", "y")


def test_component_curve_poly_squares_radical_free_input():
    g = component_curve_poly(circle_param(), 1)
    s, x = MultiPoly.var(g.table, "t"), MultiPoly.var(g.table, "x")
    assert g == (x - s) ** 2


def test_component_curve_poly_two_roots_pinned():
    g = component_curve_poly(two_roots_param(), 1)
    s, x = MultiPoly.var(g.table, "t"), MultiPoly.var(g.table, "x")
    assert g == s**4 - 4 * x**2 * s**3 - 2 * x**2 * s**2 + x**4
    # monic in t, so the witness coordinate produces no candidates
    assert g.coeff_poly(0, 4) == MultiPoly.one(g.table)


def test_component_curve_poly_sharp_example_pinned():
    g = component_curve_poly(sharp_bounds_param(), 1)
    s, x = MultiPoly.var(g.table, "t"), MultiPoly.var(g.table, "x")
    assert g == ((s - 1) * ((x**2 - 1) * s - x**2)) ** 2


def test_component_curve_poly_rational_component_is_graph():
    g = component_curve_poly(rational_circle(), 2)
    s, y = MultiPoly.var(g.table, "t"), MultiPoly.var(g.table, "y")
    assert g == y * (s**2 + 1) - (s**2 - 1)


# ----------------------------------------------------------------------
# candidate polynomials


def test_candidate_polys_certified_circle_has_none():
    polys = candidate_polys(circle_param())
    assert hyp1_bound(polys) == 0
    for coord in polys:
        assert coord.degree == 0
        assert coord.numeric_roots == ()


def test_candidate_polys_rational_circle():
    polys = candidate_polys(rational_circle())
    cx, cy = polys
    assert cx.rational_roots == (Fraction(0),)
    assert cy.rational_roots == (Fraction(1),)
    assert hyp1_bound(polys) == 1


def test_candidate_polys_sharp_example():
    polys = candidate_polys(sharp_bounds_param())
    cx, cy = polys
    x = MultiPoly.var(cx.curve_poly.table, "x")
    assert cx.lead_coeff == x**2 - 1
    assert cx.rational_roots == (Fraction(-1), Fraction(1))
    assert cy.rational_roots == ()
    assert sorted(z.real for z in cy.numeric_roots) == pytest.approx(
        [-(2**0.5), 2**0.5], abs=1e-9
    )
    assert all(abs(z.imag) < 1e-9 for z in cy.numeric_roots)
    assert hyp1_bound(polys) == 4


def test_candidate_polys_keeps_content_roots():
    # the x-component of the axis instance is identically zero, so its
    # curve polynomial is x^2; the root 0 must survive the cleanup
    polys = candidate_polys(axis_param())
    cx, cy = polys
    assert cx.rational_roots == (Fraction(0),)
    assert cx.degree == 1
    assert cx.note == "curve polynomial is constant in t"
    assert cy.rational_roots == (Fraction(0),)
    assert hyp1_bound(polys) == 1


def test_squarefree_part_drops_the_t_content_itself():
    # candidate_polys takes the squarefree part of G, not of G over its
    # t-content: the content is free of t, so it divides G_t too and
    # both quotients are the same polynomial, key order included
    tx = VarTable(("t", "x"), (Role.PARAMETER, Role.COORDINATE))
    tv, xv = MultiPoly.var(tx, "t"), MultiPoly.var(tx, "x")
    curves = [("hand", 1, (xv - 1) ** 2 * (tv**2 - xv))]
    corpus = dict(_missing_elim_corpus(0))
    for name, text in corpus.items():
        param = parse(text)
        curves += [(name[:-3], i, component_curve_poly(param, i)) for i in range(1, param.n + 1)]
    with_content = []
    for name, i, g in curves:
        cont = content_wrt(g, 0)
        if cont.is_const():
            continue
        with_content.append(name)
        got, want = squarefree_part(g, 0), squarefree_part(exact_div_ref(g, cont), 0)
        assert got == want and list(got.coeffs) == list(want.coeffs), (name, i)
    assert squarefree_part(curves[0][2], 0) == tv**2 - xv
    assert with_content == [
        "hand", "missing_000", "missing_008", "missing_017", "missing_019",
        "missing_022", "missing_022", "missing_032", "missing_036", "axis",
    ]
    # missing_022 is the point (-1/3, -2/3): its candidates come from
    # the contents alone
    coords = candidate_polys(parse(corpus["missing_022.rs"]))
    assert [str(c.lead_coeff) for c in coords] == ["3*x + 1", "3*y + 2"]
    assert [c.rational_roots for c in coords] == [(Fraction(-1, 3),), (Fraction(-2, 3),)]


def test_candidate_roots_come_from_the_squarefree_lead():
    # the leads of these two instances are fourth powers, 9*(x + 3)^4
    # and 9*(y - 2)^4, then 25600*(2x + 1)^4 and 100*y^4; the root
    # iteration did not converge on the leads themselves
    params = list(_agreement_params())
    for k, roots in ((13, (-3, 2)), (18, (Fraction(-1, 2), 0))):
        coords = candidate_polys(params[k])
        assert [c.degree for c in coords] == [4, 4]
        assert [c.rational_roots for c in coords] == [(r,) for r in roots]
        assert [c.numeric_roots for c in coords] == [(complex(r),) for r in roots]


def test_candidate_roots_of_a_double_lead_are_distinct():
    # c_x = (x^2 + 6)^2: on the lead the iteration returned four roots
    # about 1e-9 apart, which the dedup kept, so each candidate came twice
    param = parse(
        "tower { d1^2 = 3*t^2 + 1; d2^2 = -2*t^2; }\n"
        "param { x = (d1*d2 + d1 - 2) / (-t^2 + 3*t);\n"
        "        y = (3*t^2 + 2*d1*d2) / (-t^2 + 3*t); }\n"
    )
    cx = candidate_polys(param)[0]
    assert str(cx.lead_coeff) == "x^4 + 12*x^2 + 36" and cx.degree == 4
    assert sorted(z.imag for z in cx.numeric_roots) == pytest.approx([-(6**0.5), 6**0.5], abs=1e-8)
    assert all(abs(z.real) < 1e-8 for z in cx.numeric_roots)


CANDIDATES_IN_CHILD = """
import sys
from radsurj import parse
from radsurj.missing import candidate_polys, hyp1_bound
polys = candidate_polys(parse(sys.stdin.read()))
print([str(c.lead_coeff) for c in polys], hyp1_bound(polys))
"""


def test_candidate_polys_squarefree_part_finishes():
    # while the gcd's remainders kept their rational scalars, the
    # squarefree part of this y-curve polynomial ran past 30 s; run in
    # a child process so a regression fails on the timeout
    source = (
        "tower { d1^2 = 2*t^2 - 2*t - 2; d2^2 = -t^2 + 2*t + 1; }\n"
        "param { x = (-d2 - 3) / (2*t^2 + 2);\n"
        "        y = (3*t^2 - 2*t*d2 + 2*d1) / (2*t^2 + 2); }\n"
    )
    proc = run_child(["-c", CANDIDATES_IN_CHILD], input=source, timeout=20)
    assert proc.returncode == 0, proc.stderr
    # both agree with the leading t-coefficient of sympy's squarefree part
    assert proc.stdout == "['4*x^2', '16*y^4 - 96*y^3 + 248*y^2 - 312*y + 169'] 8\n"


def test_candidate_polys_of_a_height_three_tower_finishes():
    # check_towers seed-0 check_005.rs (bench/gen.py): the PRS squarefree
    # part of its curve polynomials ran past 20 s, the modular gcd takes
    # well under a second; run in a child process so a regression fails
    # on the timeout
    source = (
        "tower { d1^2 = -t^4; d2^3 = -4*t + 3*d1; d3^3 = 4*t^4 + 2*t*d1; }\n"
        "param { x = 2*t^4*d2 + 2*t^3*d1 - 3*t^2*d3;\n"
        "        y = (-4*t^3*d1*d2) / (-4*t^4 + 4*t^3); }\n"
    )
    proc = run_child(["-c", CANDIDATES_IN_CHILD], input=source, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['262144', '9'] 0\n"


def test_rational_sieve_bound():
    # |c_0 * c_d| at the bound is sieved; past it the roots stay numeric
    # and the skip joins any other note of the coordinate
    for c, sieved in ((10**12, True), (10**12 + 1, False), (10**30 + 57, False)):
        param, _ = normalize_param(
            RadicalTower(T_ONLY, []), [(c * ONET, ONET), (tt, ONET)], ["x", "y"]
        )
        cx = candidate_polys(param)[0]
        assert cx.rational_roots == ((Fraction(c),) if sieved else ())
        assert cx.numeric_roots == pytest.approx([c])
        skipped = "; rational root sieve skipped, coefficients too large"
        assert cx.note == "curve polynomial is constant in t" + ("" if sieved else skipped)


# ----------------------------------------------------------------------
# bounds


def test_infinity_bound_values():
    assert infinity_bound(circle_param().tower) == 2
    assert infinity_bound(axis_param().tower) == 2
    assert infinity_bound(sharp_bounds_param().tower) == 4
    nested = RadicalTower(TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 2, e1 + 1)])
    assert infinity_bound(nested) == 4
    cubic = RadicalTower(TD1, [RadicalLevel("d1", 2, t**3 - t)])
    assert infinity_bound(cubic) == 3


# ----------------------------------------------------------------------
# condition-2 locus


def test_condition2_locus_finite_pinned():
    # numerator t(d1 - 1) and denominator t - 1 share the zero (1, 1)
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t)])
    param = normalize_param(tower, [(t * (d1 - 1), t - 1)])[0]
    locus = condition2_locus(param, 1)
    assert locus.classification == "finite"
    names = [str(g) for g in locus.basis]
    assert names == ["d1 - 1", "t - 1"]


def test_condition2_locus_empty_for_constant_denominator():
    locus = condition2_locus(circle_param(), 1)
    assert locus.classification == "empty"


def test_condition2_locus_finite_both_branch_points():
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, 1 - t**2)])
    param = normalize_param(tower, [(d1, 1 - t**2)])[0]
    locus = condition2_locus(param, 1)
    assert locus.classification == "finite"


def test_condition2_locus_positive_dimensional():
    # reducible castle d1^2 = t^2; numerator and denominator both vanish
    # on the whole component d1 = t
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t**2)])
    param = normalize_param(tower, [(t - d1, 2 * t - 2 * d1)])[0]
    locus = condition2_locus(param, 1)
    assert locus.classification == "positive-dimensional"


def test_condition2_locus_budget_gives_unknown():
    param = sharp_bounds_param()
    locus = condition2_locus(param, 1, step_budget=1)
    assert locus.classification == "unknown"
    assert locus.basis is None


def test_condition2_locus_constant_denominator_needs_no_budget():
    # y = d1 over 1: the constant generator decides, as it does for
    # hypothesis 2, before any basis step is spent
    locus = condition2_locus(circle_param(), 2, step_budget=1)
    assert locus.classification == "empty"
    assert locus.basis == (ONE,)


def _agreement_params():
    root = Path(__file__).resolve().parent
    files = sorted(root.glob("data/*.rs")) + sorted(root.parent.glob("bench/frozen/*.rs"))
    for path in files:
        if path.name != "tall.rs":
            yield parse(path.read_text())
    # h = 1 after one division step, which budget 0 does not cover
    sqrt_t = RadicalTower(TD1, [RadicalLevel("d1", 2, t)])
    yield normalize_param(sqrt_t, [(t - 1, t**2 + t + 2)])[0]
    rng = Random(31)
    for _ in range(24):
        tower = random_tower(rng, rng.randint(1, 2), max_e=2, tdeg=2)
        pairs = []
        for _ in range(2):
            p, q = (random_reduced_poly(rng, tower, tdeg=2, max_terms=3) for _ in range(2))
            if rng.random() < 0.5:  # a shared factor puts a common zero over t = 1
                shared = MultiPoly.var(tower.table, "t") - 1
                p, q = p * shared, q * shared
            pairs.append((p, q))
        yield normalize_param(tower, pairs)[0]


def test_hypothesis2_exact_agrees_with_condition2_locus(monkeypatch):
    # check's hypothesis-2 fields and missing's condition-2 entries come
    # from one locus at every budget.  The basis run without h agrees
    # wherever both decide, and at the default budget everywhere; a
    # small budget can run out on one side only, because h both costs
    # division steps and can spare the basis.  The candidate stage,
    # which the loci do not read, is stubbed out: implicitize stalls
    # on some of these instances
    stub = CandidateSet((), (), None, ())
    monkeypatch.setattr(missing, "filtered_candidates", lambda param, budget: stub)
    kinds = []
    for param in _agreement_params():
        for budget in (0, 1, 3, DEFAULT_STEP_BUDGET):
            checked = surjectivity_json(check_surjective(param, step_budget=budget), param)
            loci = missing_json(missing_candidates(param, budget))["condition2"]
            for i, (comp, locus) in enumerate(zip(checked["components"], loci), start=1):
                fields = (comp["hyp2_established"], comp["hyp2_route"], comp["hyp2_exact"])
                kind = locus["classification"]
                assert fields[0] == (kind == "empty")
                assert (fields[2] is None) == (kind == "unknown" or fields[1] == "constant-denominator")
                try:
                    want, decided = hypothesis2_ref(param, i, "exact", budget)[:3], True
                except ResourceError:  # route and exact stay null
                    want, decided = (False, None, None), False
                if budget == DEFAULT_STEP_BUDGET or decided == (kind != "unknown"):
                    assert fields == want
                kinds.append(kind)
    assert len(kinds) >= 100 and {"empty", "finite", "unknown"} <= set(kinds)


def test_condition2_locus_unknown_past_packed_exponent_bound():
    # exponents past CAP do not fit a packed monomial key: an input
    # exponent of 2^31, and an S-pair lcm d1 * t^CAP of degree CAP + 1
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t)])
    for num, den in ((t ** (CAP + 1), d1), (t**CAP, d1 * t)):
        param = normalize_param(tower, [(num, den)])[0]
        locus = condition2_locus(param, 1)
        assert locus.classification == "unknown"
        assert locus.basis is None


# ----------------------------------------------------------------------
# implicitization


def test_implicitize_circle():
    gens = implicitize(circle_param())
    assert len(gens) == 1
    x, y = (MultiPoly.var(gens[0].table, n) for n in ("x", "y"))
    assert gens[0] == x**2 + y**2 - 1


def test_implicitize_rational_circle():
    gens = implicitize(rational_circle())
    x, y = (MultiPoly.var(gens[0].table, n) for n in ("x", "y"))
    assert gens[0] == x**2 + y**2 - 1


def test_implicitize_sharp_example():
    gens = implicitize(sharp_bounds_param())
    assert len(gens) == 1
    x, y = (MultiPoly.var(gens[0].table, n) for n in ("x", "y"))
    assert gens[0] == x**2 - y**2 + 1


def test_implicitize_axis():
    gens = implicitize(axis_param())
    assert [str(g) for g in gens] == ["x"]


def test_implicitize_budget_error_propagates():
    with pytest.raises(ResourceError):
        implicitize(sharp_bounds_param(), step_budget=1)


# ----------------------------------------------------------------------
# the plane-curve route

PLANE_CASES = {
    # a reducible tower: the lines x = 3y and x = y
    "reducible": "tower { d1^2 = t^2; } param { x = d1 + 2*t; y = t; }",
    # conjugate lines, points only modulo primes with a root of -1 or -3
    "minus-one": "tower { d^2 = -t^2; } param { x = d + t; y = t; }",
    "minus-three": "tower { d^2 = -3*t^2; } param { x = d; y = t + 1; }",
    "cube": "tower { d1^2 = t; d2^3 = d1 + t; } param { x = d2; y = d1; }",
    # two to one: d and -d give the same point
    "non-injective": "tower { d^2 = t^2; } param { x = d; y = t^2; }",
    # a coefficient past one prime's reconstruction bound
    "large-coefficient": "tower { d^2 = t; } param { x = d; y = 1234567890123*t^2 + t; }",
    # missing_elim seed-0 missing_022.rs: the image is a point
    "point": "tower { } param { x = (t) / (-3*t); y = (2*t) / (-3*t); }",
}


def _eliminated(monkeypatch, param, step_budget=DEFAULT_STEP_BUDGET):
    """implicitize with the plane route declining, so elimination answers."""
    with monkeypatch.context() as patch:
        patch.setattr(missing, "plane_curve", lambda param, curves, budget: None)
        return implicitize(param, step_budget)


def _curves(param):
    gs = [component_curve_poly(param, i) for i in (1, 2)]
    return [(g, content_wrt(g, 0)) for g in gs]


def test_plane_route_matches_elimination(monkeypatch):
    # every plane input that elimination finishes within 1000 steps gets
    # the same generators, with the same term order, from both routes
    params = [p for p in _agreement_params() if p.n == 2]
    params += [parse(src) for src in PLANE_CASES.values()]
    compared = plane = 0
    for param in params:
        try:
            want = _eliminated(monkeypatch, param, 1000)
        except ResourceError:
            continue
        got = implicitize(param)
        assert [(str(g), list(g.coeffs)) for g in got] == [(str(g), list(g.coeffs)) for g in want]
        compared += 1
        plane += missing.plane_curve(param, _curves(param), Budget(inf)) is not None
    # the one declined is the point
    assert (compared, plane) == (17, 16)
    point = implicitize(parse(PLANE_CASES["point"]))
    assert [str(g) for g in point] == ["x + 1/3", "y + 2/3"]


def test_plane_route_guard_declines_a_constant_coordinate():
    # on the point both coordinates are constant, so both curve
    # polynomials have a content free of t, and the check alone would
    # accept x + 1/3; on axis.rs only x's has one, no component maps to
    # a point, and the route answers
    param = parse(PLANE_CASES["point"])
    assert all(not c.is_const() for _, c in _curves(param))
    assert missing.plane_curve(param, _curves(param), Budget(0)) is None
    param = parse((Path(__file__).parent / "data" / "axis.rs").read_text())
    assert [c.is_const() for _, c in _curves(param)] == [False, True]
    assert missing.plane_curve(param, _curves(param), Budget(inf)) is not None


def test_plane_route_declines_an_oversized_box():
    # x = t^500, y = t: a box of 2 x 501 unknowns; Budget(0) shows that
    # no column is eliminated
    param = parse("tower { } param { x = t^500; y = t; }")
    assert 2 * 501 > missing.MAX_UNKNOWNS
    assert missing.plane_curve(param, _curves(param), Budget(0)) is None


def test_plane_route_spends_one_step_per_column(monkeypatch):
    # the circle's generator is the sixth column: 1, x, y, x^2, xy, y^2
    param = circle_param()
    budget = Budget(100)
    assert str(missing.plane_curve(param, _curves(param), budget)) == "x^2 + y^2 - 1"
    assert budget.remaining == 94
    with pytest.raises(ResourceError):
        missing.plane_curve(param, _curves(param), Budget(5))
    # a declining route hands what it left to elimination
    seen = []

    def spend_and_decline(param, curves, budget):
        for _ in range(7):
            budget.spend()

    def eliminate(gens, keep, step_budget):
        seen.append(step_budget)
        return ()

    monkeypatch.setattr(missing, "plane_curve", spend_and_decline)
    monkeypatch.setattr(missing, "elimination_ideal", eliminate)
    assert implicitize(param, 50) == [] and seen == [43]


def test_each_curve_content_is_computed_once(monkeypatch):
    # candidate_polys computes cont_t(G_i) and the plane route's guard
    # reads it; the implicitize command, which has no candidates, computes
    # it once too.  Every package module's binding is spied on
    calls = []

    def spy(f, var):
        calls.append((f, var))
        return content_wrt(f, var)

    for name, module in list(sys.modules.items()):
        if name.startswith("radsurj.") and hasattr(module, "content_wrt"):
            monkeypatch.setattr(module, "content_wrt", spy)
    param = circle_param()
    curves = [g for g, _ in _curves(param)]
    for run in (missing_candidates, implicitize):
        calls.clear()
        run(param)
        assert [sum(f == g and var == 0 for f, var in calls) for g in curves] == [1, 1], run.__name__


def test_plane_route_skips_a_prime_dividing_a_denominator(monkeypatch):
    # the first prime divides the coefficient 1/p; inverting it modulo p
    # was a ValueError traceback.  The generator's coefficients near p
    # need three more primes
    first = 4611686018427387701
    monkeypatch.setattr(modular, "PRIMES", (first, *[p for p in modular.PRIMES if p != first][:3]))
    param = parse(f"tower {{ d^2 = t; }} param {{ x = 1/3 + 1/{first}*t; y = d; }}")
    got = missing.plane_curve(param, _curves(param), Budget(inf))
    assert str(got) == f"y^2 - {first}*x + {first}/3"
    assert [str(got)] == [str(g) for g in _eliminated(monkeypatch, param)]


NO_POINTS_IN_CHILD = """
import sys
from radsurj import missing, modular, parse
from radsurj.arith import Budget, content_wrt
modular.PRIMES = tuple(int(p) for p in sys.argv[1:])
param = parse(sys.stdin.read())
gs = [missing.component_curve_poly(param, i) for i in (1, 2)]
print(missing.plane_curve(param, [(g, content_wrt(g, 0)) for g in gs], Budget(10**6)))
"""


def test_plane_route_leaves_a_prime_without_points():
    # -t^2 is a square modulo p only when p = 1 mod 4; with primes 3 mod
    # 4 every draw failed and an early version looped forever, so this
    # runs in a child process with a timeout
    three = [p for p in modular.PRIMES if p % 4 == 3]
    one = [p for p in modular.PRIMES if p % 4 == 1]
    # missing_elim seed-0 missing_016.rs
    source = (
        "tower { d1^2 = -t^2; }\n"
        "param { x = (-3*t^2 - d1) / (-t^2 - 2); y = (-2*t^2 - 3*d1) / (-t^2 - 2); }"
    )
    for primes, want in ((three, "None"), (three[:2] + one[:1], "x^2 + 18*x*y - 17*y^2 - 21*x + 7*y")):
        proc = run_child(["-c", NO_POINTS_IN_CHILD, *map(str, primes)], input=source, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want + "\n"


def test_plane_route_declines_after_a_fixed_count_of_primes(monkeypatch):
    # one prime cannot reconstruct 1/1234567890123 and two can; 1/10^40
    # needs five, one more than TRIES, so the route declines after TRIES
    # primes and elimination answers
    used = []
    points = missing._curve_points

    def counted(param, p, rng):
        used.append(p)
        return points(param, p, rng)

    monkeypatch.setattr(missing, "_curve_points", counted)
    param = parse(PLANE_CASES["large-coefficient"])
    for primes, found in ((modular.PRIMES[:1], False), (modular.PRIMES, True)):
        used.clear()
        with monkeypatch.context() as patch:
            patch.setattr(modular, "PRIMES", primes)
            got = missing.plane_curve(param, _curves(param), Budget(inf))
        assert (got is not None, len(used)) == (found, 1 + found)
    param = parse("tower { d^2 = t; } param { x = d; y = 10^40*t^2 + t; }")
    used.clear()
    assert missing.plane_curve(param, _curves(param), Budget(inf)) is None
    assert len(used) == missing.TRIES < len(modular.PRIMES)
    c = 10**40
    assert [str(g) for g in implicitize(param)] == [f"x^4 + 1/{c}*x^2 - 1/{c}*y"]


# missing_elim seed-0 missing_024.rs and missing_039.rs; elimination takes
# 4.9 s and 34.9 s on them, so their generators are the strings it printed
FORMER_STALLS = {
    "missing_024": (
        "tower { d1^2 = 3*t^2 + 1; d2^2 = -2*t^2; }\n"
        "param { x = (d1*d2 + d1 - 2) / (-t^2 + 3*t); y = (3*t^2 + 2*d1*d2) / (-t^2 + 3*t); }",
        "x^4*y^4 - 424/305*x^3*y^5 + 722384/837225*x^2*y^6 - 228608/837225*x*y^7"
        " + 10624/279075*y^8 + 4384/2745*x^3*y^4 - 490604/279075*x^2*y^5 + 1625968/2511675*x*y^6"
        " - 182528/2511675*y^7 + 16/9*x^4*y^2 + 536/2745*x^3*y^3 - 609662/301401*x^2*y^4"
        " + 8570264/7535025*x*y^5 - 1516508/7535025*y^6 + 50624/24705*x^3*y^2"
        " + 892856/2511675*x^2*y^3 - 4266032/2511675*x*y^4 + 3420124/7535025*y^5 + 64/81*x^4"
        " + 31424/24705*x^3*y + 2921026/2511675*x^2*y^2 - 16991264/7535025*x*y^3"
        " + 4636249/7535025*y^4 + 512/915*x^3 + 765952/837225*x^2*y + 778112/837225*x*y^2"
        " - 622388/837225*y^3 + 605552/279075*x^2 + 6104/55815*x*y - 28862/55815*y^2"
        " + 55872/93025*x + 39576/93025*y + 84681/93025",
    ),
    "missing_039": (
        "tower { d1^2 = t^2; d2^2 = t^2 + 3; }\n"
        "param { x = (3*t*d1 + t - 2*d2) / (-2*t + 1); y = (-2*t*d1) / (-2*t + 1); }",
        "x^8 + 12*x^7*y - 43*x^6*y^2 - 765*x^5*y^3 - 4977/8*x^4*y^4 + 35505/4*x^3*y^5"
        " + 438129/16*x^2*y^6 + 486729/16*x*y^7 + 3068361/256*y^8 - 506*x^5*y^2 - 3795*x^4*y^3"
        " - 6183*x^3*y^4 + 12663/2*x^2*y^5 + 178443/8*x*y^6 + 219429/16*y^7 - 48*x^6 - 432*x^5*y"
        " - 19169/2*x^4*y^2 - 51027*x^3*y^3 - 449865/4*x^2*y^4 - 454437/4*x*y^5"
        " - 1401381/32*y^6 - 11952*x^3*y^2 - 53784*x^2*y^3 - 169155/2*x*y^4 - 184761/4*y^5"
        " + 864*x^4 + 5184*x^3*y - 2772*x^2*y^2 - 31644*x*y^3 - 426303/16*y^4 - 9504*x*y^2"
        " - 14256*y^3 - 6912*x^2 - 20736*x*y - 5832*y^2 + 20736",
    ),
}


@pytest.mark.parametrize("name", sorted(FORMER_STALLS))
def test_former_stalls_pinned(name):
    source, want = FORMER_STALLS[name]
    assert [str(g) for g in implicitize(parse(source))] == [want]


def test_missing_029_finishes_with_a_verified_generator(tmp_path, capsys):
    # elimination runs past 400 s on this file (missing_elim seed 0)
    src = tmp_path / "missing_029.rs"
    src.write_text(
        "tower { d1^2 = 2*t^2 - 2*t - 2; d2^2 = -t^2 + 2*t + 1; }\n"
        "param { x = (-d2 - 3) / (2*t^2 + 2); y = (3*t^2 - 2*t*d2 + 2*d1) / (2*t^2 + 2); }\n"
    )
    assert cli.main(["missing", str(src), "--stable"]) == 0
    (gen,) = json.loads(capsys.readouterr().out)["missing"]["implicit"]
    param = parse(src.read_text())
    (f,) = implicitize(param)
    assert str(f) == gen and f.total_degree() == 8
    assert missing._vanishes(f, param)


def _missing_elim_corpus(seed):
    spec = importlib.util.spec_from_file_location("gen", Path(__file__).parent.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.missing_elim(seed)


def test_plane_route_finds_each_generator_within_its_box():
    # the bidegree bound is pinned: on every missing_elim seed-0 file the
    # route declines only where both coordinates can be constant
    # (missing_022, a point) or the box is past MAX_UNKNOWNS (tall.rs,
    # 19 x 19), and otherwise finds the generator
    declined = []
    for name, text in _missing_elim_corpus(0):
        param = parse(text)
        curves = _curves(param)
        guarded = all(not c.is_const() for _, c in curves)
        e, ((gx, _), (gy, _)) = param.tower.exponent_product, curves
        dx, dy = ceil(gy.degree(0) * e / gy.degree(1)), ceil(gx.degree(0) * e / gx.degree(1))
        box = (dx + 1) * (dy + 1)
        f = missing.plane_curve(param, curves, Budget(inf))
        assert (f is None) == (guarded or box > missing.MAX_UNKNOWNS), name
        if f is None:
            declined.append(name)
    assert declined == ["missing_022.rs", "tall.rs"]


# ----------------------------------------------------------------------
# the full report


def test_missing_candidates_rational_circle_north_pole():
    rep = missing_candidates(rational_circle())
    assert len(rep.candidates) == 1
    (cand,) = rep.candidates
    assert abs(cand[0]) < 1e-12 and abs(cand[1] - 1) < 1e-12
    assert hyp1_bound(rep.coordinates) == 1
    assert rep.infinity_bound == 1


def test_missing_candidates_sharp_counts_and_filter():
    rep = missing_candidates(sharp_bounds_param())
    assert len(rep.candidates) == 4
    assert hyp1_bound(rep.coordinates) == 4 and rep.infinity_bound == 4
    xs = sorted(c[0].real for c in rep.candidates)
    assert xs == pytest.approx([-1, -1, 1, 1])
    ys = sorted(abs(c[1].real) for c in rep.candidates)
    assert ys == pytest.approx([2**0.5] * 4)
    assert [g for g in rep.implicit] and len(rep.candidates) <= hyp1_bound(rep.coordinates)
    assert all(loc.classification == "finite" for loc in rep.condition2)


def test_missing_candidates_filter_removes_off_curve_tuples():
    # y = x^3 with an extra reachable branch: p2/q2 = t^3 exactly, so the
    # cartesian product is filtered by the implicit cubic
    tower = RadicalTower(T_ONLY, [])
    param = normalize_param(tower, [(tt**2 - tt, ONET), (tt, ONET)])[0]
    rep = missing_candidates(param)
    assert rep.candidates == ()
    assert hyp1_bound(rep.coordinates) == 0


def test_missing_candidates_certified_instance_is_empty():
    rep = missing_candidates(circle_param())
    assert rep.candidates == ()
    assert hyp1_bound(rep.coordinates) == 0
    assert rep.condition2[0].classification == "empty"


def test_missing_candidates_axis_origin():
    rep = missing_candidates(axis_param())
    assert len(rep.candidates) == 1
    assert abs(rep.candidates[0][0]) < 1e-12 and abs(rep.candidates[0][1]) < 1e-12
    assert [str(g) for g in rep.implicit] == ["x"]


def test_missing_candidates_budget_note_and_unfiltered():
    rep = missing_candidates(sharp_bounds_param(), step_budget=1)
    assert rep.implicit is None
    assert any("unfiltered" in n for n in rep.notes)
    assert any("condition-2" in n for n in rep.notes)
    # without the filter the full cartesian product is reported
    assert len(rep.candidates) == 4


def filtered_like_point_rule(monkeypatch, axes, implicit):
    """filtered_candidates over the candidate product of axes, against the
    rule one tuple at a time."""
    table = implicit[0].table
    coords = tuple(
        CoordinateCandidates(name, None, MultiPoly.one(table), len(roots), (), tuple(roots))
        for name, roots in zip(table.names, axes)
    )
    monkeypatch.setattr(missing, "candidate_polys", lambda param: coords)
    monkeypatch.setattr(missing, "implicitize", lambda param, budget, curves: list(implicit))
    want = [
        tup
        for tup in itertools.product(*axes)
        if not any(scaled_residual_ref(g, tup) > DEFAULT_FILTER_TOL for g in implicit)
    ]
    got = missing.filtered_candidates(None).candidates
    assert list(got) == want
    return got


def test_filter_by_columns_matches_point_rule(monkeypatch):
    # random candidate products and 1-3 generators, most of them vanishing
    # on the candidates of one coordinate value, so tuples go both ways
    rng = Random(20261019)
    pool = [0j, 1 + 0j, -1 + 0j, 2 + 0j, 0.5 - 1.5j]
    kept = removed = 0
    for k in range(40):
        n = rng.randint(1, 3)
        table = VarTable(tuple(f"x{i}" for i in range(n)), (Role.COORDINATE,) * n)
        axes = [
            rng.sample(pool, rng.randint(1, 3)) + [complex(rng.uniform(-3, 3), rng.uniform(-1, 1))]
            for _ in range(n)
        ]
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = random_nonzero_poly(rng, table, max_exp=2, max_terms=3)
            if rng.random() < 0.8:
                i = rng.randrange(n)
                g = g * (MultiPoly.var(table, f"x{i}") - int(rng.choice(pool[:4]).real))
            gens.append(g)
        got = filtered_like_point_rule(monkeypatch, axes, gens)
        kept += len(got)
        removed += len(list(itertools.product(*axes))) - len(got)
    assert kept > 20 and removed > 20
    x, y = (MultiPoly.var(VarTable(("x", "y"), (Role.COORDINATE,) * 2), n) for n in "xy")
    # a nan residual (inf/inf at x = 1e10) keeps its candidate
    got = filtered_like_point_rule(monkeypatch, [[1e10 + 0j, 2 + 0j], [0j]], [10**300 * x - 1])
    assert got == ((1e10 + 0j, 0j),)
    # a residual exactly at the tolerance keeps its candidate
    axes = [[DEFAULT_FILTER_TOL + 0j, 1.0000001 * DEFAULT_FILTER_TOL + 0j, 0j], [0j]]
    got = filtered_like_point_rule(monkeypatch, axes, [y, x])
    assert got == ((DEFAULT_FILTER_TOL + 0j, 0j), (0j, 0j))
    # an empty product
    assert filtered_like_point_rule(monkeypatch, [[1 + 0j], []], [x, y]) == ()
