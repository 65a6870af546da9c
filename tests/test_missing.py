import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from radsurj import missing
from radsurj.arith import MultiPoly, Role, VarTable
from radsurj.errors import ResourceError
from radsurj.ideal import CAP, DEFAULT_STEP_BUDGET
from radsurj.missing import (
    DEFAULT_FILTER_TOL,
    CandidatePolySet,
    CandidateSet,
    CoordinateCandidates,
    candidate_polys,
    component_curve_poly,
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
    hypothesis2_ref,
    random_nonzero_poly,
    random_reduced_poly,
    random_tower,
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
    assert polys.hyp1_bound == 0
    for coord in polys.coordinates:
        assert coord.degree == 0
        assert coord.numeric_roots == ()


def test_candidate_polys_rational_circle():
    polys = candidate_polys(rational_circle())
    cx, cy = polys.coordinates
    assert cx.rational_roots == (Fraction(0),)
    assert cy.rational_roots == (Fraction(1),)
    assert polys.hyp1_bound == 1


def test_candidate_polys_sharp_example():
    polys = candidate_polys(sharp_bounds_param())
    cx, cy = polys.coordinates
    x = MultiPoly.var(cx.curve_poly.table, "x")
    assert cx.lead_coeff == x**2 - 1
    assert cx.rational_roots == (Fraction(-1), Fraction(1))
    assert cy.rational_roots == ()
    assert sorted(z.real for z in cy.numeric_roots) == pytest.approx(
        [-(2**0.5), 2**0.5], abs=1e-9
    )
    assert all(abs(z.imag) < 1e-9 for z in cy.numeric_roots)
    assert polys.hyp1_bound == 4


def test_candidate_polys_keeps_content_roots():
    # the x-component of the axis instance is identically zero, so its
    # curve polynomial is x^2; the root 0 must survive the cleanup
    polys = candidate_polys(axis_param())
    cx, cy = polys.coordinates
    assert cx.rational_roots == (Fraction(0),)
    assert cx.degree == 1
    assert cx.note == "curve polynomial is constant in t"
    assert cy.rational_roots == (Fraction(0),)
    assert polys.hyp1_bound == 1


CANDIDATES_IN_CHILD = """
import sys
from radsurj import parse
from radsurj.missing import candidate_polys
polys = candidate_polys(parse(sys.stdin.read()))
print([str(c.lead_coeff) for c in polys.coordinates], polys.hyp1_bound)
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
    proc = subprocess.run(
        [sys.executable, "-c", CANDIDATES_IN_CHILD],
        input=source,
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    # both agree with the leading t-coefficient of sympy's squarefree part
    assert proc.stdout == "['4*x^2', '16*y^4 - 96*y^3 + 248*y^2 - 312*y + 169'] 8\n"


def test_rational_sieve_bound():
    # |c_0 * c_d| at the bound is sieved; past it the roots stay numeric
    # and the skip joins any other note of the coordinate
    for c, sieved in ((10**12, True), (10**12 + 1, False), (10**30 + 57, False)):
        param, _ = normalize_param(
            RadicalTower(T_ONLY, []), [(c * ONET, ONET), (tt, ONET)], ["x", "y"]
        )
        cx = candidate_polys(param).coordinates[0]
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
    stub = CandidateSet((), CandidatePolySet(()), None, ())
    monkeypatch.setattr(missing, "filtered_candidates", lambda param, budget: stub)
    kinds = []
    for param in _agreement_params():
        for budget in (0, 1, 3, DEFAULT_STEP_BUDGET):
            checked = surjectivity_json(check_surjective(param, step_budget=budget), param)
            loci = missing_json(missing_candidates(param, budget), param)["condition2"]
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
# the full report


def test_missing_candidates_rational_circle_north_pole():
    rep = missing_candidates(rational_circle())
    assert len(rep.candidates) == 1
    (cand,) = rep.candidates
    assert abs(cand[0]) < 1e-12 and abs(cand[1] - 1) < 1e-12
    assert rep.polys.hyp1_bound == 1
    assert rep.infinity_bound == 1


def test_missing_candidates_sharp_counts_and_filter():
    rep = missing_candidates(sharp_bounds_param())
    assert len(rep.candidates) == 4
    assert rep.polys.hyp1_bound == 4 and rep.infinity_bound == 4
    xs = sorted(c[0].real for c in rep.candidates)
    assert xs == pytest.approx([-1, -1, 1, 1])
    ys = sorted(abs(c[1].real) for c in rep.candidates)
    assert ys == pytest.approx([2**0.5] * 4)
    assert [g for g in rep.implicit] and len(rep.candidates) <= rep.polys.hyp1_bound
    assert all(loc.classification == "finite" for loc in rep.condition2)


def test_missing_candidates_filter_removes_off_curve_tuples():
    # y = x^3 with an extra reachable branch: p2/q2 = t^3 exactly, so the
    # cartesian product is filtered by the implicit cubic
    tower = RadicalTower(T_ONLY, [])
    param = normalize_param(tower, [(tt**2 - tt, ONET), (tt, ONET)])[0]
    rep = missing_candidates(param)
    assert rep.candidates == ()
    assert rep.polys.hyp1_bound == 0


def test_missing_candidates_certified_instance_is_empty():
    rep = missing_candidates(circle_param())
    assert rep.candidates == ()
    assert rep.polys.hyp1_bound == 0
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
    monkeypatch.setattr(missing, "candidate_polys", lambda param: CandidatePolySet(coords))
    monkeypatch.setattr(missing, "implicitize", lambda param, budget: list(implicit))
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
