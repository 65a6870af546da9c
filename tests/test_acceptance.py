"""Acceptance gate: twelve end-to-end criteria, one test each.

Run with -v to get one pass/fail line per criterion.  Every exact
value asserted here was derived by hand or cross-checked with sympy
before being frozen; the random corpora are seeded and shared between
the criteria that quantify over them.
"""

import time
from functools import cache
from pathlib import Path
from random import Random

import pytest

from radsurj import cli
from radsurj.arith import MultiPoly, Role, VarTable, weighted_degree
from radsurj.ideal import ideal_is_trivial
from radsurj.missing import (
    candidate_polys,
    component_curve_poly,
    condition2_locus,
    implicitize,
    missing_candidates,
)
from radsurj.sampler import confirm_candidates, sample_images
from radsurj.surjcheck import check_surjective, normalize_param
from radsurj.tower import (
    RadicalLevel,
    RadicalTower,
    is_guilty,
    is_suspicious,
    normalized_remainder,
    remainder_trace,
)

from support import (
    T_ONLY,
    TD1,
    TD12,
    fast_guilty_single,
    full_conjugate_product,
    random_reduced_poly,
    random_tower,
)

DATA = Path(__file__).parent / "data"

t = MultiPoly.var(TD1, "t")
d1 = MultiPoly.var(TD1, "d1")
ONE = MultiPoly.one(TD1)
t2, e1, e2 = (MultiPoly.var(TD12, n) for n in ("t", "d1", "d2"))
ONE2 = MultiPoly.one(TD12)
s = MultiPoly.var(T_ONLY, "t")
ONE_T = MultiPoly.one(T_ONLY)

CORPUS_SIZE = 500
SEED = 20260817


def param_of(tower, pairs, names=None):
    return normalize_param(tower, pairs, names)[0]


def circle_param():
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, 1 - t**2)])
    return param_of(tower, [(t, ONE), (d1, ONE)])


def rational_circle_param():
    den = 1 + s**2
    tower = RadicalTower(T_ONLY, [])
    return param_of(tower, [(2 * s, den), (s**2 - 1, den)])


def cotas_param():
    tower = RadicalTower(
        TD12,
        [
            RadicalLevel("d1", 2, t2**2 - t2),
            RadicalLevel("d2", 2, 2 * t2**2 - 3 * t2 + 1),
        ],
    )
    return param_of(tower, [(e1, t2 - 1), (e2, t2 - 1)])


def fermat_param(n):
    table = VarTable(("t", "d"), (Role.PARAMETER, Role.RADICAL))
    ft = MultiPoly.var(table, "t")
    fd = MultiPoly.var(table, "d")
    tower = RadicalTower(table, [RadicalLevel("d", n, 1 - ft**n)])
    return param_of(tower, [(ft, MultiPoly.one(table)), (fd, MultiPoly.one(table))])


@cache
def guilt_corpus():
    """Shared random instances: (tower, f, suspicion, guilt) tuples."""
    rng = Random(SEED)
    records = []
    for _ in range(CORPUS_SIZE):
        tower = random_tower(rng, rng.randint(1, 3), max_e=3, tdeg=4)
        f = random_reduced_poly(rng, tower)
        records.append((tower, f, is_suspicious(f, tower), is_guilty(f, tower)))
    return records


# ----------------------------------------------------------------------


def test_criterion_01_circle_certified_and_implicitized(capsys):
    started = time.perf_counter()
    param = circle_param()
    report = check_surjective(param)
    gens = implicitize(param)
    elapsed = time.perf_counter() - started
    assert report.verdict == "CERTIFIED_SURJECTIVE"
    assert report.certificate_path == "polynomial-components"
    assert [str(g) for g in gens] == ["x^2 + y^2 - 1"]
    assert elapsed < 1.0
    assert cli.main(["check", str(DATA / "circle.rs"), "--stable"]) == 0
    capsys.readouterr()


def test_criterion_02_axis_component_is_guilty(capsys):
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t**2 - 1)])
    report = is_guilty(t - d1, tower)
    assert report.expected_degree == 2
    assert report.actual_degree == 0
    assert report.guilty is True
    assert report.remainder == ONE
    assert cli.main(["check", str(DATA / "axis.rs"), "--stable"]) == 3
    capsys.readouterr()


def test_criterion_03_shifted_radicand_is_innocent():
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t - 1)])
    f = t - d1
    assert normalized_remainder(f, tower) == t**2 - t + 1
    report = is_guilty(f, tower)
    assert not report.guilty
    single = param_of(tower, [(f, ONE)])
    check = check_surjective(single)
    assert check.verdict == "CERTIFIED_SURJECTIVE"
    assert check.certificate_path == "polynomial-components"


def test_criterion_04_nested_remainder_and_sign_product_differ():
    tower = RadicalTower(
        TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 2, e1 + 1)]
    )
    f = e1 * e2 + t2
    assert normalized_remainder(f, tower) == t2**4 - 3 * t2**3 + t2**2
    product = full_conjugate_product(f, tower)
    expected = (-2 * t2**3 + 2 * t2**2) * e1 + t2**4 - t2**3 + t2**2
    assert product == expected


def test_criterion_05_two_root_difference_has_constant_lead():
    tower = RadicalTower(
        TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 2, t2 + 1)]
    )
    param = param_of(tower, [(t2 * e1 - t2 * e2, ONE2)])
    g = component_curve_poly(param, 1)
    gt = MultiPoly.var(g.table, "t")
    gx = MultiPoly.var(g.table, "x")
    assert g == gt**4 - 4 * gx**2 * gt**3 - 2 * gx**2 * gt**2 + gx**4
    polys = candidate_polys(param)
    coord = polys.coordinates[0]
    assert coord.lead_coeff.is_const()
    assert coord.lead_coeff.const_value() == 1
    assert coord.rational_roots == () and coord.numeric_roots == ()
    assert missing_candidates(param).candidates == ()


def test_criterion_06_sharp_bounds_with_four_missing_points():
    started = time.perf_counter()
    param = cotas_param()
    report = missing_candidates(param)
    assert report.hyp1_bound == 4
    assert report.infinity_bound == 4
    leads = [str(c.lead_coeff) for c in report.polys.coordinates]
    assert leads == ["x^2 - 1", "y^2 - 2"]
    assert [str(g) for g in report.implicit] == ["x^2 - y^2 + 1"]
    assert len(report.candidates) == 4
    xs = sorted(round(pt[0].real, 6) for pt in report.candidates)
    ys = sorted(round(pt[1].real, 6) for pt in report.candidates)
    assert xs == [-1.0, -1.0, 1.0, 1.0]
    assert ys == sorted([-round(2**0.5, 6)] * 2 + [round(2**0.5, 6)] * 2)
    cloud = sample_images(param, implicit=report.implicit)
    verdicts = confirm_candidates(cloud, report.candidates, param)
    assert [v.verdict for v in verdicts] == ["likely-missing"] * 4
    assert all(v.distance > 1e-2 for v in verdicts)
    assert time.perf_counter() - started < 5.0


def test_criterion_07_rational_circle_misses_north_pole():
    param = rational_circle_param()
    assert check_surjective(param).verdict == "INCONCLUSIVE"
    report = missing_candidates(param)
    assert report.candidates == ((0j, 1 + 0j),)
    cloud = sample_images(param, implicit=report.implicit)
    verdicts = confirm_candidates(cloud, report.candidates, param)
    assert [v.verdict for v in verdicts] == ["likely-missing"]


def test_criterion_08_denominator_locus_is_finite_not_trivial():
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t)])
    param = param_of(tower, [(t * (d1 - 1), t - 1)])
    locus = condition2_locus(param, 1)
    assert locus.classification == "finite"
    gens = [tower.level_poly(0), t * (d1 - 1), t - 1]
    assert ideal_is_trivial(gens) is False


@pytest.mark.slow
def test_criterion_09_suspicion_is_sound_for_guilt():
    tower = RadicalTower(
        TD12, [RadicalLevel("d1", 2, t2**2 - 1), RadicalLevel("d2", 2, t2 - e1)]
    )
    assert is_suspicious(e1 * e2 + 3, tower).suspicious is True
    assert is_suspicious(e1 * e2 + 3 + t2**2, tower).suspicious is False

    violations = [
        (tower, f)
        for tower, f, susp, guilt in guilt_corpus()
        if not susp.suspicious and guilt.guilty
    ]
    assert violations == []

    rng = Random(SEED + 1)
    for _ in range(CORPUS_SIZE):
        tw = random_tower(rng, 1, max_e=3, tdeg=4)
        f = random_reduced_poly(rng, tw)
        assert fast_guilty_single(f, tw) == is_guilty(f, tw).guilty


@pytest.mark.slow  # shares guilt_corpus() with criterion 09, which builds it once
def test_criterion_10_degree_of_remainder_is_bounded():
    for tower, f, _, guilt in guilt_corpus():
        assert guilt.actual_degree <= guilt.expected_degree
        expected = (
            weighted_degree(f, tower.weights) * tower.exponent_product
        )
        assert guilt.expected_degree == expected


def test_criterion_11_fermat_curves_certify_and_sample_clean():
    xy = VarTable(("x", "y"), (Role.COORDINATE, Role.COORDINATE))
    fx = MultiPoly.var(xy, "x")
    fy = MultiPoly.var(xy, "y")
    for n in (2, 3):
        param = fermat_param(n)
        report = check_surjective(param)
        assert report.verdict == "CERTIFIED_SURJECTIVE"
        cloud = sample_images(param, implicit=[fx**n + fy**n - 1])
        assert cloud.max_implicit_residual <= 1e-8


def certified_instances():
    tower3 = RadicalTower(TD1, [RadicalLevel("d1", 2, t - 1)])
    toweri = RadicalTower(
        TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 2, e1 + 1)]
    )
    tower_r = RadicalTower(TD1, [RadicalLevel("d1", 2, t)])
    return [
        circle_param(),
        param_of(tower3, [(t - d1, ONE)]),
        fermat_param(2),
        fermat_param(3),
        param_of(toweri, [(t2, ONE2), (e1 * e2, ONE2)]),
        param_of(tower_r, [(t**3, 1 + t**2), (d1, ONE)]),
    ]


def test_criterion_12_trace_keeps_constant_coefficient_on_top():
    for param in certified_instances():
        report = check_surjective(param)
        assert report.certified
        i = report.witness_index
        comp = param.components[i - 1]
        tower = param.tower

        xname = param.coordinates[i - 1]
        table = VarTable(
            tower.table.names + (xname,),
            tower.table.roles + (Role.COORDINATE,),
        )
        x = MultiPoly.var(table, xname)
        f = x * comp.denominator.transport(table) - comp.numerator.transport(table)
        wv = tower.weight_vector(table)
        p_deg = weighted_degree(comp.numerator, tower.weights)
        xi = table.index(xname)

        exps = [level.exponent for level in tower.levels]
        trace = remainder_trace(f, tower)
        for k, f_k in enumerate(trace):
            scale = 1
            for e in exps[len(exps) - k :]:  # levels eliminated so far
                scale *= e
            coeffs = f_k.univariate_coeffs(xi)
            d0 = weighted_degree(coeffs[0], wv)
            assert d0 == p_deg * scale
            for c in coeffs[1:]:
                if not c.is_zero():
                    assert d0 > weighted_degree(c, wv)

        g1 = trace[-1]
        t_idx = g1.table.index("t")
        lead = g1.coeff_poly(t_idx, g1.degree(t_idx))
        assert lead.is_const()
