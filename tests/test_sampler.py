import cmath
import csv
import math
from random import Random

import pytest

from radsurj.arith import MultiPoly
from radsurj.errors import InputError, NumericError, StructuralError
from radsurj.missing import implicitize, missing_candidates
from radsurj.sampler import (
    CandidateVerdict,
    complex_roots,
    confirm_candidates,
    default_samples,
    enumerate_branches,
    sample_images,
    scaled_residual,
    write_csv,
)
from radsurj.surjcheck import normalize_param
from radsurj.tower import RadicalLevel, RadicalTower

from support import TD1, TD12, T_ONLY, complex_eval_corpus, scaled_residual_ref

t = MultiPoly.var(TD1, "t")
d1 = MultiPoly.var(TD1, "d1")
ONE = MultiPoly.one(TD1)
t2, e1, e2 = (MultiPoly.var(TD12, n) for n in ("t", "d1", "d2"))
tt = MultiPoly.var(T_ONLY, "t")


def circle_param():
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, 1 - t**2)])
    return normalize_param(tower, [(t, ONE), (d1, ONE)])[0]


def axis_param():
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t**2 - 1)])
    return normalize_param(tower, [(MultiPoly.zero(TD1), ONE), (t - d1, ONE)])[0]


def rational_circle():
    den = 1 + tt**2
    return normalize_param(RadicalTower(T_ONLY, []), [(2 * tt, den), (tt**2 - 1, den)])[0]


def sharp_bounds_param():
    tower = RadicalTower(
        TD12,
        [
            RadicalLevel("d1", 2, t2 * (t2 - 1)),
            RadicalLevel("d2", 2, (2 * t2 - 1) * (t2 - 1)),
        ],
    )
    return normalize_param(tower, [(e1, t2 - 1), (e2, t2 - 1)])[0]


def sorted_roots(rs):
    return sorted(rs, key=lambda z: (round(z.real, 8), round(z.imag, 8)))


# ----------------------------------------------------------------------
# root finding


def test_complex_roots_pinned_small_cases():
    assert sorted_roots(complex_roots([-1, 0, 1])) == pytest.approx([-1, 1])
    rs = sorted_roots(complex_roots([-2, 0, 1]))
    assert rs == pytest.approx([-math.sqrt(2), math.sqrt(2)])
    cube = sorted_roots(complex_roots([-1, 0, 0, 1]))
    expected = sorted_roots(cmath.exp(2j * cmath.pi * k / 3) for k in range(3))
    assert cube == pytest.approx(expected)


def test_complex_roots_linear_and_zero_roots():
    assert complex_roots([6, -2]) == [3]
    assert complex_roots([0, 0, 1]) == [0, 0]
    rs = sorted_roots(complex_roots([0, -1, 0, 1]))
    assert rs == pytest.approx([-1, 0, 1])


def test_complex_roots_rejects_degenerate_input():
    with pytest.raises(InputError):
        complex_roots([5])
    with pytest.raises(InputError):
        complex_roots([])
    with pytest.raises(InputError):
        complex_roots([3, 0, 0.0])


def test_complex_roots_is_deterministic():
    coeffs = [1, -3, 2.5, 0.5, 1]
    assert complex_roots(coeffs) == complex_roots(coeffs)


def test_complex_roots_recovers_random_products():
    rng = Random(7)
    for _ in range(25):
        roots = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(rng.randint(2, 6))]
        coeffs = [1 + 0j]
        for r in roots:
            coeffs = [0j] + coeffs
            coeffs = [c - r * n for c, n in zip(coeffs, coeffs[1:] + [0j])]
        found = sorted_roots(complex_roots(coeffs[::-1] if False else coeffs))
        for a, b in zip(found, sorted_roots(roots)):
            assert abs(a - b) < 1e-6


def test_complex_roots_nonconvergence_returns_best():
    with pytest.raises(NumericError) as info:
        complex_roots([-2, 0, 1], tol=0.0)
    best = info.value.best
    assert best is not None
    assert sorted_roots(best) == pytest.approx([-math.sqrt(2), math.sqrt(2)])


# ----------------------------------------------------------------------
# branches


def test_enumerate_branches_circle():
    tower = circle_param().tower
    assert sorted_roots(b[0] for b in enumerate_branches(tower, 0j)) == pytest.approx([-1, 1])
    collapsed = enumerate_branches(tower, 1 + 0j)
    assert collapsed == [(0j,)]


def test_enumerate_branches_nested_count_and_values():
    tower = RadicalTower(TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 2, e1 + 1)])
    branches = enumerate_branches(tower, 4 + 0j)
    assert len(branches) == 4
    firsts = sorted(b[0].real for b in branches)
    assert firsts == pytest.approx([-2, -2, 2, 2])
    assert all(abs(b[0].imag) < 1e-12 for b in branches)
    for b in branches:
        if b[0].real > 0:
            assert abs(b[1] ** 2 - 3) < 1e-9
        else:
            assert abs(b[1] ** 2 + 1) < 1e-9


def test_enumerate_branches_empty_tower():
    assert enumerate_branches(RadicalTower(T_ONLY, []), 2 + 1j) == [()]


def test_enumerate_branches_satisfy_tower_equations():
    tower = sharp_bounds_param().tower
    for t0 in (0.3 + 0.1j, -2 + 0j, 5j):
        branches = enumerate_branches(tower, t0)
        assert len(branches) == 4
        for deltas in branches:
            point = [t0, *deltas]
            for i, level in enumerate(tower.levels):
                lhs = deltas[i] ** level.exponent
                assert abs(lhs - level.radicand.eval_complex(point)) <= 1e-9 * max(1, abs(lhs))


# ----------------------------------------------------------------------
# image clouds


def test_sample_images_circle_residuals_and_counts():
    param = circle_param()
    implicit = implicitize(param)
    report = sample_images(param, implicit=implicit)
    assert report.sample_count == 600
    assert report.rejected == 0
    assert report.evaluations == len(report.accepted)
    assert report.max_implicit_residual <= 1e-8
    for pt in report.accepted[:50]:
        x, y = pt.image
        assert abs(x**2 + y**2 - 1) <= 1e-8


def test_sample_images_rejects_small_denominators():
    param = normalize_param(RadicalTower(T_ONLY, []), [(1 + tt, tt)])[0]
    report = sample_images(param, samples=[0j, 1 + 0j, 2 + 0j])
    assert report.rejected == 1
    assert len(report.accepted) == 2
    assert report.evaluations == 3


def test_sample_images_axis_never_near_origin():
    report = sample_images(axis_param())
    assert all(abs(pt.image[0]) < 1e-12 for pt in report.accepted)
    assert all(abs(pt.image[1]) > 1e-3 for pt in report.accepted)


def test_sample_images_rational_circle_avoids_north_pole():
    report = sample_images(rational_circle())
    for pt in report.accepted:
        d = math.hypot(abs(pt.image[0]), abs(pt.image[1] - 1))
        assert d > 1e-3


def test_default_samples_schedule():
    samples = default_samples()
    assert len(samples) == 600
    mags = [abs(z) for z in samples[:200]]
    assert all(abs(m - 0.7) < 1e-12 for m in mags)
    assert all(abs(abs(z) - 3.1) < 1e-12 for z in samples[200:400])
    tail = samples[400:]
    assert all(z.imag == 0 for z in tail)
    assert tail[0] == -5 and tail[-1] == 5


# ----------------------------------------------------------------------
# candidate confirmation


def test_confirm_candidates_reachable_point_is_covered():
    param = circle_param()
    report = sample_images(param)
    (verdict,) = confirm_candidates(report, [(1 + 0j, 0j)], param)
    assert verdict.verdict == "covered"
    assert abs(verdict.parameter - 1) < 1e-2
    assert verdict.distance <= 1e-3


def test_confirm_candidates_rational_circle_north_pole_missing():
    param = rational_circle()
    report = sample_images(param)
    rep = missing_candidates(param)
    (verdict,) = confirm_candidates(report, rep.candidates, param)
    assert verdict.verdict == "likely-missing"
    assert verdict.distance > 1e-3


def test_confirm_candidates_sharp_example_all_missing():
    param = sharp_bounds_param()
    report = sample_images(param)
    rep = missing_candidates(param)
    verdicts = confirm_candidates(report, rep.candidates, param)
    assert len(verdicts) == 4
    for v in verdicts:
        assert v.verdict == "likely-missing"
        assert v.distance > 1e-2


def test_confirm_candidates_axis_origin_missing():
    param = axis_param()
    report = sample_images(param)
    rep = missing_candidates(param)
    (verdict,) = confirm_candidates(report, rep.candidates, param)
    assert verdict.verdict == "likely-missing"
    assert verdict.distance > 1e-3


def test_confirm_candidates_empty_cloud():
    param = normalize_param(RadicalTower(T_ONLY, []), [(1 + tt, tt)])[0]
    report = sample_images(param, samples=[0j])
    (verdict,) = confirm_candidates(report, [(1 + 0j,)], param)
    assert verdict.verdict == "likely-missing"
    assert verdict.parameter is None and math.isinf(verdict.distance)


# ----------------------------------------------------------------------
# csv dump


def test_write_csv_columns_and_rows(tmp_path):
    param = circle_param()
    report = sample_images(param, samples=default_samples(5))
    path = tmp_path / "cloud.csv"
    write_csv(report, param, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "t_re", "t_im", "d1_re", "d1_im", "x_re", "x_im", "y_re", "y_im",
    ]
    assert len(rows) - 1 == len(report.accepted)
    assert all(len(r) == 8 for r in rows[1:])


def test_scaled_residual_matches_uncached_reference():
    for g, points in complex_eval_corpus(Random(20261019)):
        for x in points:
            want = repr(scaled_residual_ref(g, x))
            assert repr(scaled_residual(g, x)) == want
            assert repr(scaled_residual(g, x)) == want  # cached terms
        for wrong in (points[0][:-1], points[0] + (1j,)):
            with pytest.raises(StructuralError):
                scaled_residual(g, wrong)


def test_scaled_residual_is_relative():
    gens = implicitize(circle_param())
    g = gens[0]
    assert scaled_residual(g, (0.6 + 0j, 0.8 + 0j)) <= 1e-15
    big = scaled_residual(g, (1e6 + 0j, 1e6 + 0j))
    assert big <= 2.5 and big > 0.1
