import cmath
import csv
import math
from pathlib import Path
from random import Random

import pytest

from radsurj.arith import MultiPoly, Role, VarTable
from radsurj.errors import InputError, NumericError, StructuralError
from radsurj import cli, sampler
from radsurj.missing import implicitize, missing_candidates
from radsurj.parser import parse_source
from radsurj.report import sample_json
from radsurj.sampler import (
    CandidateVerdict,
    complex_roots,
    confirm_candidates,
    default_samples,
    enumerate_branches,
    sample_images,
    scaled_residuals,
    write_csv,
)
from radsurj.surjcheck import normalize_param
from radsurj.tower import RadicalLevel, RadicalTower

from support import (
    TD1,
    TD12,
    T_ONLY,
    complex_eval_corpus,
    nearest_cloud_point_ref,
    random_poly,
    random_reduced_poly,
    random_tower,
    sample_images_ref,
    scaled_residual_ref,
)

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


def test_complex_roots_nonconvergence_returns_best(monkeypatch):
    monkeypatch.setattr(sampler, "DEFAULT_ROOT_TOL", 0.0)
    with pytest.raises(NumericError) as info:
        complex_roots([-2, 0, 1])
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


def test_branch_check_names_the_lowest_failing_level(monkeypatch):
    # levels are checked as they are built; at t = 4 the rotated square
    # root -2 carries a rounding error that no tolerance this small forgives
    tower = RadicalTower(TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 3, 3 * e1 + t2)])
    assert len(enumerate_branches(tower, 4 + 0j)) == 6
    monkeypatch.setattr(sampler, "DEFAULT_BRANCH_TOL", 1e-300)
    with pytest.raises(NumericError, match="^branch violates level d1 beyond tolerance$"):
        enumerate_branches(tower, 4 + 0j)


# ----------------------------------------------------------------------
# image clouds


def test_sample_images_enumerates_branches_once_per_sample(monkeypatch):
    # enumerate_branches is the one branch enumerator, for the cloud too
    calls = []
    enumerate_branches = sampler.enumerate_branches

    def counted(tower, t0):
        calls.append(t0)
        return enumerate_branches(tower, t0)

    monkeypatch.setattr(sampler, "enumerate_branches", counted)
    samples = default_samples(5)
    assert len(samples) < sampler._BLOCK
    sample_images(circle_param(), samples)
    assert calls == samples


def test_sample_images_circle_residuals_and_counts():
    param = circle_param()
    implicit = implicitize(param)
    report = sample_images(param, implicit=implicit)
    assert report.sample_count == 600
    assert report.rejected == 0
    assert report.max_implicit_residual <= 1e-8
    xs, ys = report.columns[2:]
    for x, y in list(zip(xs, ys))[:50]:
        assert abs(x**2 + y**2 - 1) <= 1e-8


def test_sample_images_rejects_small_denominators():
    param = normalize_param(RadicalTower(T_ONLY, []), [(1 + tt, tt)])[0]
    report = sample_images(param, samples=[0j, 1 + 0j, 2 + 0j])
    assert report.rejected == 1
    assert len(report.columns[0]) == 2


def test_sample_images_axis_never_near_origin():
    xs, ys = sample_images(axis_param()).columns[2:]
    assert all(abs(x) < 1e-12 for x in xs)
    assert all(abs(y) > 1e-3 for y in ys)


def test_sample_images_rational_circle_avoids_north_pole():
    xs, ys = sample_images(rational_circle()).columns[1:]
    for x, y in zip(xs, ys):
        d = math.hypot(abs(x), abs(y - 1))
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


def confirm_like_the_row_loop(monkeypatch, param, samples, cands):
    """confirm_candidates against nearest_cloud_point_ref: the same
    verdicts and the same seeds handed to _refine."""
    cloud = sample_images(param, samples)
    refine = sampler._refine
    seeds = []

    def recorded(param, cand, t0, tol):
        seeds.append(t0)
        return refine(param, cand, t0, tol)

    monkeypatch.setattr(sampler, "_refine", recorded)
    got = confirm_candidates(cloud, cands, param)
    want, want_seeds = [], []
    for cand in cands:
        t0, dist = nearest_cloud_point_ref(cloud, param.tower.m, cand)
        verdict = CandidateVerdict(cand, "likely-missing", None, dist)
        if t0 is not None:
            want_seeds.append(t0)
            t_star, d_star = refine(param, cand, t0, cloud.denominator_tol)
            if d_star <= sampler.DEFAULT_MATCH_TOL:
                verdict = CandidateVerdict(cand, "covered", t_star, d_star)
        want.append(verdict)
    assert repr(seeds) == repr(want_seeds)
    assert repr(got) == repr(want)
    return cloud, got, seeds


def test_confirm_candidates_seeds_at_the_row_loops_nearest_point(monkeypatch):
    unit = MultiPoly.one(T_ONLY)
    # a nan image in the first row (inf - inf in the denominator at t = 1e10)
    # never seeds
    param = normalize_param(RadicalTower(T_ONLY, []), [(unit, 10**300 * (tt**2 - tt**3))])[0]
    cands = [(0j,), (1 + 0j,)]
    cloud, _, seeds = confirm_like_the_row_loop(monkeypatch, param, [1e10 + 0j, 2 + 0j], cands)
    assert cmath.isnan(cloud.columns[1][0]) and seeds == [2 + 0j, 2 + 0j]
    # of two rows tied at the minimum, the first seeds
    param = normalize_param(RadicalTower(T_ONLY, []), [(tt**2, unit)])[0]
    samples = [2 + 0j, 1 + 0j, -1 + 0j]
    _, _, seeds = confirm_like_the_row_loop(monkeypatch, param, samples, [(0j,)])
    assert seeds == [1 + 0j]
    # an empty cloud seeds nothing: likely-missing at distance inf, null in JSON
    param = normalize_param(RadicalTower(T_ONLY, []), [(1 + tt, tt)])[0]
    cloud, verdicts, seeds = confirm_like_the_row_loop(monkeypatch, param, [0j], [(1 + 0j,)])
    assert seeds == [] and verdicts[0].verdict == "likely-missing"
    doc = sample_json(cloud, verdicts)
    assert doc["accepted"] == 0 and doc["candidates"][0]["distance"] is None


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
    assert len(rows) - 1 == len(report.columns[0])
    assert all(len(r) == 8 for r in rows[1:])


def scaled_residual(g, point):
    """scaled_residuals on the one-row columns of point."""
    return scaled_residuals(g, [[x] for x in point], {})[0]


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


# ----------------------------------------------------------------------
# image cloud by columns against the per-point loop


def same_cloud(param, samples=None, tol=sampler.DEFAULT_BRANCH_TOL, implicit=None):
    want = sample_images_ref(param, samples, tol, implicit)
    got = sample_images(param, samples, tol, implicit)
    assert repr(got.columns) == repr(want.columns)
    assert repr(got.max_implicit_residual) == repr(want.max_implicit_residual)
    assert repr(got) == repr(want)  # counts and tol
    return want


def random_param(rng, m):
    tower = random_tower(rng, m, max_e=3, tdeg=2, nested=True)
    tv = MultiPoly.var(tower.table, "t")
    pairs = []
    for _ in range(rng.choice((1, 2, 2, 3))):
        num = random_reduced_poly(rng, tower, tdeg=3)
        r = rng.random()
        if r < 0.3:
            den = MultiPoly.one(tower.table)
        elif r < 0.7:
            den = tv - rng.randint(-2, 2)
        else:
            den = random_reduced_poly(rng, tower, tdeg=2)
        pairs.append((num, den))
    return normalize_param(tower, pairs)[0]


def random_implicit(rng, param, kind):
    """None, no generator, one or two over the coordinates."""
    if kind is None:
        return None
    n = len(param.components)
    table = VarTable(tuple(f"x{i}" for i in range(n)), (Role.COORDINATE,) * n)
    return [random_poly(rng, table, max_exp=3, max_terms=5) for _ in range(kind)]


def test_sample_images_matches_point_loop_on_seeded_towers():
    # heights 0-2, exponents 2-3, nested radicands; sample counts 1, one
    # block, one block + 1 and the default schedule; integer samples hit
    # radicand zeros and the t - a denominators
    rng = Random(20261019)
    block = sampler._BLOCK
    pool = [0j, 1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j] + default_samples(block)
    counts = (1, block, block + 1, None)
    for k in range(24):
        param = random_param(rng, k % 3)
        count = counts[k % 4]
        samples = None if count is None else pool[:count]
        implicit = random_implicit(rng, param, (None, 0, 1, 2)[(k // 4) % 4])
        tol = 0.0 if k % 5 == 0 else sampler.DEFAULT_BRANCH_TOL
        same_cloud(param, samples, tol, implicit)


def test_sample_images_matches_point_loop_at_collapsed_and_rejected_rows():
    # t = 0 collapses d^2 = t; t = 1 zeroes the denominator t - 1
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t)])
    param = normalize_param(tower, [(d1, ONE), (t, t - 1)])[0]
    for tol in (sampler.DEFAULT_BRANCH_TOL, 0.0):
        report = same_cloud(param, [0j, 1 + 0j, 4 + 0j, 1 + 1e-12j], tol)
        assert report.columns[1][0] == 0j
    assert same_cloud(param, [1 + 1e-12j], 0.0).rejected == 0
    assert same_cloud(param, [1 + 1e-12j]).rejected == 2
    # at t = 1, d2^2 = d1 - 1 collapses over d1 = 1 only; 1/(d1 - 1) is rejected there
    tower = RadicalTower(TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 2, e1 - 1)])
    one = MultiPoly.one(TD12)
    param = normalize_param(tower, [(e2, one), (one, e1 - 1)])[0]
    report = same_cloud(param, [1 + 0j, 0j, 3 + 0j], 0.0)
    assert report.rejected == 1 and len(report.columns[0]) == 2 + 2 + 4
    # a nan denominator (inf - inf at t = 1e10) is not within tol of zero
    unit = MultiPoly.one(T_ONLY)
    param = normalize_param(RadicalTower(T_ONLY, []), [(unit, 10**300 * (tt**2 - tt**3))])[0]
    report = same_cloud(param, [1e10 + 0j, 2 + 0j])
    assert report.rejected == 0 and cmath.isnan(report.columns[1][0])


def test_sample_images_residual_maximum_keeps_nan_order():
    # at t = 1e10 the term 10^300*x overflows to inf, and inf/inf makes
    # that residual nan; max keeps a nan that comes first and drops one
    # that comes later, per point over the generators and over the points
    unit = MultiPoly.one(T_ONLY)
    param = normalize_param(RadicalTower(T_ONLY, []), [(tt, unit), (unit, unit)])[0]
    table = VarTable(("x", "y"), (Role.COORDINATE,) * 2)
    x, y = MultiPoly.var(table, "x"), MultiPoly.var(table, "y")
    huge, rest = 10**300 * x - 1, y - 3
    big, small = 1e10 + 0j, 2 + 0j
    assert math.isnan(same_cloud(param, [big, small], 0.0, [huge, rest]).max_implicit_residual)
    assert same_cloud(param, [small, big], 0.0, [huge, rest]).max_implicit_residual == 1.0
    assert same_cloud(param, [big], 0.0, [rest, huge]).max_implicit_residual == 2 / 3
    # a later block that opens with nan still raises the maximum: residuals
    # of x + y are 1.5 at t = 1/2 and 2 at t = 1
    half = [0.5 + 0j] * sampler._BLOCK
    report = same_cloud(param, half + [big, 1 + 0j], 0.0, [huge, x + y])
    assert report.max_implicit_residual == 2.0


def test_sample_images_errors_match_point_loop(monkeypatch):
    # the numerator t^200 overflows at t = 1000 only where the per-point
    # loop never evaluates it: the denominator rejects that row
    unit = MultiPoly.one(T_ONLY)
    param = normalize_param(RadicalTower(T_ONLY, []), [(tt**200, tt - 1000), (tt, unit)])[0]
    same_cloud(param, [1000 + 0j, 2 + 0j])
    for run in (sample_images_ref, sample_images):
        with pytest.raises(OverflowError):
            run(param, [2 + 0j, 999 + 0j])
    # implicit generators over the wrong number of coordinates
    wrong = [MultiPoly.var(TD12, "t")]
    for run in (sample_images_ref, sample_images):
        with pytest.raises(StructuralError, match="wrong arity"):
            run(param, [2 + 0j], implicit=wrong)
    # the error names the first failing sample's first failing level: at
    # t = 0 level d1 collapses and d2 fails; at t = 4 level d1 fails
    tower = RadicalTower(TD12, [RadicalLevel("d1", 2, t2), RadicalLevel("d2", 3, e1 + t2 + 1)])
    one = MultiPoly.one(TD12)
    param = normalize_param(tower, [(e1, one), (e2, one)])[0]
    monkeypatch.setattr(sampler, "DEFAULT_BRANCH_TOL", 1e-300)
    for samples, level in (([0j, 4 + 0j], "d2"), ([4 + 0j, 0j], "d1")):
        for run in (sample_images_ref, sample_images):
            with pytest.raises(NumericError, match=f"^branch violates level {level} beyond"):
                run(param, samples)


def test_numerator_overflow_on_a_rejected_row_takes_one_block(monkeypatch):
    # t^200 overflows at t = 1000, where the denominator t - 1000 rejects
    # the row before any numerator is evaluated: no redo sample by sample
    unit = MultiPoly.one(T_ONLY)
    param = normalize_param(RadicalTower(T_ONLY, []), [(tt**200, tt - 1000), (tt, unit)])[0]
    calls = []
    block_by_columns = sampler._block_by_columns

    def counted(param, block, tol, implicit):
        calls.append(len(block))
        return block_by_columns(param, block, tol, implicit)

    monkeypatch.setattr(sampler, "_block_by_columns", counted)
    report = same_cloud(param, [2 + 0j, 1000 + 0j, 3 + 0j])
    assert calls == [3] and report.rejected == 1
    # a numerator that overflows on a kept row is redone sample by sample
    calls.clear()
    with pytest.raises(OverflowError):
        sample_images(param, [2 + 0j, 999 + 0j, 3 + 0j])
    assert calls == [3, 1, 1]


def test_probe_is_the_nearest_image_of_the_point_loop():
    rng = Random(20261020)
    for k in range(30):
        param = random_param(rng, k % 3)
        for _ in range(4):
            re, im = rng.choice((0, 1, 2, rng.uniform(-3, 3))), rng.choice((0, rng.uniform(-3, 3)))
            t0 = complex(re, im)
            cand = tuple(complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in param.components)
            tol = rng.choice((0.0, sampler.DEFAULT_BRANCH_TOL, 0.5))
            images = sample_images_ref(param, [t0], tol).columns[1 + param.tower.m :]
            rows = zip(*images)
            want = min((sampler._image_distance(row, cand) for row in rows), default=math.inf)
            assert repr(sampler._probe(param, cand, t0, tol)) == repr(want)


@pytest.mark.parametrize("name", ["cotas.rs", "nested.rs"])
def test_csv_matches_point_loop_cloud(name, tmp_path, capsys):
    path = Path(__file__).parent / "data" / name
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert cli.main(["sample", str(path), "--stable", "--csv", str(got)]) == 0
    param = parse_source(path.read_text()).param
    write_csv(sample_images_ref(param), param, str(want))
    assert got.read_bytes() == want.read_bytes()
