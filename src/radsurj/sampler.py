"""Numeric verification harness.

Everything here is floating point and heuristic by design: the sampler
enumerates radical branches at sampled parameter values, builds image
clouds, and probes candidate missing points against them.  Its verdicts
never feed back into the exact certificates; "likely-missing" is a
report about sampling density, not a theorem.

enumerate_branches is the one branch enumerator: the image cloud and
the candidate probes both take their rows from it.  Polynomials are
evaluated in two shapes.  The cloud evaluates each one by columns over a
block of samples, one term at a time over every row, the numerators and
residuals only on rows that no denominator rejects; each row sees the
float operations of evaluating its point alone, in the same order, so
the cloud does not depend on the block, and a block whose columns raise
is redone one sample at a time, so the error is the first failing
sample's.  The candidate probes evaluate point by point (see _probe).
The cloud is kept as columns t, d1, ..., dm, x1, ..., xn, the CSV's
order, and a candidate's nearest cloud point is found over its image
columns.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import add, le, mul, not_, truediv
from typing import Iterator, Sequence

from .arith import MultiPoly
from .errors import InputError, NumericError, RadsurjError, StructuralError
from .surjcheck import RadicalParametrization
from .tower import RadicalTower

DEFAULT_BRANCH_TOL = 1e-9
DEFAULT_MATCH_TOL = 1e-3
DEFAULT_ROOT_TOL = 1e-10

_MAX_ITER = 500


# ----------------------------------------------------------------------
# polynomial roots


def complex_roots(coeffs: Sequence[complex]) -> list[complex]:
    """All complex roots by simultaneous (Durand-Kerner) iteration.

    coeffs lists the polynomial from the constant term up.  The start
    configuration is the classical deterministic spiral, so repeated
    calls give identical output.  Converged means no root moved by more
    than DEFAULT_ROOT_TOL times the root bound in a sweep.  Raises
    NumericError with the best iterate if 500 sweeps do not converge.
    """
    tol = DEFAULT_ROOT_TOL
    cs = [complex(c) for c in coeffs]
    while cs and abs(cs[-1]) == 0.0:
        cs.pop()
    if len(cs) < 2:
        raise InputError("complex_roots needs degree >= 1 and a nonzero leading coefficient")
    roots: list[complex] = []
    while abs(cs[0]) == 0.0:
        roots.append(0j)
        cs.pop(0)
    deg = len(cs) - 1
    if deg == 0:
        return roots
    lead = cs[-1]
    monic = [c / lead for c in cs]
    if deg == 1:
        return roots + [-monic[0]]
    radius = max(1.0, 1.0 + max(abs(c) for c in monic[:-1]))
    z = [(0.4 + 0.9j) ** (k + 1) * radius for k in range(deg)]

    def value(w: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * w + c
        return acc

    for _ in range(_MAX_ITER):
        moved = 0.0
        for k in range(deg):
            denom = 1.0 + 0j
            for j in range(deg):
                if j != k:
                    denom *= z[k] - z[j]
            if denom == 0:
                denom = 1e-300
            step = value(z[k]) / denom
            z[k] -= step
            moved = max(moved, abs(step))
        if moved <= tol * radius:
            break
    else:
        raise NumericError("root iteration did not converge in 500 sweeps", best=roots + z)
    bad = max(abs(value(w)) for w in z)
    if bad > math.sqrt(tol) * radius:
        raise NumericError("root iteration stalled with large residual", best=roots + z)
    return roots + z


# ----------------------------------------------------------------------
# branches and images


def enumerate_branches(tower: RadicalTower, t0: complex) -> list[tuple[complex, ...]]:
    """All choices of radical values over t0, depth first.

    Away from radicand zeros this yields exactly e_1 * ... * e_m tuples;
    a vanishing radicand collapses its level to the single value 0.
    Every value must solve its level within DEFAULT_BRANCH_TOL
    (relative), else NumericError names the level.
    """
    branch_tol = DEFAULT_BRANCH_TOL
    partial: list[tuple[complex, ...]] = [()]
    for i, level in enumerate(tower.levels):
        e = level.exponent
        unit = cmath.exp(2j * cmath.pi / e)
        rotations = [unit**j for j in range(e)]
        grown: list[tuple[complex, ...]] = []
        for deltas in partial:
            point = [t0, *deltas] + [0j] * (tower.m - i)
            val = level.radicand.eval_complex(point)
            if val == 0:
                grown.append(deltas + (0j,))
                continue
            principal = cmath.exp(cmath.log(val) / e)
            for w in rotations:
                delta = principal * w
                # val is final: the radicand reads only earlier radicals
                if abs(delta**e - val) > branch_tol * max(1.0, abs(delta) ** e):
                    raise NumericError(f"branch violates level {level.name} beyond tolerance")
                grown.append(deltas + (delta,))
        partial = grown
    return partial


@dataclass(frozen=True)
class SampleReport:
    sample_count: int
    # accepted rows as columns t, d_1, ..., d_m, x_1, ..., x_n
    columns: tuple[tuple[complex, ...], ...]
    rejected: int
    max_implicit_residual: float | None
    denominator_tol: float


def default_samples(points: int = 200) -> list[complex]:
    """Two circles straddling |t| = 1 plus a real sweep, `points` each."""
    out: list[complex] = []
    for radius in (0.7, 3.1):
        out.extend(radius * cmath.exp(2j * cmath.pi * k / points) for k in range(points))
    if points == 1:
        return out + [0j]
    out.extend(complex(-5 + 10 * k / (points - 1)) for k in range(points))
    return out


# samples per block of the column evaluation; blocks bound the columns' memory
_BLOCK = 256


def _term_columns(poly: MultiPoly, cols: list[list[complex]], powers: dict) -> Iterator:
    """Per term of poly, its value at every row: c * v_i**k * ... in mono order.

    powers caches each column v_i**k, so it is computed once per block.
    """
    n = len(cols[0])
    for c, mono in poly.complex_terms():
        term = repeat(c, n)
        for i, k in mono:
            col = powers.get((i, k))
            if col is None:
                col = powers[i, k] = list(map(pow, cols[i], repeat(k)))
            term = map(mul, term, col)
        yield term


def _eval_columns(poly: MultiPoly, cols: list[list[complex]], powers: dict) -> list[complex]:
    """poly.eval_complex at every row of cols."""
    total = [0j] * len(cols[0])
    for term in _term_columns(poly, cols, powers):
        total = list(map(add, total, term))
    return total


def scaled_residuals(g: MultiPoly, cols: list[list[complex]], powers: dict) -> list[float]:
    """|g(row)| over the row's largest term magnitude (floor 1), at every
    row of cols; each row's total is bit-identical to g.eval_complex(row)."""
    if len(cols) != g.table.arity:
        raise StructuralError("evaluation point has wrong arity")
    total = [0j] * len(cols[0])
    scale = [1.0] * len(cols[0])
    for term in _term_columns(g, cols, powers):
        term = list(term)
        total = list(map(add, total, term))
        scale = list(map(max, scale, map(abs, term)))
    return list(map(truediv, map(abs, total), scale))


def _block_by_columns(
    param: RadicalParametrization, block: list[complex], tol: float, implicit: Sequence | None
) -> tuple[list[Sequence[complex]], int, list[float]]:
    """Accepted columns t, d_1, ..., d_m, x_1, ..., x_n, rejected count and
    per-row worst residuals of one block.

    The rows are every branch of every sample, in that order, as
    enumerate_branches lists them; the numerators are evaluated only on
    rows the denominators keep.
    """
    rows = [(t0, *deltas) for t0 in block for deltas in enumerate_branches(param.tower, t0)]
    cols = list(zip(*rows))
    powers: dict = {}
    dens = [_eval_columns(c.denominator, cols, powers) for c in param.components]
    rejects = map(any, zip(*(map(le, map(abs, den), repeat(tol)) for den in dens)))
    keep = list(map(not_, rejects))
    rejected = keep.count(False)
    if rejected:
        cols, dens = ([list(compress(c, keep)) for c in cs] for cs in (cols, dens))
        powers = {key: list(compress(col, keep)) for key, col in powers.items()}
    nums = [_eval_columns(c.numerator, cols, powers) for c in param.components]
    images = [list(map(truediv, num, den)) for num, den in zip(nums, dens)]
    worsts: list[float] = []
    if implicit and cols[0]:
        powers = {}
        residuals = (scaled_residuals(g, images, powers) for g in implicit)
        worsts = next(residuals)
        for column in residuals:
            worsts = list(map(max, worsts, column))
    return cols + images, rejected, worsts


def sample_images(
    param: RadicalParametrization,
    samples: Sequence[complex] | None = None,
    tol: float = DEFAULT_BRANCH_TOL,
    implicit: Sequence | None = None,
) -> SampleReport:
    """Evaluate every branch at every sample; reject near-zero denominators.

    Rows come sample by sample, each sample's branches as
    enumerate_branches lists them, and the report keeps the accepted
    rows as columns t, d_1, ..., d_m, x_1, ..., x_n.
    max_implicit_residual is the largest over accepted rows of the
    largest scaled residual over implicit.  Samples are evaluated by
    columns, _BLOCK at a time.  A block whose columns raise an
    arithmetic, math-domain or package error is redone by the same
    evaluator one sample at a time, so the error raised is the first
    failing sample's.
    """
    if samples is None:
        samples = default_samples()
    columns: list[list[complex]] = [[] for _ in range(1 + param.tower.m + len(param.components))]
    rejected = 0
    max_residual: float | None = None
    rest = iter(samples)
    while block := list(islice(rest, _BLOCK)):
        try:
            parts = [_block_by_columns(param, block, tol, implicit)]
        except (ArithmeticError, ValueError, RadsurjError):
            parts = [_block_by_columns(param, [t0], tol, implicit) for t0 in block]
        for cols, dropped, worsts in parts:
            for column, col in zip(columns, cols):
                column.extend(col)
            rejected += dropped
            if worsts:
                max_residual = max(worsts) if max_residual is None else max(max_residual, *worsts)
    return SampleReport(len(samples), tuple(map(tuple, columns)), rejected, max_residual, tol)


# ----------------------------------------------------------------------
# candidate probing


@dataclass(frozen=True)
class CandidateVerdict:
    candidate: tuple[complex, ...]
    verdict: str  # covered | likely-missing
    parameter: complex | None
    distance: float


def _image_distance(a: Sequence[complex], b: Sequence[complex]) -> float:
    return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b)))


def _probe(
    param: RadicalParametrization, candidate: tuple[complex, ...], t: complex, tol: float
) -> float:
    """Distance from candidate to its nearest accepted image over t (inf if none).

    The sampler's one per-point evaluation.  Probes come one parameter
    value at a time, each placed by the one before, and sending each
    through a one-row column block made the confirm stage 1.4 times as
    slow: 0.55 s against 0.38-0.40 s over the benchmark's 24 seed-0
    sample_dense files, --points 1000, on a 2-vCPU host.
    """
    distances = []
    for deltas in enumerate_branches(param.tower, t):
        point = [t, *deltas]
        dens = [c.denominator.eval_complex(point) for c in param.components]
        if not any(abs(d) <= tol for d in dens):
            image = [c.numerator.eval_complex(point) / d for c, d in zip(param.components, dens)]
            distances.append(_image_distance(image, candidate))
    return min(distances, default=math.inf)


def _refine(
    param: RadicalParametrization, candidate: tuple[complex, ...], t0: complex, tol: float
) -> tuple[complex, float]:
    """Ring search for the parameter value closest to candidate.

    Each round probes 12 points on a circle around the center, in turn,
    and moves the center to every probe that comes closer; a round with
    no closer probe halves the radius.  The search stops once the radius
    is 1e-10 or after 100 rounds, whichever comes first.  Toward a point
    the curve only approaches as t grows, it creeps instead of
    shrinking: the radius stays 0.5, six probes of every round come
    closer, and the center walks outward about 2 units a round until the
    100-round cap.  That is how 36 of the 40 searches of the benchmark's
    seed-0 sample_dense files end, about 193 units from where they began.
    """
    center, dist = t0, _probe(param, candidate, t0, tol)
    radius = 0.5
    rounds = 0
    while radius > 1e-10 and rounds < 100:
        rounds += 1
        improved = False
        for k in range(12):
            t = center + radius * cmath.exp(2j * cmath.pi * k / 12)
            d = _probe(param, candidate, t, tol)
            if d < dist:
                center, dist, improved = t, d, True
        if not improved:
            radius *= 0.5
    return center, dist


def confirm_candidates(
    report: SampleReport,
    candidates: Sequence[tuple[complex, ...]],
    param: RadicalParametrization,
) -> list[CandidateVerdict]:
    """Heuristic coverage check of candidates against the sampled cloud.

    Each candidate is chased by a local parameter search seeded at the
    nearest cloud point; it counts as covered only when the refined
    image lands within DEFAULT_MATCH_TOL.  A likely-missing verdict
    reports the minimum distance observed in the raw cloud.
    """
    match_tol = DEFAULT_MATCH_TOL
    images = report.columns[1 + param.tower.m :]
    verdicts: list[CandidateVerdict] = []
    for cand in candidates:
        cand = tuple(complex(c) for c in cand)
        dists = list(map(_image_distance, zip(*images), repeat(cand)))
        # seeded at inf, so a nan distance never wins; a tie goes to the first row
        dist = min([math.inf, *dists])
        verdict = CandidateVerdict(cand, "likely-missing", None, dist)
        if dist < math.inf:
            t0 = report.columns[0][dists.index(dist)]
            t_star, d_star = _refine(param, cand, t0, report.denominator_tol)
            if d_star <= match_tol:
                verdict = CandidateVerdict(cand, "covered", t_star, d_star)
        verdicts.append(verdict)
    return verdicts


# ----------------------------------------------------------------------
# CSV dump


def write_csv(report: SampleReport, param: RadicalParametrization, path: str) -> None:
    """Image cloud as re/im columns for external plotting."""
    names = ["t"] + [level.name for level in param.tower.levels] + list(param.coordinates)
    header = [f"{n}_{part}" for n in names for part in ("re", "im")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*report.columns):
            writer.writerow([part for v in row for part in (v.real, v.imag)])
