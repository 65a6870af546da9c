"""Numeric verification harness.

Everything here is floating point and heuristic by design: the sampler
enumerates radical branches at sampled parameter values, builds image
clouds, and probes candidate missing points against them.  Its verdicts
never feed back into the exact certificates; "likely-missing" is a
report about sampling density, not a theorem.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from typing import Sequence

from .arith import MultiPoly
from .errors import InputError, NumericError, StructuralError
from .surjcheck import RadicalParametrization
from .tower import RadicalTower

DEFAULT_BRANCH_TOL = 1e-9
DEFAULT_MATCH_TOL = 1e-3
DEFAULT_ROOT_TOL = 1e-10

_MAX_ITER = 500


# ----------------------------------------------------------------------
# polynomial roots


def complex_roots(coeffs: Sequence[complex], tol: float = DEFAULT_ROOT_TOL) -> list[complex]:
    """All complex roots by simultaneous (Durand-Kerner) iteration.

    coeffs lists the polynomial from the constant term up.  The start
    configuration is the classical deterministic spiral, so repeated
    calls give identical output.  Raises NumericError with the best
    iterate if 500 sweeps do not converge.
    """
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


def enumerate_branches(
    tower: RadicalTower, t0: complex, branch_tol: float = DEFAULT_BRANCH_TOL
) -> list[tuple[complex, ...]]:
    """All choices of radical values over t0, depth first.

    Away from radicand zeros this yields exactly e_1 * ... * e_m tuples;
    a vanishing radicand collapses its level to the single value 0.
    """
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
            grown.extend(deltas + (principal * w,) for w in rotations)
        partial = grown
    if branch_tol > 0:
        for deltas in partial:
            point = [t0, *deltas]
            for i, level in enumerate(tower.levels):
                err = abs(deltas[i] ** level.exponent - level.radicand.eval_complex(point))
                if err > branch_tol * max(1.0, abs(deltas[i]) ** level.exponent):
                    raise NumericError(f"branch violates level {level.name} beyond tolerance")
    return partial


@dataclass(frozen=True)
class BranchPoint:
    t0: complex
    deltas: tuple[complex, ...]
    image: tuple[complex, ...]


@dataclass(frozen=True)
class SampleReport:
    sample_count: int
    accepted: tuple[BranchPoint, ...]
    rejected: int
    max_implicit_residual: float | None
    denominator_tol: float

    @property
    def evaluations(self) -> int:
        return len(self.accepted) + self.rejected


def default_samples(points: int = 200) -> list[complex]:
    """Two circles straddling |t| = 1 plus a real sweep, `points` each."""
    out: list[complex] = []
    for radius in (0.7, 3.1):
        out.extend(radius * cmath.exp(2j * cmath.pi * k / points) for k in range(points))
    if points == 1:
        return out + [0j]
    out.extend(complex(-5 + 10 * k / (points - 1)) for k in range(points))
    return out


def scaled_residual(g: MultiPoly, point: Sequence[complex]) -> float:
    """|g(point)| divided by the largest term magnitude (floor 1).

    One pass over g's cached complex terms; the total is bit-identical
    to g.eval_complex(point).
    """
    if len(point) != g.table.arity:
        raise StructuralError("evaluation point has wrong arity")
    total = 0j
    scale = 1.0
    for c, mono in g.complex_terms():
        term = c
        for i, k in mono:
            term *= point[i] ** k
        total += term
        scale = max(scale, abs(term))
    return abs(total) / scale


def sample_images(
    param: RadicalParametrization,
    samples: Sequence[complex] | None = None,
    tol: float = DEFAULT_BRANCH_TOL,
    implicit: Sequence | None = None,
) -> SampleReport:
    """Evaluate every branch at every sample; reject near-zero denominators."""
    if samples is None:
        samples = default_samples()
    tower = param.tower
    accepted: list[BranchPoint] = []
    rejected = 0
    max_residual: float | None = None
    for t0 in samples:
        for deltas in enumerate_branches(tower, t0):
            point = [t0, *deltas]
            dens = [c.denominator.eval_complex(point) for c in param.components]
            if any(abs(d) <= tol for d in dens):
                rejected += 1
                continue
            image = tuple(
                c.numerator.eval_complex(point) / d for c, d in zip(param.components, dens)
            )
            accepted.append(BranchPoint(t0, deltas, image))
            if implicit:
                worst = max(scaled_residual(g, image) for g in implicit)
                max_residual = worst if max_residual is None else max(max_residual, worst)
    return SampleReport(len(samples), tuple(accepted), rejected, max_residual, tol)


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


def _refine(
    param: RadicalParametrization, candidate: tuple[complex, ...], t0: complex, tol: float
) -> tuple[complex, float]:
    """Shrinking ring search for the parameter value closest to candidate."""

    def best_at(t: complex) -> float:
        cloud = sample_images(param, [t], tol).accepted
        return min((_image_distance(pt.image, candidate) for pt in cloud), default=math.inf)

    center, dist = t0, best_at(t0)
    radius = 0.5
    rounds = 0
    while radius > 1e-10 and rounds < 100:
        rounds += 1
        improved = False
        for k in range(12):
            t = center + radius * cmath.exp(2j * cmath.pi * k / 12)
            d = best_at(t)
            if d < dist:
                center, dist, improved = t, d, True
        if not improved:
            radius *= 0.5
    return center, dist


def confirm_candidates(
    report: SampleReport,
    candidates: Sequence[tuple[complex, ...]],
    param: RadicalParametrization,
    match_tol: float = DEFAULT_MATCH_TOL,
) -> list[CandidateVerdict]:
    """Heuristic coverage check of candidates against the sampled cloud.

    Each candidate is chased by a local parameter search seeded at the
    nearest cloud point; it counts as covered only when the refined
    image lands within match_tol.  A likely-missing verdict reports the
    minimum distance observed in the raw cloud.
    """
    verdicts: list[CandidateVerdict] = []
    for cand in candidates:
        cand = tuple(complex(c) for c in cand)
        best: BranchPoint | None = None
        dist = math.inf
        for pt in report.accepted:
            d = _image_distance(pt.image, cand)
            if d < dist:
                best, dist = pt, d
        if best is None:
            verdicts.append(CandidateVerdict(cand, "likely-missing", None, dist))
            continue
        t_star, d_star = _refine(param, cand, best.t0, report.denominator_tol)
        if d_star <= match_tol:
            verdicts.append(CandidateVerdict(cand, "covered", t_star, d_star))
        else:
            verdicts.append(CandidateVerdict(cand, "likely-missing", None, dist))
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
        for pt in report.accepted:
            row: list[float] = []
            for v in (pt.t0, *pt.deltas, *pt.image):
                row.extend((v.real, v.imag))
            writer.writerow(row)
