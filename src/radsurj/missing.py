"""Candidate missing points and bounds for uncertified parametrizations.

When the surjectivity certificate fails, the curve can still miss at
most finitely many points.  This module locates the candidates: for
each coordinate it eliminates the radicals from x_i*q_i - p_i, reads
off the leading t-coefficient c_i(x_i) of the cleaned result, and
intersects the per-coordinate root sets with the implicit curve.  It
also reports the two bounds (product of the c_i degrees, product of
the tower degrees at infinity) and, through surjcheck.condition2_locus,
the locus where both numerator and denominator vanish on the castle.

The implicit curve has two routes to one answer, the reduced Groebner
basis of the elimination ideal (implicitize states why they agree).  A
plane curve's generator is first sought by modular.plane_curve: linear
algebra modulo word primes on the monomials of a bidegree box read from
the curve polynomials G_i, a lift to Q, and an exact normal-form check
that proves the lift is the generator.  Everything else, and every
input that route declines, goes to a block-order Buchberger basis.

Candidates form a superset of the true missing points; confirming one
is left to the numeric sampler.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import Budget, MultiPoly, Role, VarTable, content_wrt, exact_div, poly_gcd, squarefree_part
from .errors import ResourceError
from .ideal import DEFAULT_STEP_BUDGET, elimination_ideal
from .modular import plane_curve
from .sampler import complex_roots, scaled_residuals
from .surjcheck import Condition2Locus, RadicalParametrization, condition2_locus
from .tower import RadicalTower, normalized_remainder

DEFAULT_FILTER_TOL = 1e-8

SIEVE_LIMIT = 10**12  # largest |c_0 * c_d| the trial-division root sieve runs on


def _extended_table(tower: RadicalTower, extra: Sequence[str], role: Role) -> VarTable:
    names = tower.table.names + tuple(extra)
    roles = tower.table.roles + (role,) * len(extra)
    return VarTable(names, roles)


def component_curve_poly(param: RadicalParametrization, i: int) -> MultiPoly | None:
    """Radical-free curve polynomial G_i(x_i, t) for component i (1-based).

    G_i is the normalized remainder of x_i*q_i - p_i with x_i carried
    along inert, so every image point (t, x_i) of the component lies on
    G_i = 0.  Returns None in the degenerate case where the remainder
    collapses to zero (a zero divisor modulo a reducible tower).
    """
    comp = param.components[i - 1]
    name = param.coordinates[i - 1]
    table = _extended_table(param.tower, [name], Role.COORDINATE)
    x = MultiPoly.var(table, name)
    f = x * comp.denominator.transport(table) - comp.numerator.transport(table)
    g = normalized_remainder(f, param.tower)
    if g.is_zero():
        return None
    small = VarTable((param.tower.table.names[0], name), (Role.PARAMETER, Role.COORDINATE))
    return g.transport(small)


@dataclass(frozen=True)
class CoordinateCandidates:
    """Leading-coefficient polynomial and its roots for one coordinate."""

    name: str
    curve_poly: MultiPoly | None  # G_i over (t, x_i), None if degenerate
    lead_coeff: MultiPoly | None  # c_i over (t, x_i), constant in t
    degree: int
    rational_roots: tuple[Fraction, ...]
    numeric_roots: tuple[complex, ...]
    note: str | None = None


@dataclass(frozen=True)
class CandidatePolySet:
    coordinates: tuple[CoordinateCandidates, ...]

    @property
    def hyp1_bound(self) -> int | None:
        """Product of the c_i degrees; None when some G_i degenerated."""
        bound = 1
        for coord in self.coordinates:
            if coord.lead_coeff is None:
                return None
            bound *= coord.degree
        return bound


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction] | None:
    """Exact rational roots of c_0 + c_1 x + ... by the classical sieve,
    or None when the end coefficients are too large to sieve."""
    lo = 0
    while lo < len(coeffs) - 1 and coeffs[lo] == 0:
        lo += 1
    roots = [Fraction(0)] if lo > 0 else []
    coeffs = coeffs[lo:]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = math.gcd(*(abs(c) for c in ints if c))
    ints = [c // content for c in ints]
    if abs(ints[0] * ints[-1]) > SIEVE_LIMIT:
        return None

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
        return sorted(set(out + [n // d for d in out]))

    def value(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * x + c
        return acc

    seen: set[Fraction] = set()
    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in seen and value(cand) == 0:
                    seen.add(cand)
    return roots + sorted(seen)


def _root_key(z: complex) -> tuple[float, float]:
    return (round(z.real, 9), round(z.imag, 9))


def candidate_polys(param: RadicalParametrization) -> CandidatePolySet:
    """c_i = leading t-coefficient of the squarefree part of G_i, with roots.

    A nonzero constant c_i means coordinate i admits no hypothesis-1
    missing point, which empties the whole candidate set downstream.
    """
    coords: list[CoordinateCandidates] = []
    for i, name in enumerate(param.coordinates, start=1):
        g = component_curve_poly(param, i)
        if g is None:
            coords.append(
                CoordinateCandidates(
                    name, None, None, 0, (), (), "curve polynomial degenerated to zero"
                )
            )
            continue
        t_idx, x_idx = 0, 1
        # an x-only content means the component is constant on some
        # branch; its roots are candidate coordinates too, so it must
        # not be lost to the t-squarefree cleanup
        cont = content_wrt(g, t_idx)
        core = g if cont.is_const() else exact_div(g, cont)
        cleaned = squarefree_part(core, t_idx)
        lead = cleaned.coeff_poly(t_idx, cleaned.degree(t_idx)) * squarefree_part(cont, x_idx)
        # sign does not move roots; keep the reported polynomial stable
        if lead.coeff_poly(x_idx, lead.degree(x_idx)).const_value() < 0:
            lead = -lead
        note = "curve polynomial is constant in t" if g.degree(t_idx) == 0 else None
        degree = lead.degree(x_idx)
        if degree <= 0:
            coords.append(CoordinateCandidates(name, g, lead, 0, (), (), note))
            continue
        coeffs = [c.const_value() for c in lead.univariate_coeffs(x_idx)]
        exact = _rational_roots(coeffs)
        if exact is None:  # sound: the candidates come from the numeric roots anyway
            skipped = "rational root sieve skipped, coefficients too large"
            exact, note = [], skipped if note is None else f"{note}; {skipped}"
        # the root iteration does not converge on repeated roots, so it
        # runs on the squarefree lead; a squarefree lead goes as it is
        rad = poly_gcd(lead, lead.derivative(x_idx))
        simple = lead if rad.is_const() else exact_div(lead, rad)
        numeric = complex_roots([complex(c.const_value()) for c in simple.univariate_coeffs(x_idx)])
        reps: dict[tuple[float, float], complex] = {}
        for z in numeric:
            near = [r for r in exact if abs(z - complex(r)) <= 1e-6]
            z = complex(near[0]) if near else z
            reps.setdefault(_root_key(z), z)
        uniq = tuple(reps[k] for k in sorted(reps))
        coords.append(CoordinateCandidates(name, g, lead, degree, tuple(exact), uniq, note))
    return CandidatePolySet(tuple(coords))


def infinity_bound(tower: RadicalTower) -> int:
    """Bound on missing points coming from the castle's points at infinity."""
    bound = 1
    for level in tower.levels:
        bound *= max(level.exponent, level.radicand.total_degree())
    return bound


def implicitize(
    param: RadicalParametrization,
    step_budget: int = DEFAULT_STEP_BUDGET,
    curves: Sequence[MultiPoly | None] | None = None,
) -> list[MultiPoly]:
    """Defining equations of the curve closure, in the coordinates only.

    The answer is the reduced Groebner basis of the elimination ideal J
    of the incidence system {tower equations; p_i - x_i q_i; z*Q - 1},
    Q the product of the distinct nonconstant denominators, so it cuts
    out exactly the Zariski closure of the image.  Two routes give it:

      * plane curves (n = 2): modular.plane_curve finds the monic
        generator F as the first linear dependency among the monomials
        of a bidegree box evaluated at points of the tower curve modulo
        a prime, lifts it to Q and keeps it only when the normal form of
        q_x^a q_y^b F(p_x/q_x, p_y/q_y) over the tower is zero (a, b the
        degrees of F).  curves are the curve polynomials G_x, G_y of
        candidate_polys; None builds them here.
      * otherwise, and whenever the plane route declines: elimination,
        a block-order Buchberger basis that eliminates (t, radicals, z).

    Why a verified F is the Groebner answer.  A zero normal form puts
    q_x^a q_y^b F in the ideal of the tower and the p - x q, and a power
    of z Q times that equals F modulo z Q - 1, so F lies in J.  The
    plane route declines when a curve polynomial has a content free of
    t, which is how a coordinate constant on some component shows.
    Otherwise no component maps to a point; the tower's ring is a
    complete intersection, without embedded components, so every
    associated prime of J has height one and J is principal, J = <F*>
    with F* monic.  So F* divides F: lm(F) >= lm(F*), and F* lies in
    the box, as F does.  Modulo a prime p that divides no input
    denominator, the primitive integer multiple of F* vanishes at every
    point drawn (the tower polynomials are monic, so reducing modulo
    them keeps p-integrality) and is nonzero, so the first dependency
    has a leading monomial at most lm(F*), and the lift keeps that
    monomial with coefficient 1.  Hence lm(F) = lm(F*), and the monic
    F, a multiple of F*, is F*.  An unlucky prime, an unlucky draw or a
    wrong reconstruction can only give a lift that fails the check.

    The plane route spends one budget step per eliminated column and
    elimination gets what is left; either raises ResourceError when the
    budget runs out.
    """
    budget = Budget(step_budget)
    if param.n == 2:
        if curves is None:
            curves = [component_curve_poly(param, i) for i in (1, 2)]
        f = plane_curve(param, curves, budget)
        if f is not None:
            return [f]
    tower = param.tower
    zname = "z"
    while zname in tower.table.names or zname in param.coordinates:
        zname += "_"
    table = VarTable(
        tower.table.names + tuple(param.coordinates) + (zname,),
        tower.table.roles + (Role.COORDINATE,) * param.n + (Role.INVERSE,),
    )
    gens = [tower.level_poly(j, table=table) for j in range(tower.m)]
    q_distinct: list[MultiPoly] = []
    for comp in param.components:
        if not comp.denominator.is_const() and comp.denominator not in q_distinct:
            q_distinct.append(comp.denominator)
    for comp, name in zip(param.components, param.coordinates):
        x = MultiPoly.var(table, name)
        gens.append(comp.numerator.transport(table) - x * comp.denominator.transport(table))
    zq = MultiPoly.var(table, zname)
    for q in q_distinct:
        zq = zq * q.transport(table)
    gens.append(zq - 1)
    eliminated = elimination_ideal(gens, param.coordinates, budget.remaining)
    small = VarTable(tuple(param.coordinates), (Role.COORDINATE,) * param.n)
    return [g.transport(small) for g in eliminated]


@dataclass(frozen=True)
class CandidateSet:
    """Candidate missing points and the polynomials that produced them."""

    candidates: tuple[tuple[complex, ...], ...]
    polys: CandidatePolySet
    implicit: tuple[MultiPoly, ...] | None
    notes: tuple[str, ...]


@dataclass(frozen=True)
class MissingPointReport(CandidateSet):
    """The candidate set plus both bounds and the condition-2 loci."""

    infinity_bound: int
    condition2: tuple[Condition2Locus, ...]


def filtered_candidates(
    param: RadicalParametrization, step_budget: int = DEFAULT_STEP_BUDGET
) -> CandidateSet:
    """Cartesian candidates filtered by the implicit equations."""
    filter_tol = DEFAULT_FILTER_TOL
    notes: list[str] = []
    polys = candidate_polys(param)
    try:
        implicit = implicitize(param, step_budget, [coord.curve_poly for coord in polys.coordinates])
    except ResourceError:
        implicit = None
        notes.append("implicitization budget exhausted, candidates unfiltered")
    axes: list[tuple[complex, ...]] = []
    degenerate = False
    for coord in polys.coordinates:
        if coord.lead_coeff is None:
            degenerate = True
            notes.append(f"coordinate {coord.name}: {coord.note}")
        elif coord.degree == 0:
            axes.append(())
        else:
            axes.append(coord.numeric_roots)
    candidates = [] if degenerate else list(itertools.product(*axes))
    # each generator is evaluated only on the candidates that every
    # earlier one kept; a nan residual keeps its candidate
    for g in implicit or ():
        if candidates:
            residuals = scaled_residuals(g, [list(col) for col in zip(*candidates)], {})
            candidates = [tup for tup, r in zip(candidates, residuals) if not r > filter_tol]
    return CandidateSet(
        tuple(candidates),
        polys,
        tuple(implicit) if implicit is not None else None,
        tuple(notes),
    )


def missing_candidates(
    param: RadicalParametrization, step_budget: int = DEFAULT_STEP_BUDGET
) -> MissingPointReport:
    """Filtered candidates plus both bounds and the condition-2 loci."""
    found = filtered_candidates(param, step_budget)
    notes = found.notes
    locus = tuple(condition2_locus(param, i, step_budget) for i in range(1, param.n + 1))
    if any(loc.classification == "unknown" for loc in locus):
        notes += ("condition-2 locus budget exhausted for some component",)
    return MissingPointReport(
        found.candidates,
        found.polys,
        found.implicit,
        notes,
        infinity_bound(param.tower),
        locus,
    )
