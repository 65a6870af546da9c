"""Candidate missing points and bounds for uncertified parametrizations.

When the surjectivity certificate fails, the curve can still miss at
most finitely many points.  This module locates the candidates: for
each coordinate it eliminates the radicals from x_i*q_i - p_i, reads
off the leading t-coefficient c_i(x_i) of the cleaned result, and
intersects the per-coordinate root sets with the implicit curve.  It
also reports the two bounds (product of the c_i degrees, product of
the tower degrees at infinity) and, through surjcheck.condition2_locus,
the locus where both numerator and denominator vanish on the castle.

The implicit curve is the reduced Groebner basis of the elimination
ideal.  implicitize reaches it by plane_curve's linear algebra modulo
word primes, checked exactly, or by a block-order Buchberger basis, and
states why the two agree.

Candidates form a superset of the true missing points; confirming one
is left to the numeric sampler.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

from . import modular
from .arith import Budget, MultiPoly, Role, TermOrder, VarTable, content_wrt, squarefree_part
from .errors import ResourceError
from .ideal import DEFAULT_STEP_BUDGET, elimination_ideal
from .sampler import complex_roots, scaled_residuals
from .surjcheck import Condition2Locus, RadicalParametrization, condition2_locus
from .tower import RadicalTower, normal_form, normalized_remainder

DEFAULT_FILTER_TOL = 1e-8

SIEVE_LIMIT = 10**12  # largest |c_0 * c_d| the trial-division root sieve runs on

TRIES = 4  # primes that may draw points before the plane route declines
MAX_FAILED_DRAWS = 100  # failed draws in a row before a prime is left
# Largest bidegree box the plane route eliminates.  Elimination is cubic
# in the column count: a box with no dependency takes 0.13 s at 100
# unknowns, 0.76 s at 196 and 4.8 s at 361 (tall.rs's box), measured on
# one core of a 2-vCPU host, so past this the Groebner route runs.
MAX_UNKNOWNS = 200
SEED = 20261020


def _extended_table(tower: RadicalTower, extra: Sequence[str]) -> VarTable:
    """The tower's table followed by the weight-0 coordinates extra."""
    return VarTable(tower.table.names + tuple(extra), tower.table.roles + (Role.COORDINATE,) * len(extra))


def component_curve_poly(param: RadicalParametrization, i: int) -> MultiPoly | None:
    """Radical-free curve polynomial G_i(x_i, t) for component i (1-based).

    G_i is the normalized remainder of x_i*q_i - p_i with x_i carried
    along inert, so every image point (t, x_i) of the component lies on
    G_i = 0.  Returns None in the degenerate case where the remainder
    collapses to zero (a zero divisor modulo a reducible tower).
    """
    comp = param.components[i - 1]
    name = param.coordinates[i - 1]
    table = _extended_table(param.tower, [name])
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
    content: MultiPoly | None = None  # cont_t(G_i) over (t, x_i), None if degenerate


def hyp1_bound(coordinates: Sequence[CoordinateCandidates]) -> int | None:
    """Product of the c_i degrees; None when some G_i degenerated."""
    bound = 1
    for coord in coordinates:
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


def candidate_polys(param: RadicalParametrization) -> tuple[CoordinateCandidates, ...]:
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
        cleaned = squarefree_part(g, t_idx)
        lead = cleaned.coeff_poly(t_idx, cleaned.degree(t_idx)) * squarefree_part(cont, x_idx)
        # sign does not move roots; keep the reported polynomial stable
        if lead.coeff_poly(x_idx, lead.degree(x_idx)).const_value() < 0:
            lead = -lead
        note = "curve polynomial is constant in t" if g.degree(t_idx) == 0 else None
        degree = lead.degree(x_idx)
        if degree <= 0:
            coords.append(CoordinateCandidates(name, g, lead, 0, (), (), note, cont))
            continue
        coeffs = [c.const_value() for c in lead.univariate_coeffs(x_idx)]
        exact = _rational_roots(coeffs)
        if exact is None:  # sound: the candidates come from the numeric roots anyway
            skipped = "rational root sieve skipped, coefficients too large"
            exact, note = [], skipped if note is None else f"{note}; {skipped}"
        # the root iteration does not converge on repeated roots, so it
        # runs on the squarefree lead
        simple = squarefree_part(lead, x_idx)
        numeric = complex_roots([complex(c.const_value()) for c in simple.univariate_coeffs(x_idx)])
        reps: dict[tuple[float, float], complex] = {}
        for z in numeric:
            near = [r for r in exact if abs(z - complex(r)) <= 1e-6]
            z = complex(near[0]) if near else z
            reps.setdefault(_root_key(z), z)
        uniq = tuple(reps[k] for k in sorted(reps))
        coords.append(CoordinateCandidates(name, g, lead, degree, tuple(exact), uniq, note, cont))
    return tuple(coords)


def infinity_bound(tower: RadicalTower) -> int:
    """Bound on missing points coming from the castle's points at infinity."""
    bound = 1
    for level in tower.levels:
        bound *= max(level.exponent, level.radicand.total_degree())
    return bound


def _curve_points(param: RadicalParametrization, p: int, rng: Random) -> Iterator[tuple[int, int]]:
    """Random points (x, y) of the image modulo p.

    t is drawn at random and each level's root taken in turn: the inverse
    exponent for the odd part of e (the caller picks p with it coprime to
    p - 1), then square roots with a random sign.  A draw fails on a
    radicand that is not a square or on q_x * q_y = 0; the points stop
    after MAX_FAILED_DRAWS failures in a row.
    """
    levels = []
    for lv in param.tower.levels:
        u, s = modular.odd_part(lv.exponent)
        levels.append((modular.mod_terms(lv.radicand.coeffs, p), pow(u, -1, p - 1), s))
    comps = [[modular.mod_terms(f.coeffs, p) for f in (c.numerator, c.denominator)] for c in param.components]
    failed = 0
    while failed < MAX_FAILED_DRAWS:
        point = [rng.randrange(p)]
        for terms, odd_root, s in levels:
            d = modular.eval_mod(terms, point, p)
            if d and odd_root > 1:
                d = pow(d, odd_root, p)
            for _ in range(s):
                d = modular.sqrt_mod(d, p)
                if d is None:
                    break
                if rng.getrandbits(1):
                    d = -d % p
            if d is None:
                break
            point.append(d)
        else:
            (px, qx), (py, qy) = ([modular.eval_mod(f, point, p) for f in comp] for comp in comps)
            den = qx * qy % p
            if den:
                failed = 0
                inv = pow(den, -1, p)
                yield px * qy * inv % p, py * qx * inv % p
                continue
        failed += 1


def _vanishes(f: MultiPoly, param: RadicalParametrization) -> bool:
    """Is q_x^a q_y^b * f(p_x/q_x, p_y/q_y) zero modulo the tower, where
    a and b are f's degrees in x and y?  Powers are reduced as they are
    built; the normal form is a ring map modulo the tower."""
    tower = param.tower

    def cleared(comp, k: int) -> list[MultiPoly]:  # p^i q^(k-i) for i = 0..k
        num, den = [MultiPoly.one(tower.table)], [MultiPoly.one(tower.table)]
        for _ in range(k):
            num.append(normal_form(num[-1] * comp.numerator, tower))
            den.append(normal_form(den[-1] * comp.denominator, tower))
        return [normal_form(num[i] * den[k - i], tower) for i in range(k + 1)]

    comp_x, comp_y = param.components
    xs, ys = cleared(comp_x, f.degree(0)), cleared(comp_y, f.degree(1))
    total = MultiPoly.zero(tower.table)
    for i, x_part in enumerate(xs):
        inner = MultiPoly.zero(tower.table)
        for (ei, ej), c in f.coeffs.items():
            if ei == i:
                inner = inner + ys[ej] * c
        if inner:
            total = total + x_part * inner
    return normal_form(total, tower).is_zero()


def plane_curve(
    param: RadicalParametrization, curves: Sequence[tuple[MultiPoly | None, MultiPoly | None]], budget: Budget
) -> MultiPoly | None:
    """The monic implicit generator of a plane radical curve, or None to
    decline.

    curves are the curve polynomials G_x(t, x) and G_y(t, y), each with
    its content in t.  The route declines when a G_i is None or has degree
    0 in its coordinate, when both contents are free of t (so a
    component may map to a point), when the bidegree box deg_x F <=
    deg_t(G_y) E / deg_y(G_y), deg_y F <= deg_t(G_x) E / deg_x(G_x), E
    the product of the tower's exponents, holds more than MAX_UNKNOWNS
    monomials or no dependency, and when no prime's lift verifies within
    TRIES primes.  Primes that divide a coefficient denominator, or whose
    p - 1 shares a factor with the odd part of an exponent, are skipped.
    Each prime's dependency is combined by CRT with those of the same
    leading column, and a rational reconstruction is checked exactly
    once per new candidate.  Spends one budget step per eliminated
    column.
    """
    if any(g is None or g.degree(1) < 1 for g, _ in curves) or not any(c.is_const() for _, c in curves):
        return None
    (gx, _), (gy, _) = curves
    e = param.tower.exponent_product
    dx, dy = -(-gy.degree(0) * e // gy.degree(1)), -(-gx.degree(0) * e // gx.degree(1))
    if (dx + 1) * (dy + 1) > MAX_UNKNOWNS:
        return None
    table = VarTable(param.coordinates, (Role.COORDINATE,) * 2)
    order = TermOrder(table, (0, 1))  # the elimination order on the coordinates
    monos = sorted(((a, b) for a in range(dx + 1) for b in range(dy + 1)), key=order.key)
    polys = [lv.radicand for lv in param.tower.levels]
    polys += [f for comp in param.components for f in (comp.numerator, comp.denominator)]
    denom = math.lcm(*(c.denominator for f in polys for c in f.coeffs.values()))
    odd = [modular.odd_part(lv.exponent)[0] for lv in param.tower.levels]
    rng = Random(SEED)
    lead, modulus, residues, tried, tries = -1, 1, [], None, 0
    for p in modular.PRIMES:
        if denom % p == 0 or any(math.gcd(u, p - 1) > 1 for u in odd):
            continue
        if tries == TRIES:
            break
        tries += 1
        found = modular.first_dependency(monos, _curve_points(param, p, rng), p, budget)
        if found is None or found[0] < lead:
            continue  # no points, or an unlucky prime
        if found[0] == len(monos):
            return None  # the generator lies outside the box
        if found[0] > lead:
            lead, modulus, residues = found[0], 1, [0] * (found[0] + 1)
        inv = pow(modulus, -1, p)
        residues = [u + modulus * ((v - u) * inv % p) for u, v in zip(residues, found[1])]
        modulus *= p
        coeffs = [modular.rational_reconstruction(u, modulus) for u in residues]
        if None in coeffs:
            continue
        f = order.poly({order.key(monos[i]): coeffs[i] for i in reversed(range(lead + 1)) if coeffs[i]})
        if f != tried and _vanishes(f, param):
            return f
        tried = f
    return None


def implicitize(
    param: RadicalParametrization,
    step_budget: int = DEFAULT_STEP_BUDGET,
    curves: Sequence[tuple[MultiPoly | None, MultiPoly | None]] | None = None,
) -> list[MultiPoly]:
    """Defining equations of the curve closure, in the coordinates only.

    The answer is the reduced Groebner basis of the elimination ideal J
    of the incidence system {tower equations; p_i - x_i q_i; z*Q - 1},
    Q the product of the distinct nonconstant denominators, so it cuts
    out exactly the Zariski closure of the image.  Two routes give it:

      * plane curves (n = 2): plane_curve finds the monic generator F
        as the first linear dependency among the monomials of a bidegree
        box evaluated at points of the tower curve modulo a prime, lifts
        it to Q and keeps it only when the normal form of
        q_x^a q_y^b F(p_x/q_x, p_y/q_y) over the tower is zero (a, b the
        degrees of F).  curves are the curve polynomials G_x, G_y of
        candidate_polys with their contents in t; None builds them here.
      * otherwise, and whenever the plane route declines: elimination,
        a block-order Buchberger basis that eliminates (t, radicals, z).

    Why a verified F is the Groebner answer.  A zero normal form puts
    q_x^a q_y^b F in the ideal of the tower and the p - x q, and a power
    of z Q times that equals F modulo z Q - 1, so F lies in J.  The
    plane route declines when both curve polynomials have a content free
    of t.  A component maps to a point only when both coordinates are
    constant on it, and a coordinate constant on a component puts a
    t-free factor into its curve polynomial.  So otherwise no component
    maps to a point; the tower's ring is a complete intersection,
    without embedded components, so every associated prime of J has
    height one and J is principal, J = <F*> with F* monic.  So F* divides F: lm(F) >= lm(F*), and F* lies in
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
            gs = [component_curve_poly(param, i) for i in (1, 2)]
            curves = [(g, None if g is None else content_wrt(g, 0)) for g in gs]
        f = plane_curve(param, curves, budget)
        if f is not None:
            return [f]
    tower = param.tower
    zname = "z"
    while zname in tower.table.names or zname in param.coordinates:
        zname += "_"
    table = _extended_table(tower, [*param.coordinates, zname])
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
    coordinates: tuple[CoordinateCandidates, ...]
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
    coordinates = candidate_polys(param)
    try:
        implicit = implicitize(param, step_budget, [(c.curve_poly, c.content) for c in coordinates])
    except ResourceError:
        implicit = None
        notes.append("implicitization budget exhausted, candidates unfiltered")
    axes: list[tuple[complex, ...]] = []
    degenerate = False
    for coord in coordinates:
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
        coordinates,
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
        found.coordinates,
        found.implicit,
        notes,
        infinity_bound(param.tower),
        locus,
    )
