"""Shared helpers for the test suite.

sympy is used here as an independent desk calculator to cross-check
exact results; the package itself never imports it.  The reference
oracles at the end (subresultant resultant and the resultant chain
built from it, Sylvester determinant, sign-product conjugation, the
product on exponent tuples and Fractions, the tower norm expanded on
Fraction polynomials, single-level fast guilt, exact and uncached
complex evaluation, the image cloud one point at a time and the row
loop that found a candidate's nearest cloud point, the branch
enumeration, probe and ring search before their per-point path was
trimmed, division and
Groebner reduction on immutable polynomials, division with remainder
on exponent tuples under graded lex, the tower normal form by
substitution, the term order key that
dispatched on each call, Buchberger on exponent tuples, the primitive
PRS gcd with the pseudo-remainder it runs on, the same PRS keeping each
remainder's rational scalar, hypothesis 2 on
the common-zero ideal without the resultant gcd h) are second
implementations that the tests compare the package against.
"""

import cmath
import heapq
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import sympy

import radsurj

from radsurj.arith import (
    NEG_INF,
    Budget,
    MultiPoly,
    Role,
    TermOrder,
    VarTable,
    _unit_normalize,
    poly_gcd,
)
from radsurj.errors import (
    DomainError,
    InputError,
    NumericError,
    RadsurjError,
    ResourceError,
    StructuralError,
)
from radsurj.ideal import DEFAULT_STEP_BUDGET, common_zeros
from radsurj.sampler import (
    DEFAULT_BRANCH_TOL,
    SampleReport,
    default_samples,
    enumerate_branches,
)
from radsurj.tower import RadicalTower, normal_form, normalized_remainder


def run_child(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter with args in a child process, text output
    captured; PYTHONPATH names only the directory the tests import the
    package from, so the child finds it without an install."""
    src = str(Path(radsurj.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


T_ONLY = VarTable(("t",), (Role.PARAMETER,))
TD1 = VarTable(("t", "d1"), (Role.PARAMETER, Role.RADICAL))
TD12 = VarTable(
    ("t", "d1", "d2"),
    (Role.PARAMETER, Role.RADICAL, Role.RADICAL),
)


def to_sympy(f: MultiPoly):
    syms = [sympy.Symbol(n) for n in f.table.names]
    expr = sympy.Integer(0)
    for expo, c in f.coeffs.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, expo):
            if k:
                term *= s**k
        expr += term
    return sympy.expand(expr)


def sym(name: str):
    return sympy.Symbol(name)


def random_poly(
    rng: Random,
    table: VarTable,
    max_exp: int = 3,
    max_terms: int = 4,
    coeff_bound: int = 4,
    only_vars=None,
) -> MultiPoly:
    """Small random polynomial; may be zero."""
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(
            rng.randint(0, max_exp) if (only_vars is None or i in only_vars) else 0
            for i in range(table.arity)
        )
        c = rng.randint(-coeff_bound, coeff_bound)
        out[expo] = out.get(expo, 0) + c
    return MultiPoly(table, {e: Fraction(c) for e, c in out.items() if c})


def random_nonzero_poly(rng: Random, table: VarTable, **kw) -> MultiPoly:
    while True:
        f = random_poly(rng, table, **kw)
        if not f.is_zero():
            return f


def random_poly_bounded(
    rng: Random,
    table: VarTable,
    bounds,
    max_terms: int = 4,
    coeff_bound: int = 4,
    only_vars=None,
) -> MultiPoly:
    """Random polynomial with a per-variable exponent cap (inclusive)."""
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(
            rng.randint(0, bounds[i]) if (only_vars is None or i in only_vars) else 0
            for i in range(table.arity)
        )
        c = rng.randint(-coeff_bound, coeff_bound)
        out[expo] = out.get(expo, 0) + c
    return MultiPoly(table, {e: Fraction(c) for e, c in out.items() if c})


def random_tower(rng: Random, m: int, max_e: int = 3, tdeg: int = 4, nested: bool = True):
    """Random valid tower of height m with small radicands."""
    from radsurj.tower import RadicalLevel

    names = ("t",) + tuple(f"d{i + 1}" for i in range(m))
    roles = (Role.PARAMETER,) + (Role.RADICAL,) * m
    table = VarTable(names, roles)
    levels = []
    exponents = []
    for i in range(m):
        e = rng.randint(2, max_e)
        allowed = set(range(1 + i)) if nested else {0}
        bounds = [tdeg] + [exponents[j] - 1 for j in range(i)] + [0] * (m - i)
        while True:
            g = random_poly_bounded(rng, table, bounds, only_vars=allowed)
            if not g.is_zero() and not g.is_const():
                break
        levels.append(RadicalLevel(names[1 + i], e, g))
        exponents.append(e)
    return RadicalTower(table, levels)


def random_reduced_poly(rng: Random, tower, tdeg: int = 4, max_terms: int = 4) -> MultiPoly:
    """Random nonzero polynomial already in tower normal form."""
    bounds = [tdeg] + [level.exponent - 1 for level in tower.levels]
    while True:
        f = random_poly_bounded(rng, tower.table, bounds, max_terms=max_terms)
        if not f.is_zero():
            return f


def print_source(param) -> str:
    """Canonical text form; parse(print_source(P)) reproduces P exactly."""
    lines = ["tower {"]
    for level in param.tower.levels:
        lines.append(f"  {level.name}^{level.exponent} = {level.radicand};")
    lines.append("}")
    lines.append("param {")
    for name, comp in zip(param.coordinates, param.components):
        if comp.denominator.is_const() and comp.denominator.const_value() == 1:
            lines.append(f"  {name} = {comp.numerator};")
        else:
            lines.append(f"  {name} = ({comp.numerator}) / ({comp.denominator});")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# reference oracles


class UnsupportedOracleError(RadsurjError):
    """A cross-check oracle was asked for a shape it does not cover."""


def eval_exact(poly: MultiPoly, values) -> Fraction:
    """Exact value of poly at a rational point."""
    if len(values) != poly.table.arity:
        raise StructuralError("evaluation point has wrong arity")
    vals = [Fraction(v) for v in values]
    total = Fraction(0)
    for expo, c in poly.coeffs.items():
        term = c
        for v, k in zip(vals, expo):
            if k:
                term *= v**k
        total += term
    return total


def _complex_term_values(poly: MultiPoly, values) -> list[complex]:
    if len(values) != poly.table.arity:
        raise StructuralError("evaluation point has wrong arity")
    out = []
    for expo, c in poly.coeffs.items():
        term = complex(c)
        for v, k in zip(values, expo):
            if k:
                term *= v**k
        out.append(term)
    return out


def eval_complex_ref(poly: MultiPoly, values) -> complex:
    """poly at a complex point, converting every coefficient afresh.

    The loop MultiPoly.eval_complex ran before it cached its complex
    terms; same conversions and operation order, so results agree bit
    for bit.
    """
    total = 0j
    for term in _complex_term_values(poly, values):
        total += term
    return total


def scaled_residual_ref(g: MultiPoly, point) -> float:
    """sampler.scaled_residuals at one point, uncached: |g(point)| over the
    largest term (floor 1)."""
    total = 0j
    scale = 1.0
    for term in _complex_term_values(g, point):
        total += term
        scale = max(scale, abs(term))
    return abs(total) / scale


def sample_images_ref(param, samples=None, tol=DEFAULT_BRANCH_TOL, implicit=None) -> SampleReport:
    """sampler.sample_images one point at a time.

    The loop the package ran before it evaluated by columns: every
    branch of every sample, each denominator, numerator and implicit
    generator through eval_complex and scaled_residual_ref.  The
    accepted rows are returned as columns, as the package keeps them.
    """
    if samples is None:
        samples = default_samples()
    tower = param.tower
    rows: list[tuple[complex, ...]] = []
    rejected = 0
    max_residual = None
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
            rows.append((t0, *deltas, *image))
            if implicit:
                worst = max(scaled_residual_ref(g, image) for g in implicit)
                max_residual = worst if max_residual is None else max(max_residual, worst)
    width = 1 + tower.m + len(param.components)
    columns = tuple(zip(*rows)) if rows else ((),) * width
    return SampleReport(len(samples), columns, rejected, max_residual, tol)


def image_distance_ref(image, cand) -> float:
    """Euclidean distance of two images, the squares added left to right.

    Not sum(): from Python 3.12 on it adds floats with compensation.
    """
    total = 0.0
    for x, c in zip(image, cand):
        total += abs(x - c) ** 2
    return math.sqrt(total)


def nearest_cloud_point_ref(report: SampleReport, m: int, cand) -> tuple[complex | None, float]:
    """The parameter value of the cloud row nearest to cand, and its
    distance; (None, inf) when no row is nearer than inf.

    The row loop sampler.confirm_candidates ran over per-point records:
    the first row strictly closer than every earlier one, starting from
    inf, so a nan distance never wins.
    """
    best, dist = None, float("inf")
    for row in zip(*report.columns):
        d = image_distance_ref(row[1 + m :], cand)
        if d < dist:
            best, dist = row[0], d
    return best, dist


def enumerate_branches_ref(tower: RadicalTower, t0: complex) -> list[tuple[complex, ...]]:
    """sampler.enumerate_branches as it ran before it cached each
    exponent's rotations and grew point tuples: the rotations recomputed
    on every call, each radicand through eval_complex on a point padded
    with zeros."""
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


def probe_ref(param, candidate: tuple[complex, ...], t: complex, tol: float) -> float:
    """The sampler's probe as it ran before it fetched each component's
    terms once per chase: every polynomial through eval_complex, on every
    branch of enumerate_branches_ref."""
    distances = []
    for deltas in enumerate_branches_ref(param.tower, t):
        point = [t, *deltas]
        dens = [c.denominator.eval_complex(point) for c in param.components]
        if not any(abs(d) <= tol for d in dens):
            image = [c.numerator.eval_complex(point) / d for c, d in zip(param.components, dens)]
            distances.append(image_distance_ref(image, candidate))
    return min(distances, default=math.inf)


def refine_ref(param, candidate: tuple[complex, ...], t0: complex, tol: float) -> tuple[complex, float]:
    """sampler._refine as it ran before it took its directions from a
    precomputed ring: cmath.exp of each direction on every probe, each
    probe through probe_ref."""
    center, dist = t0, probe_ref(param, candidate, t0, tol)
    radius = 0.5
    rounds = 0
    while radius > 1e-10 and rounds < 100:
        rounds += 1
        improved = False
        for k in range(12):
            t = center + radius * cmath.exp(2j * cmath.pi * k / 12)
            d = probe_ref(param, candidate, t, tol)
            if d < dist:
                center, dist, improved = t, d, True
        if not improved:
            radius *= 0.5
    return center, dist


def complex_eval_corpus(rng: Random) -> list[tuple[MultiPoly, list[tuple[complex, ...]]]]:
    """Polynomials with complex points to evaluate them at.

    Zero and constant polynomials, rational multiples, products and sums
    built by the ring operations, and polynomials transported into a
    larger table whose variable order differs.
    """
    wide = VarTable(
        ("x1", "d2", "t", "d1"),
        (Role.COORDINATE, Role.RADICAL, Role.PARAMETER, Role.RADICAL),
    )
    polys = [MultiPoly.zero(TD12), MultiPoly.const(TD12, Fraction(-7, 3)), MultiPoly.zero(wide)]
    for _ in range(30):
        f = random_poly(rng, TD12, coeff_bound=9) * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        g = random_poly(rng, TD12, max_exp=4, max_terms=6)
        polys += [f, f * g, f * g + g, (f * g).transport(wide)]

    def point(n: int) -> tuple[complex, ...]:
        return tuple(
            0j if rng.random() < 0.1 else complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            for _ in range(n)
        )

    return [(p, [point(p.table.arity) for _ in range(3)]) for p in polys]


def mul_ref(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """MultiPoly.__mul__ on exponent tuples and Fractions, the loop the
    package ran before its packed integer kernel: f outer, g inner, a
    key deleted when its sum reaches zero."""
    f._check(g)
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            acc = out.get(expo, 0) + c1 * c2
            if acc:
                out[expo] = acc
            elif expo in out:
                del out[expo]
    return MultiPoly._raw(f.table, out)


def tower_norm_ref(f: MultiPoly, level) -> MultiPoly:
    """tower.tower_norm expanded on Fraction polynomials with mul_ref,
    as the package did before it packed the matrix entries as integers."""
    var = f.table.index(level.name)
    e = level.exponent
    c = f.univariate_coeffs(var)
    if len(c) > e:
        raise DomainError(f"norm needs a polynomial reduced below {level.name}^{e}")
    g = level.radicand if f.table == level.radicand.table else level.radicand.transport(f.table)
    zero = MultiPoly.zero(f.table)
    c += [zero] * (e - len(c))
    gc = [zero] + [zero if ck.is_zero() else mul_ref(g, ck) for ck in c[1:]]
    minors = {0: MultiPoly.one(f.table)}
    for j in range(e):
        wider = {}
        for rows, minor in minors.items():
            for r in range(e):
                bit = 1 << r
                entry = c[r - j] if r >= j else gc[r - j + e]
                if rows & bit or entry.is_zero():
                    continue
                term = mul_ref(entry, minor)
                if (rows >> r).bit_count() % 2:
                    term = -term
                key = rows | bit
                wider[key] = wider[key] + term if key in wider else term
        minors = {rows: m for rows, m in wider.items() if not m.is_zero()}
    return minors.get((1 << e) - 1, zero)


def exact_div_ref(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Quotient f/g when the division is exact; DomainError otherwise.

    Grevlex long division with a new remainder polynomial per step.  The
    package keeps no Fraction exact division (its quotients come from
    modular.gcd); the PRS, resultant and content oracles divide with
    this one.
    """
    f._check(g)
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    if f.is_zero():
        return f
    if g.is_const():
        return f * (1 / g.const_value())
    order = TermOrder.grevlex(f.table)
    g_expo, g_coeff = order.leading(g)
    quot = {}
    rem = f
    while not rem.is_zero():
        r_expo, r_coeff = order.leading(rem)
        diff = tuple(a - b for a, b in zip(r_expo, g_expo))
        if any(k < 0 for k in diff):
            raise DomainError("division is not exact")
        c = r_coeff / g_coeff
        quot[diff] = quot.get(diff, Fraction(0)) + c
        rem = rem - MultiPoly.monomial(f.table, diff, c) * g
    return MultiPoly(f.table, quot)


def _sub_monomial_multiple(acc: dict, g: MultiPoly, lead, expo, q: Fraction) -> None:
    """acc -= q * x^(expo - lead) * g in place on exponent tuples,
    skipping g's lead term, which the caller has already cancelled."""
    shift = tuple(a - b for a, b in zip(expo, lead))
    for e, c in g.coeffs.items():
        if e == lead:
            continue
        key = tuple(a + b for a, b in zip(e, shift))
        v = acc.get(key, 0) - q * c
        if v:
            acc[key] = v
        else:
            del acc[key]


def poly_divmod_ref(f: MultiPoly, g: MultiPoly, step_budget=None):
    """Quotient and remainder of f by g as arith's division ran before
    it moved to packed keys and kept only the remainder (poly_rem):
    exponent tuples, the tail's lead chosen by graded lex, one step per
    quotient term."""
    f._check(g)
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    g_expo, g_coeff = g.leading_term()
    quot, rem, tail = {}, {}, dict(f.coeffs)
    while tail:
        r_expo = max(tail, key=lambda e: (sum(e), e))
        c = tail.pop(r_expo)
        diff = tuple(a - b for a, b in zip(r_expo, g_expo))
        if any(k < 0 for k in diff):
            rem[r_expo] = c
            continue
        if step_budget is not None and len(quot) >= step_budget:
            raise ResourceError("division step budget exhausted")
        c = quot[diff] = c / g_coeff
        _sub_monomial_multiple(tail, g, g_expo, r_expo, c)
    return MultiPoly(f.table, quot), MultiPoly(f.table, rem)


def normal_form_ref(f: MultiPoly, tower: RadicalTower) -> MultiPoly:
    """tower.normal_form as it was, by substitution: from the top level
    down, each power Delta^k becomes g^(k // e) * Delta^(k % e)."""
    tower.check_table(f.table)
    for i in reversed(range(tower.m)):
        level = tower.levels[i]
        var = f.table.index(level.name)
        e = level.exponent
        if f.degree(var) < e:
            continue
        g = level.radicand.transport(f.table)
        delta = MultiPoly.var(f.table, level.name)
        out = MultiPoly.zero(f.table)
        for k, c in enumerate(f.univariate_coeffs(var)):
            out = out + c * g ** (k // e) * delta ** (k % e)
        f = out
    return f


def term_order_key_ref(order, expo):
    """arith.TermOrder.key as it was before it was built once per order:
    the block slices and the split-0 test are redone on every call."""
    if order.split == 0:
        return (sum(expo), tuple(-expo[v] for v in reversed(order.priority)))
    head = order.priority[: order.split]
    tail = order.priority[order.split:]
    return (
        sum(expo[v] for v in head),
        tuple(-expo[v] for v in reversed(head)),
        sum(expo[v] for v in tail),
        tuple(-expo[v] for v in reversed(tail)),
    )


def reduce_full_ref(f: MultiPoly, basis, order, budget) -> MultiPoly:
    """arith.reduce_full with leads recomputed and a new tail per step.

    Same selection rule (the tail's leading term, then the first basis
    element whose lead divides it) and one budget step per reduction.
    """
    leads = [order.leading(g) for g in basis]
    table = f.table
    tail = f
    done = {}
    while not tail.is_zero():
        expo, c = order.leading(tail)
        for g, (lme, lmc) in zip(basis, leads):
            if all(x <= y for x, y in zip(lme, expo)):
                budget.spend()
                shift = tuple(x - y for x, y in zip(expo, lme))
                tail = tail - MultiPoly.monomial(table, shift, c / lmc) * g
                break
        else:
            done[expo] = c
            tail = tail - MultiPoly.monomial(table, expo, c)
    return MultiPoly(table, done)


def divides_ref(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _reduce_full_tuple_ref(f: MultiPoly, basis, leads, key, budget) -> MultiPoly:
    """arith.reduce_full as it was on exponent tuples: the tail's
    leading term found by a key function, divisibility by a generator."""
    tail = dict(f.coeffs)
    done = {}
    while tail:
        expo = max(tail, key=key)
        c = tail.pop(expo)
        for g, (lme, lmc) in zip(basis, leads):
            if divides_ref(lme, expo):
                budget.spend()
                _sub_monomial_multiple(tail, g, lme, expo, c / lmc)
                break
        else:
            done[expo] = c
    return MultiPoly(f.table, done)


def spoly_ref(f: MultiPoly, f_lead, g: MultiPoly, g_lead) -> MultiPoly:
    """arith.spoly as it was on exponent tuples."""
    (fe, fc), (ge, gc) = f_lead, g_lead
    lcm = tuple(map(max, fe, ge))
    acc = {}
    _sub_monomial_multiple(acc, f, fe, lcm, -1 / fc)
    _sub_monomial_multiple(acc, g, ge, lcm, 1 / gc)
    return MultiPoly(f.table, acc)


def buchberger_ref(gens, order, step_budget: int) -> tuple[MultiPoly, ...]:
    """ideal.buchberger as it was on exponent tuples, ordered by
    term_order_key_ref: the same pair selection, criterion, budget
    steps and term insertion order, so the same generators and bytes."""

    def key(e):
        return term_order_key_ref(order, e)

    def leading(f):
        expo = max(f.coeffs, key=key)
        return expo, f.coeffs[expo]

    budget = Budget(step_budget)
    basis, leads, pairs = [], [], []

    def add(r):
        lead = leading(r)
        for i, (e, _) in enumerate(leads):
            heapq.heappush(pairs, (sum(map(max, e, lead[0])), i, len(basis)))
        basis.append(r)
        leads.append(lead)

    for g in (g for g in gens if not g.is_zero()):
        r = _reduce_full_tuple_ref(g, basis, leads, key, budget) if basis else g
        if not r.is_zero():
            add(r)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if all(a == 0 or b == 0 for a, b in zip(leads[i][0], leads[j][0])):
            continue
        budget.spend()
        s = spoly_ref(basis[i], leads[i], basis[j], leads[j])
        r = _reduce_full_tuple_ref(s, basis, leads, key, budget)
        if not r.is_zero():
            add(r)
    keep = [
        i
        for i, (e, _) in enumerate(leads)
        if not any(j != i and divides_ref(d, e) and (d != e or j < i) for j, (d, _) in enumerate(leads))
    ]
    reduced = []
    for i in keep:
        others = [j for j in keep if j != i]
        g = basis[i]
        if others:
            g = _reduce_full_tuple_ref(
                g, [basis[j] for j in others], [leads[j] for j in others], key, budget
            )
        expo, lc = leads[i]
        reduced.append((key(expo), g * (1 / lc)))
    reduced.sort(key=lambda kr: kr[0], reverse=True)
    return tuple(g for _, g in reduced)


def prem(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of a by b in var: lc(b)^(da-db+1)*a mod b."""
    a._check(b)
    db = b.degree(var)
    if db is NEG_INF:
        raise DomainError("pseudo-division by zero")
    da = a.degree(var)
    if da < db:
        return a
    db = int(db)
    lcb = b.coeff_poly(var, db)
    steps = int(da) - db + 1
    r = a
    while True:
        dr = r.degree(var)
        if dr is NEG_INF or dr < db:
            break
        dr = int(dr)
        top = r.coeff_poly(var, dr)
        shift = tuple(dr - db if j == var else 0 for j in range(a.table.arity))
        r = lcb * r - top * b * MultiPoly.monomial(a.table, shift)
        steps -= 1
    if steps:
        r = r * lcb ** steps
    return r


def primitive_wrt(f: MultiPoly, var: int) -> MultiPoly:
    """f divided by its content in var, then unit-normalized; 0 stays 0."""
    if f.is_zero():
        return f
    return _unit_normalize(exact_div_ref(f, content_wrt_ref(f, var, poly_gcd_prs)))


def poly_gcd_prs(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """arith.poly_gcd before the modular gcd: the primitive PRS.

    Each pseudo-remainder is replaced by its unit-normalized primitive
    part, or its coefficient size would roughly double at every step.
    The result is unit-normalized as in the package; it takes any
    number of variables.
    """
    f._check(g)
    if f.is_zero():
        return _unit_normalize(g)
    if g.is_zero():
        return _unit_normalize(f)
    common = f.variables() & g.variables()
    if not common:
        return MultiPoly.one(f.table)
    x = max(common)
    cf = content_wrt_ref(f, x, poly_gcd_prs)
    cg = content_wrt_ref(g, x, poly_gcd_prs)
    c = poly_gcd_prs(cf, cg)
    a = exact_div_ref(f, cf)
    b = exact_div_ref(g, cg)
    if a.degree(x) < b.degree(x):
        a, b = b, a
    while not b.is_zero():
        a, b = b, primitive_wrt(prem(a, b, x), x)
    return _unit_normalize(c * a)


def content_wrt_ref(f: MultiPoly, var: int, gcd) -> MultiPoly:
    """Content in var as the gcd oracle gcd computes it."""
    acc = MultiPoly.zero(f.table)
    for c in f.univariate_coeffs(var):
        if c.is_zero():
            continue
        acc = gcd(acc, c)
        if acc.is_const():
            break
    return acc


def primitive_wrt_ref(f: MultiPoly, var: int) -> MultiPoly:
    """f over its content in var, rational scalar kept; for a
    univariate f the content is 1 and nothing is removed."""
    if f.is_zero():
        return f
    return exact_div_ref(f, content_wrt_ref(f, var, poly_gcd_ref))


def poly_gcd_ref(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """arith.poly_gcd before its remainders were unit-normalized.

    The same recursive PRS, but each remainder keeps the rational scalar
    primitive_wrt_ref leaves on it, so coefficients roughly double in
    size at every step; the result is unit-normalized as in the package.
    """
    f._check(g)
    if f.is_zero():
        return _unit_normalize(g)
    if g.is_zero():
        return _unit_normalize(f)
    if f.is_const() or g.is_const():
        return MultiPoly.one(f.table)
    common = f.variables() & g.variables()
    if not common:
        return MultiPoly.one(f.table)
    x = max(common)
    cf = content_wrt_ref(f, x, poly_gcd_ref)
    cg = content_wrt_ref(g, x, poly_gcd_ref)
    c = poly_gcd_ref(cf, cg)
    a = exact_div_ref(f, cf)
    b = exact_div_ref(g, cg)
    if a.degree(x) < b.degree(x):
        a, b = b, a
    while not b.is_zero():
        r = prem(a, b, x)
        a, b = b, (primitive_wrt_ref(r, x) if not r.is_zero() else r)
    return _unit_normalize(c * a)


def resultant(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Res_var(a, b) by the subresultant remainder sequence.

    Sign convention: Res(a, b) = lc(a)^deg(b) * prod of b over the roots
    of a, which is the determinant of the Sylvester matrix with deg(b)
    rows of a-coefficients on top.
    """
    a._check(b)
    if a.is_zero() or b.is_zero():
        return MultiPoly.zero(a.table)
    da, db = a.degree(var), b.degree(var)
    if da <= 0 and db <= 0:
        raise DomainError("resultant variable absent from both arguments")
    if db == 0:
        return b ** int(da)
    if da == 0:
        return a ** int(db)
    table = a.table
    da, db = int(da), int(db)
    sign = 1
    if da < db:
        a, b = b, a
        da, db = db, da
        if (da * db) % 2:
            sign = -sign
    one = MultiPoly.one(table)
    g = one
    h = one
    while True:
        da, db = int(a.degree(var)), int(b.degree(var))
        delta = da - db
        if (da % 2) and (db % 2):
            sign = -sign
        r = prem(a, b, var)
        a = b
        denom = g * h ** delta
        b = exact_div_ref(r, denom) if not r.is_zero() else r
        if b.is_zero():
            return MultiPoly.zero(table)
        g = a.coeff_poly(var, int(a.degree(var)))
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = exact_div_ref(g ** delta, h ** (delta - 1))
        if b.degree(var) == 0:
            break
    dda = int(a.degree(var))
    if dda == 1:
        res = b
    else:
        res = exact_div_ref(b ** dda, h ** (dda - 1))
    return res if sign > 0 else -res


def resultant_chain(f: MultiPoly, tower: RadicalTower) -> list[MultiPoly]:
    """The elimination sequence as resultants, without reduction between levels.

    Each step is the resultant of a tower polynomial with the running
    value, highest radical first; the last entry is R(f), the value
    remainder_trace reaches through reduced tower norms.
    """
    f_k = normal_form(f, tower)
    trace = [f_k]
    for i in reversed(range(tower.m)):
        var = f_k.table.index(tower.levels[i].name)
        f_k = resultant(tower.level_poly(i, f_k.table), f_k, var)
        trace.append(f_k)
    return trace


def resultant_det(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    """Res_var(a, b) as the Sylvester determinant, by Bareiss elimination.

    Same convention as resultant(), which it cross-checks; the trivial
    shapes (a zero argument or degree 0 in var) share resultant's
    closed forms.
    """
    if a.degree(var) <= 0 or b.degree(var) <= 0:
        return resultant(a, b, var)
    table = a.table
    da, db = int(a.degree(var)), int(b.degree(var))
    acoef = [a.coeff_poly(var, k) for k in range(da, -1, -1)]
    bcoef = [b.coeff_poly(var, k) for k in range(db, -1, -1)]
    n = da + db
    zero = MultiPoly.zero(table)
    mat: list[list[MultiPoly]] = []
    for i in range(db):
        mat.append([zero] * i + acoef + [zero] * (db - 1 - i))
    for i in range(da):
        mat.append([zero] * i + bcoef + [zero] * (da - 1 - i))
    sign = 1
    prev = MultiPoly.one(table)
    for k in range(n - 1):
        if mat[k][k].is_zero():
            pivot_row = next((r for r in range(k + 1, n) if not mat[r][k].is_zero()), None)
            if pivot_row is None:
                return zero
            mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = exact_div_ref(mat[k][k] * mat[i][j] - mat[i][k] * mat[k][j], prev)
            mat[i][k] = zero
        prev = mat[k][k]
    det = mat[n - 1][n - 1]
    return det if sign > 0 else -det


def full_conjugate_product(f: MultiPoly, tower: RadicalTower) -> MultiPoly:
    """Brute-force conjugate product over all sign choices, normalized.

    Only towers with every exponent equal to 2 are supported, where
    conjugation is just a sign flip per radical.  For unnested towers
    this equals normalized_remainder; for nested ones it differs, which
    is exactly what makes it a useful cross-check.
    """
    for level in tower.levels:
        if level.exponent != 2:
            raise UnsupportedOracleError(
                f"sign-product oracle needs exponent 2, level {level.name} has {level.exponent}"
            )
    tower.check_table(f.table)
    radical_vars = [f.table.index(level.name) for level in tower.levels]
    product = MultiPoly.one(f.table)
    for signs in itertools.product((1, -1), repeat=tower.m):
        flipped = {}
        for expo, c in f.coeffs.items():
            factor = 1
            for s, var in zip(signs, radical_vars):
                if s < 0 and expo[var] % 2:
                    factor = -factor
            flipped[expo] = c * factor
        product = product * MultiPoly(f.table, flipped)
    return normal_form(product, tower)


def fast_guilty_single(f: MultiPoly, tower: RadicalTower) -> bool:
    """Guilt for a height-1 tower without computing R(f).

    Collects the coefficients c_i(t) of f = sum c_i(t) Delta^i whose
    term c_i(t) Delta^i attains the weighted degree, forms the leading
    pattern f_l(Delta) from their leading coefficients, and tests
    whether Res(f_l, Delta^e - lc(g)) vanishes.
    """
    if tower.m != 1:
        raise DomainError("fast guilt test requires a tower of height 1")
    nf = normal_form(f, tower)
    if nf.is_zero():
        raise DomainError("guilt is undefined for the zero polynomial")
    if not nf.variables() <= {0, 1}:
        raise DomainError("fast guilt test needs a polynomial in t and the radical only")
    level = tower.levels[0]
    e = level.exponent
    g = level.radicand
    k = int(g.degree(0))
    a_k = g.coeff_poly(0, k).const_value()
    var = nf.table.index(level.name)
    coeffs = nf.univariate_coeffs(var)
    degrees = {}
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            degrees[i] = c.degree(0) + Fraction(k, e) * i
    top = max(degrees.values())
    lead_pattern = MultiPoly.zero(nf.table)
    delta = MultiPoly.var(nf.table, level.name)
    for i, d in degrees.items():
        if d == top:
            lc = coeffs[i].coeff_poly(0, int(coeffs[i].degree(0))).const_value()
            lead_pattern = lead_pattern + lc * delta**i
    test_poly = delta**e - MultiPoly.const(nf.table, a_k)
    return resultant(lead_pattern, test_poly, var).is_zero()


def common_zero_ideal_ref(param, i: int) -> list[MultiPoly]:
    """The generators surjcheck.condition2_locus hands the basis, before
    they carried h: the tower polynomials, numerator and denominator of
    component i."""
    comp = param.components[i - 1]
    levels = [param.tower.level_poly(j) for j in range(param.tower.m)]
    return levels + [comp.numerator, comp.denominator]


def hypothesis2_ref(param, i: int, strategy: str = "auto", step_budget: int = DEFAULT_STEP_BUDGET):
    """Hypothesis 2 before h and the condition-2 locus, as the tuple
    (hyp2_established, hyp2_route, hyp2_exact, hyp2_gcd) of the check
    report: the exact route runs the basis on common_zero_ideal_ref,
    and the gcd route, taken by gcd or by auto after an exhausted
    budget, tests gcd(R(p), R(q)) = 1."""
    if strategy not in ("exact", "gcd", "auto"):
        raise InputError(f"unknown hypothesis-2 strategy {strategy!r}")
    comp = param.components[i - 1]
    if comp.denominator.is_const():
        return True, "constant-denominator", None, None
    if strategy in ("exact", "auto"):
        try:
            exact = common_zeros(common_zero_ideal_ref(param, i), step_budget)[0] == "empty"
            return exact, "exact" if exact else None, exact, None
        except ResourceError:
            if strategy == "exact":
                raise
    rp = normalized_remainder(comp.numerator, param.tower)
    rq = normalized_remainder(comp.denominator, param.tower)
    g = poly_gcd(rp, rq)
    unit = g.is_const() and not g.is_zero()
    return unit, "gcd" if unit else None, None, unit
