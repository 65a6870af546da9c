"""Shared helpers for the test suite.

sympy is used here as an independent desk calculator to cross-check
exact results; the package itself never imports it.  The reference
oracles at the end (Sylvester determinant, sign-product conjugation,
single-level fast guilt, exact and uncached complex evaluation) are
second implementations that the tests compare the package against.
"""

import itertools
from fractions import Fraction
from random import Random

import sympy

from radsurj.arith import MultiPoly, Role, VarTable, exact_div, resultant
from radsurj.errors import DomainError, RadsurjError, StructuralError
from radsurj.tower import RadicalTower, normal_form

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
    """Uncached sampler.scaled_residual: |g(point)| over the largest term (floor 1)."""
    total = 0j
    scale = 1.0
    for term in _complex_term_values(g, point):
        total += term
        scale = max(scale, abs(term))
    return abs(total) / scale


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
                mat[i][j] = exact_div(mat[k][k] * mat[i][j] - mat[i][k] * mat[k][j], prev)
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
