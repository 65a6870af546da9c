"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a sparse map from exponent tuples to nonzero Fractions.
Every polynomial carries a VarTable naming its variables and their
roles; binary operations require both operands to share the table, so
parameter, radical and coordinate variables cannot get mixed up
silently.  Exponent tuples always have one entry per table variable.

The canonical term order used for hashing, printing and leading
coefficients is graded lexicographic: total degree first, then the
exponent tuple compared left to right.  Degrees of the zero polynomial
are the float -inf sentinel, which compares correctly against both ints
and Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, StructuralError

NEG_INF = float("-inf")

Exponent = tuple[int, ...]


class Role(Enum):
    """What a variable stands for in a problem instance."""

    PARAMETER = "parameter"
    RADICAL = "radical"
    COORDINATE = "coordinate"
    INVERSE = "inverse"


@dataclass(frozen=True)
class VarTable:
    """Ordered, named variables with roles.

    The order fixes the exponent layout of every polynomial built on
    the table.
    """

    names: tuple[str, ...]
    roles: tuple[Role, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.roles):
            raise StructuralError("names and roles differ in length")
        if len(set(self.names)) != len(self.names):
            raise StructuralError(f"duplicate variable names: {self.names}")
        for name in self.names:
            if not name.isidentifier():
                raise StructuralError(f"bad variable name {name!r}")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise StructuralError(f"unknown variable {name!r}") from None


def _grlex_key(expo: Exponent) -> tuple[int, Exponent]:
    return (sum(expo), expo)


def _as_fraction(c) -> Fraction:
    if isinstance(c, float):
        raise StructuralError("float coefficients are not exact; use Fraction")
    return Fraction(c)


class MultiPoly:
    """Immutable sparse polynomial with Fraction coefficients."""

    # _cterms is filled by complex_terms on first use and never set by a
    # constructor, so building polynomials in exact code costs nothing.
    __slots__ = ("table", "coeffs", "_hash", "_cterms")

    def __init__(self, table: VarTable, coeffs: Mapping[Exponent, Fraction] | Iterable[tuple[Exponent, Fraction]]):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[Exponent, Fraction] = {}
        n = table.arity
        for expo, c in items:
            expo = tuple(expo)
            if len(expo) != n:
                raise StructuralError(f"exponent {expo} does not match arity {n}")
            if any(k < 0 for k in expo):
                raise StructuralError(f"negative exponent in {expo}")
            c = _as_fraction(c)
            acc = clean.get(expo, 0) + c
            if acc:
                clean[expo] = acc
            elif expo in clean:
                del clean[expo]
        self.table = table
        self.coeffs = clean
        self._hash = None

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(table: VarTable) -> "MultiPoly":
        return MultiPoly(table, {})

    @staticmethod
    def const(table: VarTable, c) -> "MultiPoly":
        return MultiPoly(table, {(0,) * table.arity: _as_fraction(c)})

    @staticmethod
    def one(table: VarTable) -> "MultiPoly":
        return MultiPoly.const(table, 1)

    @staticmethod
    def var(table: VarTable, name: str) -> "MultiPoly":
        i = table.index(name)
        expo = tuple(1 if j == i else 0 for j in range(table.arity))
        return MultiPoly(table, {expo: Fraction(1)})

    @staticmethod
    def monomial(table: VarTable, expo: Exponent, c=1) -> "MultiPoly":
        return MultiPoly(table, {tuple(expo): _as_fraction(c)})

    # ------------------------------------------------------------------
    # basic structure

    def _check(self, other: "MultiPoly") -> None:
        if self.table != other.table:
            raise StructuralError("polynomials over different variable tables")

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        return all(not any(e) for e in self.coeffs)

    def const_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_const():
            raise DomainError("polynomial is not constant")
        return next(iter(self.coeffs.values()))

    def variables(self) -> set[int]:
        present: set[int] = set()
        for expo in self.coeffs:
            for i, k in enumerate(expo):
                if k:
                    present.add(i)
        return present

    def degree(self, var: int):
        """Degree in one variable; -inf for the zero polynomial."""
        if not self.coeffs:
            return NEG_INF
        return max(e[var] for e in self.coeffs)

    def total_degree(self):
        if not self.coeffs:
            return NEG_INF
        return max(sum(e) for e in self.coeffs)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Graded lex leading (exponent, coefficient)."""
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading term")
        expo = max(self.coeffs, key=_grlex_key)
        return expo, self.coeffs[expo]

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self + MultiPoly.const(self.table, other)
        self._check(other)
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            acc = out.get(expo, 0) + c
            if acc:
                out[expo] = acc
            elif expo in out:
                del out[expo]
        return self._raw(self.table, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self._raw(self.table, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.table, other)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = _as_fraction(other)
            if not c:
                return MultiPoly.zero(self.table)
            return self._raw(self.table, {e: c * v for e, v in self.coeffs.items()})
        self._check(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(expo, 0) + c1 * c2
                if acc:
                    out[expo] = acc
                elif expo in out:
                    del out[expo]
        return self._raw(self.table, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"polynomial power must be a nonnegative int, got {k!r}")
        result = MultiPoly.one(self.table)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    @classmethod
    def _raw(cls, table: VarTable, clean: dict[Exponent, Fraction]) -> "MultiPoly":
        # internal: coefficients already canonical (no zeros, right arity)
        obj = cls.__new__(cls)
        obj.table = table
        obj.coeffs = clean
        obj._hash = None
        return obj

    # ------------------------------------------------------------------
    # univariate views

    def coeff_poly(self, var: int, k: int) -> "MultiPoly":
        """Coefficient of var**k, as a polynomial with var zeroed out."""
        out: dict[Exponent, Fraction] = {}
        for expo, c in self.coeffs.items():
            if expo[var] == k:
                reduced = expo[:var] + (0,) + expo[var + 1:]
                out[reduced] = out.get(reduced, Fraction(0)) + c
        return MultiPoly(self.table, out)

    def univariate_coeffs(self, var: int) -> list["MultiPoly"]:
        """Dense coefficient list in var, ascending; [] for zero."""
        d = self.degree(var)
        if d is NEG_INF:
            return []
        return [self.coeff_poly(var, k) for k in range(int(d) + 1)]

    def derivative(self, var: int) -> "MultiPoly":
        out: dict[Exponent, Fraction] = {}
        for expo, c in self.coeffs.items():
            k = expo[var]
            if k:
                reduced = expo[:var] + (k - 1,) + expo[var + 1:]
                out[reduced] = out.get(reduced, Fraction(0)) + c * k
        return MultiPoly(self.table, out)

    # ------------------------------------------------------------------
    # table transport and evaluation

    def transport(self, new_table: VarTable) -> "MultiPoly":
        """Re-express over a table that contains all present variables by name."""
        mapping: dict[int, int] = {}
        for i in self.variables():
            mapping[i] = new_table.index(self.table.names[i])
        out: dict[Exponent, Fraction] = {}
        for expo, c in self.coeffs.items():
            new_expo = [0] * new_table.arity
            for i, k in enumerate(expo):
                if k:
                    new_expo[mapping[i]] = k
            out[tuple(new_expo)] = out.get(tuple(new_expo), Fraction(0)) + c
        return MultiPoly(new_table, out)

    def complex_terms(self) -> tuple[tuple[complex, tuple[tuple[int, int], ...]], ...]:
        """(complex(c), ((var, k), ...)) per term, nonzero exponents only.

        Built on first call and kept: the polynomial is immutable, so each
        coefficient is converted once however often it is evaluated.
        """
        terms = getattr(self, "_cterms", None)
        if terms is None:
            terms = self._cterms = tuple(
                (complex(c), tuple((i, k) for i, k in enumerate(expo) if k))
                for expo, c in self.coeffs.items()
            )
        return terms

    def eval_complex(self, values: Sequence[complex]) -> complex:
        if len(values) != self.table.arity:
            raise StructuralError("evaluation point has wrong arity")
        total = 0j
        for c, mono in self.complex_terms():
            term = c
            for i, k in mono:
                term *= values[i] ** k
            total += term
        return total

    # ------------------------------------------------------------------
    # comparisons, hashing, printing

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.table == other.table and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == MultiPoly.const(self.table, other).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.table, frozenset(self.coeffs.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for expo in sorted(self.coeffs, key=_grlex_key, reverse=True):
            c = self.coeffs[expo]
            factors = []
            for name, k in zip(self.table.names, expo):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            varpart = "*".join(factors)
            if not varpart:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(varpart)
            elif c == -1:
                pieces.append(f"-{varpart}")
            else:
                pieces.append(f"{c}*{varpart}")
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += f" - {piece[1:]}"
            else:
                out += f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# ----------------------------------------------------------------------
# weighted degrees


@dataclass(frozen=True)
class WeightVector:
    """Rational weights per variable.

    Invariants: parameter variables weigh 1, radical variables weigh a
    positive rational, coordinate and inverse variables weigh 0.
    """

    table: VarTable
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.table.arity:
            raise StructuralError("weight vector does not match table arity")
        for i, w in enumerate(self.weights):
            role = self.table.roles[i]
            if role is Role.PARAMETER and w != 1:
                raise StructuralError("parameter variables must have weight 1")
            if role is Role.RADICAL and w <= 0:
                raise StructuralError("radical variables must have positive weight")
            if role in (Role.COORDINATE, Role.INVERSE) and w != 0:
                raise StructuralError("inert variables must have weight 0")


def weighted_degree(f: MultiPoly, wv: WeightVector):
    """Max over monomials of the weight inner product; -inf for zero."""
    if f.table != wv.table:
        raise StructuralError("weight vector over a different table")
    if f.is_zero():
        return NEG_INF
    return max(sum(w * k for w, k in zip(wv.weights, expo) if k) for expo in f.coeffs)


def leading_form(f: MultiPoly, wv: WeightVector) -> MultiPoly:
    """Sum of the monomials attaining the weighted degree."""
    d = weighted_degree(f, wv)
    if d is NEG_INF:
        return f
    out = {
        expo: c
        for expo, c in f.coeffs.items()
        if sum(w * k for w, k in zip(wv.weights, expo) if k) == d
    }
    return MultiPoly(f.table, out)


# ----------------------------------------------------------------------
# exact division


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Quotient f/g when the division is exact; DomainError otherwise."""
    f._check(g)
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    if f.is_zero():
        return f
    if g.is_const():
        return f * (1 / g.const_value())
    g_expo, g_coeff = g.leading_term()
    quot: dict[Exponent, Fraction] = {}
    rem = f
    while not rem.is_zero():
        r_expo, r_coeff = rem.leading_term()
        diff = tuple(a - b for a, b in zip(r_expo, g_expo))
        if any(k < 0 for k in diff):
            raise DomainError("division is not exact")
        c = r_coeff / g_coeff
        quot[diff] = quot.get(diff, Fraction(0)) + c
        rem = rem - MultiPoly.monomial(f.table, diff, c) * g
    return MultiPoly(f.table, quot)


# ----------------------------------------------------------------------
# pseudo-division and resultants


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
        b = exact_div(r, denom) if not r.is_zero() else r
        if b.is_zero():
            return MultiPoly.zero(table)
        g = a.coeff_poly(var, int(a.degree(var)))
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = exact_div(g ** delta, h ** (delta - 1))
        if b.degree(var) == 0:
            break
    dda = int(a.degree(var))
    if dda == 1:
        res = b
    else:
        res = exact_div(b ** dda, h ** (dda - 1))
    return res if sign > 0 else -res


# ----------------------------------------------------------------------
# gcd, content, squarefree part


def _unit_normalize(f: MultiPoly) -> MultiPoly:
    """Scale to integer coefficients with content 1 and positive lead."""
    if f.is_zero():
        return f
    coeffs = f.coeffs.values()
    scale = Fraction(
        math.lcm(*(c.denominator for c in coeffs)), math.gcd(*(c.numerator for c in coeffs))
    )
    out = f * scale
    if out.leading_term()[1] < 0:
        out = -out
    return out


def content_wrt(f: MultiPoly, var: int) -> MultiPoly:
    """Gcd of the coefficient polynomials of f seen in var."""
    acc = MultiPoly.zero(f.table)
    for c in f.univariate_coeffs(var):
        if c.is_zero():
            continue
        acc = poly_gcd(acc, c)
        if acc.is_const():
            break
    return acc


def primitive_wrt(f: MultiPoly, var: int) -> MultiPoly:
    if f.is_zero():
        return f
    return exact_div(f, content_wrt(f, var))


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Multivariate gcd over the rationals.

    The result is unit-normalized: integer coefficients, content 1,
    positive leading graded lex coefficient.  gcd(0, 0) = 0 and the gcd
    of anything with a nonzero constant is 1.
    """
    f._check(g)
    if f.is_zero():
        return _unit_normalize(g)
    if g.is_zero():
        return _unit_normalize(f)
    if f.is_const() or g.is_const():
        return MultiPoly.one(f.table)
    vf, vg = f.variables(), g.variables()
    common = vf & vg
    if not common:
        return MultiPoly.one(f.table)
    x = max(common)
    cf = content_wrt(f, x)
    cg = content_wrt(g, x)
    c = poly_gcd(cf, cg)
    a = exact_div(f, cf)
    b = exact_div(g, cg)
    if a.degree(x) < b.degree(x):
        a, b = b, a
    while not b.is_zero():
        r = prem(a, b, x)
        a, b = b, (primitive_wrt(r, x) if not r.is_zero() else r)
    return _unit_normalize(c * a)


def univ_gcd(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """Monic gcd of two univariate polynomials in var."""
    for p in (f, g):
        if not p.variables() <= {var}:
            raise DomainError("univ_gcd arguments must be univariate")
    d = poly_gcd(f, g)
    if d.is_zero():
        return d
    lead = d.coeff_poly(var, int(d.degree(var))).const_value()
    return d * (1 / lead)


def squarefree_part(f: MultiPoly, var: int) -> MultiPoly:
    """Product of the distinct irreducible factors involving var.

    Unit-normalized like poly_gcd.  A polynomial of degree 0 in var has
    squarefree part 1 by convention; callers that need to keep such
    content handle it themselves.
    """
    if f.is_zero():
        raise DomainError("squarefree part of the zero polynomial")
    if f.degree(var) <= 0:
        return MultiPoly.one(f.table)
    rad = poly_gcd(f, f.derivative(var))
    return _unit_normalize(exact_div(f, rad))
