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

Products run on a private integer kernel (Monagan and Pearce, CASC
2007): the operands are packed once, each exponent tuple into one int
whose fields are wide enough that adding keys adds exponents, and each
coefficient into an integer numerator over one common denominator.  The
kernel multiplies and accumulates on those int maps and converts back
to Fractions only at the end, keeping the key order of the loop on
exponent tuples.  tower.tower_norm runs its whole determinant expansion
on the same packed form.

Remainders run on a second packing, one int per monomial that compares
as a TermOrder does and shifts and tests divisibility by integer
operations.  reduce_full is the one reduction loop on it: poly_divmod,
tower.normal_form and ideal.buchberger all run it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError, ResourceError, StructuralError

NEG_INF = float("-inf")
# largest degree a packed monomial key or a dense coefficient list may hold
CAP = (1 << 31) - 1

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
            # not _iadd: the input may hold zero coefficients
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
        _iadd(out, other.coeffs)
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
        (a, b), denom, width = _pack((self, other), 2)
        return _unpack(self.table, _mul_packed(a, b), denom * denom, width)

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
        out = {
            expo[:var] + (0,) + expo[var + 1:]: c
            for expo, c in self.coeffs.items()
            if expo[var] == k
        }
        return self._raw(self.table, out)

    def univariate_coeffs(self, var: int) -> list["MultiPoly"]:
        """Dense coefficient list in var, ascending; [] for zero.

        A degree past CAP raises ResourceError instead of allocating.
        """
        d = self.degree(var)
        if d is NEG_INF:
            return []
        if d > CAP:
            raise ResourceError(f"degree {d} in {self.table.names[var]} too large for a dense list")
        return [self.coeff_poly(var, k) for k in range(int(d) + 1)]

    def derivative(self, var: int) -> "MultiPoly":
        out = {
            expo[:var] + (expo[var] - 1,) + expo[var + 1:]: c * expo[var]
            for expo, c in self.coeffs.items()
            if expo[var]
        }
        return self._raw(self.table, out)

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
            out[tuple(new_expo)] = c
        return MultiPoly._raw(new_table, out)

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
# integer kernel: packed exponents, integer numerators over one denominator

Packed = dict[int, int]  # packed exponent -> numerator


def _pack(polys: Sequence[MultiPoly], reach: int) -> tuple[list[Packed], int, int]:
    """Integer form of polys for products of up to reach factors among them.

    Returns (terms, D, width).  terms[i] maps every exponent tuple e of
    polys[i], packed as the sum of e[v] << (v * width), to its
    coefficient times D, the lcm of all denominators.  Each field holds
    the largest exponent a product of reach factors can reach, so
    adding keys adds exponents and no field carries into the next.
    """
    top, denom = 0, 1
    for f in polys:
        for e in f.coeffs:
            m = max(e) if e else 0
            if m > top:
                top = m
        for c in f.coeffs.values():
            if c.denominator != 1:
                denom = math.lcm(denom, c.denominator)
    width = (reach * top).bit_length() or 1
    terms = []
    for f in polys:
        packed: Packed = {}
        for e, c in f.coeffs.items():
            k = 0
            for x in reversed(e):
                k = (k << width) | x
            packed[k] = c.numerator * (denom // c.denominator)
        terms.append(packed)
    return terms, denom, width


def _unpack(table: VarTable, terms: Packed, denom: int, width: int) -> MultiPoly:
    """The polynomial with coefficient terms[k] / denom at each key k, in key order."""
    shifts = range(0, width * table.arity, width)
    mask = (1 << width) - 1
    out: dict[Exponent, Fraction] = {}
    for k, n in terms.items():
        c = Fraction(n) if denom == 1 else Fraction(n, denom)
        out[tuple([(k >> s) & mask for s in shifts])] = c
    return MultiPoly._raw(table, out)


def _mul_packed(a: Packed, b: Packed) -> Packed:
    """Product of packed maps: a outer, b inner, a key deleted when its
    sum reaches zero, so keys come in the order of the tuple loop."""
    out: Packed = {}
    get = out.get
    for k1, n1 in a.items():
        for k2, n2 in b.items():
            k = k1 + k2
            v = get(k, 0) + n1 * n2
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _iadd(acc: dict, b: Mapping) -> None:
    """acc += b in place, with the key order of the polynomial sum; b
    holds no zero coefficient."""
    get = acc.get
    for k, n in b.items():
        v = get(k, 0) + n
        if v:
            acc[k] = v
        else:
            del acc[k]


def binomial_norm(coeffs: Sequence[MultiPoly], g: MultiPoly) -> MultiPoly:
    """Norm of f = sum coeffs[k] * Delta^k modulo Delta^e - g, e = len(coeffs).

    The norm is the determinant of the matrix M of multiplication by f
    on the basis 1, Delta, ..., Delta^(e-1).  Its entry in row r,
    column j is c_(r-j) for r >= j and g*c_(r-j+e) for r < j.  The
    entries are packed once as integer polynomials over one denominator
    D, so M = N / D and det M = det N / D^e.  det N is expanded column
    by column over row subsets, minors[rows] being the minor on those
    rows and the first |rows| columns: e*2^(e-1) integer products and
    no division.  g and every coefficient share one table.
    """
    e = len(coeffs)
    gc = [MultiPoly.zero(g.table)] + [c if c.is_zero() else g * c for c in coeffs[1:]]
    entries, denom, width = _pack([*coeffs, *gc], e)
    c, gc = entries[:e], entries[e:]
    minors = {1 << r: cr for r, cr in enumerate(c) if cr}  # column 0's 1x1 minors
    for j in range(1, e):
        wider: dict[int, Packed] = {}
        for rows, minor in minors.items():
            for r in range(e):
                bit = 1 << r
                entry = c[r - j] if r >= j else gc[r - j + e]
                if rows & bit or not entry:
                    continue
                term = _mul_packed(entry, minor)
                if (rows >> r).bit_count() % 2:  # rows below r in the minor
                    term = {k: -v for k, v in term.items()}
                key = rows | bit
                if key in wider:
                    _iadd(wider[key], term)
                else:
                    wider[key] = term
        minors = {rows: m for rows, m in wider.items() if m}
    return _unpack(g.table, minors.get((1 << e) - 1, {}), denom**e, width)


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
# term orders and reduction on packed order keys

_FIELD = (1 << 32) - 1
Terms = dict[int, Fraction]  # packed key -> coefficient
Lead = tuple[Exponent, int, Fraction, int]  # exponent, key, coefficient, divisor mask


@dataclass(frozen=True)
class TermOrder:
    """Grevlex on an eliminated block of variables, then grevlex on the rest.

    priority lists variable indices from most to least significant; the
    first `split` entries form the eliminated block, so split 0 is plain
    grevlex.  key(e) packs e into one int that compares as the order
    does: 32-bit fields, most significant first, holding for each block
    its degree, then CAP - e[v] for its variables, least significant
    first.  The top bit of each field is a guard, clear in every key;
    key raises ResourceError when a block degree exceeds CAP.  Keys are
    affine, key(a + b) = key(a) + key(b) - key(0), and with masks =
    (emask, eguard, guards), a divides b exactly when every eguard bit
    survives ((key(a) & emask) | eguard) - (key(b) & emask).  key,
    unpack (its inverse) and masks are built once, at construction.
    """

    table: VarTable
    priority: tuple[int, ...]
    split: int = 0
    key: Callable[[Exponent], int] = field(init=False, repr=False, compare=False)
    unpack: Callable[[int], Exponent] = field(init=False, repr=False, compare=False)
    masks: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if sorted(self.priority) != list(range(self.table.arity)):
            raise StructuralError("order priority must be a permutation of the variables")
        if not 0 <= self.split <= len(self.priority):
            raise StructuralError("block split out of range")
        blocks = [b for b in (self.priority[: self.split], self.priority[self.split :]) if b]
        shifts, weights, pos = [0] * self.table.arity, [0] * self.table.arity, 0
        for blk in reversed(blocks):  # least significant field first
            top = pos + 32 * len(blk)  # the block degree's field
            for v, p in zip(blk, range(pos, top, 32)):
                shifts[v], weights[v] = p, (1 << top) - (1 << p)
            pos = top + 32
        base = sum(CAP << s for s in shifts)
        emask = sum(_FIELD << s for s in shifts)
        guards = sum(1 << p for p in range(31, pos, 32))

        def key(e: Exponent) -> int:
            if sum(e) > CAP and any(sum(e[v] for v in b) > CAP for b in blocks):
                raise ResourceError("exponent too large for a packed monomial key")
            return base + sum(map(mul, e, weights))

        def unpack(k: int) -> Exponent:
            return tuple(CAP - ((k >> s) & _FIELD) for s in shifts)

        for name, value in (("key", key), ("unpack", unpack), ("masks", (emask, guards & emask, guards))):
            object.__setattr__(self, name, value)

    @staticmethod
    def grevlex(table: VarTable) -> "TermOrder":
        """Last table variable most significant, parameter last."""
        return TermOrder(table, tuple(reversed(range(table.arity))))

    @staticmethod
    def block(table: VarTable, eliminate: Sequence[str], keep: Sequence[str]) -> "TermOrder":
        if sorted((*eliminate, *keep)) != sorted(table.names):
            raise StructuralError("block order must partition the variable table")
        prio = tuple(table.index(n) for n in (*eliminate, *keep))
        return TermOrder(table, prio, split=len(eliminate))

    def leading(self, f: MultiPoly) -> tuple[Exponent, Fraction]:
        if f.is_zero():
            raise DomainError("zero polynomial has no leading term")
        expo = max(f.coeffs, key=self.key)
        return expo, f.coeffs[expo]

    def pack(self, f: MultiPoly) -> Terms:
        """f's term map keyed by packed order keys."""
        return {self.key(e): c for e, c in f.coeffs.items()}

    def poly(self, terms: Terms) -> MultiPoly:
        """The polynomial of a packed term map, in the map's key order."""
        return MultiPoly._raw(self.table, {self.unpack(k): c for k, c in terms.items()})

    def lead(self, f: Terms) -> Lead:
        """Leading exponent, key, coefficient and divisor mask of nonzero f."""
        k = max(f)
        return self.unpack(k), k, f[k], (k & self.masks[0]) | self.masks[1]


class Budget:
    """Reduction steps left; spending past zero raises ResourceError."""

    def __init__(self, limit: float):
        self.remaining = limit

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise ResourceError("Groebner step budget exhausted")


def _sub_shifted(acc: Terms, g: Terms, lead: int, shift: int, q: Fraction, guards: int) -> None:
    """acc -= q * x^s * g in place, skipping g's lead term, which the
    caller has already cancelled; shift = key(s) - key(0).  Keys keep
    their places and new ones follow in g's order."""
    for k, c in g.items():
        if k == lead:
            continue
        k += shift
        if k & guards:
            raise ResourceError("exponent too large for a packed monomial key")
        v = acc.get(k, 0) - q * c
        if v:
            acc[k] = v
        else:
            del acc[k]


def reduce_full(
    f: Terms, basis: Sequence[Terms], leads: Sequence[Lead], order: TermOrder, budget: Budget, quot: Terms | None = None
) -> Terms:
    """Fully reduce f: no remaining monomial divisible by a basis lead.

    The tail's leading term is reduced by the first basis element whose
    lead divides it, one budget step each, or else moved to the result.
    With one divisor, quot collects each step's multiplier q at the key
    shift key(s) - key(0) of its monomial x^s.
    """
    emask, eguard, guards = order.masks
    tail = dict(f)
    done: Terms = {}
    while tail:
        k = max(tail)
        c = tail.pop(k)
        m = k & emask
        for g, (_, lk, lc, mask) in zip(basis, leads):
            if (mask - m) & eguard == eguard:
                budget.spend()
                q = c / lc
                if quot is not None:
                    quot[k - lk] = q
                _sub_shifted(tail, g, lk, k - lk, q, guards)
                break
        else:
            done[k] = c
    return done


def spoly(f: Terms, f_lead: Lead, g: Terms, g_lead: Lead, order: TermOrder) -> Terms:
    """lcm/lt(f) * f - lcm/lt(g) * g; the two lead terms cancel."""
    (fe, fk, fc, _), (ge, gk, gc, _) = f_lead, g_lead
    lcm, guards = order.key(tuple(map(max, fe, ge))), order.masks[2]
    acc: Terms = {}
    _sub_shifted(acc, f, fk, lcm - fk, -1 / fc, guards)
    _sub_shifted(acc, g, gk, lcm - gk, 1 / gc, guards)
    return acc


# ----------------------------------------------------------------------
# exact division


def poly_divmod(
    f: MultiPoly, g: MultiPoly, budget: Budget | None = None
) -> tuple[MultiPoly, MultiPoly]:
    """Quotient and remainder of f by g under grevlex.

    f = quot * g + rem, and g's grevlex leading monomial divides no
    term of rem; in one variable this is the usual division over Q, and
    an exact quotient is the same under every order.  Each step adds
    one term to the quotient and spends one step of budget (None: no
    limit), which raises ResourceError once it runs out.
    """
    f._check(g)
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    order = TermOrder.grevlex(f.table)
    gk = order.pack(g)
    quot: Terms = {}
    budget = Budget(math.inf) if budget is None else budget
    rem = reduce_full(order.pack(f), [gk], [order.lead(gk)], order, budget, quot)
    zero = order.key((0,) * f.table.arity)
    return order.poly({s + zero: q for s, q in quot.items()}), order.poly(rem)


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Quotient f/g when the division is exact; DomainError otherwise."""
    f._check(g)
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    if g.is_const():
        return f * (1 / g.const_value())
    quot, rem = poly_divmod(f, g)
    if rem:
        raise DomainError("division is not exact")
    return quot


# ----------------------------------------------------------------------
# pseudo-division


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
    """f divided by its content in var, then unit-normalized; 0 stays 0."""
    if f.is_zero():
        return f
    return _unit_normalize(exact_div(f, content_wrt(f, var)))


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Multivariate gcd over the rationals by the primitive PRS.

    Each pseudo-remainder is replaced by its unit-normalized primitive
    part, or its coefficient size would roughly double at every step.
    The result is unit-normalized: integer coefficients, content 1,
    positive leading graded lex coefficient.  gcd(0, 0) = 0 and the gcd
    of anything with a nonzero constant is 1.
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
    cf = content_wrt(f, x)
    cg = content_wrt(g, x)
    c = poly_gcd(cf, cg)
    a = exact_div(f, cf)
    b = exact_div(g, cg)
    if a.degree(x) < b.degree(x):
        a, b = b, a
    while not b.is_zero():
        a, b = b, primitive_wrt(prem(a, b, x), x)
    return _unit_normalize(c * a)


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
