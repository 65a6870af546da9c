"""Radical towers and the operators built on them.

A tower is a chain of root extractions over the rational function field
in t: level i adjoins a root of Delta_i^e_i = g_i, where the radicand
g_i may mention t and the earlier radicals only.  This module provides

  * validation and weight assignment (the weight of a radical is the
    weighted degree of its radicand divided by its exponent, so that
    Delta_i^e_i and g_i weigh the same),
  * the normal form N(f), reducing every radical exponent below e_i
    by one arith.reduce_full per level,
  * the normalized remainder R(f), the univariate polynomial obtained
    by eliminating the radicals one level at a time: each step is a
    tower norm (the resultant against the monic tower polynomial),
    reduced modulo the tower, and the steps make up the elimination
    trace,
  * the guilt and suspicion predicates on which the surjectivity
    certificates rest.

Polynomials handed to these operators may live over a table larger
than the tower's own (extra coordinates, implicitize's z among them);
those variables are carried through inertly with weight 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, prod
from typing import Sequence

from .arith import (
    Budget,
    MultiPoly,
    Role,
    TermOrder,
    VarTable,
    WeightVector,
    binomial_norm,
    leading_form,
    reduce_full,
    weighted_degree,
)
from .errors import DomainError, InputError, StructuralError


@dataclass(frozen=True)
class RadicalLevel:
    """One root extraction: name^exponent = radicand."""

    name: str
    exponent: int
    radicand: MultiPoly


class RadicalTower:
    """A validated chain of radical levels over one parameter variable.

    Immutable once built; suspicion of the radicands is cached because
    the recursive definition revisits lower levels.
    """

    def __init__(self, table: VarTable, levels: Sequence[RadicalLevel]):
        levels = tuple(levels)
        if table.arity != 1 + len(levels):
            raise StructuralError("tower table must hold the parameter and one variable per level")
        if table.roles[0] is not Role.PARAMETER:
            raise StructuralError("first tower variable must be the parameter")
        for i, level in enumerate(levels):
            if table.names[1 + i] != level.name or table.roles[1 + i] is not Role.RADICAL:
                raise StructuralError(f"table does not list radical {level.name!r} at position {i + 1}")
        self.table = table
        self.levels = levels
        self._validate()
        self.weights = self._compute_weights()
        self.nested = any(
            level.radicand.variables() - {0} for level in levels
        )
        self._level_suspicion: dict[int, bool] = {}

    # ------------------------------------------------------------------

    def _validate(self) -> None:
        for i, level in enumerate(self.levels):
            if not isinstance(level.exponent, int) or level.exponent < 2:
                raise InputError(f"level {level.name}: exponent must be an integer >= 2")
            g = level.radicand
            if g.table != self.table:
                raise StructuralError(f"level {level.name}: radicand over a different table")
            if g.is_zero():
                raise InputError(f"level {level.name}: radicand is zero")
            if g.is_const():
                raise InputError(f"level {level.name}: radicand is constant, the root is not a new function of t")
            allowed = set(range(1 + i))
            late = g.variables() - allowed
            if late:
                names = ", ".join(self.table.names[j] for j in sorted(late))
                raise InputError(f"level {level.name}: radicand references later radical(s) {names}")
            for j in range(i):
                if g.degree(1 + j) >= self.levels[j].exponent:
                    raise InputError(
                        f"level {level.name}: radicand is not reduced, "
                        f"degree in {self.levels[j].name} reaches its exponent"
                    )

    def _compute_weights(self) -> WeightVector:
        weights: list[Fraction] = [Fraction(1)]
        for level in self.levels:
            wdeg = max(
                sum(w * k for w, k in zip(weights, expo) if k)
                for expo in level.radicand.coeffs
            )
            weights.append(Fraction(wdeg, level.exponent))
        return WeightVector(self.table, tuple(weights))

    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.levels)

    @property
    def exponent_product(self) -> int:
        return prod(level.exponent for level in self.levels)

    def level_poly(self, i: int, table: VarTable | None = None) -> MultiPoly:
        """The tower polynomial Delta_i^e_i - g_i, optionally transported."""
        level = self.levels[i]
        expo = tuple(level.exponent if n == level.name else 0 for n in self.table.names)
        e = MultiPoly.monomial(self.table, expo) - level.radicand
        return e if table is None or table == self.table else e.transport(table)

    def check_table(self, table: VarTable) -> None:
        """Every tower variable must appear in table with its role."""
        for name, role in zip(self.table.names, self.table.roles):
            i = table.index(name)
            if table.roles[i] is not role:
                raise StructuralError(f"variable {name!r} has the wrong role in this table")

    def weight_vector(self, table: VarTable | None = None) -> WeightVector:
        """Tower weights over table; non-tower variables weigh 0."""
        if table is None or table == self.table:
            return self.weights
        self.check_table(table)
        by_name = dict(zip(self.table.names, self.weights.weights))
        return WeightVector(
            table,
            tuple(by_name.get(n, Fraction(0)) for n in table.names),
        )

    def level_is_suspicious(self, i: int) -> bool:
        if i not in self._level_suspicion:
            report = is_suspicious(self.levels[i].radicand, self)
            self._level_suspicion[i] = report.suspicious
        return self._level_suspicion[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalTower):
            return NotImplemented
        return self.table == other.table and self.levels == other.levels

    def __hash__(self) -> int:
        return hash((self.table, self.levels))

    def __repr__(self) -> str:
        inner = "; ".join(
            f"{lv.name}^{lv.exponent} = {lv.radicand}" for lv in self.levels
        )
        return f"RadicalTower({inner or self.table.names[0]})"


# ----------------------------------------------------------------------
# normal form and normalized remainder


def normal_form(f: MultiPoly, tower: RadicalTower) -> MultiPoly:
    """Reduce every radical exponent below its level exponent.

    From the top level down, f is reduced modulo Delta_i^e_i - g_i under
    the block order that puts Delta_i first, where Delta_i^e_i leads
    because g_i has no Delta_i.  Reducing at level i only introduces
    powers of earlier radicals, which later levels clean up.
    """
    tower.check_table(f.table)
    names = f.table.names
    for i in reversed(range(tower.m)):
        level = tower.levels[i]
        if f.degree(names.index(level.name)) < level.exponent:
            continue
        order = TermOrder.block(f.table, [level.name], [n for n in names if n != level.name])
        (fk, denom), (g, _) = order.pack(f), order.pack(tower.level_poly(i, f.table))
        f = order.poly(*reduce_full(fk, denom, [g], [order.lead(g)], order, Budget(inf)))
    return f


def tower_norm(f: MultiPoly, level: RadicalLevel) -> MultiPoly:
    """Res_Delta(Delta^e - g, f) for f of degree below e in Delta: the
    tower polynomial is monic in Delta, so this is the norm of f."""
    var = f.table.index(level.name)
    e = level.exponent
    c = f.univariate_coeffs(var)
    if len(c) > e:
        raise DomainError(f"norm needs a polynomial reduced below {level.name}^{e}")
    g = level.radicand if f.table == level.radicand.table else level.radicand.transport(f.table)
    return binomial_norm(c + [MultiPoly.zero(f.table)] * (e - len(c)), g)


def remainder_trace(f: MultiPoly, tower: RadicalTower) -> list[MultiPoly]:
    """The elimination sequence f_m = N(f), ..., f_0 = R(f).

    Each step takes the tower norm of the running value at the highest
    radical still present, which is its resultant with that level's
    tower polynomial, and reduces it modulo the tower.  A norm depends
    only on its argument modulo the monic tower polynomial, so reducing
    between levels leaves R(f) unchanged and keeps every entry of the
    trace in normal form.
    """
    f_k = normal_form(f, tower)
    trace = [f_k]
    for i in reversed(range(tower.m)):
        f_k = normal_form(tower_norm(f_k, tower.levels[i]), tower)
        trace.append(f_k)
    return trace


def normalized_remainder(f: MultiPoly, tower: RadicalTower) -> MultiPoly:
    """R(f): radicals eliminated, a polynomial in t (and inert extras)."""
    return remainder_trace(f, tower)[-1]


# ----------------------------------------------------------------------
# guilt and suspicion


@dataclass(frozen=True)
class GuiltReport:
    """Outcome of the degree-drop test for one polynomial; remainder is R(f)."""

    expected_degree: Fraction
    actual_degree: int | float
    guilty: bool
    remainder: MultiPoly


def is_guilty(f: MultiPoly, tower: RadicalTower) -> GuiltReport:
    """Does R(f) lose degree against the generic bound deg_w(f)*e_1...e_m?"""
    if f.is_zero():
        raise DomainError("guilt is undefined for the zero polynomial")
    trace = remainder_trace(f, tower)
    nf = trace[0]
    if nf.is_zero():
        raise DomainError("polynomial vanishes modulo the tower")
    expected = weighted_degree(nf, tower.weight_vector(f.table)) * tower.exponent_product
    # R(f) holds no radical, so its weighted degree is its degree in t
    actual = trace[-1].degree(f.table.index(tower.table.names[0]))
    return GuiltReport(expected, actual, expected > actual, trace[-1])


@dataclass(frozen=True)
class SuspicionReport:
    """Outcome of the syntactic over-approximation of guilt."""

    suspicious: bool
    reason: str | None  # "multiple-leading-terms" or "suspicious-radical"
    level: int | None  # offending tower level for the radical clause
    lead: MultiPoly


def is_suspicious(f: MultiPoly, tower: RadicalTower) -> SuspicionReport:
    """Tied leading terms, or a suspicious radicand in the lone leader.

    Recursive through the tower: a radical counts as tainted when its
    own radicand is suspicious.
    """
    nf = normal_form(f, tower)
    if nf.is_zero():
        raise DomainError("suspicion is undefined for the zero polynomial")
    wv = tower.weight_vector(f.table)
    lead = leading_form(nf, wv)
    if len(lead.coeffs) >= 2:
        return SuspicionReport(True, "multiple-leading-terms", None, lead)
    (expo,) = lead.coeffs
    for i, level in enumerate(tower.levels):
        var = f.table.index(level.name)
        if expo[var] and tower.level_is_suspicious(i):
            return SuspicionReport(True, "suspicious-radical", i, lead)
    return SuspicionReport(False, None, None, lead)
