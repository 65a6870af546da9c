"""Groebner bases over the rationals, sized for desk-scale ideals.

Buchberger's algorithm with the normal pair-selection strategy and the
coprime-leading-monomial criterion, always returning the reduced basis
(unique for a given term order, so recomputation and permutation of the
generators reproduce it bit for bit).  Each basis element's leading
term is computed once, when the element joins the basis, and every
reduction step subtracts its monomial multiple in place from one term
map.  A step budget guards against runaway computations; exceeding it
raises ResourceError so callers can degrade to cheaper sufficient checks.

Term orders: graded reverse lexicographic, and a block order (grevlex
within each block) whose first block is eliminated.  A monomial
containing an eliminated variable is larger than any monomial without
one, which is what makes elimination ideals drop out of a basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .arith import Exponent, MultiPoly, VarTable, _sub_monomial_multiple
from .errors import DomainError, ResourceError, StructuralError

DEFAULT_STEP_BUDGET = 10**6


@dataclass(frozen=True)
class TermOrder:
    """Grevlex on an eliminated block of variables, then grevlex on the rest.

    priority lists variable indices from most to least significant; the
    first `split` entries form the eliminated block, so split 0 is plain
    grevlex.  key is built once, at construction.
    """

    table: VarTable
    priority: tuple[int, ...]
    split: int = 0
    key: Callable[[Exponent], tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if sorted(self.priority) != list(range(self.table.arity)):
            raise StructuralError("order priority must be a permutation of the variables")
        if not 0 <= self.split <= len(self.priority):
            raise StructuralError("block split out of range")
        # each block least significant variable first: the reverse-lex tie-break
        head = tuple(reversed(self.priority[: self.split]))
        tail = tuple(reversed(self.priority[self.split :]))
        if head:
            def key(e: Exponent) -> tuple:
                h, t = [-e[v] for v in head], [-e[v] for v in tail]
                return (-sum(h), h, -sum(t), t)
        else:
            def key(e: Exponent) -> tuple:
                return (sum(e), [-e[v] for v in tail])
        object.__setattr__(self, "key", key)

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


@dataclass(frozen=True)
class IdealBasis:
    """A reduced Groebner basis, sorted by decreasing leading term."""

    generators: tuple[MultiPoly, ...]
    order: TermOrder


class _Budget:
    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise ResourceError("Groebner step budget exhausted")


Lead = tuple[Exponent, Fraction]


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _reduce_full(
    f: MultiPoly, basis: list[MultiPoly], leads: list[Lead], order: TermOrder, budget: _Budget
) -> MultiPoly:
    """Fully reduce f: no remaining monomial divisible by a basis lead.

    leads[k] is the leading (exponent, coefficient) of basis[k].  The
    tail's leading term is reduced by the first basis element whose
    lead divides it, or else moved to the result.
    """
    tail = dict(f.coeffs)
    done: dict[Exponent, Fraction] = {}
    while tail:
        expo = max(tail, key=order.key)
        c = tail.pop(expo)
        for g, (lme, lmc) in zip(basis, leads):
            if _divides(lme, expo):
                budget.spend()
                _sub_monomial_multiple(tail, g, lme, expo, c / lmc)
                break
        else:
            done[expo] = c
    return MultiPoly(f.table, done)


def _spoly(f: MultiPoly, f_lead: Lead, g: MultiPoly, g_lead: Lead) -> MultiPoly:
    """lcm/lt(f) * f - lcm/lt(g) * g; the two lead terms cancel."""
    (fe, fc), (ge, gc) = f_lead, g_lead
    lcm = tuple(map(max, fe, ge))
    acc: dict[Exponent, Fraction] = {}
    _sub_monomial_multiple(acc, f, fe, lcm, -1 / fc)
    _sub_monomial_multiple(acc, g, ge, lcm, 1 / gc)
    return MultiPoly(f.table, acc)


def buchberger(
    gens: Sequence[MultiPoly],
    order: TermOrder,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> IdealBasis:
    """Reduced Groebner basis; deterministic for a fixed order."""
    work = [g for g in gens if not g.is_zero()]
    for g in work:
        if g.table != order.table:
            raise StructuralError("generator over a different table than the order")
    budget = _Budget(step_budget)
    basis: list[MultiPoly] = []
    leads: list[Lead] = []
    pairs: list[tuple[int, int, int]] = []  # (degree of the lead lcm, i, j)

    def add(r: MultiPoly) -> None:
        lead = order.leading(r)
        for i, (e, _) in enumerate(leads):
            heapq.heappush(pairs, (sum(map(max, e, lead[0])), i, len(basis)))
        basis.append(r)
        leads.append(lead)

    for g in work:
        # interreduce the inputs a little; keeps pair counts down
        r = _reduce_full(g, basis, leads, order, budget) if basis else g
        if not r.is_zero():
            add(r)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if all(a == 0 or b == 0 for a, b in zip(leads[i][0], leads[j][0])):
            continue  # coprime leading monomials: S-poly reduces to zero
        budget.spend()
        r = _reduce_full(_spoly(basis[i], leads[i], basis[j], leads[j]), basis, leads, order, budget)
        if not r.is_zero():
            add(r)
    # minimal: drop elements whose lead another lead divides
    keep = [
        i
        for i, (e, _) in enumerate(leads)
        if not any(j != i and _divides(d, e) and (d != e or j < i) for j, (d, _) in enumerate(leads))
    ]
    # interreduce tails against the other kept elements and make monic;
    # no other kept lead divides an element's lead, so the lead survives
    reduced: list[tuple[tuple, MultiPoly]] = []
    for i in keep:
        others = [j for j in keep if j != i]
        g = basis[i]
        if others:
            g = _reduce_full(g, [basis[j] for j in others], [leads[j] for j in others], order, budget)
        expo, lc = leads[i]
        reduced.append((order.key(expo), g * (1 / lc)))
    reduced.sort(key=lambda kr: kr[0], reverse=True)
    return IdealBasis(tuple(g for _, g in reduced), order)


# ----------------------------------------------------------------------
# consumers


def ideal_is_trivial(
    gens: Sequence[MultiPoly], step_budget: int = DEFAULT_STEP_BUDGET
) -> bool:
    """Is the ideal the whole ring?  Decided by a grevlex basis."""
    nonzero = [g for g in gens if not g.is_zero()]
    if any(g.is_const() for g in nonzero):
        return True
    if not nonzero:
        return False
    basis = buchberger(nonzero, TermOrder.grevlex(nonzero[0].table), step_budget)
    return len(basis.generators) == 1 and basis.generators[0].is_const()


def elimination_ideal(
    gens: Sequence[MultiPoly],
    keep: Sequence[str],
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[MultiPoly, ...]:
    """Generators of the ideal's intersection with the kept variables."""
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return ()
    table = nonzero[0].table
    keep = list(keep)
    eliminate = [n for n in table.names if n not in keep]
    order = TermOrder.block(table, eliminate, keep)
    basis = buchberger(nonzero, order, step_budget)
    keep_idx = {table.index(n) for n in keep}
    return tuple(g for g in basis.generators if g.variables() <= keep_idx)


def is_zero_dimensional(basis: IdealBasis) -> bool:
    """Finiteness of the variety: every variable has a pure-power lead."""
    gens = basis.generators
    if any(g.is_const() and not g.is_zero() for g in gens):
        return True  # unit ideal, empty variety
    if not gens:
        return False
    table = basis.order.table
    covered = set()
    for g in gens:
        expo = basis.order.leading(g)[0]
        support = [v for v, k in enumerate(expo) if k]
        if len(support) == 1:
            covered.add(support[0])
    return covered == set(range(table.arity))
