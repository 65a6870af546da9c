"""Groebner bases over the rationals, sized for desk-scale ideals.

Buchberger's algorithm with the normal pair-selection strategy and the
coprime-leading-monomial criterion, always returning the reduced basis
(unique for a given term order, so recomputation and permutation of the
generators reproduce it bit for bit).  Inside it a monomial is one int,
its packed order key (Monagan and Pearce, CASC 2007; layout and guard
bits in TermOrder), each basis lead is found once, and every reduction
step subtracts its monomial multiple in place from one term map.  A
block degree past CAP = 2^31 - 1 does not fit a key, and a step budget
guards against runaway computations; both raise ResourceError so
callers can degrade to cheaper sufficient checks.

Term orders: graded reverse lexicographic, and a block order (grevlex
within each block) whose first block is eliminated.  A monomial
containing an eliminated variable is larger than any monomial without
one, which is what makes elimination ideals drop out of a basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from operator import le, mul
from typing import Callable, Sequence

from .arith import CAP, Exponent, MultiPoly, VarTable
from .errors import DomainError, ResourceError, StructuralError

DEFAULT_STEP_BUDGET = 10**6
_FIELD = (1 << 32) - 1


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


class _Budget:
    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise ResourceError("Groebner step budget exhausted")


Terms = dict[int, Fraction]  # packed key -> coefficient
Lead = tuple[Exponent, int, Fraction, int]  # exponent, key, coefficient, divisor mask


def _lead(order: TermOrder, f: Terms) -> Lead:
    k = max(f)
    return order.unpack(k), k, f[k], (k & order.masks[0]) | order.masks[1]


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


def _reduce_full(f: Terms, basis: list[Terms], leads: list[Lead], order: TermOrder, budget: _Budget) -> Terms:
    """Fully reduce f: no remaining monomial divisible by a basis lead.
    The tail's leading term is reduced by the first basis element whose
    lead divides it, or else moved to the result."""
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
                _sub_shifted(tail, g, lk, k - lk, c / lc, guards)
                break
        else:
            done[k] = c
    return done


def _spoly(f: Terms, f_lead: Lead, g: Terms, g_lead: Lead, order: TermOrder) -> Terms:
    """lcm/lt(f) * f - lcm/lt(g) * g; the two lead terms cancel."""
    (fe, fk, fc, _), (ge, gk, gc, _) = f_lead, g_lead
    lcm, guards = order.key(tuple(map(max, fe, ge))), order.masks[2]
    acc: Terms = {}
    _sub_shifted(acc, f, fk, lcm - fk, -1 / fc, guards)
    _sub_shifted(acc, g, gk, lcm - gk, 1 / gc, guards)
    return acc


def buchberger(
    gens: Sequence[MultiPoly],
    order: TermOrder,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[MultiPoly, ...]:
    """The reduced Groebner basis, monic and sorted by decreasing leading
    term; deterministic for a fixed order."""
    work = [g for g in gens if not g.is_zero()]
    for g in work:
        if g.table != order.table:
            raise StructuralError("generator over a different table than the order")
    budget = _Budget(step_budget)
    basis: list[Terms] = []
    leads: list[Lead] = []
    pairs: list[tuple[int, int, int]] = []  # (degree of the lead lcm, i, j)

    def add(r: Terms) -> None:
        lead = _lead(order, r)
        for i, (e, *_) in enumerate(leads):
            heapq.heappush(pairs, (sum(map(max, e, lead[0])), i, len(basis)))
        basis.append(r)
        leads.append(lead)

    for g in work:
        # interreduce the inputs a little; keeps pair counts down
        r = {order.key(e): c for e, c in g.coeffs.items()}
        r = _reduce_full(r, basis, leads, order, budget) if basis else r
        if r:
            add(r)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if all(a == 0 or b == 0 for a, b in zip(leads[i][0], leads[j][0])):
            continue  # coprime leading monomials: S-poly reduces to zero
        budget.spend()
        r = _reduce_full(_spoly(basis[i], leads[i], basis[j], leads[j], order), basis, leads, order, budget)
        if r:
            add(r)
    # minimal: drop elements whose lead another lead divides
    keep = [
        i
        for i, (e, *_) in enumerate(leads)
        if not any(j != i and all(map(le, d, e)) and (d != e or j < i) for j, (d, *_) in enumerate(leads))
    ]
    # interreduce tails against the other kept elements, make monic and
    # unpack; no other kept lead divides an element's lead, so it survives
    reduced: list[tuple[int, MultiPoly]] = []
    for i in keep:
        others = [j for j in keep if j != i]
        g = basis[i]
        if others:
            g = _reduce_full(g, [basis[j] for j in others], [leads[j] for j in others], order, budget)
        inv = 1 / leads[i][2]
        terms = {order.unpack(e): inv * c for e, c in g.items()}
        reduced.append((leads[i][1], MultiPoly._raw(order.table, terms)))
    reduced.sort(key=lambda kr: kr[0], reverse=True)
    return tuple(g for _, g in reduced)


# ----------------------------------------------------------------------
# consumers


def common_zeros(
    gens: Sequence[MultiPoly], step_budget: int = DEFAULT_STEP_BUDGET
) -> tuple[str, tuple[MultiPoly, ...]]:
    """Where the generators vanish together, as (kind, basis): kind is
    "empty", "finite" or "positive-dimensional" and basis the reduced
    grevlex basis, sorted by decreasing leading term.  A nonzero
    constant generator answers ("empty", (1,)) without a basis run.
    The variety is finite when every variable has a pure-power lead."""
    table = gens[0].table
    if any(g.is_const() and not g.is_zero() for g in gens):
        return "empty", (MultiPoly.one(table),)
    order = TermOrder.grevlex(table)
    basis = buchberger(gens, order, step_budget)
    if basis and basis[0].is_const():
        return "empty", basis
    supports = [[v for v, k in enumerate(order.leading(g)[0]) if k] for g in basis]
    covered = {s[0] for s in supports if len(s) == 1}
    return "finite" if len(covered) == table.arity else "positive-dimensional", basis


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
    keep_idx = {table.index(n) for n in keep}
    return tuple(g for g in buchberger(nonzero, order, step_budget) if g.variables() <= keep_idx)

