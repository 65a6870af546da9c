"""Groebner bases over the rationals, sized for desk-scale ideals.

Buchberger's algorithm with the normal pair-selection strategy and the
coprime-leading-monomial criterion, always returning the reduced basis
(unique for a given term order, so recomputation and permutation of the
generators reproduce it bit for bit).  The term orders, packed
monomial keys and the reduction loop live in arith (TermOrder,
reduce_full, spoly); this module holds the pair loop and its
consumers.  The loop runs on integer coefficients: each basis element
is kept as a primitive integer multiple, S-polynomials and remainders
are taken up to a constant, and each element of the answer is made
monic once, by its own reduced lead.  A block degree past CAP =
2^31 - 1 does not fit a key, and a step budget guards against runaway
computations; both raise ResourceError so callers can degrade to
cheaper sufficient checks.

Term orders: graded reverse lexicographic, and a block order (grevlex
within each block) whose first block is eliminated.  A monomial
containing an eliminated variable is larger than any monomial without
one, which is what makes elimination ideals drop out of a basis.
"""

from __future__ import annotations

import heapq
import math
from operator import le
from typing import Sequence

from .arith import Budget, Lead, MultiPoly, TermOrder, Terms, reduce_full, spoly
from .errors import StructuralError

DEFAULT_STEP_BUDGET = 10**6


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
    budget = Budget(step_budget)
    basis: list[Terms] = []
    leads: list[Lead] = []
    pairs: list[tuple[int, int, int]] = []  # (degree of the lead lcm, i, j)

    def add(r: Terms) -> None:
        h = math.gcd(*r.values())
        if h > 1:
            r = {k: c // h for k, c in r.items()}
        lead = order.lead(r)
        for i, (e, *_) in enumerate(leads):
            heapq.heappush(pairs, (sum(map(max, e, lead[0])), i, len(basis)))
        basis.append(r)
        leads.append(lead)

    for g in work:
        # interreduce the inputs a little; keeps pair counts down
        r = order.pack(g)[0]
        r = reduce_full(r, 1, basis, leads, order, budget)[0] if basis else r
        if r:
            add(r)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if all(a == 0 or b == 0 for a, b in zip(leads[i][0], leads[j][0])):
            continue  # coprime leading monomials: S-poly reduces to zero
        budget.spend()
        s = spoly(basis[i], leads[i], basis[j], leads[j], order)
        r = reduce_full(s, 1, basis, leads, order, budget)[0]
        if r:
            add(r)
    # minimal: drop elements whose lead another lead divides
    keep = [
        i
        for i, (e, *_) in enumerate(leads)
        if not any(j != i and all(map(le, d, e)) and (d != e or j < i) for j, (d, *_) in enumerate(leads))
    ]
    # interreduce tails against the other kept elements, make monic by
    # its own reduced lead and unpack; no other kept lead divides an
    # element's lead, so it survives
    reduced: list[tuple[int, MultiPoly]] = []
    for i in keep:
        others = [j for j in keep if j != i]
        g = basis[i]
        if others:
            g = reduce_full(g, 1, [basis[j] for j in others], [leads[j] for j in others], order, budget)[0]
        lk = leads[i][1]
        reduced.append((lk, order.poly(g, g[lk])))
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

