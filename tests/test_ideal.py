import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add
from random import Random

import pytest
import sympy

from radsurj import arith, ideal, tower
from radsurj.arith import CAP, Budget, MultiPoly, Role, TermOrder, VarTable, poly_rem, reduce_full, spoly
from radsurj.errors import ResourceError, StructuralError
from radsurj.ideal import buchberger, common_zeros, elimination_ideal
from radsurj.tower import RadicalLevel, RadicalTower, normal_form

from support import (
    T_ONLY,
    TD1,
    TD12,
    buchberger_ref,
    divides_ref,
    normal_form_ref,
    poly_divmod_ref,
    random_nonzero_poly,
    random_poly,
    random_poly_bounded,
    random_tower,
    reduce_full_ref,
    term_order_key_ref,
    to_sympy,
)

t = MultiPoly.var(TD1, "t")
d1 = MultiPoly.var(TD1, "d1")
GREVLEX = TermOrder.grevlex(TD1)
BLOCK = TermOrder.block(TD1, ["d1"], ["t"])


# ----------------------------------------------------------------------
# term orders

def test_order_validation():
    with pytest.raises(StructuralError):
        TermOrder(TD1, (1, 1))
    with pytest.raises(StructuralError):
        TermOrder(TD1, (1, 0), split=3)
    with pytest.raises(StructuralError):
        TermOrder.block(TD1, ["t"], ["t", "d1"])


def test_term_order_key_matches_reference():
    # the key built once at construction sorts every exponent set
    # exactly as the per-call dispatching key did
    rng = Random(6)
    for arity in range(1, 7):
        table = VarTable(
            tuple(f"v{i}" for i in range(arity)), (Role.PARAMETER,) + (Role.RADICAL,) * (arity - 1)
        )
        orders = [TermOrder.grevlex(table)]
        for split in range(arity + 1):
            names = list(table.names)
            rng.shuffle(names)
            orders.append(TermOrder.block(table, names[:split], names[split:]))
        for order in orders:
            for _ in range(20):
                expos = [
                    tuple(rng.randint(0, 3) for _ in range(arity))
                    for _ in range(rng.randint(1, 12))
                ]
                assert sorted(expos, key=order.key) == sorted(
                    expos, key=lambda e: term_order_key_ref(order, e)
                )


def test_grevlex_breaks_total_degree_ties():
    f = t**2 * d1 + t * d1**2
    # grevlex with d1 most significant: smaller t exponent wins the tie
    assert GREVLEX.leading(f)[0] == (1, 2)


def test_block_order_elimination_property():
    order = TermOrder.block(TD1, ["d1"], ["t"])
    f = d1 + t**9
    assert order.leading(f)[0] == (0, 1)


def _table(arity):
    return VarTable(
        tuple(f"v{i}" for i in range(arity)), (Role.PARAMETER,) + (Role.RADICAL,) * (arity - 1)
    )


def _orders(table, rng):
    """Grevlex and a block order at every split, blocks drawn at random."""
    orders = [TermOrder.grevlex(table)]
    for split in range(table.arity + 1):
        names = list(table.names)
        rng.shuffle(names)
        orders.append(TermOrder.block(table, names[:split], names[split:]))
    return orders


def test_packed_key_round_trips_shifts_and_divides():
    rng = Random(31)
    for arity in range(1, 7):
        for order in _orders(_table(arity), rng):
            zero = order.key((0,) * arity)
            for _ in range(40):
                top = rng.choice([3, CAP // (2 * arity + 2)])
                a, b = (tuple(rng.randint(0, top) for _ in range(arity)) for _ in range(2))
                if rng.random() < 0.3:  # b a multiple of a, so both answers occur
                    b = tuple(x + rng.randint(0, 2) for x in a)
                assert order.unpack(order.key(a)) == a
                assert order.key(tuple(map(add, a, b))) == order.key(a) + order.key(b) - zero
                # the reduction loop's mask test: x^b reduces to 0 by x^a iff a | b
                g = {order.key(a): 1}
                rest, _ = reduce_full({order.key(b): 1}, 1, [g], [order.lead(g)], order, Budget(1))
                assert (not rest) == divides_ref(a, b)


def test_packed_key_bounds():
    rng = Random(32)
    for arity in range(1, 7):
        for order in _orders(_table(arity), rng):
            for v in range(arity):
                e = tuple(CAP if w == v else 0 for w in range(arity))
                assert order.unpack(order.key(e)) == e
                with pytest.raises(ResourceError):
                    order.key(tuple(CAP + 1 if w == v else 0 for w in range(arity)))
    # input exponent 2^31
    with pytest.raises(ResourceError):
        buchberger([MultiPoly.monomial(TD1, (2**31, 0)) + d1], GREVLEX)
    # a reduction step shifts t^CAP past the bound: d1*t - t*(d1 - t^CAP)
    with pytest.raises(ResourceError):
        buchberger([d1 - t**CAP, d1 * t], BLOCK)
    # the lcm of t^CAP and d1*t has degree CAP + 1
    with pytest.raises(ResourceError):
        buchberger([t**CAP, d1 * t], GREVLEX)


# ----------------------------------------------------------------------
# buchberger basics

def test_single_generator_basis_is_itself_monic():
    g = 2 * d1**2 - 2 * (1 - t**2)
    basis = buchberger([g], GREVLEX)
    assert basis == (d1**2 + t**2 - 1,)


def test_pinned_hypothesis2_failure_instance():
    gens = [d1**2 - t, t * (d1 - 1), t - 1]
    basis = buchberger(gens, GREVLEX)
    assert basis == (d1 - 1, t - 1)
    assert common_zeros(gens) == ("finite", basis)


def test_coprime_constants_collapse_to_one():
    basis = buchberger([t, t - 1], BLOCK)
    assert basis == (MultiPoly.one(TD1),)
    assert common_zeros([t, t - 1]) == ("empty", basis)


def test_reduced_basis_invariant_under_permutation():
    gens = [d1**2 - t, t * d1 - 1, t**3 - d1]
    rng = Random(4)
    reference = buchberger(gens, GREVLEX)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, GREVLEX) == reference


def test_buchberger_self_criterion():
    gens = [d1**2 - t, t * d1 - 1]
    basis = buchberger(gens, GREVLEX)
    out = [GREVLEX.pack(g)[0] for g in basis]
    leads = [GREVLEX.lead(g) for g in out]
    budget = Budget(10**6)

    def reduce(f, denom=1):
        return GREVLEX.poly(*reduce_full(f, denom, out, leads, GREVLEX, budget))

    for g in gens:
        assert reduce(*GREVLEX.pack(g)).is_zero()
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            s = spoly(out[i], leads[i], out[j], leads[j], GREVLEX)
            assert reduce(s).is_zero()


def _reduce_or_raise(reduce, budget):
    try:
        return reduce(budget), budget.remaining
    except ResourceError:
        return "exhausted", budget.remaining


def test_reduction_matches_immutable_reference():
    rng = Random(2026)
    orders = [
        TermOrder.grevlex(TD12),
        TermOrder.block(TD12, ["d2", "d1"], ["t"]),
        TermOrder.block(TD12, ["d2"], ["t", "d1"]),
    ]
    exhausted = 0
    for order in orders:
        for _ in range(40):
            basis = [
                random_nonzero_poly(rng, TD12, max_exp=2, max_terms=3)
                for _ in range(rng.randint(1, 3))
            ]
            leads = [order.leading(g) for g in basis]
            packed = [order.pack(g)[0] for g in basis]
            packed_leads = [order.lead(g) for g in packed]
            f = random_poly(rng, TD12, max_exp=3, max_terms=4)
            for g in basis:
                f = f + random_poly(rng, TD12, max_exp=2, max_terms=3) * g
            limit = rng.choice([10**6, rng.randint(0, 8)])
            got, spent = _reduce_or_raise(
                lambda b: order.poly(*reduce_full(*order.pack(f), packed, packed_leads, order, b)),
                Budget(limit),
            )
            want, want_spent = _reduce_or_raise(
                lambda b: reduce_full_ref(f, basis, order, b), Budget(limit)
            )
            assert got == want
            assert spent == want_spent
            if want == "exhausted":
                exhausted += 1
            else:
                assert list(got.coeffs) == list(want.coeffs)
            for i, j in itertools.combinations(range(len(basis)), 2):
                (fe, fc), (ge, gc) = leads[i], leads[j]
                lcm = tuple(map(max, fe, ge))
                shift_f = tuple(a - b for a, b in zip(lcm, fe))
                shift_g = tuple(a - b for a, b in zip(lcm, ge))
                want_s = MultiPoly.monomial(TD12, shift_f, 1 / fc) * basis[i] - (
                    MultiPoly.monomial(TD12, shift_g, 1 / gc) * basis[j]
                )
                # spoly returns want_s times fc * gc / gcd(fc, gc)
                pf, pg = packed_leads[i][2], packed_leads[j][2]
                s = spoly(packed[i], packed_leads[i], packed[j], packed_leads[j], order)
                got_s = order.poly(s, pf * pg // math.gcd(pf, pg))
                assert got_s == want_s
                assert list(got_s.coeffs) == list(want_s.coeffs)
    assert 0 < exhausted < 60


def test_least_step_budget_is_pinned():
    # the smallest budget each ideal succeeds with, measured before the
    # reduction loop subtracted in place: the step count must not move
    tb, db, xb, yb, zb = (MultiPoly.var(CIRCLE_TABLE, n) for n in CIRCLE_TABLE.names)
    t2, u1, u2 = (MultiPoly.var(TD12, n) for n in TD12.names)
    cases = [
        ([d1**2 - t, t * d1 - 1, t**3 - d1], GREVLEX, 21),
        (
            [db**2 - (1 - tb**2), tb - xb, db - yb, zb - 1],
            TermOrder.block(CIRCLE_TABLE, ["t", "d1", "z"], ["x", "y"]),
            4,
        ),
        (
            [u1**2 - t2, u2**3 - u1 - t2, u1 * u2 - t2**2 + 1],
            TermOrder.block(TD12, ["d2", "d1"], ["t"]),
            152,
        ),
    ]
    for gens, order, least in cases:
        buchberger(gens, order, step_budget=least)
        with pytest.raises(ResourceError):
            buchberger(gens, order, step_budget=least - 1)


def test_matches_sympy_groebner():
    rng = Random(11)
    ts, ds = sympy.Symbol("t"), sympy.Symbol("d1")
    done = 0
    while done < 8:
        gens = [random_poly(rng, TD1, max_exp=2, max_terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = buchberger(gens, GREVLEX)
        theirs = sympy.groebner(
            [to_sympy(g) for g in gens], ds, ts, order="grevlex", domain=sympy.QQ
        )
        assert sorted(str(e) for e in (to_sympy(g) for g in ours)) == sorted(
            str(sympy.expand(e)) for e in theirs.exprs
        )
        done += 1


def test_step_budget_exhaustion():
    gens = [d1**2 - t, t * d1 - 1, t**3 - d1]
    with pytest.raises(ResourceError):
        buchberger(gens, GREVLEX, step_budget=3)


def _basis_or_exhausted(run):
    try:
        return run()
    except ResourceError:
        return "exhausted"


def test_buchberger_matches_tuple_reference():
    # packed keys against the tuple-keyed loop: same generators, same
    # term order inside each, same exhaustion, over every split
    rng = Random(2027)
    table5 = _table(5)
    runs = exhausted = 0
    for table, per_order, max_exp in ((TD12, 24, 2), (table5, 12, 2)):
        for order in _orders(table, rng):
            for _ in range(per_order):
                gens = [
                    random_nonzero_poly(rng, table, max_exp=max_exp, max_terms=3)
                    for _ in range(rng.randint(2, 3))
                ]
                limit = rng.choice([2000, rng.randint(0, 40)])
                got = _basis_or_exhausted(lambda: buchberger(gens, order, limit))
                want = _basis_or_exhausted(lambda: buchberger_ref(gens, order, limit))
                assert got == want
                if want == "exhausted":
                    exhausted += 1
                else:
                    assert [list(g.coeffs) for g in got] == [list(g.coeffs) for g in want]
                runs += 1
    assert runs >= 200
    assert 0 < exhausted < runs


def _rational(rng, f):
    """f with every coefficient replaced by a random p/q, 0 < |p| <= 60, q <= 7."""
    return MultiPoly(
        f.table, {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 7)) for e in f.coeffs}
    )


def _normal_form_by_reference_loop(f, tw):
    # tower.normal_form with each level's reduction run by reduce_full_ref
    for i in reversed(range(tw.m)):
        name, e = tw.levels[i].name, tw.levels[i].exponent
        if f.degree(f.table.index(name)) >= e:
            order = TermOrder.block(f.table, [name], [n for n in f.table.names if n != name])
            f = reduce_full_ref(f, [tw.level_poly(i, f.table)], order, Budget(math.inf))
    return f


def test_integer_loop_matches_rational_references(monkeypatch):
    # non-unit rational coefficients: the integer loop scales the tail,
    # meets negative leads and divides contents out, and still gives the
    # remainders, bases, key order and budget use of division over Q
    real_sub, real_reduce, steps, seen = arith._sub_shifted, arith.reduce_full, [], Counter()

    def sub(acc, g, lead, shift, a, b, guards):
        assert a > 0
        steps.append((a, g[lead]))
        real_sub(acc, g, lead, shift, a, b, guards)

    def reduce(f, denom, *rest):
        steps.clear()  # spoly's two calls come before
        r, d = real_reduce(f, denom, *rest)
        seen["scaled"] += sum(a != 1 for a, _ in steps)
        seen["negative lead"] += sum(lc < 0 for _, lc in steps)
        seen["content"] += 0 < d < denom * math.prod(a for a, _ in steps)
        return r, d

    monkeypatch.setattr(arith, "_sub_shifted", sub)
    for module in (arith, ideal, tower):
        monkeypatch.setattr(module, "reduce_full", reduce)
    rng = Random(2030)
    runs = exhausted = 0
    for table in (TD12, _table(4)):
        for order in _orders(table, rng):
            for _ in range(8):
                gens = [
                    _rational(rng, random_nonzero_poly(rng, table, max_exp=2, max_terms=3))
                    for _ in range(rng.randint(2, 3))
                ]
                limit = rng.choice([2000, rng.randint(0, 40)])
                got = _basis_or_exhausted(lambda: buchberger(gens, order, limit))
                want = _basis_or_exhausted(lambda: buchberger_ref(gens, order, limit))
                assert got == want
                if want == "exhausted":
                    exhausted += 1
                else:
                    assert [list(g.coeffs) for g in got] == [list(g.coeffs) for g in want]
                runs += 1
    assert 0 < exhausted < runs
    for _ in range(40):
        tw = random_tower(rng, rng.randint(1, 3))
        levels = [RadicalLevel(lv.name, lv.exponent, _rational(rng, lv.radicand)) for lv in tw.levels]
        tw = RadicalTower(tw.table, levels)
        bounds = [4] + [3 * lv.exponent for lv in tw.levels]
        f = _rational(rng, random_poly_bounded(rng, tw.table, bounds, max_terms=5))
        got = normal_form(f, tw)
        assert got == normal_form_ref(f, tw)
        assert list(got.coeffs) == list(_normal_form_by_reference_loop(f, tw).coeffs)
    exhausted = 0
    for _ in range(60):
        g = _rational(rng, random_nonzero_poly(rng, TD12, max_exp=2, max_terms=3))
        f = _rational(rng, random_nonzero_poly(rng, TD12, max_exp=2, max_terms=3)) * g
        assert poly_rem(f, g).is_zero() and poly_divmod_ref(f, g)[1].is_zero()
        f = _rational(rng, random_nonzero_poly(rng, T_ONLY, max_exp=9, max_terms=6))
        g = _rational(rng, random_nonzero_poly(rng, T_ONLY, max_exp=4, max_terms=3))
        limit = rng.choice([None, rng.randint(0, 6)])
        want = _basis_or_exhausted(lambda: poly_divmod_ref(f, g, limit)[1])
        got = _basis_or_exhausted(lambda: poly_rem(f, g, None if limit is None else Budget(limit)))
        assert got == want
        if want == "exhausted":
            exhausted += 1
        else:
            assert list(got.coeffs) == list(want.coeffs)
    assert 0 < exhausted < 60
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


# ----------------------------------------------------------------------
# triviality

def test_trivial_with_explicit_unit():
    gens = [d1**2 - (1 - t**2), t, MultiPoly.one(TD1)]
    assert common_zeros(gens) == ("empty", (MultiPoly.one(TD1),))


def test_nontrivial_with_common_zeros():
    gens = [d1**2 - (1 - t**2), d1, 1 - t**2]
    assert common_zeros(gens)[0] == "finite"


def test_trivial_is_order_independent():
    rng = Random(12)
    for _ in range(10):
        gens = [random_poly(rng, TD1, max_exp=2, max_terms=3) for _ in range(2)]
        one = (MultiPoly.one(TD1),)
        block_ans = buchberger(gens, BLOCK) == one
        assert block_ans == (buchberger(gens, GREVLEX) == one)
        assert block_ans == (common_zeros(gens)[0] == "empty")


def test_zero_ideal_is_not_trivial():
    assert common_zeros([MultiPoly.zero(TD1)]) == ("positive-dimensional", ())


def test_common_zeros_matches_sympy_groebner():
    # kind and basis against sympy's grevlex basis, whose variables run
    # from the most significant (the last table variable) to t
    rng = Random(10)
    kinds = []
    for table in (TD1, TD12) * 60:
        syms = [sympy.Symbol(n) for n in reversed(table.names)]
        gens = [random_nonzero_poly(rng, table, max_exp=2, max_terms=3) for _ in range(rng.randint(2, 3))]
        kind, basis = common_zeros(gens)
        theirs = sympy.groebner([to_sympy(g) for g in gens], *syms, order="grevlex", domain=sympy.QQ)
        unit = theirs.exprs == [1]
        assert (kind == "empty") == unit
        assert (kind == "finite") == (theirs.is_zero_dimensional and not unit)
        assert [to_sympy(g) for g in basis] == [sympy.expand(e) for e in theirs.exprs]
        kinds.append(kind)
    assert set(kinds) == {"empty", "finite", "positive-dimensional"}


# ----------------------------------------------------------------------
# elimination

CIRCLE_TABLE = VarTable(
    ("t", "d1", "x", "y", "z"),
    (Role.PARAMETER, Role.RADICAL, Role.COORDINATE, Role.COORDINATE, Role.COORDINATE),
)


def _circle_dp():
    tb, db, xb, yb, zb = (MultiPoly.var(CIRCLE_TABLE, n) for n in CIRCLE_TABLE.names)
    return [db**2 - (1 - tb**2), tb - xb, db - yb, zb - 1]


def test_elimination_recovers_circle():
    xb = MultiPoly.var(CIRCLE_TABLE, "x")
    yb = MultiPoly.var(CIRCLE_TABLE, "y")
    elim = elimination_ideal(_circle_dp(), ["x", "y"])
    assert elim == (xb**2 + yb**2 - 1,)


def test_elimination_keep_everything_is_reduced_basis():
    gens = [d1**2 - t, t * d1 - 1]
    elim = elimination_ideal(gens, ["t", "d1"])
    assert set(elim) == set(buchberger(gens, TermOrder.block(TD1, [], ["t", "d1"])))


def test_eliminated_generators_free_of_dropped_vars():
    elim = elimination_ideal(_circle_dp(), ["x", "y"])
    keep = {CIRCLE_TABLE.index("x"), CIRCLE_TABLE.index("y")}
    for g in elim:
        assert g.variables() <= keep


# ----------------------------------------------------------------------
# zero-dimensionality

def test_unit_ideal_is_zero_dimensional():
    assert buchberger([MultiPoly.one(TD1)], BLOCK) == (MultiPoly.one(TD1),)
    assert common_zeros([MultiPoly.one(TD1)]) == ("empty", (MultiPoly.one(TD1),))


def test_curve_is_not_zero_dimensional():
    basis = buchberger([d1**2 - (1 - t**2)], GREVLEX)
    assert common_zeros([d1**2 - (1 - t**2)]) == ("positive-dimensional", basis)
