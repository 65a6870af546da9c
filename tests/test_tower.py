from fractions import Fraction
from random import Random

import pytest
import sympy

from radsurj.arith import MultiPoly, Role, VarTable, weighted_degree
from radsurj.errors import DomainError, InputError
from radsurj.missing import component_curve_poly
from radsurj.surjcheck import normalize_param
from radsurj.tower import (
    RadicalLevel,
    RadicalTower,
    is_guilty,
    is_suspicious,
    normal_form,
    normalized_remainder,
    remainder_trace,
    tower_norm,
)

from support import (
    TD1,
    TD12,
    UnsupportedOracleError,
    eval_exact,
    fast_guilty_single,
    full_conjugate_product,
    normal_form_ref,
    random_poly_bounded,
    random_reduced_poly,
    random_tower,
    resultant_chain,
    sym,
    to_sympy,
    tower_norm_ref,
)

t = MultiPoly.var(TD1, "t")
d1 = MultiPoly.var(TD1, "d1")
t3, e1, e2 = (MultiPoly.var(TD12, n) for n in ("t", "d1", "d2"))


def tower_circle():
    return RadicalTower(TD1, [RadicalLevel("d1", 2, 1 - t**2)])


def tower_hyperbola():
    return RadicalTower(TD1, [RadicalLevel("d1", 2, t**2 - 1)])


def tower_shifted():
    return RadicalTower(TD1, [RadicalLevel("d1", 2, t - 1)])


def tower_nested():
    return RadicalTower(
        TD12, [RadicalLevel("d1", 2, t3), RadicalLevel("d2", 2, e1 + 1)]
    )


def tower_two_roots():
    return RadicalTower(
        TD12, [RadicalLevel("d1", 2, t3), RadicalLevel("d2", 2, t3 + 1)]
    )


def tower_suspicious():
    return RadicalTower(
        TD12, [RadicalLevel("d1", 2, t3**2 - 1), RadicalLevel("d2", 2, t3 - e1)]
    )


# ----------------------------------------------------------------------
# validation and weights

def test_weights_circle():
    assert tower_circle().weights.weights == (Fraction(1), Fraction(1))


def test_weights_nested_sqrt():
    tw = tower_suspicious()
    assert tw.weights.weights == (Fraction(1), Fraction(1), Fraction(1, 2))
    assert tw.nested


def test_weights_deep_nesting():
    tw = tower_nested()
    assert tw.weights.weights == (Fraction(1), Fraction(1, 2), Fraction(1, 4))


def test_unnested_flag():
    assert not tower_two_roots().nested


def test_validate_rejects_small_exponent():
    with pytest.raises(InputError):
        RadicalTower(TD1, [RadicalLevel("d1", 1, t)])


def test_validate_rejects_constant_radicand():
    with pytest.raises(InputError):
        RadicalTower(TD1, [RadicalLevel("d1", 2, MultiPoly.const(TD1, 5))])
    with pytest.raises(InputError):
        RadicalTower(TD1, [RadicalLevel("d1", 2, MultiPoly.zero(TD1))])


def test_validate_rejects_later_radical():
    with pytest.raises(InputError):
        RadicalTower(
            TD12, [RadicalLevel("d1", 2, e2 + t3), RadicalLevel("d2", 2, t3)]
        )


def test_validate_rejects_unreduced_radicand():
    # d2's radicand has degree 2 in d1, but e_1 = 2
    with pytest.raises(InputError):
        RadicalTower(
            TD12, [RadicalLevel("d1", 2, t3), RadicalLevel("d2", 2, e1**2 + 1)]
        )


def test_validate_rejects_own_radical():
    with pytest.raises(InputError):
        RadicalTower(TD1, [RadicalLevel("d1", 2, d1 + t)])


# ----------------------------------------------------------------------
# normal form

def test_normal_form_pinned():
    assert normal_form(t**2 - d1**2, tower_hyperbola()) == MultiPoly.one(TD1)
    assert normal_form(e2**3, tower_nested()) == e1 * e2 + e2


def test_normal_form_fixes_plain_polynomials():
    f = t**3 - 2 * t
    assert normal_form(f, tower_hyperbola()) == f


def test_normal_form_idempotent_and_reduced():
    rng = Random(31)
    for _ in range(25):
        tw = random_tower(rng, rng.randint(1, 3))
        table = tw.table
        f = random_poly_bounded(rng, table, [4] * table.arity)
        nf = normal_form(f, tw)
        assert normal_form(nf, tw) == nf
        for i, level in enumerate(tw.levels):
            assert nf.degree(1 + i) < level.exponent


def test_normal_form_matches_substitution_reference():
    # radical powers up to 3e, and half the time over a table with an
    # inert coordinate, as component_curve_poly builds it
    rng = Random(34)
    for _ in range(60):
        tw = random_tower(rng, rng.randint(1, 3), max_e=4)
        table = tw.table
        if rng.random() < 0.5:
            table = VarTable(table.names + ("x",), table.roles + (Role.COORDINATE,))
        bounds = [4] + [3 * level.exponent for level in tw.levels] + [2] * (table.arity - 1 - tw.m)
        f = random_poly_bounded(rng, table, bounds, max_terms=5)
        assert normal_form(f, tw) == normal_form_ref(f, tw)
    zero = MultiPoly.zero(TD12)
    assert normal_form(zero, tower_nested()) == zero == normal_form_ref(zero, tower_nested())


def test_normal_form_never_raises_weighted_degree():
    rng = Random(32)
    for _ in range(25):
        tw = random_tower(rng, rng.randint(1, 3))
        f = random_poly_bounded(rng, tw.table, [4] * tw.table.arity)
        if f.is_zero():
            continue
        nf = normal_form(f, tw)
        if nf.is_zero():
            continue
        wv = tw.weights
        assert weighted_degree(nf, wv) <= weighted_degree(f, wv)


# ----------------------------------------------------------------------
# normalized remainder

def test_remainder_pinned_values():
    assert normalized_remainder(t - d1, tower_hyperbola()) == MultiPoly.one(TD1)
    assert normalized_remainder(t - d1, tower_shifted()) == t**2 - t + 1
    assert normalized_remainder(e1 * e2 + t3, tower_nested()) == t3**4 - 3 * t3**3 + t3**2
    assert normalized_remainder(t3 * (e1 - e2), tower_two_roots()) == t3**4


def test_remainder_of_plain_polynomial_is_a_power():
    tw = tower_nested()  # exponent product 4
    f = t3**2 + 1
    assert normalized_remainder(f, tw) == f**4


def test_remainder_trace_shape():
    tw = tower_nested()
    trace = remainder_trace(e1 * e2 + t3, tw)
    assert len(trace) == 3
    assert trace[0] == e1 * e2 + t3
    assert trace[-1] == normalized_remainder(e1 * e2 + t3, tw)
    # radicals disappear one level at a time, highest first
    assert trace[1].degree(2) <= 0
    assert trace[2].variables() <= {0}


def test_remainder_invariant_under_normalization():
    rng = Random(33)
    for _ in range(20):
        tw = random_tower(rng, rng.randint(1, 2))
        f = random_poly_bounded(rng, tw.table, [3] * tw.table.arity)
        assert normalized_remainder(f, tw) == normalized_remainder(normal_form(f, tw), tw)


def test_remainder_is_multiplicative():
    rng = Random(34)
    for _ in range(15):
        tw = random_tower(rng, rng.randint(1, 2), max_e=3, tdeg=2)
        f = random_reduced_poly(rng, tw, tdeg=2, max_terms=2)
        g = random_reduced_poly(rng, tw, tdeg=2, max_terms=2)
        lhs = normalized_remainder(f * g, tw)
        rhs = normalized_remainder(f, tw) * normalized_remainder(g, tw)
        assert lhs == rhs


# ----------------------------------------------------------------------
# tower norms against the resultant chain


def _norm_cases(rng, count):
    """(f, tower) pairs: reduced polynomials, polynomials free of the top
    radical, and x*q - p over a table with an inert coordinate x.

    Exponent products stay at most 16, and at most 8 with the coordinate,
    so the resultant oracle stays fast.
    """
    cases = []
    while len(cases) < count:
        kind = len(cases) % 3
        tw = random_tower(rng, rng.randint(1, 3), max_e=4, tdeg=2)
        if tw.exponent_product > (8 if kind == 2 else 16):
            continue
        if kind == 0:
            f = random_reduced_poly(rng, tw, tdeg=3)
        elif kind == 1:
            bounds = [3] + [level.exponent - 1 for level in tw.levels[:-1]] + [0]
            f = random_poly_bounded(rng, tw.table, bounds)
            if f.is_zero():
                continue
        else:
            # an inert coordinate appended, as component_curve_poly does
            table = VarTable(tw.table.names + ("x",), tw.table.roles + (Role.COORDINATE,))
            x = MultiPoly.var(table, "x")
            p = random_reduced_poly(rng, tw, tdeg=2, max_terms=3).transport(table)
            q = random_reduced_poly(rng, tw, tdeg=2, max_terms=2).transport(table)
            f = x * q - p
        cases.append((f, tw))
    return cases


def test_remainder_trace_matches_resultant_chain():
    for f, tw in _norm_cases(Random(41), 300):
        trace = remainder_trace(f, tw)
        assert len(trace) == tw.m + 1
        assert trace[-1] == resultant_chain(f, tw)[-1]
        # every entry is reduced modulo the tower
        for f_k in trace:
            for level in tw.levels:
                assert f_k.degree(f_k.table.index(level.name)) < level.exponent


def test_tower_norm_matches_sympy_resultant():
    rng = Random(42)
    checked = 0
    for f, tw in _norm_cases(rng, 60):
        if tw.m != 1:
            continue
        level = tw.levels[0]
        delta = MultiPoly.var(f.table, level.name)
        e_poly = delta**level.exponent - level.radicand.transport(f.table)
        expected = sympy.resultant(to_sympy(e_poly), to_sympy(f), sym(level.name))
        assert sympy.expand(to_sympy(tower_norm(f, level)) - expected) == 0
        checked += 1
    assert checked >= 10


def test_tower_norm_matches_fraction_reference():
    # top exponents 2..5 over rational radicands, rational f, the zero
    # polynomial, f free of the top radical, and norms over a table with
    # an inert coordinate
    rng = Random(44)
    wide = 0
    for n in range(80):
        base = random_tower(rng, rng.randint(1, 2), max_e=3, tdeg=3)
        levels = [
            RadicalLevel(lv.name, lv.exponent, lv.radicand * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
            for lv in base.levels
        ]
        levels[-1] = RadicalLevel(levels[-1].name, 2 + n % 4, levels[-1].radicand)
        tw = RadicalTower(base.table, levels)
        f = random_reduced_poly(rng, tw, tdeg=3, max_terms=8)
        f = MultiPoly(f.table, {e: c / rng.randint(1, 6) for e, c in f.coeffs.items()})
        cases = [f, MultiPoly.zero(f.table), f.coeff_poly(tw.m, 0)]
        if n % 3 == 0:
            table = VarTable(tw.table.names + ("x",), tw.table.roles + (Role.COORDINATE,))
            cases.append(f.transport(table) * (MultiPoly.var(table, "x") + Fraction(1, 2)))
            wide += 1
        for g in cases:
            got, want = tower_norm(g, levels[-1]), tower_norm_ref(g, levels[-1])
            assert got == want
            assert list(got.coeffs) == list(want.coeffs)
    assert wide >= 20


def test_tower_norm_rejects_unreduced_input():
    level = tower_circle().levels[0]
    with pytest.raises(DomainError):
        tower_norm(d1**2 + t, level)


def test_reducible_tower_kills_the_remainder():
    # d^2 = t^2 splits, and d - t vanishes on one of its branches
    tw = RadicalTower(TD1, [RadicalLevel("d1", 2, t**2)])
    assert remainder_trace(d1 - t, tw)[-1].is_zero()
    assert resultant_chain(d1 - t, tw)[-1].is_zero()
    param = normalize_param(tw, [(t * d1 - t**2, d1 - t)])[0]
    assert component_curve_poly(param, 1) is None


# ----------------------------------------------------------------------
# sign-product oracle

def test_sign_product_pinned_nested_disagreement():
    tw = tower_nested()
    f = e1 * e2 + t3
    sp = full_conjugate_product(f, tw)
    expected = (-2 * t3**3 + 2 * t3**2) * e1 + t3**4 - t3**3 + t3**2
    assert sp == expected
    assert sp != normalized_remainder(f, tw)


def test_sign_product_matches_remainder_unnested():
    assert full_conjugate_product(t - d1, tower_hyperbola()) == MultiPoly.one(TD1)
    rng = Random(35)
    for _ in range(20):
        tw = random_tower(rng, rng.randint(1, 3), max_e=2, nested=False)
        f = random_reduced_poly(rng, tw, tdeg=3)
        assert full_conjugate_product(f, tw) == normalized_remainder(f, tw)


def test_sign_product_rejects_higher_exponents():
    tw = RadicalTower(TD1, [RadicalLevel("d1", 3, t)])
    with pytest.raises(UnsupportedOracleError):
        full_conjugate_product(d1, tw)


# ----------------------------------------------------------------------
# guilt

def test_guilty_pinned_examples():
    rep = is_guilty(t - d1, tower_hyperbola())
    assert rep.guilty and rep.expected_degree == 2 and rep.actual_degree == 0
    rep = is_guilty(t - d1, tower_shifted())
    assert not rep.guilty and rep.expected_degree == 2 == rep.actual_degree
    rep = is_guilty(t3 * (e1 - e2), tower_two_roots())
    assert rep.guilty and rep.expected_degree == 6 and rep.actual_degree == 4


def test_guilty_requires_nonzero():
    with pytest.raises(DomainError):
        is_guilty(MultiPoly.zero(TD1), tower_hyperbola())


def test_guilt_report_carries_trace():
    rep = is_guilty(e1 * e2 + t3, tower_nested())
    assert rep.remainder == t3**4 - 3 * t3**3 + t3**2


def test_degree_bound_always_holds():
    rng = Random(36)
    for _ in range(40):
        tw = random_tower(rng, rng.randint(1, 3))
        f = random_reduced_poly(rng, tw)
        rep = is_guilty(f, tw)
        assert rep.actual_degree <= rep.expected_degree


# ----------------------------------------------------------------------
# suspicion

def test_suspicious_pinned_examples():
    tw = tower_suspicious()
    rep = is_suspicious(e1 * e2 + 3, tw)
    assert rep.suspicious
    assert rep.reason == "suspicious-radical"
    assert rep.level == 1
    rep2 = is_suspicious(e1 * e2 + 3 + t3**2, tw)
    assert not rep2.suspicious
    assert rep2.lead == t3**2


def test_tied_leading_terms_are_suspicious():
    tw = tower_two_roots()
    rep = is_suspicious(e1 - e2, tw)
    assert rep.suspicious and rep.reason == "multiple-leading-terms"


def test_plain_single_term_not_suspicious():
    assert not is_suspicious(t**3 + t, tower_hyperbola()).suspicious


def test_not_suspicious_implies_not_guilty():
    rng = Random(37)
    for _ in range(60):
        tw = random_tower(rng, rng.randint(1, 3))
        f = random_reduced_poly(rng, tw)
        if not is_suspicious(f, tw).suspicious:
            assert not is_guilty(f, tw).guilty


# ----------------------------------------------------------------------
# fast single-level guilt

def test_fast_guilty_pinned():
    assert fast_guilty_single(t - d1, tower_hyperbola()) is True
    assert fast_guilty_single(t - d1, tower_shifted()) is False


def test_fast_guilty_plain_polynomial():
    assert fast_guilty_single(t**5 - 3, tower_hyperbola()) is False


def test_fast_guilty_rejects_tall_towers():
    with pytest.raises(DomainError):
        fast_guilty_single(e1, tower_nested())


def test_fast_guilty_agrees_with_direct_test():
    rng = Random(38)
    for _ in range(60):
        tw = random_tower(rng, 1)
        f = random_reduced_poly(rng, tw)
        assert fast_guilty_single(f, tw) == is_guilty(f, tw).guilty


# ----------------------------------------------------------------------
# common zeros survive into the remainder

def test_common_zero_of_tower_and_poly_kills_remainder():
    rng = Random(39)
    from radsurj.arith import VarTable as VT

    for _ in range(15):
        m = rng.randint(1, 2)
        names = ("t",) + tuple(f"d{i + 1}" for i in range(m))
        table = VarTable(names, (Role.PARAMETER,) + (Role.RADICAL,) * m)
        t0 = Fraction(rng.randint(-2, 2))
        point = [t0]
        levels = []
        tvar = MultiPoly.var(table, "t")
        for i in range(m):
            e = rng.randint(2, 3)
            delta0 = Fraction(rng.choice([-2, -1, 1, 2]))
            bounds = [2] + [lv.exponent - 1 for lv in levels] + [0] * (m - i)
            while True:
                h = random_poly_bounded(rng, table, bounds, only_vars=set(range(1 + i)))
                offset = delta0**e - eval_exact(h, point + [Fraction(0)] * (m - i))
                g = h + MultiPoly.const(table, offset)
                if not g.is_zero() and not g.is_const():
                    break
            levels.append(RadicalLevel(names[1 + i], e, g))
            point.append(delta0)
        tw = RadicalTower(table, levels)
        # f vanishing at the common point by construction
        f = (tvar - t0) * random_poly_bounded(rng, table, [2] * (1 + m))
        for i in range(m):
            dvar = MultiPoly.var(table, names[1 + i])
            f = f + (dvar - point[1 + i]) * random_poly_bounded(rng, table, [2] * (1 + m))
        r = normalized_remainder(f, tw)
        assert eval_exact(r, [t0] + [Fraction(0)] * m) == 0
