import functools
import itertools
from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from radsurj import arith, modular
from radsurj.arith import (
    NEG_INF,
    Budget,
    MultiPoly,
    Role,
    TermOrder,
    VarTable,
    WeightVector,
    _unit_normalize,
    content_wrt,
    leading_form,
    poly_gcd,
    poly_rem,
    squarefree_part,
    weighted_degree,
)
from radsurj.errors import DomainError, ResourceError, StructuralError
from radsurj.ideal import buchberger
from radsurj.missing import component_curve_poly
from radsurj.parser import parse
from radsurj.tower import RadicalLevel, RadicalTower, normal_form

from support import (
    TD1,
    TD12,
    T_ONLY,
    complex_eval_corpus,
    content_wrt_ref,
    eval_complex_ref,
    exact_div_ref,
    mul_ref,
    poly_divmod_ref,
    poly_gcd_prs,
    poly_gcd_ref,
    prem,
    random_nonzero_poly,
    random_poly,
    resultant,
    resultant_det,
    run_child,
    sym,
    to_sympy,
)

t = MultiPoly.var(TD1, "t")
d1 = MultiPoly.var(TD1, "d1")


def coeffs(table, max_exp=3):
    expo = st.tuples(*([st.integers(0, max_exp)] * table.arity))
    frac = st.fractions(min_value=-8, max_value=8, max_denominator=4)
    return st.dictionaries(expo, frac, max_size=5)


def polys(table=TD1, max_exp=3):
    return coeffs(table, max_exp).map(lambda d: MultiPoly(table, d))


# ----------------------------------------------------------------------
# rational coefficients

def test_fraction_canonical_invariants():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(3, -6).denominator > 0
    assert Fraction(0, 7) == Fraction(0, 1)


def test_float_coefficients_rejected():
    with pytest.raises(StructuralError):
        MultiPoly.const(TD1, 0.5)


# ----------------------------------------------------------------------
# construction and ring structure

def test_zero_coefficients_dropped():
    f = MultiPoly(TD1, {(1, 0): Fraction(0), (0, 0): Fraction(3)})
    assert f.coeffs == {(0, 0): Fraction(3)}
    assert (t - t).is_zero()


def test_table_mismatch_is_an_error():
    other = MultiPoly.var(T_ONLY, "t")
    with pytest.raises(StructuralError):
        t + other  # noqa: B018


def test_equal_objects_hash_alike():
    # a constant polynomial equals its value, so sets and dicts must find
    # it by that value; the parametrization hashes through its tower
    c = MultiPoly.const(TD1, 3)
    assert c == 3 and hash(c) == hash(3) and 3 in {c} and c in {3}
    assert MultiPoly.zero(TD1) in {0} and Fraction(1, 2) in {MultiPoly.const(TD1, Fraction(1, 2))}
    a, b = (parse("tower { d^2 = t^2 + 1; } param { x = d/t; y = t; }") for _ in range(2))
    assert a == b and a.tower is not b.tower
    assert hash(a) == hash(b) and hash(a.tower) == hash(b.tower) and len({a, b}) == 1


def test_negative_exponent_rejected():
    with pytest.raises(StructuralError):
        MultiPoly(TD1, {(-1, 0): Fraction(1)})


@given(polys(), polys(), polys())
def test_ring_identities(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h


@given(polys(), st.integers(0, 4))
def test_pow_matches_repeated_multiplication(f, k):
    expected = MultiPoly.one(TD1)
    for _ in range(k):
        expected = expected * f
    assert f**k == expected


WIDE = VarTable(
    ("t", "d1", "d2", "x", "z"),
    (Role.PARAMETER, Role.RADICAL, Role.RADICAL, Role.COORDINATE, Role.COORDINATE),
)


def _product_corpus(rng):
    """Operand pairs: mixed denominators and signs, zero and constant
    operands, polynomials in the inert variables x and z only, squares,
    and exponents past 2^31."""

    def rand(max_exp=3, max_terms=8, only_vars=None):
        f = random_poly(rng, WIDE, max_exp, max_terms, coeff_bound=9, only_vars=only_vars)
        return MultiPoly(WIDE, {e: c / rng.choice((1, 1, 2, 3, 12)) for e, c in f.coeffs.items()})

    def huge():
        return MultiPoly(WIDE, {
            tuple(rng.choice((0, 1, 2**31 - 1, 2**31, 2**40, rng.randrange(2**45))) for _ in range(5)):
            Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            for _ in range(rng.randint(1, 4))
        })

    zero, const = MultiPoly.zero(WIDE), MultiPoly.const(WIDE, Fraction(-7, 3))
    pairs = []
    for _ in range(120):
        f, g = rand(rng.randint(0, 6), rng.randint(1, 12)), rand(rng.randint(0, 6), rng.randint(1, 12))
        pairs += [(f, g), (f, f), (f, zero), (zero, g), (const, g), (f, const)]
        pairs.append((rand(only_vars={3, 4}), rand(only_vars={0, 1, 2})))
        pairs.append((huge(), huge()))
    return pairs


def test_product_matches_tuple_loop_reference():
    for f, g in _product_corpus(Random(131)):
        got, want = f * g, mul_ref(f, g)
        assert got == want
        # eval_complex sums floats in key order, so the order must match too
        assert list(got.coeffs) == list(want.coeffs)


def test_product_key_order_and_wide_exponents_pinned():
    x = MultiPoly.var(T_ONLY, "t")
    f = MultiPoly(T_ONLY, {(0,): 1, (1,): 1, (2,): 1})
    g = MultiPoly(T_ONLY, {(0,): 1, (1,): -1, (2,): 1, (5,): 1})
    # t^2 and t^3 cancel in f's second row, then t^2 comes back after t^6
    assert list((f * g).coeffs) == [(0,), (5,), (6,), (2,), (4,), (7,)]
    big = MultiPoly.monomial(T_ONLY, (2**40,), Fraction(3, 2))
    assert (big * big).coeffs == {(2**41,): Fraction(9, 4)}
    assert (big * (x + 1)).coeffs == {(2**40 + 1,): Fraction(3, 2), (2**40,): Fraction(3, 2)}


def test_degree_and_leading_term():
    f = t**3 * d1 - 2 * t
    assert f.degree(0) == 3
    assert f.degree(1) == 1
    assert f.total_degree() == 4
    assert f.leading_term() == ((3, 1), Fraction(1))
    assert MultiPoly.zero(TD1).degree(0) is NEG_INF


def test_univariate_views_roundtrip():
    f = (t**2 + 1) * d1**2 - 3 * t * d1 + 5
    cs = f.univariate_coeffs(1)
    assert len(cs) == 3
    rebuilt = MultiPoly.zero(TD1)
    for k, c in enumerate(cs):
        rebuilt = rebuilt + c * d1**k
    assert rebuilt == f


def test_transport_into_extended_table():
    bigger = VarTable(TD1.names + ("x1",), TD1.roles + (Role.COORDINATE,))
    f = t**2 - d1
    g = f.transport(bigger)
    assert g.table == bigger
    assert g.degree(2) == 0
    assert g.eval_complex((2.0, 3.0, 9.0)) == f.eval_complex((2.0, 3.0))


def test_eval_complex():
    f = t**2 + d1
    assert f.eval_complex((2j, 1.0)) == -3.0


def test_eval_complex_matches_uncached_reference():
    # repr tells -0.0 from 0.0, so this is a bit-for-bit comparison
    for p, points in complex_eval_corpus(Random(20261018)):
        for x in points:
            want = repr(eval_complex_ref(p, x))
            assert repr(p.eval_complex(x)) == want
            assert repr(p.eval_complex(x)) == want  # cached terms
        for wrong in (points[0][:-1], points[0] + (1j,)):
            with pytest.raises(StructuralError):
                p.eval_complex(wrong)


# ----------------------------------------------------------------------
# division with remainder

@given(polys(), polys())
def test_exact_div_roundtrip(f, g):
    if g.is_zero():
        with pytest.raises(DomainError):
            poly_rem(f, g)
    else:
        assert poly_rem(f * g, g).is_zero()


def test_exact_div_inexact_raises():
    assert poly_rem(t + 1, t - 1) == MultiPoly.const(TD1, 2)


def test_exact_div_matches_immutable_reference():
    # the remainder vanishes exactly when the long division of the
    # reference goes through
    rng = Random(2027)
    for _ in range(150):
        g = random_nonzero_poly(rng, TD12, max_exp=2, max_terms=4)
        f = random_poly(rng, TD12, max_exp=3, max_terms=5) * g
        if rng.random() < 0.2:
            f = f + random_poly(rng, TD12, max_exp=2, max_terms=2)
        try:
            exact_div_ref(f, g)
        except DomainError:
            assert not poly_rem(f, g).is_zero()
            continue
        assert poly_rem(f, g).is_zero()


def test_poly_divmod_matches_sympy_in_one_variable():
    rng = Random(2610)
    x = sym("t")
    for _ in range(60):
        f = random_poly(rng, T_ONLY, max_exp=9, max_terms=6)
        g = random_nonzero_poly(rng, T_ONLY, max_exp=4, max_terms=3)
        rem = poly_rem(f, g)
        assert to_sympy(rem) == sympy.div(to_sympy(f), to_sympy(g), x)[1]


def test_poly_divmod_remainder_escapes_the_leading_monomial():
    rng = Random(2611)
    for _ in range(60):
        f = random_poly(rng, TD12, max_exp=3, max_terms=5)
        g = random_nonzero_poly(rng, TD12, max_exp=2, max_terms=3)
        rem = poly_rem(f, g)
        exact_div_ref(f - rem, g)  # no exception: f - rem is a multiple of g
        lead = TermOrder.grevlex(TD12).leading(g)[0]
        assert not any(all(map(int.__le__, lead, e)) for e in rem.coeffs)


def _outcome(run):
    try:
        return run()
    except ResourceError:
        return "exhausted"


def test_poly_divmod_matches_tuple_reference():
    # exact divisions in three variables, and remainders in one, agree
    # with the graded lex division on exponent tuples, budget steps
    # included
    rng = Random(2612)
    exhausted = 0
    for _ in range(60):
        g = random_nonzero_poly(rng, TD12, max_exp=2, max_terms=3)
        f = random_poly(rng, TD12, max_exp=3, max_terms=4) * g
        rem = poly_rem(f, g)
        assert rem == poly_divmod_ref(f, g)[1] and rem.is_zero()
        f = random_poly(rng, T_ONLY, max_exp=9, max_terms=6)
        g = random_nonzero_poly(rng, T_ONLY, max_exp=4, max_terms=3)
        limit = rng.choice([None, rng.randint(0, 6)])
        want = _outcome(lambda: poly_divmod_ref(f, g, limit)[1])
        budget = None if limit is None else Budget(limit)
        assert _outcome(lambda: poly_rem(f, g, budget)) == want
        exhausted += want == "exhausted"
    assert 0 < exhausted < 60


def test_division_normal_form_and_buchberger_share_one_reduction_step(monkeypatch):
    real, calls = arith._sub_shifted, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(arith, "_sub_shifted", counted)
    tower = RadicalTower(TD1, [RadicalLevel("d1", 2, t + 1)])
    for run in (
        lambda: poly_rem(t**2 - d1**2, t - d1),
        lambda: normal_form(d1**3, tower),
        lambda: buchberger([d1**2 - t, t * d1 - 1], TermOrder.grevlex(TD1)),
    ):
        calls.clear()
        run()
        assert calls


def test_poly_divmod_spends_one_step_per_quotient_term():
    f, g = t**10 + 3, t**2 + 1  # five division steps, remainder 2
    budget = Budget(5)
    assert poly_rem(f, g, budget) == MultiPoly.const(TD1, 2)
    assert budget.remaining == 0
    with pytest.raises(ResourceError):
        poly_rem(f, g, Budget(4))
    with pytest.raises(DomainError):
        poly_rem(f, MultiPoly.zero(TD1))


# ----------------------------------------------------------------------
# pseudo-division

@given(polys(max_exp=4), polys(max_exp=4))
def test_prem_degree_drops(f, g):
    if g.degree(1) is NEG_INF:
        return
    r = prem(f, g, 1)
    if f.degree(1) >= g.degree(1) >= 1:
        assert r.degree(1) < g.degree(1)


def test_prem_defining_identity():
    # lc(b)^(da-db+1) * a = q*b + r for some q; check r directly
    a = t * d1**3 + d1 + 1
    b = (t + 1) * d1 + t
    r = prem(a, b, 1)
    # substitute the root d1 = -t/(t+1) into lc^3 * a and compare
    sa, sr = to_sympy(a), to_sympy(r)
    ts, ds = sym("t"), sym("d1")
    lc3 = (ts + 1) ** 3
    val = sympy.simplify((lc3 * sa - sr).subs(ds, -ts / (ts + 1)))
    assert val == 0


# ----------------------------------------------------------------------
# resultants: pinned values

def test_resultant_certifying_shape_is_one():
    a = d1**2 - (t**2 - 1)
    assert resultant(a, t - d1, 1) == MultiPoly.one(TD1)


def test_resultant_shifted_radicand():
    a = d1**2 - (t - 1)
    assert resultant(a, t - d1, 1) == t**2 - t + 1


def test_resultant_nested_level():
    tt = MultiPoly.var(TD12, "t")
    e1 = MultiPoly.var(TD12, "d1")
    e2 = MultiPoly.var(TD12, "d2")
    a = e2**2 - (e1 + 1)
    b = e1 * e2 + tt
    assert resultant(a, b, 2) == tt**2 - e1**3 - e1**2


def test_resultant_edge_cases():
    zero = MultiPoly.zero(TD1)
    assert resultant(zero, t + 1, 1).is_zero()
    assert resultant(t + 1, zero, 1).is_zero()
    with pytest.raises(DomainError):
        resultant(t + 1, t - 1, 1)  # d1 absent from both
    # degree zero in the variable: power convention
    a = d1**2 - t
    assert resultant(a, t + 2, 1) == (t + 2) ** 2
    assert resultant(t + 2, a, 1) == (t + 2) ** 2


def test_resultant_detects_common_factor():
    common = t * d1 + 1
    a = common * (d1 + t)
    b = common * (d1 - 2)
    assert resultant(a, b, 1).is_zero()
    assert resultant_det(a, b, 1).is_zero()


def _sympy_sylvester_resultant(fa, fb, var):
    """Determinant of the Sylvester matrix, built entirely in sympy.

    sympy.resultant itself normalizes signs differently on some inputs
    (e.g. resultant(d-2, -4*d**3, d) returns +32 where the determinant
    is -32), so the matrix determinant is the convention oracle here.
    """
    pa, pb = sympy.Poly(fa, var), sympy.Poly(fb, var)
    da, db = pa.degree(), pb.degree()
    ca, cb = pa.all_coeffs(), pb.all_coeffs()
    rows = []
    for i in range(db):
        rows.append([0] * i + ca + [0] * (db - 1 - i))
    for i in range(da):
        rows.append([0] * i + cb + [0] * (da - 1 - i))
    return sympy.expand(sympy.Matrix(rows).det())


def test_resultant_routes_agree_with_sylvester_determinant():
    rng = Random(20240811)
    ds = sym("d1")
    checked = 0
    while checked < 40:
        a = random_poly(rng, TD1, max_exp=3, max_terms=4)
        b = random_poly(rng, TD1, max_exp=3, max_terms=4)
        if a.degree(1) is NEG_INF or b.degree(1) is NEG_INF:
            continue
        if a.degree(1) == 0 and b.degree(1) == 0:
            continue
        r1 = resultant(a, b, 1)
        r2 = resultant_det(a, b, 1)
        assert r1 == r2
        expected = _sympy_sylvester_resultant(to_sympy(a), to_sympy(b), ds)
        assert sympy.expand(to_sympy(r1) - expected) == 0
        # sympy's own resultant agrees at least up to sign
        sres = sympy.resultant(to_sympy(a), to_sympy(b), ds)
        diff = sympy.expand(to_sympy(r1) - sres)
        total = sympy.expand(to_sympy(r1) + sres)
        assert diff == 0 or total == 0
        checked += 1


def test_resultant_swap_and_product_rules():
    rng = Random(7)
    for _ in range(25):
        a = random_nonzero_poly(rng, TD1, max_exp=2, max_terms=3)
        b = random_nonzero_poly(rng, TD1, max_exp=2, max_terms=3)
        c = random_nonzero_poly(rng, TD1, max_exp=2, max_terms=3)
        if a.degree(1) < 1:
            continue
        da, db = a.degree(1), b.degree(1)
        swap_sign = -1 if (int(da) * int(db)) % 2 else 1
        assert resultant(a, b, 1) == swap_sign * resultant(b, a, 1)
        assert resultant(a, b * c, 1) == resultant(a, b, 1) * resultant(a, c, 1)


# ----------------------------------------------------------------------
# gcd and squarefree part

def test_univ_gcd_pinned():
    assert poly_gcd(t**4, t**4 - 3 * t**3 + t**2) == t**2


def test_univ_gcd_coprime_is_one():
    assert poly_gcd(t**2 + 1, t - 3) == MultiPoly.one(TD1)


def test_poly_gcd_multivariate():
    h = t * d1 - 1
    f = h * (t + d1)
    g = h * (d1**2 + 3)
    d = poly_gcd(f, g)
    assert d == h
    assert exact_div_ref(f, d) == t + d1


def test_poly_gcd_normalization():
    d = poly_gcd(-6 * t**2 + 6, 4 * t + 4)
    assert d == t + 1  # integer, content 1, positive lead
    assert poly_gcd(MultiPoly.const(TD1, 5), t) == MultiPoly.one(TD1)
    assert poly_gcd(MultiPoly.zero(TD1), -3 * t).leading_term()[1] > 0


def test_poly_gcd_random_common_factor():
    rng = Random(99)
    for _ in range(20):
        h = random_nonzero_poly(rng, TD1, max_exp=2, max_terms=2)
        f = random_nonzero_poly(rng, TD1, max_exp=2, max_terms=3)
        g = random_nonzero_poly(rng, TD1, max_exp=2, max_terms=3)
        d = poly_gcd(f * h, g * h)
        # h divides the gcd
        exact_div_ref(d, poly_gcd(d, h))  # no exception
        assert poly_gcd(d, h) == poly_gcd(h, h)


TX = VarTable(("t", "x"), (Role.PARAMETER, Role.COORDINATE))


def gcd_corpus(rng: Random):
    """Seeded gcd inputs, each variable of degree 4 or below: products
    with a shared factor, squares against products and derivatives,
    independent pairs, constants and zero, on rational multiples."""

    def small(table, max_exp=2):
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        return scale * random_nonzero_poly(rng, table, max_exp=max_exp, max_terms=3)

    pairs = []
    for table in (T_ONLY, TD1, TX):
        zero, unit = MultiPoly.zero(table), MultiPoly.const(table, Fraction(-3, 7))
        pairs += [(zero, zero), (unit, zero), (zero, unit)]
        for _ in range(14):
            h, f, g = small(table), small(table), small(table)
            pairs.append((f * h, g * h))
            pairs.append((f**2, f * g))
            pairs.append((f**2, (f**2).derivative(0)))
            pairs.append((small(table, 4), small(table, 4)))
            pairs.append((unit, f * h) if rng.random() < 0.5 else (f * h, unit))
            pairs.append((zero, f * g) if rng.random() < 0.5 else (f * g, zero))
    return pairs


# missing_elim seed-0 inputs (bench/gen.py) whose curve polynomials
# G(t, x), of t-degree 8 and up to 33 terms, took the PRS squarefree
# part 15-55 ms each
CURVE_SOURCES = (
    "tower { d1^2 = t^2; d2^2 = 3*t^2 - 3*t; }"
    " param { x = (-3*t*d1) / (t); y = (-t^2 + 2*d1*d2 + d2) / (t); }",
    "tower { d1^2 = 3*t^2 + t; d2^2 = -t^2 - t; }"
    " param { x = (-3*t^2) / (-t^2 + 3*t - 2); y = (-2*t*d1 + 2*t) / (-t^2 + 3*t - 2); }",
    "tower { d1^2 = 3*t^2 + 1; d2^2 = -2*t^2; }"
    " param { x = (d1*d2 + d1 - 2) / (-t^2 + 3*t); y = (3*t^2 + 2*d1*d2) / (-t^2 + 3*t); }",
    "tower { d1^2 = 2*t^2 - 2*t - 2; d2^2 = -t^2 + 2*t + 1; }"
    " param { x = (-d2 - 3) / (2*t^2 + 2); y = (3*t^2 - 2*t*d2 + 2*d1) / (2*t^2 + 2); }",
    "tower { d1^2 = t^2; d2^2 = t^2 + 3; }"
    " param { x = (3*t*d1 + t - 2*d2) / (-2*t + 1); y = (-2*t*d1) / (-2*t + 1); }",
)


def curve_gcd_pairs():
    """(G, dG/dt) for every curve polynomial G of CURVE_SOURCES, and for
    G times the t-free content (x - 3)^2 (2x + 1)."""
    pairs = []
    for source in CURVE_SOURCES:
        param = parse(source)
        for i in (1, 2):
            g = component_curve_poly(param, i)
            x = MultiPoly.var(g.table, g.table.names[1])
            for f in (g, g * (x - 3) ** 2 * (2 * x + 1)):
                pairs.append((f, f.derivative(0)))
    return pairs


def test_poly_gcd_matches_unnormalized_prs_reference():
    pairs = gcd_corpus(Random(20261018))
    assert len(pairs) >= 200
    curves = curve_gcd_pairs()
    assert sum(not poly_gcd(*pair).is_const() for pair in curves[::2]) >= 5  # G not squarefree
    for i, (f, g) in enumerate(pairs + curves):
        ours = poly_gcd(f, g)
        assert ours == poly_gcd_prs(f, g)
        if f and g:
            assert list(ours.coeffs) == sorted(ours.coeffs, key=lambda e: (sum(e), e), reverse=True)
        if i < len(pairs):
            assert ours == poly_gcd_ref(f, g)
        else:
            assert content_wrt(f, 0) == content_wrt_ref(f, 0, poly_gcd_prs)
            assert squarefree_part(f, 0) == _unit_normalize(exact_div_ref(f, poly_gcd_prs(f, g)))
        if i < len(pairs) and i % 5 or f.is_zero() or g.is_zero():
            continue
        theirs = sympy.gcd(to_sympy(f), to_sympy(g))
        assert sympy.simplify(to_sympy(ours) / theirs).is_constant()


def test_poly_gcd_of_many_inputs_matches_the_prs_fold():
    # one modular gcd over 3-6 inputs against the two-input PRS folded
    # over them, with zeros, constants and inputs sharing no variable
    rng = Random(20261020)

    def small(table):
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        return scale * random_nonzero_poly(rng, table, max_exp=2, max_terms=3)

    def in_one(v):
        return v ** rng.randint(1, 3) + rng.randint(-5, 5) * v + rng.randint(1, 9)

    kinds = {"zero": 0, "constant": 0, "disjoint": 0, "shared": 0}
    for table in (T_ONLY, TD1, TX):
        for _ in range(16):
            h = small(table)
            polys = [small(table) * h for _ in range(rng.randint(3, 6))]
            if rng.random() < 0.4:
                polys[rng.randrange(len(polys))] = MultiPoly.zero(table)
            if rng.random() < 0.2:
                polys[rng.randrange(len(polys))] = MultiPoly.const(table, Fraction(-7, 2))
            if table.arity == 2 and rng.random() < 0.3:
                tt, x = (MultiPoly.var(table, n) for n in table.names)
                polys[-2:] = [in_one(tt) * (tt + 1), in_one(x) * (x - 2)]
            ours = poly_gcd(*polys)
            assert ours == functools.reduce(poly_gcd_prs, polys)
            nonzero = [f for f in polys if f]
            kinds["zero"] += len(nonzero) < len(polys)
            kinds["constant"] += any(f.is_const() for f in nonzero)
            supports = [f.variables() for f in nonzero]
            kinds["disjoint"] += all(supports) and not set.intersection(*supports)
            kinds["shared"] += not ours.is_const()
            if len(nonzero) > 1:
                assert list(ours.coeffs) == sorted(ours.coeffs, key=lambda e: (sum(e), e), reverse=True)
                h, quotient = arith._gcd_quotient(*nonzero)
                assert _unit_normalize(h * quotient) == _unit_normalize(nonzero[0])
    assert min(kinds.values()) >= 5, kinds
    assert poly_gcd(MultiPoly.zero(TX), MultiPoly.zero(TX), MultiPoly.zero(TX)).is_zero()


def test_content_is_one_modular_gcd(monkeypatch):
    # content_wrt hands every coefficient to one gcd; folding them in
    # pairs took one modular gcd per coefficient after the first
    calls = []
    gcd = modular.gcd

    def spy(*polys):
        calls.append(len(polys))
        return gcd(*polys)

    monkeypatch.setattr(modular, "gcd", spy)
    tt, x = MultiPoly.var(TX, "t"), MultiPoly.var(TX, "x")
    content = (x + 1) * (2 * x - 3)
    f = content * (tt**3 + x * tt**2 - tt + 3 * x**2 + 1)
    assert sum(not c.is_const() for c in f.univariate_coeffs(0)) == 4
    assert content_wrt(f, 0) == content_wrt_ref(f, 0, poly_gcd_prs) == content
    assert calls == [4]


def test_poly_gcd_survives_forced_bad_luck(monkeypatch):
    tt, x = MultiPoly.var(TX, "t"), MultiPoly.var(TX, "x")
    lifts = []
    brown, points, primes = modular._brown, modular._points, modular.PRIMES

    def spy(polys):
        for lift in brown(polys):
            lifts.append(lift)
            yield lift

    monkeypatch.setattr(modular, "_brown", spy)

    def check(f, g, want):
        lifts.clear()
        assert poly_gcd(f, g) == poly_gcd_prs(f, g) == want

    # the first prime divides the gcd of the leading coefficients, so
    # every image there loses degree: gcd 1 modulo 97
    monkeypatch.setattr(modular, "PRIMES", (97, *primes))
    check((97 * tt + 3) * (tt + 5), (97 * tt + 3) * (tt - 7), 97 * tt + 3)
    # the first point makes both images (x - 1)^2, a degree above the gcd's
    monkeypatch.setattr(modular, "_points", lambda p: itertools.chain([1], points(p)))
    check((x - 1) * (x - tt), (x - 1) * (x + tt - 2), x - 1)
    # at the first point the leading coefficient t of both vanishes and
    # the images x + 1 and x + 2 are coprime
    monkeypatch.setattr(modular, "_points", lambda p: itertools.chain([0], points(p)))
    check((tt * x + 1) * (x + 1), (tt * x + 1) * (x + 2), tt * x + 1)
    # modulo 97 alone the gcd t + 100 lifts to t + 3, which fails the
    # trial division; the next prime comes from the search below 2^62
    monkeypatch.setattr(modular, "PRIMES", (97,))
    check((tt + 100) * (tt + 1), (tt + 100) * (tt - 1), tt + 100)
    assert [lift[0] for lift in lifts if len(lift) > 1] == [[3], [100]]


GCDS_IN_CHILD = """
from radsurj import modular
from radsurj.arith import MultiPoly, Role, VarTable, poly_gcd, squarefree_part
table = VarTable(("t", "x"), (Role.PARAMETER, Role.COORDINATE))
t, x = (MultiPoly.var(table, n) for n in table.names)
P = modular.PRIMES[0]
print(poly_gcd((t + P) * (t + 1), (t + P) * (t + 2)) == t + P)
print(squarefree_part((t + P) ** 2 * (t - 1), 0) == (t + P) * (t - 1))
h = x + P * t + 1
print(poly_gcd(h * (x + t), h * (x - t + 2)) == h)
"""


def test_gcd_lifts_a_coefficient_that_vanishes_modulo_the_first_prime():
    # each gcd has a coefficient that is 0 modulo the first prime; when
    # the Chinese remaindering dropped such coefficients, every later
    # prime gave the same wrong lift and the gcd never returned, so run
    # in a child process and fail on the timeout
    proc = run_child(["-c", GCDS_IN_CHILD], timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\nTrue\nTrue\n"


def test_gcd_finds_primes_past_a_shrunk_prime_tuple(monkeypatch):
    # the plane-curve tests shrink modular.PRIMES to one prime; gcds whose
    # coefficients need three 62-bit primes must find the rest themselves
    monkeypatch.setattr(modular, "PRIMES", modular.PRIMES[:1])
    tt, x = MultiPoly.var(TX, "t"), MultiPoly.var(TX, "x")
    big = 2**80 + 3
    core = (tt * x + big) ** 2 * (x + tt + 1)
    assert squarefree_part(core, 0) == (tt * x + big) * (x + tt + 1)
    f = (x + 2**70 + 1) * (x - big) * (tt**2 + x * tt + 1)
    assert content_wrt(f, 0) == content_wrt_ref(f, 0, poly_gcd_prs) == (x + 2**70 + 1) * (x - big)


def test_poly_gcd_refuses_a_degree_past_the_dense_cap(monkeypatch):
    # the gcd works on dense coefficient lists; a degree past CAP must
    # raise before anything is allocated
    monkeypatch.setattr(arith, "CAP", 8)
    tt = MultiPoly.var(TX, "t")
    assert poly_gcd(tt**8 - 1, tt - 1) == tt - 1
    with pytest.raises(ResourceError):
        poly_gcd(tt**9 - 1, tt - 1)
    with pytest.raises(ResourceError):
        squarefree_part(tt**9 - 1, 0)


def test_poly_gcd_takes_at_most_two_variables():
    t2, a, b = (MultiPoly.var(TD12, n) for n in TD12.names)
    with pytest.raises(DomainError):
        poly_gcd(t2 * a + b, t2 * a)
    assert poly_gcd(t2 * a, b + 1) == MultiPoly.one(TD12)  # no common variable


def test_squarefree_part_pinned():
    f = (t**2 - 1) ** 2 * (t + 2)
    assert squarefree_part(f, 0) == (t**2 - 1) * (t + 2)


def test_squarefree_part_of_square_equals_part_of_base():
    rng = Random(5)
    for _ in range(15):
        f = random_nonzero_poly(rng, TD1, max_exp=2, max_terms=3)
        if f.degree(0) <= 0:
            continue
        assert squarefree_part(f**2, 0) == squarefree_part(f, 0)


def test_squarefree_part_degree_zero_is_one():
    assert squarefree_part(d1**2 + 1, 0) == MultiPoly.one(TD1)


def test_squarefree_part_matches_sympy():
    rng = Random(2024)
    ts = sym("t")
    for _ in range(15):
        f = random_nonzero_poly(rng, T_ONLY, max_exp=4, max_terms=3)
        if f.degree(0) <= 0:
            continue
        ours = squarefree_part(f, 0)
        theirs = 1
        for factor, _ in sympy.factor_list(to_sympy(f))[1]:
            if factor.has(ts):
                theirs *= factor
        quot = sympy.simplify(to_sympy(ours) / sympy.expand(theirs))
        assert quot.is_constant()


# ----------------------------------------------------------------------
# weighted degrees

W = WeightVector(TD1, (Fraction(1), Fraction(1, 2)))


def test_weighted_degree_pinned():
    assert weighted_degree(t * d1, W) == Fraction(3, 2)
    assert weighted_degree(t + d1, W) == 1
    assert weighted_degree(MultiPoly.zero(TD1), W) is NEG_INF


def test_weight_vector_invariants_enforced():
    with pytest.raises(StructuralError):
        WeightVector(TD1, (Fraction(2), Fraction(1, 2)))
    with pytest.raises(StructuralError):
        WeightVector(TD1, (Fraction(1), Fraction(0)))


def test_leading_form_pinned():
    f = t**2 * d1 + t * d1**3 + t + 1
    # weights (1, 1/2): degrees 5/2, 5/2, 1, 0
    lf = leading_form(f, W)
    assert lf == t**2 * d1 + t * d1**3


@given(polys(), polys())
def test_weighted_degree_is_additive_on_products(f, g):
    if f.is_zero() or g.is_zero():
        return
    assert weighted_degree(f * g, W) == weighted_degree(f, W) + weighted_degree(g, W)
    assert leading_form(f * g, W) == leading_form(f, W) * leading_form(g, W)


# ----------------------------------------------------------------------
# printing

def test_str_canonical_examples():
    assert str(MultiPoly.zero(TD1)) == "0"
    assert str(t**2 - t + 1) == "t^2 - t + 1"
    assert str(Fraction(3, 2) * t * d1 - d1**2) == "3/2*t*d1 - d1^2"
