from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from radsurj import arith
from radsurj.arith import (
    NEG_INF,
    Budget,
    MultiPoly,
    Role,
    TermOrder,
    VarTable,
    WeightVector,
    exact_div,
    leading_form,
    poly_divmod,
    poly_gcd,
    prem,
    squarefree_part,
    weighted_degree,
)
from radsurj.errors import DomainError, ResourceError, StructuralError
from radsurj.ideal import buchberger
from radsurj.tower import RadicalLevel, RadicalTower, normal_form

from support import (
    TD1,
    TD12,
    T_ONLY,
    complex_eval_corpus,
    eval_complex_ref,
    exact_div_ref,
    mul_ref,
    poly_divmod_ref,
    poly_gcd_ref,
    random_nonzero_poly,
    random_poly,
    resultant,
    resultant_det,
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
    (Role.PARAMETER, Role.RADICAL, Role.RADICAL, Role.COORDINATE, Role.INVERSE),
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
# exact division

@given(polys(), polys())
def test_exact_div_roundtrip(f, g):
    if g.is_zero():
        with pytest.raises(DomainError):
            exact_div(f, g)
    else:
        assert exact_div(f * g, g) == f


def test_exact_div_inexact_raises():
    with pytest.raises(DomainError):
        exact_div(t + 1, t - 1)


def test_exact_div_matches_immutable_reference():
    # products and sums give quotients and remainders whose term order
    # differs from the canonical one; the order must come out the same
    rng = Random(2027)
    for _ in range(150):
        g = random_nonzero_poly(rng, TD12, max_exp=2, max_terms=4)
        f = random_poly(rng, TD12, max_exp=3, max_terms=5) * g
        if rng.random() < 0.2:
            f = f + random_poly(rng, TD12, max_exp=2, max_terms=2)
        try:
            want = exact_div_ref(f, g)
        except DomainError:
            with pytest.raises(DomainError):
                exact_div(f, g)
            continue
        got = exact_div(f, g)
        assert got == want
        assert list(got.coeffs) == list(want.coeffs)


def test_poly_divmod_matches_sympy_in_one_variable():
    rng = Random(2610)
    x = sym("t")
    for _ in range(60):
        f = random_poly(rng, T_ONLY, max_exp=9, max_terms=6)
        g = random_nonzero_poly(rng, T_ONLY, max_exp=4, max_terms=3)
        quot, rem = poly_divmod(f, g)
        want_q, want_r = sympy.div(to_sympy(f), to_sympy(g), x)
        assert to_sympy(quot) == want_q and to_sympy(rem) == want_r
        assert len(quot.coeffs) <= max(0, f.degree(0) - g.degree(0) + 1)


def test_poly_divmod_remainder_escapes_the_leading_monomial():
    rng = Random(2611)
    for _ in range(60):
        f = random_poly(rng, TD12, max_exp=3, max_terms=5)
        g = random_nonzero_poly(rng, TD12, max_exp=2, max_terms=3)
        quot, rem = poly_divmod(f, g)
        assert quot * g + rem == f
        lead = TermOrder.grevlex(TD12).leading(g)[0]
        assert not any(all(map(int.__le__, lead, e)) for e in rem.coeffs)


def _outcome(run):
    try:
        return run()
    except ResourceError:
        return "exhausted"


def test_poly_divmod_matches_tuple_reference():
    # exact quotients in three variables, and quotient and remainder in
    # one, agree with the graded lex division on exponent tuples, budget
    # steps included
    rng = Random(2612)
    exhausted = 0
    for _ in range(60):
        g = random_nonzero_poly(rng, TD12, max_exp=2, max_terms=3)
        f = random_poly(rng, TD12, max_exp=3, max_terms=4) * g
        quot, rem = poly_divmod(f, g)
        assert (quot, rem) == poly_divmod_ref(f, g) and rem.is_zero()
        f = random_poly(rng, T_ONLY, max_exp=9, max_terms=6)
        g = random_nonzero_poly(rng, T_ONLY, max_exp=4, max_terms=3)
        limit = rng.choice([None, rng.randint(0, 6)])
        want = _outcome(lambda: poly_divmod_ref(f, g, limit))
        budget = None if limit is None else Budget(limit)
        assert _outcome(lambda: poly_divmod(f, g, budget)) == want
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
        lambda: exact_div(t**2 - d1**2, t - d1),
        lambda: normal_form(d1**3, tower),
        lambda: buchberger([d1**2 - t, t * d1 - 1], TermOrder.grevlex(TD1)),
    ):
        calls.clear()
        run()
        assert calls


def test_poly_divmod_spends_one_step_per_quotient_term():
    f, g = t**10 + 3, t**2 + 1  # five division steps, remainder 2
    quot = t**8 - t**6 + t**4 - t**2 + 1
    budget = Budget(5)
    assert poly_divmod(f, g, budget) == (quot, MultiPoly.const(TD1, 2))
    assert budget.remaining == 0
    with pytest.raises(ResourceError):
        poly_divmod(f, g, Budget(4))
    with pytest.raises(DomainError):
        poly_divmod(f, MultiPoly.zero(TD1))


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
    assert exact_div(f, d) == t + d1


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
        exact_div(d, poly_gcd(d, h))  # no exception
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


def test_poly_gcd_matches_unnormalized_prs_reference():
    pairs = gcd_corpus(Random(20261018))
    assert len(pairs) >= 200
    for i, (f, g) in enumerate(pairs):
        ours, ref = poly_gcd(f, g), poly_gcd_ref(f, g)
        assert ours == ref
        assert list(ours.coeffs) == list(ref.coeffs)
        if i % 5 or f.is_zero() or g.is_zero():
            continue
        theirs = sympy.gcd(to_sympy(f), to_sympy(g))
        assert sympy.simplify(to_sympy(ours) / theirs).is_constant()


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
