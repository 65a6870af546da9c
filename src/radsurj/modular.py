"""Prime-field arithmetic whose answers are proven exactly afterwards.

Word primes, roots modulo a prime, Chinese remaindering and rational
reconstruction (Wang 1981; Monagan, "Maximal quotient rational
reconstruction", ISSAC 2004), and on them the plane-curve route of
missing.implicitize: the implicit generator F(x, y) of a radical curve
is found by undetermined coefficients (Sederberg, Anderson and Goldman,
CVGIP 28, 1984) as the first linear dependency among the monomials of a
bidegree box, evaluated at points of the tower curve modulo a prime.
The dependency is lifted to Q and returned only after an exact
normal-form check, so a bad prime or an unlucky draw can only cost
time: plane_curve then declines and the caller runs the Groebner route.
missing.implicitize states why a verified F is the generator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from random import Random
from typing import Iterator, Sequence

from .arith import Budget, MultiPoly, Role, TermOrder, VarTable, content_wrt
from .surjcheck import RadicalParametrization
from .tower import normal_form

# 62-bit primes, one per residue class mod 24 of the primes above 3.
# The first has square roots of -1, 2, 3, 5, 7, 11 and 13, so radicands
# such as 3*t^2 have points; the second (2 mod 3) has unique cube roots.
PRIMES = (
    4611686018427384649,
    4611686018427387761,
    4611686018427387701,
    4611686018427387733,
    4611686018427387847,
    4611686018427386903,
    4611686018427387587,
    4611686018427387787,
)
TRIES = 4  # primes that may draw points before the route declines
MAX_FAILED_DRAWS = 100  # failed draws in a row before a prime is left
# Largest bidegree box the route eliminates.  Elimination is cubic in
# the column count: a box with no dependency takes 0.13 s at 100
# unknowns, 0.76 s at 196 and 4.8 s at 361 (tall.rs's box), measured on
# one core of a 2-vCPU host, so past this the Groebner route runs.
MAX_UNKNOWNS = 200
FIRST_POINTS = 8  # points drawn at first; later batches double the rows
SLACK = 2  # each column meets at least SLACK + 1 rows beyond the pivots
SEED = 20261020


@lru_cache(maxsize=16)
def _tonelli(p: int) -> tuple[int, int, int]:
    """(q, s, z^q) with p - 1 = q * 2^s, q odd, z the least non-square."""
    q, s = _odd_part(p - 1)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return q, s, pow(z, q, p)


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p (Tonelli-Shanks), or
    None when a is not a square; one modular power per call."""
    a %= p
    if a == 0:
        return 0
    q, m, c = _tonelli(p)
    w = pow(a, (q - 1) // 2, p)
    r, t = a * w % p, a * w * w % p  # a^((q+1)/2) and a^q
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
            if i == m:
                return None  # t has the order of a non-square
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def rational_reconstruction(u: int, m: int) -> Fraction | None:
    """The n/d with n = u*d mod m, |n| and d at most sqrt(m/2) and
    gcd(n, d) = 1, or None; such a fraction is unique when it exists."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _odd_part(e: int) -> tuple[int, int]:
    s = (e & -e).bit_length() - 1
    return e >> s, s


def _mod_terms(f: MultiPoly, p: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """f's terms modulo p: (coefficient, ((var, k), ...)) with nonzero k."""
    return [
        (c.numerator * pow(c.denominator, -1, p) % p, tuple((i, k) for i, k in enumerate(e) if k))
        for e, c in f.coeffs.items()
    ]


def _eval_mod(terms, point: Sequence[int], p: int) -> int:
    total = 0
    for c, mono in terms:
        for i, k in mono:
            c = c * pow(point[i], k, p) % p
        total += c
    return total % p


def _curve_points(param: RadicalParametrization, p: int, rng: Random) -> Iterator[tuple[int, int]]:
    """Random points (x, y) of the image modulo p.

    t is drawn at random and each level's root taken in turn: the inverse
    exponent for the odd part of e (the caller picks p with it coprime to
    p - 1), then square roots with a random sign.  A draw fails on a
    radicand that is not a square or on q_x * q_y = 0; the points stop
    after MAX_FAILED_DRAWS failures in a row.
    """
    levels = []
    for lv in param.tower.levels:
        u, s = _odd_part(lv.exponent)
        levels.append((_mod_terms(lv.radicand, p), pow(u, -1, p - 1), s))
    comps = [(_mod_terms(c.numerator, p), _mod_terms(c.denominator, p)) for c in param.components]
    failed = 0
    while failed < MAX_FAILED_DRAWS:
        point = [rng.randrange(p)]
        for terms, odd_root, s in levels:
            d = _eval_mod(terms, point, p)
            if d and odd_root > 1:
                d = pow(d, odd_root, p)
            for _ in range(s):
                d = sqrt_mod(d, p)
                if d is None:
                    break
                if rng.getrandbits(1):
                    d = -d % p
            if d is None:
                break
            point.append(d)
        else:
            (px, qx), (py, qy) = ((_eval_mod(num, point, p), _eval_mod(den, point, p)) for num, den in comps)
            den = qx * qy % p
            if den:
                failed = 0
                inv = pow(den, -1, p)
                yield px * qy * inv % p, py * qx * inv % p
                continue
        failed += 1


def _first_dependency(
    monos: Sequence[tuple[int, int]], points: Iterator[tuple[int, int]], p: int, budget: Budget
) -> tuple[int, list[int]] | None:
    """The first monomial column that the columns before it span on the
    points, as (j, c) with sum c[i] * monos[i] vanishing there and
    c[j] = 1; (len(monos), []) when no column does, None when the points
    ran out.  One budget step per column.

    Columns are eliminated one at a time against the earlier pivots, each
    pivot keeping its combination of the original columns, so the search
    stops at the dependency however large the box.  Rows are drawn in
    doubling batches so that each column meets at least SLACK + 1 rows
    beyond the pivots; a zero residual on them is a dependency on the
    curve with high probability, and the exact check catches the rest.
    """
    dx, dy = max(a for a, _ in monos), max(b for _, b in monos)
    xs: list[list[int]] = []  # per row, powers of x up to dx
    ys: list[list[int]] = []
    pivots: list[tuple[int, list[int], list[int]]] = []  # (row, reduced column, combination)
    for j, (a, b) in enumerate(monos):
        budget.spend()
        if len(xs) < len(pivots) + 1 + SLACK:
            want = max(FIRST_POINTS, len(xs))
            new = list(islice(points, want))
            if len(new) < want:
                return None
            for x, y in new:
                xs.append([pow(x, k, p) for k in range(dx + 1)])
                ys.append([pow(y, k, p) for k in range(dy + 1)])
            for _, w, comb in pivots:
                for xp, yp in zip(xs[len(w):], ys[len(w):]):
                    w.append(sum(c * xp[ai] * yp[bi] for c, (ai, bi) in zip(comb, monos)) % p)
        v = [xp[a] * yp[b] % p for xp, yp in zip(xs, ys)]
        c = [0] * j + [1]
        for r, w, comb in pivots:
            f = v[r]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, w)]
                c[: len(comb)] = [(x - f * y) % p for x, y in zip(c, comb)]
        r = next((i for i, x in enumerate(v) if x), None)
        if r is None:
            return j, c
        inv = pow(v[r], -1, p)
        pivots.append((r, [x * inv % p for x in v], [x * inv % p for x in c]))
    return len(monos), []


def _vanishes(f: MultiPoly, param: RadicalParametrization) -> bool:
    """Is q_x^a q_y^b * f(p_x/q_x, p_y/q_y) zero modulo the tower, where
    a and b are f's degrees in x and y?  Powers are reduced as they are
    built; the normal form is a ring map modulo the tower."""
    tower = param.tower

    def cleared(comp, k: int) -> list[MultiPoly]:  # p^i q^(k-i) for i = 0..k
        num, den = [MultiPoly.one(tower.table)], [MultiPoly.one(tower.table)]
        for _ in range(k):
            num.append(normal_form(num[-1] * comp.numerator, tower))
            den.append(normal_form(den[-1] * comp.denominator, tower))
        return [normal_form(num[i] * den[k - i], tower) for i in range(k + 1)]

    comp_x, comp_y = param.components
    xs, ys = cleared(comp_x, f.degree(0)), cleared(comp_y, f.degree(1))
    total = MultiPoly.zero(tower.table)
    for i, x_part in enumerate(xs):
        inner = MultiPoly.zero(tower.table)
        for (ei, ej), c in f.coeffs.items():
            if ei == i:
                inner = inner + ys[ej] * c
        if inner:
            total = total + x_part * inner
    return normal_form(total, tower).is_zero()


def plane_curve(
    param: RadicalParametrization, curves: Sequence[MultiPoly | None], budget: Budget
) -> MultiPoly | None:
    """The monic implicit generator of a plane radical curve, or None to
    decline.

    curves are the curve polynomials G_x(t, x) and G_y(t, y) of
    missing.candidate_polys.  The route declines when one is None or has
    a content free of t (a coordinate constant on some component, so the
    elimination ideal need not be principal), when the bidegree box
    deg_x F <= deg_t(G_y) E / deg_y(G_y), deg_y F <= deg_t(G_x) E /
    deg_x(G_x), E the product of the tower's exponents, holds more than
    MAX_UNKNOWNS monomials or no dependency, and when no prime's lift
    verifies within TRIES primes.  Primes that divide a coefficient
    denominator, or whose p - 1 shares a factor with the odd part of an
    exponent, are skipped.  Each prime's dependency is combined by CRT
    with those of the same leading column, and a rational reconstruction
    is checked exactly once per new candidate.  Spends one budget step
    per eliminated column.
    """
    if param.n != 2 or any(g is None or g.degree(1) < 1 or not content_wrt(g, 0).is_const() for g in curves):
        return None
    (gx, gy), e = curves, param.tower.exponent_product
    dx, dy = -(-gy.degree(0) * e // gy.degree(1)), -(-gx.degree(0) * e // gx.degree(1))
    if (dx + 1) * (dy + 1) > MAX_UNKNOWNS:
        return None
    table = VarTable(param.coordinates, (Role.COORDINATE,) * 2)
    order = TermOrder(table, (0, 1))  # missing's elimination order on the coordinates
    monos = sorted(((a, b) for a in range(dx + 1) for b in range(dy + 1)), key=order.key)
    polys = [lv.radicand for lv in param.tower.levels]
    polys += [f for comp in param.components for f in (comp.numerator, comp.denominator)]
    denom = math.lcm(*(c.denominator for f in polys for c in f.coeffs.values()))
    odd = [_odd_part(lv.exponent)[0] for lv in param.tower.levels]
    rng = Random(SEED)
    lead, modulus, residues, tried, tries = -1, 1, [], None, 0
    for p in PRIMES:
        if denom % p == 0 or any(math.gcd(u, p - 1) > 1 for u in odd):
            continue
        if tries == TRIES:
            break
        tries += 1
        found = _first_dependency(monos, _curve_points(param, p, rng), p, budget)
        if found is None or found[0] < lead:
            continue  # no points, or an unlucky prime
        if found[0] == len(monos):
            return None  # the generator lies outside the box
        if found[0] > lead:
            lead, modulus, residues = found[0], 1, [0] * (found[0] + 1)
        inv = pow(modulus, -1, p)
        residues = [u + modulus * ((v - u) * inv % p) for u, v in zip(residues, found[1])]
        modulus *= p
        coeffs = [rational_reconstruction(u, modulus) for u in residues]
        if None in coeffs:
            continue
        f = order.poly({order.key(monos[i]): coeffs[i] for i in reversed(range(lead + 1)) if coeffs[i]})
        if f != tried and _vanishes(f, param):
            return f
        tried = f
    return None
