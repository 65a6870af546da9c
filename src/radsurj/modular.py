"""Prime-field arithmetic whose answers are proven exactly afterwards.

Word primes, roots modulo a prime, rational reconstruction (Wang 1981;
Monagan, "Maximal quotient rational reconstruction", ISSAC 2004),
evaluation of a coefficient map modulo a prime, and the first linear
dependency among monomial columns evaluated at points modulo a prime
(undetermined coefficients: Sederberg, Anderson and Goldman, CVGIP 28,
1984).  This module imports nothing from the rest of the package, so
any module can build on it; the callers prove each answer exactly, so a
bad prime or an unlucky draw can only cost time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator, Mapping, Sequence

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
FIRST_POINTS = 8  # points drawn at first; later batches double the rows
SLACK = 2  # each column meets at least SLACK + 1 rows beyond the pivots


@lru_cache(maxsize=16)
def _tonelli(p: int) -> tuple[int, int, int]:
    """(q, s, z^q) with p - 1 = q * 2^s, q odd, z the least non-square."""
    # odd_part inline: called behind this cache, its traced count would vary
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
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


def odd_part(e: int) -> tuple[int, int]:
    """(u, s) with e = u * 2^s and u odd."""
    s = (e & -e).bit_length() - 1
    return e >> s, s


def mod_terms(coeffs: Mapping[tuple[int, ...], Fraction], p: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """A coefficient map {exponents: c} modulo p, as (c mod p, ((var, k),
    ...)) with nonzero k; p must divide no denominator."""
    return [
        (c.numerator * pow(c.denominator, -1, p) % p, tuple((i, k) for i, k in enumerate(e) if k))
        for e, c in coeffs.items()
    ]


def eval_mod(terms, point: Sequence[int], p: int) -> int:
    """The value at point modulo p of terms from mod_terms."""
    total = 0
    for c, mono in terms:
        for i, k in mono:
            c = c * pow(point[i], k, p) % p
        total += c
    return total % p


def first_dependency(
    monos: Sequence[tuple[int, int]], points: Iterator[tuple[int, int]], p: int, budget
) -> tuple[int, list[int]] | None:
    """The first monomial column that the columns before it span on the
    points, as (j, c) with sum c[i] * monos[i] vanishing there and
    c[j] = 1; (len(monos), []) when no column does, None when the points
    ran out.  One budget.spend() per column; spend raises to stop.

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
