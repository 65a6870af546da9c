"""Prime-field arithmetic whose answers are proven exactly afterwards.

Word primes, roots modulo a prime, rational reconstruction (Wang 1981;
Monagan, "Maximal quotient rational reconstruction", ISSAC 2004),
evaluation of a coefficient map modulo a prime, the first linear
dependency among monomial columns evaluated at points modulo a prime
(undetermined coefficients: Sederberg, Anderson and Goldman, CVGIP 28,
1984), and the gcd over Z of any number of polynomials in one or two
variables by evaluation, interpolation and Chinese remaindering (Brown,
"On Euclid's algorithm and the computation of polynomial greatest
common divisors", J. ACM 18, 1971).  This module imports nothing from
the rest of the package, so any module can build on it.  Every answer
is proven exactly, the gcd's by division here and the others by their
callers, so a bad prime or an unlucky draw can only cost time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from random import Random
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
# Miller-Rabin with these bases is exact below 3.3 * 10^24
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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


# ----------------------------------------------------------------------
# gcd over Z by evaluation and interpolation
#
# A polynomial in a main variable x and another variable y is dense: a
# list over the powers of x of lists over the powers of y, each trimmed
# of zeros at the top, [] for a zero coefficient.  A polynomial in y
# alone is one such inner list.

Dense = list[list[int]]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3 * 10^24."""
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d, s = odd_part(n - 1)
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """PRIMES, then every other prime below 2^62 from the top down, so
    the supply never runs out however few PRIMES holds."""
    yield from PRIMES
    n = (1 << 62) - 1
    while True:
        if n not in PRIMES and _is_prime(n):
            yield n
        n -= 2


def _points(p: int) -> Iterator[int]:
    """Every residue modulo p once, in a seeded order: an arithmetic
    progression with a random start and step."""
    rng = Random(p)
    start, step = rng.randrange(p), rng.randrange(1, p)
    return ((start + k * step) % p for k in range(p))


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _eval(a: list[int], b: int, p: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * b + c) % p
    return v


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b in F_p[y], b nonzero."""
    r, inv, db = a[:], pow(b[-1], -1, p), len(b) - 1
    while len(r) > db:
        q, s = r.pop() * inv % p, len(r) - db
        for j in range(db):
            r[s + j] = (r[s + j] - q * b[j]) % p
        _trim(r)
    return r


def _mul(a: list[int], b: list[int]) -> list[int]:
    """a * b in Z[y]."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _submul(a: list[int], c: list[int], b: list[int]) -> list[int]:
    """a - c * b in Z[y], trimmed."""
    out = a + [0] * (len(c) + len(b) - 1 - len(a))
    for i, x in enumerate(c):
        for j, y in enumerate(b):
            out[i + j] -= x * y
    return _trim(out)


def _quo(a: list, b: list) -> list | None:
    """a / b for nonzero a and b, both in Z[y] or both dense in Z[y][x],
    or None when b does not divide a.

    Long division by the leading coefficient of b, itself exact in Z or
    in Z[y], stopping at the first quotient coefficient that is not.
    For b of content 1 over Z, b divides a over Q only if it does over Z
    (Gauss's lemma), so None means that b does not divide a at all.
    """
    r, db = a[:], len(b) - 1
    if len(r) <= db:
        return None
    nested = isinstance(b[-1], list)
    q: list = [[] if nested else 0] * (len(r) - db)
    for i in reversed(range(len(q))):
        top = r[i + db]
        if not top:
            continue
        if nested:
            c = _quo(top, b[-1])
            if c is None:
                return None
            for j, x in enumerate(b):
                r[i + j] = _submul(r[i + j], c, x)
        else:
            c, m = divmod(top, b[-1])
            if m:
                return None
            for j, x in enumerate(b):
                r[i + j] -= c * x
        q[i] = c
    return None if any(r) else q


def _interpolate(points: list[int], rows: list[list[int]], p: int) -> Dense:
    """Per column i of rows, the polynomial in y of degree below
    len(points) that takes rows[k][i] at points[k], modulo p, as a list
    of len(points) coefficients, zeros at the top kept."""
    n = len(points)
    master = [1]  # prod (y - b)
    for b in points:
        master = [(lo - b * hi) % p for lo, hi in zip([0, *master], [*master, 0])]
    basis = []  # the Lagrange polynomials
    for b in points:
        q, acc = [0] * n, 0
        for k in range(n, 0, -1):  # master / (y - b)
            acc = q[k - 1] = (master[k] + b * acc) % p
        w = pow(_eval(q, b, p), -1, p)
        basis.append([c * w % p for c in q])
    out = []
    for i in range(len(rows[0])):
        col = [0] * n
        for row, lag in zip(rows, basis):
            if row[i]:
                col = [(c + row[i] * x) % p for c, x in zip(col, lag)]
        out.append(col)
    return out


def _verified(polys: list[list]) -> tuple[list, list[list]]:
    """(h, [a / h for a in polys]) for nonzero polys, all in Z[y] or all
    dense in Z[y][x], and h the gcd of their primitive parts: in x, or
    over Z for polys in Z[y].

    Each lift of _brown is kept only once it divides every poly exactly
    (_quo).  It has content 1 over Z and in x, and its degree in x is an
    image degree, at least the gcd's; a common divisor of that degree
    whose content in x is 1 is the gcd up to sign.
    """
    flat = not isinstance(polys[0][-1], list)
    for lift in _brown([[[c] if c else [] for c in a] for a in polys] if flat else polys):
        h = [r[0] if r else 0 for r in lift] if flat else lift
        if lift == [[1]]:
            return h, polys
        quots = [_quo(a, h) for a in polys]
        if None not in quots:
            return h, quots
    raise AssertionError("_brown stopped lifting")


def _primitive(f: Dense) -> tuple[list[int], Dense]:
    """The content of f in x and the quotient of f by it."""
    content, quots = _verified([a for a in f if a])
    it = iter(quots)
    return content, [next(it) if a else [] for a in f]


def _brown(polys: list[Dense]) -> Iterator[Dense]:
    """Lifts of the gcd of the primitive parts in x of polys, each with
    content 1 over Z and in x, one per prime that completes one; the
    true gcd comes once enough primes are combined.

    gamma, the gcd of the leading coefficients in x, is a multiple of
    the gcd's.  At a point b with gamma(b) != 0 mod p the gcd keeps its
    degree in x, so the monic gcd of the images has at least that
    degree: degree 0 proves the gcd is 1, and an image of a degree above
    the lowest seen is unlucky and dropped, with its prime when every
    point there is.  The images are scaled to leading coefficient
    gamma(b) and interpolated on deg gamma + min deg_y + 1 points, then
    combined with earlier primes by Chinese remaindering, every
    coefficient kept, zero or not, until the symmetric lift.  A lift is
    given out once the newest prime leaves it unchanged or no
    coefficient exceeds sqrt(m / 2), m the product of the primes.
    """
    if any(len(f) == 1 for f in polys):
        yield [[1]]
        return
    leads = [f[-1] for f in polys]
    gamma = [math.gcd(*(c for a in leads for c in a))]
    if any(len(a) > 1 for f in polys for a in f):
        gamma = [gamma[0] * c for c in _verified(leads)[0]]
    need = len(gamma) + min(max(map(len, f)) for f in polys) - 1
    deg, acc, modulus, last = None, None, 1, None
    for p in _primes():
        gp = _trim([c % p for c in gamma])
        if not gp:
            continue
        mods = [[[c % p for c in a] for a in f] for f in polys]
        points, rows = [], []
        good = (b for b in _points(p) if _eval(gp, b, p))
        for b in islice(good, 2 * need):
            h: list[int] = []
            for f in mods:
                image = _trim([_eval(a, b, p) for a in f])
                while image:
                    h, image = image, _rem(h, image, p)
            if not h or deg is not None and len(h) > deg:
                continue
            if len(h) == 1:
                yield [[1]]
                return
            if deg is None or len(h) < deg:
                deg, acc, modulus, last, points, rows = len(h), None, 1, None, [], []
            scale = _eval(gp, b, p) * pow(h[-1], -1, p) % p
            points.append(b)
            rows.append([c * scale % p for c in h])
            if len(points) == need:
                break
        else:
            continue  # too few points: the prime is unlucky or too small
        image = _interpolate(points, rows, p)
        if acc is None:
            acc = image
        else:
            inv = pow(modulus, -1, p)
            acc = [[u + modulus * ((v - u) * inv % p) for u, v in zip(ru, rv)] for ru, rv in zip(acc, image)]
        modulus *= p
        half = modulus // 2
        lift = [_trim([u - modulus if u > half else u for u in r]) for r in acc]
        bound = math.isqrt(half)
        if lift == last or all(abs(c) <= bound for a in lift for c in a):
            h = lift if all(len(a) <= 1 for a in lift) else _primitive(lift)[1]
            k = math.gcd(*(c for a in h for c in a))
            yield [[c // k for c in a] for a in h]
        last = lift


def gcd(*polys: Mapping[tuple[int, ...], int]) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """(h, polys[0] / h) for h a gcd of polys over Q with integer
    coefficients, each as a map {exponents: c}, for nonzero integer maps
    in which one or two variables occur, one of them in all; the main
    variable x is the last one common to all.  An integer factor common
    to polys may stay out of h.

    The contents in x, polynomials in the other variable y, and the
    primitive parts come first; h is the gcd of the contents times the
    gcd of the primitive parts, each from _verified, which proves its
    answer by exact division, so the quotients come with it.
    """
    n = len(next(iter(polys[0])))
    supports = [{i for e in h for i, k in enumerate(e) if k} for h in polys]
    main = max(set.intersection(*supports))
    other = next((i for i in set.union(*supports) if i != main), None)

    def dense(h: Mapping[tuple[int, ...], int]) -> Dense:
        out: Dense = [[] for _ in range(max(e[main] for e in h) + 1)]
        for e, c in h.items():
            row, j = out[e[main]], 0 if other is None else e[other]
            row.extend([0] * (j + 1 - len(row)))
            row[j] = c
        return out

    def sparse(content: list[int], a: Dense) -> dict[tuple[int, ...], int]:
        out = {}
        for i, row in enumerate(a):
            for j, c in enumerate(_mul(content, row)):
                if c:
                    e = [0] * n
                    e[main] = i
                    if other is not None:
                        e[other] = j
                    out[tuple(e)] = c
        return out

    contents, prims = zip(*(_primitive(dense(h)) for h in polys))
    c, (qc, *_) = _verified(list(contents))
    h, (qf, *_) = _verified(list(prims))
    return sparse(c, h), sparse(qc, qf)
