from fractions import Fraction
from math import isqrt
from random import Random

from radsurj.modular import PRIMES, rational_reconstruction, sqrt_mod


def test_sqrt_mod_finds_roots_and_refuses_non_squares():
    # every residue class mod 8 of the word primes and some small primes
    rng = Random(7)
    for p in (*PRIMES, 3, 5, 7, 13, 17, 41, 97, 257, 65537):
        for _ in range(200):
            a = rng.randrange(p)
            r = sqrt_mod(a, p)
            if a and pow(a, (p - 1) // 2, p) != 1:
                assert r is None
            else:
                assert r * r % p == a


def test_rational_reconstruction_round_trips_within_the_bound():
    rng = Random(11)
    for m in (PRIMES[0], PRIMES[0] * PRIMES[1]):
        bound = isqrt(m // 2)
        for _ in range(200):
            n = rng.randint(-bound, bound)
            d = rng.randint(1, bound)
            f = Fraction(n, d)
            u = f.numerator * pow(f.denominator, -1, m) % m
            assert rational_reconstruction(u, m) == f
    # past the bound a fraction is not recovered from one prime, and two
    # recover it
    f = Fraction(1, 1234567890123)
    u1 = pow(f.denominator, -1, PRIMES[0])
    assert rational_reconstruction(u1, PRIMES[0]) != f
    m = PRIMES[0] * PRIMES[1]
    assert rational_reconstruction(pow(f.denominator, -1, m), m) == f
