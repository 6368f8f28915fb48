"""Seeded random element generators for the property suites.

Every bounded int comes from randint(rng, lo, hi), which replays CPython's
Random._randbelow_with_getrandbits on the public rng.getrandbits, the
algorithm behind Random.randint and Random.choice on Python 3.10 to 3.13.
So a seed names the same draws as rng.randint would, at a fraction of its
argument handling; tests/test_sampling.py pins them draw for draw and by
digest."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .rings import DualF2, GaussianInt, GroupRingZ4, Poly, Ring, rational


def randint(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi) with the same draw: r = getrandbits(k) for k the
    bit length of the width n = hi - lo + 1, drawn again while r >= n."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def choice(rng: random.Random, seq):
    """rng.choice(seq) with the same draw."""
    return seq[randint(rng, 0, len(seq) - 1)]


# Fraction(p, q) for p in -6..6 and q in 1..4, as Poly stores it (rational),
# at [p + 6][q - 1]
_Q_VALUES = [[rational(Fraction(p, q)) for q in range(1, 5)] for p in range(-6, 7)]

# one coefficient over each base, drawn coordinate by coordinate in order
_COEFF = {
    "Q": lambda rng: _Q_VALUES[randint(rng, -6, 6) + 6][randint(rng, 1, 4) - 1],
    "Z": lambda rng: randint(rng, -6, 6),
    "Zi": lambda rng: GaussianInt(randint(rng, -4, 4), randint(rng, -4, 4)),
    "Z4": lambda rng: GroupRingZ4(randint(rng, -3, 3), randint(rng, -3, 3),
                                  randint(rng, -3, 3), randint(rng, -3, 3)),
    "F2": lambda rng: randint(rng, 0, 1),
    "F2e": lambda rng: DualF2(randint(rng, 0, 1), randint(rng, 0, 1)),
}


@cache
def _exponent_bounds(ring: Ring, max_exp: int) -> tuple[tuple[int, int], ...]:
    """(lo, hi) of each variable's exponent: -max_exp on a Laurent variable,
    else 0, up to max_exp and below the variable's truncation."""
    return tuple((-max_exp if v.laurent else 0,
                  min(max_exp, v.trunc - 1) if v.trunc is not None else max_exp)
                 for v in ring.vars)


def random_poly(rng: random.Random, ring: Ring, max_terms: int = 3,
                max_exp: int = 3) -> Poly:
    """Up to max_terms terms, each an exponent vector in range and then a
    coefficient drawn by _COEFF.  Both are canonical as drawn (an
    integral Q coefficient is an int), as Poly requires of its terms."""
    bounds = _exponent_bounds(ring, max_exp)
    coeff = _COEFF[ring.base]
    terms = {}
    for _ in range(randint(rng, 0, max_terms)):
        exps = tuple([randint(rng, lo, hi) for lo, hi in bounds])
        terms[exps] = coeff(rng)  # the exponents are drawn first
    return Poly(ring, terms)
