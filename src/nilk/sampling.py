"""Seeded random element generators for the property suites."""

from __future__ import annotations

import random
from fractions import Fraction

from .rings import (DualF2, GaussianInt, GroupRingZ4, Poly, Ring)


def random_coeff(rng: random.Random, base: str):
    if base == "Q":  # an integral value as int, the form Poly stores
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return q.numerator if q.denominator == 1 else q
    if base == "Z":
        return rng.randint(-6, 6)
    if base == "Zi":
        return GaussianInt(rng.randint(-4, 4), rng.randint(-4, 4))
    if base == "Z4":
        return GroupRingZ4(*(rng.randint(-3, 3) for _ in range(4)))
    if base == "F2":
        return rng.randint(0, 1)
    if base == "F2e":
        return DualF2(rng.randint(0, 1), rng.randint(0, 1))
    raise ValueError(base)


def random_poly(rng: random.Random, ring: Ring, max_terms: int = 3,
                max_exp: int = 3) -> Poly:
    """Up to max_terms terms, each an exponent vector in range and then a
    coefficient from random_coeff.  Both are canonical as drawn (an
    integral Q coefficient is an int), as Poly requires of its terms."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = []
        for v in ring.vars:
            lo = -max_exp if v.laurent else 0
            hi = min(max_exp, v.trunc - 1) if v.trunc is not None else max_exp
            exps.append(rng.randint(lo, hi))
        terms[tuple(exps)] = random_coeff(rng, ring.base)
    return Poly(ring, terms)
