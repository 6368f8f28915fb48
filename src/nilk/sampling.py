"""Seeded random element generators for the property suites.

Every bounded int is drawn the way CPython's Random._randbelow_with_getrandbits
draws it, the algorithm behind Random.randint and Random.choice on Python
3.10 to 3.13: r = rng.getrandbits(k) for k the bit length of the width n,
drawn again while r >= n.  randint and choice are that draw once, at a
fraction of Random's argument handling.  random_poly draws through the
function rings.generate compiles per (ring, max_terms, max_exp) from the
source _drawer writes, in which the term count, each exponent and each
coefficient coordinate is that draw written out with its k, n and lower
bound as constants: the same getrandbits calls in the same order as randint
would make, with no call per bounded int.  tests/test_sampling.py pins the
draws against a randint reference, draw for draw and by digest."""

from __future__ import annotations

import random
from fractions import Fraction

from .rings import DualF2, GaussianInt, GroupRingZ4, Poly, Ring, generated, rational


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
# at [p][q]
_Q_VALUES = {p: {q: rational(Fraction(p, q)) for q in range(1, 5)} for p in range(-6, 7)}

# one coefficient over each base: the expression that builds it from its
# coordinates, then each coordinate's (lo, hi), drawn in that order
_COEFF = {
    "Q": ("_Q_VALUES[{}][{}]", (-6, 6), (1, 4)),
    "Z": ("{}", (-6, 6)),
    "Zi": ("GaussianInt({}, {})", (-4, 4), (-4, 4)),
    "Z4": ("GroupRingZ4({}, {}, {}, {})", (-3, 3), (-3, 3), (-3, 3), (-3, 3)),
    "F2": ("{}", (0, 1)),
    "F2e": ("DualF2({}, {})", (0, 1), (0, 1)),
}


def _draw(lines: list[str], name: str, lo: int, hi: int) -> str:
    """Append the lines that draw name as randint(rng, lo, hi) - lo, and
    return the expression of randint's value."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = n.bit_length()
    lines += [f"{name} = g({k})", f"while {name} >= {n}: {name} = g({k})"]
    return f"{name} + {lo}" if lo > 0 else f"{name} - {-lo}" if lo else name


@generated("draw")
def _drawer(ring: Ring, max_terms: int, max_exp: int) -> tuple[str, dict]:
    """random_poly(rng, ring, max_terms, max_exp) as one generated function:
    the term count in 0..max_terms, then per term each exponent (-max_exp
    on a Laurent variable, else 0, up to max_exp and below the variable's
    truncation) and each coefficient coordinate (_COEFF), written out as

        e0 = g(2)
        while e0 >= 4: e0 = g(2)

    A later term with the same exponents replaces the earlier one.  The
    source depends on the ring's bounds and base only."""
    head, term = [], []
    count = _draw(head, "n", 0, max_terms)
    exps = [_draw(term, f"e{k}", -max_exp if v.laurent else 0,
                  min(max_exp, v.trunc - 1) if v.trunc is not None else max_exp)
            for k, v in enumerate(ring.vars)]
    build, *ranges = _COEFF[ring.base]
    coords = [_draw(term, f"c{k}", lo, hi) for k, (lo, hi) in enumerate(ranges)]
    term.append("terms[(" + "".join(f"{e}, " for e in exps) + ")] = " + build.format(*coords))
    src = "\n".join(["def draw(rng):", "    g = rng.getrandbits", "    terms = {}",
                     *("    " + line for line in head), f"    for _ in range({count}):",
                     *("        " + line for line in term), "    return Poly(ring, terms)"])
    return src, {"Poly": Poly, "ring": ring, "_Q_VALUES": _Q_VALUES, "GaussianInt": GaussianInt,
                 "GroupRingZ4": GroupRingZ4, "DualF2": DualF2}


def random_poly(rng: random.Random, ring: Ring, max_terms: int = 3,
                max_exp: int = 3) -> Poly:
    """Up to max_terms terms, each an exponent vector in range and then a
    coefficient drawn by _COEFF, through the ring's cached drawer.  Both
    are canonical as drawn (an integral Q coefficient is an int), as Poly
    requires of its terms."""
    return _drawer(ring, max_terms, max_exp)(rng)
