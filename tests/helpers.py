"""Shared test utilities: the canonical-form check, elementary matrices as
a reference product, direct sums entry by entry, and conversion to sympy
for independent cross-checks."""

from fractions import Fraction

import sympy as sp

from nilk.rings import BASE, GaussianInt, Poly, Ring
from nilk.matrices import Matrix


def assert_canonical(p: Poly):
    """p is in the canonical form Poly takes on trust: exponent vectors of
    the ring's length, no negative power of an ordinary variable, no zero
    coefficient, no exponent >= trunc, F2 coefficients 1, and every
    coefficient of the base's type.  A Q coefficient may be a Fraction with
    denominator 1 here: Fraction arithmetic leaves one (see rings.BASE)."""
    ring = p.ring
    types = (int, Fraction) if ring.base == "Q" else (type(BASE[ring.base].one),)
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == len(ring.vars), exps
        for e, v in zip(exps, ring.vars):
            assert v.laurent or e >= 0, (v.name, e)
            assert v.trunc is None or e < v.trunc, (v.name, e)
        assert c, exps
        assert type(c) in types, (exps, c)
        assert ring.base != "F2" or c == 1, (exps, c)


def elementary(ring: Ring, n: int, i: int, j: int, a) -> Matrix:
    """Identity with a in position (i, j); 1-indexed, i != j.  A product of
    these is the reference for words.eval_word's column operations."""
    if i == j:
        raise ValueError("elementary matrix requires i != j")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("index out of range")
    rows = [list(r) for r in Matrix.identity(ring, n).entries]
    rows[i - 1][j - 1] = a
    return Matrix.from_rows(ring, rows)


def direct_sum(*blocks: Matrix) -> Matrix:
    """The block-diagonal matrix of the blocks, placed entry by entry."""
    ring = blocks[0].ring
    cols = sum(b.cols for b in blocks)
    rows, c0 = [], 0
    for b in blocks:
        for r in b.entries:
            rows.append([ring.zero()] * c0 + list(r) + [ring.zero()] * (cols - c0 - b.cols))
        c0 += b.cols
    return Matrix.from_rows(ring, rows, cols)


def poly_to_sympy(p: Poly):
    syms = [sp.Symbol(v.name) for v in p.ring.vars]
    out = sp.Integer(0)
    for exps, c in p.terms.items():
        if isinstance(c, GaussianInt):
            coeff = c.re + c.im * sp.I
        else:
            coeff = sp.Rational(c) if not isinstance(c, int) else sp.Integer(c)
        mono = sp.Integer(1)
        for s, e in zip(syms, exps):
            mono *= s ** e
        out += coeff * mono
    return sp.expand(out)


def matrix_to_sympy(m: Matrix):
    return sp.Matrix([[poly_to_sympy(e) for e in row] for row in m.entries])
