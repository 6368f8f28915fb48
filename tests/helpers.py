"""Shared test utilities: the canonical-form and sparse-storage checks, a
random_poly drawn one randint at a time, the generic normal form, a
candidate-loop unit recognition, a dense product and elementary matrices
as references, a counter of a ring's product-kernel calls, the dense-view
JSON, LaTeX and str forms of a matrix as references for its row-walking
writers, direct sums entry by entry, matrices as witness files hold them,
and conversion to sympy for independent cross-checks."""

import json
import random
from fractions import Fraction
from typing import Optional

import sympy as sp

from nilk.rings import (BASE, DualF2, GaussianInt, GroupRingZ4, Poly, Ring, poly_latex,
                        rational)
from nilk.matrices import Matrix, matrix_to_json
from nilk.sampling import randint


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


def assert_sparse(m: Matrix):
    """m keeps the storage rule: m.nonzero has one row per row of m, each
    mapping columns of m to canonical nonzero Polys (no stored zero, not
    even one that cancelled), and the dense view m.entries holds exactly
    those entries, with zeros everywhere else."""
    assert len(m.nonzero) == len(m.entries) == m.rows
    for row, dense in zip(m.nonzero, m.entries):
        for j, a in row.items():
            assert 0 <= j < m.cols and not a.is_zero(), (j, a)
            assert_canonical(a)
        assert len(dense) == m.cols
        assert {j: a for j, a in enumerate(dense) if not a.is_zero()} == row


# one coefficient over each base, drawn coordinate by coordinate in order
_REFERENCE_COEFF = {
    "Q": lambda rng: rational(Fraction(randint(rng, -6, 6), randint(rng, 1, 4))),
    "Z": lambda rng: randint(rng, -6, 6),
    "Zi": lambda rng: GaussianInt(randint(rng, -4, 4), randint(rng, -4, 4)),
    "Z4": lambda rng: GroupRingZ4(randint(rng, -3, 3), randint(rng, -3, 3),
                                  randint(rng, -3, 3), randint(rng, -3, 3)),
    "F2": lambda rng: randint(rng, 0, 1),
    "F2e": lambda rng: DualF2(randint(rng, 0, 1), randint(rng, 0, 1)),
}


def reference_random_poly(rng: random.Random, ring: Ring, max_terms: int = 3,
                          max_exp: int = 3) -> Poly:
    """random_poly one randint at a time: a term count, then per term the
    exponents (-max_exp on a Laurent variable, else 0, up to max_exp and
    below the truncation) and the coefficient.  The reference for the
    generated drawer of sampling.random_poly."""
    bounds = [(-max_exp if v.laurent else 0,
               min(max_exp, v.trunc - 1) if v.trunc is not None else max_exp)
              for v in ring.vars]
    terms = {}
    for _ in range(randint(rng, 0, max_terms)):
        exps = tuple([randint(rng, lo, hi) for lo, hi in bounds])
        terms[exps] = _REFERENCE_COEFF[ring.base](rng)
    return Poly(ring, terms)


def reference_normal(ring: Ring, terms: dict) -> dict:
    """The normal form by the generic rule, one truth test per coefficient
    and nested generators for the truncation: F2 coefficients reduced mod
    2, zero coefficients and exponents >= trunc dropped.  The reference for
    the generated Ring.normal."""
    if ring.base == "F2":
        terms = {e: 1 for e, c in terms.items() if c % 2}
    elif not all(terms.values()):
        terms = {e: c for e, c in terms.items() if c}
    trunc = ring.truncated
    if trunc and any(e[k] >= t for e in terms for k, t in trunc):
        terms = {e: c for e, c in terms.items() if all(e[k] < t for k, t in trunc)}
    return terms


def reference_try_invert(p: Poly) -> Optional[Poly]:
    """p^-1 or None by trying each term m of p, the constant term first: a
    unit monomial m that leaves n = 1 - m^-1 p in the nilradical J gives
    m^-1 (1 + n + n^2 + ...), kept when it inverts p.  A reference for
    Poly.try_invert, which takes the one term of p outside J instead."""
    ring, one = p.ring, p.ring.one()
    trunc = [k for k, _ in ring.truncated]

    def in_nilradical(q: Poly) -> bool:
        return all(any(e[k] for k in trunc) or (ring.base == "F2e" and not c.a)
                   for e, c in q.terms.items())

    constant = (0,) * len(ring.vars)
    for exps, c in sorted(p.terms.items(), key=lambda t: t[0] != constant):
        cinv = ring.ops.invert(c)
        if cinv is None or any(e and not v.laurent for e, v in zip(exps, ring.vars)):
            continue
        m_inv = Poly(ring, {tuple(-e for e in exps): cinv})
        n = one - m_inv * p
        if not in_nilradical(n):
            continue
        acc = power = one
        for _ in range(ring.nilradical_exponent):
            power = power * n
            if power.is_zero():
                break
            acc = acc + power
        else:
            continue
        q = m_inv * acc
        if p * q == one:
            return q
    return None


def reference_product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b as the dense sums a[i, 0] b[0, j] + ... + a[i, k-1] b[k-1, j]
    in plain Poly arithmetic, every entry pair visited and no denominator
    cleared: the reference for the sparse, cleared product."""
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = a.ring.zero()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return Matrix.from_rows(a.ring, rows, b.cols)


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


def count_products(monkeypatch, ring) -> list:
    """A list that gets one item per call of ring's product kernel."""
    calls, kernel = [], ring.products
    monkeypatch.setitem(vars(ring), "products", lambda *a: calls.append(1) or kernel(*a))
    return calls


def reference_json_text(m: Matrix) -> str:
    """The bytes of a matrix file: the byte oracle for matrices.matrix_json_text."""
    return json.dumps(matrix_to_json(m), indent=2)


def reference_latex(m: Matrix) -> str:
    """matrix_latex written from the dense view, every entry through poly_latex."""
    body = " \\\\\n".join(" & ".join(poly_latex(a) for a in r) for r in m.entries)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def reference_str(m: Matrix) -> str:
    """str(m) written from the dense view, every entry through str."""
    return "[" + "; ".join(", ".join(str(a) for a in r) for r in m.entries) + "]"


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


def bare(m: Matrix) -> dict:
    """A matrix object as witness files hold it, without the ring."""
    j = matrix_to_json(m)
    return {k: j[k] for k in ("rows", "cols", "entries")}


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
