import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from nilk import laurent_pipeline as lp
from nilk import matrices
from nilk.matrices import (Matrix, NotInvertibleError, block_companion,
                           matrix_from_json, matrix_json_text, matrix_latex, matrix_to_json)
from nilk.nilsse import verschiebung
from nilk.rings import (BASE, F2_X, F2E_X, Q_TS, Q_TS_MOD_T2, Q_TSZ,
                        Q_TZ, Z4_X, ZI_X, DualF2, GaussianInt, GroupRingZ4, Poly,
                        Ring, RingMismatchError, Var, cached_field, poly_latex,
                        poly_terms_from_json, poly_terms_to_json, ring_from_json, ring_to_json)
from nilk.sampling import random_poly
from nilk.words import StWord, eval_word

from helpers import (assert_canonical, assert_sparse, count_products, elementary,
                     reference_json_text, reference_latex, reference_product, reference_str)


RINGS = [Q_TS, Q_TS_MOD_T2, Q_TSZ, Q_TZ, ZI_X, Z4_X, F2E_X, F2_X]


def st(k):
    return Q_TS.var("s", k) * Q_TS.var("t", k)


def rand_mat(rng, ring, n=2):
    return Matrix.from_rows(ring, [[random_poly(rng, ring, 2, 2)
                                    for _ in range(n)] for _ in range(n)])


def test_identity_neutral():
    rng = random.Random(0)
    a = rand_mat(rng, Q_TS)
    assert Matrix.identity(Q_TS, 2) @ a == a


def test_det_examples():
    a = Matrix.from_rows(Q_TS, [
        [Q_TS.one() + st(1) + st(2) + st(3), -st(2)],
        [st(2), Q_TS.one() - st(1)],
    ])
    assert a.det() == Q_TS.one()
    assert Matrix.identity(Q_TS, 4).det() == Q_TS.one()


QQ_TS = sp.QQ[sp.symbols("t s")]  # variables in the order of Q_TS


def to_qq_ts(p):
    """p over Q_TS as an element of sympy's polynomial domain QQ[t,s]."""
    return QQ_TS.ring.from_dict({exps: sp.QQ(c.numerator, c.denominator)
                                 for exps, c in p.terms.items()})


def test_det_against_sympy():
    rng = random.Random(1)
    for n, cases in ((3, 100), (1, 10), (2, 10), (4, 10), (5, 5), (6, 3)):
        for _ in range(cases):
            a = rand_mat(rng, Q_TS, n)
            rows = [[to_qq_ts(x) for x in r] for r in a.entries]
            assert to_qq_ts(a.det()) == DomainMatrix(rows, (n, n), QQ_TS).det()


def leibniz_det(m):
    """Permutation-sum determinant, the oracle for the char-poly core."""
    total = m.ring.zero()
    for perm in permutations(range(m.rows)):
        if any(m[i, j].is_zero() for i, j in enumerate(perm)):
            continue
        term = m.ring.one()
        for i, j in enumerate(perm):
            term = term * m[i, j]
        inversions = sum(perm[j] > perm[i] for i in range(m.rows)
                         for j in range(i))
        total = total - term if inversions % 2 else total + term
    return total


def unimodular(rng, ring, n):
    m = Matrix.identity(ring, n)
    for _ in range(2 * n):
        i, j = rng.sample(range(1, n + 1), 2)
        m = m @ elementary(ring, n, i, j, random_poly(rng, ring, 1, 1))
    return m


def test_charpoly_core_against_leibniz():
    rng = random.Random(7)
    for ring in RINGS:
        for n in range(6):
            cases = [Matrix.from_rows(ring, [[random_poly(rng, ring, 2, 1)
                                              for _ in range(n)]
                                             for _ in range(n)])]
            if n >= 2:
                cases.append(unimodular(rng, ring, n))
            for a in cases:
                d = leibniz_det(a)
                assert a.det() == d
                cs = a.charpoly()
                assert len(cs) == n + 1 and cs[0] == ring.one()
                p = Matrix.zeros(ring, n, n)
                for c in cs:  # Horner: p(A) = A^n + c_1 A^(n-1) + ... + c_n
                    p = a @ p + Matrix.identity(ring, n).scale(c)
                assert p.is_zero()
                if d.try_invert() is None:
                    with pytest.raises(NotInvertibleError):
                        a.inverse()
                else:
                    inv = a.inverse()
                    assert a @ inv == Matrix.identity(ring, n)
                    assert inv @ a == Matrix.identity(ring, n)


def nonzero_poly(rng, ring):
    while True:
        p = random_poly(rng, ring, 2, 1)
        if p.terms:
            return p


def with_leading_block(rng, ring, n, pattern):
    """Two n x n matrices whose leading 2 x 2 block [[a, b], [c, e]] is
    nonzero where pattern (bits a, b, c, e) is set: one with random entries
    everywhere else, and L diag(B, I) U with the block B of ones, L and U
    random unitriangular acting on rows and columns from 2 on, so that its
    det is det(B) in {0, 1, -1}."""
    block = [(i, j) for i in range(2) for j in range(2)]
    nz = {ij for k, ij in enumerate(block) if pattern >> (3 - k) & 1}
    rand = Matrix.from_rows(ring, [[(nonzero_poly(rng, ring) if (i, j) in nz else 0)
                                    if i < 2 > j else random_poly(rng, ring, 2, 1)
                                    for j in range(n)] for i in range(n)])
    mid = Matrix.from_rows(ring, [[int((i, j) in nz) if i < 2 > j else int(i == j)
                                   for j in range(n)] for i in range(n)])
    low = Matrix.from_rows(ring, [[random_poly(rng, ring, 2, 1) if 2 <= i and j < i
                                   else int(i == j) for j in range(n)] for i in range(n)])
    up = Matrix.from_rows(ring, [[random_poly(rng, ring, 2, 1) if 2 <= j and i < j
                                  else int(i == j) for j in range(n)] for i in range(n)])
    return rand, low @ mid @ up


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_charpoly_seed_on_every_zero_pattern(ring):
    # the recurrence starts from the leading 2 x 2 block in closed form:
    # each zero pattern of that block, bordered by none, one or two rows
    rng = random.Random(46)
    for n in (2, 3, 4):
        for pattern in range(16):
            for a in with_leading_block(rng, ring, n, pattern):
                assert [a[i, j].terms != {} for i in range(2) for j in range(2)] == [
                    bool(pattern >> (3 - k) & 1) for k in range(4)]
                d = leibniz_det(a)
                assert a.det() == d
                cs = a.charpoly()
                assert len(cs) == n + 1 and cs[0] == ring.one()
                assert cs[1] == -sum((a[i, i] for i in range(n)), ring.zero())
                p = Matrix.zeros(ring, n, n)
                for c in cs:
                    p = a @ p + Matrix.identity(ring, n).scale(c)
                assert p.is_zero()
                if d.try_invert() is None:
                    with pytest.raises(NotInvertibleError):
                        a.inverse()
                else:
                    assert a @ a.inverse() == Matrix.identity(ring, n)


def nonzero_constant(rng, ring):
    """A random nonzero constant of ring: a Fraction that is not an int over
    Q, 1 + eps over F2[eps], else a random nonzero coefficient."""
    if ring.base == "Q":
        return ring.const(Fraction(2 * rng.randint(-5, 4) + 1, 2 * rng.randint(1, 3)))
    if ring.base == "F2e":
        return ring.const(DualF2(1, 1))
    while True:
        c = random_poly(rng, ring, 1, 0)
        if c.terms:
            return c


def with_diagonal(rng, ring, n, c, nil):
    """An n x n matrix with diagonal c I: random terms off it, about half of
    them zero, or (nil) a strictly upper triangular one conjugated by a random
    permutation, so that its det is c^n while its rows and columns still
    reach each other."""
    perm, grid = rng.sample(range(n), n), [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (i < j or not nil):
                grid[perm[i]][perm[j]] = random_poly(rng, ring, 1, 1)
        grid[i][i] = c
    return Matrix.from_rows(ring, grid)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_scalar_diagonal_is_shifted_out_exactly(ring, monkeypatch):
    # a diagonal c I runs the recurrence on A - cI and shifts the char poly
    # back, the one use of comb, from n = 4 on; at n = 3, and with one entry
    # moved off c, as in the controls, it takes the plain recurrence
    rng, binomials, choose = random.Random(50), [], matrices.comb
    monkeypatch.setattr(matrices, "comb", lambda *a: binomials.append(a) or choose(*a))
    x = ring.var(ring.vars[0].name)
    for n in (3, 4, 5, 6):
        for c, nil in ((ring.one(), not n % 2), (nonzero_constant(rng, ring), n % 2)):
            a = with_diagonal(rng, ring, n, c, nil)
            grid, k = [list(r) for r in a.entries], rng.randrange(n)
            grid[k][k] = c + (ring.one() if nil else x)
            moved = Matrix.from_rows(ring, grid)
            for m, shifted in ((a, n > 3), (moved, False)):
                binomials.clear()
                d = leibniz_det(m)
                assert m.det() == d and bool(binomials) == shifted
                cs = m.charpoly()
                assert cs[1] == -sum((m[i, i] for i in range(n)), ring.zero())
                p = Matrix.zeros(ring, n, n)
                for coeff in cs:
                    p = m @ p + Matrix.identity(ring, n).scale(coeff)
                assert p.is_zero()
                if d.try_invert() is None:
                    with pytest.raises(NotInvertibleError):
                        m.inverse()
                else:
                    assert m @ m.inverse() == Matrix.identity(ring, n)
            assert a.det() == c ** n or not nil


def test_integral_seed_of_fraction_entries_is_int():
    # [[1/2 + t, 1/2], [-3/2, 1/2 - t]]: trace 1 and det 1 - t^2, ints
    t, h = Q_TS.var("t"), Fraction(1, 2)
    a = Matrix.from_rows(Q_TS, [[t + h, h], [-3 * h, h - t]])
    assert a.charpoly() == [Q_TS.one(), -Q_TS.one(), Q_TS.one() - t * t]
    assert a.det() == Q_TS.one() - t * t == leibniz_det(a)
    assert [type(c) for p in (*a.charpoly(), a.det()) for c in p.terms.values()] == [int] * 6


def triangular(rng, ring, n, lower, diagonal=None):
    """An n x n lower or upper triangular matrix of random entries, with
    the given diagonal entry, when one is given, instead of a random one."""
    return Matrix.from_rows(ring, [
        [(diagonal or random_poly(rng, ring, 2, 1)) if i == j
         else random_poly(rng, ring, 2, 1) if (j < i) == lower else 0
         for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_triangular_against_leibniz(ring):
    # a lower triangular matrix has no column C above any diagonal entry,
    # an upper one no row R left of it: Berkowitz runs no Krylov step
    rng = random.Random(11)
    for n in range(6):
        for lower in (True, False):
            for a in (triangular(rng, ring, n, lower), triangular(rng, ring, n, lower, 1)):
                d = leibniz_det(a)
                assert a.det() == d
                want, zero = [ring.one()], ring.zero()  # prod (x - a_ii), highest power first
                for i in range(n):
                    want = [c - a[i, i] * p for c, p in zip(want + [zero], [zero] + want)]
                assert a.charpoly() == want
                if d.try_invert() is None:
                    with pytest.raises(NotInvertibleError):
                        a.inverse()
                else:
                    inv = a.inverse()
                    assert a @ inv == Matrix.identity(ring, n) == inv @ a


def test_det_runs_no_krylov_step_where_r_or_c_is_empty(monkeypatch):
    t, s = Q_TS.var("t"), Q_TS.var("s")
    low = Matrix.from_rows(Q_TS, [[Q_TS.one() + t ** (i + 1) if i == j else s if j < i else 0
                                   for j in range(6)] for i in range(6)])
    calls = count_products(monkeypatch, Q_TS)
    # the seed's two, ae and bc (b or c empty here), then only the Toeplitz
    # products a_rr c_j, one per j = 1..r for r = 2..5: 16 in all, where the
    # Krylov iteration on the lower one would make 120
    for a in (low, low.transpose()):
        calls.clear()
        d = a.det()
        assert len(calls) == 16
        assert d == leibniz_det(a)
    # 21 of the 30 rows of I - s V_3(N) have R or C empty; running the
    # Krylov iteration on all 30 makes 6283 products, on the other 9 alone
    # 5096.  Its diagonal is I, so the recurrence runs on -s V_3(N), whose
    # Krylov vectors take no self-loop: the seed's 2, 298 Krylov products
    # and 2 Toeplitz products, 302 in all; the shift back makes none, as
    # -s V_3(N) is nilpotent and its char poly is x^30
    n10 = lp.higman_companion(lp.decompose_M(lp.theorem31_matrix()))
    v = verschiebung(n10, 3).into(Q_TSZ)
    m = Matrix.identity(Q_TSZ, v.rows) - v.scale(Q_TSZ.var("s"))
    calls = count_products(monkeypatch, Q_TSZ)
    assert m.det() == Q_TSZ.one()
    assert len(calls) == 302


def test_inverse_makes_n_minus_2_products(monkeypatch):
    # Horner starts at B + c_1 I, so the n x n inverse makes max(0, n - 2)
    rng = random.Random(12)
    cases = [Matrix.identity(Q_TS, n) if n < 2 else unimodular(rng, Q_TS, n) for n in range(7)]
    matmul, products = Matrix.__matmul__, []
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    for n, a in enumerate(cases):
        products.clear()
        inv = a.inverse()
        assert len(products) == max(0, n - 2), n
        assert matmul(a, inv) == Matrix.identity(Q_TS, n)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 32])
def test_det_one_minus_s_verschiebung(k):
    n10 = lp.higman_companion(lp.decompose_M(lp.theorem31_matrix()))
    v = verschiebung(n10, k).into(Q_TSZ)
    m = Matrix.identity(Q_TSZ, v.rows) - v.scale(Q_TSZ.var("s"))
    assert m.rows == 10 * k
    assert m.det() == Q_TSZ.one()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
def test_det_verschiebung_is_det_at_s_to_the_k(k):
    # det(I - s V_k M) = det(I - s^k M) (Almkvist 1974) for M over Q[t]
    # that is not nilpotent, so both sides are more than 1; random_poly
    # draws p/q with q in 1..4, so the entries mix ints and Fractions
    rng = random.Random(60 + k)
    s, q_t = Q_TS.var("s"), Ring("Q", (Var("t"),))
    for _ in range(3):
        m = Matrix.from_rows(Q_TS, [[random_poly(rng, q_t, 2, 2).into(Q_TS)
                                     for _ in range(3)] for _ in range(3)])
        assert {type(c) for r in m.entries for a in r for c in a.terms.values()} == \
            {int, Fraction}
        assert m.nilpotency is None
        rhs = (Matrix.identity(Q_TS, 3) - m.scale(s ** k)).det()
        v = verschiebung(m, k)
        assert rhs != Q_TS.one() and v.rows == 3 * k
        assert (Matrix.identity(Q_TS, 3 * k) - v.scale(s)).det() == rhs


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(1000):
        a, b = rand_mat(rng, Q_TS), rand_mat(rng, Q_TS)
        assert (a @ b).det() == a.det() * b.det()


def test_transpose_of_product():
    rng = random.Random(3)
    for _ in range(200):
        a, b = rand_mat(rng, Q_TS), rand_mat(rng, Q_TS)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()
        c = rand_mat(rng, Q_TS)
        assert (a @ b) @ c == a @ (b @ c)


def test_inverse_of_lift():
    a = Matrix.from_rows(Q_TS, [
        [Q_TS.one() + st(1) + st(2) + st(3), -st(2)],
        [st(2), Q_TS.one() - st(1)],
    ])
    ainv = a.inverse()
    assert ainv == Matrix.from_rows(Q_TS, [
        [Q_TS.one() - st(1), st(2)],
        [-st(2), Q_TS.one() + st(1) + st(2) + st(3)],
    ])
    assert a @ ainv == Matrix.identity(Q_TS, 2)
    # the off-diagonal entries of a @ ainv cancel, and are not stored
    assert_sparse(ainv)
    assert_sparse(a @ ainv)


def test_inverse_of_laurent_diag():
    z = Q_TSZ.var("z")
    d = Matrix.diag(Q_TSZ, [z, Q_TSZ.one()])
    assert d.inverse() == Matrix.diag(Q_TSZ, [z.invert(), Q_TSZ.one()])


def test_not_invertible():
    m = Matrix.diag(Q_TS, [Q_TS.var("t"), Q_TS.one()])
    with pytest.raises(NotInvertibleError):
        m.inverse()


def test_not_invertible_names_the_unscaled_determinant():
    # inverse() works on d*M for d the lcm of M's denominators; its error
    # names det(M) = s/2, not det(2M) = s
    half_s = Q_TS.const(Fraction(1, 2)) * Q_TS.var("s")
    m = Matrix.from_rows(Q_TS, [[half_s]])
    with pytest.raises(NotInvertibleError) as err:
        m.inverse()
    assert m.det() == half_s
    assert str(err.value) == f"determinant {half_s} is not a recognized unit"


def test_not_invertible_runs_berkowitz_once(monkeypatch):
    # the error's det(M) is det(dM) / d^n from the one recurrence, not a rerun
    berkowitz, runs = Matrix._berkowitz, []
    monkeypatch.setattr(Matrix, "_berkowitz", lambda m: runs.append(1) or berkowitz(m))
    t, s, h = Q_TS.var("t"), Q_TS.var("s"), Fraction(1, 2)
    for m in (Matrix.from_rows(Q_TS, [[h * s]]),
              Matrix.from_rows(Q_TS, [[h, t, 0], [s, h, 0], [0, 1, h]]),
              Matrix.from_rows(Q_TS, [[t, 1], [0, s]])):
        runs.clear()
        with pytest.raises(NotInvertibleError) as err:
            m.inverse()
        assert len(runs) == 1
        assert str(err.value) == f"determinant {m.det()} is not a recognized unit"


def test_inverse_of_deep_truncated_unit():
    r = Ring("Q", (Var("t", trunc=100),))
    u = r.one() + r.var("t")
    inv = Matrix.diag(r, [u, 1]).inverse()
    assert inv == Matrix.diag(r, [u.invert(), 1])


def test_inverse_of_a_long_series_unit_in_bounded_work():
    # (1 - t)^-1 has T terms, reached as (1 + t)(1 + t^2)(1 + t^4)... in 15
    # squarings at T = 2 * 10^4, not in one product per term
    T = 2 * 10 ** 4
    r = Ring("Q", (Var("t", trunc=T), Var("s")))
    start = time.perf_counter()
    inv = Matrix.from_rows(r, [[r.one() - r.var("t")]]).inverse()
    assert time.perf_counter() - start < 2
    assert inv == Matrix.from_rows(r, [[Poly(r, {(i, 0): 1 for i in range(T)})]])


def test_elementary():
    e = elementary(Q_TS, 2, 1, 2, st(1))
    assert e == Matrix.from_rows(Q_TS, [[Q_TS.one(), st(1)],
                                        [Q_TS.zero(), Q_TS.one()]])
    assert elementary(Q_TS, 2, 1, 2, 0) == Matrix.identity(Q_TS, 2)
    with pytest.raises(ValueError):
        elementary(Q_TS, 2, 1, 1, st(1))


def test_elementary_inverse_pair():
    rng = random.Random(4)
    for _ in range(200):
        a = random_poly(rng, Q_TS, 2, 2)
        prod = elementary(Q_TS, 3, 1, 3, a) @ elementary(Q_TS, 3, 1, 3, -a)
        assert prod == Matrix.identity(Q_TS, 3)


def test_power_matches_repeated_product():
    rng = random.Random(5)
    for m in (lp.construct().n10, rand_mat(rng, Q_TS_MOD_T2, 3)):
        prod = Matrix.identity(m.ring, m.rows)
        for k in range(13):
            assert m.power(k) == prod
            prod = prod @ m
        with pytest.raises(ValueError):
            m.power(-1)


def test_power_of_fraction_matrix_costs_log_k():
    # each product of the ladder is divided back to lowest terms, so a huge
    # k costs about 2 log2(k) products of matrices no larger than A^k itself
    # (clearing the whole ladder by d^k would build 2^(10^12) first)
    half = Fraction(1, 2)
    j = Matrix.from_rows(Q_TS, [[half, half], [half, half]])
    assert j.power(10 ** 12) == j
    assert Matrix.from_rows(Q_TS, [[0, half], [0, 0]]).power(10 ** 12).is_zero()
    m = Matrix.from_rows(Q_TS, [[Fraction(2, 3) * Q_TS.var("t"), Fraction(-1, 4)],
                                [Fraction(5, 6), Q_TS.var("s")]])
    prod = Matrix.identity(Q_TS, 2)
    for k in range(9):
        assert m.power(k) == prod
        prod = prod @ m


def test_idempotent_and_nilpotent():
    p = Matrix.diag(Q_TS, [Q_TS.one(), Q_TS.zero()])
    assert p.is_idempotent()
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    assert n.nilpotency_index(2) == 2
    assert Matrix.identity(Q_TS, 2).nilpotency_index(5) is None
    assert (n.nilpotency, Matrix.identity(Q_TS, 2).nilpotency) == (2, None)
    # the bound is 10^12, but I^1 lies outside the nilradical (t)
    deep = Ring("Q", (Var("t", trunc=10 ** 12),))
    assert Matrix.identity(deep, 1).nilpotency is None
    assert Matrix.from_rows(deep, [[deep.var("t", 10 ** 12 - 1)]]).nilpotency == 2
    # index 10^12 in about 80 products of 1 x 1 matrices, not 10^12
    assert Matrix.from_rows(deep, [[deep.var("t")]]).nilpotency == 10 ** 12
    # (1 + t)^(2^j) has 2^j terms: the search must stop at 1 + t, outside (t)
    assert Matrix.from_rows(deep, [[1 + deep.var("t")]]).nilpotency is None


def stepwise_nilpotency_index(m, max_k):
    """One product per step, cut at k = n: the reference for the squaring
    and bisection search of Matrix.nilpotency_index."""
    p = Matrix.identity(m.ring, m.rows)
    for k in range(1, max_k + 1):
        p = p @ m
        if p.is_zero():
            return k
        if k == m.rows and not p.all_entries(Poly.in_nilradical):
            return None
    return None


Q_T3 = Ring("Q", (Var("t", trunc=3),))
# each ring with an element that generates its nilradical (None: reduced)
NIL_RINGS = [(Q_TS, None), (Q_T3, Q_T3.var("t")),
             (F2E_X, F2E_X.const(DualF2(0, 1))), (Z4_X, None)]
NILPOTENCY_SEED, NILPOTENCY_CASES = 1123, 240


def nilpotency_case(rng, kind, ring, nil, n):
    """An n x n matrix of one kind: strictly upper triangular ("upper"),
    that conjugated by an elementary matrix ("conjugated"), that plus a
    diagonal in the nilradical ("nil_diagonal"), or random ("random")."""
    if kind == "random":
        return Matrix.from_rows(ring, [[random_poly(rng, ring, 2, 1) for _ in range(n)]
                                       for _ in range(n)])
    rows = [[random_poly(rng, ring, 2, 1) if j > i else ring.zero() for j in range(n)]
            for i in range(n)]
    if kind == "nil_diagonal" and nil is not None:
        for i in range(n):
            rows[i][i] = nil * random_poly(rng, ring, 2, 1)
    m = Matrix.from_rows(ring, rows)
    if kind == "conjugated" and n >= 2:
        i, j = rng.sample(range(1, n + 1), 2)
        a = random_poly(rng, ring, 2, 1)
        m = elementary(ring, n, i, j, a) @ m @ elementary(ring, n, i, j, -a)
    return m


def test_nilpotency_index_against_stepwise():
    rng = random.Random(NILPOTENCY_SEED)
    kinds = ["upper", "conjugated", "nil_diagonal", "random"]
    seen = set()  # (kind, whether nilpotent, whether the index exceeds n)
    for case in range(NILPOTENCY_CASES):
        ring, nil = NIL_RINGS[case % len(NIL_RINGS)]
        kind = kinds[case // len(NIL_RINGS) % len(kinds)]
        n = rng.randint(1, 4)
        m = nilpotency_case(rng, kind, ring, nil, n)
        bound = m.nilpotency_bound()
        index = stepwise_nilpotency_index(m, bound)
        seen.add((kind, index is not None, index is not None and index > n))
        # around each power of two up to bound + 1, where the squaring stops
        twos = [1 << j for j in range((bound + 1).bit_length())]
        asks = {0, *(x + d for x in twos for d in (-1, 0, 1))}
        asks |= {index - 1, index, index + 1} if index else {1, n, bound}
        for max_k in sorted(asks):
            # = stepwise_nilpotency_index(m, max_k): m^k != 0 below index, = 0 from it on
            expected = index if index is not None and index <= max_k else None
            assert m.nilpotency_index(max_k) == expected, (case, max_k)
        assert m.nilpotency == index
    assert {("upper", True, False), ("conjugated", True, False),
            ("nil_diagonal", True, True), ("random", False, False)} <= seen
    # index 4 over Q[t]/(t^3) for a 2 x 2 matrix: (tI + E12)^k = t^k I + k t^(k-1) E12
    t = Q_T3.var("t")
    m = Matrix.from_rows(Q_T3, [[t, 1], [0, t]])
    assert [m.nilpotency_index(k) for k in range(6)] == [None] * 4 + [4, 4]
    assert m.nilpotency == 4


def test_nilpotency_search_forms_no_power_above_max_k(monkeypatch):
    matmul, products = Matrix.__matmul__, []
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    shift = Matrix.from_rows(Q_TS, [[int(j == i + 1) for j in range(8)] for i in range(8)])
    n10 = lp.n10_display()
    # (m, max_k, index, products).  The 8 x 8 shift has index exactly 2^3: at
    # 7 it squares to m^4 and tests m^6, m^7; from 8 on it squares to m^8 = 0.
    # N at 10 squares to N^8 and tests N^10, N^9; V_6(N) at 60 squares to
    # m^32 and tests m^48, m^56, m^60, m^58, m^59.
    for m, max_k, index, count in [(shift, 7, None, 4), (shift, 8, 8, 5), (shift, 9, 8, 5),
                                   (shift, 64, 8, 5), (n10, 10, 10, 5),
                                   (verschiebung(n10, 6), 60, 60, 10)]:
        products.clear()
        assert (m.nilpotency_index(max_k), len(products)) == (index, count), (m.rows, max_k)


def test_loop_inverse_identity_for_random_idempotents():
    # for any idempotent e: (I + (z-1)e)(I + (z^-1 - 1)e) = I
    rng = random.Random(5)
    z = Q_TSZ.var("z")
    one = Q_TSZ.one()
    for _ in range(100):
        u = random_poly(rng, Q_TSZ, 2, 2)
        v = random_poly(rng, Q_TSZ, 2, 2)
        # rank-one idempotent from a pair with <u, v> pattern: e = outer/trace
        # use the transparent diag-conjugate instead
        g = Matrix.from_rows(Q_TSZ, [[one, u], [Q_TSZ.zero(), one]])
        e = g @ Matrix.diag(Q_TSZ, [one, Q_TSZ.zero()]) @ g.inverse()
        assert e.is_idempotent()
        lhs = Matrix.identity(Q_TSZ, 2) + e.scale(z - one)
        rhs = Matrix.identity(Q_TSZ, 2) + e.scale(z.invert() - one)
        assert lhs @ rhs == Matrix.identity(Q_TSZ, 2)


def companion_reference(blocks):
    """Entry (i, j) is B_(j // n)[i, j % n] for i < n, one where i >= n and
    j = i - n, zero everywhere else."""
    ring, n, dn = blocks[0].ring, blocks[0].rows, len(blocks) * blocks[0].rows

    def entry(i, j):
        if i < n:
            return blocks[j // n][i, j % n]
        return ring.one() if j == i - n else ring.zero()

    return Matrix.from_rows(ring, [[entry(i, j) for j in range(dn)] for i in range(dn)])


@pytest.mark.parametrize("ring", [Q_TSZ, F2E_X], ids=["Q_TSZ", "F2E_X"])
def test_block_companion_matches_reference(ring):
    rng = random.Random(17)
    for d in range(1, 5):
        for n in range(1, 4):
            blocks = [rand_mat(rng, ring, n) for _ in range(d)]
            assert block_companion(blocks) == companion_reference(blocks), (d, n)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_verschiebung_matches_reference(k):
    n10 = lp.n10_display()
    blocks = [Matrix.zeros(n10.ring, 10, 10)] * (k - 1) + [n10]
    assert verschiebung(n10, k) == companion_reference(blocks)


def test_block_companion_rejects_mismatched_blocks():
    a = Matrix.identity(Q_TS, 2)
    for blocks in ([a, Matrix.identity(Q_TS, 3)], [a, Matrix.identity(Q_TSZ, 2)],
                   [Matrix.zeros(Q_TS, 2, 3)]):
        with pytest.raises(ValueError, match="blocks must be square"):
            block_companion(blocks)


def test_empty_dimensions():
    for m, k, n in ((2, 0, 3), (0, 3, 2), (3, 2, 0), (0, 0, 0), (0, 2, 0)):
        prod = Matrix.zeros(Q_TS, m, k) @ Matrix.zeros(Q_TS, k, n)
        assert prod == Matrix.zeros(Q_TS, m, n)
    for m, n in ((0, 3), (3, 0), (0, 0)):
        t = Matrix.zeros(Q_TS, m, n).transpose()
        assert t == Matrix.zeros(Q_TS, n, m)
        assert t.transpose() == Matrix.zeros(Q_TS, m, n)
    # m^1 = 0 for the 0 x 0 matrix: a bound of 0 would read it as not nilpotent
    assert Matrix.zeros(Q_TS, 0, 0).nilpotency == 1


def sparse_mat(rng, ring, rows, cols):
    return Matrix.from_rows(ring, [[random_poly(rng, ring, 2, 1)
                                    if rng.random() < 0.35 else ring.zero()
                                    for _ in range(cols)] for _ in range(rows)], cols)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_product_against_reference(ring):
    rng = random.Random(8)
    shapes = [(1, n, m) for n in (1, 3, 6) for m in (1, 4)]
    shapes += [(n, 1, m) for n in (1, 3, 6) for m in (1, 4)]
    shapes += [(3, 4, 2)] + [(n, n, n) for n in range(1, 7)]
    for m, k, n in shapes:
        for _ in range(4):
            a, b = sparse_mat(rng, ring, m, k), sparse_mat(rng, ring, k, n)
            assert a @ b == reference_product(a, b)
            assert (a - a) @ b == Matrix.zeros(ring, m, n)
            assert a @ (b - b) == Matrix.zeros(ring, m, n)
            for p in (a @ b, (a - a) @ b, a @ (b - b)):
                assert_sparse(p)
    # nonzero products that cancel: 1*1 + 1*(-1), and x*x + x*x over F2
    one = ring.one()
    row = Matrix.from_rows(ring, [[one, 0, one]])
    col = Matrix.from_rows(ring, [[one], [one], [-one]])
    assert row @ col == Matrix.zeros(ring, 1, 1)
    assert (col @ row) @ col == Matrix.zeros(ring, 3, 1)
    assert_sparse(row @ col)
    assert_sparse((col @ row) @ col)
    if ring == F2_X:
        x = Matrix.from_rows(ring, [[ring.var("x"), ring.var("x")]])
        assert x @ x.transpose() == Matrix.zeros(ring, 1, 1)
        assert_sparse(x @ x.transpose())


def q_entry(rng, ring, kind):
    """A random entry over ring whose Q coefficients are ints ("int"),
    random_poly's mix of int and Fraction ("mixed"), or Fractions of
    denominator 1 ("fraction_1"); over another base, random_poly's."""
    p = random_poly(rng, ring, 3, 2)
    if kind == "mixed" or ring.base != "Q":
        return p
    c = int if kind == "int" else Fraction
    return Poly(ring, {e: c(rng.randint(-9, 9)) for e in p.terms})


CLEARED_PRODUCTS = [(ring, kind) for ring in (Q_TS, Q_TSZ, Q_TS_MOD_T2)
                    for kind in ("int", "mixed", "fraction_1")] + [(Z4_X, "mixed")]


@pytest.mark.parametrize("ring, kind", CLEARED_PRODUCTS,
                         ids=[f"{ring}-{kind}" for ring, kind in CLEARED_PRODUCTS])
def test_cleared_product_against_reference(ring, kind):
    # over Q, @ multiplies d_x x by d_y y on int coefficients and divides
    # each entry once by d_x d_y; the dense Poly sums of reference_product
    # clear nothing.  An integral output coefficient is an int, whatever
    # the operands' coefficients were.
    rng = random.Random(29)

    def mat(rows, cols):
        return Matrix.from_rows(ring, [[q_entry(rng, ring, kind) for _ in range(cols)]
                                       for _ in range(rows)], cols)

    for m, k, n in ((0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 3, 2), (2, 2, 2), (3, 3, 3)):
        for _ in range(6):
            x, y, sq = mat(m, k), mat(k, n), mat(k, k)
            before = [dict(p.terms) for a in (x, y, sq) for r in a.nonzero for p in r.values()]
            for a, b in ((x, y), (sq, sq)):
                got = a @ b
                assert (got.rows, got.cols) == (a.rows, b.cols)
                assert got == reference_product(a, b)
                assert_sparse(got)
                assert ring.base != "Q" or all(
                    type(c) is int or c.denominator != 1
                    for r in got.nonzero for p in r.values() for c in p.terms.values())
            assert before == [dict(p.terms) for a in (x, y, sq)
                              for r in a.nonzero for p in r.values()]


def test_each_matrix_is_cleared_once(monkeypatch):
    # the cleared form is made on first use and read again, the same
    # object, by every later @, det, charpoly, inverse and index search
    made = []
    clear = Matrix.__dict__["_cleared_rows"].func
    form = cached_field(lambda m: made.append(m) or clear(m))
    form.__set_name__(Matrix, "_cleared_rows")
    monkeypatch.setattr(Matrix, "_cleared_rows", form)
    m = Matrix.from_rows(Q_TS, [[Fraction(1, 2), Q_TS.var("t")], [0, Fraction(2, 3)]])
    assert made == [] and "_cleared_rows" not in vars(m)
    (m @ m) @ m
    first = m._cleared_rows
    assert first == (6, [{0: {(0, 0): 3}, 1: {(1, 0): 6}}, {1: {(0, 0): 4}}])
    m.det(), m.charpoly(), m.inverse(), m.nilpotency_index(4), m @ m.power(2)
    assert m._cleared_rows is first
    assert len(made) == len({id(x) for x in made}) and sum(x is m for x in made) == 1
    # without a Fraction, and off Q, the form holds the entries' own term maps
    for ring in (Q_TS, ZI_X):
        e = Matrix.identity(ring, 2)
        d, rows = e._cleared_rows
        assert d == 1 and rows[0][0] is e.nonzero[0][0].terms


Q2, Q3, Q23 = Matrix.identity(Q_TS, 2), Matrix.identity(Q_TS, 3), Matrix.zeros(Q_TS, 2, 3)
GUARDS = {
    "entry_ring": (lambda: Matrix.from_rows(Q_TS, [[ZI_X.one()]]),
                   RingMismatchError, "Zi[x] vs Q[t,s]"),
    "ragged_rows": (lambda: Matrix.from_rows(Q_TS, [[1, 2], [3]]),
                    ValueError, "a row of length 1 in a matrix of 2 columns"),
    "operand_ring": (lambda: Q2 + Matrix.identity(ZI_X, 2), RingMismatchError, "Q[t,s] vs Zi[x]"),
    "sum_shape": (lambda: Q2 - Q3, ValueError, "shape mismatch"),
    "product_shape": (lambda: Q23 @ Q23, ValueError, "cannot multiply 2x3 by 2x3"),
    "power": (lambda: Q23.power(2), ValueError, "power of non-square matrix"),
    "nilpotency": (lambda: Q23.nilpotency_index(2), ValueError, "nilpotency of non-square matrix"),
    "charpoly": (lambda: Q23.charpoly(), ValueError,
                 "characteristic polynomial of non-square matrix"),
    "det": (lambda: Q23.det(), ValueError, "characteristic polynomial of non-square matrix"),
    "inverse": (lambda: Q23.inverse(), NotInvertibleError, "non-square matrix"),
    # a matrix with no entry to substitute into still names a missing variable
    "substitute_missing_variable": (lambda: Matrix.zeros(Q_TS, 2, 2).substitute("q"), KeyError,
                                    "\"no variable 'q' in Q[t,s]\""),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_shape_and_ring_guards(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


# Ring.element is the one rule for a Python value: every entry point that
# takes one refuses what is neither an int, a Fraction nor the base's element
ENTRY_POINTS = {
    "const": lambda ring, x: ring.const(x),
    "from_rows": lambda ring, x: Matrix.from_rows(ring, [[x]]),
    "diag": lambda ring, x: Matrix.diag(ring, [1, x]),
    "scale": lambda ring, x: Matrix.identity(ring, 2).scale(x),
    "word": lambda ring, x: StWord(ring, [(1, 2, x)]),
}
FOREIGN_VALUES = {"float": (Q_TS, 1.5), "bool": (Q_TS, True), "str": (Q_TS, "1"),
                  "gauss_over_Q": (Q_TS, GaussianInt(1, 0)),
                  "dual_over_Zi": (ZI_X, DualF2(1, 0))}


@pytest.mark.parametrize("value", FOREIGN_VALUES)
@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_entry_points_refuse_a_foreign_value(entry_point, value):
    ring, x = FOREIGN_VALUES[value]
    with pytest.raises(TypeError) as raised:
        ENTRY_POINTS[entry_point](ring, x)
    assert str(raised.value) == f"{x!r} is not an element of the base {ring.base}"


SCALARS = [0, 1, -3, True, False, 1.5, 2.0, "1", None, Fraction(1, 2), Fraction(4, 2),
           GaussianInt(1, 2), GroupRingZ4(1, 0, -1, 2), DualF2(1, 1), Q_TS.var("t"),
           ZI_X.var("x")]


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_every_accepted_matrix_round_trips_through_json(ring):
    # what the Python API builds, the JSON reader reads back
    accepted = 0
    for x in SCALARS:
        try:
            m = Matrix.from_rows(ring, [[x, ring.one()], [0, x]])
        except (TypeError, ValueError):
            continue
        accepted += 1
        assert matrix_from_json(json.loads(json.dumps(matrix_to_json(m)))) == m
    assert accepted >= 4  # 0, 1, -3 and Fraction(4, 2) on every base


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_entrywise_maps_store_no_zero(ring):
    # m - m, scale(0), sums that cancel in some entries, and over Z[Z/4]
    # and F2[eps] a scale by a zero divisor, leave no zero in the rows
    rng = random.Random(23)
    divisors = {"Z4": (GroupRingZ4(1, 0, -1, 0), GroupRingZ4(1, 0, 1, 0)),
                "F2e": (DualF2(0, 1), DualF2(0, 1))}.get(ring.base)
    for n in range(1, 5):
        for _ in range(4):
            a, b = sparse_mat(rng, ring, n, n), sparse_mat(rng, ring, n, n)
            assert a - a == a.scale(0) == Matrix.zeros(ring, n, n)
            assert (a + b) - b == a and a - (a + b) == b.scale(-1)
            for m in (a - a, a.scale(0), a + b, (a + b) - b, a - (a + b), a.transpose()):
                assert_sparse(m)
            if divisors:
                killed = a.scale(divisors[1]).scale(divisors[0])
                assert killed == Matrix.zeros(ring, n, n)
                assert_sparse(killed)


def test_sum_with_a_diagonal_adds_only_its_entries(monkeypatch):
    # A + D and A - D copy A's rows and visit D's stored entries only: one
    # Poly sum each, not one per entry of A, as in inverse's Horner step
    rng, t, s = random.Random(53), Q_TS.var("t"), Q_TS.var("s")
    a = rand_mat(rng, Q_TS, 5)
    d = Matrix.diag(Q_TS, [-a[0, 0], 1, 0, t, s])  # a[0, 0] cancels
    assert not a[0, 0].is_zero() and sum(map(len, d.nonzero)) == 4
    for name, op in (("__add__", Matrix.__add__), ("__sub__", Matrix.__sub__)):
        f, calls = getattr(Poly, name), []
        want = Matrix.from_rows(Q_TS, [[f(a[i, j], d[i, j]) for j in range(5)] for i in range(5)])
        monkeypatch.setattr(Poly, name, lambda x, y: calls.append(1) or f(x, y))
        got = op(a, d)
        monkeypatch.undo()
        assert len(calls) == 4 and got == want
        assert_sparse(got)


def test_all_entries_asks_zero_once():
    # all_entries may not assume pred(0): a predicate false at zero fails
    # on any matrix with a zero entry, and zero is asked once
    asked = []

    def nonzero(a):
        asked.append(a)
        return not a.is_zero()

    assert Matrix.diag(Q_TS, [1]).all_entries(nonzero)
    assert Matrix.zeros(Q_TS, 0, 3).all_entries(nonzero)
    assert not Matrix.identity(Q_TS, 2).all_entries(nonzero)
    assert not Matrix.zeros(Q_TS, 2, 2).all_entries(nonzero)
    asked.clear()
    assert Matrix.diag(Q_TS, [1, 2, 3]).all_entries(lambda a: nonzero(a) or True)
    assert sorted(map(str, asked)) == ["0", "1", "2", "3"]


def naive_product(a, b):
    """a*b as one Poly per pair of terms, summed with +: the
    oracle for the ring's product kernel, which it does not call."""
    out = a.ring.zero()
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out = out + Poly(a.ring, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2})
    return out


KERNEL_RINGS = [
    Q_TSZ, Q_TS_MOD_T2, ZI_X, Z4_X, F2E_X, F2_X,
    Ring("Q", ()),  # arity 0: every exponent tuple is ()
    Ring("Z", (Var("u"), Var("v", laurent=True), Var("w", trunc=3), Var("x", laurent=True),
               Var("y", trunc=2), Var("z"), Var("q", laurent=True))),
    # names that are not Python identifiers: the kernel's source never holds them
    ring_from_json({"base": "Q", "vars": [{"name": "a); x", "laurent": True},
                                          {"name": "é", "trunc": 4}, {"name": "0"}]}),
]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_add_products_against_naive_sum(ring):
    # Z[Z/4] and F2[eps] have zero divisors, and F2 and the truncation drop
    # terms, so products cancel inside one term map; the one normalizing
    # pass must give the per-product result
    rng = random.Random(17)
    divisors = {"Z4": (GroupRingZ4(1, 0, -1, 0), GroupRingZ4(1, 0, 1, 0)),
                "F2e": (DualF2(0, 1), DualF2(0, 1))}.get(ring.base)
    for n in range(300):
        a, b, c, d = (random_poly(rng, ring) for _ in range(4))
        if n % 3 == 1:
            c, d = -a, b  # a*b + (-a)*b = 0
        elif n % 3 == 2 and divisors:
            a, c = a * ring.const(divisors[0]), c * ring.const(divisors[0])
            b, d = b * ring.const(divisors[1]), d * ring.const(divisors[1])
        got = Poly(ring, ring.products(ring.products({}, a.terms, b.terms), c.terms, d.terms))
        assert got == naive_product(a, b) + naive_product(c, d)
        assert_canonical(got)
        if n % 3 == 1:
            assert got.is_zero()
    # dense factors: every entry of the product sums several such products
    for n in (2, 3, 5):
        for _ in range(6):
            a, b = (Matrix.from_rows(ring, [[random_poly(rng, ring) for _ in range(n)]
                                            for _ in range(n)]) for _ in range(2))
            prod = a @ b
            assert prod == reference_product(a, b)
            for r in prod.entries:
                for p in r:
                    assert_canonical(p)


def test_kernel_users_leave_operands_and_constants_alone():
    # the product kernel writes into its accumulator; no caller may hand it the
    # terms of an operand or of the ring's shared one() and zero()
    rng = random.Random(19)
    for ring in (Q_TSZ, Q_TS_MOD_T2, F2E_X, F2_X):
        one, zero = ring.one(), ring.zero()
        eye, nil = Matrix.identity(ring, 3), Matrix.zeros(ring, 3, 3)
        m = Matrix.from_rows(ring, [[random_poly(rng, ring) for _ in range(3)]
                                    for _ in range(3)])
        operands = [one, zero, *(x for mat in (eye, nil, m) for r in mat.entries for x in r)]
        before = [dict(p.terms) for p in operands]
        for x, y in ((eye, eye), (eye, m), (m, eye), (nil, m), (m, nil), (nil, nil)):
            assert x @ y == reference_product(x, y)
        assert eye.charpoly() == [one, -3 * one, 3 * one, -one]
        assert nil.charpoly() == [one, zero, zero, zero]
        assert eye.inverse() == eye and eye.det() == one
        w = StWord(ring, [(1, 2, one), (2, 1, zero), (1, 3, -one), (3, 1, one)])
        assert eval_word(w * w.inverse(), 3) == eye
        assert_sparse(eval_word(w * w.inverse(), 3))
        assert [dict(p.terms) for p in operands] == before
        assert ring.one() is one and ring.zero() is zero
        assert one.terms == {(0,) * len(ring.vars): BASE[ring.base].one}
        assert zero.terms == {}


def json_samples():
    """Matrices for the JSON writer and reader: dense ones, shapes with no
    row to read cols from, zero matrices, all-zero rows and sparse ones
    over every base."""
    rng = random.Random(6)
    out = [rand_mat(rng, ring, 3) for ring in (Q_TS, Q_TSZ)]
    out += [Matrix.zeros(Q_TS, rows, cols) for rows, cols in ((0, 3), (3, 0), (0, 0),
                                                               (1, 1), (2, 3))]
    out.append(Matrix.from_rows(Q_TS, [[0, 0, 0], [1, 0, st(2)], [0, 0, 0]]))
    out += [sparse_mat(rng, ring, 3, 4) for ring in RINGS]
    return out


def test_matrix_json_round_trip(monkeypatch):
    # an entry [] reads as the ring's zero without a parse: only the
    # nonzero entries reach poly_terms_from_json, which checks them as before
    parsed = []

    def parse(ring, j):
        parsed.append(j)
        return poly_terms_from_json(ring, j)

    monkeypatch.setattr(matrices, "poly_terms_from_json", parse)
    for m in json_samples():
        parsed.clear()
        back = matrix_from_json(matrix_to_json(m))
        assert back == m and len(parsed) == sum(map(len, m.nonzero))
        assert_sparse(back)
    bad = matrix_to_json(Matrix.zeros(Q_TS, 1, 2))
    bad["entries"][0][1] = [[[0], "1/1"]]
    with pytest.raises(ValueError, match="exponent vector has wrong length"):
        matrix_from_json(bad)


def test_matrix_to_json_writes_the_dense_encoding():
    # the writer encodes the stored entries only and writes [] for the
    # rest; its bytes are those of encoding every entry of the dense view
    for m in json_samples():
        dense = {"ring": ring_to_json(m.ring), "rows": m.rows, "cols": m.cols,
                 "entries": [[poly_terms_to_json(a) for a in r] for r in m.entries]}
        assert reference_json_text(m) == json.dumps(dense, indent=2)


def writer_samples():
    """json_samples(), V_4(N), and random sparse matrices over every test
    ring, 0 x n and n x 0 among their shapes."""
    rng = random.Random(43)
    out = json_samples() + [verschiebung(lp.n10_display(), 4)]
    out += [sparse_mat(rng, ring, rows, cols) for ring in RINGS
            for rows, cols in ((0, 2), (2, 0), (1, 1), (1, 4), (4, 1), (5, 5))]
    return out


def test_row_writers_match_the_dense_view():
    # matrix_json_text writes a file's bytes row by row, and matrix_latex
    # and str walk the stored entries: each equals its dense-view reference
    for m in writer_samples():
        assert matrix_json_text(m) == reference_json_text(m), (m.rows, m.cols)
        assert matrix_latex(m) == reference_latex(m), (m.rows, m.cols)
        assert str(m) == reference_str(m), (m.rows, m.cols)


def test_json_writer_matches_the_oracle_at_scale():
    # V_128(N): 1280 x 1280 with 1286 stored entries, a 16.5 MB file.  The
    # digest is that of reference_json_text(v) + "\n", the file that
    # `nilk versch N10.json -k 128` writes; the oracle itself takes 1.5 s here
    v = verschiebung(lp.n10_display(), 128)
    digest = hashlib.sha256((matrix_json_text(v) + "\n").encode()).hexdigest()
    assert digest == "73b30a64d0009b93f0d3e2fc9be0dc0e13b3eab49a876d04c0dc5c9991c62b5c"


def test_integral_q_coefficients_are_ints():
    # a Q coefficient with denominator 1 is stored as an int, never as a
    # Fraction, on every path the Nil-side linear algebra takes
    def ints(*polys):
        return all(type(c) is int for p in polys for c in p.terms.values())

    r = Ring("Q", (Var("t", trunc=2), Var("s")))
    t, s = r.var("t"), r.var("s")
    a, b = r.const(3) + t * s, r.const(Fraction(-4, 2)) - 5 * s
    assert ints(a, b, a + b, a - b, -a, a * b, a ** 3, 2 * a, a + 1)
    u = (r.one() + t).try_invert()
    assert u == r.one() - t and ints(u)
    assert ints(r.const(Fraction(1, 2)).invert(), r.const(-1).invert())
    m = (elementary(Q_TS, 3, 1, 2, 2 * Q_TS.var("t") - 3)
         @ elementary(Q_TS, 3, 3, 1, Q_TS.var("s", 2))
         @ elementary(Q_TS, 3, 2, 3, -7))
    inv = m.inverse()
    assert m.det() == Q_TS.one() and m @ inv == Matrix.identity(Q_TS, 3)
    assert ints(m.det(), *(x for row in m.entries + inv.entries for x in row))
    # Fraction coefficients in, int coefficients out wherever the result is
    # integral: d*M has int coefficients, and each quotient by a power of d
    # is an int where it divides.  mf is m with every coefficient a
    # Fraction of denominator 1 (d = 1); h has denominator 2 (d = 2), with
    # integral char poly 1, -1, 1, det 1 and h^3 = -I
    mf = m.map_entries(lambda a: Poly(Q_TS, {e: Fraction(c) for e, c in a.terms.items()}),
                       Q_TS)
    assert not ints(*mf.entries[0])
    assert mf.charpoly() == m.charpoly() and mf.inverse() == inv
    assert mf @ mf == m @ m
    assert ints(mf.det(), *mf.charpoly(), *(x for p in (mf.power(3), mf.inverse(), mf @ mf)
                                            for row in p.entries for x in row))
    h = Matrix.from_rows(Q_TS, [[Fraction(1, 2), Fraction(1, 2)],
                                [Fraction(-3, 2), Fraction(1, 2)]])
    assert h.charpoly() == [Q_TS.one(), -Q_TS.one(), Q_TS.one()] and h.det() == Q_TS.one()
    assert h.power(3) == Matrix.diag(Q_TS, [-1, -1])
    assert ints(h.det(), *h.charpoly(), *(x for row in h.power(3).entries for x in row))
    assert h @ h.inverse() == Matrix.identity(Q_TS, 2)
    j = {"ring": {"base": "Q", "vars": [{"name": "t"}]}, "rows": 1, "cols": 2,
         "entries": [[[[[0], "3"]], [[[1], "3/1"], [[2], "6/2"]]]]}
    assert ints(*matrix_from_json(j).entries[0])
    # JSON and LaTeX write 3 and Fraction(3) alike
    q = BASE["Q"]
    assert (q.to_json(3), q.latex(3)) == (q.to_json(Fraction(3)), q.latex(Fraction(3))) \
        == ("3/1", "3")
    half = Q_TS.const(Fraction(3, 2)) * Q_TS.var("t")
    for p in (half + half, 3 * Q_TS.var("t")):
        assert (poly_terms_to_json(p), poly_latex(p)) == ([[[1, 0], "3/1"]], "3t")


def test_substitute_empty_matrix():
    m = Matrix.zeros(Q_TSZ, 0, 0).substitute("s")
    assert m.ring == Q_TSZ.drop("s") and m.rows == 0
    # the entrywise maps keep both dimensions of a matrix with no entries
    wide = Q_TSZ.extend(Var("x"))
    for rows, cols in ((0, 3), (3, 0)):
        m = Matrix.zeros(Q_TSZ, rows, cols)
        assert m.substitute("s") == Matrix.zeros(Q_TSZ.drop("s"), rows, cols)
        assert m.into(wide) == Matrix.zeros(wide, rows, cols)
        assert m.map_entries(lambda a: a, Q_TSZ) == m
