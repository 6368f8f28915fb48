import random

import pytest
import sympy as sp

from nilk import groupring_pipeline as grp
from nilk.ledger import PipelineError
from nilk.matrices import Matrix
from nilk.rings import (F2E_X, F2_X, PRINCIPAL_TWO, Z4_X, ZI_X, DualF2,
                        GaussianInt, GroupRingZ4, group_ring_from_gauss,
                        ideal_member, psi)
from nilk.sampling import random_poly
from nilk.words import StWord, dual_symbol_args

from helpers import matrix_to_sympy


def test_word_letters():
    y, z = grp.word_Y(), grp.word_Z()
    assert len(y) == 4 and len(z) == 6
    one = ZI_X.one()
    i = ZI_X.const(GaussianInt(0, 1))
    x = ZI_X.var("x")
    assert (y.letters[1].i, y.letters[1].j) == (1, 2)
    assert y.letters[1].param == one - i
    assert (z.letters[4].i, z.letters[4].j) == (2, 1)
    assert z.letters[4].param == one + (i - one) * x


def test_yz_against_sympy_oracle():
    m = grp.yz_matrix()
    x = sp.Symbol("x")
    I = sp.I

    def e12(a):
        return sp.Matrix([[1, a], [0, 1]])

    def e21(a):
        return sp.Matrix([[1, 0], [a, 1]])

    Y = e21(-x + 1 - I + (1 - I) * x ** 2) * e12(1 - I) * \
        e21(x + I - 1) * e12(I - 1)
    Z = e12(1) * e21(-1) * e12(1) * e12((I - 1) * x - 1) * \
        e21(1 + (I - 1) * x) * e12((I - 1) * x - 1)
    assert matrix_to_sympy(m) == sp.expand(Y * Z)


def test_yz_relative_congruence():
    m = grp.yz_matrix()
    assert m.det() == ZI_X.one()
    d = m - Matrix.identity(ZI_X, 2)
    assert all(ideal_member(e, PRINCIPAL_TWO) for r in d.entries for e in r)


def test_reduce_to_dual():
    assert grp.reduce_to_dual(grp.yz_matrix()) == \
        Matrix.identity(grp.reduce_to_dual(grp.yz_matrix()).ring, 2)
    eye = Matrix.identity(ZI_X, 2)
    assert grp.reduce_to_dual(eye) == \
        Matrix.identity(grp.reduce_to_dual(eye).ring, 2)
    two_e11 = eye + Matrix.from_rows(ZI_X, [[2, 0], [0, 0]])
    assert grp.reduce_to_dual(two_e11) == grp.reduce_to_dual(eye)


def test_construct_records_yz_and_its_lift():
    con = grp.construct()
    assert con.yz == grp.yz_matrix()
    assert con.block == grp.lift_to_group_ring(con.yz) == grp.theorem42_block()
    assert grp.construct() is not con  # built afresh, never cached


def test_yz_matrix_verifies_congruence(monkeypatch):
    # with Z dropped the product is Y, which has det 1 but is not I mod (2)
    monkeypatch.setattr(grp, "word_Z", lambda: StWord(ZI_X))
    with pytest.raises(PipelineError,
                       match=r"verification failed: yz\.congruent \(YZ - I entrywise in"):
        grp.yz_matrix()


def test_lift_matches_stated_block():
    assert grp.theorem42_block() == grp.theorem42_display()


def test_lift_shapes_and_det():
    blk = grp.theorem42_block()
    assert blk.det() == Z4_X.one()
    assert grp.entry_shapes_ok(blk)


def test_lift_of_identity():
    assert grp.lift_to_group_ring(Matrix.identity(ZI_X, 2)) == Matrix.identity(Z4_X, 2)


def test_lift_rejects_odd_entries():
    m = Matrix.from_rows(ZI_X, [[ZI_X.one() + ZI_X.var("x"), ZI_X.zero()],
                                [ZI_X.zero(), ZI_X.one()]])
    with pytest.raises(ValueError):
        grp.lift_to_group_ring(m)


def test_psi_of_lift_randomized():
    # lift-then-psi is the identity on random valid relative representatives
    rng = random.Random(21)
    two = ZI_X.const(GaussianInt(2, 0))
    for _ in range(100):
        g = Matrix.from_rows(ZI_X, [
            [random_poly(rng, ZI_X, 2, 3) for _ in range(2)] for _ in range(2)])
        m = Matrix.identity(ZI_X, 2) + g.scale(two)
        lifted_rows = []
        for r in range(2):
            lifted_rows.append([])
            for c in range(2):
                e = m.entries[r][c] - (ZI_X.one() if r == c else ZI_X.zero())
                gg = e.coefficient_map(grp._halve, ZI_X)
                ghat = gg.coefficient_map(group_ring_from_gauss, Z4_X)
                out = Z4_X.const(GroupRingZ4(1, 0, -1, 0)) * ghat
                lifted_rows[-1].append(out + Z4_X.one() if r == c else out)
        lifted = Matrix.from_rows(Z4_X, lifted_rows)
        assert lifted.map_entries(psi, ZI_X) == m


def test_lift_well_defined_modulo_one_plus_sigma_sq():
    # (1-sigma^2)(ghat + (1+sigma^2)h) = (1-sigma^2)ghat
    rng = random.Random(22)
    gen = Z4_X.const(GroupRingZ4(1, 0, -1, 0))
    killer = Z4_X.const(GroupRingZ4(1, 0, 1, 0))
    for _ in range(300):
        ghat = random_poly(rng, Z4_X, 3, 3)
        h = random_poly(rng, Z4_X, 3, 3)
        assert gen * (ghat + killer * h) == gen * ghat


def test_x_zero_specialization():
    spec = grp.theorem42_block().substitute({"x": 0})
    assert spec.det() == spec.ring.one()
    # the (1,1) entry at x = 0 is 1 + (1-sigma^2)*sigma
    expected = spec.ring.one() + spec.ring.const(GroupRingZ4(0, 1, 0, -1))
    assert spec[0, 0] == expected


def test_kahler_map():
    one, x = F2_X.one(), F2_X.var("x")
    assert grp.kahler_D(one, x) == one            # D(<eps, x+eps>) = dx != 0
    assert grp.kahler_D(x, x * x).is_zero()       # d(x^2) = 2x dx = 0
    assert grp.kahler_D(F2_X.zero(), x).is_zero()
    with pytest.raises(ValueError):
        grp.kahler_D(Z4_X.one(), Z4_X.one())


def test_symbol_D_reads_the_symbol_arguments():
    eps, x = F2E_X.const(DualF2(0, 1)), F2E_X.var("x")
    assert dual_symbol_args() == (eps, x + eps)
    assert grp.symbol_D(*dual_symbol_args()) == F2_X.one()      # D(<eps, x+eps>) = dx
    assert grp.symbol_D(eps, x * x + eps).is_zero()              # d(x^2) = 0 in char 2
    assert grp.symbol_D(eps * x, x * x * x) == F2_X.var("x", 3)  # x d(x^3) = 3x^3 dx
