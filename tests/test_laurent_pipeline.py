import random
from fractions import Fraction
from math import lcm

import pytest
import sympy as sp

from nilk import laurent_pipeline as lp
from nilk import ledger
from nilk.matrices import Matrix
from nilk.rings import Q_TS, Q_TZ, Ring, Var

from helpers import matrix_to_sympy


def st(ring, k):
    return ring.var("s", k) * ring.var("t", k)


def test_lift_A_properties():
    # the displayed A; its reduction, det and inverse: report checks
    # lift.reduction, lift.det and test_matrices::test_inverse_of_lift
    one = Q_TS.one()
    assert lp.lift_A() == Matrix.from_rows(Q_TS, [
        [one + st(Q_TS, 1) + st(Q_TS, 2) + st(Q_TS, 3), -st(Q_TS, 2)],
        [st(Q_TS, 2), one - st(Q_TS, 1)]])


def test_double_idempotent_B():
    pair = lp.double_idempotent_B()
    assert pair.first.is_idempotent()
    assert pair.second == Matrix.diag(Q_TS, [Q_TS.one(), Q_TS.zero()])
    assert pair.valid


def test_double_pair_validation():
    b1 = Matrix.from_rows(Q_TS, [[Q_TS.one() - st(Q_TS, 4), st(Q_TS, 2)],
                                 [st(Q_TS, 3), st(Q_TS, 4)]])
    p = Matrix.diag(Q_TS, [Q_TS.one(), Q_TS.zero()])
    assert lp.DoublePair(b1, p).valid
    bad = Matrix.from_rows(Q_TS, [[Q_TS.one() - st(Q_TS, 1), st(Q_TS, 2)],
                                  [st(Q_TS, 3), st(Q_TS, 4)]])
    assert not lp.DoublePair(bad, p).valid


def test_clutch_projector_matches_conjugation_oracle():
    a = lp.lift_A()
    e2 = lp.clutch_projector(a, lp.projector_P())
    # independent route: carry out the conjugation in sympy
    A = matrix_to_sympy(a)
    P = sp.Matrix([[1, 0], [0, 0]])
    expected = sp.expand((A.T).inv() * P * (A.T))
    assert matrix_to_sympy(e2) == expected
    assert e2.is_idempotent()


def test_clutch_projector_fixed_point():
    p = lp.projector_P()
    assert lp.clutch_projector(Matrix.identity(Q_TS, 2), p) == p


def test_e2_entries():
    e2 = lp.clutch_projector(lp.lift_A(), lp.projector_P())
    one = Q_TS.one()
    expected = Matrix.from_rows(Q_TS, [
        [one - st(Q_TS, 4), st(Q_TS, 2) - st(Q_TS, 3)],
        [st(Q_TS, 2) * (one + st(Q_TS, 1) + st(Q_TS, 2) + st(Q_TS, 3)),
         st(Q_TS, 4)],
    ])
    assert e2 == expected  # display, ideal, subring: report excision.e2_*


TRANSPORT_STAGES = [("excision.stage1", "stage1: pair lies in the double ring"),
                    ("excision.e2_congruent", "e2 - P entrywise in (t^2)"),
                    ("excision.e2_subring", "e2 entries lie in Q[t^2,t^3,s]"),
                    ("excision.stage2", "stage2: unitized ideal part in (t^2)"),
                    ("excision.stage3", "stage3: pair over the t^2,t^3 subring")]


def _transport_ledger(pair, e2):
    with ledger.recording() as checks:
        assert lp.excision_transport(pair, e2) is None
    return list(checks.values())


def test_excision_transport_stages():
    pair = lp.double_idempotent_B()
    e2 = lp.clutch_projector(lp.lift_A(), lp.projector_P())
    stages = _transport_ledger(pair, e2)
    assert [(c.id, c.anchor) for c in stages] == TRANSPORT_STAGES
    assert all(c.status == ledger.PASS for c in stages)


def test_excision_transport_trivial():
    p = lp.projector_P()
    stages = _transport_ledger(lp.DoublePair(p, p), p)
    assert [(c.id, c.anchor) for c in stages] == TRANSPORT_STAGES
    assert all(c.status == ledger.PASS for c in stages)


def test_ledger_open_only_inside_construct():
    con = lp.construct()
    assert ledger._ledger.get() is None
    recorded = dict(con.checks)
    lp.lift_A()
    lp.excision_transport(con.pair, con.e2)
    assert all(con.checks[cid] is c for cid, c in recorded.items())


class _Unprintable:
    """Equal to itself; str() fails, so formatting it shows."""

    def __str__(self):
        raise AssertionError("formatted")


def test_no_path_formats():
    # require keeps the compared value itself, in a ledger or out of one;
    # only the writers of a non-PASS Check turn it into text
    x, y = _Unprintable(), _Unprintable()
    ledger.require("probe.id", "probe anchor", x, x)
    with ledger.recording() as checks:
        ledger.require("probe.id", "probe anchor", x, x)
        with pytest.raises(ledger.PipelineError, match="probe.other"):
            ledger.require("probe.other", "probe anchor", x, y)
    assert checks["probe.id"].computed is x and checks["probe.id"].expected is x
    assert checks["probe.id"].line() == "[PASS       ] probe.id  (probe anchor)"
    failed = checks["probe.other"]
    assert failed.status == ledger.FAIL and failed.expected is y
    for write in (failed.line, failed.to_json):
        with pytest.raises(AssertionError, match="formatted"):
            write()


def test_failing_identity_names_its_check_id():
    with pytest.raises(ledger.PipelineError,
                       match=r"^verification failed: probe\.id \(probe anchor\)$"):
        ledger.require("probe.id", "probe anchor", 1, 2)
    with ledger.recording() as checks:
        with pytest.raises(ledger.PipelineError, match="probe.id"):
            ledger.require("probe.id", "probe anchor", False)
    assert ledger._ledger.get() is None
    assert checks["probe.id"].to_json() == {
        "id": "probe.id", "anchor": "probe anchor", "status": ledger.FAIL,
        "computed": "False", "expected": "true"}


def test_loop_z():
    p = lp.projector_P()
    lz = lp.loop_z(p)
    zr = lz.ring
    assert lz == Matrix.diag(zr, [zr.var("z"), zr.one()])
    assert lp.loop_z(Matrix.zeros(Q_TS, 2, 2)) == Matrix.identity(zr, 2)
    # a non-idempotent Q fails the inverse check: the product is I + (z + z^-1 - 2)(Q - Q^2)
    with pytest.raises(ledger.PipelineError, match="loop.invertible"):
        lp.loop_z(Matrix.from_rows(Q_TS, [[1, 1], [0, 1]]))


def test_theorem31_entries():
    m = lp.theorem31_matrix().matrix
    ring = m.ring
    one = ring.one()
    z = ring.var("z")
    zi = z.invert()
    s4t4 = st(ring, 4)
    assert m[0, 0] == one - (one - zi) * s4t4
    assert m[0, 1] == (z - one) * (st(ring, 2) - st(ring, 3))
    assert m[1, 0] == (one - zi) * st(ring, 2) * \
        (one + st(ring, 1) + st(ring, 2) + st(ring, 3))
    assert m[1, 1] == one + (z - one) * s4t4  # the rest: report rep31.*


def test_decompose_M_blocks():
    blocks = lp.decompose_M(lp.theorem31_matrix())
    assert len(blocks) == 5
    one = Q_TZ.one()
    z = Q_TZ.var("z")
    zi = z.invert()
    t = lambda k: Q_TZ.var("t", k)
    zero = Q_TZ.zero()
    assert blocks[0] == Matrix.zeros(Q_TZ, 2, 2)
    assert blocks[1] == Matrix.from_rows(Q_TZ, [
        [zero, (one - z) * t(2)], [(zi - one) * t(2), zero]])
    assert blocks[2] == Matrix.from_rows(Q_TZ, [
        [zero, (z - one) * t(3)], [(zi - one) * t(3), zero]])
    assert blocks[3] == Matrix.from_rows(Q_TZ, [
        [(one - zi) * t(4), zero], [(zi - one) * t(4), (one - z) * t(4)]])
    assert blocks[4] == Matrix.from_rows(Q_TZ, [
        [zero, zero], [(zi - one) * t(5), zero]])


def test_decompose_rejects_constant_term():
    ring = lp.theorem31_matrix().matrix.ring
    with pytest.raises(ValueError):
        lp.decompose_M(lp.K1Rep(Matrix.diag(ring, [ring.const(2), ring.one()])))


def test_decompose_rejects_negative_s_power():
    ring = Ring("Q", (Var("t"), Var("s", laurent=True), Var("z", laurent=True)))
    s, t = ring.var("s"), ring.var("t")
    rep = Matrix.from_rows(ring, [[1, t * s.invert()], [0, 1]])
    with pytest.raises(ValueError, match="s-degree below 1"):
        lp.decompose_M(lp.K1Rep(rep))
    # the same entry at s^1 decomposes into one block
    assert lp.decompose_M(lp.K1Rep(Matrix.from_rows(ring, [[1, t * s], [0, 1]]))) == [
        Matrix.from_rows(ring.drop("s"), [[0, -ring.drop("s").var("t")], [0, 0]])]


def test_higman_companion_matches_display():
    n = lp.higman_companion(lp.decompose_M(lp.theorem31_matrix()))
    assert n == lp.n10_display()  # index 10, subring: report higman.*


def test_higman_single_zero_block():
    z = Matrix.zeros(Q_TZ, 1, 1)
    assert lp.higman_companion([z]) == z


def test_higman_det_linear():
    from nilk.rings import Q_TSZ
    n = lp.higman_companion(lp.decompose_M(lp.theorem31_matrix()))
    big = n.into(Q_TSZ).scale(Q_TSZ.var("s"))
    assert (Matrix.identity(Q_TSZ, 10) - big).det() == Q_TSZ.one()


def test_higman_reassembly():
    rep = lp.theorem31_matrix()
    blocks = lp.decompose_M(rep)
    m = Matrix.identity(rep.matrix.ring, 2)
    s = rep.matrix.ring.var("s")
    for i, blk in enumerate(blocks, 1):
        m = m - blk.into(rep.matrix.ring).scale(s ** i)
    assert m == rep.matrix


def test_generalized_units():
    rng = random.Random(77)
    for _ in range(50):
        a = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        rep = lp.generalized_unit_rep(a, b)  # verifies internally
        assert rep.matrix.det().try_invert() is not None


def test_generalized_reproduces_standard_case():
    rep = lp.generalized_unit_rep(Fraction(1), Fraction(1))
    assert rep.matrix == lp.theorem31_matrix().matrix


def test_rational_companion_identities():
    # a non-integral unit gives an N with denominators 24 to 11664, so det,
    # inverse, power and the nilpotency search run on d*N, d = 11664
    from nilk.nilsse import frobenius, verschiebung
    from nilk.rings import Q_TSZ
    n = lp.higman_companion(lp.decompose_M(
        lp.generalized_unit_rep(Fraction(-2, 3), Fraction(5, 9))))
    dens = {c.denominator for row in n.entries for a in row for c in a.terms.values()}
    assert lcm(*dens) == 11664
    s, one = Q_TSZ.var("s"), Q_TSZ.one()

    def i_minus_s(m):
        return Matrix.identity(Q_TSZ, m.rows) - m.into(Q_TSZ).scale(s)

    for k in (1, 2, 3):
        v = verschiebung(n, k)
        assert v.nilpotency_index(v.rows) == 10 * k
        assert i_minus_s(v).det() == one
    assert frobenius(n, 10).is_zero()
    m = i_minus_s(n)
    assert m.inverse() @ m == Matrix.identity(Q_TSZ, 10)


def test_generalized_rejects_zero():
    with pytest.raises(ValueError):
        lp.generalized_unit_rep(Fraction(0), Fraction(1))
