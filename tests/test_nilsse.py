import random
import time
from fractions import Fraction

import pytest

from nilk import laurent_pipeline as lp
from nilk.matrices import Matrix, block_companion
from nilk.nilsse import (ESSEWitness, SEWitness, SSEChain, frobenius, frobenius_index,
                         verify_esse, verify_se, verify_sse_chain,
                         verschiebung, verschiebung_index)
from nilk.rings import F2E_X, Q_TS, Q_TS_MOD_T2, DualF2
from nilk.sampling import random_poly

from helpers import direct_sum


def n10():
    return lp.higman_companion(lp.decompose_M(lp.theorem31_matrix()))


def test_verschiebung_examples():
    z1 = Matrix.zeros(Q_TS, 1, 1)
    v2 = verschiebung(z1, 2)
    assert v2 == Matrix.from_rows(Q_TS, [[0, 0], [1, 0]])
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    assert verschiebung(n, 1) == n
    with pytest.raises(ValueError, match="k must be >= 1"):
        verschiebung(n, 0)


@pytest.mark.parametrize("rows, cols", [(3, 2), (2, 3)])
def test_verschiebung_of_non_square_raises(rows, cols):
    # V_k is defined for square N only
    n = Matrix.zeros(Q_TS, rows, cols)
    for k in (1, 2):
        with pytest.raises(ValueError, match="blocks must be square"):
            verschiebung(n, k)


def test_block_companion_of_no_blocks_raises():
    with pytest.raises(ValueError, match="no blocks"):
        block_companion([])


def test_verschiebung_of_n10():
    v2 = verschiebung(n10(), 2)
    assert v2.rows == 20
    assert v2.nilpotency_index(20) is not None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_verschiebung_kth_power_is_block_sum(k):
    # V_k(N)^k = N (+) ... (+) N: Almkvist 1974, Stienstra 1982
    n = n10()
    assert verschiebung(n, k).power(k) == direct_sum(*[n] * k)


@pytest.mark.parametrize("k", [1, 2, 4, 6, 8])
def test_verschiebung_index_scales_by_k(k):
    # index(V_k N) = k index(N) follows from the identity above
    v = verschiebung(n10(), k)
    assert (v.nilpotency_index(10 * k - 1), v.nilpotency_index(10 * k)) == (None, 10 * k)


def test_verschiebung_index_at_scale_in_bounded_work():
    # V_128(N) is 1280 x 1280 with 1286 nonzero entries; the index search
    # walks the nonzero entries of its powers only
    n = n10()
    start = time.perf_counter()
    assert verschiebung(n, 128).nilpotency == 1280 == verschiebung_index(n, 128)
    assert time.perf_counter() - start < 2


def test_verschiebung_index_bound_randomized():
    rng = random.Random(31)
    for _ in range(50):
        # strictly upper triangular 3x3 nilpotents
        rows = [[Q_TS.zero()] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                rows[i][j] = random_poly(rng, Q_TS, 2, 2)
        n = Matrix.from_rows(Q_TS, rows)
        idx = n.nilpotency_index(3)
        k = rng.randint(1, 3)
        vidx = verschiebung(n, k).nilpotency_index(k * idx)
        assert vidx is not None and vidx <= k * idx


@pytest.mark.parametrize("which", ["paper", "seeded"])
def test_derived_index_is_the_searched_one(which):
    # "seeded" is the companion of the unit a + b st that perfbench's
    # companion workload draws at seed 0, a second N of index 10
    n = n10() if which == "paper" else lp.higman_companion(lp.decompose_M(
        lp.generalized_unit_rep(Fraction(-3, 2), Fraction(4))))
    assert n.nilpotency == 10
    for k in [*range(1, 9), 10, 11]:
        assert verschiebung_index(n, k) == verschiebung(n, k).nilpotency == 10 * k, k
        assert frobenius_index(n, k) == frobenius(n, k).nilpotency == -(-10 // k), k


EDGES = {"empty": Matrix.zeros(Q_TS, 0, 0), "zero_2x2": Matrix.zeros(Q_TS, 2, 2),
         "zero_1x1": Matrix.zeros(Q_TS, 1, 1),
         "eps": Matrix.from_rows(F2E_X, [[DualF2(0, 1)]]),
         "t_mod_t2": Matrix.from_rows(Q_TS_MOD_T2, [[Q_TS_MOD_T2.var("t")]]),
         "shift_3": Matrix.from_rows(Q_TS, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])}


@pytest.mark.parametrize("n", EDGES.values(), ids=EDGES)
def test_derived_index_at_the_edges(n):
    # indices 1, 2 and 3, so k = 1..5 takes frob past k >= m, where N^k = 0
    # has index 1; a 0 x 0 input has a 0 x 0 image, of index 1, under both
    for k in range(1, 6):
        assert verschiebung_index(n, k) == verschiebung(n, k).nilpotency, k
        assert frobenius_index(n, k) == frobenius(n, k).nilpotency, k


def test_frobenius():
    n = n10()
    assert frobenius(n, 1) == n  # F_10(N) = 0: report maps.frobenius10
    small = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    assert frobenius(small, 2).is_zero()
    with pytest.raises(ValueError, match="k must be >= 1"):
        frobenius(small, 0)


def test_esse_examples():
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    u = Matrix.from_rows(Q_TS, [[1], [0]])
    v = Matrix.from_rows(Q_TS, [[0, 1]])
    zero1 = Matrix.zeros(Q_TS, 1, 1)
    assert verify_esse(n, zero1, ESSEWitness(u, v))
    bad_v = Matrix.from_rows(Q_TS, [[1, 1]])
    assert not verify_esse(n, zero1, ESSEWitness(u, bad_v))
    a = Matrix.from_rows(Q_TS, [[1, 2], [3, 4]])
    assert verify_esse(a, a, ESSEWitness(a, Matrix.identity(Q_TS, 2)))
    assert verify_esse(a, a, ESSEWitness(Matrix.identity(Q_TS, 2), a))


def test_esse_stabilization_step():
    # A (+) 0 is ESSE to A via U = [A ; 0], V = [I | 0]
    a = Matrix.from_rows(Q_TS, [[1, 2], [3, 4]])
    a_plus_zero = direct_sum(a, Matrix.zeros(Q_TS, 1, 1))
    u = Matrix.from_rows(Q_TS, [[1, 2], [3, 4], [0, 0]])
    v = Matrix.from_rows(Q_TS, [[1, 0, 0], [0, 1, 0]])
    assert verify_esse(a_plus_zero, a, ESSEWitness(u, v))


def test_esse_shape_mismatch():
    a = Matrix.identity(Q_TS, 2)
    with pytest.raises(ValueError):
        verify_esse(a, a, ESSEWitness(Matrix.identity(Q_TS, 3), a))


def test_sse_chain():
    n = Matrix.from_rows(Q_TS, [[0, 1], [0, 0]])
    u = Matrix.from_rows(Q_TS, [[1], [0]])
    v = Matrix.from_rows(Q_TS, [[0, 1]])
    zero1 = Matrix.zeros(Q_TS, 1, 1)
    chain = SSEChain((n, zero1, zero1),
                     (ESSEWitness(u, v), ESSEWitness(zero1, zero1)))
    assert verify_sse_chain(chain).ok
    bad = SSEChain((n, zero1, zero1),
                   (ESSEWitness(u, v),
                    ESSEWitness(Matrix.identity(Q_TS, 1), zero1)))
    res = verify_sse_chain(bad)
    assert res.ok  # I*0 = 0 and 0*I = 0: still a valid link
    worse = SSEChain((n, zero1, zero1),
                     (ESSEWitness(u, Matrix.from_rows(Q_TS, [[1, 1]])),
                      ESSEWitness(zero1, zero1)))
    res = verify_sse_chain(worse)
    assert not res.ok and res.failed == 1


def test_sse_chain_shape():
    one = Matrix.identity(Q_TS, 1)
    chain = SSEChain((one, one), (ESSEWitness(one, one),))
    for build in (lambda: SSEChain((one,), (ESSEWitness(one, one),)),
                  lambda: chain._replace(matrices=(one,)),
                  lambda: SSEChain._make(((one, one), ()))):
        with pytest.raises(ValueError, match="^chain needs one more matrix than witnesses$"):
            build()


def test_se_trivial_witness_for_nilpotent():
    n = n10()
    zero1 = Matrix.zeros(n.ring, 1, 1)
    w = SEWitness(Matrix.zeros(n.ring, 10, 1), Matrix.zeros(n.ring, 1, 10), 10)
    assert verify_se(n, zero1, w).ok


def test_se_identity_witness():
    a = Matrix.from_rows(Q_TS, [[1, 2], [3, 4]])
    assert verify_se(a, a, SEWitness(a, Matrix.identity(Q_TS, 2), 1)).ok


def test_se_wrong_lag():
    n = n10()
    zero1 = Matrix.zeros(n.ring, 1, 1)
    w = SEWitness(Matrix.zeros(n.ring, 10, 1), Matrix.zeros(n.ring, 1, 10), 5)
    res = verify_se(n, zero1, w)
    assert not res.ok and res.failed == "A^l = UV"


def test_se_from_esse_witness():
    # if A = UV and B = VU then (U, V, lag 1) satisfies all four identities
    rng = random.Random(32)
    for _ in range(100):
        u = Matrix.from_rows(Q_TS, [[random_poly(rng, Q_TS, 2, 2)
                                     for _ in range(3)] for _ in range(2)])
        v = Matrix.from_rows(Q_TS, [[random_poly(rng, Q_TS, 2, 2)
                                     for _ in range(2)] for _ in range(3)])
        assert verify_se(u @ v, v @ u, SEWitness(u, v, 1)).ok
