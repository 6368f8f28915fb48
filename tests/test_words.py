import random

import pytest

from nilk.matrices import Matrix
from nilk.rings import (F2E_X, F2_X, Q_TS, Q_TS_MOD_T2, Q_TSZ, Z4_X, ZI_X, DualF2,
                        NotAUnitError, Ring, RingMismatchError)
from nilk.sampling import random_poly
from nilk.words import (Letter, StWord, dennis_stein_word, dual_symbol_word,
                        eval_word, expand_h, reduced_X_word, word)

from helpers import assert_sparse, elementary

EPS = F2E_X.const(DualF2(0, 1))
EYE = Matrix.identity(F2E_X, 2)


def test_eval_single_letter():
    w = word(Q_TS, [(1, 2, Q_TS.var("t"))])
    m = eval_word(w, 2)
    assert m == Matrix.from_rows(Q_TS, [[Q_TS.one(), Q_TS.var("t")],
                                        [Q_TS.zero(), Q_TS.one()]])


def test_eval_index_bound():
    for i, j in [(1, 3), (3, 1), (0, 1), (2, 0)]:
        w = word(Q_TS, [(i, j, Q_TS.one())])
        with pytest.raises(ValueError):
            eval_word(w, 2)


def test_letter_indices_must_differ():
    with pytest.raises(ValueError) as raised:
        Letter(2, 2, Q_TS.one())
    assert type(raised.value) is ValueError
    assert str(raised.value) == "generator indices must differ"
    for build in (lambda: Letter(1, 2, Q_TS.one())._replace(j=1),
                  lambda: Letter._make((2, 2, Q_TS.one(), False))):
        with pytest.raises(ValueError, match="^generator indices must differ$"):
            build()
    assert Letter(1, 2, Q_TS.one())._replace(j=3) == Letter(1, 3, Q_TS.one())


def test_letter_is_an_immutable_value():
    a, b = Letter(1, 2, EPS), Letter(1, 2, F2E_X.const(DualF2(0, 1)), False)
    assert a == b and a is not b and a.param is not b.param
    assert a != Letter(1, 2, EPS, True) and a != Letter(2, 1, EPS)
    assert (a.i, a.j, a.param, a.inverted) == (1, 2, EPS, False)
    with pytest.raises(AttributeError):
        a.param = F2E_X.one()
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a.param is EPS
    # a letter hashes as its fields do: equal letters over hashable fields
    # hash equal, and a Poly parameter has no hash, as before
    assert hash(Letter(1, 2, 7)) == hash(Letter(1, 2, 7, False))
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("ring", [Q_TS_MOD_T2, Q_TSZ, ZI_X, Z4_X, F2E_X, F2_X], ids=[
    "Q_TS_MOD_T2", "Q_TSZ", "ZI_X", "Z4_X", "F2E_X", "F2_X"])
def test_eval_matches_elementary_product(ring):
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 4)
        letters = tuple(Letter(*rng.sample(range(1, n + 1), 2),
                               random_poly(rng, ring, 2, 2), rng.random() < 0.5)
                        for _ in range(rng.randint(0, 6)))
        ref = Matrix.identity(ring, n)
        for l in letters:
            ref = ref @ elementary(ring, n, l.i, l.j, -l.param if l.inverted else l.param)
        assert eval_word(StWord(ring, letters), n) == ref
        assert_sparse(eval_word(StWord(ring, letters), n))


def test_word_inverse():
    rng = random.Random(0)
    for _ in range(50):
        letters = [(rng.choice([1, 2]), 0, random_poly(rng, F2E_X, 2, 2))
                   for _ in range(rng.randint(0, 4))]
        letters = [(i, 3 - i, a) for i, _, a in letters]
        w = word(F2E_X, letters)
        assert eval_word(w * w.inverse(), 2) == EYE
        assert_sparse(eval_word(w * w.inverse(), 2))  # the cancelled entries are dropped
    assert StWord(F2E_X).inverse() == StWord(F2E_X)


def test_concatenation_and_inverse_compare_no_letter_ring(monkeypatch):
    # a word checks its letters' rings with `is` first, so * and inverse
    # over one ring object call no Ring.__eq__
    w = word(F2E_X, [(1, 2, EPS), (2, 1, F2E_X.var("x"))] * 10)
    compared = []
    eq = Ring.__eq__
    monkeypatch.setattr(Ring, "__eq__", lambda a, b: compared.append(b) or eq(a, b))
    ww = w * w.inverse()
    assert compared == [] and len(ww.letters) == 40 and ww.ring is F2E_X
    assert eval_word(ww, 2) == EYE
    with pytest.raises(RingMismatchError):
        w * word(ZI_X, [(1, 2, 1)])
    with pytest.raises(RingMismatchError):
        StWord(ZI_X, w.letters)


def test_expand_h_structure_and_value():
    u = F2E_X.one()
    w = expand_h(1, 2, u)
    assert len(w.letters) == 6
    assert eval_word(w, 2) == EYE  # h(1) = diag(1, 1)


def test_expand_h_diagonal():
    rng = random.Random(1)
    for _ in range(200):
        u = F2E_X.one() + EPS * random_poly(rng, F2E_X, 2, 3)
        m = eval_word(expand_h(1, 2, u), 2)
        assert m == Matrix.diag(F2E_X, [u, u.invert()])


def test_expand_h_rejects_nonunit():
    with pytest.raises(NotAUnitError):
        expand_h(1, 2, Q_TS.var("t"))


def test_dennis_stein_matches_display():
    # <eps, x+eps>: first letter parameter is -(x+eps)(1-eps x)^{-1}
    w = dual_symbol_word()
    x = F2E_X.var("x")
    uinv = (F2E_X.one() - EPS * x).invert()
    first = w.letters[0]
    assert (first.i, first.j) == (2, 1)
    assert first.param == -((x + EPS) * uinv)
    assert w.letters[1].param == -EPS
    assert w.letters[2].param == x + EPS
    assert w.letters[3].param == uinv * EPS
    assert len(w.letters) == 4 + 6  # four letters plus the inverted h-word


def test_dennis_stein_evaluates_to_identity():
    assert eval_word(dual_symbol_word(), 2) == EYE


def test_dennis_stein_degenerate():
    w = dennis_stein_word(1, 2, F2E_X.zero(), F2E_X.var("x"))
    assert eval_word(w, 2) == EYE


def test_dennis_stein_rejects_nonunit():
    t = Q_TS.var("t")
    with pytest.raises(NotAUnitError):
        dennis_stein_word(1, 2, t, t)


def test_reduced_X_word():
    w = reduced_X_word()
    x = F2E_X.var("x")
    assert w.letters[0].param == -x - EPS - EPS * x * x
    # in characteristic 2 this equals x + eps + eps x^2
    assert w.letters[0].param == x + EPS + EPS * x * x
    assert [l.param for l in w.letters[1:4]] == [-EPS, x + EPS, EPS]
    assert w.letters[-1].param == F2E_X.one() - EPS * x   # h_12(1 - eps x)^{-1}
    assert eval_word(w, 2) == EYE
    assert eval_word(w, 2) == eval_word(dual_symbol_word(), 2)


def test_eval_homomorphism_and_det():
    rng = random.Random(2)
    for _ in range(1000):
        ls1 = [(i, 3 - i, random_poly(rng, F2E_X, 2, 2))
               for i in (rng.choice([1, 2]) for _ in range(rng.randint(0, 3)))]
        ls2 = [(i, 3 - i, random_poly(rng, F2E_X, 2, 2))
               for i in (rng.choice([1, 2]) for _ in range(rng.randint(0, 3)))]
        w1, w2 = word(F2E_X, ls1), word(F2E_X, ls2)
        assert eval_word(w1 * w2, 2) == eval_word(w1, 2) @ eval_word(w2, 2)
        assert eval_word(w1, 2).det() == F2E_X.one()
