"""The semantics of every record type in src/nilk, pinned by behaviour
and by the one thing both kinds of record declare, _fields: its fields by
name and order, equality by fields, immutability, Ring's hash and caches,
and copying and pickling to an equal value."""

import copy
import pickle

import pytest

from nilk import groupring_pipeline as grp
from nilk import laurent_pipeline as lp
from nilk import nilsse
from nilk.ledger import Check
from nilk.matrices import Matrix
from nilk.rings import BaseOps, Q_TS, Ring, Var
from nilk.words import StWord

I2 = Matrix.identity(Q_TS, 2)
Z2 = Matrix.zeros(Q_TS, 2, 2)
PAIR = lp.DoublePair(I2, I2)

# type: (its field names in order, field values, the index of one field and
# another value for it, whether assigning a field raises)
RECORDS = {
    "BaseOps": (BaseOps, "zero one from_int invert to_json from_json latex",
                (0, 1, int, abs, str, int, str), (0, 2), True),
    "Var": (Var, "name laurent trunc", ("t", False, 2), (0, "u"), True),
    "Ring": (Ring, "base vars", ("Q", (Var("t"),)), (0, "Z"), True),
    "Matrix": (Matrix, "ring rows cols nonzero", (Q_TS, 1, 1, ({0: Q_TS.one()},)),
               (3, ({},)), True),
    "StWord": (StWord, "ring letters", (Q_TS, ((1, 2, Q_TS.one()),)), (1, ()), True),
    "Verdict": (nilsse.Verdict, "ok failed", (False, 2), (1, 3), True),
    "ESSEWitness": (nilsse.ESSEWitness, "u v", (I2, Z2), (1, I2), True),
    "SEWitness": (nilsse.SEWitness, "u v lag", (I2, Z2, 1), (2, 2), True),
    "SSEChain": (nilsse.SSEChain, "matrices witnesses",
                 ((I2, I2), (nilsse.ESSEWitness(I2, I2),)), (0, (I2, Z2)), True),
    "K1Rep": (lp.K1Rep, "matrix", (I2,), (0, Z2), True),
    "Check": (Check, "id anchor status computed expected", ("a.b", "a = b", "pass", "x", "y"),
              (2, "fail"), False),
    "DoublePair": (lp.DoublePair, "first second", (I2, Z2), (1, I2), True),
    "laurent.Construction": (lp.Construction, "lift pair e2 rep blocks n10 checks",
                             (I2, PAIR, Z2, lp.K1Rep(I2), [Z2], Z2, {}), (6, {"a": None}),
                             True),
    "groupring.Construction": (grp.Construction, "yz block checks", (I2, Z2, {}),
                               (1, I2), True),
}


@pytest.mark.parametrize("cls, names, values, change, frozen", RECORDS.values(), ids=RECORDS)
def test_record_semantics(cls, names, values, change, frozen):
    names = names.split()
    assert cls._fields == tuple(names)
    rec = cls(*values)
    assert [getattr(rec, n) for n in names] == list(values)
    assert cls(**dict(zip(names, values))) == rec == cls(*values)
    assert not rec != cls(*values)
    assert rec != object() and not rec == object()
    k, other = change
    changed = cls(*values[:k], other, *values[k + 1:])
    assert changed != rec and not changed == rec
    if frozen:
        for n in names:
            with pytest.raises(AttributeError):
                setattr(rec, n, values[0])
            with pytest.raises(AttributeError):
                delattr(rec, n)
        assert [getattr(rec, n) for n in names] == list(values)


def test_ring_hash_and_caches():
    ts = Ring("Q", (Var("t"), Var("s")))
    assert hash(ts) == hash(ts) == hash(Ring("Q", (Var("t"), Var("s")))) == hash(Q_TS)
    assert ts.drop("s") is ts.drop("s") == Ring("Q", (Var("t"),))
    assert ts.products is ts.products and ts.truncated is ts.truncated
    assert ts.normal is ts.normal


def test_matrix_is_unhashable_and_caches_its_views():
    with pytest.raises(TypeError):
        hash(I2)
    assert I2.entries is I2.entries and I2.nilpotency is I2.nilpotency is None


def test_cached_values_survive_on_a_frozen_record():
    pair = lp.DoublePair(I2, I2)
    assert pair.valid is True and pair.valid is pair.valid


COPIED = {
    "Ring": Ring("Q", (Var("t", trunc=3), Var("z", laurent=True))),
    "Var-trunc": Var("t", trunc=3),
    "Var-laurent": Var("z", True),
    "Matrix": Matrix.from_rows(Q_TS, [[1, Q_TS.var("t")], [0, 1]]),
    "StWord": StWord(Q_TS, [(1, 2, Q_TS.var("s"))]),
    "DoublePair": PAIR,
    "laurent.Construction": lp.construct(),
}


@pytest.mark.parametrize("value", COPIED.values(), ids=COPIED)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_give_an_equal_value(value, clone):
    got = clone(value)
    assert got == value and type(got) is type(value)
    assert _hash(got) == _hash(value)


def _hash(value):
    """hash(value), or TypeError for a value that cannot be hashed, as a
    Matrix or a NamedTuple holding one: a copy hashes exactly as its
    original does."""
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("kwargs", [{"trunc": 0}, {"trunc": 2.0}, {"trunc": 2, "laurent": True}],
                         ids=["zero", "float", "laurent"])
def test_bad_var_raises_when_built(kwargs):
    with pytest.raises(ValueError, match="trunc must be an integer >= 1"):
        Var("t", **kwargs)


def test_check_json_keys_in_field_order():
    c = Check("a.b", "a = b", "fail", "1", "2")
    assert c.to_json() == {"id": "a.b", "anchor": "a = b", "status": "fail",
                           "computed": "1", "expected": "2"}
    assert list(c.to_json()) == ["id", "anchor", "status", "computed", "expected"]
