"""Seeded fuzzing of the CLI's exit-code contract.

Each case mutates one valid input once: a matrix file (a nilpotent, or a K1
representative) for `higman`, `versch` and `frob`, or an SE or SSE chain
witness for `sse-verify`.  The mutations drop a key, swap a value for one of
another JSON type, break a matrix's shape, corrupt the ring spec, or set the
SE lag anywhere up to 10**12.  Every case must exit 0, 1 or 2 within
TIME_LIMIT_S, with no traceback on stderr.  SEED and CASES fix the case list;
a failing case's id names its number, its mutation and its command.
"""

import copy
import json
import random
import time

import pytest

from nilk.cli import main
from nilk.matrices import Matrix, matrix_to_json
from nilk.rings import Q_TS

from helpers import bare

SEED = 1506
CASES = 150
TIME_LIMIT_S = 2.0
MAX_K = 8  # versch -k K builds a Kn x Kn matrix

T, S = Q_TS.var("t"), Q_TS.var("s")
RING = matrix_to_json(Matrix.zeros(Q_TS, 0, 0))["ring"]


N = Matrix.from_rows(Q_TS, [[0, T ** 2], [0, 0]])
MATRIX_DOCS = {
    "nilpotent": matrix_to_json(N),
    "rep": matrix_to_json(Matrix.from_rows(Q_TS, [[1, S * T ** 2], [0, 1]])),
}
ZERO1 = Matrix.zeros(Q_TS, 1, 1)
WITNESS_DOCS = {
    "se": {"ring": RING, "A": bare(N), "B": bare(ZERO1),
           "U": bare(Matrix.zeros(Q_TS, 2, 1)), "V": bare(Matrix.zeros(Q_TS, 1, 2)),
           "lag": 2},
    "chain": {"ring": RING, "steps": [
        {"matrix": bare(N)},
        {"matrix": bare(ZERO1), "U": bare(Matrix.from_rows(Q_TS, [[1], [0]])),
         "V": bare(Matrix.from_rows(Q_TS, [[0, T ** 2]]))}]},
}


def _nodes(x, path=()):
    """(path, value) of x and of everything inside it."""
    yield path, x
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _parent(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


def drop_key(rng, doc):
    path = rng.choice([p for p, v in _nodes(doc) if p and isinstance(_parent(doc, p), dict)])
    del _parent(doc, path)[path[-1]]
    return "/".join(map(str, path))


SWAPS = [None, True, 1.5, "x", [], {}, 7]


def swap_type(rng, doc):
    path, old = rng.choice([(p, v) for p, v in _nodes(doc) if p])
    new = rng.choice([v for v in SWAPS if type(v) is not type(old)])
    _parent(doc, path)[path[-1]] = new
    return "/".join(map(str, path))


def wrong_shape(rng, doc):
    m = rng.choice([v for _, v in _nodes(doc) if isinstance(v, dict) and "entries" in v])
    rows = m["entries"]
    how = rng.choice(["rows+1", "rows-1", "cols+1", "cols-1", "swap", "drop_row",
                      "dup_row", "drop_entry", "add_entry"])
    if how[:4] in ("rows", "cols"):
        m[how[:4]] += 1 if how[4] == "+" else -1
    elif how == "swap":
        m["rows"], m["cols"] = m["cols"], m["rows"]
    elif how == "drop_row":
        rows.pop(rng.randrange(len(rows)))
    elif how == "dup_row":
        rows.append(copy.deepcopy(rng.choice(rows)))
    elif how == "drop_entry":
        rng.choice(rows).pop()
    else:  # every matrix of the valid inputs has a row and a column
        rng.choice(rows).append([])
    return how


def bad_ring(rng, doc):
    ring = doc["ring"]
    vs = ring["vars"]
    how = rng.choice(["base", "drop_var", "dup_var", "rename", "laurent", "trunc",
                      "reorder"])
    if how == "base":
        ring["base"] = rng.choice(["Zi", "Z4", "F2e", "F2", "Z", "R", ""])
    elif how == "drop_var":
        vs.pop(rng.randrange(len(vs)))
    elif how == "dup_var":
        vs.append(dict(rng.choice(vs)))
    elif how == "rename":
        rng.choice(vs)["name"] = rng.choice(["t", "s", "z", "x", ""])
    elif how == "laurent":
        rng.choice(vs)["laurent"] = rng.choice([True, "no", 1, None])
    elif how == "trunc":
        rng.choice(vs)["trunc"] = rng.choice([0, 1, 2, -1, 2.5, True, "2", 10 ** 12])
    else:
        vs.reverse()
    return how


def set_lag(rng, doc):
    doc["lag"] = rng.choice([0, -1, 1, 2, 3, 10 ** 12, rng.randint(1, 10 ** 12)])
    return str(doc["lag"])


def _cases():
    rng = random.Random(SEED)
    out = []
    for i in range(CASES):
        if rng.random() < 0.5:
            name = rng.choice(sorted(MATRIX_DOCS))
            doc = copy.deepcopy(MATRIX_DOCS[name])
            argv = rng.choice([["higman"], ["versch", "-k", str(rng.randint(1, MAX_K))],
                               ["frob", "-k", str(rng.randint(1, MAX_K))]])
        else:
            name = rng.choice(sorted(WITNESS_DOCS))
            doc = copy.deepcopy(WITNESS_DOCS[name])
            argv = ["sse-verify"]
        mutations = [drop_key, swap_type, wrong_shape, bad_ring]
        if name == "se":
            mutations.append(set_lag)
        mutate = rng.choice(mutations)
        what = mutate(rng, doc)
        out.append(pytest.param(doc, argv, id=f"{i}-{name}-{mutate.__name__}-{what}-{argv[0]}"))
    return out


@pytest.mark.parametrize("doc, argv", _cases())
def test_cli_exit_code_contract(tmp_path, capsys, doc, argv):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(doc))
    extra = [] if argv[0] == "sse-verify" else ["--out", str(tmp_path)]
    t0 = time.perf_counter()
    code = main([argv[0], str(src), *argv[1:], *extra])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert elapsed < TIME_LIMIT_S
