"""The seven randomized suites of the report: the operands each draws are
pinned, each runs exactly its case count, and each one fails when the
operation it checks is broken."""

import hashlib
import json

import pytest

from nilk import laurent_pipeline as lp
from nilk import report
from nilk.matrices import Matrix
from nilk.rings import Poly, poly_terms_to_json
from nilk.words import StWord

# sha256 of the operands each suite draws at its report seed and 60 cases:
# the JSON terms of every random_poly, the (i, j) of every random word's
# letters, and the (a, b) of every generalized unit, in draw order
DRAWS_SHA256 = {
    ("suite_generalized_units", 7): "a51219e4ed6e905f3b1ea572f4b1648dd1c1c48f89c68e2644113b481f29b2c7",
    ("suite_ring_axioms", 1): "ca53684eca528029fb95d0d538cbd8171f2e7eb447e96268a3ef4df43383c600",
    ("suite_hom_multiplicative", 2): "ec3e65b5f4c5cfe7dab7e211bebcc2405e04f7cced07f7b73f500e2e56ea0f58",
    ("suite_ideal_closure", 3): "caae4b6c786b90f1f82fdaa644aac08a5d5025b0467c58cc48ca065d06ec1d2e",
    ("suite_det_multiplicative", 4): "366012c1b4fa06bafbfe71b3950f744462d980bbb381e5eb2e8e2164cf1b46f2",
    ("suite_eval_homomorphism", 5): "cfd6ec335d2e0bbb0f7b093000838ec6c047d7e33775a5442de267f826dd3089",
    ("suite_dennis_stein_identity", 6): "ed4d4637f11ccc1c49f24881d428cc8967e3ca7326f83875d51d7bc6170ad7a8",
}


@pytest.mark.parametrize("suite, seed", DRAWS_SHA256)
def test_suite_draws_pinned(monkeypatch, suite, seed):
    drawn = []

    def draw(*args):
        p = random_poly(*args)
        drawn.append(["poly", poly_terms_to_json(p)])
        return p

    def letters(ring, spec):
        drawn.append(["word", [[i, j] for i, j, _ in spec]])
        return word(ring, spec)

    def unit(a, b):  # the draw only: the construction is not run
        drawn.append(["unit", str(a), str(b)])

    random_poly, word = report.random_poly, report.word
    monkeypatch.setattr(report, "random_poly", draw)
    monkeypatch.setattr(report, "word", letters)
    monkeypatch.setattr(lp, "generalized_unit_rep", unit)
    getattr(report, suite)(60, seed)
    digest = hashlib.sha256(json.dumps(drawn).encode()).hexdigest()
    assert digest == DRAWS_SHA256[suite, seed]


@pytest.mark.parametrize("suite, seed, rings", [
    ("suite_ring_axioms", 1, [501, 501, 501, 501, 498, 498]),
    ("suite_hom_multiplicative", 2, [668, 666, 666]),
    ("suite_ideal_closure", 3, [1002, 999, 999]),
])
def test_suite_runs_exactly_its_cases(monkeypatch, suite, seed, rings):
    # 1000 cases over k domains: the first 1000 % k domains get one case more
    drawn = {}

    def draw(rng, ring, *args):
        drawn[str(ring)] = drawn.get(str(ring), 0) + 1
        return random_poly(rng, ring, *args)

    random_poly = report.random_poly
    monkeypatch.setattr(report, "random_poly", draw)
    assert getattr(report, suite)(1000, seed) == 0
    assert list(drawn.values()) == rings


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _without_last(w: StWord) -> StWord:
    return StWord(w.ring, w.letters[:-1])


# the operation each suite checks, and a fault planted in it: (owner,
# attribute, broken(original))
FAULTS = {
    # I + (z-1)Q doubled: s -> 0 no longer gives I, and a stage raises
    "suite_generalized_units": (lp, "loop_z", lambda loop: lambda q: loop(q) + loop(q)),
    "suite_ring_axioms": (Poly, "__mul__", _plus_one),
    "suite_hom_multiplicative": (report, "hom_apply", _plus_one),
    "suite_ideal_closure": (report, "ideal_member", lambda member: lambda p, ideal:
                            len(p.terms) < 3 and member(p, ideal)),
    "suite_det_multiplicative": (Matrix, "det", _plus_one),
    "suite_eval_homomorphism": (report, "eval_word",
                                lambda ev: lambda w, n: ev(_without_last(w), n)),
    "suite_dennis_stein_identity": (report, "dennis_stein_word",
                                    lambda ds: lambda *args: _without_last(ds(*args))),
}


@pytest.mark.parametrize("suite", FAULTS)
def test_suite_detects_a_planted_fault(monkeypatch, suite):
    run, seed = next((fn, seed) for *_, fn, _, seed in report.SUITES
                     if fn.__name__ == suite)
    assert run(30, seed) == 0
    owner, name, broken = FAULTS[suite]
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    assert run(30, seed) > 0
