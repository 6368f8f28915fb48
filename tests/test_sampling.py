"""The random suites' draws are part of the report: a suite's seed and case
count name its cases only while random_poly draws the same sequence."""

import hashlib
import json
import random

import pytest

from nilk.rings import (F2E_X, Q_TS, Q_TS_MOD_T2, Q_TSZ, Z4_X, ZI_X,
                        poly_terms_to_json)
from nilk.sampling import random_poly

from helpers import assert_canonical

# sha256 of the JSON terms of the first 200 draws at seed 2024, for each
# (ring, max_terms, max_exp) the suites and tests draw with
DRAWS_SHA256 = {
    ("Q_TSZ", 3, 3): "59d1bd9f89cf4cbfc2243577b17d0d16cc9de647b5c4274916afe9ecc79fdf64",
    ("Q_TS", 3, 3): "b2de382ce13f8680b1d2c14f9129c31602b8780fffc34227015b9d1605b71ada",
    ("ZI_X", 3, 3): "10bb5247ca419267fdac39656d966a26cbffe50b26e7567c43302b2eda54ee0a",
    ("Z4_X", 3, 3): "99ed90d0d3caec0f55336e7f67ebc98254c62d2a958d0bacc424f68b3f8522bb",
    ("F2E_X", 3, 3): "419060e1eb278b273394da230555eeb6e28b401d406fbf8b1d3c3e0c2a283147",
    ("Q_TS_MOD_T2", 3, 3): "f06f0b198303be15d69bc263c84364f7daca09fb6f2a568deb147f587130b112",
    ("Q_TS", 2, 2): "e5bb0c6d06dcca745618f6d1f595a2ffa626a049a5ce9ad902fa77a612bb8939",
    ("F2E_X", 2, 2): "1876dbb4ccd53a796b61d87687cab825d7be0ad38ccebaf318b59935a88e49b3",
    ("F2E_X", 2, 3): "6fb7f73b4d8a7d5e6eb05882af54f3b4fa75c2c8117dae96d952426897186a24",
}
RINGS = {"Q_TSZ": Q_TSZ, "Q_TS": Q_TS, "ZI_X": ZI_X, "Z4_X": Z4_X, "F2E_X": F2E_X,
         "Q_TS_MOD_T2": Q_TS_MOD_T2}


@pytest.mark.parametrize("case", DRAWS_SHA256, ids=lambda c: "-".join(map(str, c)))
def test_draw_sequence_pinned(case):
    name, max_terms, max_exp = case
    rng = random.Random(2024)
    draws = [poly_terms_to_json(random_poly(rng, RINGS[name], max_terms, max_exp))
             for _ in range(200)]
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == DRAWS_SHA256[case]


def test_draws_are_canonical():
    # random_poly draws canonical terms, and an integral Q coefficient is
    # stored as an int
    rng = random.Random(2025)
    for ring in RINGS.values():
        for _ in range(200):
            p = random_poly(rng, ring)
            assert_canonical(p)
            assert all(type(c) is int for c in p.terms.values()
                       if getattr(c, "denominator", None) == 1)
