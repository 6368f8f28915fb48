"""Generated code: the product kernels, normal forms and drawers are written
by their writers and compiled at rings.generate alone, once per (kind, key),
into one registry.  Each source text below is pinned by the sha256 of the
text handed to compile, taken before the three kinds shared that one home,
so a change to a template shows here; and no value from outside input, a
variable name or a truncation bound, is ever written into source."""

import hashlib
import random

import pytest

from nilk import rings
from nilk.rings import (F2E_X, F2_X, Q_TS, Q_TS_MOD_T2, Q_TSZ, Z4_X, ZI_X, Poly, Ring, Var,
                        generate)
from nilk.sampling import random_poly

# the drawers' rings: those of test_sampling.DRAWER_RINGS and of
# test_matrices.KERNEL_RINGS
RINGS = {
    "Q_TSZ": Q_TSZ, "Q_TS": Q_TS, "ZI_X": ZI_X, "Z4_X": Z4_X, "F2E_X": F2E_X,
    "Q_TS_MOD_T2": Q_TS_MOD_T2, "F2_X": F2_X,
    "Z_laurent": Ring("Z", (Var("x", laurent=True),)),
    "Zi_trunc_1_2": Ring("Zi", (Var("t", trunc=1), Var("u", trunc=2))),
    "Q_arity_0": Ring("Q", ()),
    "Z_arity_7": Ring("Z", (Var("u"), Var("v", laurent=True), Var("w", trunc=3),
                            Var("x", laurent=True), Var("y", trunc=2), Var("z"),
                            Var("q", laurent=True))),
    "Q_not_identifiers": Ring("Q", (Var("a); x", laurent=True), Var("é", trunc=4), Var("0"))),
}

# (kind, *key): sha256 of the source its writer writes, a drawer's ring named
# in RINGS.  Kernels: arity 0 to 7, the F2[eps] tables and every base.  Normal
# forms: every base, untruncated and truncated at 1 and 2.  Drawers: the
# report's and the tests' shapes, a Laurent variable and truncations at 1 and 2.
SOURCE_SHA256 = {
    ("kernel", 0, "Q"): "70d7da85e9c157faed5290f89aad5387b1785f5424bd688cb5c6263d8229fec9",
    ("kernel", 1, "Q"): "8dd6b54b3cfbf3f1611365de112ea92a96f4cebb8fd2b6292ef515b51f29cd17",
    ("kernel", 2, "Q"): "d4c2a895efa59ecac48bb63995ba2c88394bf8d90a622806651c8829e7bdf432",
    ("kernel", 3, "Q"): "af7a3a6e7afec56c22ed9643d130c5ccfe7ec8617a5724bec64b732ce0bd3e46",
    ("kernel", 4, "Q"): "279114d7fa27ba5243fd445a1886fcf926a29007981b844c3e7c7c3f962e3d56",
    ("kernel", 5, "Q"): "630a3f827271146d53060124f8939aafdd1da0a0b9023775043f514acff17869",
    ("kernel", 6, "Q"): "2a1c6ac64b8fb22bb3c9194ccc2ea6ba3d9534e40985d0b84b9eccefe55b2f62",
    ("kernel", 7, "Q"): "fda04931dded4793c76b176c0a5f72a1ce3460cd47378c41ca49c9bd36b51a53",
    ("kernel", 0, "F2e"): "135a34fd75184a931af6263b5ed27068528d37e59309ed2c2d479f519288cc43",
    ("kernel", 1, "F2e"): "0db57a4afa1f6e2b93e0968613eb4bdd3725b17395afa528c7e5d624479b4c06",
    ("kernel", 2, "F2e"): "6a4057a64825e8c0cf02f16d2634eb69b74a19ddccf7ed4f543fc6ca634e4254",
    ("kernel", 3, "F2e"): "d8226a13d4e62024749b6df81aea4fa5dcd2c25df533f02365dbfca4bd4b1d53",
    ("kernel", 4, "F2e"): "86d2684c2aa4ee4fa1f53e5ff32fcf540e65310d5180c976f32d3b39108e2df7",
    ("kernel", 5, "F2e"): "3b7f92a9515c4a429149a0823f141c5ee55b620afd7068e510e09557230da41e",
    ("kernel", 6, "F2e"): "cc79ff7e1a37ba351828aa4f2edf51d8d1d3a015f7426249ebdd63753b3840d5",
    ("kernel", 7, "F2e"): "5e306b1c0687d145a84a0d8650f9ee8d7148225c600f30585ebb02dcd0f78c2d",
    ("kernel", 2, "Z"): "d4c2a895efa59ecac48bb63995ba2c88394bf8d90a622806651c8829e7bdf432",
    ("kernel", 2, "Zi"): "d4c2a895efa59ecac48bb63995ba2c88394bf8d90a622806651c8829e7bdf432",
    ("kernel", 2, "Z4"): "d4c2a895efa59ecac48bb63995ba2c88394bf8d90a622806651c8829e7bdf432",
    ("kernel", 2, "F2"): "d4c2a895efa59ecac48bb63995ba2c88394bf8d90a622806651c8829e7bdf432",
    ("normal", "Q", ()): "66d85c8bd8d522fda79dee7b2388ebf254fe468d82292124d6b231ffca16bd06",
    ("normal", "Z", ()): "66d85c8bd8d522fda79dee7b2388ebf254fe468d82292124d6b231ffca16bd06",
    ("normal", "Zi", ()): "38c77dfd7350c71ce43ad30c7cdedb491ff11b9b82e9bde0c2099d0acff4f355",
    ("normal", "Z4", ()): "10e8cef5d5be897deb50bbec996d44a51ec52125b526fe4ccb76253d6bba52f2",
    ("normal", "F2", ()): "d9dbce18c462643e43f2d16ff228ee74c5e25b60b7808b74891b73906a707e81",
    ("normal", "F2e", ()): "f97724ceb07a897f227bf765bbe9347935e44243341a199ebce1c9aee56e92dc",
    ("normal", "Q", ((0, 1), (2, 2))):
        "8b0c11357e0b1d86e316e6e0c335bfca3fd852470b37672dbfa3cef50423b663",
    ("normal", "Z", ((0, 1), (2, 2))):
        "8b0c11357e0b1d86e316e6e0c335bfca3fd852470b37672dbfa3cef50423b663",
    ("normal", "Zi", ((0, 1), (2, 2))):
        "c320b7d9c7c0d79520c96800fc9f1f22520860a1ca47378406667a4fc43fdf21",
    ("normal", "Z4", ((0, 1), (2, 2))):
        "419a2624e7a8e3ae400e7c6176716829c2e08bdde989c27576ec8541f09f53e3",
    ("normal", "F2", ((0, 1), (2, 2))):
        "32b534f26b5d3aa38b2d3ec02a4e1312ca8c50d070666e23f674098d6aeb09cd",
    ("normal", "F2e", ((0, 1), (2, 2))):
        "ce4c880bfe02af737139622d20f24f1db75a7a426a08894106e01eedf2bffad0",
    ("normal", "Q", ((0, 2),)): "4b6803c0b44f5186b681dd836532ef5b3b2734ffe85aec6d1bbbdacc2f539368",
    ("draw", "Q_TSZ", 3, 3): "0052cfc792bdcd3a309a5ea9c2ab444a590f8b5241ace868f87d165728b2efc2",
    ("draw", "Q_TS", 3, 3): "1e5ad832561a7a34f79bfd45e4b6254aee8c47421a310243c388725abe865fd7",
    ("draw", "ZI_X", 3, 3): "a6643574e732d0ab06bff6ed676b8be255751236e09bd161453e3171e80a6581",
    ("draw", "Z4_X", 3, 3): "696322332daaacf9c1a0c30a7c70052a96d22d85c457266da403e1e63f02cea1",
    ("draw", "F2E_X", 3, 3): "ce4353bb70a1dcc37e3875538cba3df962043aced414a023ecf05943910e6a48",
    ("draw", "Q_TS_MOD_T2", 3, 3):
        "9ca1ddc698886c8f389613117b882bc05655ed56bd4b19f8d5b4b3fc7200b589",
    ("draw", "F2_X", 3, 3): "da37ec4e5e6099dc029d81c4b49ff1fb006fc94e853afb2955bda243b00f5e89",
    ("draw", "Z_laurent", 3, 3): "31046782d9ccf8cd274efb9509b6d34d27beb3b036a1e2d95e0628496617648b",
    ("draw", "Zi_trunc_1_2", 3, 3):
        "ec3cbc773b139c7234e2792acde5032b3a45ecda9c7080d3e5abd574ff055388",
    ("draw", "Q_arity_0", 3, 3): "4d576714f20e99d76b50b16aa3e96fbe85b2472d6c2416b150b8caf7ab3a30b0",
    ("draw", "Z_arity_7", 3, 3): "d68750eae4b42ca29150832dd43ae9d58a08aa3e3d0805002ac719c6354c3524",
    ("draw", "Q_not_identifiers", 3, 3):
        "013aac53ae5dd78389916d50f1e024b8897f1faa5eb1afc97b1056592309f127",
    ("draw", "Q_TS", 2, 2): "bd4e6bb27cd27e607e194228e4295870dd44aae0098470cf6b03c840d021fed0",
    ("draw", "F2E_X", 2, 2): "3ac1a973ae95da9294a1ce04a27e3b1537ac3ee1e7407e17a0689366b14ab9f1",
    ("draw", "F2E_X", 2, 3): "60006c2bbd52f1c63a1d13eaebf9e52b313cd964755d12513b1d7ed969812dd0",
    ("draw", "Zi_trunc_1_2", 0, 0):
        "d59d08e96d8ca597c77708827d758f1201b9b0cd9043410c514622f6ac3bde43",
    ("draw", "Zi_trunc_1_2", 0, 3):
        "8fd95fd6f1fb7a3ca1c02a15f8910432111c90138458c92464aa803be79df02f",
    ("draw", "Zi_trunc_1_2", 1, 0):
        "043778c3c79437e9773c81bc4e50c4b23be3db8784ff3a55af3f6be4e0a9b0f9",
    ("draw", "Zi_trunc_1_2", 2, 2):
        "0fad9cdaa110ab78ee9263a53882b736d1216ec32579ce567601353ec1b6a2bc",
    ("draw", "Zi_trunc_1_2", 3, 5):
        "ec3cbc773b139c7234e2792acde5032b3a45ecda9c7080d3e5abd574ff055388",
}


@pytest.fixture
def compiled(monkeypatch):
    """The source texts rings.generate hands to compile during the test,
    which starts from an empty registry."""
    texts = []
    monkeypatch.setattr(rings, "compile", lambda source, *args: texts.append(source)
                        or compile(source, *args), raising=False)
    generate.cache_clear()
    return texts


def _key(case):
    kind, *key = case
    return (kind, RINGS[key[0]], *key[1:]) if kind == "draw" else case


@pytest.mark.parametrize("case", SOURCE_SHA256, ids=lambda c: "-".join(map(str, c)))
def test_source_text_pinned(case, compiled):
    generate(*_key(case))
    assert [hashlib.sha256(text.encode()).hexdigest() for text in compiled] == [
        SOURCE_SHA256[case]]


def test_each_key_is_compiled_once_into_one_registry(compiled):
    # a ring's normal form and kernel, and random_poly's drawer, are the
    # registry's entries for their keys, compiled on first use only
    ring = Ring("Z4", (Var("y", trunc=2),))
    assert ring.normal is generate("normal", "Z4", ((0, 2),))
    assert ring.products is generate("kernel", 1, "Z4")
    rng = random.Random(0)
    for _ in range(2):
        random_poly(rng, ring, 2, 1)
    assert len(compiled) == generate.cache_info().currsize == 3
    assert [f.__code__.co_filename for f in (ring.normal, ring.products)] == [
        "<normal, Z4, ((0, 2),)>", "<kernel, 1, Z4>"]
    assert generate("draw", ring, 2, 1).__code__.co_filename == "<draw, Z4[y<2], 2, 1>"
    generate.cache_clear()
    assert generate.cache_info().currsize == 0


def test_outside_values_never_enter_source(compiled):
    # variable names and truncation bounds are outside input (JSON): a ring's
    # three sources are those of the same ring with its variables renamed, and
    # hold no bound's digits; the bound enters the normal form by its namespace
    big = 10 ** 40 + 7

    def sources(names):
        """The ring over Q with these variables, and the sources compiled for
        its normal form, kernel and drawer, from an empty registry."""
        ring = Ring("Q", (Var(names[0], laurent=True), Var(names[1], trunc=4),
                          Var(names[2]), Var(names[3], trunc=big)))
        assert callable(ring.normal) and callable(ring.products)
        random_poly(random.Random(0), ring)
        texts = compiled[:]
        del compiled[:]
        generate.cache_clear()
        return ring, texts

    # the names of test_matrices.KERNEL_RINGS, which are not identifiers
    ring, texts = sources(["a); x", "é", "0", "t"])
    assert len(texts) == 3 and texts == sources(["v0", "v1", "v2", "v3"])[1]
    assert [text for text in texts if "a); x" in text or "é" in text or str(big) in text] == []
    top, over = (0, 0, 0, big - 1), (0, 0, 0, big)
    assert Poly(ring, {top: 1, over: 1}).terms == {top: 1}
