"""Exact work counts, pinned: the constructions, the fixed-check groups of
the report and a 100-case prefix of each word suite, each counted by class
patches on this side, so no counter lives in src/nilk.  Unlike a time, a
count does not vary from run to run: a change that moves one edits its row
and says why.

An op on a construction is handed a fresh one, built uncounted, so no
value the construction caches is counted twice or missed.  Each op runs
once uncounted first, so the rings' own caches (their one and zero, their
generated kernels) are warm whichever test ran before."""

import pytest

from nilk import groupring_pipeline as grp
from nilk import laurent_pipeline as lp
from nilk import report
from nilk.matrices import Matrix
from nilk.rings import Poly, Ring

# counter: the class attribute whose calls it counts; "kernel" counts the
# calls of every ring's product kernel (Ring.products)
COUNTERS = {"Poly": (Poly, "__init__"), "Matrix": (Matrix, "__init__"),
            "@": (Matrix, "__matmul__"), "det": (Matrix, "det"), "kernel": (Ring, "products")}


def _prefix(suite, cases=100):
    """The report's random suite at its report seed, on its first `cases` cases."""
    seed = next(seed for *_, fn, _, seed in report.SUITES if fn is suite)
    return lambda: suite(cases, seed)


# op: (what it is handed, built uncounted, or None; the op; {counter: exact
# count}).  construct() builds and proves N, so laurent_checks and
# sse_checks are handed it built.  The word suites' letters x_ij(0) = I make
# no kernel call and no Poly: 458 of them in the eval_homomorphism prefix,
# 255 in the Dennis-Stein one.  Each suite builds its identity matrix once.
WORK = {
    "lp.construct": (None, lp.construct,
                     {"Poly": 319, "Matrix": 43, "@": 11, "det": 2, "kernel": 362}),
    "grp.construct": (None, grp.construct,
                      {"Poly": 69, "Matrix": 11, "@": 1, "det": 2, "kernel": 36}),
    "report.laurent_checks": (lp.construct, report.laurent_checks,
                              {"Poly": 890, "Matrix": 56, "@": 18, "det": 0, "kernel": 1109}),
    "report.sse_checks": (lp.construct, report.sse_checks,
                          {"Poly": 166, "Matrix": 27, "@": 18, "det": 0, "kernel": 262}),
    "report.groupring_checks": (grp.construct, report.groupring_checks,
                                {"Poly": 93, "Matrix": 8, "@": 0, "det": 1, "kernel": 51}),
    "report.suite_eval_homomorphism[:100]": (
        None, _prefix(report.suite_eval_homomorphism),
        {"Poly": 1131, "Matrix": 501, "@": 100, "det": 0, "kernel": 893}),
    "report.suite_dennis_stein_identity[:100]": (
        None, _prefix(report.suite_dennis_stein_identity),
        {"Poly": 1941, "Matrix": 101, "@": 0, "det": 0, "kernel": 1508}),
}


def _counted(monkeypatch, op, *args) -> dict[str, int]:
    """The calls op(*args) makes to each counter's attribute."""
    counts = dict.fromkeys(COUNTERS, 0)

    def counter(fn, name):
        def counting(*a, **k):
            counts[name] += 1
            return fn(*a, **k)
        return counting
    for name, (cls, attr) in COUNTERS.items():
        if cls is Ring:  # a cached field: the kernel it gives each ring is wrapped
            field = vars(Ring)[attr]
            monkeypatch.setattr(Ring, attr, property(
                lambda ring, field=field, name=name: counter(field.__get__(ring), name)))
        else:
            monkeypatch.setattr(cls, attr, counter(getattr(cls, attr), name))
    try:
        op(*args)
    finally:
        monkeypatch.undo()
    return counts


@pytest.mark.parametrize("given, op, counts", WORK.values(), ids=WORK)
def test_work(given, op, counts, monkeypatch):
    args = lambda: () if given is None else (given(),)
    op(*args())  # uncounted, so the rings' caches are warm
    assert _counted(monkeypatch, op, *args()) == counts
