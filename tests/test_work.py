"""Exact work counts, pinned: the constructions and the fixed-check groups
of the report, each counted by class patches on this side, so no counter
lives in src/nilk.  Unlike a time, a count does not vary from run to run:
a change that moves one edits its row and says why.

An op on a construction is handed a fresh one, built uncounted, so no
value the construction caches is counted twice or missed.  Each op runs
once uncounted first, so the rings' own caches (their one and zero, their
generated kernels) are warm whichever test ran before."""

import pytest

from nilk import groupring_pipeline as grp
from nilk import laurent_pipeline as lp
from nilk import report
from nilk.matrices import Matrix
from nilk.rings import Poly

# counter: the class attribute whose calls it counts
COUNTERS = {"Poly": (Poly, "__init__"), "Matrix": (Matrix, "__init__"),
            "@": (Matrix, "__matmul__"), "det": (Matrix, "det")}

# op: (what it is handed, built uncounted, or None; the op; {counter: exact
# count}).  construct() builds and proves N, so laurent_checks and
# sse_checks are handed it built.
WORK = {
    "lp.construct": (None, lp.construct, {"Poly": 319, "Matrix": 43, "@": 11, "det": 2}),
    "grp.construct": (None, grp.construct, {"Poly": 69, "Matrix": 11, "@": 1, "det": 2}),
    "report.laurent_checks": (lp.construct, report.laurent_checks,
                              {"Poly": 890, "Matrix": 56, "@": 18, "det": 0}),
    "report.sse_checks": (lp.construct, report.sse_checks,
                          {"Poly": 166, "Matrix": 27, "@": 18, "det": 0}),
    "report.groupring_checks": (grp.construct, report.groupring_checks,
                                {"Poly": 93, "Matrix": 8, "@": 0, "det": 1}),
}


def _counted(monkeypatch, op, *args) -> dict[str, int]:
    """The calls op(*args) makes to each counter's attribute."""
    counts = dict.fromkeys(COUNTERS, 0)
    for name, (cls, attr) in COUNTERS.items():
        def counting(*a, fn=getattr(cls, attr), name=name, **k):
            counts[name] += 1
            return fn(*a, **k)
        monkeypatch.setattr(cls, attr, counting)
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
