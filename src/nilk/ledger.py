"""The check ledger both constructions and the report share.

A stage proves each identity with `require` as it builds it: a failure
raises PipelineError naming the check id (CLI exit 1).  Inside `recording()`
it also keeps the report `Check` by id, which the report reads instead of
computing it again.  A check's id and anchor are written once, at the call
that proves or computes it; KNOWN_DISCREPANCIES names the discrepancy ids.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple


class PipelineError(RuntimeError):
    """An internal verification of the construction failed."""


PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"
# the checks of a stated display that the construction does not reproduce
KNOWN_DISCREPANCIES = frozenset({"lift.stated_factors", "excision.e2_display",
                                 "rep31.entry11_vs_display"})


class Check(NamedTuple):
    id: str
    anchor: str
    status: str
    computed: str = ""
    expected: str = ""

    def line(self) -> str:
        out = f"[{self.status.upper():11s}] {self.id}  ({self.anchor})"
        if self.status != PASS:
            out += f"\n    computed: {self.computed}\n    expected: {self.expected}"
        return out

    def to_json(self) -> dict:
        return {"id": self.id, "anchor": self.anchor, "status": self.status,
                "computed": self.computed, "expected": self.expected}


def check(cid: str, anchor: str, computed, expected=True) -> Check:
    """The report entry for computed == expected: a mismatch is a DISCREPANCY
    for the ids of KNOWN_DISCREPANCIES, else a FAIL; expected True reads "true"."""
    status = PASS if computed == expected else DISCREPANCY if cid in KNOWN_DISCREPANCIES else FAIL
    return Check(cid, anchor, status, str(computed),
                 "true" if expected is True else str(expected))


# the ledger of the construction being built, open only inside recording()
_ledger: ContextVar[dict[str, Check] | None] = ContextVar("ledger", default=None)


def require(cid: str, anchor: str, computed, expected=True):
    """Prove computed == expected, recording the check while a ledger is open."""
    ledger = _ledger.get()
    if ledger is None:
        ok = computed == expected
    else:
        c = ledger[cid] = check(cid, anchor, computed, expected)
        ok = c.status == PASS
    if not ok:
        raise PipelineError(f"verification failed: {cid} ({anchor})")


@contextmanager
def recording():
    """Open a fresh ledger for the checks `require` proves in the block."""
    ledger: dict[str, Check] = {}
    token = _ledger.set(ledger)
    try:
        yield ledger
    finally:
        _ledger.reset(token)


def summarize(checks: list[Check], allow_known_discrepancies: bool = False) -> bool:
    """True iff the report passes (discrepancies tolerated only when allowed)."""
    for c in checks:
        if c.status == FAIL:
            return False
        if c.status == DISCREPANCY and not allow_known_discrepancies:
            return False
    return True
