"""The check ledger both constructions and the report share.

A pipeline stage proves each defining identity with `require` as it builds
it: a failure raises PipelineError naming the check id, which the CLI
reports as exit 1.  Inside `recording()` every identity is also kept as a
report `Check` by id, which the report reads instead of computing it again.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass


class PipelineError(RuntimeError):
    """An internal verification of the construction failed."""


PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"


@dataclass
class Check:
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
        return asdict(self)


def check(cid: str, anchor: str, computed, expected=True,
          known_discrepancy: bool = False) -> Check:
    """The report entry for computed == expected; a boolean identity
    (expected True) reads "true" on the expected side."""
    status = PASS if computed == expected else DISCREPANCY if known_discrepancy else FAIL
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
