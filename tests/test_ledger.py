import pytest

from nilk.ledger import (DISCREPANCY, FAIL, KNOWN_DISCREPANCIES, PASS, Check, check,
                         summarize)


@pytest.mark.parametrize("statuses, strict, tolerant", [
    ((), True, True),
    ((PASS, PASS), True, True),
    ((PASS, FAIL), False, False),
    ((PASS, DISCREPANCY), False, True),
    ((DISCREPANCY, FAIL), False, False),
])
def test_summarize(statuses, strict, tolerant):
    """A FAIL fails the report, a DISCREPANCY fails it unless discrepancies
    are allowed, and all PASS or no checks at all passes it."""
    checks = [Check(f"probe.{k}", "probe anchor", s) for k, s in enumerate(statuses)]
    assert summarize(checks) is strict
    assert summarize(checks, allow_known_discrepancies=True) is tolerant


@pytest.mark.parametrize("cid, computed, expected, status, shown", [
    ("probe.id", 2, 2, PASS, "2"),
    ("lift.stated_factors", 2, 2, PASS, "2"),
    *((cid, 1, 2, DISCREPANCY, "2") for cid in sorted(KNOWN_DISCREPANCIES)),
    ("probe.id", 1, 2, FAIL, "2"),
    ("rep31.det", 1, 2, FAIL, "2"),
    ("probe.id", True, True, PASS, "true"),
    ("probe.id", False, True, FAIL, "true"),
])
def test_check_status_rule(cid, computed, expected, status, shown):
    """A mismatch is a DISCREPANCY exactly for the ids of KNOWN_DISCREPANCIES
    and a FAIL for any other, a stage id included; expected True reads "true"."""
    assert check(cid, "probe anchor", computed, expected) == Check(
        cid, "probe anchor", status, str(computed), shown)
