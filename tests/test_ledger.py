import pytest

from nilk.ledger import DISCREPANCY, FAIL, PASS, Check, summarize


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
