import pytest

from nilk.ledger import DISCREPANCY, FAIL, KNOWN_DISCREPANCIES, PASS, Check, check


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
    and a FAIL for any other, a stage id included.  The Check keeps both
    values; its JSON writes them, expected True as "true"."""
    c = check(cid, "probe anchor", computed, expected)
    assert c == Check(cid, "probe anchor", status, computed, expected)
    assert c.computed is computed and c.expected is expected
    assert c.to_json() == {"id": cid, "anchor": "probe anchor", "status": status,
                           "computed": str(computed), "expected": shown}
