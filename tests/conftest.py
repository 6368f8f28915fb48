import pytest

from nilk import report


@pytest.fixture(scope="session")
def report_checks():
    """The full verification report, run once per test session."""
    return report.run_all_checks()
