import pytest

from slopecert import kernels


@pytest.fixture(autouse=True)
def empty_table_slot():
    """Start every test with no candidate tables kept by an earlier one, so
    the tables and levels a test counts do not depend on the test order."""
    kernels._slot = None
