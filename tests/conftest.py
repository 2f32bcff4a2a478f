import sys
from pathlib import Path

import pytest

from racdnn import tensor as T

# test helpers (gradcheck, oracles) live next to the tests
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_graph_leaks():
    """Fail a test that leaves a graph active on this thread, then clear it,
    so the leak shows in that test and not as "a graph is already active"
    in a later one."""
    yield
    leaked = T._active_graph()
    T._tls.graph = None
    if leaked is not None:
        pytest.fail("the test left a graph active")
