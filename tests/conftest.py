import pytest

from statecount.verify import run_verify


@pytest.fixture(scope="session")
def full_verify():
    """One shared full verify run; the engine itself is deterministic."""
    return run_verify("all")
