import pytest

from mvgb.hilbscheme import census


@pytest.fixture(scope="session")
def census3():
    """The three-camera census, built once for the tests that read it."""
    return census(3)
