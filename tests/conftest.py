import pytest

from crystalk import crystal


@pytest.fixture
def fresh_shapes():
    """Empty the closed-form memo (`crystal.shape`) before and after the
    test, so no shape computed under a test's monkeypatch outlives it."""
    crystal.shape.cache_clear()
    yield
    crystal.shape.cache_clear()
