import numpy as np
import pytest
from hypothesis import settings

from manitrans import stiefel

settings.register_profile("default", deadline=None, max_examples=25)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def reorth_calls(monkeypatch):
    """Calls of stiefel._reorthonormalise, which only the explicit route
    of a decomposition with k > 0 makes."""
    calls = []
    real = stiefel._reorthonormalise
    monkeypatch.setattr(stiefel, "_reorthonormalise",
                        lambda *args: calls.append(1) or real(*args))
    return calls
