import pytest
from hypothesis import settings

import condensim.rng

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; engine runs vary in length, so there is no deadline.
settings.register_profile("condensim", derandomize=True, deadline=None, database=None)
settings.load_profile("condensim")


@pytest.fixture
def generator_calls(monkeypatch):
    """Path indices passed to ``condensim.rng.path_generator``, in call order."""
    calls = []
    build = condensim.rng.path_generator

    def counted(seed, path_index):
        calls.append(path_index)
        return build(seed, path_index)

    monkeypatch.setattr(condensim.rng, "path_generator", counted)
    return calls
