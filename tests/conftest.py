import pytest
from hypothesis import settings

from lungsound.data import generate_synthetic_dataset

# Every run, local or CI and on every Python version, draws the same
# examples, and none writes a .hypothesis/ example database.
settings.register_profile("lungsound", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("lungsound")


@pytest.fixture(scope="session")
def synth_dataset(tmp_path_factory):
    """Small deterministic corpus shared across test modules: 3 recordings
    per event class plus 3 poor-quality recordings, every second one held
    out for validation."""
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_synthetic_dataset(
        str(root), seed=1234, n_per_class=3, validation_every=2
    )
    return manifest
