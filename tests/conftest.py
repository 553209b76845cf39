import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory):
    """One synthetic record per class plus its manifest, shared by IO tests."""
    from lungmix.synth import CorpusPlan, make_corpus

    out = tmp_path_factory.mktemp("corpus")
    manifest = make_corpus(out, CorpusPlan(per_class=1), 3)
    return manifest
