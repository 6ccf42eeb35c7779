import pytest

from mixregime import (EstimatorConfig, ModelSpec, hmm_benchmark, msar_benchmark,
                       simulate_hmm, simulate_msar)


@pytest.fixture(scope="session")
def hmm_params():
    return hmm_benchmark(rho=0.0, omega=0.0)


@pytest.fixture(scope="session")
def hmm_sample(hmm_params):
    """One medium regression-form sample shared across read-only tests."""
    return simulate_hmm(hmm_params, T=1600, seed=(101, 0))


@pytest.fixture(scope="session")
def msar_sample():
    return simulate_msar(msar_benchmark(rho=0.0), T=1600, seed=(102, 0))


@pytest.fixture(scope="session")
def hmm_spec():
    return ModelSpec(d=2, form="hmm")


@pytest.fixture(scope="session")
def msar_spec():
    return ModelSpec(d=2, form="msar")


@pytest.fixture
def fast_cfg():
    """Estimator settings tuned for test runtime, still multi-start; the
    tests fit with them at seed 7."""
    return EstimatorConfig(n_starts=4)
