from pathlib import Path

import pytest

from mixregime import (EstimatorConfig, MixtureParams, ModelSpec,
                       RegimeOutcome, hmm_benchmark, load_experiment_config,
                       msar_benchmark, qml_estimate, simulate_hmm,
                       simulate_msar)
from mixregime.dgp import seed_key

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.fixture(scope="session")
def floor_fit():
    """(config, sample, estimate) of committed replication 2 of
    msar_rho065_T200, rebuilt with run_replication's seeds: the Newton polish
    drives the winning start's sigma(1) to the floor."""
    cfg = load_experiment_config(CONFIG_DIR / "msar_rho065_T200.json")
    base = seed_key(cfg.master_seed) + (2,)
    sample = simulate_msar(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                           seed=base + (0,))
    return cfg, sample, qml_estimate(sample, cfg.spec, cfg.estimator,
                                     seed=base + (1,))


@pytest.fixture
def built_records(monkeypatch):
    """Class names of the MixtureParams and RegimeOutcome records built while
    the test runs, in the order their constructors finish."""
    built = []
    for cls in (MixtureParams, RegimeOutcome):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append(type(self).__name__)

        monkeypatch.setattr(cls, "__init__", counted)
    return built
