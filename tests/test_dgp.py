import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixregime import (ArLaw, ConfigurationError, HmmDgpParams, NoiseCorrelation,
                       ParseError, RegimeOutcome, Sample, TransitionSpec,
                       ValidationError, hmm_benchmark, load_sample, msar_benchmark,
                       save_sample, simulate_hmm, simulate_msar, transition_row)
from mixregime.dgp import (DEFAULT_BURN_IN, _ar1, outcome_violations,
                           stream_rng, transition_rows)

SRC = Path(__file__).resolve().parent.parent / "src"


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


def outcome_draws(seed, sample, burn_in):
    """The outcome stream's standard normals over the sample's T steps, for
    a sample simulated after `burn_in` steps."""
    return stream_rng(seed, 0).standard_normal(burn_in + sample.T)[burn_in:]


def ar1_residuals(law, x):
    """Standardized innovations of an AR(1) path, from its second step on."""
    return (x[1:] - law.intercept - law.slope * x[:-1]) / law.noise_sd


class TestTransitionRow:
    def test_two_state_matches_logistic_stay_probability(self):
        spec = TransitionSpec.two_state((2.0, 2.0), (0.5, -0.5))
        row1 = transition_row(spec, z=1.0, from_regime=1)
        assert row1[0] == pytest.approx(logistic(2.5), abs=1e-12)
        row2 = transition_row(spec, z=1.0, from_regime=2)
        assert row2[1] == pytest.approx(logistic(1.5), abs=1e-12)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(0)
        spec = TransitionSpec(d=3, alpha=rng.normal(size=(3, 3)),
                              beta=rng.normal(size=(3, 3)))
        for z in (-4.0, 0.0, 7.5):
            for s in (1, 2, 3):
                row = transition_row(spec, z, s)
                assert (row > 0).all()
                assert abs(row.sum() - 1.0) < 1e-12

    def test_slope_sign_moves_stay_probability(self):
        spec = TransitionSpec.two_state((2.0, 2.0), (0.5, -0.5))
        lo = transition_row(spec, z=-2.0, from_regime=2)[1]
        hi = transition_row(spec, z=2.0, from_regime=2)[1]
        assert lo > hi  # regime 2 gets stickier when z falls

    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_of_a_path_equal_single_rows_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        spec = TransitionSpec(d=d, alpha=rng.normal(size=(d, d)),
                              beta=rng.normal(size=(d, d)))
        # every source regime at every z of the grid, in one batch
        z, s0 = (a.ravel() for a in np.meshgrid(np.linspace(-6.0, 6.0, 25),
                                                np.arange(d)))
        rows = transition_rows(spec, z, s0)
        for t in range(z.size):
            assert np.array_equal(
                rows[t], transition_row(spec, float(z[t]), int(s0[t]) + 1))

    def test_bad_inputs_rejected(self):
        spec = TransitionSpec.two_state((2.0, 2.0), (0.5, -0.5))
        with pytest.raises(ValidationError):
            transition_row(spec, z=float("nan"), from_regime=1)
        with pytest.raises(ValidationError):
            transition_row(spec, z=0.0, from_regime=0)
        with pytest.raises(ValidationError):
            transition_row(spec, z=0.0, from_regime=3)


class TestValidation:
    def test_noise_correlation_positive_definiteness(self):
        assert NoiseCorrelation(0.65, 0.65).violations() == []
        bad = NoiseCorrelation(0.8, 0.8)  # 0.64 + 0.64 >= 1
        assert bad.violations()
        with pytest.raises(ValidationError):
            HmmDgpParams(
                outcomes=[RegimeOutcome(1, 0.5, 1), RegimeOutcome(-1, 1, 1)],
                transition=TransitionSpec.two_state((2, 2), (0.5, -0.5)),
                z_law=ArLaw(0.2, 0.8, 1.0), w_law=ArLaw(0.2, 0.8, 1.0),
                noise=bad).validate()

    def test_sigma_and_slope_bounds(self):
        assert outcome_violations([(0.0, 0.0, -1.0)], "outcomes")
        assert ArLaw(0.2, 1.0, 1.0).violations()
        assert ArLaw(0.2, 0.8, 0.0).violations()

    @pytest.mark.parametrize("phi", [1.0, -1.0, 1.5])
    def test_switching_ar_coefficient_must_be_stationary(self, phi):
        # at phi = 1.5 and T = 2000 a third of y would overflow to +-inf
        with pytest.raises(ValidationError,
                           match=r"\|ar_coefficient\| must be < 1"):
            msar_benchmark(phi=phi).validate()
        msar_benchmark(phi=0.9).validate()

    def test_outcome_count_must_match_regimes(self):
        params = hmm_benchmark()
        params.outcomes = params.outcomes[:1]
        with pytest.raises(ValidationError, match="one outcome per regime"):
            params.validate()

    def test_json_round_trip(self):
        params = msar_benchmark(rho=0.65)
        again = HmmDgpParams.from_json(params.to_json())
        assert again.to_json() == params.to_json()
        assert again.params_hash() == params.params_hash()
        other = hmm_benchmark(rho=0.65)
        assert other.params_hash() != params.params_hash()

    def test_transition_link_is_logistic_only(self):
        # the multinomial logit is the only link, so there is no key for it
        obj = TransitionSpec.two_state((2.0, 2.0), (0.5, -0.5)).to_json()
        assert "link" not in obj
        with pytest.raises(ValidationError, match="unknown transition key.*link"):
            TransitionSpec.from_json({**obj, "link": "probit"})

    @pytest.mark.parametrize("d", [2.5, True, "2"])
    def test_transition_d_must_be_int(self, d):
        # int() would load d = 2.5 as two regimes
        obj = hmm_benchmark().to_json()
        obj["transition"]["d"] = d
        with pytest.raises(ValidationError, match="transition d must be an int"):
            HmmDgpParams.from_json(obj).validate()

    @pytest.mark.parametrize("path, key, value", [
        (("outcomes", 0), "mu", "1.0"), (("outcomes", 1), "sigma", True),
        (("z_law",), "slope", "0.5"), (("w_law",), "noise_sd", None),
        (("noise",), "rho", "0.3"), ((), "ar_coefficient", "0.9"),
        ((), "ar_coefficient", False), (("transition", "alpha", 0), 1, "0.5"),
        (("transition", "beta", 1), 0, True),
    ])
    def test_reals_are_type_checked(self, path, key, value):
        # float() would load "1.0" as 1.0 and True as 1.0; a transition cell
        # is named by its row and column
        obj = msar_benchmark().to_json()
        block = obj
        for step in path:
            block = block[step]
        block[key] = value
        with pytest.raises(ValidationError, match=f"{key} must be a real number"):
            HmmDgpParams.from_json(obj)

    @pytest.mark.parametrize("matrix, message", [
        ([[2.0, 0.0], [0.0]], "transition alpha rows must have equal length"),
        ([2.0, 0.0], "transition alpha must be a list of rows"),
        (2.0, "transition alpha must be a list of rows"),
    ], ids=["ragged", "flat", "scalar"])
    def test_transition_matrix_is_a_list_of_rows(self, matrix, message):
        # np.asarray would raise a ValueError on ragged rows
        obj = msar_benchmark().to_json()
        obj["transition"]["alpha"] = matrix
        with pytest.raises(ValidationError, match=message):
            HmmDgpParams.from_json(obj)

    @pytest.mark.parametrize("outcomes", [5, None, {"mu": 1.0}],
                             ids=["int", "null", "object"])
    def test_outcomes_must_be_a_list(self, outcomes):
        # iterating them would raise a TypeError, or read an object's keys
        obj = hmm_benchmark().to_json()
        obj["outcomes"] = outcomes
        with pytest.raises(ValidationError, match="outcomes must be a list"):
            HmmDgpParams.from_json(obj)

    @pytest.mark.parametrize("path, key", [
        ((), "ar_coeficient"), (("transition",), "links"), (("z_law",), "slop"),
        (("w_law",), "mean"), (("noise",), "kappa"), (("outcomes", 1), "phi"),
    ])
    def test_unknown_keys_rejected(self, path, key):
        # a misspelled key would otherwise load as its default without a word:
        # ar_coeficient as a regime regression with ar_coefficient = None
        obj = msar_benchmark().to_json()
        block = obj
        for step in path:
            block = block[step]
        block[key] = 0.9
        with pytest.raises(ValidationError, match=f"unknown .*key.*: {key}$"):
            HmmDgpParams.from_json(obj)


class TestSimulateHmm:
    def test_shapes_labels_meta(self, hmm_params):
        sample = simulate_hmm(hmm_params, T=500, seed=3)
        assert sample.T == 500
        assert len(sample.w) == len(sample.z) == len(sample.s) == 500
        assert set(np.unique(sample.s)) <= {1, 2}

    def test_determinism_and_seed_sensitivity(self, hmm_params):
        a = simulate_hmm(hmm_params, T=300, seed=(9, 1))
        b = simulate_hmm(hmm_params, T=300, seed=(9, 1))
        c = simulate_hmm(hmm_params, T=300, seed=(9, 2))
        assert np.array_equal(a.y, b.y) and np.array_equal(a.s, b.s)
        assert not np.array_equal(a.y, c.y)

    def test_extending_horizon_preserves_prefix(self, hmm_params):
        short = simulate_hmm(hmm_params, T=200, seed=4)
        long = simulate_hmm(hmm_params, T=400, seed=4)
        assert np.array_equal(short.y, long.y[:200])
        assert np.array_equal(short.s, long.s[:200])

    def test_outcome_equation_holds_exactly(self, hmm_params):
        # rho = omega = 0: the noise Cholesky factor is the identity, so U1
        # is the outcome stream's standard normals after the burn-in
        sample = simulate_hmm(hmm_params, T=400, seed=11)
        u1 = outcome_draws(11, sample, DEFAULT_BURN_IN)
        mu = np.array([c.mu for c in hmm_params.outcomes])
        gamma = np.array([c.gamma for c in hmm_params.outcomes])
        sigma = np.array([c.sigma for c in hmm_params.outcomes])
        s0 = sample.s - 1
        recon = mu[s0] + gamma[s0] * sample.w + sigma[s0] * u1
        np.testing.assert_allclose(sample.y, recon, rtol=0, atol=1e-12)

    def test_covariate_moments(self):
        params = hmm_benchmark()
        sample = simulate_hmm(params, T=200_000, seed=21)
        # stationary AR(1): mean 1, sd 1/sqrt(1-0.64)
        assert sample.w.mean() == pytest.approx(1.0, abs=0.05)
        assert sample.w.std() == pytest.approx(1.0 / math.sqrt(0.36), rel=0.03)
        assert sample.z.mean() == pytest.approx(1.0, abs=0.05)

    def test_noise_correlations_realized(self):
        params = hmm_benchmark(rho=0.65, omega=0.3)
        sample = simulate_hmm(params, T=200_000, seed=22)
        # U1 from the outcome equation; U2 and U3 as the AR(1) residuals of z, w
        mu = np.array([c.mu for c in params.outcomes])
        gamma = np.array([c.gamma for c in params.outcomes])
        sigma = np.array([c.sigma for c in params.outcomes])
        s0 = sample.s[1:] - 1
        u1 = (sample.y[1:] - mu[s0] - gamma[s0] * sample.w[1:]) / sigma[s0]
        u2 = ar1_residuals(params.z_law, sample.z)
        u3 = ar1_residuals(params.w_law, sample.w)
        assert np.corrcoef(u1, u2)[0, 1] == pytest.approx(0.65, abs=0.01)
        assert np.corrcoef(u1, u3)[0, 1] == pytest.approx(0.30, abs=0.01)
        assert np.corrcoef(u2, u3)[0, 1] == pytest.approx(0.0, abs=0.01)

    def test_regime_occupancy_favors_first_regime(self):
        # positive stay-slope for regime 1 and E[Z] = 1 tilt the chain
        sample = simulate_hmm(hmm_benchmark(), T=100_000, seed=23)
        frac = (sample.s == 1).mean()
        assert 0.6 < frac < 0.73

    @pytest.mark.parametrize("simulate, params", [(simulate_msar, msar_benchmark),
                                                  (simulate_hmm, hmm_benchmark)])
    def test_single_step_without_burn_in(self, simulate, params):
        sample = simulate(params(), T=1, burn_in=0, seed=3)
        assert sample.T == 1 and np.isfinite(sample.y).all()
        assert len(sample.z) == len(sample.w) == 1

    def test_input_validation(self, hmm_params):
        with pytest.raises(ValidationError):
            simulate_hmm(hmm_params, T=0, seed=1)
        with pytest.raises(ValidationError):
            simulate_hmm(hmm_params, T=10, burn_in=-1, seed=1)


class TestSimulateMsar:
    def test_recursion_holds_exactly(self):
        params = msar_benchmark(rho=0.0, phi=0.9)
        sample = simulate_msar(params, T=400, seed=31)
        # identity Cholesky factor at rho = 0
        u1 = outcome_draws(31, sample, DEFAULT_BURN_IN)
        mu = np.array([c.mu for c in params.outcomes])
        sigma = np.array([c.sigma for c in params.outcomes])
        s0 = sample.s - 1
        lhs = sample.y[1:] - 0.9 * sample.y[:-1]
        rhs = mu[s0[1:]] + sigma[s0[1:]] * u1[1:]
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_requires_ar_coefficient(self, hmm_params):
        with pytest.raises(ConfigurationError):
            simulate_msar(hmm_params, T=100, seed=1)

    def test_w_is_still_generated(self):
        sample = simulate_msar(msar_benchmark(), T=200, seed=32)
        assert len(sample.w) == 200 and np.isfinite(sample.w).all()


class TestAr1:
    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("slope", [0.0, 0.3, -0.7, 0.9, -0.95, 0.99,
                                       0.123456789])
    def test_equals_the_recursion_bit_for_bit(self, n, slope):
        driven = np.random.default_rng(n).normal(0.3, 1.7, size=n)
        x0 = 0.77
        expected = np.empty(n)
        x = x0
        for t in range(n):
            x = driven[t] + slope * x
            expected[t] = x
        assert np.array_equal(_ar1(slope, x0, driven.copy()), expected)


class TestImports:
    @pytest.mark.parametrize("args", [["-c", "import mixregime"],
                                      ["-m", "mixregime.cli", "--help"]])
    def test_scipy_signal_is_not_imported(self, args):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "mixregime.dgp" in imported
        assert not [m for m in imported if m.split(".")[:2] == ["scipy", "signal"]]


class TestRegimePath:
    # sha256 of the int64 regime labels recorded from the earlier
    # two-regime stay/leave loop; the table walk must reproduce it exactly
    PINNED = "cfce3e3cd12f271d405226e0329f2a324f1bc236a764c7fadd6cf6743669c88f"

    @pytest.mark.parametrize("simulate, params", [(simulate_msar, msar_benchmark),
                                                  (simulate_hmm, hmm_benchmark)])
    def test_two_regime_path_is_pinned(self, simulate, params):
        s = simulate(params(), T=5000, seed=0).s
        assert hashlib.sha256(s.astype("<i8").tobytes()).hexdigest() == self.PINNED

    # sha256 of the float64 AR paths recorded from scipy's lfilter, before the
    # bidiagonal solve replaced it; z and w share their laws in both designs
    PINNED_Z = "fa11a7c6a8a42601cd8c4a8924c7c0b61c45732d739c4f4d0b7831f2d98dad44"
    PINNED_W = "d919aa4745c718740d967783715f0b2220934b12ce06816a88ee2941c589e7f5"
    PINNED_Y = {
        "msar": "7153b76077d6d61fccc3dcdc60fbc915712b2bf58c940c162d4373b8d67c4cfe",
        "hmm": "a8376b90927c39fdd297b298dc0f3cb09c00618de26c686fd03a33c786296870",
    }

    @pytest.mark.parametrize("simulate, params, variant",
                             [(simulate_msar, msar_benchmark, "msar"),
                              (simulate_hmm, hmm_benchmark, "hmm")],
                             ids=["simulate_msar-msar_benchmark",
                                  "simulate_hmm-hmm_benchmark"])
    def test_ar_paths_are_pinned(self, simulate, params, variant):
        sample = simulate(params(), T=5000, seed=0)
        digests = {name: hashlib.sha256(getattr(sample, name).astype("<f8")
                                        .tobytes()).hexdigest()
                   for name in ("y", "z", "w")}
        assert digests == {"y": self.PINNED_Y[variant],
                           "z": self.PINNED_Z, "w": self.PINNED_W}

    def test_three_regime_frequencies_match_transition_rows(self):
        spec = TransitionSpec(d=3, alpha=[[1.5, 0.0, -0.5], [0.2, 1.0, 0.0],
                                          [-0.3, 0.4, 0.8]],
                              beta=[[0.6, 0.0, -0.4], [0.0, -0.5, 0.3],
                                    [0.5, 0.0, -0.6]])
        params = hmm_benchmark()
        params.transition = spec
        params.outcomes = params.outcomes + [RegimeOutcome(0.0, 0.0, 1.0)]
        sample = simulate_hmm(params, T=200_000, seed=41)
        src = sample.s[:-1]
        dest = sample.s[1:]
        rows = np.array([transition_row(spec, z, int(s))
                         for z, s in zip(sample.z[:-1], src)])
        for s in (1, 2, 3):
            here = src == s
            assert here.sum() > 10_000
            for k in (1, 2, 3):
                # conditionally mean-zero given the past, so uncorrelated
                diff = (dest[here] == k) - rows[here, k - 1]
                se = diff.std() / math.sqrt(diff.size)
                assert abs(diff.mean()) < 4 * se, (s, k)


class TestCsvRoundTrip:
    # sha256 of the files written from simulate_hmm(hmm_benchmark(), T=40,
    # seed=7), with all four columns and with y,w only
    PINNED_CSV = {
        "full": "96cd1b45b3bd46b64eea65ee57254fa058d79773813b79393394aa527e61ce8d",
        "yw": "85f08a49b5edd16e61f14a4d582dc4748e99ff50a4eb5a7e869f8fd6efb45f2f",
    }

    def test_written_bytes_are_pinned(self, tmp_path):
        sample = simulate_hmm(hmm_benchmark(), T=40, seed=7)
        digests = {}
        for name, written in (("full", sample),
                              ("yw", Sample(y=sample.y, w=sample.w))):
            path = tmp_path / f"{name}.csv"
            save_sample(written, path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digests == self.PINNED_CSV

    def test_full_round_trip_bit_exact(self, tmp_path, hmm_params):
        sample = simulate_hmm(hmm_params, T=250, seed=41)
        path = tmp_path / "sample.csv"
        save_sample(sample, path)
        back = load_sample(path)
        assert np.array_equal(back.y, sample.y)
        assert np.array_equal(back.w, sample.w)
        assert np.array_equal(back.z, sample.z)
        assert np.array_equal(back.s, sample.s)

    def test_optional_columns_absent(self, tmp_path):
        sample = Sample(y=np.array([1.5, -0.25]), w=np.array([0.0, 2.0]))
        path = tmp_path / "yw.csv"
        save_sample(sample, path)
        assert open(path).readline().strip() == "y,w"
        back = load_sample(path)
        assert back.z is None and back.s is None

    @pytest.mark.parametrize("text,lineno", [
        ("y,w\n1.0\n", 2),                        # ragged row
        ("y,w\n1.0,abc\n", 2),                    # non-numeric
        ("y,w\n1.0,2.0\n3.0,nan\n", 3),           # non-finite
        ("y,w,s\n1.0,2.0,0\n", 2),                # label below 1
        ("y,w,s\n1.0,2.0,1.5\n", 2),              # fractional label
        ("y,w,s\n1.0,2.0,1\n1.0,2.0,inf\n", 3),   # infinite label
        ("y,w,s\n1.0,2.0,1e400\n", 2),            # label overflows a double
        ("y,w,s\n1.0,2.0,1e300\n", 2),            # label overflows an int64
    ])
    def test_parse_errors_carry_line_numbers(self, tmp_path, text, lineno):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"line {lineno}:"):
            load_sample(path)

    @pytest.mark.parametrize("header", ["w,y", "y,q", "y,w,s,z", "z,s"])
    def test_header_errors(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n1.0,2.0\n")
        with pytest.raises(ParseError):
            load_sample(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_sample(path)
