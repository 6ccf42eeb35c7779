import hashlib
import math

import numpy as np
import pytest

from mixregime import (ArLaw, ConfigurationError, HmmDgpParams, NoiseCorrelation,
                       ParseError, RegimeOutcome, Sample, TransitionSpec,
                       ValidationError, hmm_benchmark, load_sample, msar_benchmark,
                       save_sample, simulate_hmm, simulate_msar, transition_row)
from mixregime.dgp import stream_rng


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


def outcome_draws(seed, sample):
    """The outcome stream's standard normals over the sample's T steps."""
    burn_in = sample.meta["burn_in"]
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
        assert RegimeOutcome(0.0, 0.0, -1.0).violations()
        assert ArLaw(0.2, 1.0, 1.0).violations()
        assert ArLaw(0.2, 0.8, 0.0).violations()

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
        ((), "ar_coefficient", False),
    ])
    def test_reals_are_type_checked(self, path, key, value):
        # float() would load "1.0" as 1.0 and True as 1.0
        obj = msar_benchmark().to_json()
        block = obj
        for step in path:
            block = block[step]
        block[key] = value
        with pytest.raises(ValidationError, match=f"{key} must be a real number"):
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
        assert sample.meta["variant"] == "hmm"
        assert sample.meta["burn_in"] == 500

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
        u1 = outcome_draws(11, sample)
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

    def test_input_validation(self, hmm_params):
        with pytest.raises(ValidationError):
            simulate_hmm(hmm_params, T=0, seed=1)
        with pytest.raises(ValidationError):
            simulate_hmm(hmm_params, T=10, burn_in=-1, seed=1)


class TestSimulateMsar:
    def test_recursion_holds_exactly(self):
        params = msar_benchmark(rho=0.0, phi=0.9)
        sample = simulate_msar(params, T=400, seed=31)
        u1 = outcome_draws(31, sample)  # identity Cholesky factor at rho = 0
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


class TestRegimePath:
    # sha256 of the int64 regime labels recorded from the earlier
    # two-regime stay/leave loop; the table walk must reproduce it exactly
    PINNED = "cfce3e3cd12f271d405226e0329f2a324f1bc236a764c7fadd6cf6743669c88f"

    @pytest.mark.parametrize("simulate, params", [(simulate_msar, msar_benchmark),
                                                  (simulate_hmm, hmm_benchmark)])
    def test_two_regime_path_is_pinned(self, simulate, params):
        s = simulate(params(), T=5000, seed=0).s
        assert hashlib.sha256(s.astype("<i8").tobytes()).hexdigest() == self.PINNED

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
