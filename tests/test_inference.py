import math

import numpy as np
import pytest

from mixregime import (EstimationError, HacConfig, ModelSpec, Sample,
                       ValidationError, andrews_bandwidth, encode, hac_middle,
                       parzen_weight, qml_estimate, sandwich_cov)
from mixregime.mixture import hessian, score_contributions


def ar1_series(rho, t_len, seed, marginal_sd=1.0):
    rng = np.random.default_rng(seed)
    innov_sd = marginal_sd * math.sqrt(1.0 - rho * rho)
    x = np.empty(t_len)
    x[0] = rng.normal() * marginal_sd
    shocks = rng.normal(size=t_len) * innov_sd
    for t in range(1, t_len):
        x[t] = rho * x[t - 1] + shocks[t]
    return x


class TestParzenWeight:
    def test_anchor_values(self):
        assert parzen_weight(0.0) == 1.0
        assert parzen_weight(1.0) == 0.0
        assert parzen_weight(-1.0) == 0.0
        # both polynomial branches agree at the joint
        assert parzen_weight(0.5) == 0.25
        assert 1.0 - 6.0 * 0.25 + 6.0 * 0.125 == 2.0 * 0.5 ** 3 == 0.25

    def test_outside_support(self):
        assert parzen_weight(1.5) == 0.0
        assert parzen_weight(-7.0) == 0.0

    def test_symmetry_and_monotonicity(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = np.array([parzen_weight(x) for x in grid])
        neg = np.array([parzen_weight(-x) for x in grid])
        np.testing.assert_array_equal(vals, neg)
        assert (np.diff(vals) <= 1e-15).all()
        assert (vals >= 0.0).all()

    def test_continuity_at_branch_point(self):
        eps = 1e-9
        assert parzen_weight(0.5 + eps) == pytest.approx(0.25, abs=1e-7)
        assert parzen_weight(0.5 - eps) == pytest.approx(0.25, abs=1e-7)


class TestAndrewsBandwidth:
    def test_matches_plug_in_formula(self):
        rng = np.random.default_rng(30)
        scores = rng.normal(size=(500, 3)) @ np.diag([1.0, 2.0, 0.5])
        scores[:, 1] = ar1_series(0.6, 500, 31)
        got = andrews_bandwidth(scores)

        num = 0.0
        den = 0.0
        for col in scores.T:
            lag, cur = col[:-1], col[1:]
            rho = (cur * lag).sum() / (lag * lag).sum()
            rho = min(max(rho, -0.97), 0.97)
            sig2 = ((cur - rho * lag) ** 2).mean()
            num += 4.0 * rho ** 2 * sig2 ** 2 / (1.0 - rho) ** 8
            den += sig2 ** 2 / (1.0 - rho) ** 4
        want = 2.6614 * (num / den * 500) ** 0.2
        assert got == pytest.approx(want, rel=1e-10)

    def test_half_persistent_scalar_magnitude(self):
        # population value for rho = 0.5, T = 1000 is
        # 2.6614 * (4 * 0.25 / 0.5**4 * 1000)**0.2 = 18.4456
        x = ar1_series(0.5, 1000, 32)
        s_t = andrews_bandwidth(x[:, None])
        assert s_t == pytest.approx(18.4456, rel=0.2)

    def test_scale_invariant(self):
        rng = np.random.default_rng(33)
        scores = rng.normal(size=(200, 2))
        assert andrews_bandwidth(scores * 37.5) == pytest.approx(
            andrews_bandwidth(scores), rel=1e-12)

    def test_iid_scores_give_small_bandwidth(self):
        rng = np.random.default_rng(34)
        scores = rng.normal(size=(5000, 2))
        assert andrews_bandwidth(scores) < 3.0

    def test_too_short(self):
        with pytest.raises(ValidationError):
            andrews_bandwidth(np.zeros((5, 2)) + np.arange(5)[:, None])

    def test_all_columns_degenerate(self):
        with pytest.raises(EstimationError):
            andrews_bandwidth(np.ones((100, 2)))


class TestHacMiddle:
    def test_zero_bandwidth_equals_outer_product_exactly(self):
        rng = np.random.default_rng(35)
        g = rng.normal(size=(300, 4))
        got = hac_middle(g, HacConfig(bandwidth=0.0))
        gc = g - g.mean(axis=0)
        want = gc.T @ gc / g.shape[0]
        np.testing.assert_array_equal(got, 0.5 * (want + want.T))

    def test_white_noise_recovers_identity(self):
        rng = np.random.default_rng(36)
        g = rng.normal(size=(10_000, 3))
        b = hac_middle(g, HacConfig())
        rel = np.linalg.norm(b - np.eye(3)) / np.linalg.norm(np.eye(3))
        assert rel < 0.05

    def test_ar1_long_run_variance(self):
        # LRV of an AR(1) with unit marginal variance is (1+rho)/(1-rho) = 3
        x = ar1_series(0.5, 100_000, 37)
        b = hac_middle(x[:, None], HacConfig())
        assert b[0, 0] == pytest.approx(3.0, rel=0.10)

    def test_scaling_is_exact_for_powers_of_two(self):
        rng = np.random.default_rng(38)
        g = rng.normal(size=(400, 2)) + ar1_series(0.4, 400, 39)[:, None]
        info_a, info_b = {}, {}
        base = hac_middle(g, HacConfig(), info=info_a)
        scaled = hac_middle(2.0 * g, HacConfig(), info=info_b)
        assert info_a["bandwidth"] == info_b["bandwidth"]
        np.testing.assert_array_equal(scaled, 4.0 * base)

    def test_oversized_bandwidth_warns_and_truncates(self):
        rng = np.random.default_rng(40)
        g = rng.normal(size=(20, 2))
        info = {}
        with pytest.warns(UserWarning, match="truncating"):
            hac_middle(g, HacConfig(bandwidth=50.0), info=info)
        assert info["truncated"]
        assert info["bandwidth"] == 19.0

    def test_result_symmetric_psd(self):
        x = ar1_series(0.8, 2000, 41)
        g = np.column_stack([x, np.roll(x, 3), x ** 2 - x.mean()])
        b = hac_middle(g, HacConfig())
        np.testing.assert_array_equal(b, b.T)
        assert np.linalg.eigvalsh(b).min() >= -1e-12

    def test_info_dict_populated(self):
        rng = np.random.default_rng(42)
        info = {}
        hac_middle(rng.normal(size=(250, 2)), HacConfig(), info=info)
        assert set(info) == {"bandwidth", "n_lags", "truncated", "floored",
                             "min_eig"}
        assert info["n_lags"] == int(math.floor(info["bandwidth"]))

    def test_config_validation(self):
        # the kernel (Parzen) and the demeaning are not settings: no keys
        with pytest.raises(ValidationError, match="unknown hac key.*kernel"):
            HacConfig.from_json({"kernel": "bartlett"})
        with pytest.raises(ValidationError, match="unknown hac key.*demean_scores"):
            HacConfig.from_json({"demean_scores": False})
        with pytest.raises(ValidationError, match="bandwith"):
            HacConfig.from_json({"bandwith": 8})
        with pytest.raises(ValidationError):
            HacConfig(bandwidth=-1.0).validate()
        with pytest.raises(ValidationError):
            HacConfig(bandwidth="wide").validate()

    @pytest.mark.parametrize("value", [True, False, None, "8", [8.0]])
    def test_bandwidth_is_type_checked(self, value):
        # True would pass as a fixed bandwidth of 1
        with pytest.raises(ValidationError, match="bandwidth"):
            HacConfig.from_json({"bandwidth": value}).validate()


class TestSandwichCov:
    def fit_free(self, sample, spec, seed=0):
        res = qml_estimate(sample, spec, seed=seed)
        return encode(res.theta_hat, spec), res

    def test_single_component_matches_classical_ml(self):
        # correctly specified Gaussian regression: sandwich collapses to the
        # usual ML covariance, so compare against its closed form
        rng = np.random.default_rng(43)
        t_len = 5000
        w = rng.normal(size=t_len)
        y = 0.5 + 0.8 * w + 1.3 * rng.normal(size=t_len)
        sample = Sample(y=y, w=w)
        spec = ModelSpec(d=1, form="hmm")
        free, res = self.fit_free(sample, spec)
        cov, se = sandwich_cov(free, sample, spec, HacConfig(bandwidth=0.0))

        sig = res.theta_hat.components[0].sigma
        design = np.column_stack([np.ones_like(w), w])
        v_coef = sig ** 2 * np.linalg.inv(design.T @ design)
        assert se[0] == pytest.approx(math.sqrt(v_coef[0, 0]), rel=0.03)
        assert se[1] == pytest.approx(math.sqrt(v_coef[1, 1]), rel=0.03)
        assert se[2] == pytest.approx(sig / math.sqrt(2 * t_len), rel=0.05)

    def test_covariance_symmetric_psd_and_ordered(self, hmm_sample, hmm_spec,
                                                  fast_cfg):
        res = qml_estimate(hmm_sample, hmm_spec, fast_cfg, seed=7)
        free = encode(res.theta_hat, hmm_spec)
        cov, se = sandwich_cov(free, hmm_sample, hmm_spec)
        names = hmm_spec.natural_names()
        assert cov.shape == (len(names), len(names))
        assert se.shape == (len(names),)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.abs(cov).max()
        assert (se[: len(se) - hmm_spec.d] > 0).all()

    def test_delta_method_sigma_rows(self, hmm_sample, hmm_spec, fast_cfg):
        # SE(sigma) must equal sigma * SE(log sigma) through the chain rule
        res = qml_estimate(hmm_sample, hmm_spec, fast_cfg, seed=7)
        free = encode(res.theta_hat, hmm_spec)
        cfg = HacConfig(bandwidth=0.0)
        _, se = sandwich_cov(free, hmm_sample, hmm_spec, cfg)

        y, x = hmm_spec.regression_frame(hmm_sample)
        inner = Sample(y=y, w=x)
        a_mat = hessian(free, inner, hmm_spec)
        g = score_contributions(free, inner, hmm_spec)
        b_mat = hac_middle(g, cfg)
        v_free = np.linalg.solve(a_mat, np.linalg.solve(a_mat, b_mat).T) / len(y)
        sig_hat = res.theta_hat.sigma_vec
        for s in range(hmm_spec.d):
            free_idx = 2 * hmm_spec.d + s
            nat_idx = 2 * hmm_spec.d + s
            want = sig_hat[s] * math.sqrt(v_free[free_idx, free_idx])
            assert se[nat_idx] == pytest.approx(want, rel=1e-6)

    def test_vanishing_component_rejected(self):
        # a component with (numerically) zero weight leaves the Hessian with
        # no curvature in that component's directions
        rng = np.random.default_rng(44)
        sample = Sample(y=rng.normal(size=400), w=rng.normal(size=400))
        spec = ModelSpec(d=2, form="hmm")
        free = np.array([0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 40.0])
        with pytest.raises(EstimationError):
            sandwich_cov(free, sample, spec)

    def test_hac_info_passthrough(self, hmm_sample, hmm_spec, fast_cfg):
        res = qml_estimate(hmm_sample, hmm_spec, fast_cfg, seed=7)
        free = encode(res.theta_hat, hmm_spec)
        info = {}
        sandwich_cov(free, hmm_sample, hmm_spec, HacConfig(), info=info)
        assert info["bandwidth"] > 0
