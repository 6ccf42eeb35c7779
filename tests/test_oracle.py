import math

import numpy as np
import pytest

from mixregime import (ArLaw, ConfigurationError, HmmDgpParams,
                       MixtureParams, ModelSpec, NoiseCorrelation,
                       QuadratureError, RegimeOutcome, TransitionSpec,
                       ValidationError, build_quadrature_grid, cf_ratio_check,
                       encode, hmm_benchmark, kl_check,
                       linear_independence_check, msar_benchmark,
                       perturbation_grid, pseudo_true_msar,
                       pseudo_true_weights, score, simulate_msar)
from mixregime.oracle import _eventually_decreasing, _student_t_cf


def two_state_mixture(mu=(1.0, -1.0), gamma=(0.5, 1.0), sigma=(1.0, 1.0),
                      weights=(0.66, 0.34)):
    comps = [RegimeOutcome(m, g, s) for m, g, s in zip(mu, gamma, sigma)]
    return MixtureParams(components=comps, weights=np.asarray(weights))


class TestPseudoTrueWeights:
    def test_symmetric_chain_gives_half(self):
        dgp = HmmDgpParams(
            outcomes=[RegimeOutcome(1.0, 0.0, 1.0), RegimeOutcome(-1.0, 0.0, 1.0)],
            transition=TransitionSpec.two_state(stay_intercepts=(1.0, 1.0),
                                                stay_slopes=(0.0, 0.0)),
            z_law=ArLaw(0.2, 0.8, 1.0), w_law=ArLaw(0.2, 0.8, 1.0),
            noise=NoiseCorrelation(0.0, 0.0))
        res = pseudo_true_weights(dgp, n_sim=200_000, seed=1)
        assert res.weights_star[0] == pytest.approx(
            0.5, abs=3 * max(res.mc_error[0], 1e-4))

    def test_benchmark_favors_persistent_regime(self):
        res = pseudo_true_weights(hmm_benchmark(), n_sim=200_000, seed=2)
        assert res.weights_star[0] > 0.55
        assert res.weights_star.sum() == pytest.approx(1.0, abs=1e-10)

    def test_seed_robustness(self):
        a = pseudo_true_weights(hmm_benchmark(), n_sim=400_000, seed=3)
        b = pseudo_true_weights(hmm_benchmark(), n_sim=400_000, seed=4)
        assert abs(a.weights_star[0] - b.weights_star[0]) < 3 * math.hypot(
            a.mc_error[0], b.mc_error[0]) + 1e-4

    def test_smoothed_and_raw_occupancy_agree(self):
        res = pseudo_true_weights(hmm_benchmark(), n_sim=400_000, seed=5)
        tol = 4 * math.hypot(res.mc_error[0], res.occupancy_error[0]) + 1e-4
        assert res.weights_star[0] == pytest.approx(res.occupancy[0], abs=tol)

    def test_small_n_sim_rejected(self):
        with pytest.raises(ValidationError):
            pseudo_true_weights(hmm_benchmark(), n_sim=5000)

    def test_theta_star_requires_hmm_form(self):
        res = pseudo_true_weights(msar_benchmark(), n_sim=20_000, seed=6)
        with pytest.raises(ConfigurationError):
            res.theta_star()

    def test_theta_star_carries_true_outcomes(self):
        res = pseudo_true_weights(hmm_benchmark(), n_sim=20_000, seed=7)
        star = res.theta_star()
        np.testing.assert_array_equal(star.mu_vec, [1.0, -1.0])
        np.testing.assert_array_equal(star.gamma_vec, [0.5, 1.0])
        np.testing.assert_array_equal(star.sigma_vec, [1.0, 1.0])
        np.testing.assert_array_equal(star.weights, res.weights_star)


class TestKlCheck:
    def test_theta_star_vs_itself_is_exactly_zero(self):
        dgp = hmm_benchmark()
        star = two_state_mixture()
        report = kl_check(dgp, star, [("same", star)], n_sim=20_000, seed=8)
        assert report.comparisons[0].delta == 0.0

    def test_permutation_is_exactly_zero(self):
        dgp = hmm_benchmark()
        star = two_state_mixture()
        report = kl_check(dgp, star, [("swapped", star.permuted([1, 0]))],
                          n_sim=20_000, seed=9)
        assert report.comparisons[0].delta == 0.0
        assert report.comparisons[0].se == 0.0

    def test_genuine_perturbation_loses(self):
        dgp = hmm_benchmark()
        star = two_state_mixture(
            weights=pseudo_true_weights(dgp, n_sim=400_000, seed=10)
            .weights_star)
        worse = two_state_mixture(mu=(1.5, -1.0), weights=star.weights)
        report = kl_check(dgp, star, [("mu shift", worse)], n_sim=100_000,
                          seed=11)
        comp = report.comparisons[0]
        assert comp.delta > 3 * comp.se > 0

    def test_msar_branch(self):
        dgp = msar_benchmark()
        # candidate evaluated on (y_t, y_{t-1}) pairs from the true process
        cand = two_state_mixture(mu=(0.65, -1.05), gamma=(0.96, 0.96),
                                 sigma=(1.05, 1.05), weights=(0.7, 0.3))
        report = kl_check(dgp, cand, perturbation_grid(cand, form="msar"),
                          n_sim=50_000, seed=12)
        assert len(report.comparisons) == 12
        assert math.isfinite(report.m_star)

    def test_dimension_mismatch_rejected(self):
        dgp = hmm_benchmark()
        star = two_state_mixture()
        bad = MixtureParams(components=[RegimeOutcome(0.0, 0.0, 1.0)],
                            weights=np.array([1.0]))
        with pytest.raises(ValidationError):
            kl_check(dgp, star, [("wrong d", bad)], n_sim=20_000)


@pytest.fixture(scope="module")
def msar_oracle():
    return pseudo_true_msar(msar_benchmark(), n_sim=200_000, seed=0)


class TestPseudoTrueMsar:
    def test_converged_with_positive_errors(self, msar_oracle):
        assert msar_oracle.converged
        assert msar_oracle.grad_max <= 1e-6
        assert msar_oracle.n_paths == 1
        errs = np.array(list(msar_oracle.mc_error.values()))
        assert np.isfinite(errs).all() and (errs > 0).all()
        assert list(msar_oracle.estimates()) == list(msar_oracle.mc_error)

    def test_limit_stays_in_shared_slope_model(self, msar_oracle):
        star = msar_oracle.theta_star
        encode(star, ModelSpec(d=2, form="msar"))
        # components follow the generator's order: regime 1 has mean +1
        assert star.mu_vec[0] > star.mu_vec[1]

    def test_kl_dominates_msar_grid(self, msar_oracle):
        star = msar_oracle.theta_star
        report = kl_check(msar_benchmark(), star,
                          perturbation_grid(star, form="msar"),
                          n_sim=200_000, seed=(0, 1))
        assert report.all_dominated(n_se=3.0), [
            (c.label, c.delta, c.se) for c in report.comparisons]

    def test_true_coefficients_are_not_the_limit(self, msar_oracle):
        dgp = msar_benchmark()
        star = msar_oracle.theta_star
        truth = MixtureParams(
            components=[RegimeOutcome(c.mu, dgp.ar_coefficient, c.sigma)
                        for c in dgp.outcomes],
            weights=star.weights.copy())
        report = kl_check(dgp, star, [("truth", truth)], n_sim=200_000,
                          seed=(0, 1))
        comp = report.comparisons[0]
        assert comp.delta > 3 * comp.se > 0

    def test_seed_robustness(self, msar_oracle):
        other = pseudo_true_msar(msar_benchmark(), n_sim=200_000, seed=1)
        for name, value in msar_oracle.estimates().items():
            tol = 4 * math.hypot(msar_oracle.mc_error[name],
                                 other.mc_error[name])
            assert abs(value - other.estimates()[name]) <= tol, name

    def test_requires_msar_design(self):
        with pytest.raises(ConfigurationError):
            pseudo_true_msar(hmm_benchmark(), n_sim=20_000)

    def test_grad_max_is_the_score_at_theta_star(self, msar_oracle):
        # read from the BFGS result, not from another pass over the paths
        spec = ModelSpec(d=2, form="msar")
        path = simulate_msar(msar_benchmark(), T=msar_oracle.n_sim,
                             seed=(0, 0))
        grad = score(encode(msar_oracle.theta_star, spec), path, spec)
        assert abs(np.abs(grad).max() - msar_oracle.grad_max) <= 1e-9

    def test_small_n_sim_rejected(self):
        with pytest.raises(ValidationError):
            pseudo_true_msar(msar_benchmark(), n_sim=5000)


class TestPerturbationGrid:
    def test_twelve_labeled_points(self):
        grid = perturbation_grid(two_state_mixture())
        assert len(grid) == 12
        labels = [label for label, _ in grid]
        assert len(set(labels)) == 12
        assert "mu(1)+0.25" in labels
        assert "weight(1)-0.25" in labels

    def test_all_entries_valid_and_distinct_from_center(self):
        star = two_state_mixture()
        for label, params in perturbation_grid(star):
            params.validate()
            same = (np.array_equal(params.mu_vec, star.mu_vec)
                    and np.array_equal(params.gamma_vec, star.gamma_vec)
                    and np.array_equal(params.sigma_vec, star.sigma_vec)
                    and np.array_equal(params.weights, star.weights))
            assert not same, label

    def test_msar_points_stay_in_shared_slope_model(self):
        star = two_state_mixture(mu=(0.63, -1.07), gamma=(0.966, 0.966),
                                 sigma=(1.07, 1.05), weights=(0.7, 0.3))
        spec = ModelSpec(d=2, form="msar")
        grid = perturbation_grid(star, form="msar")
        assert len({label for label, _ in grid}) == 12
        assert "phi+0.05" in [label for label, _ in grid]
        for label, params in grid:
            encode(params, spec)  # raises on distinct slopes
            assert not np.allclose(encode(params, spec), encode(star, spec)), label

    def test_unknown_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            perturbation_grid(two_state_mixture(), form="var")

    def test_requires_two_components(self):
        one = MixtureParams(components=[RegimeOutcome(0.0, 0.0, 1.0)],
                            weights=np.array([1.0]))
        with pytest.raises(ConfigurationError):
            perturbation_grid(one)

    def test_weight_bump_must_stay_in_unit_interval(self):
        lopsided = two_state_mixture(weights=(0.9, 0.1))
        with pytest.raises(ValidationError):
            perturbation_grid(lopsided)


class TestCfRatioCheck:
    def test_gaussian_closed_form(self):
        report = cf_ratio_check("gaussian", a1=1.5, a2=1.0)
        for tau, ratio in report.ratio_trace:
            assert ratio == pytest.approx(math.exp(-1.25 * tau * tau / 2.0),
                                          rel=1e-14)
        assert report.verdict
        taus = [t for t, _ in report.ratio_trace]
        assert taus[-1] == 10.0
        assert report.ratio_trace[-1][1] < 1e-12

    def test_student_t_matches_bessel_closed_form(self):
        # _student_t_cf is the Bessel closed form; the independent reference
        # is 2 int_0^inf cos(tau x) f(x) dx for the unit-variance t density,
        # by oscillatory quadrature at 30 digits
        import mpmath

        nu = 5.0
        c = math.sqrt((nu - 2) / nu)
        with mpmath.workdps(30):
            norm = (mpmath.gamma((nu + 1) / 2)
                    / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2)))
            for tau in (1.0, 3.0):
                def integrand(x):
                    t_val = x / c
                    dens = norm * (1 + t_val * t_val / nu) ** (-(nu + 1) / 2) / c
                    return mpmath.cos(tau * x) * dens

                want = float(2 * mpmath.quadosc(integrand, [0, mpmath.inf],
                                                period=2 * mpmath.pi / tau))
                assert _student_t_cf(tau, nu) == pytest.approx(want, rel=1e-10)

    def test_report_states_the_applied_threshold(self, monkeypatch):
        from mixregime import oracle

        report = cf_ratio_check("gaussian", a1=1.5, a2=1.0)
        assert report.verdict
        assert report.to_json()["threshold"] == oracle.CF_RATIO_THRESHOLD
        # the final ratio is ~1e-28; a stricter threshold flips the verdict
        monkeypatch.setattr(oracle, "CF_RATIO_THRESHOLD", 1e-40)
        strict = cf_ratio_check("gaussian", a1=1.5, a2=1.0)
        assert not strict.verdict
        assert strict.to_json()["threshold"] == 1e-40

    def test_student_t_verdict(self):
        report = cf_ratio_check("student-t:5", a1=2.0, a2=1.0)
        assert report.verdict
        ratios = [r for _, r in report.ratio_trace]
        assert ratios[-1] < 1e-8

    @pytest.mark.parametrize("family", ["student-t:30", "student-t:200"])
    def test_student_t_verdict_near_gaussian(self, family):
        # ratios fall to ~1e-24 and ~1e-50 at tau = 12
        report = cf_ratio_check(family, a1=2.0, a2=1.0)
        assert report.verdict
        ratios = [r for _, r in report.ratio_trace]
        assert all(r > 0 for r in ratios)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_student_t_beyond_double_precision_raises(self):
        # K_{500} at the first grid point overflows a double
        with pytest.raises(QuadratureError):
            cf_ratio_check("student-t:1000", a1=2.0, a2=1.0)

    def test_invalid_scale_order(self):
        with pytest.raises(ValidationError):
            cf_ratio_check("gaussian", a1=1.0, a2=1.5)
        with pytest.raises(ValidationError):
            cf_ratio_check("gaussian", a1=1.0, a2=-1.0)

    def test_bad_family(self):
        with pytest.raises(ValidationError):
            cf_ratio_check("cauchy", a1=2.0, a2=1.0)
        with pytest.raises(ValidationError):
            cf_ratio_check("student-t:2", a1=2.0, a2=1.0)
        with pytest.raises(ValidationError):
            cf_ratio_check("student-t:abc", a1=2.0, a2=1.0)

    def test_bad_grid(self):
        with pytest.raises(ValidationError):
            cf_ratio_check("gaussian", a1=2.0, a2=1.0, tau_grid=[1.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            cf_ratio_check("gaussian", a1=2.0, a2=1.0, tau_grid=[-1.0, 0.0])

    def test_eventually_decreasing_helper(self):
        assert _eventually_decreasing([5.0, 1.0, 0.5, 0.1])
        assert _eventually_decreasing([0.1, 5.0, 1.0, 0.5])
        assert not _eventually_decreasing([1.0, 0.5, 0.7, 0.9])


class TestLinearIndependence:
    def test_identical_components_are_dependent(self):
        theta = two_state_mixture(mu=(0.0, 0.0), gamma=(0.5, 0.5),
                                  sigma=(1.0, 1.0))
        grid = build_quadrature_grid(theta, w_probe=1.0)
        assert linear_independence_check(theta, 1.0, grid) <= 1e-8

    def test_benchmark_components_are_independent(self):
        theta = two_state_mixture()
        grid = build_quadrature_grid(theta, w_probe=1.0)
        assert linear_independence_check(theta, 1.0, grid) > 1e-3

    def test_wide_separation_gives_orthogonal_densities(self):
        theta = two_state_mixture(mu=(20.0, -20.0), gamma=(0.0, 0.0))
        grid = build_quadrature_grid(theta, w_probe=0.0, n=8001)
        lam = linear_independence_check(theta, 0.0, grid)
        # Gram approx diag(1/(2 sigma sqrt(pi))); smallest eigenvalue is the
        # density's own L2 norm
        assert lam == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-4)

    def test_gram_matches_gaussian_overlap_formula(self):
        theta = two_state_mixture(mu=(0.8, -0.4), gamma=(0.3, 0.9),
                                  sigma=(1.1, 0.7))
        w_probe = 0.6
        grid = build_quadrature_grid(theta, w_probe, n=16001)
        lam = linear_independence_check(theta, w_probe, grid)

        means = theta.mu_vec + theta.gamma_vec * w_probe
        sig = theta.sigma_vec

        def overlap(i, j):
            v = sig[i] ** 2 + sig[j] ** 2
            return math.exp(-(means[i] - means[j]) ** 2 / (2 * v)) / math.sqrt(
                2 * math.pi * v)

        gram = np.array([[overlap(i, j) for j in range(2)] for i in range(2)])
        want = np.linalg.eigvalsh(gram).min()
        assert lam == pytest.approx(want, rel=1e-6)

    def test_grid_requirements(self):
        theta = two_state_mixture()
        with pytest.raises(ValidationError):
            linear_independence_check(theta, 1.0, np.linspace(-40, 40, 21))
        with pytest.raises(ValidationError):
            linear_independence_check(theta, 1.0, np.linspace(-2, 2, 2001))
        bad = np.concatenate([np.linspace(-40, 0, 1000),
                              np.linspace(-10, 40, 1001)])
        with pytest.raises(ValidationError):
            linear_independence_check(theta, 1.0, bad)
