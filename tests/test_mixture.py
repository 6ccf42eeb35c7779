import math

import numpy as np
import pytest
from scipy.stats import norm

import mixregime
from mixregime import (ConfigurationError, MixtureParams, ModelSpec,
                       RegimeOutcome, Sample, ValidationError, decode,
                       decode_jacobian, encode, hessian, hmm_benchmark,
                       msar_benchmark, natural_vector, quasi_loglik, score,
                       score_contributions, simulate_hmm, simulate_msar)
from mixregime.mixture import (loglik_and_score_contributions, loglik_terms,
                               mixture_kernel, neg_loglik_and_score)

LOG_2PI = math.log(2 * math.pi)


def random_params(rng, d, form="hmm"):
    slope = rng.normal() if form == "msar" else None
    comps = []
    for _ in range(d):
        g = slope if slope is not None else rng.normal()
        comps.append(RegimeOutcome(mu=rng.normal(scale=2), gamma=g,
                                   sigma=math.exp(rng.normal(scale=0.4))))
    w = rng.dirichlet(np.full(d, 4.0))
    return MixtureParams(components=comps, weights=w)


def random_sample(rng, t_len):
    return Sample(y=rng.normal(size=t_len), w=rng.normal(size=t_len))


def component_logdensity(y: float, w: float, comp) -> float:
    """Log density of one observation under one component: quasi_loglik on a
    one-row sample with d = 1."""
    params = MixtureParams(components=[RegimeOutcome(*comp)],
                           weights=np.array([1.0]))
    return quasi_loglik(params, Sample(y=np.array([y]), w=np.array([w])),
                        ModelSpec(d=1))


class TestComponentLogdensity:
    def test_standard_normal_at_mode(self):
        assert component_logdensity(0.0, 0.0, (0.0, 0.0, 1.0)) == pytest.approx(
            -0.5 * LOG_2PI, abs=1e-12)

    def test_zero_residual_through_slope(self):
        assert component_logdensity(1.0, 2.0, (0.0, 0.5, 1.0)) == pytest.approx(
            -0.5 * LOG_2PI, abs=1e-12)

    def test_hand_evaluation_scale_two(self):
        want = -math.log(2.0) - 0.5 * LOG_2PI - 0.5
        assert component_logdensity(2.0, 0.0, (0.0, 0.0, 2.0)) == pytest.approx(
            want, abs=1e-12)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValidationError):
            component_logdensity(0.0, 0.0, (0.0, 0.0, 0.0))


class TestModelSpec:
    def test_free_dimension(self):
        assert ModelSpec(d=2, form="hmm").q == 7
        assert ModelSpec(d=2, form="msar").q == 6
        assert ModelSpec(d=1, form="hmm").q == 3
        assert ModelSpec(d=3, form="hmm").q == 11

    def test_bad_form_and_flags(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(d=2, form="arma")
        with pytest.raises(ConfigurationError):
            ModelSpec.from_json({"d": 2, "form": "hmm", "switching_flags":
                                 {"mu": False, "slope": False, "sigma": False}})
        with pytest.raises(ConfigurationError):  # the hmm pattern under msar
            ModelSpec.from_json({"d": 2, "form": "msar", "switching_flags":
                                 {"mu": True, "slope": True, "sigma": True}})
        assert ModelSpec.from_json({"d": 2, "form": "msar"}) == ModelSpec(
            d=2, form="msar")

    def test_msar_frame_conditions_on_first_observation(self):
        spec = ModelSpec(d=2, form="msar")
        sample = Sample(y=np.array([1.0, 2.0, 3.0]), w=np.zeros(3))
        y, x = spec.regression_frame(sample)
        assert np.array_equal(y, [2.0, 3.0])
        assert np.array_equal(x, [1.0, 2.0])
        with pytest.raises(ValidationError):
            spec.regression_frame(Sample(y=np.array([1.0]), w=np.array([0.0])))


class TestQuasiLoglik:
    def test_single_component_is_average_logdensity(self):
        rng = np.random.default_rng(1)
        sample = random_sample(rng, 60)
        comp = RegimeOutcome(mu=0.3, gamma=-0.7, sigma=1.4)
        params = MixtureParams(components=[comp], weights=np.array([1.0]))
        spec = ModelSpec(d=1, form="hmm")
        direct = np.mean([norm.logpdf(y, loc=comp.mu + comp.gamma * w,
                                      scale=comp.sigma)
                          for y, w in zip(sample.y, sample.w)])
        assert quasi_loglik(params, sample, spec) == pytest.approx(direct, abs=1e-12)

    def test_identical_components_collapse(self):
        rng = np.random.default_rng(2)
        sample = random_sample(rng, 80)
        comp = RegimeOutcome(mu=0.1, gamma=0.4, sigma=0.9)
        two = MixtureParams(components=[comp, RegimeOutcome(0.1, 0.4, 0.9)],
                            weights=np.array([0.3, 0.7]))
        one = MixtureParams(components=[comp], weights=np.array([1.0]))
        assert quasi_loglik(two, sample, ModelSpec(d=2)) == pytest.approx(
            quasi_loglik(one, sample, ModelSpec(d=1)), abs=1e-12)

    def test_truth_beats_shifted_truth_on_simulated_sample(self):
        dgp = hmm_benchmark()
        sample = simulate_hmm(dgp, T=3200, seed=(7, 7))
        spec = ModelSpec(d=2)
        truth = MixtureParams(components=dgp.outcomes,
                              weights=np.array([0.66, 0.34]))
        shifted = MixtureParams(
            components=[RegimeOutcome(2.0, 0.5, 1.0), dgp.outcomes[1]],
            weights=truth.weights.copy())
        assert quasi_loglik(truth, sample, spec) > quasi_loglik(shifted, sample, spec)

    def test_label_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(3)
        spec3 = ModelSpec(d=3)
        sample = random_sample(rng, 200)
        params = random_params(rng, 3)
        base = quasi_loglik(params, sample, spec3)
        for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]):
            assert quasi_loglik(params.permuted(perm), sample, spec3) == base

    def test_extreme_residuals_stay_finite(self):
        sample = Sample(y=np.array([100.0, -100.0]), w=np.zeros(2))
        params = MixtureParams(
            components=[RegimeOutcome(0, 0, 1), RegimeOutcome(0.5, 0, 1)],
            weights=np.array([0.5, 0.5]))
        val = quasi_loglik(params, sample, ModelSpec(d=2))
        assert np.isfinite(val)

    def test_empty_sample_rejected(self):
        params = MixtureParams(components=[RegimeOutcome(0, 0, 1)],
                               weights=np.array([1.0]))
        with pytest.raises(ValidationError):
            quasi_loglik(params, Sample(y=np.array([]), w=np.array([])),
                         ModelSpec(d=1))


class TestFreeVector:
    @pytest.mark.parametrize("form,d", [("hmm", 1), ("hmm", 2), ("hmm", 3),
                                        ("msar", 2), ("msar", 3)])
    def test_encode_decode_round_trip(self, form, d):
        rng = np.random.default_rng(10 + d)
        spec = ModelSpec(d=d, form=form)
        params = random_params(rng, d, form)
        back = decode(encode(params, spec), spec)
        np.testing.assert_allclose(back.mu_vec, params.mu_vec, atol=1e-12)
        np.testing.assert_allclose(back.gamma_vec, params.gamma_vec, atol=1e-12)
        np.testing.assert_allclose(back.sigma_vec, params.sigma_vec, rtol=1e-12)
        np.testing.assert_allclose(back.weights, params.weights, atol=1e-12)

    def test_decode_always_valid(self):
        rng = np.random.default_rng(11)
        spec = ModelSpec(d=3)
        for _ in range(50):
            free = rng.normal(scale=30, size=spec.q)
            params = decode(free, spec)
            params.validate()
            assert (params.weights > 0).all()
            assert abs(params.weights.sum() - 1.0) < 1e-12

    def test_sigma_clamped_at_decode(self):
        spec = ModelSpec(d=1)
        params = decode(np.array([0.0, 0.0, -100.0]), spec)
        assert params.sigma_vec[0] == pytest.approx(1e-6)
        params = decode(np.array([0.0, 0.0, 100.0]), spec)
        assert params.sigma_vec[0] == pytest.approx(1e6)

    def test_msar_encode_requires_shared_slope(self):
        spec = ModelSpec(d=2, form="msar")
        bad = MixtureParams(
            components=[RegimeOutcome(0, 0.5, 1), RegimeOutcome(1, 0.6, 1)],
            weights=np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            encode(bad, spec)

    def test_decode_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for spec in (ModelSpec(d=2), ModelSpec(d=3), ModelSpec(d=2, form="msar")):
            free = rng.normal(size=spec.q)
            jac = decode_jacobian(free, spec)
            h = 1e-6
            for i in range(spec.q):
                bump = np.zeros(spec.q)
                bump[i] = h
                hi = natural_vector(decode(free + bump, spec), spec)
                lo = natural_vector(decode(free - bump, spec), spec)
                np.testing.assert_allclose(jac[:, i], (hi - lo) / (2 * h),
                                           rtol=5e-5, atol=1e-8)


def finite_difference_gradient(free, sample, spec, h=1e-5):
    grad = np.empty(len(free))
    for i in range(len(free)):
        bump = np.zeros(len(free))
        bump[i] = h
        hi = quasi_loglik(decode(free + bump, spec), sample, spec)
        lo = quasi_loglik(decode(free - bump, spec), sample, spec)
        grad[i] = (hi - lo) / (2 * h)
    return grad


class TestScore:
    def test_matches_finite_differences_on_100_random_cases(self):
        rng = np.random.default_rng(13)
        cases = 0
        while cases < 100:
            d = int(rng.integers(1, 4))
            form = "hmm" if rng.random() < 0.5 else "msar"
            spec = ModelSpec(d=d, form=form)
            sample = random_sample(rng, 50)
            params = random_params(rng, d, form)
            free = encode(params, spec)
            g = score(free, sample, spec)
            g_fd = finite_difference_gradient(free, sample, spec)
            np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-7)
            cases += 1

    def test_column_means_equal_score(self):
        rng = np.random.default_rng(14)
        spec = ModelSpec(d=2)
        sample = random_sample(rng, 40)
        free = encode(random_params(rng, 2), spec)
        contrib = score_contributions(free, sample, spec)
        assert contrib.shape == (40, spec.q)
        np.testing.assert_array_equal(contrib.mean(axis=0),
                                      score(free, sample, spec))

    def test_single_row_equals_score(self):
        rng = np.random.default_rng(15)
        spec = ModelSpec(d=2)
        sample = random_sample(rng, 1)
        free = encode(random_params(rng, 2), spec)
        contrib = score_contributions(free, sample, spec)
        np.testing.assert_allclose(contrib[0], score(free, sample, spec),
                                   atol=1e-15)

    def test_single_component_rows_are_gaussian_scores(self):
        rng = np.random.default_rng(16)
        spec = ModelSpec(d=1)
        sample = random_sample(rng, 30)
        comp = RegimeOutcome(mu=0.2, gamma=-0.3, sigma=1.1)
        free = encode(MixtureParams([comp], np.array([1.0])), spec)
        contrib = score_contributions(free, sample, spec)
        r = (sample.y - comp.mu - comp.gamma * sample.w) / comp.sigma
        np.testing.assert_allclose(contrib[:, 0], r / comp.sigma, atol=1e-12)
        np.testing.assert_allclose(contrib[:, 1], r * sample.w / comp.sigma,
                                   atol=1e-12)
        np.testing.assert_allclose(contrib[:, 2], r ** 2 - 1.0, atol=1e-12)


class TestResponsibilities:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        sample = random_sample(rng, 25)
        _, resp, _ = mixture_kernel(random_params(rng, 3), sample.y, sample.w)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert (resp >= 0).all()


class TestKernel:
    def test_one_call_gives_loglik_terms_and_score_rows(self):
        rng = np.random.default_rng(21)
        for form in ("hmm", "msar"):
            spec = ModelSpec(d=3, form=form)
            sample = random_sample(rng, 30)
            params = random_params(rng, 3, form)
            free = encode(params, spec)
            terms, contrib = loglik_and_score_contributions(free, sample, spec)
            np.testing.assert_array_equal(
                terms, loglik_terms(decode(free, spec), sample, spec))
            np.testing.assert_array_equal(
                contrib, score_contributions(free, sample, spec))

    def test_underflowed_weight_rejected(self):
        # a BFGS step this far out must fail as loglik_terms does
        rng = np.random.default_rng(23)
        spec = ModelSpec(d=2)
        free = encode(random_params(rng, 2), spec)
        free[-1] = -800.0
        with pytest.raises(ValidationError, match="strictly positive"):
            loglik_and_score_contributions(free, random_sample(rng, 10), spec)


class TestObjective:
    @pytest.mark.parametrize("form", ["hmm", "msar"])
    def test_one_sample_is_quasi_loglik_and_score(self, form):
        rng = np.random.default_rng(27)
        spec = ModelSpec(d=2, form=form)
        sample = random_sample(rng, 40)
        params = random_params(rng, 2, form)
        free = encode(params, spec)
        neg_ll, neg_grad = neg_loglik_and_score(free, [sample], spec)
        assert neg_ll == -quasi_loglik(decode(free, spec), sample, spec)
        np.testing.assert_array_equal(neg_grad, -score(free, sample, spec))

    @pytest.mark.parametrize("form", ["hmm", "msar"])
    def test_samples_pool_by_row_count(self, form):
        rng = np.random.default_rng(29)
        spec = ModelSpec(d=2, form=form)
        samples = [random_sample(rng, 15), random_sample(rng, 60)]
        free = encode(random_params(rng, 2, form), spec)
        rows = np.array([len(spec.regression_frame(s)[0]) for s in samples])
        parts = [neg_loglik_and_score(free, [s], spec) for s in samples]
        neg_ll, neg_grad = neg_loglik_and_score(free, samples, spec)
        assert neg_ll == pytest.approx(
            rows @ [v for v, _ in parts] / rows.sum(), rel=1e-13)
        np.testing.assert_allclose(
            neg_grad, rows @ np.array([g for _, g in parts]) / rows.sum(),
            rtol=1e-12, atol=1e-15)

    def test_one_kernel_call_per_path(self, monkeypatch):
        from mixregime import mixture

        dgp = msar_benchmark()
        spec = ModelSpec(d=2, form="msar")
        paths = [simulate_msar(dgp, T=300, seed=(5, k)) for k in range(3)]
        truth = MixtureParams(
            components=[RegimeOutcome(c.mu, dgp.ar_coefficient, c.sigma)
                        for c in dgp.outcomes],
            weights=np.full(2, 0.5))
        calls = []
        kernel = mixture.mixture_kernel

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(mixture, "mixture_kernel", counted)
        neg_ll, neg_grad = neg_loglik_and_score(encode(truth, spec), paths,
                                                spec)
        assert len(calls) == len(paths)
        assert np.isfinite(neg_ll) and neg_grad.shape == (spec.q,)


def test_public_names_resolve_once():
    names = mixregime.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(mixregime, n)]
    assert not missing


class TestHessian:
    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(18)
        spec = ModelSpec(d=2)
        sample = random_sample(rng, 40)
        h_mat = hessian(encode(random_params(rng, 2), spec), sample, spec)
        assert np.max(np.abs(h_mat - h_mat.T)) == 0.0

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(19)
        spec = ModelSpec(d=1)
        sample = random_sample(rng, 500)
        y, x = sample.y, sample.w
        # exact least-squares fit: the stationary point of the d=1 model
        coef = np.linalg.lstsq(np.column_stack([np.ones_like(x), x]), y,
                               rcond=None)[0]
        resid = y - coef[0] - coef[1] * x
        sig = math.sqrt((resid ** 2).mean())
        free = np.array([coef[0], coef[1], math.log(sig)])
        h_mat = hessian(free, sample, spec)
        want = -np.array([
            [1.0 / sig ** 2, x.mean() / sig ** 2, 0.0],
            [x.mean() / sig ** 2, (x ** 2).mean() / sig ** 2, 0.0],
            [0.0, 0.0, 2.0],
        ])
        np.testing.assert_allclose(h_mat, want, rtol=1e-4, atol=1e-6)
