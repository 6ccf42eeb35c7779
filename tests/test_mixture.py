import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import mixregime
from mixregime import (ConfigurationError, MixtureParams, ModelSpec,
                       RegimeOutcome, Sample, ValidationError, decode,
                       decode_jacobian, encode, hessian, hmm_benchmark,
                       msar_benchmark, natural_vector, score_contributions,
                       simulate_hmm, simulate_msar)
from mixregime.mixture import (_BLOCK_ROWS, decode_arrays,
                               loglik_score_hessian, loglik_terms,
                               mixture_kernel, neg_loglik_and_score,
                               neg_loglik_score_hessian)

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
    """Log density of one observation under one component: loglik_terms of
    a one-row sample with d = 1."""
    params = MixtureParams(components=[RegimeOutcome(*comp)],
                           weights=np.array([1.0]))
    return loglik_terms(params, Sample(y=np.array([y]), w=np.array([w])),
                        ModelSpec(d=1))[0]


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
        # the form fixes which coefficients switch, and an experiment takes
        # its spec from the DGP: a spec block with switching flags is unknown
        obj = mixregime.ExperimentConfig(dgp=hmm_benchmark(), T=200,
                                         n_reps=1).to_json()
        obj["spec"] = {"d": 2, "form": "hmm", "switching_flags":
                       {"mu": False, "slope": False, "sigma": False}}
        with pytest.raises(ValidationError, match="unknown experiment key.*spec"):
            mixregime.ExperimentConfig.from_json(obj)

    @pytest.mark.parametrize("fields, message", [
        ({"d": True}, "d must be an int, got True"),
        ({"d": 2.5}, "d must be an int, got 2.5"),
        ({"d": "2"}, "d must be an int, got '2'"),
        ({"d": 2, "form": None}, "form must be a string, got None"),
    ], ids=["bool_d", "real_d", "string_d", "null_form"])
    def test_bad_type_is_validation_error(self, fields, message):
        with pytest.raises(ValidationError) as info:
            ModelSpec(**fields)
        assert str(info.value) == message

    def test_blocks_are_built_once_per_layout(self):
        # decode reads the layout on every evaluation
        assert ModelSpec(d=2, form="msar").blocks is ModelSpec(d=2, form="msar").blocks
        assert ModelSpec(d=2).blocks == (slice(0, 2), slice(2, 4), slice(4, 6),
                                         slice(6, None))
        assert ModelSpec(d=2, form="msar").blocks == (
            slice(0, 2), slice(2, 3), slice(3, 5), slice(5, None))

    def test_form_follows_the_dgp(self):
        # the switching AR exactly when the DGP sets ar_coefficient
        assert ModelSpec.for_dgp(hmm_benchmark()) == ModelSpec(d=2, form="hmm")
        assert ModelSpec.for_dgp(msar_benchmark()) == ModelSpec(d=2, form="msar")

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
        assert loglik_terms(params, sample, spec).mean() == pytest.approx(
            direct, abs=1e-12)

    def test_identical_components_collapse(self):
        rng = np.random.default_rng(2)
        sample = random_sample(rng, 80)
        comp = RegimeOutcome(mu=0.1, gamma=0.4, sigma=0.9)
        two = MixtureParams(components=[comp, RegimeOutcome(0.1, 0.4, 0.9)],
                            weights=np.array([0.3, 0.7]))
        one = MixtureParams(components=[comp], weights=np.array([1.0]))
        assert loglik_terms(two, sample, ModelSpec(d=2)).mean() == pytest.approx(
            loglik_terms(one, sample, ModelSpec(d=1)).mean(), abs=1e-12)

    def test_truth_beats_shifted_truth_on_simulated_sample(self):
        dgp = hmm_benchmark()
        sample = simulate_hmm(dgp, T=3200, seed=(7, 7))
        spec = ModelSpec(d=2)
        truth = MixtureParams(components=dgp.outcomes,
                              weights=np.array([0.66, 0.34]))
        shifted = MixtureParams(
            components=[RegimeOutcome(2.0, 0.5, 1.0), dgp.outcomes[1]],
            weights=truth.weights.copy())
        assert (loglik_terms(truth, sample, spec).mean()
                > loglik_terms(shifted, sample, spec).mean())

    def test_label_permutation_invariance_is_exact(self):
        # d = 2 reduces by max and min, d = 3 by a sort
        rng = np.random.default_rng(3)
        for d in (2, 3):
            spec = ModelSpec(d=d)
            sample = random_sample(rng, 200)
            params = random_params(rng, d)
            base = loglik_terms(params, sample, spec).mean()
            for perm in itertools.permutations(range(d)):
                assert loglik_terms(params.permuted(perm), sample,
                                    spec).mean() == base

    def test_extreme_residuals_stay_finite(self):
        sample = Sample(y=np.array([100.0, -100.0]), w=np.zeros(2))
        params = MixtureParams(
            components=[RegimeOutcome(0, 0, 1), RegimeOutcome(0.5, 0, 1)],
            weights=np.array([0.5, 0.5]))
        val = loglik_terms(params, sample, ModelSpec(d=2)).mean()
        assert np.isfinite(val)

    def test_empty_sample_rejected(self):
        params = MixtureParams(components=[RegimeOutcome(0, 0, 1)],
                               weights=np.array([1.0]))
        with pytest.raises(ValidationError):
            loglik_terms(params, Sample(y=np.array([]), w=np.array([])),
                         ModelSpec(d=1))


class TestFreeVector:
    @pytest.mark.parametrize("form,d", [("hmm", 1), ("hmm", 2), ("hmm", 3),
                                        ("msar", 2), ("msar", 3)])
    def test_encode_decode_round_trip(self, form, d):
        rng = np.random.default_rng(10 + d)
        spec = ModelSpec(d=d, form=form)
        params = random_params(rng, d, form)
        back = decode(encode(params, spec), spec)
        got, want = back.outcome_matrix, params.outcome_matrix
        np.testing.assert_allclose(got[:, 0], want[:, 0], atol=1e-12)
        np.testing.assert_allclose(got[:, 1], want[:, 1], atol=1e-12)
        np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=1e-12)
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
        assert params.outcome_matrix[0, 2] == pytest.approx(1e-6)
        params = decode(np.array([0.0, 0.0, 100.0]), spec)
        assert params.outcome_matrix[0, 2] == pytest.approx(1e6)

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
        hi = loglik_terms(decode(free + bump, spec), sample, spec).mean()
        lo = loglik_terms(decode(free - bump, spec), sample, spec).mean()
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
            g = -neg_loglik_and_score(free, [sample], spec)[1]
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
        # the objective sums the score without the rows: equal to rounding
        np.testing.assert_allclose(
            contrib.mean(axis=0), -neg_loglik_and_score(free, [sample], spec)[1],
            rtol=1e-12, atol=1e-15)

    def test_single_row_equals_score(self):
        rng = np.random.default_rng(15)
        spec = ModelSpec(d=2)
        sample = random_sample(rng, 1)
        free = encode(random_params(rng, 2), spec)
        contrib = score_contributions(free, sample, spec)
        np.testing.assert_allclose(contrib[0],
                                   -neg_loglik_and_score(free, [sample], spec)[1],
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
        params = random_params(rng, 3)
        _, resp, _ = mixture_kernel(*params.arrays(), sample.y, sample.w)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert (resp >= 0).all()


class TestKernel:
    def test_one_call_gives_loglik_terms_and_score_rows(self):
        # the fused pass's one kernel call sums the row forms
        rng = np.random.default_rng(21)
        for form in ("hmm", "msar"):
            spec = ModelSpec(d=3, form=form)
            sample = random_sample(rng, 30)
            params = random_params(rng, 3, form)
            free = encode(params, spec)
            terms = loglik_terms(decode(free, spec), sample, spec)
            contrib = score_contributions(free, sample, spec)
            y, x = spec.regression_frame(sample)
            assert (contrib.shape == (len(y), spec.q)
                    and contrib.flags.c_contiguous)
            loglik, score, _ = loglik_score_hessian(decode_arrays(free, spec),
                                                    y, x, spec)
            assert loglik == terms.sum()
            np.testing.assert_allclose(score, contrib.sum(axis=0),
                                       rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("fn", [score_contributions, hessian],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("coord, value, message", [
        (-1, -800.0, "weights must be strictly positive"),
        (0, np.nan, r"components\[0\]: RegimeOutcome fields must be finite"),
    ], ids=["underflowed-weight", "nan-mu"])
    def test_bad_decoded_point_rejected(self, fn, coord, value, message):
        # an optimizer step this far out must fail as loglik_terms does
        rng = np.random.default_rng(23)
        spec = ModelSpec(d=2)
        free = encode(random_params(rng, 2), spec)
        free[coord] = value
        with pytest.raises(ValidationError, match=message):
            fn(free, random_sample(rng, 10), spec)

    def test_core_builds_no_records(self, built_records):
        # the objective, the Hessian and the decode Jacobian work on the
        # arrays; only decode, at the API edge, builds a MixtureParams
        rng = np.random.default_rng(24)
        spec = ModelSpec(d=2, form="msar")
        free = encode(random_params(rng, 2, "msar"), spec)
        sample = random_sample(rng, 40)
        built_records.clear()
        neg_loglik_and_score(free, [sample], spec)
        hessian(free, sample, spec)
        decode_jacobian(free, spec)
        assert built_records == []
        decode(free, spec)
        assert sorted(built_records) == ["MixtureParams"] + ["RegimeOutcome"] * 2

    @staticmethod
    def sorted_kernel(mu, gamma, sigma, weights, y, x):
        """mixture_kernel with the log-sum-exp of every d taken in sorted order."""
        r = (y[:, None] - mu[None, :] - gamma[None, :] * x[:, None]) / sigma[None, :]
        a = (np.log(weights)[None, :] - np.log(sigma)[None, :]
             - 0.5 * LOG_2PI - 0.5 * r * r)
        srt = np.sort(a, axis=1)
        top = srt[:, -1]
        lse = top + np.log1p(np.exp(srt[:, :-1] - top[:, None]).sum(axis=1))
        return lse, np.exp(a - lse[:, None]), r

    @staticmethod
    def row_major(out):
        """A kernel result with its component-major residuals as (..., T, d)."""
        lse, resp, r = out
        return lse, resp, r.swapaxes(-1, -2)

    @pytest.mark.parametrize("form", ["hmm", "msar"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stacked_points_equal_single_calls_bit_for_bit(self, d, form):
        # d = 3 takes the sort and d = 1 sums an empty slice; each call also
        # has the bits of the row-major sorted reference
        rng = np.random.default_rng(31)
        sample = random_sample(rng, 200)
        points = [random_params(rng, d, form).arrays() for _ in range(4)]
        stacked = mixture_kernel(*map(np.stack, zip(*points)), sample.y,
                                 sample.w)
        lse, resp, r = stacked
        assert lse.shape == (4, 200) and resp.shape == (4, 200, d)
        assert r.shape == (4, d, 200)
        assert resp.flags.c_contiguous and r.flags.c_contiguous
        stacked = self.row_major(stacked)
        for s, point in enumerate(points):
            single = self.row_major(mixture_kernel(*point, sample.y, sample.w))
            reference = self.sorted_kernel(*point, sample.y, sample.w)
            for many, one, want in zip(stacked, single, reference):
                assert np.array_equal(many[s], one)
                assert np.array_equal(one, want)

    # (mu, sigma, y) per case; gamma is 0.4 and the weights are 0.3, 0.7
    # except in the tie, where both components are the same
    ADVERSARIAL = {
        # a0 == a1 on every row
        "tie": ((0.3, 0.3), (1.2, 1.2), np.linspace(-3.0, 3.0, 41)),
        # a0 - a1 sweeps from -1 past exp's subnormal range to an exact 0,
        # with a1 of order 1 so that no rounding of the sum hides a wrong bit
        "underflow-gap": ((0.0, 0.0), (1.0, 30.0), np.linspace(0.0, 45.0, 451)),
        # r * r just below the largest double
        "near-overflow": ((0.0, 1.0), (1.0, 1.0),
                          np.array([1e153, -1e153, 1.3e154, -1.3e154])),
        # r * r overflows in one column: a1 = -inf
        "one-minus-inf": ((0.0, 0.0), (1.0, 1e-300), np.array([1.0, -2.0])),
        # r * r overflows in both columns: lse is NaN
        "both-minus-inf": ((0.0, 1.0), (1.0, 1.0), np.array([1e200, -1e200])),
    }

    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_two_component_lse_matches_sorted_bits(self, case):
        mu, sigma, y = self.ADVERSARIAL[case]
        weights = (0.5, 0.5) if case == "tie" else (0.3, 0.7)
        args = [np.asarray(v, dtype=float) for v in (mu, (0.4, 0.4), sigma, weights)]
        x = np.linspace(-1.0, 1.0, len(y))
        with np.errstate(all="ignore"):
            got = self.row_major(mixture_kernel(*args, y, x))
            want = self.sorted_kernel(*args, y, x)
        for g, w in zip(got, want):
            nan = np.isnan(w)
            np.testing.assert_array_equal(np.isnan(g), nan)
            np.testing.assert_array_equal(g[~nan].view(np.int64),
                                          w[~nan].view(np.int64))
        if case == "both-minus-inf":
            assert np.isnan(got[0]).all()


class TestObjective:
    @pytest.mark.parametrize("form, d", [  # d = 1 has no logit block
        pytest.param(form, d, id=form if d == 2 else f"{form}-d{d}")
        for d in (2, 1, 3) for form in ("hmm", "msar")])
    def test_one_sample_is_quasi_loglik_and_score(self, form, d):
        rng = np.random.default_rng(27)
        spec = ModelSpec(d=d, form=form)
        sample = random_sample(rng, 40)
        params = random_params(rng, d, form)
        free = encode(params, spec)
        neg_ll, neg_grad = neg_loglik_and_score(free, [sample], spec)
        assert neg_ll == -loglik_terms(decode(free, spec), sample, spec).mean()
        np.testing.assert_allclose(
            neg_grad, -score_contributions(free, sample, spec).mean(axis=0),
            rtol=1e-12, atol=1e-15)

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

    @pytest.mark.parametrize("form", ["hmm", "msar"])
    def test_builds_no_row_matrix(self, form):
        # the score is summed from the kernel's outputs: the objective's
        # peak stays below the kernel's own plus one (T, q) array of doubles
        rng = np.random.default_rng(31)
        spec = ModelSpec(d=2, form=form)
        sample = random_sample(rng, 100_000)
        free = encode(random_params(rng, 2, form), spec)
        y, x = spec.regression_frame(sample)

        def peak_bytes(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        kernel = peak_bytes(mixture_kernel, *decode_arrays(free, spec), y, x)
        objective = peak_bytes(neg_loglik_and_score, free, [sample], spec)
        assert objective < kernel + 8 * len(y) * spec.q

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


class TestFusedPass:
    @pytest.mark.parametrize("form", ["hmm", "msar"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_objective_and_score_differences(self, d, form):
        # d = 1 has an empty logit block and d = 3 takes the kernel's sort;
        # three stacked points, each slice with the bits of its own call
        rng = np.random.default_rng(37)
        spec = ModelSpec(d=d, form=form)
        sample = random_sample(rng, 60)
        y, x = spec.regression_frame(sample)
        free = rng.normal(size=(3, spec.q)) * 0.7
        stacked = loglik_score_hessian(decode_arrays(free, spec), y, x, spec)
        assert [a.shape for a in stacked] == [(3,), (3, spec.q),
                                              (3, spec.q, spec.q)]
        for s, point in enumerate(free):
            single = loglik_score_hessian(decode_arrays(point, spec), y, x,
                                          spec)
            for many, one in zip(stacked, single):
                assert np.array_equal(many[s], one)
            loglik, score, hess = (a / len(y) for a in single)
            neg_ll, neg_grad = neg_loglik_and_score(point, [sample], spec)
            assert -loglik == neg_ll
            np.testing.assert_allclose(score, -neg_grad, rtol=1e-12,
                                       atol=1e-15)
            h_fd = np.empty((spec.q, spec.q))
            for i in range(spec.q):
                bump = np.zeros(spec.q)
                bump[i] = 1e-5
                h_fd[:, i] = (
                    neg_loglik_and_score(point - bump, [sample], spec)[1]
                    - neg_loglik_and_score(point + bump, [sample], spec)[1]
                ) / 2e-5
            assert (np.abs(hess - h_fd)
                    <= 1e-6 * np.maximum(np.abs(h_fd), 1.0)).all()


class TestPooledPass:
    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("form", ["hmm", "msar"])
    def test_holds_one_row_block_at_a_time(self, form):
        # a frame of four and a half row blocks: the pass peaks at one
        # block's fused pass, where summing the frame in one call would take
        # four and a half times that
        rng = np.random.default_rng(41)
        spec = ModelSpec(d=2, form=form)
        n_rows = 4 * _BLOCK_ROWS + _BLOCK_ROWS // 2
        y, x = rng.normal(size=n_rows), rng.normal(size=n_rows)
        free = encode(random_params(rng, 2, form), spec)
        block = self.peak_bytes(loglik_score_hessian,
                                decode_arrays(free, spec), y[:_BLOCK_ROWS],
                                x[:_BLOCK_ROWS], spec)
        pooled = self.peak_bytes(neg_loglik_score_hessian, free, [(y, x)],
                                 spec)
        assert pooled <= 1.5 * block


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
        np.testing.assert_allclose(h_mat, want, rtol=1e-10, atol=1e-12)

    def test_matches_finite_differences_on_100_random_cases(self):
        # drawn as ACCEPTANCE 7 draws its score cases
        rng = np.random.default_rng(20)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            form = "hmm" if rng.random() < 0.5 else "msar"
            spec = ModelSpec(d=d, form=form)
            sample = random_sample(rng, 60)
            free = rng.normal(size=spec.q) * 0.7
            h_fd = np.empty((spec.q, spec.q))
            for i in range(spec.q):
                bump = np.zeros(spec.q)
                bump[i] = 1e-5
                h_fd[:, i] = (neg_loglik_and_score(free - bump, [sample], spec)[1]
                              - neg_loglik_and_score(free + bump, [sample], spec)[1]
                              ) / 2e-5
            h_mat = hessian(free, sample, spec)
            assert (np.abs(h_mat - h_fd)
                    <= 1e-6 * np.maximum(np.abs(h_fd), 1.0)).all(), (d, form)

    def test_matches_richardson_differences_at_an_ill_conditioned_winner(self):
        # the msar_rho0_T1600 winner of replication 75 (weight 0.017, sigma
        # ratio 13.9), on that replication's sample; a plain central
        # difference is off here by about 2e-5 of the largest entry
        cfg = mixregime.load_experiment_config(
            Path(__file__).resolve().parent.parent / "configs"
            / "msar_rho0_T1600.json")
        spec = cfg.spec
        sample = simulate_msar(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                               seed=(cfg.master_seed, 75, 0))
        free = np.array([-1.9667310305553818, 0.09545527259857514,
                         0.9717865298118161, -2.3703193198336057,
                         0.2593068647985998, -4.063469143987246])
        h_mat = hessian(free, sample, spec)
        assert np.linalg.cond(h_mat) > 1e4

        def central(rel):
            steps = rel * np.maximum(np.abs(free), 1.0)
            cols = []
            for i, h in enumerate(steps):
                bump = np.zeros(spec.q)
                bump[i] = h
                cols.append((neg_loglik_and_score(free - bump, [sample], spec)[1]
                             - neg_loglik_and_score(free + bump, [sample], spec)[1]
                             ) / (2.0 * h))
            return np.column_stack(cols)

        richardson = (4.0 * central(5e-5) - central(1e-4)) / 3.0
        assert (np.abs(h_mat - richardson).max()
                <= 1e-8 * np.abs(h_mat).max())

    def test_row_blocks_sum_every_row_once(self):
        # 140,000 rows span three row blocks; the Hessian is a row average,
        # so it equals the row-weighted average over pieces cut elsewhere
        rng = np.random.default_rng(21)
        spec = ModelSpec(d=2, form="msar")
        y = np.empty(140_001)
        y[0] = 0.0
        for t, e in enumerate(rng.normal(size=140_000), start=1):
            y[t] = 0.6 * y[t - 1] + e
        sample = Sample(y=y, w=np.zeros_like(y))
        free = encode(random_params(rng, 2, "msar"), spec)
        cuts = [0, 50_000, 110_000, 140_000]  # rows of the regression frame
        pieces = sum((hi - lo) * hessian(free, Sample(y=y[lo:hi + 1],
                                                      w=np.zeros(hi + 1 - lo)),
                                         spec)
                     for lo, hi in zip(cuts[:-1], cuts[1:]))
        np.testing.assert_allclose(hessian(free, sample, spec),
                                   pieces / 140_000, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("mu, sigma, message", [
    (math.nan, 1.0, "[1]: RegimeOutcome fields must be finite"),
    (0.0, -1.0, "[1]: sigma must be > 0, got -1.0"),
])
def test_dgp_outcomes_and_components_share_one_rule(mu, sigma, message):
    dgp = hmm_benchmark()
    dgp.outcomes[1] = RegimeOutcome(mu, 0.5, sigma)
    point = MixtureParams(components=dgp.outcomes, weights=np.array([0.5, 0.5]))
    with pytest.raises(ValidationError) as info:
        point.validate()
    assert dgp.violations() == ["outcomes" + message]
    assert info.value.violations == ["components" + message]
