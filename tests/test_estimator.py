import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from mixregime import (EstimationError, EstimatorConfig, MixtureParams,
                       ModelSpec, RegimeOutcome, Sample, ValidationError,
                       align_permutation, hmm_benchmark, qml_estimate,
                       simulate_hmm)
from mixregime.dgp import seed_key
from mixregime.estimator import _em_runs, _m_step, _moment_rows, _random_init
from mixregime.mixture import encode_arrays, loglik_terms, neg_loglik_and_score


def uniform_weights(d):
    return np.full(d, 1.0 / d)


def point(*outcomes, weights=None):
    """The EM point (mu, gamma, sigma, weights) with one (mu, gamma, sigma)
    row per component, weighted uniformly unless `weights` is given."""
    mu, gamma, sigma = np.array(outcomes, dtype=float).T
    if weights is None:
        weights = uniform_weights(len(outcomes))
    return mu, gamma, sigma, np.asarray(weights, dtype=float)


class TestEmSingleComponent:
    def test_reduces_to_least_squares(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=400)
        y = 0.7 + 1.3 * x + rng.normal(size=400) * 0.8
        sample = Sample(y=y, w=x)
        spec = ModelSpec(d=1, form="hmm")
        y, x = spec.regression_frame(sample)
        run = _em_runs(y, x, spec, [point((0.0, 0.0, 2.0))], EstimatorConfig())[0]
        assert not run.degenerate
        mu, gamma, sigma, weights = run.point
        design = np.column_stack([np.ones_like(x), x])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ coef
        assert mu[0] == pytest.approx(coef[0], abs=1e-10)
        assert gamma[0] == pytest.approx(coef[1], abs=1e-10)
        assert sigma[0] == pytest.approx(math.sqrt((resid ** 2).mean()),
                                         abs=1e-10)
        assert weights[0] == pytest.approx(1.0, abs=1e-12)


class TestEmBehaviour:
    def test_monotone_loglik_from_rough_start(self, hmm_sample, hmm_spec):
        y, x = hmm_spec.regression_frame(hmm_sample)
        init = point((0.5, 0.1, 2.0), (-0.5, 0.9, 2.0))
        run = _em_runs(y, x, hmm_spec, [init], EstimatorConfig())[0]
        trace = np.asarray(run.trace)
        assert len(trace) >= 2
        assert (np.diff(trace) >= -1e-10).all()

    def test_near_optimum_moves_little(self, hmm_sample, hmm_spec):
        dgp = hmm_benchmark()
        y, x = hmm_spec.regression_frame(hmm_sample)
        init = point(*[(c.mu, c.gamma, c.sigma) for c in dgp.outcomes],
                     weights=[0.66, 0.34])
        run = _em_runs(y, x, hmm_spec, [init], EstimatorConfig())[0]
        trace = np.asarray(run.trace)
        assert trace[-1] - trace[0] < 0.01
        assert (np.diff(trace) >= -1e-10).all()

    @staticmethod
    def wide_separation():
        """Two groups 40 apart with sd 0.5, and a start between them."""
        rng = np.random.default_rng(21)
        n = 400
        labels = rng.random(n) < 0.5
        y = np.where(labels, 20.0, -20.0) + rng.normal(size=n) * 0.5
        sample = Sample(y=y, w=rng.normal(size=n) * 0.1)
        return sample, labels, point((10.0, 0.0, 5.0), (-10.0, 0.0, 5.0))

    def test_wide_separation_resolves_in_two_iterations(self):
        sample, labels, init = self.wide_separation()
        spec = ModelSpec(d=2, form="hmm")
        cfg = EstimatorConfig(em_max_iter=2)
        y2, x2 = spec.regression_frame(sample)
        run = _em_runs(y2, x2, spec, [init], cfg)[0]
        mus = sorted(run.point[0])

        def group_intercept(mask):
            design = np.column_stack([np.ones(mask.sum()), sample.w[mask]])
            return np.linalg.lstsq(design, sample.y[mask], rcond=None)[0][0]

        assert mus[0] == pytest.approx(group_intercept(~labels), abs=1e-6)
        assert mus[1] == pytest.approx(group_intercept(labels), abs=1e-6)

    def test_stop_at_the_cap_is_noted(self):
        sample, _, init = self.wide_separation()
        spec = ModelSpec(d=2, form="hmm")
        y, x = spec.regression_frame(sample)
        capped = _em_runs(y, x, spec, [init], EstimatorConfig(em_max_iter=2))[0]
        assert capped.n_iter == 2
        gain = capped.trace[1] - capped.trace[0]
        assert f"em stopped at em_max_iter = 2 (last gain {gain:.1e})" in capped.notes
        free = _em_runs(y, x, spec, [init], EstimatorConfig())[0]
        assert free.n_iter < EstimatorConfig().em_max_iter
        assert not any(n.startswith("em stopped") for n in free.notes)

    def test_singular_equations_abandon_the_fit(self):
        # constant data makes the weighted normal equations singular for any
        # responsibility split
        sample = Sample(y=np.full(120, 3.0), w=np.full(120, 2.0))
        spec = ModelSpec(d=2, form="hmm")
        init = point((0.0, 0.0, 1.0), (1.0, 0.0, 1.0))
        y, x = spec.regression_frame(sample)
        run = _em_runs(y, x, spec, [init], EstimatorConfig())[0]
        assert run.degenerate
        assert run.notes == ["singular weighted normal equations; fit abandoned"]

    def test_collapsed_component_abandons_the_start(self):
        # standard-normal data give a component at mu = 1e3 no responsibility
        rng = np.random.default_rng(24)
        sample = Sample(y=rng.normal(size=400), w=rng.normal(size=400))
        spec = ModelSpec(d=2, form="hmm")
        init = point((0.0, 0.0, 1.0), (1e3, 0.0, 1.0))
        y, x = spec.regression_frame(sample)
        run = _em_runs(y, x, spec, [init], EstimatorConfig())[0]
        assert run.degenerate
        assert run.n_iter == 0
        assert run.notes == ["component(s) [1] collapsed; fit abandoned"]

    def test_a_start_does_not_depend_on_the_others(self, hmm_sample, hmm_spec):
        # beside it in the batch: a start that collapses at once and a rough
        # start that the cap of 60 stops; this one converges after 46
        dgp = hmm_benchmark()
        y, x = hmm_spec.regression_frame(hmm_sample)
        init = point(*[(c.mu, c.gamma, c.sigma) for c in dgp.outcomes],
                     weights=[0.66, 0.34])
        rough = point((0.5, 0.1, 2.0), (-0.5, 0.9, 2.0))
        collapsing = point((0.0, 0.0, 1.0), (1e3, 0.0, 1.0))
        cfg = EstimatorConfig(em_max_iter=60)
        alone = _em_runs(y, x, hmm_spec, [init], cfg)[0]
        capped, batched, dropped = _em_runs(y, x, hmm_spec,
                                            [rough, init, collapsing], cfg)
        assert alone.n_iter < 60 and not alone.notes
        assert capped.notes == [
            f"em stopped at em_max_iter = 60 (last gain "
            f"{capped.trace[-2] - capped.trace[-3]:.1e})"]
        assert dropped.degenerate and dropped.n_iter == 0
        for got, want in zip(batched.point, alone.point):
            assert np.array_equal(got, want)
        assert batched.trace == alone.trace
        assert (batched.loglik, batched.n_iter, batched.notes,
                batched.degenerate) == (alone.loglik, alone.n_iter,
                                        alone.notes, alone.degenerate)

    @pytest.mark.parametrize("em_max_iter", [3, 500])
    def test_one_kernel_call_per_iteration(self, monkeypatch, hmm_sample,
                                           hmm_spec, em_max_iter):
        # the starts run in lock step: one kernel call per iteration serves
        # every running start, and the evaluation that stops a start, at
        # convergence or at the cap, also gives its loglik
        from mixregime import estimator

        kernel, em_runs = estimator.mixture_kernel, estimator._em_runs
        calls, runs = [], []

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        def recorded(*args):
            runs.extend(em_runs(*args))
            return runs

        monkeypatch.setattr(estimator, "mixture_kernel", counted)
        monkeypatch.setattr(estimator, "_em_runs", recorded)
        qml_estimate(hmm_sample, hmm_spec,
                     EstimatorConfig(n_starts=4, em_max_iter=em_max_iter),
                     seed=7)
        assert len(runs) == 4
        assert len(calls) == max(run.n_iter for run in runs) + 1
        for run in runs:
            assert len(run.trace) == run.n_iter + 1
            assert run.loglik == run.trace[-1]
        # both ways out: every start stops at a cap of 3, some converge by 500
        assert any(r.n_iter < em_max_iter for r in runs) == (em_max_iter == 500)


class TestMStep:
    """One M-step against weighted least squares solved by np.linalg.lstsq."""

    @staticmethod
    def draw(d, form, t_len=300):
        rng = np.random.default_rng(10 * d)
        x = rng.normal(size=t_len)
        y = 1.5 + 0.8 * x + rng.normal(size=t_len)
        resp = rng.dirichlet(np.ones(d), size=t_len)
        return y, x, resp, 0.5 + 0.4 * np.arange(d)  # the incoming sigmas

    @staticmethod
    def m_step(resp, y, x, spec, sigma):
        """_m_step as EM calls it on one start, from the incoming sigmas;
        ((mu, gamma, sigma, weights), floor_hit), or None when singular."""
        rows = _moment_rows(y, x)
        keep, point, floor_hit = _m_step((rows @ resp)[None], resp[None],
                                         rows, spec, sigma[None])
        if not keep[0]:
            return None
        return tuple(block[0] for block in point), floor_hit[0]

    @pytest.mark.parametrize("form", ["hmm", "msar"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_weighted_least_squares(self, d, form):
        y, x, resp, sigma_in = self.draw(d, form)
        out = self.m_step(resp, y, x, ModelSpec(d=d, form=form), sigma_in)
        assert out is not None
        (got_mu, got_gamma, got_sigma, got_weights), floor_hit = out
        assert not floor_hit
        if form == "hmm":
            coef = np.empty((d, 2))
            for s in range(d):
                sw = np.sqrt(resp[:, s])
                design = np.column_stack([sw, sw * x])
                coef[s] = np.linalg.lstsq(design, sw * y, rcond=None)[0]
            mu, gamma = coef[:, 0], coef[:, 1]
        else:
            # stacked (t, s) rows: component dummies plus one shared x column,
            # weighted by r_s / sigma_s^2 with the incoming sigmas
            sw = np.sqrt(resp / sigma_in ** 2).T.ravel()
            dummies = np.repeat(np.eye(d), len(y), axis=0)
            design = np.column_stack([dummies, np.tile(x, d)]) * sw[:, None]
            coef = np.linalg.lstsq(design, np.tile(y, d) * sw, rcond=None)[0]
            mu, gamma = coef[:d], np.full(d, coef[d])
        resid = y[:, None] - mu[None, :] - gamma[None, :] * x[:, None]
        sigma = np.sqrt((resp * resid ** 2).sum(axis=0) / resp.sum(axis=0))
        np.testing.assert_allclose(got_mu, mu, rtol=1e-10)
        np.testing.assert_allclose(got_gamma, gamma, rtol=1e-10)
        np.testing.assert_allclose(got_sigma, sigma, rtol=1e-10)
        np.testing.assert_allclose(got_weights, resp.mean(axis=0), rtol=1e-10)

    @pytest.mark.parametrize("form", ["hmm", "msar"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constant_regressor_is_singular(self, d, form):
        y, x, resp, sigma_in = self.draw(d, form)
        for value in (0.3, 1.1, 2.0, 123.456):
            assert self.m_step(resp, y, np.full_like(x, value),
                               ModelSpec(d=d, form=form), sigma_in) is None


class TestQmlEstimate:
    def test_benchmark_recovery(self):
        dgp = hmm_benchmark()
        sample = simulate_hmm(dgp, T=3200, seed=(40, 0))
        spec = ModelSpec(d=2, form="hmm")
        res = qml_estimate(sample, spec, seed=9)
        est = res.theta_hat
        # components come back sorted by mu, so index 1 is the high regime
        assert est.components[1].mu == pytest.approx(1.0, abs=0.15)
        assert est.components[0].mu == pytest.approx(-1.0, abs=0.15)
        assert est.components[1].gamma == pytest.approx(0.5, abs=0.15)
        assert est.components[0].gamma == pytest.approx(1.0, abs=0.15)
        assert res.converged

    def test_single_component_matches_pooled_fit(self, hmm_sample):
        spec1 = ModelSpec(d=1, form="hmm")
        res = qml_estimate(hmm_sample, spec1, seed=2)
        y, x = spec1.regression_frame(hmm_sample)
        design = np.column_stack([np.ones_like(x), x])
        coef = np.linalg.lstsq(design, y, rcond=None)[0]
        comp = res.theta_hat.components[0]
        assert comp.mu == pytest.approx(coef[0], abs=1e-6)
        assert comp.gamma == pytest.approx(coef[1], abs=1e-6)

    def test_two_components_beat_one(self, hmm_sample, fast_cfg):
        res1 = qml_estimate(hmm_sample, ModelSpec(d=1), fast_cfg, seed=7)
        res2 = qml_estimate(hmm_sample, ModelSpec(d=2), fast_cfg, seed=7)
        assert res2.loglik > res1.loglik

    def test_msar_fit_recovers_persistence(self, msar_sample, fast_cfg):
        spec = ModelSpec(d=2, form="msar")
        res = qml_estimate(msar_sample, spec, fast_cfg, seed=7)
        phi = res.theta_hat.components[0].gamma
        assert res.theta_hat.components[1].gamma == phi
        assert 0.85 < phi < 1.0
        assert res.converged

    def test_refinement_never_loses_ground(self, hmm_sample, hmm_spec, fast_cfg):
        res = qml_estimate(hmm_sample, hmm_spec, fast_cfg, seed=7)
        y, x = hmm_spec.regression_frame(hmm_sample)
        best_em = -np.inf
        for start in range(fast_cfg.n_starts):
            rng = np.random.default_rng(seed_key(7) + (start,))
            init = _random_init(y, x, hmm_spec, rng)
            run = _em_runs(y, x, hmm_spec, [init], fast_cfg)[0]
            if not run.degenerate:
                best_em = max(best_em, run.loglik)
        assert res.loglik >= best_em - 1e-12

    def test_deterministic_given_seed(self, hmm_sample, hmm_spec, fast_cfg):
        a = qml_estimate(hmm_sample, hmm_spec, fast_cfg, seed=7)
        b = qml_estimate(hmm_sample, hmm_spec, fast_cfg, seed=7)
        assert a.loglik == b.loglik
        np.testing.assert_array_equal(a.theta_hat.outcome_matrix[:, 0],
                                      b.theta_hat.outcome_matrix[:, 0])
        np.testing.assert_array_equal(a.theta_hat.weights, b.theta_hat.weights)
        assert a.start_index == b.start_index

    def test_row_order_of_sample_irrelevant(self, hmm_spec, fast_cfg):
        # the mixture likelihood is exchangeable in t, so shuffling rows moves
        # nothing but floating-point summation order
        rng = np.random.default_rng(22)
        dgp = hmm_benchmark()
        sample = simulate_hmm(dgp, T=800, seed=(41, 0))
        perm = rng.permutation(sample.y.size)
        shuffled = Sample(y=sample.y[perm], w=sample.w[perm])
        res_a = qml_estimate(sample, hmm_spec, fast_cfg, seed=7)
        res_b = qml_estimate(shuffled, hmm_spec, fast_cfg, seed=7)
        assert res_a.loglik == pytest.approx(res_b.loglik, abs=1e-6)
        np.testing.assert_allclose(res_a.theta_hat.outcome_matrix[:, 0],
                                   res_b.theta_hat.outcome_matrix[:, 0],
                                   atol=1e-4)

    def test_sample_too_short_rejected(self):
        spec = ModelSpec(d=2, form="hmm")
        sample = Sample(y=np.zeros(5), w=np.zeros(5))
        with pytest.raises(ValidationError):
            qml_estimate(sample, spec, seed=0)

    def test_one_kernel_call_per_bfgs_evaluation(self, monkeypatch, msar_sample,
                                                 fast_cfg):
        # value and gradient of a BFGS step come from one density matrix
        from mixregime import estimator, mixture

        calls = []
        kernel = mixture.mixture_kernel

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(mixture, "mixture_kernel", counted)
        monkeypatch.setattr(estimator, "mixture_kernel", counted)
        results = []
        minimize = estimator.minimize

        def recorded(*args, **kwargs):
            before = len(calls)
            res = minimize(*args, **kwargs)
            results.append((res, len(calls) - before, len(calls)))
            return res

        monkeypatch.setattr(estimator, "minimize", recorded)
        qml_estimate(msar_sample, ModelSpec(d=2, form="msar"), fast_cfg, seed=7)
        assert len(results) > 1  # one BFGS run per usable start
        for res, during, _ in results:
            assert res.nfev > 1
            assert during == res.nfev
        assert len(calls) == results[-1][2]  # the optimum is read from the result

    def test_records_are_built_only_at_the_api_edge(self, built_records,
                                                    msar_sample, msar_spec,
                                                    fast_cfg):
        # EM starts and BFGS evaluations work on the four arrays; the winning
        # point is decoded once and sorted by mu once
        res = qml_estimate(msar_sample, msar_spec, fast_cfg, seed=7)
        assert res.n_iterations["qn"] > 0
        assert sorted(built_records) == ["MixtureParams"] * 2 + ["RegimeOutcome"] * 2

    def test_loglik_is_the_best_polished_start(self, msar_sample, msar_spec,
                                               fast_cfg):
        res = qml_estimate(msar_sample, msar_spec, fast_cfg, seed=7)
        y, x = msar_spec.regression_frame(msar_sample)
        polished = {}
        for start in range(fast_cfg.n_starts):
            rng = np.random.default_rng(seed_key(7) + (start,))
            init = _random_init(y, x, msar_spec, rng)
            run = _em_runs(y, x, msar_spec, [init], fast_cfg)[0]
            if not run.degenerate:
                bfgs = minimize(neg_loglik_and_score,
                                encode_arrays(*run.point, msar_spec),
                                args=([msar_sample], msar_spec), jac=True,
                                method="BFGS",
                                options={"maxiter": fast_cfg.qn_max_iter,
                                         "gtol": fast_cfg.qn_grad_tol})
                polished[start] = -bfgs.fun
        assert len(polished) > 1
        assert res.loglik == max(polished.values())
        assert res.start_index == max(polished, key=polished.get)

    def test_collapsed_start_is_dropped(self, monkeypatch, hmm_sample,
                                        hmm_spec, fast_cfg):
        # start 0 begins with component 1 far from the data; BFGS polishes
        # only the other starts, and one of them carries the estimate
        from mixregime import estimator

        random_init, minimize = estimator._random_init, estimator.minimize
        inits, polished = [], []

        def far_start_zero(*args):
            init = random_init(*args)
            if not inits:
                mu = init[0].copy()
                mu[1] = 1e3
                init = (mu, *init[1:])
            inits.append(init)
            return init

        def recorded(*args, **kwargs):
            polished.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(estimator, "_random_init", far_start_zero)
        monkeypatch.setattr(estimator, "minimize", recorded)
        res = qml_estimate(hmm_sample, hmm_spec, fast_cfg, seed=7)
        assert "start 0: component(s) [1] collapsed; fit abandoned" in res.notes
        assert len(polished) == fast_cfg.n_starts - 1
        assert res.start_index != 0
        assert (np.isfinite(res.loglik)
                and np.isfinite(res.theta_hat.outcome_matrix[:, 0]).all())

    def test_loglik_is_read_from_bfgs(self, msar_sample, fast_cfg):
        spec = ModelSpec(d=2, form="msar")
        res = qml_estimate(msar_sample, spec, fast_cfg, seed=7)
        assert res.loglik == loglik_terms(res.theta_hat, msar_sample, spec).mean()

    def test_bfgs_failure_is_noted(self, msar_sample):
        cfg = EstimatorConfig(n_starts=2, qn_max_iter=1)
        res = qml_estimate(msar_sample, ModelSpec(d=2, form="msar"), cfg, seed=7)
        assert not res.converged
        assert any(note.startswith("bfgs: ") for note in res.notes), res.notes

    def test_floor_hit_by_bfgs_is_noted(self, floor_fit, msar_sample, fast_cfg):
        _, _, res = floor_fit
        assert "sigma floor reached" in res.notes
        ordinary = qml_estimate(msar_sample, ModelSpec(d=2, form="msar"),
                                fast_cfg, seed=7)
        assert "sigma floor reached" not in ordinary.notes

    def test_fit_on_the_sigma_floor_is_degenerate(self, floor_fit, msar_sample,
                                                  fast_cfg):
        _, _, res = floor_fit
        assert res.degenerate
        assert res.to_json()["degenerate"] is True
        ordinary = qml_estimate(msar_sample, ModelSpec(d=2, form="msar"),
                                fast_cfg, seed=7)
        assert not ordinary.degenerate

    def test_all_starts_degenerate_is_estimation_error(self):
        sample = Sample(y=np.full(80, 1.0), w=np.full(80, 1.0))
        with pytest.raises(EstimationError):
            qml_estimate(sample, ModelSpec(d=2))


class TestEstimatorConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            EstimatorConfig(n_starts=0).validate()
        with pytest.raises(ValidationError):
            EstimatorConfig(em_tol=-1.0).validate()
        with pytest.raises(ValidationError, match="em_max_iter must be >= 1"):
            EstimatorConfig(em_max_iter=0).validate()
        with pytest.raises(ValidationError, match="qn_max_iter must be >= 0"):
            EstimatorConfig(qn_max_iter=-1).validate()
        EstimatorConfig(qn_max_iter=0).validate()  # EM only, no BFGS iteration

    @pytest.mark.parametrize("name", ["em_tol", "qn_grad_tol"])
    def test_tolerances_must_be_finite(self, name):
        # an infinite tolerance would stop every start at once, converged
        with pytest.raises(ValidationError,
                           match=f"{name} must be a real number, got inf"):
            EstimatorConfig(**{name: math.inf}).validate()

    def test_json_round_trip(self):
        cfg = EstimatorConfig(n_starts=5, em_tol=1e-8)
        back = EstimatorConfig.from_json(cfg.to_json())
        assert back == cfg

    @pytest.mark.parametrize("key, value", [
        ("n_starts", 2.5), ("n_starts", True), ("n_starts", "8"),
        ("em_max_iter", 10.5), ("qn_max_iter", None), ("em_tol", "1e-9"),
        ("qn_grad_tol", False),
    ])
    def test_values_are_type_checked(self, key, value):
        # counts must be ints and tolerances real numbers; bools are neither
        with pytest.raises(ValidationError, match=key):
            EstimatorConfig.from_json({key: value}).validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="n_start"):
            EstimatorConfig.from_json({"n_start": 1})


class TestAlignPermutation:
    def make(self, mus, gammas=None, sigmas=None):
        gammas = gammas or [0.0] * len(mus)
        sigmas = sigmas or [1.0] * len(mus)
        comps = [RegimeOutcome(m, g, s)
                 for m, g, s in zip(mus, gammas, sigmas)]
        return MixtureParams(components=comps,
                             weights=uniform_weights(len(mus)))

    def test_identity(self):
        ref = self.make([1.0, -1.0])
        aligned = align_permutation(ref, ref)
        assert [c.mu for c in aligned.components] == [1.0, -1.0]

    def test_swap(self):
        est = self.make([-1.0, 1.0])
        ref = self.make([1.0, -1.0])
        aligned = align_permutation(est, ref)
        assert aligned.components[0].mu == 1.0
        assert aligned.components[1].mu == -1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_brute_force(self, d):
        rng = np.random.default_rng(23 + d)

        def rand_params():
            return self.make(rng.normal(size=d).tolist(),
                             rng.normal(size=d).tolist(),
                             np.exp(0.3 * rng.normal(size=d)).tolist())

        def stack(p):
            return p.outcome_matrix

        for _ in range(20):
            est, ref = rand_params(), rand_params()
            best = min(
                ((stack(est)[list(perm)] - stack(ref)) ** 2).sum()
                for perm in itertools.permutations(range(d)))
            aligned = align_permutation(est, ref)
            got = ((stack(aligned) - stack(ref)) ** 2).sum()
            assert got == pytest.approx(best, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            align_permutation(self.make([0.0, 1.0]), self.make([0.0]))


class TestMsarEstimator:
    def test_shared_slope_enforced_through_em(self, msar_sample):
        spec = ModelSpec(d=2, form="msar")
        init = point((0.5, 0.8, 1.5), (-0.5, 0.8, 1.5))
        y, x = spec.regression_frame(msar_sample)
        run = _em_runs(y, x, spec, [init], EstimatorConfig())[0]
        assert not run.degenerate
        gam = run.point[1]
        assert gam[0] == gam[1]

    def test_lagged_term_carries_the_fit(self, msar_sample, fast_cfg):
        spec_ar = ModelSpec(d=2, form="msar")
        res_ar = qml_estimate(msar_sample, spec_ar, fast_cfg, seed=7)
        y, _ = spec_ar.regression_frame(msar_sample)
        # same response, but the lag replaced by an uninformative covariate
        placebo = np.random.default_rng(99).normal(size=y.size)
        res_plain = qml_estimate(Sample(y=y, w=placebo), ModelSpec(d=2),
                                 fast_cfg, seed=7)
        assert res_ar.loglik > res_plain.loglik + 0.5
