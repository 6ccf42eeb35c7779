"""End-to-end acceptance gate.

Each check prints one line "ACCEPTANCE <n> <name>: PASS|FAIL" before any
assertion fires, so a full run doubles as a checklist.  Checks 2-4 run the
shipped Monte Carlo configs at their committed seeds; nothing here tunes
seeds to the tolerances.
"""

import csv
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mixregime import (EstimatorConfig, ExperimentConfig, HacConfig,
                       MixtureParams, ModelSpec, RegimeOutcome, Sample,
                       align_permutation,
                       cf_ratio_check, encode, hac_middle, hmm_benchmark,
                       kl_check, linear_independence_check,
                       load_experiment_config, natural_vector, parzen_weight,
                       perturbation_grid, pseudo_true_msar,
                       pseudo_true_weights, qml_estimate, run_experiment,
                       run_replication, sandwich_cov, simulate_hmm,
                       summarize_csv, true_reference, write_replications_csv)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)


class TestAcceptance:
    def test_1_long_run_consistency(self):
        t0 = time.perf_counter()
        dgp = hmm_benchmark(rho=0.65, omega=0.0)
        sample = simulate_hmm(dgp, T=20_000, seed=(424242, 0))
        spec = ModelSpec(d=2, form="hmm")
        res = qml_estimate(sample, spec, seed=0)
        reference = MixtureParams(components=dgp.outcomes,
                                  weights=np.array([0.5, 0.5]))
        aligned = align_permutation(res.theta_hat, reference)

        est = np.concatenate(aligned.arrays()[:3])
        target = np.array([1.0, -1.0, 0.5, 1.0, 1.0, 1.0])
        outcome_ok = bool(np.abs(est - target).max() <= 0.05)

        oracle = pseudo_true_weights(dgp, n_sim=1_000_000, seed=0)
        _, ses = sandwich_cov(encode(aligned, spec), sample, spec, HacConfig())
        w_idx = spec.natural_names().index("weight_1")
        gap = abs(aligned.weights[0] - oracle.weights_star[0])
        tol = 3.0 * math.hypot(oracle.mc_error[0], ses[w_idx])
        weight_ok = bool(gap <= tol)

        elapsed = time.perf_counter() - t0
        ok = outcome_ok and weight_ok and elapsed < 300
        report(1, "long-run consistency", ok,
               f"max outcome gap {np.abs(est - target).max():.4f}, weight gap "
               f"{gap:.4f} vs tol {tol:.4f}, {elapsed:.0f}s")
        assert outcome_ok, f"outcome estimates {est} vs {target}"
        assert weight_ok, (f"weight {aligned.weights[0]:.4f} vs oracle "
                           f"{oracle.weights_star[0]:.4f}, tol {tol:.4f}")
        assert elapsed < 300

    def test_2_well_specified_panel(self, tmp_path):
        t0 = time.perf_counter()
        cfg = load_experiment_config(CONFIG_DIR / "hmm_rho0_omega0_T800.json")
        summary = run_experiment(cfg, out_dir=tmp_path / "c2")
        elapsed = time.perf_counter() - t0

        names = ["mu_1", "mu_2", "gamma_1", "gamma_2", "sigma_1", "sigma_2"]
        biases = {n: summary.params[n]["bias"] for n in names}
        ratios = {n: summary.params[n]["sd_se_ratio"] for n in names}
        bias_ok = all(abs(b) <= 0.03 for b in biases.values())
        ratio_ok = all(0.85 <= r <= 1.15 for r in ratios.values())
        ok = bias_ok and ratio_ok and elapsed < 1200
        report(2, "well-specified panel", ok,
               f"max |bias| {max(abs(b) for b in biases.values()):.4f}, "
               f"ratios {min(ratios.values()):.3f}-{max(ratios.values()):.3f}, "
               f"{elapsed:.0f}s, used {summary.n_used}/{summary.n_reps}")
        assert bias_ok, biases
        assert ratio_ok, ratios
        assert elapsed < 1200

    def test_3_endogenous_covariate_panel(self, tmp_path):
        # W is endogenous, so the QML limit leaves the truth: the panel bias
        # is checked against hard-coded targets and against limit - truth,
        # the limit computed here from the same generator
        cfg = load_experiment_config(CONFIG_DIR / "hmm_rho0_omega065_T1600.json")
        summary = run_experiment(cfg, out_dir=tmp_path / "c3")
        targets = {"mu_1": -0.231, "mu_2": -0.238, "gamma_1": 0.236,
                   "gamma_2": 0.235, "sigma_1": -0.089, "sigma_2": -0.084}
        gaps = {n: summary.params[n]["bias"] - t for n, t in targets.items()}
        oracle = pseudo_true_msar(cfg.dgp, n_sim=4_000_000, seed=0)
        truth = dict(zip(cfg.spec.natural_names(),
                         natural_vector(true_reference(cfg.dgp), cfg.spec)))
        limit_gaps = {n: summary.params[n]["bias"]
                      - (oracle.estimates[n] - truth[n]) for n in targets}
        ok = (oracle.converged and all(abs(g) <= 0.05 for g in gaps.values())
              and all(abs(g) <= 0.05 for g in limit_gaps.values()))
        report(3, "endogenous covariate panel", ok,
               f"max target gap {max(abs(g) for g in gaps.values()):.4f}, "
               f"max limit gap {max(abs(g) for g in limit_gaps.values()):.4f}")
        assert oracle.converged, oracle.to_json()
        assert ok, {n: (summary.params[n]["bias"], t,
                        oracle.estimates[n] - truth[n])
                    for n, t in targets.items()}

    def test_4_autoregressive_panel(self, tmp_path):
        # y_{t-1} carries information about the persistent regime, so the
        # panel bias is centred on the switching-AR pseudo-true limit
        # theta* - theta0, computed here from the same generator
        cfg = load_experiment_config(CONFIG_DIR / "msar_rho0_T1600.json")
        summary = run_experiment(cfg, out_dir=tmp_path / "c4")
        oracle = pseudo_true_msar(cfg.dgp, n_sim=10_000_000, seed=0)
        star = oracle.estimates
        truth = dict(zip(cfg.spec.natural_names(),
                         natural_vector(true_reference(cfg.dgp), cfg.spec)))
        tols = {"mu_1": 0.10, "phi": 0.02}
        gaps = {n: abs(summary.params[n]["bias"] - (star[n] - truth[n]))
                for n in tols}
        ok = oracle.converged and all(gaps[n] <= tols[n] for n in tols)
        detail = "; ".join(
            f"{n} bias {summary.params[n]['bias']:+.4f} vs limit "
            f"{star[n] - truth[n]:+.4f} ({n}* {star[n]:.4f} se "
            f"{oracle.mc_error[n]:.4f}), gap {gaps[n]:.4f} tol {tols[n]}"
            for n in tols)
        report(4, "autoregressive panel", ok,
               f"{detail}, used {summary.n_used}/{summary.n_reps}")
        assert oracle.converged, oracle.to_json()
        assert ok, f"panel bias off the pseudo-true limit: {detail}"

    def test_5_kl_dominance_grid(self):
        dgp = hmm_benchmark()
        oracle = pseudo_true_weights(dgp, n_sim=1_000_000, seed=0)
        # the candidate: true outcome coefficients with the ergodic weights
        star = MixtureParams(components=true_reference(dgp).components,
                             weights=oracle.weights_star)
        grid = perturbation_grid(star)
        report_kl = kl_check(dgp, star, grid, n_sim=1_000_000, seed=31)
        ok = report_kl.all_dominated(n_se=3.0)
        worst = min(c.delta / c.se for c in report_kl.comparisons)
        report(5, "kl dominance on 12-point grid", ok,
               f"min delta/se {worst:.1f}")
        assert ok, [(c.label, c.delta, c.se) for c in report_kl.comparisons]

    def test_6_identifiability(self):
        gauss = cf_ratio_check("gaussian", a1=1.5, a2=1.0)
        tau, final = gauss.ratio_trace[-1]
        gauss_ok = (tau == 10.0 and final < 1e-12
                    and final == pytest.approx(math.exp(-62.5), rel=1e-12)
                    and gauss.verdict)

        student = cf_ratio_check("student-t:5", a1=2.0, a2=1.0)
        student_ok = student.verdict

        same = RegimeOutcome(0.3, 0.7, 1.1)
        dup = MixtureParams(components=[same, RegimeOutcome(0.3, 0.7, 1.1)],
                            weights=np.array([0.5, 0.5]))
        lam = linear_independence_check(dup, 1.0)
        gram_ok = lam <= 1e-8

        ok = gauss_ok and student_ok and gram_ok
        report(6, "identifiability checks", ok,
               f"gaussian final {final:.3e}, student verdict {student.verdict}, "
               f"identical-component lambda_min {lam:.2e}")
        assert gauss_ok and student_ok and gram_ok

    def test_7_property_suite(self, tmp_path):
        from mixregime.estimator import _em_runs, _random_init
        from mixregime.mixture import (decode, loglik_terms,
                                       neg_loglik_and_score)
        from mixregime.dgp import seed_key

        failures = []

        # EM monotonicity within 1e-10 across a spread of fits
        mono_ok = True
        for variant, form in (("hmm", "hmm"), ("msar", "msar")):
            spec = ModelSpec(d=2, form=form)
            if form == "hmm":
                sample = simulate_hmm(hmm_benchmark(), T=600, seed=(7, 1))
            else:
                from mixregime import msar_benchmark, simulate_msar
                sample = simulate_msar(msar_benchmark(), T=600, seed=(7, 2))
            y, x = spec.regression_frame(sample)
            cfg = EstimatorConfig()
            for start in range(5):
                rng = np.random.default_rng(seed_key(5) + (start,))
                init = _random_init(y, x, spec, rng)
                run = _em_runs(y, x, spec, [init], cfg)[0]
                if np.diff(run.trace).min(initial=0.0) < -1e-10:
                    mono_ok = False
        if not mono_ok:
            failures.append("em monotonicity")

        # analytic score vs central differences over 100 random cases
        rng = np.random.default_rng(1000)
        score_ok = True
        for _ in range(100):
            d = int(rng.integers(1, 4))
            form = "hmm" if rng.random() < 0.5 else "msar"
            spec = ModelSpec(d=d, form=form)
            sample = Sample(y=rng.normal(size=60), w=rng.normal(size=60))
            free = rng.normal(size=spec.q) * 0.7
            g = -neg_loglik_and_score(free, [sample], spec)[1]
            fd = np.empty_like(g)
            for i in range(spec.q):
                bump = np.zeros(spec.q)
                bump[i] = 1e-5
                hi = loglik_terms(decode(free + bump, spec), sample, spec).mean()
                lo = loglik_terms(decode(free - bump, spec), sample, spec).mean()
                fd[i] = (hi - lo) / 2e-5
            denom = np.maximum(np.abs(fd), 1.0)
            if (np.abs(g - fd) / denom).max() > 1e-5:
                score_ok = False
                break
        if not score_ok:
            failures.append("score vs finite differences")

        # parzen branch anchors
        if not (parzen_weight(0.0) == 1.0 and parzen_weight(0.5) == 0.25
                and parzen_weight(1.0) == 0.0 and parzen_weight(2.0) == 0.0):
            failures.append("parzen anchors")

        # zero-bandwidth HAC identical to the demeaned outer product
        g = np.random.default_rng(1001).normal(size=(500, 3))
        gc = g - g.mean(axis=0)
        want = gc.T @ gc / 500
        if not np.array_equal(hac_middle(g, HacConfig(bandwidth=0.0)),
                              0.5 * (want + want.T)):
            failures.append("hac zero bandwidth")

        # scalar AR(1) long-run variance within 10% at T = 1e5
        rho, t_len = 0.5, 100_000
        rng2 = np.random.default_rng(1002)
        x = np.empty(t_len)
        x[0] = rng2.normal()
        innov = rng2.normal(size=t_len) * math.sqrt(1 - rho * rho)
        for t in range(1, t_len):
            x[t] = rho * x[t - 1] + innov[t]
        lrv = hac_middle(x[:, None], HacConfig())[0, 0]
        if abs(lrv - 3.0) > 0.3:
            failures.append(f"ar1 lrv {lrv:.3f}")

        # alignment equals brute force for d <= 3
        rng3 = np.random.default_rng(1003)
        for d in (2, 3):
            for _ in range(10):
                def rand_p():
                    comps = [RegimeOutcome(rng3.normal(), rng3.normal(),
                                           math.exp(0.3 * rng3.normal()))
                             for _ in range(d)]
                    return MixtureParams(components=comps,
                                         weights=np.full(d, 1.0 / d))

                est, ref = rand_p(), rand_p()

                def stack(p):
                    return p.outcome_matrix

                best = min(((stack(est)[list(p)] - stack(ref)) ** 2).sum()
                           for p in itertools.permutations(range(d)))
                got = ((stack(align_permutation(est, ref)) - stack(ref)) ** 2).sum()
                if not math.isclose(got, best, rel_tol=0, abs_tol=1e-12):
                    failures.append(f"alignment d={d}")
                    break

        # identical results whatever order the replications run in
        cfg = ExperimentConfig(dgp=hmm_benchmark(), T=200, n_reps=4,
                               master_seed=99,
                               estimator=EstimatorConfig(n_starts=2),
                               label="prop")
        summary = run_experiment(cfg, out_dir=tmp_path)
        reversed_csv = tmp_path / "reversed.csv"
        write_replications_csv(
            reversed_csv,
            [run_replication(cfg, i) for i in reversed(range(cfg.n_reps))], cfg)

        def rows_minus_elapsed(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            idx = rows[0].index("elapsed_s")
            return [r[:idx] + r[idx + 1:] for r in rows]

        if (rows_minus_elapsed(tmp_path / "replications.csv")
                != rows_minus_elapsed(reversed_csv)
                or summarize_csv(reversed_csv).to_json() != summary.to_json()):
            failures.append("run-order determinism")

        ok = not failures
        report(7, "property suite", ok,
               "all properties hold" if ok else "; ".join(failures))
        assert ok, failures
