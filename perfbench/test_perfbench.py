"""The benchmark's own tests: every workload at a tiny size, and planted faults.

Run from the repository root with ``python3 -m pytest perfbench -q`` (about
20 s).  The tiny runs shrink the workload constants and configs; the
planted faults (a shifted estimate, a scaled standard error, a perturbed
theta*, wrong weights or summary) must each be caught by its check.
"""

from __future__ import annotations

import copy
import csv
import json

import numpy as np
import pytest

import bootstrap
import checks
import run
import spans
import workloads

mr = bootstrap.import_package()
BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so that a run takes seconds."""
    real_load = bootstrap.load

    def load(workload):
        loaded = real_load(workload)
        if "cfg" in loaded:
            cfg = loaded["cfg"]
            cfg.T = 400
            cfg.estimator.n_starts = 2
            cfg.estimator.em_max_iter = 100
        return loaded

    monkeypatch.setattr(bootstrap, "load", load)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "MSAR_BLOCK", 1)
    monkeypatch.setattr(workloads, "KEPT_FAILURES", (65,))
    monkeypatch.setattr(workloads, "HMM_REPS", 3)
    for name in ("ORACLE_N_SIM", "KL_N_SIM", "WEIGHTS_N_SIM"):
        monkeypatch.setattr(workloads, name, 20_000)


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", bootstrap.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(tiny, capsys, workload):
    result, _ = _run(capsys, "--workload", workload, "--seconds", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    ops = {"mc-msar": 2, "mc-hmm": 3, "oracle": 3}[workload]
    assert result["attempted"] == ops
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["mc-msar", "oracle"])
def test_tiny_traced_run_prints_every_per_layer_metric(tiny, capsys, workload):
    result, _ = _run(capsys, "--workload", workload, "--seconds", "0",
                     "--trace", "1")
    assert result["attempted"] == 2 * (2 if workload == "mc-msar" else 3)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    value = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "oracle":
        assert value["estimator.qml_s"] == 0 and value["estimator.em_s"] == 0
        assert value["oracle.msar_s"] > 0 and value["oracle.msar_bfgs_nit"] > 0
        assert value["mixture.hessian_calls"] == 1
    else:
        assert value["estimator.em_s"] > 0.5 * value["harness.replication_s"]
        assert value["dgp.simulate_calls"] == 2
        assert value["estimator.bfgs_nit"] > 0 and value["oracle.msar_s"] == 0


def test_missing_binding_is_named_not_fatal():
    class Bare:
        pass

    modules = {"harness": Bare(), "estimator": Bare(), "inference": Bare(),
               "oracle": Bare()}
    with spans.Tracer(modules) as tracer:
        pass
    assert "estimator.quasi_loglik" in tracer.missing
    assert len(tracer.missing) == len(spans.BINDINGS)
    assert set(spans.layer_metrics([], 1)) | {"trace.overhead_s"} == set(spans.UNITS)


def test_digest_ignores_only_elapsed_time():
    head = "rep_index,loglik,elapsed_s,est_mu_1\n"
    a = workloads._csv_digest(head + "0,-1.5,0.25,0.9\n")
    assert a == workloads._csv_digest(head + "0,-1.5,0.75,0.9\n")
    assert a != workloads._csv_digest(head + "0,-1.5,0.25,0.91\n")


@pytest.fixture(scope="module")
def fitted():
    """One hmm replication at T = 400, with its own sample."""
    cfg = bootstrap.load("mc-hmm")["cfg"]
    cfg.T = 400
    rec = mr.run_replication(cfg, 0)
    sample = mr.simulate_hmm(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                             seed=(cfg.master_seed, 0, 0))
    y, x = checks.frame(sample.y, sample.w, "hmm")
    starts = [("truth", workloads._truth(cfg.dgp, "hmm"))]
    return rec, y, x, starts


def _check(rec, y, x, starts, estimates=None, std_errors=None):
    est = rec.estimates if estimates is None else estimates
    ses = rec.std_errors if std_errors is None else std_errors
    return checks.check_replication(0, rec.ok, rec.converged, rec.loglik, est,
                                    ses, y, x, "hmm", starts)


def test_true_fit_passes(fitted):
    got = _check(*fitted)
    assert not got.failed and not got.problems


def test_shifted_estimate_is_caught(fitted):
    rec, y, x, starts = fitted
    shifted = rec.estimates.copy()
    shifted[0] += 0.05
    got = _check(rec, y, x, starts, estimates=shifted)
    assert any("loglik" in p for p in got.problems)
    lower = copy.copy(rec)
    lower.loglik = checks.mean_loglik(checks.natural_to_free(shifted, "hmm"),
                                      y, x, "hmm")
    got = _check(lower, y, x, starts, estimates=shifted)
    assert got.failed and "BFGS from truth" in got.reasons[0]


def test_scaled_standard_error_is_caught(fitted):
    rec, y, x, starts = fitted
    got = _check(rec, y, x, starts, std_errors=rec.std_errors * 1.001)
    assert any("standard errors" in p for p in got.problems)


def test_analytic_gradient_matches_differences(fitted):
    rec, y, x, _ = fitted
    free = checks.natural_to_free(rec.estimates, "hmm") + 0.1
    _, grad = checks.mean_loglik_and_grad(free, y, x, "hmm")
    rows = checks.gradient_rows(free, y, x, "hmm")
    assert np.allclose(grad, rows.mean(axis=0), rtol=1e-6, atol=1e-8)


@pytest.fixture(scope="module")
def oracle_round():
    saved = {k: getattr(workloads, k) for k in
             ("ORACLE_N_SIM", "KL_N_SIM", "WEIGHTS_N_SIM")}
    for k in saved:
        setattr(workloads, k, 50_000)
    try:
        wl = workloads.Oracle(mr, bootstrap.load("oracle"), 3)
        yield wl, wl.run_round().output
    finally:
        for k, v in saved.items():
            setattr(workloads, k, v)


def test_oracle_round_passes(oracle_round):
    wl, out = oracle_round
    verdict = wl.check(out)
    assert verdict.failed == 0 and verdict.correct, verdict.problems


def test_perturbed_theta_star_is_caught(oracle_round):
    wl, out = oracle_round
    bad = copy.deepcopy(out)
    bad["msar"].theta_star.components[0].mu += 0.3
    problems = wl.check(bad).problems
    assert any("score max-norm" in p for p in problems)
    assert any("does not beat" in p for p in problems)
    assert any("kl_check reports" in p for p in problems)


def test_wrong_weights_are_caught(oracle_round):
    wl, out = oracle_round
    bad = copy.deepcopy(out)
    bad["weights"].weights_star = bad["weights"].weights_star + [0.02, -0.02]
    assert any("weights" in p for p in wl.check(bad).problems)


def test_wrong_summary_is_caught(tmp_path):
    cfg = bootstrap.load("mc-hmm")["cfg"]
    cfg.T, cfg.n_reps = 200, 3
    mr.run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "replications.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    summary = json.loads((tmp_path / "summary.json").read_text())["summary"]
    names = cfg.spec.natural_names()
    verdict = workloads.Verdict()
    workloads.McHmm._check_summary(table, names, summary, verdict)
    assert verdict.correct, verdict.problems
    summary["params"]["mu_1"]["bias"] += 1e-6
    workloads.McHmm._check_summary(table, names, summary, verdict)
    assert any("bias of mu_1" in p for p in verdict.problems)
