import ast
import csv
import hashlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from mixregime import (ArLaw, ConfigurationError, EstimatorConfig,
                       ExperimentConfig, HacConfig, HmmDgpParams, McSummary,
                       MixtureParams, ModelSpec, NoiseCorrelation, ParseError,
                       RegimeOutcome, ReplicationRecord, Sample,
                       TransitionSpec,
                       ValidationError, encode, hmm_benchmark,
                       load_experiment_config, load_sample, msar_benchmark,
                       render_table,
                       run_experiment, run_replication, simulate_hmm,
                       simulate_msar,
                       summarize_csv, true_reference, write_replications_csv)
from mixregime.dgp import DEFAULT_BURN_IN
from mixregime.harness import robust_cov
from mixregime.inference import sandwich_cov
from mixregime.mixture import SIGMA_MIN, neg_loglik_and_score


def small_cfg(T=200, n_reps=4, seed=77, label="bench"):
    return ExperimentConfig(dgp=hmm_benchmark(), T=T, n_reps=n_reps,
                            master_seed=seed,
                            estimator=EstimatorConfig(n_starts=3),
                            hac=HacConfig(), label=label)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            small_cfg(T=10).validate()
        with pytest.raises(ValidationError):
            small_cfg(n_reps=0).validate()

    @pytest.mark.parametrize("seed", ["1002", -1, 2.5, True])
    def test_master_seed_must_be_non_negative_int(self, seed):
        # "1002" would otherwise seed (1, 0, 0, 2); -1 would reach numpy
        with pytest.raises(ValidationError, match="master_seed"):
            small_cfg(seed=seed).validate()

    def test_json_round_trip(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json(), indent=2))
        back = load_experiment_config(path)
        assert back.T == cfg.T
        assert back.n_reps == cfg.n_reps
        assert back.master_seed == cfg.master_seed
        assert back.spec.form == cfg.spec.form
        assert back.estimator == cfg.estimator
        assert back.hac == cfg.hac
        assert back.dgp.params_hash() == cfg.dgp.params_hash()

    def test_true_reference_orders_like_dgp(self):
        ref = true_reference(small_cfg().dgp)
        np.testing.assert_array_equal(ref.outcome_matrix[:, 0], [1.0, -1.0])
        np.testing.assert_array_equal(ref.outcome_matrix[:, 1], [0.5, 1.0])

    def test_true_reference_msar_uses_phi_as_slope(self):
        cfg = ExperimentConfig(dgp=msar_benchmark(), T=200, n_reps=2)
        ref = true_reference(cfg.dgp)
        np.testing.assert_array_equal(ref.outcome_matrix[:, 1], [0.9, 0.9])

    # The fitted model follows from the DGP: one component per regime, the
    # switching AR exactly when the DGP sets ar_coefficient. A file that
    # still asks for another model is rejected, since it has no spec key.

    @staticmethod
    def _with_spec_block(cfg, block):
        obj = cfg.to_json()
        obj["spec"] = block
        return obj

    def test_msar_form_needs_ar_design(self):
        cfg = small_cfg()
        assert cfg.spec == ModelSpec(d=2, form="hmm")
        obj = self._with_spec_block(cfg, {"d": 2, "form": "msar"})
        with pytest.raises(ValidationError, match="unknown experiment key.*spec"):
            ExperimentConfig.from_json(obj)

    def test_hmm_form_rejects_ar_design(self):
        cfg = ExperimentConfig(dgp=msar_benchmark(), T=200, n_reps=2)
        assert cfg.spec == ModelSpec(d=2, form="msar")
        obj = self._with_spec_block(cfg, {"d": 2, "form": "hmm"})
        with pytest.raises(ValidationError, match="unknown experiment key.*spec"):
            ExperimentConfig.from_json(obj)

    def test_component_count_must_match_dgp(self):
        three = HmmDgpParams(
            outcomes=[RegimeOutcome(m, 0.0, 1.0) for m in (-1.0, 0.0, 1.0)],
            transition=TransitionSpec(alpha=np.eye(3), beta=np.zeros((3, 3))),
            z_law=ArLaw(0.0, 0.5, 1.0), w_law=ArLaw(0.0, 0.5, 1.0),
            noise=NoiseCorrelation(0.0, 0.0))
        assert ExperimentConfig(dgp=three, T=200, n_reps=2).spec == ModelSpec(d=3)
        obj = self._with_spec_block(small_cfg(), {"d": 3, "form": "hmm"})
        with pytest.raises(ValidationError, match="unknown experiment key.*spec"):
            ExperimentConfig.from_json(obj)

    def test_estimator_seed_rejected(self, tmp_path):
        # replications seed their starts from (master_seed, rep_index), so
        # there is no estimator seed to set
        obj = small_cfg().to_json()
        obj["estimator"]["seed"] = 12345
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError, match="unknown estimator key.*seed"):
            load_experiment_config(path)

    @pytest.mark.parametrize("key, value", [
        ("T", 1600.7), ("T", True), ("n_reps", "200"), ("n_reps", 2.0),
        ("burn_in", True), ("burn_in", None), ("master_seed", "1002"),
    ])
    def test_counts_are_type_checked(self, key, value):
        # int() would load T = 1600.7 as 1600 and burn_in = true as 1
        obj = small_cfg().to_json()
        obj[key] = value
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig.from_json(obj).validate()

    @pytest.mark.parametrize("value", ["2", 2.5, True])
    def test_burn_in_is_no_config_key(self, value):
        # every experiment burns in DEFAULT_BURN_IN values; the key was a
        # knob that the configs all set to that one value
        assert ExperimentConfig.burn_in == DEFAULT_BURN_IN
        obj = small_cfg().to_json()
        assert "burn_in" not in obj
        obj["burn_in"] = value
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_json(obj)
        assert err.value.violations == ["unknown experiment key(s): burn_in"]

    @pytest.mark.parametrize("key, value, message", [
        ("label", None, "label must be a string, got None"),
        ("label", 3, "label must be a string, got 3"),
        ("out_dir", 5, "out_dir must be a string or null, got 5"),
        ("out_dir", ["out"], "out_dir must be a string or null"),
    ], ids=["label-null", "label-int", "out_dir-int", "out_dir-list"])
    def test_label_and_out_dir_are_type_checked(self, key, value, message):
        # a null label would fail only when the CSV is written, after every
        # replication has run
        obj = small_cfg().to_json()
        obj[key] = value
        with pytest.raises(ValidationError, match=re.escape(message)):
            ExperimentConfig.from_json(obj).validate()


CONFIG_FILES = sorted((Path(__file__).resolve().parent.parent / "configs")
                      .glob("*.json"))


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: p.name)
def test_committed_config_round_trips(path):
    # every key the file carries, fixed ones included, is written back as read
    obj = json.loads(path.read_text())
    parse = HmmDgpParams if path.name.startswith("dgp_") else ExperimentConfig
    assert parse.from_json(obj).to_json() == obj


def test_gen_configs_reproduces_committed_files(tmp_path, monkeypatch):
    script = CONFIG_FILES[0].parent.parent / "scripts" / "gen_configs.py"
    loader = importlib.util.spec_from_file_location("gen_configs", script)
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    monkeypatch.setattr(gen, "ROOT", tmp_path)
    monkeypatch.setattr(gen, "CONFIG_DIR", tmp_path / "configs")
    gen.main()
    written = sorted((tmp_path / "configs").glob("*.json"))
    assert [p.name for p in written] == [p.name for p in CONFIG_FILES]
    for new, committed in zip(written, CONFIG_FILES):
        assert new.read_bytes() == committed.read_bytes(), committed.name


def test_unknown_experiment_key_rejected():
    obj = json.loads((CONFIG_FILES[0].parent / "msar_rho0_T1600.json").read_text())
    obj["n_rep"] = 5
    with pytest.raises(ValidationError, match="n_rep"):
        ExperimentConfig.from_json(obj)


class TestRunReplication:
    def test_record_sanity(self):
        rec = run_replication(small_cfg(), 0)
        assert rec.ok
        assert rec.converged
        assert not rec.degenerate
        assert rec.error == ""
        assert rec.estimates.shape == rec.std_errors.shape == rec.truth.shape
        assert np.isfinite(rec.estimates).all()
        assert rec.align_dist_post <= rec.align_dist_pre + 1e-15
        assert rec.hac_bandwidth > 0
        assert rec.elapsed_s >= 0
        # weights have no pseudo-true claim recorded in the truth row
        assert np.isnan(rec.truth[-2:]).all()
        assert np.isfinite(rec.truth[:-2]).all()

    def test_rep_index_out_of_range(self):
        cfg = small_cfg(n_reps=3)
        with pytest.raises(ValidationError):
            run_replication(cfg, 3)
        with pytest.raises(ValidationError):
            run_replication(cfg, -1)

    @pytest.mark.parametrize("rep_index", [True, 1.0])
    def test_rep_index_must_be_an_int(self, rep_index):
        # it returned a failed record whose rep_index cell read 1
        with pytest.raises(ValidationError) as err:
            run_replication(small_cfg(n_reps=3), rep_index)
        assert err.value.violations == [
            f"rep_index must be an int, got {rep_index}"]

    def test_deterministic_modulo_elapsed(self):
        cfg = small_cfg()
        a = run_replication(cfg, 1)
        b = run_replication(cfg, 1)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.std_errors, b.std_errors)
        assert a.loglik == b.loglik
        assert a.hac_bandwidth == b.hac_bandwidth

    def test_extending_n_reps_preserves_early_records(self):
        short = small_cfg(n_reps=2)
        longer = small_cfg(n_reps=6)
        for rep in range(2):
            a = run_replication(short, rep)
            b = run_replication(longer, rep)
            np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_floor_hit_marks_degenerate(self):
        # in this committed replication the winning fit puts sigma(1) at the
        # floor, where its score cannot reach zero
        cfg = load_experiment_config(CONFIG_FILES[0].parent / "msar_rho065_T200.json")
        rec = run_replication(cfg, 2)
        assert rec.ok
        assert not rec.converged
        assert rec.degenerate
        sigmas = [v for name, v in zip(cfg.spec.natural_names(), rec.estimates)
                  if name.startswith("sigma_")]
        # decode clamps log sigma, so the floor reads back as
        # exp(log(SIGMA_MIN)), one rounding away from SIGMA_MIN
        assert min(sigmas) == pytest.approx(SIGMA_MIN, rel=1e-12)
        # no sandwich at a fit on the boundary
        assert np.isnan(rec.std_errors).all()

    @pytest.mark.parametrize("rep", [65, 171])
    def test_no_lower_basin_than_from_theta_star(self, rep):
        # At these replications the start with the best EM loglik lies in a
        # lower basin than the one BFGS reaches from the switching-AR limit
        # point theta* of dgp_msar_rho0, from
        #   mixregime oracle --config configs/dgp_msar_rho0.json --msar \
        #       --n-sim 10000000 --seed 0
        cfg = load_experiment_config(CONFIG_FILES[0].parent / "msar_rho0_T1600.json")
        phi = 0.965742389524026
        theta_star = MixtureParams(
            components=[RegimeOutcome(mu=0.6306555130746531, gamma=phi,
                                      sigma=1.066285184162304),
                        RegimeOutcome(mu=-1.0734691374352698, gamma=phi,
                                      sigma=1.0488171703829046)],
            weights=np.array([0.6961014985131039, 0.3038985014868961]))
        sample = simulate_msar(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                               seed=(cfg.master_seed, rep, 0))
        from_star = minimize(neg_loglik_and_score, encode(theta_star, cfg.spec),
                             args=([sample], cfg.spec), jac=True, method="BFGS",
                             options={"gtol": cfg.estimator.qn_grad_tol})
        rec = run_replication(cfg, rep)
        assert rec.ok
        assert rec.loglik >= -from_star.fun - 1e-9

    def test_estimation_failure_is_captured_not_raised(self, monkeypatch):
        from mixregime import EstimationError

        def boom(*args, **kwargs):
            raise EstimationError("synthetic covariance failure")

        monkeypatch.setattr("mixregime.harness.sandwich_cov", boom)
        rec = run_replication(small_cfg(), 0)
        assert not rec.ok
        assert "synthetic covariance failure" in rec.error
        assert np.isnan(rec.estimates).all()

    @staticmethod
    def failing_fit(exc):
        def fit(*args, **kwargs):
            raise exc
        return fit

    def test_fit_failure_is_a_failed_row(self, monkeypatch):
        from mixregime import EstimationError

        monkeypatch.setattr("mixregime.harness.qml_estimate",
                            self.failing_fit(EstimationError("all starts bad")))
        rec = run_replication(small_cfg(), 0)
        assert not rec.ok
        assert rec.error == "EstimationError: all starts bad"
        assert np.isnan(rec.estimates).all()

    def test_degenerate_fit_names_every_start_reason(self, tmp_path,
                                                     monkeypatch):
        constant = Sample(y=np.full(60, 3.0), w=np.full(60, 2.0))
        monkeypatch.setattr("mixregime.harness.simulate_hmm",
                            lambda *args, **kwargs: constant)
        cfg = small_cfg()
        rec = run_replication(cfg, 0)
        assert not rec.ok
        assert rec.error.startswith(
            "EstimationError: all EM starts degenerate: start 0: ")
        for start in range(cfg.estimator.n_starts):
            assert re.search(f"start {start}: [^;]*(collapsed|singular)",
                             rec.error), start
        path = tmp_path / "replications.csv"
        write_replications_csv(path, [rec], cfg)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == rec.error

    def test_robust_cov_is_the_sandwich_or_nan_at_a_degenerate_fit(
            self, monkeypatch):
        cfg = small_cfg(T=400)
        spec = cfg.spec
        params = true_reference(cfg.dgp)
        sample = simulate_hmm(cfg.dgp, T=cfg.T, seed=3)
        info = {}
        cov, ses = robust_cov(params, False, sample, spec, cfg.hac, info=info)
        want_cov, want_ses = sandwich_cov(encode(params, spec), sample, spec,
                                          cfg.hac)
        assert np.array_equal(cov, want_cov) and np.array_equal(ses, want_ses)
        assert info["n_lags"] >= 0

        def no_sandwich(*args, **kwargs):
            raise AssertionError("sandwich at a degenerate fit")

        monkeypatch.setattr("mixregime.harness.sandwich_cov", no_sandwich)
        q = len(spec.natural_names())
        cov, ses = robust_cov(params, True, sample, spec, cfg.hac)
        assert cov.shape == (q, q) and ses.shape == (q,)
        assert np.isnan(cov).all() and np.isnan(ses).all()

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr("mixregime.harness.qml_estimate",
                            self.failing_fit(TypeError("bad call")))
        with pytest.raises(TypeError, match="bad call"):
            run_replication(small_cfg(), 0)


SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "mixregime"


def test_only_errors_imports_csv():
    # every CSV file is read and written through the errors module
    importers = set()
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "csv" for m in modules):
                importers.add(path.stem)
    assert importers == {"errors"}


def test_only_errors_defines_from_json():
    # every config block is read by JsonRecord.from_json, from its fields
    definers = {path.stem for path in sorted(SRC_DIR.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef)
                and node.name == "from_json"}
    assert definers == {"errors"}


def test_only_errors_touches_the_file_system():
    # errors turns a refused file into a ConfigurationError naming the path;
    # a call elsewhere let a raw OSError through, exiting 2
    calls = []
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func  # open(...), or a method such as Path.mkdir
            if isinstance(func, ast.Name) and func.id == "open":
                calls.append(f"{path.name}:{node.lineno}: open")
            elif isinstance(func, ast.Attribute) and func.attr in (
                    "open", "write_text", "read_text", "mkdir", "unlink"):
                calls.append(f"{path.name}:{node.lineno}: {func.attr}")
    assert calls == []


def test_only_stream_rng_makes_a_generator():
    # one constructor keeps every stream keyed by seed_key's rule
    makers = []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            makers += [f"{path.name}: {func.name}" for node in ast.walk(func)
                       if isinstance(node, ast.Attribute)
                       and node.attr == "default_rng"]
    assert makers == ["dgp.py: stream_rng"]


def test_count_bound_has_one_owner():
    # "<name> must be >= <low>, got <value>" was written out ten times,
    # and the functions among its writers skipped the int type rule
    writers = []
    for path in sorted(SRC_DIR.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                writers += [
                    f"{path.name}: {func.name}" for node in ast.walk(func)
                    if isinstance(node, ast.JoinedStr) and any(
                        isinstance(part, ast.Constant)
                        and "must be >=" in part.value
                        for part in node.values)]
    assert writers == ["errors.py: count_faults"]


def test_no_module_has_an_unused_import():
    # a name imported and never read is dead code that hides which module
    # depends on which; __init__ imports to re-export
    unused = []
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unused == []


def test_no_violations_method_checks_finiteness():
    # the type rule owns finiteness: a nan or inf config real is "not a real
    # number" before any record's domain rules run
    calls = []
    for path in sorted(SRC_DIR.glob("*.py")):
        for method in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(method, ast.FunctionDef)
                    and method.name == "violations"):
                continue
            calls += [f"{path.name}:{node.lineno}" for node in ast.walk(method)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "isfinite"]
    assert calls == []


def rows_without_elapsed(path) -> list:
    """replications.csv rows, header included, minus the elapsed_s column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index("elapsed_s")
    return [r[:idx] + r[idx + 1:] for r in rows]


@pytest.mark.parametrize("name, n_rows, digest", [
    ("msar_rho0_T1600", 2,
     "163310e8ef26b5d907972b8787f5c793f9819f9d65f7450ccd9efc0fe960a04c"),
    ("hmm_rho0_omega0_T800", 4,
     "c17d099a0e56dcacabab30a140b13406ddf6a93c3fbfb86b8b8142974774b612"),
], ids=["msar_rho0_T1600", "hmm_rho0_omega0_T800"])
def test_replication_rows_are_bit_identical(tmp_path, name, n_rows, digest):
    # A faster path must leave every replications.csv cell but elapsed_s
    # unchanged.  The digests are sha256 of these rows joined by commas and
    # newlines; like the perfbench hashes they hold for one numpy and BLAS
    # build.  A change that moves a cell on purpose says why and records new
    # ones.
    cfg = load_experiment_config(CONFIG_FILES[0].parent / f"{name}.json")
    path = tmp_path / "replications.csv"
    write_replications_csv(path, [run_replication(cfg, i) for i in range(n_rows)],
                           cfg)
    text = "\n".join(",".join(row) for row in rows_without_elapsed(path))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRunExperiment:
    def test_files_and_summary_purity(self, tmp_path):
        cfg = small_cfg()
        out = tmp_path / "exp"
        summary = run_experiment(cfg, out_dir=out)
        csv_path = out / "replications.csv"
        json_path = out / "summary.json"
        assert csv_path.exists() and json_path.exists()

        # the persisted summary must be exactly what summarize_csv returns
        again = summarize_csv(csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["summary"] == again.to_json() == summary.to_json()
        assert payload["schema_version"] == 2
        assert payload["config"]["label"] == "bench"

        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == cfg.n_reps
        assert [int(r["rep_index"]) for r in rows] == list(range(cfg.n_reps))

    def test_run_order_does_not_change_results(self, tmp_path):
        # each row depends only on (master_seed, rep_index)
        cfg = small_cfg(n_reps=6)
        summary = run_experiment(cfg, out_dir=tmp_path)
        reversed_csv = tmp_path / "reversed.csv"
        records = [run_replication(cfg, i) for i in reversed(range(cfg.n_reps))]
        write_replications_csv(reversed_csv, records, cfg)
        assert (rows_without_elapsed(tmp_path / "replications.csv")
                == rows_without_elapsed(reversed_csv))
        assert summarize_csv(reversed_csv).to_json() == summary.to_json()

    def test_missing_out_dir_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ConfigurationError):
            run_experiment(cfg)

    def test_unwritable_out_dir_rejected(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("file, not a directory")
        cfg = small_cfg(n_reps=1)
        with pytest.raises(ConfigurationError):
            run_experiment(cfg, out_dir=blocker / "nested")

    def test_bias_small_on_benchmark(self, tmp_path):
        # T=400, 12 reps: loose sanity bound, not a paper comparison
        cfg = small_cfg(T=400, n_reps=12, seed=1234)
        summary = run_experiment(cfg, out_dir=tmp_path / "c")
        assert summary.n_used >= 10
        for name in ("mu_1", "mu_2"):
            assert abs(summary.params[name]["bias"]) < 0.5


class TestWriteReplicationsCsv:
    def test_header_and_failed_row_are_pinned(self, tmp_path):
        cfg = small_cfg(n_reps=1)
        names = cfg.spec.natural_names()
        nan_vec = np.full(len(names), np.nan)
        truth = np.arange(len(names), dtype=float)
        rec = ReplicationRecord(rep_index=0, estimates=nan_vec,
                                std_errors=nan_vec, truth=truth,
                                elapsed_s=0.25, error="ValidationError: x")
        path = tmp_path / "reps.csv"
        write_replications_csv(path, [rec], cfg)
        with open(path, newline="") as fh:
            header, row = csv.reader(fh)
        assert header == [
            "rep_index", "design", "T", "ok", "converged", "degenerate",
            "loglik", "start_index", "n_em_iter", "n_qn_iter",
            "hac_bandwidth", "align_dist_pre", "align_dist_post",
            "elapsed_s",
            "est_mu_1", "est_mu_2", "est_gamma_1", "est_gamma_2",
            "est_sigma_1", "est_sigma_2", "est_weight_1", "est_weight_2",
            "se_mu_1", "se_mu_2", "se_gamma_1", "se_gamma_2",
            "se_sigma_1", "se_sigma_2", "se_weight_1", "se_weight_2",
            "true_mu_1", "true_mu_2", "true_gamma_1", "true_gamma_2",
            "true_sigma_1", "true_sigma_2", "true_weight_1", "true_weight_2",
            "error"]
        # a record built from the defaults is a failed row
        assert row == (["0", "bench", "200", "0", "0", "0", "nan", "-1", "0",
                        "0", "nan", "nan", "nan", "0.25"]
                       + ["nan"] * 16 + ["0", "1", "2", "3", "4", "5", "6", "7"]
                       + ["ValidationError: x"])


class TestSummarizeCsv:
    def test_exclusion_counting(self, tmp_path):
        cfg = small_cfg(n_reps=5)
        records = [run_replication(cfg, rep) for rep in range(cfg.n_reps)]
        records[1].converged = False
        records[2].degenerate = True
        records[3].ok = False
        records[3].error = "synthetic failure"
        path = tmp_path / "reps.csv"
        write_replications_csv(path, records, cfg)
        summary = summarize_csv(path)
        assert summary.n_reps == 5
        assert summary.n_failed == 1
        assert summary.n_degenerate == 1
        assert summary.n_used == 2
        # bias over the two used reps only
        used = [records[0], records[4]]
        names = cfg.spec.natural_names()
        mu_idx = names.index("mu_1")
        want = float(np.mean([r.estimates[mu_idx] - r.truth[mu_idx]
                              for r in used]))
        assert summary.params["mu_1"]["bias"] == pytest.approx(want, abs=1e-12)

    def test_single_used_row_gives_none_entries(self, tmp_path):
        cfg = small_cfg(n_reps=2)
        records = [run_replication(cfg, rep) for rep in range(2)]
        records[0].converged = False
        path = tmp_path / "reps.csv"
        write_replications_csv(path, records, cfg)
        summary = summarize_csv(path)
        assert summary.n_used == 1
        assert summary.params["mu_1"]["sd"] is None
        assert summary.params["mu_1"]["bias"] is None

    def test_ragged_row_is_parse_error_with_its_line(self, tmp_path):
        cfg = small_cfg(n_reps=3)
        nan_vec = np.full(len(cfg.spec.natural_names()), np.nan)
        records = [ReplicationRecord(rep_index=i, estimates=nan_vec,
                                     std_errors=nan_vec, truth=nan_vec,
                                     elapsed_s=0.0) for i in range(3)]
        path = tmp_path / "reps.csv"
        write_replications_csv(path, records, cfg)
        lines = path.read_text().splitlines(keepends=True)
        n_fields = len(lines[0].split(","))
        lines[2] = ",".join(lines[2].split(",")[:-5]) + "\r\n"  # rep 1
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=(
                f"line 3: expected {n_fields} fields, found {n_fields - 5}")):
            summarize_csv(path)

    @staticmethod
    def failed_rows_with(tmp_path, line, column, cell):
        """A three-row replications.csv of failed rows, `cell` put in
        `column` on `line`."""
        cfg = small_cfg(n_reps=3)
        nan_vec = np.full(len(cfg.spec.natural_names()), np.nan)
        records = [ReplicationRecord(rep_index=i, estimates=nan_vec,
                                     std_errors=nan_vec, truth=nan_vec,
                                     elapsed_s=0.0) for i in range(3)]
        path = tmp_path / "reps.csv"
        write_replications_csv(path, records, cfg)
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[line - 1].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[line - 1] = ",".join(cells)
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize("column, cell, first", [
        ("design", "other", "bench"), ("T", "800", "200")])
    def test_row_of_another_experiment_is_parse_error(self, tmp_path, column,
                                                      cell, first):
        # the first row's design and T used to stand for every row
        path = self.failed_rows_with(tmp_path, 3, column, cell)
        with pytest.raises(ParseError, match=(
                f"^line 3: column '{column}': '{cell}' differs from "
                f"'{first}' on line 2$")):
            summarize_csv(path)

    @pytest.mark.parametrize("column, cell", [
        ("ok", "true"), ("converged", "yes"), ("degenerate", "2")])
    def test_flag_other_than_0_or_1_is_parse_error(self, tmp_path, column,
                                                   cell):
        # ok = true used to count the row as failed, converged = yes as used
        path = self.failed_rows_with(tmp_path, 4, column, cell)
        with pytest.raises(ParseError, match=(
                f"^line 4: column '{column}': not 0 or 1: '{cell}'$")):
            summarize_csv(path)

    def test_missing_column_is_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "reps.csv"
        path.write_text("rep_index,T\n0,200\n")
        with pytest.raises(ParseError, match="line 1: missing column 'design'"):
            summarize_csv(path)

    def test_non_numeric_cell_is_parse_error_with_its_line(self, tmp_path):
        cfg = small_cfg(n_reps=3)
        records = [run_replication(cfg, rep) for rep in range(3)]
        path = tmp_path / "reps.csv"
        write_replications_csv(path, records, cfg)
        lines = path.read_text().splitlines(keepends=True)
        column = lines[0].rstrip().split(",").index("est_mu_1")
        cells = lines[3].split(",")  # rep 2
        cells[column] = "abc"
        lines[3] = ",".join(cells)
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=(
                "line 4: column 'est_mu_1': not a number: 'abc'")):
            summarize_csv(path)

    def test_non_numeric_cell_reads_as_in_a_sample(self, tmp_path):
        # one cell rule: the same message from both CSV readers
        sample_path = tmp_path / "sample.csv"
        sample_path.write_text("y,w\n1.0,2.0\n\n3.0,x1\n")
        reps_path = tmp_path / "reps.csv"
        write_replications_csv(reps_path, [run_replication(small_cfg(), 0)],
                               small_cfg())
        lines = reps_path.read_text().splitlines(keepends=True)
        column = lines[0].rstrip().split(",").index("T")
        cells = lines[1].split(",")
        cells[column] = "x1"
        reps_path.write_text(lines[0] + "\n\n" + ",".join(cells))
        for read, path, column in ((load_sample, sample_path, "w"),
                                   (summarize_csv, reps_path, "T")):
            with pytest.raises(ParseError, match=(
                    f"^line 4: column '{column}': not a number: 'x1'$")):
                read(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("rep_index,design,T\n")
        with pytest.raises(ValidationError):
            summarize_csv(path)


def canned_summary(design, T, mu1_bias):
    def entry(bias):
        return {"bias": bias, "sd": 0.1, "mean_se": 0.095,
                "sd_se_ratio": 0.1 / 0.095}

    params = {"mu_1": entry(mu1_bias), "mu_2": entry(-0.006),
              "gamma_1": entry(-0.003), "gamma_2": entry(0.002),
              "sigma_1": entry(-0.028), "sigma_2": entry(-0.013),
              "weight_1": entry(None), "weight_2": entry(None)}
    return McSummary(design=design, T=T, n_reps=300, n_used=299,
                     n_converged=299, n_degenerate=0, n_failed=1,
                     params=params)


class TestRenderTable:
    # sha256 of the table below, recorded before render_table looked its
    # cells up by (design, T)
    PINNED_TABLE = ("1d42e6a637c12c639c2b392a141e3399"
                    "e3817eb2126c66d2b92543278840ff76")

    def test_bytes_are_pinned(self):
        def as_read(summary):
            """The summary as summary.json gives it back: keys in sorted order."""
            return McSummary.from_json(json.loads(json.dumps(
                summary.to_json(), sort_keys=True)))

        first = canned_summary("rho0", 200, 0.093)
        first.params["sigma_2"]["sd_se_ratio"] = None
        summaries = [as_read(s) for s in (
            first,
            canned_summary("rho065", 200, None),  # no T = 800 or 3200 cell
            canned_summary("rho0", 800, 0.017),
            canned_summary("rho0", 200, 0.5),  # a duplicate: the first is shown
            canned_summary("wide", 3200, -1.25))]
        table = render_table(summaries)
        assert hashlib.sha256(table.encode()).hexdigest() == self.PINNED_TABLE

    def test_golden_layout(self):
        summaries = [canned_summary("rho0", 200, 0.093),
                     canned_summary("rho0", 800, 0.017),
                     canned_summary("rho065", 200, 0.090),
                     canned_summary("rho065", 800, 0.021)]
        table = render_table(summaries)
        with open("tests/data/golden_table.txt") as fh:
            assert table == fh.read()

    def test_weight_columns_omitted(self):
        table = render_table([canned_summary("rho0", 200, 0.1)])
        assert "weight" not in table
        assert "mu(1)" in table and "sigma(2)" in table

    def test_mismatched_parameter_sets_rejected(self):
        a = canned_summary("rho0", 200, 0.1)
        b = canned_summary("rho0", 800, 0.1)
        del b.params["sigma_2"]
        with pytest.raises(ValidationError):
            render_table([a, b])

    def test_parameters_outside_the_model_rejected(self):
        # every summary reports the same set, but not one model's
        summaries = [canned_summary("rho0", T, 0.1) for T in (200, 800)]
        for s in summaries:
            s.params["rho"] = s.params["mu_1"]
        with pytest.raises(ValidationError, match=(
                r"^summary \(rho0, T = 200\) does not report the natural "
                r"parameters of d = 2, form 'hmm'")):
            render_table(summaries)

    def test_switching_ar_columns_in_natural_order(self):
        s = canned_summary("msar", 200, 0.1)
        del s.params["gamma_2"]
        s.params = {"phi": s.params.pop("gamma_1"), **s.params}
        header = render_table([s]).splitlines()[1].split()
        assert header == ["Block", "T", "mu(1)", "mu(2)", "phi", "sigma(1)",
                          "sigma(2)"]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            render_table([])

    def test_missing_values_render_as_dashes(self):
        s = canned_summary("rho0", 200, None)
        s.params["mu_1"] = {"bias": None, "sd": None, "mean_se": None,
                            "sd_se_ratio": None}
        table = render_table([s])
        assert "--" in table
