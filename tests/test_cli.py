import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixregime import (EstimatorConfig, ExperimentConfig, ModelSpec,
                       hmm_benchmark, load_sample, msar_benchmark)
from mixregime.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture()
def dgp_config(tmp_path):
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps(hmm_benchmark().to_json()))
    return path


@pytest.fixture()
def sample_csv(tmp_path, dgp_config):
    out = tmp_path / "sample.csv"
    rc = main(["simulate", "--config", str(dgp_config), "--T", "400",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_loadable_csv_and_reports_meta(self, tmp_path, dgp_config,
                                                  capsys):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--config", str(dgp_config), "--T", "250",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["T"] == 250
        assert meta["variant"] == "hmm"
        sample = load_sample(out)
        assert sample.T == 250
        assert sample.z is not None and sample.s is not None

    def test_msar_switch(self, tmp_path, capsys):
        cfg = tmp_path / "msar.json"
        cfg.write_text(json.dumps(msar_benchmark().to_json()))
        out = tmp_path / "m.csv"
        rc = main(["simulate", "--config", str(cfg), "--T", "300",
                   "--seed", "2", "--out", str(out), "--msar"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["variant"] == "msar"

    def test_msar_switch_requires_phi(self, tmp_path, dgp_config, capsys):
        out = tmp_path / "m.csv"
        rc = main(["simulate", "--config", str(dgp_config), "--T", "300",
                   "--seed", "2", "--out", str(out), "--msar"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigurationError"


class TestFit:
    def test_fit_outputs_estimates_and_ses(self, tmp_path, sample_csv, capsys):
        out = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(sample_csv), "--d", "2",
                   "--form", "hmm", "--out", str(out), "--seed", "3"])
        assert rc == 0
        payload = json.loads(out.read_text())
        names = payload["natural_names"]
        assert names == ModelSpec(d=2).natural_names()
        est = np.array(payload["natural_estimates"])
        ses = np.array(payload["std_errors"])
        assert est.shape == ses.shape == (len(names),)
        assert np.isfinite(est).all()
        assert payload["se_scale"] == "natural"
        assert payload["hac"]["bandwidth"] > 0
        status = json.loads(capsys.readouterr().out)
        assert status["converged"] is True

    def test_fixed_bandwidth_accepted(self, tmp_path, sample_csv):
        out = tmp_path / "fit0.json"
        rc = main(["fit", "--data", str(sample_csv), "--d", "2",
                   "--form", "hmm", "--out", str(out), "--bandwidth", "0"])
        assert rc == 0
        assert json.loads(out.read_text())["hac"]["bandwidth"] == 0.0

    def test_bad_bandwidth_is_structured_error(self, sample_csv, capsys):
        rc = main(["fit", "--data", str(sample_csv), "--d", "2",
                   "--form", "hmm", "--bandwidth", "wide"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigurationError"
        assert "bandwidth" in err["error"]["message"]

    def test_experiment_config_accepted(self, tmp_path, sample_csv):
        cfg = ExperimentConfig(dgp=hmm_benchmark(), spec=ModelSpec(d=2), T=400,
                               n_reps=1, estimator=EstimatorConfig(n_starts=2))
        cfg.hac.bandwidth = 3.0
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        out = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(sample_csv), "--d", "2",
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["hac"]["config"]["bandwidth"] == 3.0

    def test_flat_estimator_config_accepted(self, tmp_path, sample_csv, capsys):
        cfg_path = tmp_path / "estimator.json"
        cfg_path.write_text(json.dumps({"n_starts": 2, "hac": {"bandwidth": 2.0}}))
        out = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(sample_csv), "--d", "2",
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["hac"]["config"]["bandwidth"] == 2.0
        capsys.readouterr()
        cfg_path.write_text(json.dumps({"n_start": 2}))
        rc = main(["fit", "--data", str(sample_csv), "--d", "2",
                   "--config", str(cfg_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValidationError" and "n_start" in err["message"]

    def test_missing_data_file_fails_nonzero(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--d", "2",
                   "--form", "hmm"])
        assert rc != 0
        assert "error" in json.loads(capsys.readouterr().err)


class TestMc:
    def test_tiny_experiment(self, tmp_path, capsys):
        cfg = ExperimentConfig(dgp=hmm_benchmark(), spec=ModelSpec(d=2),
                               T=200, n_reps=2, master_seed=11,
                               estimator=EstimatorConfig(n_starts=2, seed=0),
                               label="cli-smoke")
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        out_dir = tmp_path / "mc"
        rc = main(["mc", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "replications.csv").exists()
        assert (out_dir / "summary.json").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_reps"] == 2


class TestOracle:
    def test_weights_reported(self, tmp_path, dgp_config, capsys):
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--config", str(dgp_config), "--n-sim", "20000",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        w = payload["weights_star"]
        assert len(w) == 2
        assert sum(w) == pytest.approx(1.0, abs=1e-9)
        assert payload["n_sim"] == 20000

    def test_msar_limit_point(self, tmp_path, capsys):
        cfg = tmp_path / "msar.json"
        cfg.write_text(json.dumps(msar_benchmark().to_json()))
        out = tmp_path / "oracle_msar.json"
        rc = main(["oracle", "--config", str(cfg), "--msar", "--n-sim",
                   "20000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        names = ModelSpec(d=2, form="msar").natural_names()
        assert list(payload["estimates"]) == names
        assert list(payload["mc_error"]) == names
        assert payload["converged"] is True
        assert payload["n_sim"] == 20000
        kl = payload["kl_check"]
        assert kl["n_sim"] == 20000
        assert kl["seed"] == [3, payload["n_paths"]]
        assert len(kl["comparisons"]) == 12
        assert isinstance(kl["all_dominated_3se"], bool)


class TestCheckId:
    def test_gaussian_verdict(self, tmp_path, capsys):
        out = tmp_path / "id.json"
        rc = main(["check-id", "--family", "gaussian", "--a1", "1.5",
                   "--a2", "1.0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] is True
        assert payload["ratio_trace"][-1][1] < 1e-12

    def test_custom_tau_grid(self, capsys):
        rc = main(["check-id", "--family", "gaussian", "--a1", "2.0",
                   "--a2", "1.0", "--tau-grid", "0,1,2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [t for t, _ in payload["ratio_trace"]] == [0.0, 1.0, 2.0]

    def test_bad_family_fails(self, capsys):
        rc = main(["check-id", "--family", "levy", "--a1", "2.0",
                   "--a2", "1.0"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == \
            "ValidationError"


class TestRender:
    def test_render_from_mc_output(self, tmp_path, capsys):
        cfg = ExperimentConfig(dgp=hmm_benchmark(), spec=ModelSpec(d=2),
                               T=200, n_reps=3, master_seed=12,
                               estimator=EstimatorConfig(n_starts=2, seed=0),
                               label="render-smoke")
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_json()))
        out_dir = tmp_path / "mc"
        assert main(["mc", "--config", str(cfg_path),
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()

        table_path = tmp_path / "table.txt"
        rc = main(["render", str(out_dir), "--out", str(table_path)])
        assert rc == 0
        text = table_path.read_text()
        assert "mu(1)" in text
        assert "Bias" in text and "SD/SE" in text

    def test_missing_summary_fails(self, tmp_path, capsys):
        rc = main(["render", str(tmp_path / "absent")])
        assert rc != 0
        assert "error" in json.loads(capsys.readouterr().err)


def test_module_entry_point_smoke(tmp_path):
    cfg = tmp_path / "dgp.json"
    cfg.write_text(json.dumps(hmm_benchmark().to_json()))
    out = tmp_path / "s.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "mixregime.cli", "simulate", "--config",
         str(cfg), "--T", "120", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    meta = json.loads(proc.stdout)
    assert meta["T"] == 120


def readme_commands():
    """Every `mixregime ...` command in README's code blocks, continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [line.strip() for line in text.splitlines()
            if line.strip().startswith("mixregime ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
