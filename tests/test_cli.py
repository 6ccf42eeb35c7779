import argparse
import ast
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixregime import (EstimatorConfig, ExperimentConfig, HmmDgpParams,
                       ModelSpec, NoiseCorrelation, RegimeOutcome,
                       TransitionSpec,
                       hmm_benchmark, load_sample, msar_benchmark,
                       save_sample, simulate_msar)
from mixregime.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def summary_text(**fields) -> str:
    """summary.json text with every McSummary key, `fields` overriding."""
    obj = {"design": "x", "T": 200, "n_reps": 3, "n_used": 3,
           "n_converged": 3, "n_degenerate": 0, "n_failed": 0, "params": {}}
    return json.dumps({"summary": {**obj, **fields}})


def validation_error(argv, capsys) -> str:
    """Message of the ValidationError that the command reports, exit 1."""
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValidationError"
    return err["message"]


def no_work(*args, **kwargs):
    raise AssertionError("work began before every setting was read")


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
        assert meta["seed"] == [9]
        params = HmmDgpParams.from_json(json.loads(dgp_config.read_text()))
        assert meta["params_hash"] == params.params_hash()
        sample = load_sample(out)
        assert sample.T == 250
        assert sample.z is not None and sample.s is not None

    def test_msar_dgp_simulates_msar(self, tmp_path, capsys):
        # the outcome equation follows the DGP's ar_coefficient; no flag
        cfg = tmp_path / "msar.json"
        cfg.write_text(json.dumps(msar_benchmark().to_json()))
        out = tmp_path / "m.csv"
        rc = main(["simulate", "--config", str(cfg), "--T", "300",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["variant"] == "msar"
        want = simulate_msar(msar_benchmark(), T=300, seed=2)
        np.testing.assert_array_equal(load_sample(out).y, want.y)

    @pytest.mark.parametrize("outcomes", [5, None], ids=["int", "null"])
    def test_outcomes_not_a_list_is_validation_error(self, tmp_path, outcomes,
                                                     capsys):
        obj = hmm_benchmark().to_json()
        obj["outcomes"] = outcomes
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps(obj))
        message = validation_error(["simulate", "--config", str(cfg), "--T",
                                    "100", "--out", str(tmp_path / "s.csv")],
                                   capsys)
        assert "outcomes must be a list" in message

    def test_dgp_without_noise_is_validation_error(self, tmp_path, capsys):
        obj = hmm_benchmark().to_json()
        del obj["noise"]
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps(obj))
        msg = validation_error(["simulate", "--config", str(cfg), "--T", "300",
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert msg == "missing DGP key(s): noise"

    def test_huge_correlation_is_validation_error(self, tmp_path, capsys):
        # rho ** 2 overflowed in the positive-definiteness rule, exiting 2
        obj = hmm_benchmark().to_json()
        obj["noise"]["rho"] = 1e200
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps(obj))
        msg = validation_error(["simulate", "--config", str(cfg), "--T", "300",
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert msg == ("noise correlation matrix must be positive definite "
                       "(rho^2 + omega^2 = inf >= 1)")

    @pytest.mark.parametrize("row, message", [
        (["0.5", 0.0], "transition alpha row 0, column 0 must be a real number"),
        ([True, 0.0], "transition alpha row 0, column 0 must be a real number"),
        ([2.0], "transition alpha rows must have equal length"),
    ], ids=["string", "bool", "ragged"])
    def test_bad_transition_cell_is_validation_error(self, tmp_path, capsys,
                                                      row, message):
        obj = hmm_benchmark().to_json()
        obj["transition"]["alpha"][0] = row
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps(obj))
        msg = validation_error(["simulate", "--config", str(cfg), "--T", "300",
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert msg.startswith(message)
        assert not (tmp_path / "s.csv").exists()


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
        msg = validation_error(["fit", "--data", str(sample_csv), "--d", "2",
                                "--form", "hmm", "--bandwidth", "wide"],
                               capsys)
        assert msg == ("bandwidth must be 'auto' or a finite number >= 0, "
                       "got 'wide'")

    def test_experiment_config_accepted(self, tmp_path, sample_csv):
        cfg = ExperimentConfig(dgp=hmm_benchmark(), T=400, n_reps=1,
                               estimator=EstimatorConfig(n_starts=2))
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

    def test_experiment_config_without_estimator_or_hac_uses_defaults(
            self, tmp_path, sample_csv, capsys):
        fits = []
        for dropped in ((), ("estimator", "hac")):
            obj = json.loads(
                (ROOT / "configs" / "hmm_rho0_omega0_T200.json").read_text())
            for key in dropped:
                del obj[key]
            cfg_path = tmp_path / "experiment.json"
            cfg_path.write_text(json.dumps(obj))
            out = tmp_path / "fit.json"
            rc = main(["fit", "--data", str(sample_csv), "--d", "2",
                       "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
            fits.append(json.loads(out.read_text()))
        full, bare = fits
        assert bare["theta_hat"] == full["theta_hat"]
        assert bare["std_errors"] == full["std_errors"]
        capsys.readouterr()

    def test_degenerate_fit_gets_nan_ses_and_exits_0(self, tmp_path,
                                                     floor_fit, capsys):
        # every EM seed's winner on this sample has a scale on the floor
        _, sample, _ = floor_fit
        data = tmp_path / "floor.csv"
        save_sample(sample, data)
        out = tmp_path / "fit.json"
        rc = main(["fit", "--data", str(data), "--d", "2", "--form", "msar",
                   "--out", str(out)])
        assert rc == 0

        def reject(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        # the missing SEs are nulls, not bare NaN tokens
        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["degenerate"] is True
        n = len(payload["natural_names"])
        assert payload["std_errors"] == [None] * n
        assert payload["covariance"] == [[None] * n] * n
        assert np.isfinite(payload["natural_estimates"]).all()
        capsys.readouterr()

    @pytest.mark.parametrize("bandwidth, message", [
        ("-1", "bandwidth must be 'auto' or a finite number"),
        ("nan", "bandwidth must be a string or a real number, got nan"),
        ("inf", "bandwidth must be a string or a real number, got inf"),
    ], ids=["-1", "nan", "inf"])
    def test_bad_bandwidth_fails_a_degenerate_fit(self, tmp_path, floor_fit,
                                                  capsys, bandwidth, message):
        # a degenerate fit never reaches sandwich_cov, which alone caught it
        _, sample, _ = floor_fit
        data = tmp_path / "floor.csv"
        save_sample(sample, data)
        out = tmp_path / "fit.json"
        msg = validation_error(["fit", "--data", str(data), "--d", "2",
                                "--form", "msar", "--out", str(out),
                                "--bandwidth", bandwidth], capsys)
        assert msg.startswith(message)
        assert not out.exists()

    def test_settings_are_read_before_the_data(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setattr("mixregime.cli.load_sample", no_work)
        msg = validation_error(["fit", "--data", str(tmp_path / "s.csv"),
                                "--d", "2", "--bandwidth", "-1"], capsys)
        assert "bandwidth" in msg

    def test_unknown_form_is_configuration_error(self, tmp_path, monkeypatch,
                                                 capsys):
        # ModelSpec owns the forms; argparse's copy made this an exit-2 usage
        monkeypatch.setattr("mixregime.cli.load_sample", no_work)
        rc = main(["fit", "--data", str(tmp_path / "s.csv"), "--d", "2",
                   "--form", "var"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ConfigurationError",
            "message": "form must be one of ('hmm', 'msar'), got 'var'"}

    def test_int_too_large_for_a_double_is_validation_error(
            self, tmp_path, sample_csv, capsys):
        cfg_path = tmp_path / "estimator.json"
        cfg_path.write_text('{"em_tol": 1' + "0" * 400 + "}")
        msg = validation_error(["fit", "--data", str(sample_csv), "--d", "2",
                                "--config", str(cfg_path)], capsys)
        assert msg.startswith("em_tol must be a real number, got 1000")

    def test_int_past_the_digit_limit_is_parse_error(self, tmp_path,
                                                     sample_csv, capsys):
        # json cannot read an int of more than 4,300 digits
        cfg_path = tmp_path / "estimator.json"
        cfg_path.write_text('{"em_tol": 1' + "0" * 5000 + "}")
        assert main(["fit", "--data", str(sample_csv), "--d", "2",
                     "--config", str(cfg_path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ParseError"
        assert err["message"].startswith(f"invalid JSON in {cfg_path}: ")

    def test_degenerate_fit_names_every_start_reason(self, tmp_path, capsys):
        data = tmp_path / "constant.csv"
        data.write_text("y,w\n" + "3,2\n" * 60)
        assert main(["fit", "--data", str(data), "--d", "2"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "EstimationError"
        message = err["message"]
        assert message.startswith("all EM starts degenerate: start 0: ")
        for start in range(EstimatorConfig().n_starts):
            assert re.search(f"start {start}: [^;]*(collapsed|singular)",
                             message), start

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj.update(bogus_key=1),
         "unknown experiment key(s): bogus_key"),
        (lambda obj: obj["dgp"]["outcomes"][0].update(sigma=-5),
         "outcomes[0]: sigma must be > 0, got -5.0"),
    ], ids=["unknown_key", "negative_sigma"])
    def test_experiment_config_is_checked_as_mc_checks_it(
            self, tmp_path, sample_csv, capsys, edit, message):
        obj = json.loads(
            (ROOT / "configs" / "hmm_rho0_omega0_T800.json").read_text())
        edit(obj)
        cfg_path = tmp_path / "experiment.json"
        cfg_path.write_text(json.dumps(obj))
        for argv in (["mc", "--config", str(cfg_path),
                      "--out-dir", str(tmp_path / "mc")],
                     ["fit", "--data", str(sample_csv), "--d", "2",
                      "--config", str(cfg_path)]):
            assert validation_error(argv, capsys) == message

    def test_config_not_an_object_is_validation_error(self, tmp_path,
                                                      sample_csv, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        msg = validation_error(["fit", "--data", str(sample_csv), "--d", "2",
                                "--config", str(cfg_path)], capsys)
        assert msg == "fit config must be a JSON object, got list"

    def test_missing_data_file_fails_nonzero(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--d", "2",
                   "--form", "hmm"])
        assert rc != 0
        assert "error" in json.loads(capsys.readouterr().err)


class TestMc:
    def test_tiny_experiment(self, tmp_path, capsys):
        cfg = ExperimentConfig(dgp=hmm_benchmark(), T=200, n_reps=2,
                               master_seed=11,
                               estimator=EstimatorConfig(n_starts=2),
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


    @staticmethod
    def run_edited(tmp_path, capsys, edit) -> str:
        obj = ExperimentConfig(dgp=hmm_benchmark(), T=200, n_reps=2).to_json()
        edit(obj)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(obj))
        return validation_error(["mc", "--config", str(cfg_path), "--out-dir",
                                 str(tmp_path / "mc")], capsys)

    @pytest.mark.parametrize("key, value", [("label", None), ("out_dir", 5)])
    def test_label_and_out_dir_types_fail_before_any_replication(
            self, tmp_path, capsys, monkeypatch, key, value):
        from mixregime import harness

        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "run_replication", no_replication)
        msg = self.run_edited(tmp_path, capsys,
                              lambda obj: obj.update({key: value}))
        assert msg.startswith(f"{key} must be a string")

    def test_config_without_T_is_validation_error(self, tmp_path, capsys):
        msg = self.run_edited(tmp_path, capsys, lambda obj: obj.pop("T"))
        assert msg == "missing experiment key(s): T"

    def test_outcome_without_sigma_is_validation_error(self, tmp_path, capsys):
        msg = self.run_edited(tmp_path, capsys,
                              lambda obj: obj["dgp"]["outcomes"][1].pop("sigma"))
        assert msg == "missing outcome key(s): sigma"

    def test_estimator_block_not_an_object_is_validation_error(self, tmp_path,
                                                               capsys):
        msg = self.run_edited(tmp_path, capsys,
                              lambda obj: obj.update(estimator=5))
        assert msg == "estimator must be a JSON object, got int"

    @pytest.mark.parametrize("name", ["em_tol", "qn_grad_tol"])
    def test_infinite_tolerance_is_validation_error(self, tmp_path, capsys,
                                                    name):
        # json.dumps writes Python's Infinity token, which read_json accepts
        msg = self.run_edited(
            tmp_path, capsys, lambda obj: obj["estimator"].update({name: math.inf}))
        assert msg == f"{name} must be a real number, got inf"

    def test_outcome_not_an_object_is_validation_error(self, tmp_path, capsys):
        def edit(obj):
            obj["dgp"]["outcomes"][1] = 1.0

        msg = self.run_edited(tmp_path, capsys, edit)
        assert msg == "outcome must be a JSON object, got float"


def three_regime_dgp() -> HmmDgpParams:
    """A d = 3 regime regression: the benchmark's covariate laws, with
    well-separated outcome equations."""
    base = hmm_benchmark()
    return HmmDgpParams(
        outcomes=[RegimeOutcome(m, g, 1.0)
                  for m, g in ((-3.0, 0.5), (0.0, 1.0), (3.0, -0.5))],
        transition=TransitionSpec(alpha=2.0 * np.eye(3), beta=np.zeros((3, 3))),
        z_law=base.z_law, w_law=base.w_law, noise=NoiseCorrelation(0.0, 0.0))


class TestOracle:
    def test_weights_reported(self, tmp_path, dgp_config, capsys):
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--config", str(dgp_config), "--n-sim", "20000",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        weights = json.loads(out.read_text())["weights"]
        w = weights["weights_star"]
        assert len(w) == 2
        assert sum(w) == pytest.approx(1.0, abs=1e-9)
        assert weights["n_sim"] == 20000

    def test_msar_limit_point(self, tmp_path, capsys):
        cfg = tmp_path / "msar.json"
        cfg.write_text(json.dumps(msar_benchmark().to_json()))
        out = tmp_path / "oracle_msar.json"
        rc = main(["oracle", "--config", str(cfg), "--n-sim", "20000",
                   "--seed", "3", "--out", str(out)])
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
        assert len(payload["weights"]["weights_star"]) == 2

    @pytest.mark.parametrize("dgp", [hmm_benchmark(), three_regime_dgp()],
                             ids=["hmm", "hmm-d3"])
    def test_every_design_reports_its_limit(self, tmp_path, dgp, capsys):
        # the fitted form follows the DGP, so no flag chooses it
        cfg = tmp_path / "dgp.json"
        cfg.write_text(json.dumps(dgp.to_json()))
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--config", str(cfg), "--n-sim", "20000",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        names = sorted(ModelSpec.for_dgp(dgp).natural_names())  # keys are sorted
        assert list(payload["estimates"]) == list(payload["mc_error"]) == names
        assert len(payload["weights"]["weights_star"]) == dgp.d
        if dgp.d == 2:
            assert len(payload["kl_check"]["comparisons"]) == 12
        else:  # the perturbation grid is defined for d = 2 only
            assert payload["kl_check"] is None

    def test_lopsided_design_drops_the_weight_bump_out_of_range(self, tmp_path,
                                                                capsys):
        # weight(1) of about 0.89: the +0.25 weight bump would leave (0, 1)
        obj = json.loads((ROOT / "configs" / "dgp_hmm_rho0_omega0.json")
                         .read_text())
        obj["transition"]["alpha"] = [[3.0, 0.0], [0.0, 1.0]]
        cfg = tmp_path / "lopsided.json"
        cfg.write_text(json.dumps(obj))
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--config", str(cfg), "--n-sim", "20000",
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["estimates"]["weight_1"] > 0.75
        labels = [c["label"] for c in payload["kl_check"]["comparisons"]]
        assert len(labels) == 11
        assert "weight(1)+0.25" not in labels

    def test_weights_path_is_capped(self, tmp_path, dgp_config, monkeypatch,
                                    capsys):
        # the weights hold their whole path in memory, so it is capped as
        # the kl_check path is
        monkeypatch.setattr("mixregime.cli.MAX_PATH_LEN", 20_000)
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--config", str(dgp_config), "--n-sim", "40000",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["n_sim"] == 40000
        assert payload["weights"]["n_sim"] == 20000
        assert payload["kl_check"]["n_sim"] == 20000

    def test_msar_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["oracle", "--config", "dgp.json",
                                       "--n-sim", "20000", "--msar"])
        assert exc.value.code == 2
        assert "--msar" in capsys.readouterr().err


class TestParser:
    def test_option_strings_are_pinned(self):
        # a new knob is an edit here, and needs a record that owns its rule
        (sub,) = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        options = {name: [option for action in parser._actions
                          if not isinstance(action, argparse._HelpAction)
                          for option in action.option_strings or [action.dest]]
                   for name, parser in sub.choices.items()}
        assert options == {
            "simulate": ["--config", "--T", "--seed", "--out"],
            "fit": ["--data", "--d", "--form", "--config", "--out",
                    "--bandwidth", "--seed"],
            "mc": ["--config", "--out-dir"],
            "oracle": ["--config", "--n-sim", "--seed", "--out"],
            "check-id": ["--family", "--a1", "--a2", "--tau-grid", "--out"],
            "render": ["summaries", "--out"],
        }

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "dgp.json", "--T", "200", "--out", "s.csv"],
        ["oracle", "--config", "dgp.json", "--n-sim", "20000"],
    ], ids=["simulate", "oracle"])
    def test_burn_in_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--burn-in", "100"])
        assert exc.value.code == 2
        assert "--burn-in" in capsys.readouterr().err

    def test_no_flag_converts_its_value_to_a_number(self):
        # argparse's int and float exited 2 with a usage line and no JSON;
        # the owner of each value judges it instead
        tree = ast.parse((ROOT / "src" / "mixregime" / "cli.py").read_text())
        converters = [
            f"{node.args[0].value} type={kw.value.id}"
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            for kw in node.keywords if kw.arg == "type"
            and isinstance(kw.value, ast.Name)
            and kw.value.id in ("int", "float")]
        assert converters == []

    @pytest.mark.parametrize("command, flags, work, message", [
        ("simulate", ["--T", "1.5"], "mixregime.dgp._draw",
         "T must be an int, got 1.5"),
        ("simulate", ["--T", "200", "--seed", "1.5"], "mixregime.dgp._draw",
         "seed must be an int, got 1.5"),
        ("fit", ["--d", "2.5"], "mixregime.cli.load_sample",
         "d must be an int, got 2.5"),
        ("oracle", ["--n-sim", "1e5"], "mixregime.dgp._draw",
         "n_sim must be an int, got 100000.0"),
        ("check-id", ["--a1", "x", "--a2", "1"],
         "mixregime.oracle._gaussian_cf_ratio",
         "need finite a1 > a2 > 0, got a1 = x, a2 = 1"),
    ], ids=["simulate-T", "simulate-seed", "fit-d", "oracle-n-sim",
            "check-id-a1"])
    def test_bad_number_is_judged_by_its_owner(self, tmp_path, dgp_config,
                                               monkeypatch, capsys, command,
                                               flags, work, message):
        # each exited 2 with argparse's usage line and no JSON
        monkeypatch.setattr(work, no_work)
        argv = {"simulate": ["--config", str(dgp_config),
                             "--out", str(tmp_path / "s.csv")],
                "fit": ["--data", str(tmp_path / "s.csv")],
                "oracle": ["--config", str(dgp_config)],
                "check-id": ["--family", "gaussian"]}[command]
        assert validation_error([command, *argv, *flags], capsys) == message
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command, work", [
        ("simulate", "simulate_hmm"), ("fit", "load_sample"),
        ("oracle", "pseudo_true_msar")])
    def test_negative_seed_fails_before_any_work(self, tmp_path, dgp_config,
                                                 monkeypatch, capsys,
                                                 command, work):
        # numpy's raw ValueError on -1 exited 2, after the work began
        monkeypatch.setattr(f"mixregime.cli.{work}", no_work)
        argv = {"simulate": ["--config", str(dgp_config), "--T", "200",
                             "--out", str(tmp_path / "s.csv")],
                "fit": ["--data", str(tmp_path / "s.csv"), "--d", "2"],
                "oracle": ["--config", str(dgp_config), "--n-sim", "20000"],
                }[command]
        msg = validation_error([command, *argv, "--seed", "-1"], capsys)
        assert msg == "seed must be >= 0, got -1"


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

    def test_bad_tau_grid_is_configuration_error(self, capsys):
        # cf_ratio_check owns the grid rule; a word is no finite tau
        msg = validation_error(["check-id", "--family", "gaussian", "--a1",
                                "2.0", "--a2", "1.0", "--tau-grid", "1,abc"],
                               capsys)
        assert msg.startswith("tau_grid must be finite")

    @pytest.mark.parametrize("grid", ["0,inf", "0,nan"])
    def test_non_finite_tau_is_validation_error(self, capsys, grid):
        # 0,inf gave verdict true with a null tau
        msg = validation_error(["check-id", "--family", "gaussian", "--a1",
                                "1.5", "--a2", "1", "--tau-grid", grid],
                               capsys)
        assert msg.startswith("tau_grid must be finite")

    def test_underflowed_tail_gives_verdict_true(self, capsys):
        # the ratio underflows to 0.0 from tau = 8, which read as no decay
        rc = main(["check-id", "--family", "gaussian", "--a1", "5",
                   "--a2", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio_trace"][-1][1] == 0.0
        assert payload["verdict"] is True

    @pytest.mark.parametrize("a1", ["1e154", "2e154", "1e308"])
    def test_huge_a1_tail_counts_as_decayed(self, capsys, a1):
        # 2e154 raised a raw OverflowError in a1 ** 2, exiting 2, and 1e154
        # printed numpy's overflow RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["check-id", "--family", "gaussian", "--a1", a1,
                       "--a2", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        assert payload["ratio_trace"][0] == [0.0, 1.0]
        assert {ratio for _, ratio in payload["ratio_trace"][1:]} == {0.0}

    def test_bad_family_fails(self, capsys):
        rc = main(["check-id", "--family", "levy", "--a1", "2.0",
                   "--a2", "1.0"])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"]["type"] == \
            "ValidationError"


class TestRender:
    def test_render_from_mc_output(self, tmp_path, capsys):
        cfg = ExperimentConfig(dgp=hmm_benchmark(), T=200, n_reps=3,
                               master_seed=12,
                               estimator=EstimatorConfig(n_starts=2),
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

    @pytest.mark.parametrize("text, message", [
        ('{"summary": {"design": "x"}}',
         "missing summary key(s): T, n_reps, n_used, n_converged, "
         "n_degenerate, n_failed, params"),
        ("[1, 2]", "summary must be a JSON object, got list"),
        pytest.param(summary_text(T="abc"), "T must be an int, got 'abc'",
                     id="T-string"),
        pytest.param(summary_text(T=1600.7), "T must be an int, got 1600.7",
                     id="T-fractional"),
        pytest.param(summary_text(params=5),
                     "summary params must be a JSON object, got int",
                     id="params-not-object"),
        pytest.param(summary_text(params={"mu_1": 5}),
                     "summary params.mu_1 must be a JSON object, got int",
                     id="params-entry-not-object"),
        pytest.param(summary_text(design=7),
                     "summary design must be a string, got 7",
                     id="design-not-string"),
        pytest.param(summary_text(params={"mu_1": {
            "bias": "0.1", "sd": 0.2, "mean_se": 0.2, "sd_se_ratio": None}}),
                     "summary params.mu_1.bias must be a real number or null, "
                     "got '0.1'", id="stat-string"),
        pytest.param(summary_text(params={"mu_1": {
            "bias": 0.1, "sd": 0.2, "mean_se": 0.2, "sd_se_ratio": True}}),
                     "summary params.mu_1.sd_se_ratio must be a real number "
                     "or null, got True", id="stat-bool"),
        pytest.param(summary_text(params={"mu_1": {
            "bias": math.nan, "sd": 0.2, "mean_se": 0.2, "sd_se_ratio": None}}),
                     "summary params.mu_1.bias must be a real number or null, "
                     "got nan", id="stat-nan"),
    ])
    def test_malformed_summary_is_validation_error(self, tmp_path, capsys,
                                                   text, message):
        path = tmp_path / "summary.json"
        path.write_text(text)
        assert validation_error(["render", str(path)], capsys) == message

    def test_missing_summary_fails(self, tmp_path, capsys):
        rc = main(["render", str(tmp_path / "absent")])
        assert rc != 0
        assert "error" in json.loads(capsys.readouterr().err)


class TestFileErrors:
    @pytest.mark.parametrize("command", ["simulate", "fit", "mc", "oracle",
                                         "render"])
    def test_missing_input_file_is_configuration_error(self, tmp_path, capsys,
                                                       command):
        # the raw FileNotFoundError exited 2, the code of unexpected errors
        absent = tmp_path / "absent.json"
        argv = {"simulate": ["--config", str(absent), "--T", "200",
                             "--out", str(tmp_path / "s.csv")],
                "fit": ["--data", str(absent), "--d", "2"],
                "mc": ["--config", str(absent)],
                "oracle": ["--config", str(absent), "--n-sim", "20000"],
                "render": [str(absent)]}[command]
        assert main([command, *argv]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ConfigurationError",
                       "message": f"cannot read {absent}: No such file or "
                                  f"directory"}

    @pytest.mark.parametrize("command, work", [
        ("simulate", "simulate_hmm"), ("fit", "load_sample"),
        ("oracle", "pseudo_true_msar"), ("check-id", "cf_ratio_check"),
        ("render", "_load_summary")])
    def test_out_in_a_missing_directory_fails_before_any_work(
            self, tmp_path, dgp_config, monkeypatch, capsys, command, work):
        # the raw OSError came only after the work, and exited 2
        monkeypatch.setattr(f"mixregime.cli.{work}", no_work)
        out = tmp_path / "nodir" / "out.json"
        argv = {"simulate": ["--config", str(dgp_config), "--T", "200"],
                "fit": ["--data", str(tmp_path / "s.csv"), "--d", "2"],
                "oracle": ["--config", str(dgp_config), "--n-sim", "20000"],
                "check-id": ["--family", "gaussian", "--a1", "2", "--a2", "1"],
                "render": [str(tmp_path / "summary.json")]}[command]
        assert main([command, *argv, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigurationError"
        assert err["message"].startswith(
            f"output directory {out.parent} not writable: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dgp.json"]

    def test_out_that_is_a_directory_fails_before_any_work(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        # the write failed only after the work
        monkeypatch.setattr("mixregime.cli.cf_ratio_check", no_work)
        assert main(["check-id", "--family", "gaussian", "--a1", "2",
                     "--a2", "1", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ConfigurationError",
                       "message": f"cannot write {tmp_path}: Is a directory"}
        assert list(tmp_path.iterdir()) == []

    def test_out_in_the_working_directory_is_written(self, tmp_path,
                                                     monkeypatch, capsys):
        # a bare file name probes ".", not an empty path
        monkeypatch.chdir(tmp_path)
        assert main(["check-id", "--family", "gaussian", "--a1", "2",
                     "--a2", "1", "--out", "id.json"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["id.json"]
        assert json.loads((tmp_path / "id.json").read_text())["verdict"]


def test_malformed_json_is_parse_error_with_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"T": 200,\n "dgp": }')
    for argv in (["mc", "--config", str(bad), "--out-dir", str(tmp_path)],
                 ["simulate", "--config", str(bad), "--T", "300",
                  "--out", str(tmp_path / "s.csv")],
                 ["render", str(bad)]):
        assert main(argv) == 1, argv
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ParseError"
        assert "line 2" in err["message"]


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


def test_readme_library_example_runs(capsys):
    block, = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out
    for name in ModelSpec(d=2).natural_names():
        assert f"'{name}': (" in printed


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
