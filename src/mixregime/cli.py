"""Command-line entry points.

Subcommands: simulate, fit, mc, oracle, check-id, render.  simulate and
oracle take the model from the DGP file (one that sets ar_coefficient is
the switching AR, fitted by the shared-slope mixture) and burn in
DEFAULT_BURN_IN values.  A flag adds no rule: argparse only splits argv, and
each value's owner judges it (seed_key the seed, ModelSpec --d and --form,
HacConfig --bandwidth, the simulator --T, the oracle --n-sim, cf_ratio_check
--a1, --a2 and --tau-grid), before any data is read.  Every command exits 0
on success; failures print a machine-readable JSON object to stderr
({"error": {"type": ..., "message": ...}}) and exit nonzero: 1 for the
package's own errors, among them a value its owner refuses, a file that
cannot be read and an --out that cannot be written, which is checked before
any work, and 2 for anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dgp import (HmmDgpParams, load_sample, save_sample, seed_key,
                  simulate_hmm, simulate_msar)
from .errors import (MixRegimeError, ValidationError, check_output, read_json,
                     write_json, write_text)
from .estimator import EstimatorConfig, qml_estimate
from .harness import (ExperimentConfig, McSummary, load_experiment_config,
                      render_table, robust_cov, run_experiment)
from .inference import HacConfig
from .mixture import ModelSpec, natural_vector
from .oracle import (MAX_PATH_LEN, cf_ratio_check, kl_check,
                     perturbation_grid, pseudo_true_msar, pseudo_true_weights)


def _cmd_simulate(args) -> int:
    params = HmmDgpParams.from_json(read_json(args.config))
    seed = seed_key(args.seed)
    spec = ModelSpec.for_dgp(params)
    sim = simulate_msar if spec.form == "msar" else simulate_hmm
    sample = sim(params, T=args.T, seed=seed)
    save_sample(sample, args.out)
    write_json({"out": str(args.out), "T": sample.T, "variant": spec.form,
                "seed": seed, "params_hash": params.params_hash()})
    return 0


def _cmd_fit(args) -> int:
    spec = ModelSpec(d=args.d, form=args.form)
    seed = seed_key(args.seed)
    cfg_obj = read_json(args.config) if args.config else {}
    if not isinstance(cfg_obj, dict):
        raise ValidationError(f"fit config must be a JSON object, "
                              f"got {type(cfg_obj).__name__}")
    if "dgp" in cfg_obj:  # an experiment config, checked as mc checks it
        experiment = ExperimentConfig.from_json(cfg_obj)
        est_cfg, hac_cfg = experiment.estimator, experiment.hac
    else:  # estimator settings, with an optional "hac" block
        est_cfg = EstimatorConfig.from_json(
            {k: v for k, v in cfg_obj.items() if k != "hac"})
        hac_cfg = HacConfig.from_json(cfg_obj.get("hac", {}))
    if args.bandwidth is not None:  # replaces the configured HAC block
        hac_cfg = HacConfig.from_json({"bandwidth": args.bandwidth})

    sample = load_sample(args.data)
    result = qml_estimate(sample, spec, est_cfg, seed=seed)
    hac_info = {}
    cov, ses = robust_cov(result.theta_hat, result.degenerate, sample, spec,
                          hac_cfg, info=hac_info)

    write_json({
        **result.to_json(),
        "covariance": cov,
        "std_errors": ses,
        "natural_names": spec.natural_names(),
        "natural_estimates": natural_vector(result.theta_hat, spec),
        "se_scale": "natural",
        "hac": {"config": hac_cfg, **hac_info},
        "spec": spec,
        "data": str(args.data),
        "n_obs": sample.T,
    }, args.out)
    if args.out:
        print(json.dumps({"out": str(args.out), "converged": result.converged,
                          "loglik": result.loglik}))
    return 0


def _cmd_mc(args) -> int:
    cfg = load_experiment_config(args.config)
    summary = run_experiment(cfg, out_dir=args.out_dir)
    write_json(summary)
    return 0


def _cmd_oracle(args) -> int:
    params = HmmDgpParams.from_json(read_json(args.config))
    seed = seed_key(args.seed)
    result = pseudo_true_msar(params, n_sim=args.n_sim, seed=seed)
    spec = ModelSpec.for_dgp(params)
    kl = None  # the perturbation grid is defined for d = 2 only
    if spec.d == 2:
        # the KL check draws a path the optimizer never saw
        kl_seed = [*seed, result.n_paths]
        grid = perturbation_grid(result.theta_star, form=spec.form)
        report = kl_check(params, result.theta_star, grid,
                          n_sim=min(args.n_sim, MAX_PATH_LEN), seed=kl_seed)
        kl = {**report.to_json(), "seed": kl_seed,
              "all_dominated_3se": report.all_dominated(3.0)}
    weights = pseudo_true_weights(params, n_sim=min(args.n_sim, MAX_PATH_LEN),
                                  seed=seed)
    write_json({**result.to_json(), "kl_check": kl, "weights": weights},
               args.out)
    return 0


def _cmd_check_id(args) -> int:
    report = cf_ratio_check(args.family, args.a1, args.a2, args.tau_grid)
    write_json(report, args.out)
    return 0


def _load_summary(path) -> McSummary:
    path = Path(path)
    if path.is_dir():
        path = path / "summary.json"
    obj = read_json(path)
    if isinstance(obj, dict):
        obj = obj.get("summary", obj)
    return McSummary.from_json(obj)


def _cmd_render(args) -> int:
    summaries = [_load_summary(p) for p in args.summaries]
    write_text(render_table(summaries), args.out)
    return 0


def _value(text: str):
    """The int or the float that `text` spells, else `text` itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixregime",
        description="Simulate regime-switching processes, fit misspecified "
                    "mixture models by QML with robust standard errors, and "
                    "run the Monte Carlo and oracle checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a dataset to CSV")
    p_sim.add_argument("--config", required=True,
                       help="DGP parameter JSON file; one that sets "
                            "ar_coefficient simulates the switching AR")
    p_sim.add_argument("--T", type=_value, required=True)
    p_sim.add_argument("--seed", type=_value, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the mixture model to a CSV sample")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--d", type=_value, required=True, help="number of components")
    p_fit.add_argument("--form", default="hmm", help="'hmm' or 'msar'")
    p_fit.add_argument("--config", help="estimator/HAC settings JSON file")
    p_fit.add_argument("--out", help="write the result JSON here")
    p_fit.add_argument("--bandwidth", type=_value,
                       help="HAC bandwidth: 'auto' or a number")
    p_fit.add_argument("--seed", type=_value, default=0,
                       help="seed of the randomized EM starts")
    p_fit.set_defaults(func=_cmd_fit)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo experiment")
    p_mc.add_argument("--config", required=True, help="experiment JSON file")
    p_mc.add_argument("--out-dir", help="override the configured output directory")
    p_mc.set_defaults(func=_cmd_mc)

    p_or = sub.add_parser(
        "oracle", help="the QML limit point of the mixture fitted to a DGP, "
                       "maximized on n-sim simulated values; then the ergodic "
                       "weights and, with d = 2, its perturbation-grid check, "
                       "each on its own path of min(n-sim, 10^6) values")
    p_or.add_argument("--config", required=True, help="DGP parameter JSON file")
    p_or.add_argument("--n-sim", type=_value, required=True)
    p_or.add_argument("--seed", type=_value, default=0)
    p_or.add_argument("--out")
    p_or.set_defaults(func=_cmd_oracle)

    p_id = sub.add_parser("check-id",
                          help="characteristic-function ratio decay check")
    p_id.add_argument("--family", required=True,
                      help="'gaussian' or 'student-t:<nu>'")
    p_id.add_argument("--a1", type=_value, required=True)
    p_id.add_argument("--a2", type=_value, required=True)
    p_id.add_argument("--tau-grid", help="comma-separated tau values",
                      type=lambda text: list(map(_value, text.split(","))))
    p_id.add_argument("--out")
    p_id.set_defaults(func=_cmd_check_id)

    p_rt = sub.add_parser("render", help="render summaries as a text table")
    p_rt.add_argument("summaries", nargs="+",
                      help="summary.json files or experiment directories")
    p_rt.add_argument("--out")
    p_rt.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):  # before any work, not after it
            check_output(args.out)
        return args.func(args)
    except MixRegimeError as exc:
        print(json.dumps({"error": exc.to_json()}), file=sys.stderr)
        return 1
    except Exception as exc:  # anything else still yields structured output
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
