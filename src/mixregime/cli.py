"""Command-line entry points.

Subcommands: simulate, fit, mc, oracle (--msar for the switching-AR
limit point), check-id, render.  Every command exits 0 on success;
failures print a machine-readable JSON object to stderr
({"error": {"type": ..., "message": ...}}) and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dgp import HmmDgpParams, load_sample, save_sample, simulate_hmm, simulate_msar
from .errors import ConfigurationError, MixRegimeError
from .estimator import EstimatorConfig, qml_estimate
from .harness import McSummary, load_experiment_config, render_table, run_experiment
from .inference import HacConfig, sandwich_cov
from .mixture import ModelSpec, encode, natural_vector
from .oracle import (MAX_PATH_LEN, cf_ratio_check, kl_check,
                     perturbation_grid, pseudo_true_msar, pseudo_true_weights)


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _dump(obj: dict, out=None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_simulate(args) -> int:
    params = HmmDgpParams.from_json(_read_json(args.config))
    sim = simulate_msar if args.msar else simulate_hmm
    sample = sim(params, T=args.T, burn_in=args.burn_in, seed=args.seed)
    save_sample(sample, args.out)
    _dump({"out": str(args.out), "T": sample.T, "variant": sample.meta["variant"],
           "seed": sample.meta["seed"], "params_hash": sample.meta["params_hash"]})
    return 0


def _parse_bandwidth(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"--bandwidth must be 'auto' or a number, "
                                 f"got {text!r}") from None


def _cmd_fit(args) -> int:
    sample = load_sample(args.data)
    spec = ModelSpec(d=args.d, form=args.form)
    cfg_obj = _read_json(args.config) if args.config else {}
    if "estimator" in cfg_obj:  # an experiment config
        est_obj = cfg_obj["estimator"]
    else:  # estimator settings, with an optional "hac" block
        est_obj = {k: v for k, v in cfg_obj.items() if k != "hac"}
    est_cfg = EstimatorConfig.from_json(est_obj)
    hac_cfg = HacConfig.from_json(cfg_obj.get("hac", {}))
    if args.bandwidth is not None:
        hac_cfg.bandwidth = _parse_bandwidth(args.bandwidth)

    result = qml_estimate(sample, spec, est_cfg, seed=args.seed)
    hac_info = {}
    theta_free = encode(result.theta_hat, spec)
    cov, ses = sandwich_cov(theta_free, sample, spec, hac_cfg, info=hac_info)
    result.covariance = cov
    result.std_errors = ses

    payload = result.to_json()
    payload.update({
        "natural_names": spec.natural_names(),
        "natural_estimates": natural_vector(result.theta_hat, spec).tolist(),
        "se_scale": "natural",
        "hac": {"config": hac_cfg.to_json(), **hac_info},
        "spec": spec.to_json(),
        "data": str(args.data),
        "n_obs": sample.T,
    })
    _dump(payload, args.out)
    if args.out:
        print(json.dumps({"out": str(args.out), "converged": result.converged,
                          "loglik": result.loglik}))
    return 0


def _cmd_mc(args) -> int:
    cfg = load_experiment_config(args.config)
    summary = run_experiment(cfg, out_dir=args.out_dir)
    _dump(summary.to_json())
    return 0


def _cmd_oracle(args) -> int:
    params = HmmDgpParams.from_json(_read_json(args.config))
    if not args.msar:
        result = pseudo_true_weights(params, n_sim=args.n_sim,
                                     burn_in=args.burn_in, seed=args.seed)
        _dump(result.to_json(), args.out)
        return 0
    result = pseudo_true_msar(params, n_sim=args.n_sim, burn_in=args.burn_in,
                              seed=args.seed)
    # the KL check draws a path the optimizer never saw
    kl_seed = [args.seed, result.n_paths]
    report = kl_check(params, result.theta_star,
                      perturbation_grid(result.theta_star, form="msar"),
                      n_sim=min(args.n_sim, MAX_PATH_LEN), seed=kl_seed,
                      burn_in=args.burn_in)
    payload = result.to_json()
    payload["kl_check"] = {**report.to_json(), "seed": kl_seed,
                           "all_dominated_3se": report.all_dominated(3.0)}
    _dump(payload, args.out)
    return 0


def _cmd_check_id(args) -> int:
    grid = None
    if args.tau_grid:
        grid = np.array([float(v) for v in args.tau_grid.split(",")])
    report = cf_ratio_check(args.family, a1=args.a1, a2=args.a2, tau_grid=grid)
    _dump(report.to_json(), args.out)
    return 0


def _load_summary(path) -> McSummary:
    path = Path(path)
    if path.is_dir():
        path = path / "summary.json"
    obj = _read_json(path)
    return McSummary.from_json(obj.get("summary", obj))


def _cmd_render(args) -> int:
    summaries = [_load_summary(p) for p in args.summaries]
    text = render_table(summaries)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixregime",
        description="Simulate regime-switching processes, fit misspecified "
                    "mixture models by QML with robust standard errors, and "
                    "run the Monte Carlo and oracle checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a dataset to CSV")
    p_sim.add_argument("--config", required=True, help="DGP parameter JSON file")
    p_sim.add_argument("--T", type=int, required=True)
    p_sim.add_argument("--burn-in", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--msar", action="store_true",
                       help="use the switching-AR outcome equation")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the mixture model to a CSV sample")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--d", type=int, required=True, help="number of components")
    p_fit.add_argument("--form", choices=["hmm", "msar"], default="hmm")
    p_fit.add_argument("--config", help="estimator/HAC settings JSON file")
    p_fit.add_argument("--out", help="write the result JSON here")
    p_fit.add_argument("--bandwidth", help="HAC bandwidth: 'auto' or a number")
    p_fit.add_argument("--seed", type=int, default=0,
                       help="seed of the randomized EM starts")
    p_fit.set_defaults(func=_cmd_fit)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo experiment")
    p_mc.add_argument("--config", required=True, help="experiment JSON file")
    p_mc.add_argument("--out-dir", help="override the configured output directory")
    p_mc.set_defaults(func=_cmd_mc)

    p_or = sub.add_parser("oracle",
                          help="ergodic pseudo-true weights for a DGP, or "
                               "with --msar the switching-AR limit point")
    p_or.add_argument("--config", required=True, help="DGP parameter JSON file")
    p_or.add_argument("--n-sim", type=int, required=True)
    p_or.add_argument("--burn-in", type=int, default=500)
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--msar", action="store_true",
                      help="maximize the switching-AR quasi-likelihood at "
                           "n-sim and check it against a perturbation grid "
                           "on a fresh path of min(n-sim, 10^6) values")
    p_or.add_argument("--out")
    p_or.set_defaults(func=_cmd_oracle)

    p_id = sub.add_parser("check-id",
                          help="characteristic-function ratio decay check")
    p_id.add_argument("--family", required=True,
                      help="'gaussian' or 'student-t:<nu>'")
    p_id.add_argument("--a1", type=float, required=True)
    p_id.add_argument("--a2", type=float, required=True)
    p_id.add_argument("--tau-grid", help="comma-separated tau values")
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
