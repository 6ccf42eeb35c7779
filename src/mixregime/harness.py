"""Seeded Monte Carlo experiments: replication loop, aggregation, tables.

One experiment = one (DGP design, fitted model, T, n_reps) cell.  Every
replication derives its seeds from (master_seed, rep_index), so runs are
reproducible in any order and adding replications never perturbs
existing ones.  Aggregation is a pure function of the persisted
replications.csv: summary.json is always recomputed from the file it
ships next to.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .dgp import HmmDgpParams, RegimeOutcome, seed_key, simulate_hmm, simulate_msar
from .errors import ConfigurationError, MixRegimeError, ValidationError, reject_unknown
from .estimator import EstimatorConfig, align_permutation, qml_estimate
from .inference import HacConfig, sandwich_cov
from .mixture import MixtureParams, ModelSpec, encode, natural_vector

CSV_SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one Monte Carlo table cell."""

    dgp: HmmDgpParams
    spec: ModelSpec
    T: int
    n_reps: int
    master_seed: int = 0
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    hac: HacConfig = field(default_factory=HacConfig)
    burn_in: int = 500
    label: str = ""
    out_dir: Optional[str] = None

    def validate(self) -> None:
        out = []
        if self.n_reps < 1:
            out.append(f"n_reps must be >= 1, got {self.n_reps}")
        if self.T < 50:
            out.append(f"T must be >= 50, got {self.T}")
        if self.burn_in < 0:
            out.append(f"burn_in must be >= 0, got {self.burn_in}")
        seed = self.master_seed
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or seed < 0):
            out.append(f"master_seed must be a non-negative int, got {seed!r}")
        if self.estimator.seed != 0:  # replications seed from (master_seed, rep)
            out.append(f"estimator.seed must be 0, got {self.estimator.seed}; "
                       "vary master_seed instead")
        if out:
            raise ValidationError(out)
        self.dgp.validate()
        if self.spec.d != self.dgp.d:
            raise ConfigurationError(f"spec.d = {self.spec.d} disagrees with the "
                                     f"DGP's {self.dgp.d} regimes")
        if (self.spec.form == "msar") != (self.dgp.ar_coefficient is not None):
            raise ConfigurationError(f"spec.form {self.spec.form!r} disagrees with "
                                     "dgp.ar_coefficient (set only for 'msar')")
        self.estimator.validate()
        self.hac.validate()

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "dgp": self.dgp.to_json(),
            "spec": self.spec.to_json(),
            "T": self.T,
            "n_reps": self.n_reps,
            "master_seed": self.master_seed,
            "estimator": self.estimator.to_json(),
            "hac": self.hac.to_json(),
            "burn_in": self.burn_in,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        reject_unknown(obj, [f.name for f in dataclasses.fields(cls)], "experiment")
        return cls(
            dgp=HmmDgpParams.from_json(obj["dgp"]),
            spec=ModelSpec.from_json(obj["spec"]),
            T=int(obj["T"]),
            n_reps=int(obj["n_reps"]),
            master_seed=obj.get("master_seed", 0),
            estimator=EstimatorConfig.from_json(obj.get("estimator", {})),
            hac=HacConfig.from_json(obj.get("hac", {})),
            burn_in=int(obj.get("burn_in", 500)),
            label=obj.get("label", ""),
            out_dir=obj.get("out_dir"),
        )


def load_experiment_config(path) -> ExperimentConfig:
    with open(path) as fh:
        obj = json.load(fh)
    cfg = ExperimentConfig.from_json(obj)
    cfg.validate()
    return cfg


def true_reference(cfg: ExperimentConfig) -> MixtureParams:
    """True outcome coefficients packaged as mixture components.

    Used as the alignment reference; the weight slots are filled uniformly
    because no finite-T truth exists for them (the fitted weights estimate
    a design-dependent limit, not a DGP parameter).
    """
    d = cfg.dgp.d
    if cfg.spec.form == "msar":
        phi = cfg.dgp.ar_coefficient
        comps = [RegimeOutcome(c.mu, phi, c.sigma) for c in cfg.dgp.outcomes]
    else:
        comps = [RegimeOutcome(c.mu, c.gamma, c.sigma) for c in cfg.dgp.outcomes]
    return MixtureParams(components=comps, weights=np.full(d, 1.0 / d))


def _truth_vector(cfg: ExperimentConfig) -> np.ndarray:
    """Natural-scale truth with NaN in the weight slots (no truth there)."""
    ref = true_reference(cfg)
    vec = natural_vector(ref, cfg.spec)
    vec[-cfg.dgp.d:] = np.nan
    return vec


@dataclass
class ReplicationRecord:
    """Flat per-replication result, one CSV row."""

    rep_index: int
    ok: bool
    converged: bool
    degenerate: bool
    loglik: float
    start_index: int
    n_em_iter: int
    n_qn_iter: int
    hac_bandwidth: float
    hac_floored: bool
    align_dist_pre: float
    align_dist_post: float
    estimates: np.ndarray  # natural scale, aligned; NaN when failed
    std_errors: np.ndarray
    truth: np.ndarray
    elapsed_s: float
    error: str = ""


def _stack_distance(a: MixtureParams, b: MixtureParams) -> float:
    diff = np.column_stack([a.mu_vec - b.mu_vec, a.gamma_vec - b.gamma_vec,
                            a.sigma_vec - b.sigma_vec])
    return float((diff ** 2).sum())


def run_replication(cfg: ExperimentConfig, rep_index: int) -> ReplicationRecord:
    """Simulate, fit, align to the truth, attach robust SEs.

    The failures the pipeline expects (package errors, singular linear
    algebra, floating-point errors) are captured in the record (ok=False
    with the error message); any other exception propagates.
    """
    cfg.validate()
    if not 0 <= rep_index < cfg.n_reps:
        raise ValidationError(f"rep_index must lie in [0, {cfg.n_reps}), "
                              f"got {rep_index}")
    t0 = time.perf_counter()
    truth = _truth_vector(cfg)
    n_nat = len(truth)
    nan_vec = np.full(n_nat, np.nan)

    sim_seed = seed_key(cfg.master_seed) + (rep_index, 0)
    est_seed = seed_key(cfg.master_seed) + (rep_index, 1)
    try:
        if cfg.spec.form == "msar":
            sample = simulate_msar(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                                   seed=sim_seed)
        else:
            sample = simulate_hmm(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                                  seed=sim_seed)
        est_cfg = dataclasses.replace(cfg.estimator, seed=est_seed)
        result = qml_estimate(sample, cfg.spec, est_cfg)

        ref = true_reference(cfg)
        aligned = align_permutation(result.theta_hat, ref)
        dist_pre = _stack_distance(result.theta_hat, ref)
        dist_post = _stack_distance(aligned, ref)

        hac_info = {}
        cov, ses = sandwich_cov(encode(aligned, cfg.spec), sample, cfg.spec,
                                cfg.hac, info=hac_info)
        degenerate = bool(
            (aligned.sigma_vec <= cfg.estimator.sigma_floor * (1 + 1e-9)).any()
            or (aligned.weights < 1e-6).any())
        return ReplicationRecord(
            rep_index=rep_index,
            ok=True,
            converged=result.converged,
            degenerate=degenerate,
            loglik=result.loglik,
            start_index=result.start_index,
            n_em_iter=result.n_iterations["em"],
            n_qn_iter=result.n_iterations["qn"],
            hac_bandwidth=float(hac_info.get("bandwidth", np.nan)),
            hac_floored=bool(hac_info.get("floored", False)),
            align_dist_pre=dist_pre,
            align_dist_post=dist_post,
            estimates=natural_vector(aligned, cfg.spec),
            std_errors=np.asarray(ses, dtype=float),
            truth=truth,
            elapsed_s=time.perf_counter() - t0,
        )
    except (MixRegimeError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return ReplicationRecord(
            rep_index=rep_index, ok=False, converged=False, degenerate=False,
            loglik=float("nan"), start_index=-1, n_em_iter=0, n_qn_iter=0,
            hac_bandwidth=float("nan"), hac_floored=False,
            align_dist_pre=float("nan"), align_dist_post=float("nan"),
            estimates=nan_vec.copy(), std_errors=nan_vec.copy(), truth=truth,
            elapsed_s=time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_columns(names: List[str]) -> List[str]:
    head = ["rep_index", "design", "T", "ok", "converged", "degenerate",
            "loglik", "start_index", "n_em_iter", "n_qn_iter",
            "hac_bandwidth", "hac_floored", "align_dist_pre", "align_dist_post",
            "elapsed_s"]
    return (head + [f"est_{n}" for n in names] + [f"se_{n}" for n in names]
            + [f"true_{n}" for n in names] + ["error"])


def write_replications_csv(path, records: List[ReplicationRecord],
                           cfg: ExperimentConfig) -> None:
    names = cfg.spec.natural_names()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_columns(names))
        for rec in sorted(records, key=lambda r: r.rep_index):
            row = [str(rec.rep_index), cfg.label, str(cfg.T),
                   str(int(rec.ok)), str(int(rec.converged)),
                   str(int(rec.degenerate)), _fmt(rec.loglik),
                   str(rec.start_index), str(rec.n_em_iter), str(rec.n_qn_iter),
                   _fmt(rec.hac_bandwidth), str(int(rec.hac_floored)),
                   _fmt(rec.align_dist_pre), _fmt(rec.align_dist_post),
                   _fmt(rec.elapsed_s)]
            row += [_fmt(v) for v in rec.estimates]
            row += [_fmt(v) for v in rec.std_errors]
            row += [_fmt(v) for v in rec.truth]
            row.append(rec.error)
            writer.writerow(row)


@dataclass
class McSummary:
    """Bias / SD / mean SE / SD-over-SE per parameter for one experiment."""

    design: str
    T: int
    n_reps: int
    n_used: int
    n_converged: int
    n_degenerate: int
    n_failed: int
    params: dict  # name -> {"bias", "sd", "mean_se", "sd_se_ratio"}

    def to_json(self) -> dict:
        return {
            "design": self.design, "T": self.T, "n_reps": self.n_reps,
            "n_used": self.n_used, "n_converged": self.n_converged,
            "n_degenerate": self.n_degenerate, "n_failed": self.n_failed,
            "params": {k: dict(v) for k, v in self.params.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "McSummary":
        return cls(design=obj["design"], T=int(obj["T"]), n_reps=int(obj["n_reps"]),
                   n_used=int(obj["n_used"]), n_converged=int(obj["n_converged"]),
                   n_degenerate=int(obj["n_degenerate"]),
                   n_failed=int(obj["n_failed"]),
                   params={k: dict(v) for k, v in obj["params"].items()})


def summarize_csv(path) -> McSummary:
    """Aggregate a replications.csv into an McSummary.

    This is the only aggregation path: run_experiment writes the CSV and
    then calls this, so regenerating the summary from the file always
    reproduces it bit for bit.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValidationError(f"no replication rows in {path}")
    names = [c[len("est_"):] for c in reader.fieldnames if c.startswith("est_")]
    design = rows[0]["design"]
    t_len = int(rows[0]["T"])
    n_reps = len(rows)
    n_failed = sum(1 for r in rows if r["ok"] != "1")
    n_converged = sum(1 for r in rows if r["ok"] == "1" and r["converged"] == "1")
    n_degenerate = sum(1 for r in rows if r["ok"] == "1" and r["degenerate"] == "1")
    used = [r for r in rows if r["ok"] == "1" and r["converged"] == "1"
            and r["degenerate"] == "0"]

    params = {}
    for name in names:
        est = np.array([float(r[f"est_{name}"]) for r in used])
        ses = np.array([float(r[f"se_{name}"]) for r in used])
        true_vals = np.array([float(r[f"true_{name}"]) for r in used])
        entry = {"bias": None, "sd": None, "mean_se": None, "sd_se_ratio": None}
        if len(est) >= 2:
            sd = float(est.std(ddof=1))
            mean_se = float(ses.mean())
            entry["sd"] = sd
            entry["mean_se"] = mean_se
            entry["sd_se_ratio"] = sd / mean_se if mean_se > 0 else None
            if np.isfinite(true_vals).all():
                entry["bias"] = float((est - true_vals).mean())
        params[name] = entry
    return McSummary(design=design, T=t_len, n_reps=n_reps, n_used=len(used),
                     n_converged=n_converged, n_degenerate=n_degenerate,
                     n_failed=n_failed, params=params)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> McSummary:
    """Run all replications, persist replications.csv and summary.json.

    Each record depends only on (master_seed, rep_index), so the CSV is
    the same in any order; the summary is recomputed from that CSV.
    """
    cfg.validate()
    chosen = out_dir if out_dir is not None else cfg.out_dir
    if chosen is None:
        raise ConfigurationError("no output directory configured")
    target = Path(chosen)
    probe = target / ".write_probe"
    try:
        target.mkdir(parents=True, exist_ok=True)
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigurationError(f"output directory {target} not writable: "
                                 f"{exc}") from exc

    records = [run_replication(cfg, i) for i in range(cfg.n_reps)]
    csv_path = target / "replications.csv"
    write_replications_csv(csv_path, records, cfg)
    summary = summarize_csv(csv_path)
    payload = {"schema_version": CSV_SCHEMA_VERSION,
               "config": cfg.to_json(),
               "summary": summary.to_json()}
    with open(target / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


_GROUP_RANK = {"mu": 0, "gamma": 1, "phi": 1, "sigma": 2, "weight": 3}


def _display_name(name: str) -> str:
    base, _, idx = name.rpartition("_")
    return f"{base}({idx})" if base else name


def _canonical_param_order(names) -> list:
    def key(name):
        base, _, idx = name.rpartition("_")
        if not base:
            base, idx = name, "0"
        return (_GROUP_RANK.get(base, 9), int(idx))

    return sorted(names, key=key)


def render_table(summaries: List[McSummary]) -> str:
    """Fixed-width text table: Bias block then SD/SE block.

    Designs appear as column panels (in first-seen order), T values as
    rows within each block, parameters as columns within each panel,
    values to 3 decimals.  Weight columns are omitted: the tables report
    the outcome-equation parameters.
    """
    if not summaries:
        raise ValidationError("no summaries to render")
    name_sets = {tuple(sorted(s.params.keys())) for s in summaries}
    if len(name_sets) != 1:
        raise ValidationError("summaries have mismatched parameter sets")
    names = _canonical_param_order(
        n for n in summaries[0].params if not n.startswith("weight_"))

    designs = []
    for s in summaries:
        if s.design not in designs:
            designs.append(s.design)
    by_design = {d: sorted((s for s in summaries if s.design == d),
                           key=lambda s: s.T) for d in designs}
    t_values = sorted({s.T for s in summaries})

    col_w = max(8, max(len(_display_name(n)) for n in names) + 1)
    label_w = 6
    t_w = 6
    panel_w = col_w * len(names)

    def center(text, width):
        return text.center(width)

    lines = []
    header1 = " " * (label_w + t_w) + "".join(center(d, panel_w) for d in designs)
    header2 = ("Block".ljust(label_w) + "T".rjust(t_w)
               + "".join("".join(_display_name(n).rjust(col_w) for n in names)
                         for _ in designs))
    rule = "-" * len(header2)
    lines += [header1.rstrip(), header2, rule]

    def value_for(summary, name, kind):
        if summary is None:
            return None
        entry = summary.params[name]
        return entry["bias"] if kind == "bias" else entry["sd_se_ratio"]

    for kind, block_label in (("bias", "Bias"), ("ratio", "SD/SE")):
        for i, t_val in enumerate(t_values):
            cells = []
            for d in designs:
                match = [s for s in by_design[d] if s.T == t_val]
                summary = match[0] if match else None
                for n in names:
                    v = value_for(summary, n, kind)
                    cells.append((f"{v:.3f}" if v is not None else "--").rjust(col_w))
            label = block_label if i == 0 else ""
            lines.append(label.ljust(label_w) + str(t_val).rjust(t_w) + "".join(cells))
        if kind == "bias":
            lines.append(rule)
    return "\n".join(lines) + "\n"
