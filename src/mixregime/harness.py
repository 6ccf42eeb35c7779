"""Seeded Monte Carlo experiments: replication loop, aggregation, tables.

One experiment = one (DGP design, T, n_reps) cell; the fitted model
follows from the design (ExperimentConfig.spec).  Every
replication derives its seeds from (master_seed, rep_index), so runs are
reproducible in any order and adding replications never perturbs
existing ones.  Aggregation is a pure function of the persisted
replications.csv: summary.json is always recomputed from the file it
ships next to.
"""

from __future__ import annotations

import dataclasses
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .dgp import (DEFAULT_BURN_IN, HmmDgpParams, seed_key, simulate_hmm,
                  simulate_msar)
from .errors import (ConfigurationError, JsonRecord, MixRegimeError,
                     ParseError, ValidationError, check_keys, check_types,
                     csv_cells, csv_number, read_csv, read_json, write_csv,
                     write_json)
from .estimator import EstimatorConfig, align_permutation, qml_estimate
from .inference import HacConfig, sandwich_cov
from .mixture import (MixtureParams, ModelSpec, encode, natural_vector,
                      true_reference)

CSV_SCHEMA_VERSION = 2


@dataclass
class ExperimentConfig(JsonRecord):
    """Everything needed to reproduce one Monte Carlo table cell."""

    dgp: HmmDgpParams
    T: int
    n_reps: int
    master_seed: int = 0
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    hac: HacConfig = field(default_factory=HacConfig)
    burn_in: int = DEFAULT_BURN_IN
    label: str = ""
    out_dir: Optional[str] = None

    @property
    def spec(self) -> ModelSpec:
        """The fitted mixture, as ModelSpec.for_dgp picks it."""
        return ModelSpec.for_dgp(self.dgp)

    def validate(self) -> None:
        check_types(self, ("T", "n_reps", "burn_in", "master_seed"))
        out = []
        if not isinstance(self.label, str):
            out.append(f"label must be a string, got {self.label!r}")
        if not isinstance(self.out_dir, (str, type(None))):
            out.append(f"out_dir must be a string or null, "
                       f"got {self.out_dir!r}")
        if self.n_reps < 1:
            out.append(f"n_reps must be >= 1, got {self.n_reps}")
        if self.T < 50:
            out.append(f"T must be >= 50, got {self.T}")
        if self.burn_in < 0:
            out.append(f"burn_in must be >= 0, got {self.burn_in}")
        if self.master_seed < 0:
            out.append(f"master_seed must be >= 0, got {self.master_seed}")
        if out:
            raise ValidationError(out)
        self.dgp.validate()
        self.estimator.validate()
        self.hac.validate()

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        check_keys(obj, "experiment", ("dgp", "T", "n_reps"),
                   [f.name for f in dataclasses.fields(cls)])
        return cls(**{
            **obj,
            "dgp": HmmDgpParams.from_json(obj["dgp"]),
            "estimator": EstimatorConfig.from_json(obj.get("estimator", {})),
            "hac": HacConfig.from_json(obj.get("hac", {})),
        })


def load_experiment_config(path) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(read_json(path))
    cfg.validate()
    return cfg


@dataclass(kw_only=True)
class ReplicationRecord:
    """Flat per-replication result, one CSV row, its fields in column order.

    The defaults are a failed replication's values.
    """

    rep_index: int
    ok: bool = False
    converged: bool = False
    degenerate: bool = False
    loglik: float = float("nan")
    start_index: int = -1
    n_em_iter: int = 0
    n_qn_iter: int = 0
    hac_bandwidth: float = float("nan")
    align_dist_pre: float = float("nan")
    align_dist_post: float = float("nan")
    elapsed_s: float
    estimates: np.ndarray  # natural scale, aligned; NaN when failed
    std_errors: np.ndarray
    truth: np.ndarray  # NaN in the weight slots, which have no truth
    error: str = ""


# replications.csv columns, in order: the record's fields, with "design" and
# "T" from the experiment config after rep_index.  estimates, std_errors and
# truth take one column per natural parameter, named with these prefixes.
_CSV_FIELDS = ("rep_index", "design", "T", *(
    f.name for f in dataclasses.fields(ReplicationRecord)[1:]))
_CSV_PREFIXES = {"estimates": "est_", "std_errors": "se_", "truth": "true_"}


def _stack_distance(a: MixtureParams, b: MixtureParams) -> float:
    return float(((a.outcome_matrix - b.outcome_matrix) ** 2).sum())


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
    spec = cfg.spec
    ref = true_reference(cfg.dgp)
    truth = natural_vector(ref, spec)
    truth[-cfg.dgp.d:] = np.nan
    nan_vec = np.full(len(truth), np.nan)
    sim_seed = seed_key(cfg.master_seed) + (rep_index, 0)
    est_seed = seed_key(cfg.master_seed) + (rep_index, 1)
    try:
        if spec.form == "msar":
            sample = simulate_msar(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                                   seed=sim_seed)
        else:
            sample = simulate_hmm(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                                  seed=sim_seed)
        result = qml_estimate(sample, spec, cfg.estimator, seed=est_seed)

        aligned = align_permutation(result.theta_hat, ref)
        dist_pre = _stack_distance(result.theta_hat, ref)
        dist_post = _stack_distance(aligned, ref)

        hac_info = {}
        ses = nan_vec.copy()
        if not result.degenerate:
            _, ses = sandwich_cov(encode(aligned, spec), sample, spec, cfg.hac,
                                  info=hac_info)
        return ReplicationRecord(
            rep_index=rep_index,
            ok=True,
            converged=result.converged,
            degenerate=result.degenerate,
            loglik=result.loglik,
            start_index=result.start_index,
            n_em_iter=result.n_iterations["em"],
            n_qn_iter=result.n_iterations["qn"],
            hac_bandwidth=float(hac_info.get("bandwidth", np.nan)),
            align_dist_pre=dist_pre,
            align_dist_post=dist_post,
            estimates=natural_vector(aligned, spec),
            std_errors=np.asarray(ses, dtype=float),
            truth=truth,
            elapsed_s=time.perf_counter() - t0,
        )
    except (MixRegimeError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return ReplicationRecord(
            rep_index=rep_index,
            estimates=nan_vec.copy(), std_errors=nan_vec.copy(), truth=truth,
            elapsed_s=time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
        )


def write_replications_csv(path, records: List[ReplicationRecord],
                           cfg: ExperimentConfig) -> None:
    names = cfg.spec.natural_names()
    header = []
    for name in _CSV_FIELDS:
        prefix = _CSV_PREFIXES.get(name)
        header += [name] if prefix is None else [prefix + n for n in names]
    from_cfg = {"design": cfg.label, "T": cfg.T}
    write_csv(path, header, (
        [cell for name in _CSV_FIELDS for cell in csv_cells(
            from_cfg[name] if name in from_cfg else getattr(rec, name))]
        for rec in sorted(records, key=lambda r: r.rep_index)))


_PARAM_STATS = ("bias", "sd", "mean_se", "sd_se_ratio")


@dataclass
class McSummary(JsonRecord):
    """Bias / SD / mean SE / SD-over-SE per parameter for one experiment."""

    design: str
    T: int
    n_reps: int
    n_used: int
    n_converged: int
    n_degenerate: int
    n_failed: int
    params: dict  # name -> {stat: value for stat in _PARAM_STATS}

    @classmethod
    def from_json(cls, obj: dict) -> "McSummary":
        check_keys(obj, "summary", [f.name for f in dataclasses.fields(cls)])
        summary = cls(**obj)
        check_types(summary, ("T", "n_reps", "n_used", "n_converged",
                              "n_degenerate", "n_failed"))
        if not isinstance(summary.design, str):
            raise ValidationError(f"summary design must be a string, "
                                  f"got {summary.design!r}")
        if not isinstance(summary.params, dict):
            raise ValidationError(f"summary params must be a JSON object, "
                                  f"got {type(summary.params).__name__}")
        for name, entry in summary.params.items():
            check_keys(entry, f"summary params.{name}", _PARAM_STATS)
            for stat, value in entry.items():
                # null stands for a statistic too few rows define
                if value is not None and (isinstance(value, bool) or
                                          not isinstance(value, numbers.Real)):
                    raise ValidationError(
                        f"summary params.{name}.{stat} must be a real number "
                        f"or null, got {value!r}")
        return summary


def summarize_csv(path) -> McSummary:
    """Aggregate a replications.csv into an McSummary.

    This is the only aggregation path: run_experiment writes the CSV and
    then calls this, so regenerating the summary from the file always
    reproduces it bit for bit.  A row whose field count differs from the
    header's, a missing column and a cell that is not a number are each a
    ParseError that names the column and the line.
    """
    rows = read_csv(path)
    header = next(rows)
    rows = [(line, dict(zip(header, row))) for line, row in rows]
    if not rows:
        raise ValidationError(f"no replication rows in {path}")
    names = [c[len("est_"):] for c in header if c.startswith("est_")]
    for column in ("design", "T", "ok", "converged", "degenerate",
                   *(f"{kind}_{name}" for name in names
                     for kind in ("se", "true"))):
        if column not in header:
            raise ParseError(f"missing column {column!r}", line=1)

    line, first = rows[0]
    t_len = csv_number(first["T"], "T", line, int)
    ok = [r for _, r in rows if r["ok"] == "1"]
    n_converged = sum(r["converged"] == "1" for r in ok)
    n_degenerate = sum(r["degenerate"] == "1" for r in ok)
    used = [(line, r) for line, r in rows if r["ok"] == "1"
            and r["converged"] == "1" and r["degenerate"] == "0"]

    params = {}
    for name in names:
        est, ses, true_vals = (
            np.array([csv_number(r[column], column, line) for line, r in used])
            for column in (f"est_{name}", f"se_{name}", f"true_{name}"))
        entry = dict.fromkeys(_PARAM_STATS)
        if len(est) >= 2:
            sd = float(est.std(ddof=1))
            mean_se = float(ses.mean())
            entry["sd"] = sd
            entry["mean_se"] = mean_se
            entry["sd_se_ratio"] = sd / mean_se if mean_se > 0 else None
            if np.isfinite(true_vals).all():
                entry["bias"] = float((est - true_vals).mean())
        params[name] = entry
    return McSummary(design=first["design"], T=t_len, n_reps=len(rows),
                     n_used=len(used), n_converged=n_converged,
                     n_degenerate=n_degenerate, n_failed=len(rows) - len(ok),
                     params=params)


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
    write_json({"schema_version": CSV_SCHEMA_VERSION, "config": cfg,
                "summary": summary}, target / "summary.json")
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

    # the first summary of each (design, T), which reversed order leaves last
    cells = {(s.design, s.T): s for s in reversed(summaries)}
    designs = list(dict.fromkeys(s.design for s in summaries))
    t_values = sorted({s.T for s in summaries})

    col_w = max(8, max(len(_display_name(n)) for n in names) + 1)
    label_w = 6
    t_w = 6
    panel_w = col_w * len(names)

    lines = []
    header1 = " " * (label_w + t_w) + "".join(d.center(panel_w) for d in designs)
    header2 = ("Block".ljust(label_w) + "T".rjust(t_w)
               + "".join("".join(_display_name(n).rjust(col_w) for n in names)
                         for _ in designs))
    rule = "-" * len(header2)
    lines += [header1.rstrip(), header2, rule]

    for stat, block_label in (("bias", "Bias"), ("sd_se_ratio", "SD/SE")):
        for i, t_val in enumerate(t_values):
            row = []
            for d in designs:
                summary = cells.get((d, t_val))
                for n in names:
                    v = summary.params[n][stat] if summary else None
                    row.append((f"{v:.3f}" if v is not None else "--").rjust(col_w))
            label = block_label if i == 0 else ""
            lines.append(label.ljust(label_w) + str(t_val).rjust(t_w) + "".join(row))
        if stat == "bias":
            lines.append(rule)
    return "\n".join(lines) + "\n"
