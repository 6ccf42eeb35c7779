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
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .dgp import (DEFAULT_BURN_IN, HmmDgpParams, seed_faults, seed_key,
                  simulate_hmm, simulate_msar)
from .errors import (ConfigurationError, JsonRecord, MixRegimeError,
                     ParseError, ValidationError, check_writable, count_faults,
                     csv_cells, csv_number, key_faults, read_csv, read_json,
                     type_faults, write_csv, write_json)
from .estimator import EstimatorConfig, align_permutation, qml_estimate
from .inference import HacConfig, sandwich_cov
from .mixture import (MixtureParams, ModelSpec, encode, natural_vector,
                      true_reference)

CSV_SCHEMA_VERSION = 2


@dataclass
class ExperimentConfig(JsonRecord):
    """Everything needed to reproduce one Monte Carlo table cell."""

    json_label = "experiment"
    burn_in = DEFAULT_BURN_IN  # one for every experiment, so no config key

    dgp: HmmDgpParams
    T: int
    n_reps: int
    master_seed: int = 0
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    hac: HacConfig = field(default_factory=HacConfig)
    label: str = ""
    out_dir: Optional[str] = None

    @property
    def spec(self) -> ModelSpec:
        """The fitted mixture, as ModelSpec.for_dgp picks it."""
        return ModelSpec.for_dgp(self.dgp)

    def violations(self) -> list:
        return (count_faults(self.n_reps, "n_reps", 1)
                + count_faults(self.T, "T", 50)
                + seed_faults(self.master_seed, "master_seed")
                + self.dgp.violations() + self.estimator.violations()
                + self.hac.violations())


def load_experiment_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_json(read_json(path))


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


def robust_cov(params: MixtureParams, degenerate: bool, sample, spec: ModelSpec,
               hac: HacConfig, info: Optional[dict] = None):
    """(covariance, std_errors) of the natural parameters at the fitted
    `params`: the HAC sandwich, or NaN when the fit is degenerate, since a
    sigma at its floor leaves the Hessian singular."""
    if degenerate:
        n_nat = len(spec.natural_names())
        return np.full((n_nat, n_nat), np.nan), np.full(n_nat, np.nan)
    return sandwich_cov(encode(params, spec), sample, spec, hac, info=info)


def run_replication(cfg: ExperimentConfig, rep_index: int) -> ReplicationRecord:
    """Simulate, fit, align to the truth, attach robust SEs.

    The failures the pipeline expects (package errors, singular linear
    algebra, floating-point errors) are captured in the record (ok=False
    with the error message); any other exception propagates.
    """
    cfg.validate()
    faults = count_faults(rep_index, "rep_index", 0)
    if faults or rep_index >= cfg.n_reps:
        raise ValidationError(faults or f"rep_index must lie in "
                              f"[0, {cfg.n_reps}), got {rep_index}")
    t0 = time.perf_counter()
    spec = cfg.spec
    ref = true_reference(cfg.dgp)
    truth = natural_vector(ref, spec)
    truth[-cfg.dgp.d:] = np.nan
    nan_vec = np.full(len(truth), np.nan)
    sim_seed = seed_key(cfg.master_seed) + (rep_index, 0)
    est_seed = seed_key(cfg.master_seed) + (rep_index, 1)
    try:
        simulate = simulate_msar if spec.form == "msar" else simulate_hmm
        sample = simulate(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in, seed=sim_seed)
        result = qml_estimate(sample, spec, cfg.estimator, seed=est_seed)

        aligned = align_permutation(result.theta_hat, ref)
        dist_pre = _stack_distance(result.theta_hat, ref)
        dist_post = _stack_distance(aligned, ref)

        hac_info = {}
        _, ses = robust_cov(aligned, result.degenerate, sample, spec, cfg.hac,
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
            std_errors=ses,
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

    json_label = "summary"
    json_qualified = ("design", "params")

    design: str
    T: int
    n_reps: int
    n_used: int
    n_converged: int
    n_degenerate: int
    n_failed: int
    params: dict  # name -> {stat: value for stat in _PARAM_STATS}

    def violations(self) -> list:
        out = []
        for name, entry in self.params.items():
            what = f"summary params.{name}"
            # null stands for a statistic too few rows define
            out += key_faults(entry, what, _PARAM_STATS) or [
                fault for stat, value in entry.items()
                for fault in type_faults(value, Optional[float],
                                         f"{what}.{stat}")]
        return out


def summarize_csv(path) -> McSummary:
    """Aggregate a replications.csv into an McSummary.

    This is the only aggregation path: run_experiment writes the CSV and
    then calls this, so regenerating the summary from the file always
    reproduces it bit for bit.  A row whose field count differs from the
    header's, a missing column, a cell that is not a number, an ok,
    converged or degenerate cell other than 0 or 1, and a design or T other
    than the first row's are each a ParseError that names the column and
    the line.
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

    first_line, first = rows[0]
    t_len = csv_number(first["T"], "T", first_line, int)
    for line, r in rows:
        for column in ("ok", "converged", "degenerate"):
            if r[column] not in ("0", "1"):
                raise ParseError(f"column {column!r}: not 0 or 1: "
                                 f"{r[column]!r}", line=line)
        for column in ("design", "T"):
            if r[column] != first[column]:
                raise ParseError(f"column {column!r}: {r[column]!r} differs "
                                 f"from {first[column]!r} on line "
                                 f"{first_line}", line=line)
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
    check_writable(target, make=True)

    records = [run_replication(cfg, i) for i in range(cfg.n_reps)]
    csv_path = target / "replications.csv"
    write_replications_csv(csv_path, records, cfg)
    summary = summarize_csv(csv_path)
    write_json({"schema_version": CSV_SCHEMA_VERSION, "config": cfg,
                "summary": summary}, target / "summary.json")
    return summary


def _display_name(name: str) -> str:
    base, _, idx = name.rpartition("_")
    return f"{base}({idx})" if base else name


def render_table(summaries: List[McSummary]) -> str:
    """Fixed-width text table: Bias block then SD/SE block.

    Designs appear as column panels (in first-seen order), T values as
    rows within each block, parameters as columns within each panel,
    values to 3 decimals, in ModelSpec.natural_names order.  Weight
    columns are omitted: the tables report the outcome-equation parameters.
    Every summary must report the natural parameters of the model the
    first one reports: d components, one per mu_* key, in the switching-AR
    form when phi is present.
    """
    if not summaries:
        raise ValidationError("no summaries to render")
    first = summaries[0].params
    # d >= 1, so a summary without mu_* keys fails the set check below
    spec = ModelSpec(d=max(1, sum(n.startswith("mu_") for n in first)),
                     form="msar" if "phi" in first else "hmm")
    names = spec.natural_names()
    for s in summaries:
        if set(s.params) != set(names):
            raise ValidationError(
                f"summary ({s.design}, T = {s.T}) does not report the natural "
                f"parameters of d = {spec.d}, form {spec.form!r}: got "
                f"{sorted(s.params)}")
    names = [n for n in names if not n.startswith("weight_")]

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
