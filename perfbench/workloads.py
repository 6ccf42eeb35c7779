"""The benchmark's workloads: what one timed round runs, and how it is checked.

A run repeats whole rounds of the same operations until its time is up, so
the share of failed operations is the same in every run.  A round's output is
kept in memory; its content hash and the independent checks are computed
after the timed section.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
from bootstrap import ROOT

RESULTS = ROOT / "perfbench" / "results"

# mc-msar runs on the committed panel (master seed 2003).  Replications 65 and
# 171 stop in a lower basin than BFGS finds from the truth or theta*, so they
# are kept in every round as known failures; --seed picks which window of
# MSAR_BLOCK other replications joins them.
KEPT_FAILURES = (65, 171)
MSAR_BLOCK = 4
# Switching-AR limit point, a start for the optimum check (natural layout):
#   mixregime oracle --config configs/dgp_msar_rho0.json --msar \
#       --n-sim 10000000 --seed 0
THETA_STAR_MSAR = (0.6306555130746531, -1.0734691374352698, 0.965742389524026,
                   1.066285184162304, 1.0488171703829046, 0.6961014985131039,
                   0.3038985014868961)
HMM_REPS = 48
ORACLE_N_SIM = 1_000_000
KL_N_SIM = 1_000_000
WEIGHTS_N_SIM = 1_000_000
ORACLE_BURN_IN = 500


@dataclass
class Round:
    wall_s: float
    output: object
    solve_s: float  # one solving call: a replication, or pseudo_true_msar


@dataclass
class Verdict:
    failed: int = 0  # failed operations per round
    problems: list = field(default_factory=list)  # wrong outputs
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def msar_block(seed: int, n_reps: int) -> list:
    """MSAR_BLOCK consecutive replications of the panel, window chosen by seed.

    Seed 0 gives the leading block 0-3; KEPT_FAILURES are skipped here
    because every round runs them anyway.
    """
    pool = [r for r in range(n_reps) if r not in KEPT_FAILURES]
    start = (seed * MSAR_BLOCK) % len(pool)
    return [pool[(start + i) % len(pool)] for i in range(MSAR_BLOCK)]


def _natural(params, form: str) -> list:
    """Natural layout of a MixtureParams (components in their given order)."""
    slopes = [c.gamma for c in params.components]
    return ([c.mu for c in params.components]
            + (slopes if form == "hmm" else slopes[:1])
            + [c.sigma for c in params.components] + list(params.weights))


def _truth(dgp, form: str) -> list:
    comps = dgp.outcomes
    slopes = ([c.gamma for c in comps] if form == "hmm"
              else [dgp.ar_coefficient])
    return ([c.mu for c in comps] + slopes + [c.sigma for c in comps]
            + [0.5, 0.5])


def _csv_digest(text: str) -> str:
    """sha256 of replications.csv rows without the elapsed_s column."""
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index("elapsed_s")
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(v for i, v in enumerate(row) if i != drop).encode())
        h.update(b"\n")
    return h.hexdigest()


class _McWorkload:
    """Shared checks of Monte Carlo replications against their own samples."""

    form = ""

    def _check_rows(self, cfg, rows, verdict: Verdict) -> None:
        """rows: (rep, ok, converged, loglik, estimates, std_errors, error)."""
        simulate = (self.mr.simulate_msar if self.form == "msar"
                    else self.mr.simulate_hmm)
        starts = [("truth", _truth(cfg.dgp, self.form))]
        if self.form == "msar":
            starts.append(("theta*", THETA_STAR_MSAR))
        for rep, ok, converged, loglik, est, ses, error in rows:
            sample = simulate(cfg.dgp, T=cfg.T, burn_in=cfg.burn_in,
                              seed=(cfg.master_seed, rep, 0))
            y, x = checks.frame(sample.y, sample.w, self.form)
            got = checks.check_replication(rep, ok, converged, loglik, est, ses,
                                           y, x, self.form, starts)
            if got.failed:
                verdict.failed += 1
                why = "; ".join(got.reasons) + (f" ({error})" if error else "")
                verdict.notes.append(f"replication {rep} failed: {why}")
            else:
                verdict.problems += [f"replication {rep}: {p}"
                                     for p in got.problems]


class McMsar(_McWorkload):
    """Replications of msar_rho0_T1600 through harness.run_replication."""

    name = "mc-msar"
    form = "msar"

    def __init__(self, mr, loaded: dict, seed: int):
        self.mr = mr
        self.cfg = loaded["cfg"]
        self.reps = msar_block(seed, self.cfg.n_reps) + list(KEPT_FAILURES)
        self.ops = len(self.reps)

    def run_round(self) -> Round:
        harness = self.mr.harness
        t0 = time.perf_counter()
        records = [harness.run_replication(self.cfg, r) for r in self.reps]
        wall = time.perf_counter() - t0
        return Round(wall, records, wall / self.ops)

    def digest(self, records) -> str:
        path = RESULTS / f"{self.name}-replications.csv"
        self.mr.harness.write_replications_csv(path, records, self.cfg)
        return _csv_digest(path.read_text())

    def check(self, records) -> Verdict:
        verdict = Verdict()
        self._check_rows(self.cfg, [
            (r.rep_index, r.ok, r.converged, r.loglik, r.estimates,
             r.std_errors, r.error) for r in records], verdict)
        return verdict


class McHmm(_McWorkload):
    """hmm_rho0_omega0_T800 with n_reps cut, through harness.run_experiment.

    The panel keeps its committed master seed whatever the run's seed:
    run_experiment always runs the leading replications, and at other master
    seeds the estimator now and then misses the maximum (master seed 2,
    replication 47), which would make the failed share depend on the seed.
    """

    name = "mc-hmm"
    form = "hmm"

    def __init__(self, mr, loaded: dict, seed: int):
        self.mr = mr
        self.cfg = loaded["cfg"]
        self.cfg.n_reps = HMM_REPS
        self.ops = HMM_REPS
        self.out_dir = RESULTS / self.name

    def run_round(self) -> Round:
        t0 = time.perf_counter()
        self.mr.harness.run_experiment(self.cfg, out_dir=self.out_dir)
        wall = time.perf_counter() - t0
        files = {name: (self.out_dir / name).read_text()
                 for name in ("replications.csv", "summary.json")}
        return Round(wall, files, wall / self.ops)

    def digest(self, files) -> str:
        return _csv_digest(files["replications.csv"])

    def check(self, files) -> Verdict:
        verdict = Verdict()
        table = list(csv.DictReader(io.StringIO(files["replications.csv"])))
        names = self.cfg.spec.natural_names()
        rows = []
        for row in table:
            def vec(prefix):
                return np.array([float(row[prefix + n]) for n in names])
            rows.append((int(row["rep_index"]), row["ok"] == "1",
                         row["converged"] == "1", float(row["loglik"]),
                         vec("est_"), vec("se_"), row["error"]))
        if sorted(r[0] for r in rows) != list(range(self.ops)):
            verdict.problems.append("replications.csv does not hold "
                                    f"replications 0..{self.ops - 1}")
        self._check_rows(self.cfg, rows, verdict)
        self._check_summary(table, names,
                            json.loads(files["summary.json"])["summary"],
                            verdict)
        return verdict

    @staticmethod
    def _check_summary(table, names, summary, verdict: Verdict) -> None:
        """summary.json against bias, SD and mean SE recomputed from the rows."""
        used = [r for r in table if r["ok"] == "1" and r["converged"] == "1"
                and r["degenerate"] == "0"]
        if (summary["n_reps"], summary["n_used"]) != (len(table), len(used)):
            verdict.problems.append(
                f"summary counts {summary['n_reps']}/{summary['n_used']} but "
                f"the rows give {len(table)}/{len(used)}")
            return
        for name in names:
            est = np.array([float(r["est_" + name]) for r in used])
            truth = np.array([float(r["true_" + name]) for r in used])
            want = {"sd": est.std(ddof=1),
                    "mean_se": np.mean([float(r["se_" + name]) for r in used]),
                    "bias": (est - truth).mean() if np.isfinite(truth).all()
                    else None}
            for key, value in want.items():
                got = summary["params"][name][key]
                if (got is None) != (value is None) or (
                        value is not None
                        and not math.isclose(got, value, rel_tol=1e-9,
                                             abs_tol=1e-12)):
                    verdict.problems.append(f"summary {key} of {name} is "
                                            f"{got}, the rows give {value}")


class Oracle:
    """pseudo_true_msar, then kl_check and pseudo_true_weights at 10^6."""

    name = "oracle"
    ops = 3

    def __init__(self, mr, loaded: dict, seed: int):
        self.mr = mr
        self.dgp = loaded["dgp"]
        self.hmm_dgp = loaded["hmm_dgp"]
        self.seed = seed

    def run_round(self) -> Round:
        oracle = self.mr.oracle
        out = {"errors": []}

        def attempt(key, call):
            try:  # a failed operation is counted, not fatal
                out[key] = call()
            except Exception:
                out["errors"].append(traceback.format_exc())

        t0 = time.perf_counter()
        attempt("msar", lambda: oracle.pseudo_true_msar(
            self.dgp, n_sim=ORACLE_N_SIM, burn_in=ORACLE_BURN_IN,
            seed=self.seed))
        t1 = time.perf_counter()
        if "msar" in out:
            theta = out["msar"].theta_star
            out["kl_seed"] = (self.seed, out["msar"].n_paths)
            attempt("kl", lambda: oracle.kl_check(
                self.dgp, theta, oracle.perturbation_grid(theta, form="msar"),
                n_sim=KL_N_SIM, seed=out["kl_seed"], burn_in=ORACLE_BURN_IN))
        attempt("weights", lambda: oracle.pseudo_true_weights(
            self.hmm_dgp, WEIGHTS_N_SIM, burn_in=ORACLE_BURN_IN, seed=self.seed))
        return Round(time.perf_counter() - t0, out, t1 - t0)

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for key in ("msar", "kl", "weights"):
            if key in out:
                h.update(json.dumps(out[key].to_json(), sort_keys=True).encode())
        return h.hexdigest()

    def check(self, out) -> Verdict:
        verdict = Verdict()
        verdict.failed = self.ops - sum(k in out for k in ("msar", "kl", "weights"))
        verdict.notes += [f"oracle call raised:\n{e}" for e in out["errors"]]
        res = out.get("msar")
        if res is not None:
            qn_tol = self.mr.EstimatorConfig().qn_grad_tol
            if not (res.converged and res.grad_max <= qn_tol):
                verdict.failed += 1
                verdict.notes.append(f"pseudo_true_msar did not converge: "
                                     f"score max-norm {res.grad_max:.3e}")
            else:
                self._check_limit(res, verdict)
        if "kl" in out:
            self._check_dominance(res, out["kl"], out["kl_seed"], verdict)
        if "weights" in out:
            self._check_weights(out["weights"], verdict)
        return verdict

    def _check_limit(self, res, verdict: Verdict) -> None:
        theta = res.theta_star
        gammas = [c.gamma for c in theta.components]
        if max(gammas) != min(gammas):
            verdict.problems.append(f"theta* slopes differ: {gammas}")
        if not all(0.0 < w < 1.0 for w in theta.weights):
            verdict.problems.append(f"theta* weights {theta.weights} not in (0, 1)")
        n_paths = math.ceil(res.n_sim / self.mr.oracle.MAX_PATH_LEN)
        base, extra = divmod(res.n_sim, n_paths)
        frames = []
        for k in range(n_paths):
            path = self.mr.simulate_msar(self.dgp, T=base + (k < extra),
                                         burn_in=ORACLE_BURN_IN,
                                         seed=(self.seed, k))
            frames.append(checks.frame(path.y, path.w, "msar"))
        grad = checks.limit_gradient(_natural(theta, "msar"), frames)
        if not grad <= checks.ORACLE_GRAD_TOL:
            verdict.problems.append(f"independent score max-norm {grad:.3e} at "
                                    f"theta* exceeds {checks.ORACLE_GRAD_TOL}")

    def _check_dominance(self, res, report, kl_seed, verdict: Verdict) -> None:
        """theta* beats the truth and every grid point by 3 recomputed SEs."""
        theta = res.theta_star
        grid = self.mr.oracle.perturbation_grid(theta, form="msar")
        rivals = [("truth", _truth(self.dgp, "msar"))] + [
            (label, _natural(p, "msar")) for label, p in grid]
        path = self.mr.simulate_msar(self.dgp, T=KL_N_SIM,
                                     burn_in=ORACLE_BURN_IN, seed=kl_seed)
        y, x = checks.frame(path.y, path.w, "msar")
        mine = checks.dominance(_natural(theta, "msar"), rivals, y, x)
        for label, delta, se in mine:
            if not delta > 3.0 * se:
                verdict.problems.append(f"theta* does not beat {label} by 3 SE: "
                                        f"delta {delta:.3e}, se {se:.3e}")
        for (label, delta, se), c in zip(mine[1:], report.comparisons):
            if not (c.label == label and abs(c.delta - delta) <= 1e-9
                    and math.isclose(c.se, se, rel_tol=1e-6)):
                verdict.problems.append(
                    f"kl_check reports {c.label}: {c.delta:.6e} (se {c.se:.3e}),"
                    f" recomputed {label}: {delta:.6e} (se {se:.3e})")

    def _check_weights(self, res, verdict: Verdict) -> None:
        """Rao-Blackwellised weights against the raw occupancy of their path."""
        path = self.mr.simulate_hmm(self.hmm_dgp, T=WEIGHTS_N_SIM,
                                    burn_in=ORACLE_BURN_IN, seed=self.seed)
        spec = self.hmm_dgp.transition
        rb, rb_se, occ, occ_se = checks.regime_weights(
            path.z, path.s, np.asarray(spec.alpha), np.asarray(spec.beta))
        if not np.abs(res.weights_star - rb).max() <= 1e-12:
            verdict.problems.append(f"weights {res.weights_star} but the path "
                                    f"gives {rb}")
        if not ((0.0 < rb) & (rb < 1.0)).all():
            verdict.problems.append(f"weights {rb} not in (0, 1)")
        limit = 4.0 * np.sqrt(rb_se ** 2 + occ_se ** 2)
        if not (np.abs(rb - occ) <= limit).all():
            verdict.problems.append(f"weights {rb} and occupancy {occ} differ "
                                    f"by more than 4 combined SE {limit}")


WORKLOADS = {w.name: w for w in (McMsar, McHmm, Oracle)}

