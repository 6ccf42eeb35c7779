"""QML estimation of the mixture model: multi-start EM plus quasi-Newton.

EM finds basins: from each randomized start it climbs (monotone likelihood
ascent from rough starts) until its gain per iteration falls below em_tol.
The starts run in lock step, one kernel call and one stacked M-step per
iteration over the starts still running; each start keeps its own stop
rules, and its run is bit for bit what it would be alone.
BFGS on the unconstrained parameterization with the analytic score then
converges from every usable EM end point, and the start with the highest
polished likelihood is the estimate.  Ranking the starts after polishing,
not by their unfinished EM likelihoods, keeps a slow EM start in a higher
basin from losing to a fast one in a lower basin; BFGS also sharpens the
first-order condition that the sandwich covariance relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

from .dgp import Sample, stream_rng
from .errors import (EstimationError, JsonRecord, ValidationError,
                     count_faults)
from .mixture import (SIGMA_MIN, MixtureParams, ModelSpec, decode,
                      encode_arrays, mixture_kernel, neg_loglik_and_score)

_COLLAPSE_FRACTION = 1e-8  # of effective sample size, per component
# Normal equations count as singular below this fraction of their diagonal
# product: with a constant regressor, rounding leaves about 1e-15.
_SINGULAR_RTOL = 1e-12


@dataclass
class EstimatorConfig(JsonRecord):
    """Optimizer settings."""

    json_label = "estimator"

    n_starts: int = 8
    em_max_iter: int = 100  # EM iterations after which a start goes to BFGS
    em_tol: float = 1e-6  # EM gain below which a start goes to BFGS
    qn_max_iter: int = 200
    qn_grad_tol: float = 1e-6  # max-norm of the score at convergence

    def violations(self) -> list:
        out = [fault for name, low in (("n_starts", 1), ("em_max_iter", 1),
                                       ("qn_max_iter", 0))
               for fault in count_faults(getattr(self, name), name, low)]
        for name in ("em_tol", "qn_grad_tol"):
            if not getattr(self, name) > 0:
                out.append(f"{name} must be finite and > 0, "
                           f"got {getattr(self, name)}")
        return out


@dataclass
class EstimationResult(JsonRecord):
    """Outcome of one qml_estimate call; components sorted by mu ascending."""

    theta_hat: MixtureParams
    loglik: float
    converged: bool
    degenerate: bool  # on the boundary; no sandwich covariance exists there
    n_iterations: dict
    start_index: int
    notes: list = field(default_factory=list)


@dataclass
class _EmRun:
    point: tuple  # (mu, gamma, sigma, weights) where EM stopped
    loglik: float
    trace: list
    n_iter: int
    degenerate: bool
    notes: list


def _pooled_ols(y: np.ndarray, x: np.ndarray):
    """Intercept, slope, residuals of the pooled regression of y on (1, x)."""
    xm = x.mean()
    ym = y.mean()
    sxx = ((x - xm) ** 2).sum()
    slope = ((x - xm) * (y - ym)).sum() / sxx if sxx > 0 else 0.0
    intercept = ym - slope * xm
    resid = y - intercept - slope * x
    return intercept, slope, resid


def _random_init(y: np.ndarray, x: np.ndarray, spec: ModelSpec,
                 rng: np.random.Generator) -> tuple:
    """Random start (mu, gamma, sigma, weights) from pooled-OLS summaries."""
    d = spec.d
    intercept, slope, resid = _pooled_ols(y, x)
    scale = max(float(resid.std()), SIGMA_MIN)
    # spread the intercepts across residual quantiles, then jitter
    qs = (np.arange(d) + 0.5) / d
    mu = intercept + np.quantile(resid, qs) + 0.25 * scale * rng.standard_normal(d)
    slope_scale = scale / max(float(x.std()), 1e-8)
    if spec.form == "hmm":
        gamma = slope + 0.3 * slope_scale * rng.standard_normal(d)
    else:
        gamma = np.full(d, slope + 0.1 * rng.standard_normal())
    sigma = np.maximum(scale * np.exp(0.3 * rng.standard_normal(d)), SIGMA_MIN)
    weights = rng.uniform(0.8, 1.2, d)
    weights /= weights.sum()
    return mu, gamma, sigma, weights


def _moment_rows(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (5, T) rows 1, x, x^2, y, xy whose responsibility-weighted sums
    are the M-step's sufficient statistics."""
    return np.stack([np.ones_like(x), x, x * x, y, x * y])


def _m_step(stats: np.ndarray, resp: np.ndarray, rows: np.ndarray,
            spec: ModelSpec, sigma: np.ndarray):
    """Exact M-step of S stacked starts from their current (S, d) sigmas;
    returns (keep, (mu, gamma, sigma, weights), floor_hit).

    `rows` comes from _moment_rows, `resp` is (S, T, d) and `stats` is
    rows @ resp, the (S, 5, d) per-component sufficient statistics.  Both
    forms solve the weighted normal equations from them; the switching AR
    pools them across components for its shared slope, precision-weighted
    by the current sigmas (an ECM step).  keep flags the starts whose
    equations are regular; the point and the floor_hit flags cover those
    starts only.
    """
    a, b, c, dy, exy = np.moveaxis(stats, -2, 0)
    if spec.form == "hmm":
        det = a * c - b * b
        keep = (det > _SINGULAR_RTOL * a * c).all(axis=-1)
    else:
        # EM's collapse check leaves every component a positive mass a
        inv_var = 1.0 / sigma ** 2
        denom = (inv_var * (c - b * b / a)).sum(axis=-1)
        keep = denom > _SINGULAR_RTOL * (inv_var * c).sum(axis=-1)
    a, b, c, dy, exy = np.moveaxis(stats[keep], -2, 0)
    if spec.form == "hmm":
        mu = (c * dy - b * exy) / det[keep]
        gamma = (a * exy - b * dy) / det[keep]
    else:
        phi = (inv_var[keep] * (exy - b * dy / a)).sum(axis=-1) / denom[keep]
        mu = (dy - phi[:, None] * b) / a
        gamma = np.repeat(phi[:, None], spec.d, axis=1)
    resid = rows[3] - mu[..., None] - gamma[..., None] * rows[1]
    # one einsum per start: a batched one sums in another order
    sq = np.array([np.einsum("ts,st->s", resp[i], e)
                   for i, e in zip(np.flatnonzero(keep), resid ** 2)]
                  ).reshape(a.shape)
    sigma = np.sqrt(np.maximum(sq / a, 0.0))
    floor_hit = (sigma < SIGMA_MIN).any(axis=-1)
    return keep, (mu, gamma, np.maximum(sigma, SIGMA_MIN),
                  a / rows.shape[1]), floor_hit


def _em_runs(y: np.ndarray, x: np.ndarray, spec: ModelSpec, starts: list,
             cfg: EstimatorConfig) -> list:
    """EM from each start point, the arrays (mu, gamma, sigma, weights), to
    the point where it stops; one _EmRun per start.

    The starts run in lock step: each iteration is one kernel call and one
    M-step over the starts still running, and each start stops by its own
    rules, with the bits it would have alone.
    """
    rows = _moment_rows(y, x)
    point = [np.array(block, dtype=float) for block in zip(*starts)]  # (S, d)
    n = len(starts)
    traces, notes = [[] for _ in range(n)], [[] for _ in range(n)]
    n_iter, degenerate = [0] * n, [False] * n
    ll_prev, gain = [-np.inf] * n, [np.inf] * n
    active = list(range(n))

    while active:
        lse, resp, _ = mixture_kernel(*(p[active] for p in point), y, x)
        stats = rows @ resp
        # stats[:, 0] is each component's responsibility mass
        low_mass = (stats[:, 0] < _COLLAPSE_FRACTION * len(y)).tolist()
        stepping = []  # positions in `active` of the starts that step on
        for k, (s, ll_cur) in enumerate(zip(active, lse.mean(axis=-1).tolist())):
            traces[s].append(ll_cur)
            if n_iter[s] == cfg.em_max_iter:
                notes[s].append(f"em stopped at em_max_iter = {cfg.em_max_iter} "
                                f"(last gain {gain[s]:.1e})")
                continue
            if ll_cur < ll_prev[s] - 1e-10:
                notes[s].append(f"em loglik decreased by {ll_prev[s] - ll_cur:.3e}")
            gain[s] = ll_cur - ll_prev[s]
            if gain[s] < cfg.em_tol and math.isfinite(ll_prev[s]):
                continue
            ll_prev[s] = ll_cur
            collapsed = [j for j, low in enumerate(low_mass[k]) if low]
            if collapsed:
                notes[s].append(f"component(s) {collapsed} collapsed; "
                                "fit abandoned")
                degenerate[s] = True
                continue
            stepping.append(k)
        if not stepping:
            break

        if len(stepping) < len(active):
            stats, resp = stats[stepping], resp[stepping]
        stepped = [active[k] for k in stepping]
        keep, new_point, floor_hit = _m_step(stats, resp, rows, spec,
                                             point[2][stepped])
        active = []
        for s, kept in zip(stepped, keep.tolist()):
            if kept:
                active.append(s)
            else:
                notes[s].append("singular weighted normal equations; "
                                "fit abandoned")
                degenerate[s] = True
        for block, new in zip(point, new_point):
            block[active] = new
        for s, hit in zip(active, floor_hit.tolist()):
            if hit and "sigma floor reached" not in notes[s]:
                notes[s].append("sigma floor reached")
            n_iter[s] += 1

    return [_EmRun(point=tuple(p[s] for p in point), loglik=traces[s][-1],
                   trace=traces[s], n_iter=n_iter[s],
                   degenerate=degenerate[s], notes=notes[s])
            for s in range(n)]


def _check_sample_size(n_eff: int, spec: ModelSpec) -> None:
    per_regime = 3 if spec.form == "hmm" else 2  # regime-specific coefficients
    needed = spec.d * per_regime
    if n_eff < needed:
        raise ValidationError(f"need at least {needed} usable observations "
                              f"for d = {spec.d}, got {n_eff}")


def qml_estimate(sample: Sample, spec: ModelSpec,
                 cfg: Optional[EstimatorConfig] = None,
                 seed=0) -> EstimationResult:
    """Approximate maximizer of the quasi-log-likelihood.

    Runs cfg.n_starts EM fits from initializations randomized by `seed` (an
    int or a tuple of ints; start k draws from seed + (k,)), each until its
    gain falls below cfg.em_tol or it reaches cfg.em_max_iter.  BFGS on the
    FreeVector, minimizing mixture.neg_loglik_and_score, then starts from
    every non-degenerate EM end point; the estimate is the start with the
    highest polished loglik (the lowest index on exact ties).  loglik,
    `converged` (max-norm of the score at most cfg.qn_grad_tol),
    start_index and n_iterations describe that winning start; when its
    BFGS reports failure the message is added to `notes`, and when it ends
    with a sigma within 1e-9 relative of SIGMA_MIN, "sigma floor reached".
    `degenerate` marks an estimate on the boundary of the parameter space:
    such a sigma or a weight below 1e-6.  At the sigma floor the curvature
    is about 1 / SIGMA_MIN^2, so such a fit has no sandwich covariance.
    When every EM start is degenerate the EstimationError lists each
    start's notes.
    Components of the returned estimate are sorted by mu ascending.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    cfg.validate()
    y, x = spec.regression_frame(sample)
    _check_sample_size(len(y), spec)

    inits = [_random_init(y, x, spec, stream_rng(seed, start))
             for start in range(cfg.n_starts)]
    runs = _em_runs(y, x, spec, inits, cfg)

    polished = [(minimize(neg_loglik_and_score, encode_arrays(*r.point, spec),
                          args=([sample], spec), jac=True, method="BFGS",
                          options={"maxiter": cfg.qn_max_iter,
                                   "gtol": cfg.qn_grad_tol}), i)
                for i, r in enumerate(runs) if not r.degenerate]
    notes = [f"start {i}: {note}" for i, r in enumerate(runs) for note in r.notes]
    if not polished:
        raise EstimationError("all EM starts degenerate: " + "; ".join(notes))
    res, best_index = min(polished, key=lambda p: p[0].fun)  # first of ties
    if not res.success:
        notes.append(f"bfgs: {res.message}")

    theta_hat = decode(res.x, spec).sorted_by_mu()
    floor_hit = bool((theta_hat.outcome_matrix[:, 2]
                      <= SIGMA_MIN * (1 + 1e-9)).any())
    if floor_hit:
        notes.append("sigma floor reached")
    return EstimationResult(
        theta_hat=theta_hat,
        loglik=-float(res.fun),
        converged=bool(np.max(np.abs(res.jac)) <= cfg.qn_grad_tol),
        degenerate=floor_hit or bool((theta_hat.weights < 1e-6).any()),
        n_iterations={"em": runs[best_index].n_iter, "qn": int(res.nit)},
        start_index=best_index,
        notes=notes,
    )


def align_permutation(theta_hat: MixtureParams,
                      reference: MixtureParams) -> MixtureParams:
    """Relabel theta_hat's components to best match `reference`.

    Minimizes the summed squared distance of stacked (mu, gamma, sigma)
    blocks over all label permutations (weights tag along but do not enter
    the distance).
    """
    if theta_hat.d != reference.d:
        raise ValidationError(f"component counts differ: {theta_hat.d} vs "
                              f"{reference.d}")
    blocks_hat, blocks_ref = theta_hat.outcome_matrix, reference.outcome_matrix
    cost = ((blocks_hat[:, None, :] - blocks_ref[None, :, :]) ** 2).sum(axis=2)
    row_ind, col_ind = linear_sum_assignment(cost)
    perm = np.empty(theta_hat.d, dtype=int)
    perm[col_ind] = row_ind
    return theta_hat.permuted(perm.tolist())
