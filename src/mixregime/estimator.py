"""QML estimation of the mixture model: multi-start EM plus a Newton polish.

EM finds basins: from each randomized start it climbs (monotone likelihood
ascent from rough starts) until its gain per iteration falls below em_tol.
A damped Newton method on the unconstrained parameterization, with the
closed-form score and Hessian, then converges from every usable EM end
point, and the start with the highest polished likelihood is the estimate.
Ranking the starts after polishing, not by their unfinished EM
likelihoods, keeps a slow EM start in a higher basin from losing to a fast
one in a lower basin; the polish also sharpens the first-order condition
that the sandwich covariance relies on.  Both stages run their starts in
lock step, one stacked pass per iteration over the starts still running
(one kernel call and one M-step for EM, one
mixture.neg_loglik_score_hessian call for Newton); each start keeps its own
stop rules, and its run is bit for bit what it would be alone.  The same
Newton polish finds the QML limit in oracle.pseudo_true_msar, on frames of
up to 10^6 rows each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dgp import Sample, stream_rng
from .errors import (EstimationError, JsonRecord, ValidationError,
                     count_faults)
from .mixture import (LOG_SIGMA_MIN, SIGMA_MIN, MixtureParams, ModelSpec,
                      decode, encode_arrays, mixture_kernel,
                      neg_loglik_score_hessian)

_COLLAPSE_FRACTION = 1e-8  # of effective sample size, per component
# Normal equations count as singular below this fraction of their diagonal
# product: with a constant regressor, rounding leaves about 1e-15.
_SINGULAR_RTOL = 1e-12
# Newton polish: sufficient decrease (Armijo) and curvature constants of the
# line search, the floor on |eigenvalue| relative to the largest, and the
# step length below which the search gives up
_ARMIJO = 1e-4
_CURVATURE = 0.9
_EIG_FLOOR = 1e-12
_MIN_STEP = 1e-10


@dataclass
class EstimatorConfig(JsonRecord):
    """Optimizer settings."""

    json_label = "estimator"

    n_starts: int = 8
    em_max_iter: int = 100  # EM iterations after which a start is polished
    # EM gain below which a start is polished: EM need only reach a basin,
    # and Newton converges from there faster than EM's linear rate
    em_tol: float = 1e-3
    qn_max_iter: int = 200  # Newton steps per start
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


@dataclass
class _Polish:
    free: np.ndarray  # FreeVector where the polish stopped
    value: float  # minus the average loglik there
    grad: np.ndarray  # gradient of `value` there
    n_iter: int  # Newton steps taken
    n_eval: int  # points evaluated, the start included
    message: str  # why it stopped before qn_grad_tol; "" when it converged


def _newton_polish(frames: list, spec: ModelSpec, starts: np.ndarray,
                   cfg: EstimatorConfig) -> list:
    """Damped Newton on minus the average loglik, pooled over the rows of
    the (y, x) `frames`, from each FreeVector row of `starts`, (S, q); one
    _Polish per start.

    Each step takes the Newton direction on the Hessian with its
    eigenvalues replaced by their absolute values, floored at _EIG_FLOOR
    times the largest, so that every direction descends.  The floor is
    small because a flat direction must still take long steps: the log
    sigma of a component collapsing onto one observation has a curvature
    near 0 beside one of order 1 / sigma^2, and a floor of 1e-8 of the
    largest left such starts crawling toward the sigma floor until
    qn_max_iter.  The line search starts at the full step; it halves the
    step until the Armijo condition holds and, from the full step, doubles
    it while the condition holds and the directional derivative stays below
    _CURVATURE times its starting value.  A log sigma below the floor is
    projected onto it, and a start whose sigma reaches the floor stops
    there.  The starts run in lock step: each round is one
    neg_loglik_score_hessian call on every running start's trial point, and
    each start keeps its own step and stop rules, with the bits it would
    have alone.
    """
    log_sigma = spec.blocks.log_sigma

    def on_floor(free):
        return (free[..., log_sigma] <= LOG_SIGMA_MIN).any()

    free = np.array(starts, dtype=float)
    n = len(free)
    # the callers start from valid points, so their usability goes unchecked
    value, grad, hess, _ = neg_loglik_score_hessian(free, frames, spec)
    direction, slope, step = np.zeros_like(free), np.zeros(n), np.ones(n)
    n_iter, n_eval, message = [0] * n, [1] * n, [""] * n
    halved, held = [False] * n, [None] * n
    fresh, running = list(range(n)), []
    while True:
        # a start at a new iterate stops, or takes the Newton direction there
        new = []
        for s in fresh:
            if np.abs(grad[s]).max() <= cfg.qn_grad_tol:
                continue
            if on_floor(free[s]):
                message[s] = "stopped at the sigma floor"
            elif n_iter[s] == cfg.qn_max_iter:
                message[s] = f"stopped at qn_max_iter = {cfg.qn_max_iter}"
            else:
                new.append(s)
        if new:
            lam, vec = np.linalg.eigh(hess[new])
            lam = np.abs(lam)
            lam = np.maximum(lam, _EIG_FLOOR * lam.max(axis=-1, keepdims=True))
            coef = (vec.swapaxes(-1, -2) @ grad[new][..., None]) / lam[..., None]
            direction[new] = -(vec @ coef)[..., 0]
            slope[new] = (grad[new] * direction[new]).sum(axis=-1)
            step[new] = 1.0
            for s in new:
                halved[s], held[s] = False, None
        running += new
        if not running:
            break

        # one trial point per running start, all evaluated in one pass
        trial = free[running] + step[running, None] * direction[running]
        trial[:, log_sigma] = np.maximum(trial[:, log_sigma], LOG_SIGMA_MIN)
        t_value, t_grad, t_hess, usable = neg_loglik_score_hessian(
            trial, frames, spec)
        fresh, still = [], []
        for k, s in enumerate(running):
            n_eval[s] += 1
            at = (trial[k], t_value[k], t_grad[k], t_hess[k])
            decrease = _ARMIJO * (grad[s] @ (trial[k] - free[s]))
            ok = (usable[k] and t_value[k] <= value[s] + decrease
                  and (held[s] is None or t_value[k] <= held[s][1]))
            steep = t_grad[k] @ direction[s] < _CURVATURE * slope[s]
            if ok and steep and not halved[s] and not on_floor(trial[k]):
                held[s] = at  # the step is still short: try twice as long
                step[s] *= 2.0
            elif ok or held[s] is not None:
                free[s], value[s], grad[s], hess[s] = at if ok else held[s]
                n_iter[s] += 1
                fresh.append(s)
                continue
            else:
                step[s] *= 0.5
                halved[s] = True
                if step[s] < _MIN_STEP:
                    message[s] = "line search found no decrease"
                    continue
            still.append(s)
        running = still

    return [_Polish(free=free[s], value=float(value[s]), grad=grad[s],
                    n_iter=n_iter[s], n_eval=n_eval[s], message=message[s])
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
    gain falls below cfg.em_tol or it reaches cfg.em_max_iter.  The Newton
    polish (_newton_polish) then starts from every non-degenerate EM end
    point; the estimate is the start with the highest polished loglik (the
    lowest index on exact ties).  loglik, `converged` (max-norm of the
    score at most cfg.qn_grad_tol), start_index and n_iterations (EM
    iterations and Newton steps) describe that winning start.  When its
    polish stops short of cfg.qn_grad_tol, "newton: " and the reason (the
    sigma floor, cfg.qn_max_iter, or a line search with no decrease) are
    added to `notes`, and when it ends with a sigma within 1e-9 relative of
    SIGMA_MIN, "sigma floor reached".
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

    usable = [i for i, r in enumerate(runs) if not r.degenerate]
    notes = [f"start {i}: {note}" for i, r in enumerate(runs) for note in r.notes]
    if not usable:
        raise EstimationError("all EM starts degenerate: " + "; ".join(notes))
    polished = _newton_polish(
        [(y, x)], spec, np.array([encode_arrays(*runs[i].point, spec)
                                  for i in usable]), cfg)
    # the first of exact ties
    best = min(range(len(usable)), key=lambda k: polished[k].value)
    res, best_index = polished[best], usable[best]
    if res.message:
        notes.append(f"newton: {res.message}")

    theta_hat = decode(res.free, spec).sorted_by_mu()
    floor_hit = bool((theta_hat.outcome_matrix[:, 2]
                      <= SIGMA_MIN * (1 + 1e-9)).any())
    if floor_hit:
        notes.append("sigma floor reached")
    return EstimationResult(
        theta_hat=theta_hat,
        loglik=-res.value,
        converged=bool(np.max(np.abs(res.grad)) <= cfg.qn_grad_tol),
        degenerate=floor_hit or bool((theta_hat.weights < 1e-6).any()),
        n_iterations={"em": runs[best_index].n_iter, "qn": res.n_iter},
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
