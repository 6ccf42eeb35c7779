"""QML estimation of the mixture model: multi-start EM plus quasi-Newton.

EM finds basins: from each randomized start it climbs (monotone likelihood
ascent from rough starts) until its gain per iteration falls below em_tol.
BFGS on the unconstrained parameterization with the analytic score then
converges from every usable EM end point, and the start with the highest
polished likelihood is the estimate.  Ranking the starts after polishing,
not by their unfinished EM likelihoods, keeps a slow EM start in a higher
basin from losing to a fast one in a lower basin; BFGS also sharpens the
first-order condition that the sandwich covariance relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

from .dgp import RegimeOutcome, Sample, seed_key
from .errors import EstimationError, ValidationError, check_types, reject_unknown
from .mixture import (MixtureParams, ModelSpec, decode, encode, mixture_kernel,
                      neg_loglik_and_score)

_COLLAPSE_FRACTION = 1e-8  # of effective sample size, per component
# Normal equations count as singular below this fraction of their diagonal
# product: with a constant regressor, rounding leaves about 1e-15.
_SINGULAR_RTOL = 1e-12


@dataclass
class EstimatorConfig:
    """Optimizer settings."""

    n_starts: int = 8
    em_max_iter: int = 100  # EM iterations after which a start goes to BFGS
    em_tol: float = 1e-6  # EM gain below which a start goes to BFGS
    qn_max_iter: int = 200
    qn_grad_tol: float = 1e-6  # max-norm of the score at convergence
    sigma_floor: float = 1e-6

    def validate(self) -> None:
        check_types(self, ("n_starts", "em_max_iter", "qn_max_iter"),
                    ("em_tol", "qn_grad_tol", "sigma_floor"))
        out = []
        if self.n_starts < 1:
            out.append(f"n_starts must be >= 1, got {self.n_starts}")
        for name in ("em_tol", "qn_grad_tol", "sigma_floor"):
            if not getattr(self, name) > 0:
                out.append(f"{name} must be > 0, got {getattr(self, name)}")
        if self.em_max_iter < 1 or self.qn_max_iter < 0:
            out.append("iteration limits must be positive")
        if out:
            raise ValidationError(out)

    def to_json(self) -> dict:
        return {"n_starts": self.n_starts, "em_max_iter": self.em_max_iter,
                "em_tol": self.em_tol, "qn_max_iter": self.qn_max_iter,
                "qn_grad_tol": self.qn_grad_tol, "sigma_floor": self.sigma_floor}

    @classmethod
    def from_json(cls, obj: dict) -> "EstimatorConfig":
        reject_unknown(obj, cls().to_json(), "estimator")
        return cls(**obj)


@dataclass
class EstimationResult:
    """Outcome of one qml_estimate call; components sorted by mu ascending."""

    theta_hat: MixtureParams
    loglik: float
    converged: bool
    n_iterations: dict
    start_index: int
    covariance: Optional[np.ndarray] = None
    std_errors: Optional[np.ndarray] = None
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "theta_hat": self.theta_hat.to_json(),
            "loglik": self.loglik,
            "converged": self.converged,
            "n_iterations": dict(self.n_iterations),
            "start_index": self.start_index,
            "covariance": None if self.covariance is None else self.covariance.tolist(),
            "std_errors": None if self.std_errors is None else self.std_errors.tolist(),
            "notes": list(self.notes),
        }


@dataclass
class _EmRun:
    params: MixtureParams
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
                 rng: np.random.Generator, sigma_floor: float) -> MixtureParams:
    """Randomized starting point built from pooled-regression summaries."""
    d = spec.d
    intercept, slope, resid = _pooled_ols(y, x)
    scale = max(float(resid.std()), sigma_floor)
    # spread the intercepts across residual quantiles, then jitter
    qs = (np.arange(d) + 0.5) / d
    mu = intercept + np.quantile(resid, qs) + 0.25 * scale * rng.standard_normal(d)
    slope_scale = scale / max(float(x.std()), 1e-8)
    if spec.form == "hmm":
        gamma = slope + 0.3 * slope_scale * rng.standard_normal(d)
    else:
        gamma = np.full(d, slope + 0.1 * rng.standard_normal())
    sigma = np.maximum(scale * np.exp(0.3 * rng.standard_normal(d)), sigma_floor)
    weights = rng.uniform(0.8, 1.2, d)
    weights /= weights.sum()
    comps = [RegimeOutcome(mu=float(mu[s]), gamma=float(gamma[s]),
                           sigma=float(sigma[s])) for s in range(d)]
    return MixtureParams(components=comps, weights=weights)


def _moment_rows(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (5, T) rows 1, x, x^2, y, xy whose responsibility-weighted sums
    are the M-step's sufficient statistics."""
    return np.stack([np.ones_like(x), x, x * x, y, x * y])


def _m_step(resp: np.ndarray, rows: np.ndarray, spec: ModelSpec,
            params: MixtureParams, sigma_floor: float):
    """Exact M-step; returns (new params, floor_hit flag) or None when singular.

    `rows` comes from _moment_rows.  Both forms solve the weighted normal
    equations from the same per-component sums; the switching AR pools them
    across components for its shared slope, precision-weighted by the
    current sigmas (an ECM step).
    """
    a, b, c, dy, exy = rows @ resp
    if spec.form == "hmm":
        det = a * c - b * b
        if not np.all(det > _SINGULAR_RTOL * a * c):
            return None
        mu = (c * dy - b * exy) / det
        gamma = (a * exy - b * dy) / det
    else:
        if (a <= 0).any():
            return None
        inv_var = 1.0 / params.sigma_vec ** 2
        denom = (inv_var * (c - b * b / a)).sum()
        if not denom > _SINGULAR_RTOL * (inv_var * c).sum():
            return None
        phi = (inv_var * (exy - b * dy / a)).sum() / denom
        mu = (dy - phi * b) / a
        gamma = np.full(spec.d, phi)
    resid = rows[3] - mu[:, None] - gamma[:, None] * rows[1]
    sigma = np.sqrt(np.maximum(np.einsum("ts,st->s", resp, resid ** 2) / a, 0.0))
    floor_hit = bool((sigma < sigma_floor).any())
    sigma = np.maximum(sigma, sigma_floor)
    comps = [RegimeOutcome(mu=float(m), gamma=float(g), sigma=float(s))
             for m, g, s in zip(mu, gamma, sigma)]
    return MixtureParams(components=comps, weights=a / rows.shape[1]), floor_hit


def _em_run(y: np.ndarray, x: np.ndarray, spec: ModelSpec, init: MixtureParams,
            cfg: EstimatorConfig, rng: Optional[np.random.Generator]) -> _EmRun:
    params = init
    notes = []
    trace = []
    reseeded = False
    n_eff = len(y)
    rows = _moment_rows(y, x)
    ll_prev = -np.inf
    gain = np.inf
    n_iter = 0
    degenerate = False

    while True:
        lse, resp, _ = mixture_kernel(params, y, x)
        ll_cur = float(lse.mean())
        trace.append(ll_cur)
        if n_iter == cfg.em_max_iter:
            notes.append(f"em stopped at em_max_iter = {cfg.em_max_iter} "
                         f"(last gain {gain:.1e})")
            break
        if ll_cur < ll_prev - 1e-10:
            notes.append(f"em loglik decreased by {ll_prev - ll_cur:.3e}")
        gain = ll_cur - ll_prev
        if gain < cfg.em_tol and np.isfinite(ll_prev):
            break

        totals = resp.sum(axis=0)
        collapsed = np.flatnonzero(totals < _COLLAPSE_FRACTION * n_eff)
        if collapsed.size:
            if reseeded or rng is None:
                notes.append(f"component(s) {collapsed.tolist()} collapsed; "
                             "fit abandoned")
                degenerate = True
                break
            notes.append(f"component(s) {collapsed.tolist()} collapsed; reseeded")
            params = _reseed_components(params, collapsed, y, x, spec, rng,
                                        cfg.sigma_floor)
            reseeded = True
            ll_prev = -np.inf
            n_iter += 1
            continue

        stepped = _m_step(resp, rows, spec, params, cfg.sigma_floor)
        if stepped is None:
            notes.append("singular weighted normal equations; fit abandoned")
            degenerate = True
            break
        params, floor_hit = stepped
        if floor_hit and "sigma floor reached" not in notes:
            notes.append("sigma floor reached")
        ll_prev = ll_cur
        n_iter += 1

    return _EmRun(params=params, loglik=ll_cur, trace=trace, n_iter=n_iter,
                  degenerate=degenerate, notes=notes)


def _reseed_components(params: MixtureParams, which: np.ndarray, y: np.ndarray,
                       x: np.ndarray, spec: ModelSpec,
                       rng: np.random.Generator,
                       sigma_floor: float) -> MixtureParams:
    fresh = _random_init(y, x, spec, rng, sigma_floor)
    comps = list(params.components)
    for s in which:
        comps[s] = fresh.components[s]
    weights = np.full(params.d, 1.0 / params.d)
    if spec.form == "msar":
        # keep the slope shared after the swap
        phi = comps[0].gamma
        comps = [RegimeOutcome(mu=c.mu, gamma=phi, sigma=c.sigma) for c in comps]
    return MixtureParams(components=comps, weights=weights)


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
    BFGS reports failure the message is added to `notes`.  Components of
    the returned estimate are sorted by mu ascending.
    """
    if cfg is None:
        cfg = EstimatorConfig()
    cfg.validate()
    y, x = spec.regression_frame(sample)
    _check_sample_size(len(y), spec)

    runs = []
    for start in range(cfg.n_starts):
        rng = np.random.default_rng(seed_key(seed) + (start,))
        init = _random_init(y, x, spec, rng, cfg.sigma_floor)
        runs.append(_em_run(y, x, spec, init, cfg, rng))

    polished = [(minimize(neg_loglik_and_score, encode(r.params, spec),
                          args=([sample], spec), jac=True, method="BFGS",
                          options={"maxiter": cfg.qn_max_iter,
                                   "gtol": cfg.qn_grad_tol}), i)
                for i, r in enumerate(runs) if not r.degenerate]
    if not polished:
        raise EstimationError(
            "all EM starts degenerate",
            diagnostics=[f"start {i}: {'; '.join(r.notes)}" for i, r in enumerate(runs)])
    res, best_index = min(polished, key=lambda p: p[0].fun)  # first of ties
    notes = [f"start {i}: {note}" for i, r in enumerate(runs) for note in r.notes]
    if not res.success:
        notes.append(f"bfgs: {res.message}")

    return EstimationResult(
        theta_hat=decode(res.x, spec).sorted_by_mu(),
        loglik=-float(res.fun),
        converged=bool(np.max(np.abs(res.jac)) <= cfg.qn_grad_tol),
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
    d = theta_hat.d
    blocks_hat = np.column_stack([theta_hat.mu_vec, theta_hat.gamma_vec,
                                  theta_hat.sigma_vec])
    blocks_ref = np.column_stack([reference.mu_vec, reference.gamma_vec,
                                  reference.sigma_vec])
    cost = ((blocks_hat[:, None, :] - blocks_ref[None, :, :]) ** 2).sum(axis=2)
    row_ind, col_ind = linear_sum_assignment(cost)
    perm = np.empty(d, dtype=int)
    perm[col_ind] = row_ind
    return theta_hat.permuted(perm.tolist())
