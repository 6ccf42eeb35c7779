"""Checks of mixregime's outputs against computations written apart from it.

Nothing here imports mixregime.  The mixture likelihood and its analytic
gradient, finite-difference per-observation gradients and Hessian, the Parzen
HAC with the Andrews bandwidth and the batch-means standard errors are written
from their textbook definitions with scipy's ``norm.logpdf`` and
``logsumexp``, so a fault shared with the package cannot hide.  Simulated
samples come from the caller.

Parameter layout (two components).  A natural vector is ordered like the
package's natural names: mu_1, mu_2, the slope(s), sigma_1, sigma_2,
weight_1, weight_2.  The regime regression ("hmm") has two slopes gamma_1,
gamma_2; the switching autoregression ("msar") has one shared slope phi.  A
free vector replaces the sigmas by their logs and the weights by the logit
log(weight_1 / weight_2): the scale on which the package optimizes and picks
its HAC bandwidth, so standard errors are comparable only when computed there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp
from scipy.stats import norm

# A replication has missed the quasi-likelihood maximum when BFGS from another
# start ends this far above it (nats per observation; 0.16 nats in total at
# T = 1600).  Convergence noise is below 1e-9; the two basin misses kept in
# the mc-msar workload sit at 4.2e-3 and 1.4e-4.
OPTIMUM_TOL = 1e-4
# The reported average log-likelihood must be reproduced to rounding.
LOGLIK_TOL = 1e-9
# Reported standard errors against the finite-difference sandwich.  The worst
# case seen, msar_rho0_T1600 replication 185 (weakly identified, SE of mu_2
# about 4), differs by 6e-8.
SE_RTOL = 1e-5
# A BFGS end point with a component this small sits on the unbounded spike of
# the Gaussian-mixture likelihood, not at a competing optimum.
SPIKE_SIGMA = 1e-2
SPIKE_WEIGHT = 1e-3
# The oracle's limit point: max-norm of the finite-difference score.
ORACLE_GRAD_TOL = 1e-5
N_BATCHES = 50
# Andrews (1991) constants for the Parzen kernel; the package clamps the
# per-column AR(1) coefficient at 0.97.
PARZEN_CONSTANT = 2.6614
AR1_CLAMP = 0.97


def n_slopes(form: str) -> int:
    if form not in ("hmm", "msar"):
        raise ValueError(f"unknown form {form!r}")
    return 2 if form == "hmm" else 1


def frame(y: np.ndarray, w: np.ndarray, form: str):
    """(response, regressor) of the fitted model; msar conditions on y_0."""
    if form == "hmm":
        return np.asarray(y, float), np.asarray(w, float)
    y = np.asarray(y, float)
    return y[1:], y[:-1]


def split_natural(nat, form: str):
    """mu, slopes (one per component), sigma, weights of a natural vector."""
    nat = np.asarray(nat, float)
    k = n_slopes(form)
    mu = nat[:2]
    slope = nat[2:2 + k] if k == 2 else np.repeat(nat[2], 2)
    return mu, slope, nat[2 + k:4 + k], nat[4 + k:6 + k]


def natural_to_free(nat, form: str) -> np.ndarray:
    k = n_slopes(form)
    nat = np.asarray(nat, float)
    _, _, sigma, weights = split_natural(nat, form)
    return np.concatenate([nat[:2 + k], np.log(sigma),
                           [math.log(weights[0] / weights[1])]])


def free_to_natural(free, form: str) -> np.ndarray:
    k = n_slopes(form)
    free = np.asarray(free, float)
    sigma = np.exp(np.clip(free[2 + k:4 + k], -14.0, 14.0))
    w1 = 1.0 / (1.0 + math.exp(-float(np.clip(free[-1], -700.0, 700.0))))
    return np.concatenate([free[:2 + k], sigma, [w1, 1.0 - w1]])


def _component_logdensities(free, y, x, form):
    mu, slope, sigma, weights = split_natural(free_to_natural(free, form), form)
    return np.vstack([math.log(weights[s])
                      + norm.logpdf(y, mu[s] + slope[s] * x, sigma[s])
                      for s in range(2)])


def loglik_rows(free, y: np.ndarray, x: np.ndarray, form: str) -> np.ndarray:
    """Per-observation log mixture density ln sum_s w_s N(y; mu_s + b_s x, sigma_s)."""
    return logsumexp(_component_logdensities(free, y, x, form), axis=0)


def mean_loglik(free, y, x, form) -> float:
    return float(loglik_rows(free, y, x, form).mean())


def mean_loglik_and_grad(free, y, x, form):
    """Mean log-likelihood and its analytic gradient in free coordinates.

    With responsibilities p_s and standardized residuals r_s, the
    derivatives are p_s r_s / sigma_s (mu_s), times x (slope), p_s (r_s^2 - 1)
    (log sigma_s) and p_1 - weight_1 (logit), averaged over observations.
    """
    mu, slope, sigma, weights = split_natural(free_to_natural(free, form), form)
    a = _component_logdensities(free, y, x, form)
    rows = logsumexp(a, axis=0)
    resp = np.exp(a - rows)
    r = (y - mu[:, None] - slope[:, None] * x) / sigma[:, None]
    d_mu = (resp * r / sigma[:, None]).mean(axis=1)
    d_slope = (resp * r * x / sigma[:, None]).mean(axis=1)
    if form == "msar":
        d_slope = d_slope.sum(keepdims=True)
    d_log_sigma = (resp * (r * r - 1.0)).mean(axis=1)
    d_logit = resp[0].mean() - weights[0]
    return float(rows.mean()), np.concatenate([d_mu, d_slope, d_log_sigma,
                                               [d_logit]])


def _steps(free: np.ndarray, rel: float) -> np.ndarray:
    return rel * np.maximum(1.0, np.abs(free))


def gradient_rows(free, y, x, form, rel: float = 1e-5) -> np.ndarray:
    """Central-difference per-observation gradients, shape (n, q)."""
    free = np.asarray(free, float)
    h = _steps(free, rel)
    cols = []
    for i in range(free.size):
        e = np.zeros_like(free)
        e[i] = h[i]
        cols.append((loglik_rows(free + e, y, x, form)
                     - loglik_rows(free - e, y, x, form)) / (2.0 * h[i]))
    return np.column_stack(cols)


def hessian(free, y, x, form, rel: float = 1e-4) -> np.ndarray:
    """Central differences of the analytic gradient, symmetrized.

    The step, rel * max(1, |coordinate|), is the package's documented one:
    the fitted Hessians are often ill-conditioned (condition numbers of 1e5
    and more), so a different differencing error would show in the standard
    errors at the 1e-3 level.
    """
    free = np.asarray(free, float)
    h = _steps(free, rel)
    cols = []
    for i in range(free.size):
        e = np.zeros_like(free)
        e[i] = h[i]
        cols.append((mean_loglik_and_grad(free + e, y, x, form)[1]
                     - mean_loglik_and_grad(free - e, y, x, form)[1]) / (2.0 * h[i]))
    out = np.column_stack(cols)
    return 0.5 * (out + out.T)


def parzen(x: float) -> float:
    ax = abs(x)
    if ax <= 0.5:
        return 1.0 - 6.0 * ax ** 2 + 6.0 * ax ** 3
    return 2.0 * (1.0 - ax) ** 3 if ax <= 1.0 else 0.0


def andrews_bandwidth(g: np.ndarray) -> float:
    """Andrews (1991) AR(1) plug-in bandwidth for the Parzen kernel.

    Each non-constant column gets a least-squares AR(1) fit; with unit
    weights, alpha(2) = sum 4 rho^2 s^4 / (1 - rho)^8 / sum s^4 / (1 - rho)^4
    and the bandwidth is 2.6614 (alpha(2) T)^(1/5).
    """
    num = den = 0.0
    for col in g.T:
        if col.std() <= 1e-12 * (1.0 + abs(col.mean())):
            continue
        rho = float(col[1:] @ col[:-1] / (col[:-1] @ col[:-1]))
        rho = min(max(rho, -AR1_CLAMP), AR1_CLAMP)
        s2 = float(np.mean((col[1:] - rho * col[:-1]) ** 2))
        num += 4.0 * rho ** 2 * s2 ** 2 / (1.0 - rho) ** 8
        den += s2 ** 2 / (1.0 - rho) ** 4
    return PARZEN_CONSTANT * (num / den * g.shape[0]) ** 0.2


def long_run_variance(g: np.ndarray) -> np.ndarray:
    """Parzen-kernel HAC estimate of the long-run variance of demeaned rows."""
    g = g - g.mean(axis=0)
    n = g.shape[0]
    bw = min(andrews_bandwidth(g), n - 1.0)
    out = g.T @ g / n
    for j in range(1, int(bw) + 1):
        cov = g[j:].T @ g[:-j] / n
        out += parzen(j / bw) * (cov + cov.T)
    out = 0.5 * (out + out.T)
    vals, vecs = np.linalg.eigh(out)
    if vals.min() < -1e-12 * max(1.0, np.abs(vals).max()):
        out = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return out


def sandwich_se(nat, y, x, form) -> np.ndarray:
    """Natural-scale sandwich standard errors, A^-1 B A^-1 / n by the delta method."""
    free = natural_to_free(nat, form)
    g = gradient_rows(free, y, x, form)
    a_inv = np.linalg.inv(hessian(free, y, x, form))
    v = a_inv @ long_run_variance(g) @ a_inv / g.shape[0]
    k = n_slopes(form)
    q = free.size
    _, _, sigma, weights = split_natural(nat, form)
    jac = np.zeros((q + 1, q))
    jac[:2 + k, :2 + k] = np.eye(2 + k)
    jac[2 + k, 2 + k] = sigma[0]
    jac[3 + k, 3 + k] = sigma[1]
    dw = weights[0] * weights[1]  # d weight_1 / d logit
    jac[4 + k, q - 1] = dw
    jac[5 + k, q - 1] = -dw
    return np.sqrt(np.clip(np.diag(jac @ v @ jac.T), 0.0, None))


def is_spike(nat, form) -> bool:
    _, _, sigma, weights = split_natural(nat, form)
    return bool(sigma.min() < SPIKE_SIGMA or weights.min() < SPIKE_WEIGHT)


def climb(nat_start, y, x, form):
    """BFGS on the mean log-likelihood from a natural start; (loglik, natural end)."""
    def neg(v):
        val, grad = mean_loglik_and_grad(v, y, x, form)
        return -val, -grad

    res = minimize(neg, natural_to_free(nat_start, form), jac=True,
                   method="BFGS", options={"gtol": 1e-9, "maxiter": 500})
    return -float(res.fun), free_to_natural(res.x, form)


@dataclass
class ReplicationCheck:
    """Verdict on one replication: failed operation, or correct or not."""

    rep_index: int
    failed: bool = False
    problems: list = field(default_factory=list)  # wrong outputs
    reasons: list = field(default_factory=list)  # why the operation failed
    gap: float = 0.0  # best independent climb minus the reported loglik


def check_replication(rep_index: int, ok: bool, converged: bool,
                      loglik: float, estimates, std_errors, y, x, form: str,
                      starts) -> ReplicationCheck:
    """Check one replication's reported fit on its own sample (y, x).

    The operation failed when the program reports it (not ok or not
    converged) or when BFGS from any of `starts` (label, natural vector)
    climbs more than OPTIMUM_TOL above the reported maximum.  Otherwise the
    reported log-likelihood and standard errors must match the independent
    ones.
    """
    out = ReplicationCheck(rep_index)
    if not ok or not converged:
        out.failed = True
        out.reasons.append("program reported " + ("an error" if not ok
                                                   else "no convergence"))
        return out
    ll = mean_loglik(natural_to_free(estimates, form), y, x, form)
    if not abs(ll - loglik) <= LOGLIK_TOL:
        out.problems.append(f"loglik {loglik!r} but the estimate gives {ll!r}")
    for label, start in starts:
        ll_climb, end = climb(start, y, x, form)
        if is_spike(end, form):
            continue
        out.gap = max(out.gap, ll_climb - loglik)
        if ll_climb - loglik > OPTIMUM_TOL:
            out.failed = True
            out.reasons.append(f"BFGS from {label} ends {ll_climb - loglik:.3e} "
                               "nats/obs higher")
    se = sandwich_se(estimates, y, x, form)
    rel = np.abs(np.asarray(std_errors, float) - se) / se
    if not rel.max() <= SE_RTOL:
        out.problems.append(f"standard errors off by up to {rel.max():.2e} "
                            f"relative (reported {list(std_errors)}, "
                            f"independent {se.tolist()})")
    return out


def batch_means_se(values: np.ndarray, n_batches: int = N_BATCHES) -> float:
    width = len(values) // n_batches
    means = values[:width * n_batches].reshape(n_batches, width).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def limit_gradient(nat, frames, form="msar") -> float:
    """Max-norm of the central-difference score pooled over (y, x) frames."""
    free = natural_to_free(nat, form)
    total = sum(gradient_rows(free, y, x, form).sum(axis=0) for y, x in frames)
    return float(np.abs(total / sum(len(y) for y, _ in frames)).max())


def dominance(nat_star, rivals, y, x, form="msar"):
    """Paired gap and batch-means SE of theta* over each (label, natural) rival."""
    star = loglik_rows(natural_to_free(nat_star, form), y, x, form)
    out = []
    for label, nat in rivals:
        diff = star - loglik_rows(natural_to_free(nat, form), y, x, form)
        out.append((label, float(diff.mean()), batch_means_se(diff)))
    return out


def regime_weights(z: np.ndarray, s: np.ndarray, alpha: np.ndarray,
                   beta: np.ndarray):
    """Rao-Blackwellised weights and raw occupancy of a two-regime path.

    s holds 1-based regimes.  The weights average the transition row
    P(S_{t+1} = k | Z_t, S_t) over the path; the occupancy is the share of
    time in each regime.  Both come with batch-means SEs.
    """
    src = np.asarray(s) - 1
    logits = alpha[src] + beta[src] * z[:, None]
    rows = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
    occ = np.column_stack([(src == k).astype(float) for k in range(2)])
    return (rows.mean(axis=0), np.array([batch_means_se(c) for c in rows.T]),
            occ.mean(axis=0), np.array([batch_means_se(c) for c in occ.T]))
