"""Misspecification-robust covariance for the QML estimate.

Sandwich V = A^{-1} B A^{-1} / T where A is the average Hessian of the
quasi-log-likelihood and B a HAC (Parzen kernel) estimate of the long-run
variance of the per-observation scores, with the Andrews AR(1) plug-in
bandwidth.  The dependence in the scores that B must absorb comes from the
serial correlation the fitted i.i.d.-mixture model ignores.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dgp import Sample
from .errors import EstimationError, JsonRecord, ValidationError
from .mixture import ModelSpec, decode_jacobian, hessian, score_contributions

ANDREWS_RHO_CLAMP = 0.97
_PARZEN_CONSTANT = 2.6614  # Andrews' optimal-rate constant for the Parzen kernel


@dataclass
class HacConfig(JsonRecord):
    """Bandwidth policy of the HAC middle (Parzen kernel, demeaned scores)."""

    json_label = "hac"

    bandwidth: Union[str, float] = "auto"  # "auto" or a fixed value >= 0

    def violations(self) -> list:
        b = self.bandwidth
        if b == "auto" or (not isinstance(b, str) and b >= 0):
            return []
        return [f"bandwidth must be 'auto' or a finite number >= 0, got {b!r}"]


def parzen_weight(x: float) -> float:
    """Parzen kernel: smooth, compactly supported, PSD-preserving weights."""
    ax = abs(x)
    if ax <= 0.5:
        return 1.0 - 6.0 * ax * ax + 6.0 * ax ** 3
    if ax <= 1.0:
        return 2.0 * (1.0 - ax) ** 3
    return 0.0


def _ar1_column_fits(scores: np.ndarray):
    """Least-squares AR(1) coefficient and innovation variance per column.

    Columns with (numerically) zero variance are dropped; returns the
    kept columns' (rho, sigma2) arrays.  The loop over columns is kept on
    purpose: one array expression over all columns gives the same bits,
    but on a sandwich over 10^6 score rows (the oracle, 2-core VM) its
    full-size temporaries took peak memory from 262 to 490 MB, and the
    oracle ran slower (1.34-1.36 s against 1.29-1.33 s).
    """
    rhos = []
    sig2s = []
    for col in scores.T:
        sd = col.std()
        if sd <= 1e-12 * (1.0 + abs(col.mean())):
            continue
        lag = col[:-1]
        cur = col[1:]
        denom = (lag * lag).sum()
        if denom <= 0:
            continue
        rho = (cur * lag).sum() / denom
        rho = min(max(rho, -ANDREWS_RHO_CLAMP), ANDREWS_RHO_CLAMP)
        resid = cur - rho * lag
        sig2 = (resid * resid).mean()
        rhos.append(rho)
        sig2s.append(sig2)
    return np.array(rhos), np.array(sig2s)


def andrews_bandwidth(scores: np.ndarray) -> float:
    """AR(1) plug-in bandwidth for the Parzen kernel, unit column weights.

    S_T = 2.6614 (alpha2 T)^{1/5} with
    alpha2 = sum_a 4 rho_a^2 sig_a^4 / (1-rho_a)^8  /  sum_a sig_a^4 / (1-rho_a)^4.
    """
    t_len = len(scores)  # before the reshape, which no empty array survives
    if t_len < 10:
        raise ValidationError(f"need at least 10 score rows, got {t_len}")
    scores = np.asarray(scores, dtype=float).reshape(t_len, -1)
    rhos, sig2s = _ar1_column_fits(scores)
    if rhos.size == 0:
        raise EstimationError("all score columns are degenerate (zero variance); "
                              "cannot select a bandwidth")
    numer = (4.0 * rhos ** 2 * sig2s ** 2 / (1.0 - rhos) ** 8).sum()
    denom = (sig2s ** 2 / (1.0 - rhos) ** 4).sum()
    alpha2 = numer / denom
    return float(_PARZEN_CONSTANT * (alpha2 * t_len) ** 0.2)


def hac_middle(scores: np.ndarray, cfg: Optional[HacConfig] = None,
               info: Optional[dict] = None) -> np.ndarray:
    """Long-run variance estimate of the score rows.

    B = Gamma_0 + sum_{j=1}^{floor(S_T)} k(j/S_T) (Gamma_j + Gamma_j'),
    Gamma_j = T^{-1} sum_t g_t g_{t-j}', symmetrized.  B is positive
    semidefinite by construction, so it needs no repair: with the 1/T
    autocovariances, a'Ba = T^{-1} sum_{t,u} k((t-u)/S_T) x_t x_u for
    x_t = a'g_t, and the Parzen kernel has a nonnegative spectral window,
    so the matrix [k((t-u)/S_T)] is PSD for every S_T > 0 (Andrews 1991).
    Rounding alone leaves a negative eigenvalue, of the order of machine
    epsilon times the largest.  Pass a dict as `info` to collect
    diagnostics (bandwidth, lag count, truncation flag, smallest
    eigenvalue).
    """
    if cfg is None:
        cfg = HacConfig()
    cfg.validate()
    t_len = len(scores)
    if t_len < 2:
        raise ValidationError(f"need at least 2 score rows, got {t_len}")
    g = np.asarray(scores, dtype=float).reshape(t_len, -1)
    g = g - g.mean(axis=0)

    if cfg.bandwidth == "auto":
        s_t = andrews_bandwidth(g)
    else:
        s_t = float(cfg.bandwidth)
    truncated = False
    if s_t >= t_len:
        warnings.warn(f"HAC bandwidth {s_t:.2f} >= T = {t_len}; truncating "
                      f"to {t_len - 1}", stacklevel=2)
        s_t = float(t_len - 1)
        truncated = True

    b_mat = g.T @ g / t_len
    n_lags = int(math.floor(s_t)) if s_t > 0 else 0
    for j in range(1, n_lags + 1):
        k = parzen_weight(j / s_t)
        if k == 0.0:
            continue
        gamma_j = g[j:].T @ g[:-j] / t_len
        b_mat = b_mat + k * (gamma_j + gamma_j.T)
    b_mat = 0.5 * (b_mat + b_mat.T)
    if info is not None:
        info.update({"bandwidth": s_t, "n_lags": n_lags, "truncated": truncated,
                     "min_eig": float(np.linalg.eigvalsh(b_mat)[0])})
    return b_mat


def sandwich_cov(theta_free: np.ndarray, sample: Sample, spec: ModelSpec,
                 cfg: Optional[HacConfig] = None, info: Optional[dict] = None):
    """Robust covariance and standard errors on the reporting scale.

    Builds V = A^{-1} B A^{-1} / T on the unconstrained scale at
    `theta_free` (a converged estimate), then maps to the natural
    parameters (mu, slope, sigma, weights) by the delta method through the
    decode Jacobian.  Returns (covariance, std_errors) ordered as
    ModelSpec.natural_names().  `cfg` is hac_middle's: None is HacConfig().
    """
    theta_free = np.asarray(theta_free, dtype=float)
    # scores before the Hessian: freed row blocks stay in the heap, and the
    # score pass's full-length temporaries would otherwise stack on them
    g = score_contributions(theta_free, sample, spec)
    a_mat = hessian(theta_free, sample, spec)
    cond = np.linalg.cond(a_mat)
    if not np.isfinite(cond) or cond > 1e12:
        raise EstimationError(
            f"Hessian numerically singular (condition number {cond:.3e}); "
            "check estimator convergence and component degeneracy")
    t_len = g.shape[0]
    b_mat = hac_middle(g, cfg, info=info)
    inv_a_b = np.linalg.solve(a_mat, b_mat)
    v_free = np.linalg.solve(a_mat, inv_a_b.T).T / t_len
    v_free = 0.5 * (v_free + v_free.T)

    jac = decode_jacobian(theta_free, spec)
    v_nat = jac @ v_free @ jac.T
    v_nat = 0.5 * (v_nat + v_nat.T)
    std_errors = np.sqrt(np.clip(np.diag(v_nat), 0.0, None))
    return v_nat, std_errors
