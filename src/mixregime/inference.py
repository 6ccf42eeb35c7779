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
from .errors import EstimationError, ValidationError, reject_unknown, require_fixed
from .mixture import ModelSpec, decode_jacobian, hessian, score_contributions

ANDREWS_RHO_CLAMP = 0.97
_PARZEN_CONSTANT = 2.6614  # Andrews' optimal-rate constant for the Parzen kernel


@dataclass
class HacConfig:
    """Bandwidth policy of the HAC middle (Parzen kernel, demeaned scores)."""

    bandwidth: Union[str, float] = "auto"  # "auto" or a fixed value >= 0

    def validate(self) -> None:
        out = []
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "auto":
                out.append(f"bandwidth must be 'auto' or a number, "
                           f"got {self.bandwidth!r}")
        elif not (math.isfinite(self.bandwidth) and self.bandwidth >= 0):
            out.append(f"fixed bandwidth must be >= 0, got {self.bandwidth}")
        if out:
            raise ValidationError(out)

    def to_json(self) -> dict:
        return {"kernel": "parzen", "bandwidth": self.bandwidth,
                "demean_scores": True}

    @classmethod
    def from_json(cls, obj: dict) -> "HacConfig":
        reject_unknown(obj, cls().to_json(), "hac")
        require_fixed(obj, "kernel", "parzen")
        require_fixed(obj, "demean_scores", True)
        return cls(bandwidth=obj.get("bandwidth", "auto"))


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
    kept columns' (rho, sigma2) arrays.
    """
    t_len, _ = scores.shape
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
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 1:
        scores = scores[:, None]
    t_len = scores.shape[0]
    if t_len < 10:
        raise ValidationError(f"need at least 10 score rows, got {t_len}")
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
    Gamma_j = T^{-1} sum_t g_t g_{t-j}'.  Symmetrized, then projected to
    PSD by flooring negative eigenvalues at zero (flagged via `info` and a
    warning).  Pass a dict as `info` to collect diagnostics (bandwidth,
    lag count, truncation and flooring flags).
    """
    if cfg is None:
        cfg = HacConfig()
    cfg.validate()
    g = np.asarray(scores, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    t_len = g.shape[0]
    if t_len < 2:
        raise ValidationError(f"need at least 2 score rows, got {t_len}")
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
    n_lags = min(n_lags, t_len - 1)
    for j in range(1, n_lags + 1):
        k = parzen_weight(j / s_t)
        if k == 0.0:
            continue
        gamma_j = g[j:].T @ g[:-j] / t_len
        b_mat = b_mat + k * (gamma_j + gamma_j.T)
    b_mat = 0.5 * (b_mat + b_mat.T)

    eigvals, eigvecs = np.linalg.eigh(b_mat)
    # repair only genuine indefiniteness, not rounding dust, so that the
    # zero-lag case stays bit-identical to the outer-product average
    psd_tol = 1e-12 * max(1.0, float(np.abs(eigvals).max()))
    floored = bool(eigvals.min() < -psd_tol)
    if floored:
        warnings.warn(f"HAC middle matrix indefinite (min eigenvalue "
                      f"{eigvals.min():.3e}); floored to PSD", stacklevel=2)
        b_mat = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
        b_mat = 0.5 * (b_mat + b_mat.T)
    if info is not None:
        info.update({"bandwidth": s_t, "n_lags": n_lags, "truncated": truncated,
                     "floored": floored, "min_eig": float(eigvals.min())})
    return b_mat


def sandwich_cov(theta_free: np.ndarray, sample: Sample, spec: ModelSpec,
                 cfg: Optional[HacConfig] = None, info: Optional[dict] = None):
    """Robust covariance and standard errors on the reporting scale.

    Builds V = A^{-1} B A^{-1} / T on the unconstrained scale at
    `theta_free` (a converged estimate), then maps to the natural
    parameters (mu, slope, sigma, weights) by the delta method through the
    decode Jacobian.  Returns (covariance, std_errors) ordered as
    ModelSpec.natural_names().
    """
    if cfg is None:
        cfg = HacConfig()
    cfg.validate()
    theta_free = np.asarray(theta_free, dtype=float)
    a_mat = hessian(theta_free, sample, spec)
    cond = np.linalg.cond(a_mat)
    if not np.isfinite(cond) or cond > 1e12:
        raise EstimationError(
            f"Hessian numerically singular (condition number {cond:.3e}); "
            "check estimator convergence and component degeneracy",
            diagnostics=[f"condition_number={cond!r}"])
    g = score_contributions(theta_free, sample, spec)
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
