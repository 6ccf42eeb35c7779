"""Postulated i.i.d.-regime Gaussian mixture: likelihood, score, Hessian.

The fitted model treats the regime as an i.i.d. categorical draw with
probabilities theta_bar (ignoring any serial dependence in the data), and
the outcome within regime s as Gaussian around a regime-specific linear
index.  Two outcome forms are supported:

* "hmm":  index mu(s) + gamma(s) w_t, all coefficients regime-specific
* "msar": index mu(s) + phi y_{t-1}, slope phi shared across regimes

Optimization works on an unconstrained FreeVector (log sigmas, logit
weights anchored at the last component); all public operations accept
either natural parameters (MixtureParams) or free vectors as documented.
mixture_kernel is the one place that forms the weighted log-density
matrix; EM, the likelihood, the score and BFGS each call it once per point.
neg_loglik_and_score is the one BFGS objective, pooled over samples, that
both the estimator and the switching-AR oracle minimize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dgp import RegimeOutcome, Sample
from .errors import ConfigurationError, ValidationError, require_fixed

_LOG_2PI = math.log(2.0 * math.pi)
SIGMA_MIN = 1e-6
SIGMA_MAX = 1e6
_LOG_SIGMA_MIN = math.log(SIGMA_MIN)
_LOG_SIGMA_MAX = math.log(SIGMA_MAX)

_FORMS = ("hmm", "msar")
# which coefficients are regime-specific; fixed by the form
_CANONICAL_FLAGS = {
    "hmm": {"mu": True, "slope": True, "sigma": True},
    "msar": {"mu": True, "slope": False, "sigma": True},
}


@dataclass
class ModelSpec:
    """Shape of the fitted mixture: component count and outcome form."""

    d: int
    form: str = "hmm"

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ConfigurationError(f"form must be one of {_FORMS}, got {self.form!r}")
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")

    @property
    def q(self) -> int:
        """FreeVector dimension."""
        n_slope = self.d if self.form == "hmm" else 1
        return self.d + n_slope + self.d + (self.d - 1)

    def regression_frame(self, sample: Sample):
        """Extract the (response, regressor) pair used by the likelihood."""
        if sample.T < 1:
            raise ValidationError("empty sample")
        if self.form == "hmm":
            return sample.y, sample.w
        if sample.T < 2:
            raise ValidationError(
                "autoregressive form needs at least 2 observations "
                "(the first is conditioned on)")
        return sample.y[1:], sample.y[:-1]

    def natural_names(self) -> list:
        slopes = ([f"gamma_{s}" for s in range(1, self.d + 1)]
                  if self.form == "hmm" else ["phi"])
        return ([f"mu_{s}" for s in range(1, self.d + 1)] + slopes
                + [f"sigma_{s}" for s in range(1, self.d + 1)]
                + [f"weight_{s}" for s in range(1, self.d + 1)])

    def to_json(self) -> dict:
        return {"d": self.d, "form": self.form,
                "switching_flags": dict(_CANONICAL_FLAGS[self.form])}

    @classmethod
    def from_json(cls, obj: dict) -> "ModelSpec":
        spec = cls(d=int(obj["d"]), form=obj["form"])
        require_fixed(obj, "switching_flags", _CANONICAL_FLAGS[spec.form],
                      ConfigurationError)
        return spec


@dataclass
class MixtureParams:
    """Mixture parameter point: per-component coefficients plus weights."""

    components: list  # list[RegimeOutcome]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def mu_vec(self) -> np.ndarray:
        return np.array([c.mu for c in self.components])

    @property
    def gamma_vec(self) -> np.ndarray:
        return np.array([c.gamma for c in self.components])

    @property
    def sigma_vec(self) -> np.ndarray:
        return np.array([c.sigma for c in self.components])

    def violations(self) -> list:
        out = []
        for i, c in enumerate(self.components):
            out.extend(f"components[{i}]: {v}" for v in c.violations())
        if len(self.weights) != self.d:
            out.append(f"weights length {len(self.weights)} != d = {self.d}")
            return out
        if not np.isfinite(self.weights).all():
            out.append("weights must be finite")
        elif (self.weights <= 0).any():
            out.append(f"weights must be strictly positive, got {self.weights}")
        elif abs(self.weights.sum() - 1.0) > 1e-12:
            out.append(f"weights must sum to 1 within 1e-12, "
                       f"got sum = {self.weights.sum()!r}")
        return out

    def validate(self) -> None:
        violations = self.violations()
        if violations:
            raise ValidationError(violations)

    def permuted(self, perm: Sequence[int]) -> "MixtureParams":
        """Relabel components by `perm`: new component i is old component perm[i]."""
        perm = list(perm)
        if sorted(perm) != list(range(self.d)):
            raise ValidationError(f"not a permutation of 0..{self.d - 1}: {perm}")
        return MixtureParams(
            components=[self.components[p] for p in perm],
            weights=self.weights[perm],
        )

    def sorted_by_mu(self) -> "MixtureParams":
        """Canonical reporting order: components sorted by mu ascending."""
        order = np.argsort(self.mu_vec, kind="stable")
        return self.permuted(order.tolist())

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components],
                "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "MixtureParams":
        return cls(components=[RegimeOutcome.from_json(c) for c in obj["components"]],
                   weights=np.asarray(obj["weights"], dtype=float))


def encode(params: MixtureParams, spec: ModelSpec) -> np.ndarray:
    """Map valid MixtureParams to the unconstrained FreeVector."""
    params.validate()
    if params.d != spec.d:
        raise ValidationError(f"params have d = {params.d}, spec expects {spec.d}")
    mu = params.mu_vec
    sigma = params.sigma_vec
    if spec.form == "hmm":
        slope = params.gamma_vec
    else:
        gammas = params.gamma_vec
        if np.ptp(gammas) > 1e-12 * max(1.0, np.abs(gammas).max()):
            raise ValidationError(
                f"autoregressive form shares one slope across components, "
                f"got distinct values {gammas}")
        slope = gammas[:1]
    logits = np.log(params.weights[:-1]) - math.log(params.weights[-1])
    return np.concatenate([mu, slope, np.log(sigma), logits])


def decode(free: np.ndarray, spec: ModelSpec) -> MixtureParams:
    """Map any real FreeVector to valid MixtureParams (sigmas clamped)."""
    free = np.asarray(free, dtype=float)
    if free.shape != (spec.q,):
        raise ValidationError(f"free vector must have length {spec.q}, "
                              f"got shape {free.shape}")
    d = spec.d
    mu, slope, log_sigma, logits = _split_free(free, spec)
    sigma = np.exp(np.clip(log_sigma, _LOG_SIGMA_MIN, _LOG_SIGMA_MAX))
    full_logits = np.concatenate([logits, [0.0]])
    full_logits -= full_logits.max()
    weights = np.exp(full_logits)
    weights /= weights.sum()
    gamma = slope if spec.form == "hmm" else np.full(d, slope[0])
    components = [RegimeOutcome(mu=mu[s], gamma=gamma[s], sigma=sigma[s])
                  for s in range(d)]
    return MixtureParams(components=components, weights=weights)


def _split_free(free: np.ndarray, spec: ModelSpec):
    d = spec.d
    n_slope = d if spec.form == "hmm" else 1
    mu = free[:d]
    slope = free[d:d + n_slope]
    log_sigma = free[d + n_slope:d + n_slope + d]
    logits = free[d + n_slope + d:]
    return mu, slope, log_sigma, logits


def natural_vector(params: MixtureParams, spec: ModelSpec) -> np.ndarray:
    """Stack parameters on the reporting scale: mu, slope(s), sigma, weights."""
    slope = params.gamma_vec if spec.form == "hmm" else params.gamma_vec[:1]
    return np.concatenate([params.mu_vec, slope, params.sigma_vec, params.weights])


def decode_jacobian(free: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Jacobian of natural_vector(decode(free)) with respect to free.

    Exact derivatives: identity blocks for mu and slope coordinates,
    diag(sigma) for the log-sigma block, and the softmax Jacobian
    d w_j / d l_s = w_j (1{j=s} - w_s) for the weight block.
    """
    params = decode(free, spec)
    d = spec.d
    n_slope = d if spec.form == "hmm" else 1
    q = spec.q
    n_nat = d + n_slope + d + d
    jac = np.zeros((n_nat, q))
    jac[:d + n_slope, :d + n_slope] = np.eye(d + n_slope)
    sigma = params.sigma_vec
    for s in range(d):
        jac[d + n_slope + s, d + n_slope + s] = sigma[s]
    w = params.weights
    row0 = d + n_slope + d
    col0 = d + n_slope + d
    for j in range(d):
        for s in range(d - 1):
            jac[row0 + j, col0 + s] = w[j] * ((1.0 if j == s else 0.0) - w[s])
    return jac


def mixture_kernel(params: MixtureParams, y: np.ndarray, x: np.ndarray):
    """Per-row log mixture density, responsibilities and standardized residuals.

    All three come from the weighted log-density matrix a[t, s] = ln(w_s) +
    ln N(y_t; mu_s + gamma_s x_t, sigma_s).  Its row-wise log-sum-exp adds
    the terms in sorted order, so the floating-point reduction does not
    depend on column order: relabeling the components changes nothing, not
    even in the last bit.
    """
    mu = params.mu_vec
    gamma = params.gamma_vec
    sigma = params.sigma_vec
    r = (y[:, None] - mu[None, :] - gamma[None, :] * x[:, None]) / sigma[None, :]
    a = (np.log(params.weights)[None, :] - np.log(sigma)[None, :]
         - 0.5 * _LOG_2PI - 0.5 * r * r)
    srt = np.sort(a, axis=1)
    top = srt[:, -1]
    lse = top + np.log1p(np.exp(srt[:, :-1] - top[:, None]).sum(axis=1))
    return lse, np.exp(a - lse[:, None]), r


def loglik_terms(params: MixtureParams, sample: Sample, spec: ModelSpec) -> np.ndarray:
    """Per-observation log mixture density ln sum_s w_s p(y_t | x_t, s)."""
    params.validate()
    if params.d != spec.d:
        raise ValidationError(f"params have d = {params.d}, spec expects {spec.d}")
    y, x = spec.regression_frame(sample)
    return mixture_kernel(params, y, x)[0]


def quasi_loglik(params: MixtureParams, sample: Sample, spec: ModelSpec) -> float:
    """Average log mixture density over the usable observations."""
    return float(np.mean(loglik_terms(params, sample, spec)))


def loglik_and_score_contributions(free: np.ndarray, sample: Sample,
                                   spec: ModelSpec):
    """loglik_terms and score_contributions at decode(free), from one kernel
    call; a decoded point that MixtureParams.validate rejects raises."""
    params = decode(free, spec)
    params.validate()
    y, x = spec.regression_frame(sample)
    lse, resp, r = mixture_kernel(params, y, x)
    d_mu = resp * r / params.sigma_vec[None, :]
    d_slope = d_mu * x[:, None]
    if spec.form == "msar":
        d_slope = d_slope.sum(axis=1, keepdims=True)
    d_log_sigma = resp * (r * r - 1.0)
    d_logit = resp[:, :-1] - params.weights[None, :-1]
    return lse, np.concatenate([d_mu, d_slope, d_log_sigma, d_logit], axis=1)


def score_contributions(free: np.ndarray, sample: Sample,
                        spec: ModelSpec) -> np.ndarray:
    """Per-observation gradients of the log mixture density, shape (T_eff, q).

    Row t is the gradient of ln sum_s w_s p(y_t | x_t, s) with respect to
    the FreeVector coordinates; column means equal score().
    """
    return loglik_and_score_contributions(free, sample, spec)[1]


def neg_loglik_and_score(free: np.ndarray, samples: Sequence[Sample],
                         spec: ModelSpec):
    """Minus the average quasi-log-likelihood and minus its score at
    decode(free), pooled over the usable rows of every sample.

    The one objective BFGS minimizes, for the estimator and the oracle; one
    kernel call per sample.
    """
    total = 0.0
    grad = np.zeros(spec.q)
    n_rows = 0
    for sample in samples:
        terms, contrib = loglik_and_score_contributions(free, sample, spec)
        total += float(terms.sum())
        grad += contrib.sum(axis=0)
        n_rows += len(terms)
    return -total / n_rows, -grad / n_rows


def score(free: np.ndarray, sample: Sample, spec: ModelSpec) -> np.ndarray:
    """Gradient of quasi_loglik at decode(free), length q."""
    return score_contributions(free, sample, spec).mean(axis=0)


def hessian(free: np.ndarray, sample: Sample, spec: ModelSpec) -> np.ndarray:
    """Hessian of quasi_loglik by central differences of the analytic score.

    Step 1e-4 scaled by coordinate magnitude; result symmetrized.
    """
    free = np.asarray(free, dtype=float)
    q = spec.q
    cols = np.empty((q, q))
    for i in range(q):
        h = 1e-4 * max(1.0, abs(free[i]))
        bump = np.zeros(q)
        bump[i] = h
        cols[:, i] = (score(free + bump, sample, spec)
                      - score(free - bump, sample, spec)) / (2.0 * h)
    return 0.5 * (cols + cols.T)
