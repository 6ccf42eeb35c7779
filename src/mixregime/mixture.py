"""Postulated i.i.d.-regime Gaussian mixture: likelihood, score, Hessian.

The fitted model treats the regime as an i.i.d. categorical draw with
probabilities theta_bar (ignoring any serial dependence in the data), and
the outcome within regime s as Gaussian around a regime-specific linear
index.  Two outcome forms are supported:

* "hmm":  index mu(s) + gamma(s) w_t, all coefficients regime-specific
* "msar": index mu(s) + phi y_{t-1}, slope phi shared across regimes

The core works on an unconstrained FreeVector (log sigmas, logit weights
anchored at the last component, in the blocks ModelSpec.blocks names) and on
the four arrays (mu, gamma, sigma, weights), which decode_arrays and
encode_arrays map to each other and point_violations checks.  MixtureParams,
a record of RegimeOutcome components, is the form at the API edge only.
mixture_kernel is the one place that forms the weighted log-density
matrix; the likelihood and the score call it once per point, and the
estimator's EM once per iteration for all its starts, stacked (S, d).  It
works component-major, one contiguous length-T row per component, and
returns the responsibilities per row, (T, d), and the standardized
residuals as it computes them, (d, T).  For d = 2 its log-sum-exp over
components takes max and min instead of a sort.
loglik_score_hessian sums the loglik, the score and the closed-form Hessian
(Louis's identity, from responsibility-weighted moments and the score rows'
Gram matrix) over rows from one kernel call, for one point or S stacked
ones.  neg_loglik_score_hessian is the Newton polish's evaluation, which the
estimator and the QML-limit oracle share: minus the average of the three,
pooled over frames of any length by summing loglik_score_hessian over fixed
blocks of rows, so that memory stays flat in T.  hessian is its one-point
case.  neg_loglik_and_score is the reference objective that the tests
compare the pass and its finite differences against; it sums the score from
the kernel's outputs with no row matrix.  score_contributions is the
per-row form, (T, q), which only the sandwich's long-run variance needs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dgp import HmmDgpParams, RegimeOutcome, Sample, outcome_violations
from .errors import (ConfigurationError, JsonRecord, ValidationError,
                     count_faults)

_LOG_2PI = math.log(2.0 * math.pi)
# bounds of a component scale: decode clamps to both, EM floors at SIGMA_MIN
SIGMA_MIN = 1e-6
SIGMA_MAX = 1e6
LOG_SIGMA_MIN = math.log(SIGMA_MIN)
_LOG_SIGMA_MAX = math.log(SIGMA_MAX)

_FORMS = ("hmm", "msar")
# rows per loglik_score_hessian call in neg_loglik_score_hessian: bounds the
# temporaries of each call
_BLOCK_ROWS = 1 << 16


class FreeBlocks(NamedTuple):
    """FreeVector slices of the four parameter blocks, in this order."""

    mu: slice
    slope: slice
    log_sigma: slice
    logit: slice


@functools.lru_cache(maxsize=None)
def _free_blocks(d: int, k: int) -> FreeBlocks:
    """FreeBlocks of d components with k slope coefficients; decode reads
    them on every evaluation, so each layout is built once."""
    return FreeBlocks(slice(0, d), slice(d, d + k), slice(d + k, 2 * d + k),
                      slice(2 * d + k, None))


@dataclass
class ModelSpec(JsonRecord):
    """Shape of the fitted mixture: component count and outcome form."""

    d: int
    form: str = "hmm"

    def __post_init__(self):
        self.validate()  # the field types and d >= 1: a bool or 2.5 is no d
        if self.form not in _FORMS:
            raise ConfigurationError(f"form must be one of {_FORMS}, got {self.form!r}")

    def violations(self) -> list:
        return count_faults(self.d, "d", 1)

    @property
    def n_slope(self) -> int:
        """Slope coefficients: one per component, or one shared (msar)."""
        return self.d if self.form == "hmm" else 1

    @property
    def q(self) -> int:
        """FreeVector dimension."""
        return self.d + self.n_slope + self.d + (self.d - 1)

    @property
    def blocks(self) -> FreeBlocks:
        """Where each parameter block sits in the FreeVector."""
        return _free_blocks(self.d, self.n_slope)

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

    @classmethod
    def for_dgp(cls, dgp: HmmDgpParams) -> "ModelSpec":
        """The mixture fitted to data from `dgp`: one component per regime,
        switching-AR form exactly when the DGP sets ar_coefficient."""
        return cls(d=dgp.d, form="hmm" if dgp.ar_coefficient is None else "msar")

    def natural_names(self) -> list:
        slopes = ([f"gamma_{s}" for s in range(1, self.d + 1)]
                  if self.form == "hmm" else ["phi"])
        return ([f"mu_{s}" for s in range(1, self.d + 1)] + slopes
                + [f"sigma_{s}" for s in range(1, self.d + 1)]
                + [f"weight_{s}" for s in range(1, self.d + 1)])


@dataclass
class MixtureParams(JsonRecord):
    """Mixture parameter point at the API edge: components plus weights."""

    components: list  # list[RegimeOutcome]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    @classmethod
    def from_arrays(cls, mu, gamma, sigma, weights) -> "MixtureParams":
        return cls([RegimeOutcome(*map(float, outcome))
                    for outcome in zip(mu, gamma, sigma)], weights)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def outcome_matrix(self) -> np.ndarray:
        """(d, 3) matrix with one (mu, gamma, sigma) row per component."""
        return np.array([(c.mu, c.gamma, c.sigma) for c in self.components],
                        dtype=float)

    def arrays(self) -> tuple:
        """The point as the four arrays (mu, gamma, sigma, weights)."""
        mu, gamma, sigma = self.outcome_matrix.T.copy()
        return mu, gamma, sigma, self.weights

    def validate(self) -> None:
        violations = point_violations(*self.arrays())
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
        order = np.argsort(self.outcome_matrix[:, 0], kind="stable")
        return self.permuted(order.tolist())


def true_reference(dgp: HmmDgpParams) -> MixtureParams:
    """The DGP's true outcome coefficients as a mixture point, with the
    switching AR's phi as every component's slope and uniform weights (the
    DGP has no true weights: fitted ones estimate a design-dependent limit).
    It is the alignment reference and the oracle's Newton start."""
    phi = dgp.ar_coefficient
    outcomes = np.array([(c.mu, c.gamma if phi is None else phi, c.sigma)
                         for c in dgp.outcomes])
    return MixtureParams.from_arrays(*outcomes.T, np.full(dgp.d, 1.0 / dgp.d))


def point_violations(mu, gamma, sigma, weights) -> list:
    """One message per fault of the point (mu, gamma, sigma, weights)."""
    # Python scalars: numpy's per-call overhead would dominate at this size
    out = outcome_violations(
        zip(mu.tolist(), gamma.tolist(), sigma.tolist()), "components")
    if len(weights) != len(mu):
        return out + [f"weights length {len(weights)} != d = {len(mu)}"]
    if not all(map(math.isfinite, weights.tolist())):
        out.append("weights must be finite")
    elif any(v <= 0 for v in weights.tolist()):
        out.append(f"weights must be strictly positive, got {weights}")
    elif abs(weights.sum() - 1.0) > 1e-12:
        out.append(f"weights must sum to 1 within 1e-12, "
                   f"got sum = {weights.sum()!r}")
    return out


def checked_point(mu, gamma, sigma, weights, spec: ModelSpec) -> tuple:
    """The point (mu, gamma, sigma, weights) if valid with d = spec.d."""
    violations = point_violations(mu, gamma, sigma, weights)
    if violations:
        raise ValidationError(violations)
    if len(mu) != spec.d:
        raise ValidationError(f"params have d = {len(mu)}, spec expects {spec.d}")
    return mu, gamma, sigma, weights


def encode_arrays(mu, gamma, sigma, weights, spec: ModelSpec) -> np.ndarray:
    """Map a valid point (mu, gamma, sigma, weights) to the FreeVector."""
    checked_point(mu, gamma, sigma, weights, spec)
    if (spec.form == "msar"
            and np.ptp(gamma) > 1e-12 * max(1.0, np.abs(gamma).max())):
        raise ValidationError(f"autoregressive form shares one slope across "
                              f"components, got distinct values {gamma}")
    logits = np.log(weights[:-1]) - math.log(weights[-1])
    return np.concatenate([mu, gamma[:spec.n_slope], np.log(sigma), logits])


def decode_arrays(free: np.ndarray, spec: ModelSpec) -> tuple:
    """Any real FreeVector, or a stack (S, q) of them, as (mu, gamma, sigma,
    weights), sigmas clamped; a stack gives (S, d) arrays, one row per point."""
    free = np.array(free, dtype=float)  # a copy: mu is a slice of it
    if free.shape[-1:] != (spec.q,) or free.ndim > 2:
        raise ValidationError(f"free vector must have length {spec.q}, "
                              f"got shape {free.shape}")
    mu, slope, log_sigma, logits = [free[..., b] for b in spec.blocks]
    sigma = np.exp(np.clip(log_sigma, LOG_SIGMA_MIN, _LOG_SIGMA_MAX))
    full_logits = np.concatenate([logits, np.zeros(free.shape[:-1] + (1,))],
                                 axis=-1)
    weights = np.exp(full_logits - full_logits.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    gamma = slope if spec.form == "hmm" else np.repeat(slope, spec.d, axis=-1)
    return mu, gamma, sigma, weights


def encode(params: MixtureParams, spec: ModelSpec) -> np.ndarray:
    """Map valid MixtureParams to the unconstrained FreeVector."""
    return encode_arrays(*params.arrays(), spec)


def decode(free: np.ndarray, spec: ModelSpec) -> MixtureParams:
    """Map any real FreeVector to MixtureParams (sigmas clamped)."""
    return MixtureParams.from_arrays(*decode_arrays(free, spec))


def natural_vector(params: MixtureParams, spec: ModelSpec) -> np.ndarray:
    """Stack parameters on the reporting scale: mu, slope(s), sigma, weights."""
    mu, gamma, sigma, weights = params.arrays()
    return np.concatenate([mu, gamma[:spec.n_slope], sigma, weights])


def decode_jacobian(free: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """Jacobian of natural_vector(decode(free)) with respect to free.

    Exact derivatives: identity blocks for mu and slope coordinates,
    diag(sigma) for the log-sigma block, and the softmax Jacobian
    d w_j / d l_s = w_j (1{j=s} - w_s) for the weight block.
    """
    _, _, sigma, w = decode_arrays(free, spec)
    blocks = spec.blocks
    n_lin = blocks.slope.stop  # mu and slope coordinates are natural already
    # the natural vector has d weights where the FreeVector has d - 1 logits
    jac = np.zeros((spec.q + 1, spec.q))
    jac[:n_lin, :n_lin] = np.eye(n_lin)
    jac[blocks.log_sigma, blocks.log_sigma] = np.diag(sigma)
    jac[blocks.logit.start:, blocks.logit] = w[:, None] * (
        np.eye(spec.d)[:, :spec.d - 1] - w[None, :spec.d - 1])
    return jac


def mixture_kernel(mu: np.ndarray, gamma: np.ndarray, sigma: np.ndarray,
                   weights: np.ndarray, y: np.ndarray, x: np.ndarray):
    """Per-row log mixture density, responsibilities and standardized residuals.

    All three come from the weighted log-density matrix a[s, t] = ln(w_s) +
    ln N(y_t; mu_s + gamma_s x_t, sigma_s), held component-major so that
    each elementwise pass runs on contiguous length-T rows.  The parameter
    arrays are (d,) or stacked (S, d), one row per point: lse is (..., T),
    the responsibilities are a contiguous (..., T, d) copy, the residuals
    stay component-major (..., d, T) as computed, and each stacked point's
    slice has the bits of its own call.

    The log-sum-exp over components adds the terms in sorted order, so the
    floating-point reduction does not depend on component order: relabeling
    the components changes nothing, not even in the last bit.  For two
    terms, max and min are that sorted order, so d = 2 skips the sort and
    gives the same bits.
    """
    r = (y - mu[..., None] - gamma[..., None] * x) / sigma[..., None]
    a = 0.5 * r * r
    np.subtract((np.log(weights) - np.log(sigma) - 0.5 * _LOG_2PI)[..., None],
                a, out=a)
    if mu.shape[-1] == 2:
        a0, a1 = a[..., 0, :], a[..., 1, :]
        top = np.maximum(a0, a1)
        lse = top + np.log1p(np.exp(np.minimum(a0, a1) - top))
    else:
        srt = np.sort(a, axis=-2)
        top = srt[..., -1, :]
        lse = top + np.log1p(
            np.exp(srt[..., :-1, :] - top[..., None, :]).sum(axis=-2))
        del srt, top
    a -= lse[..., None, :]
    np.exp(a, out=a)
    return lse, a.swapaxes(-1, -2).copy(), r


def loglik_terms(params: MixtureParams, sample: Sample, spec: ModelSpec) -> np.ndarray:
    """Per-observation log mixture density ln sum_s w_s p(y_t | x_t, s)."""
    point = checked_point(*params.arrays(), spec)
    y, x = spec.regression_frame(sample)
    return mixture_kernel(*point, y, x)[0]


def score_contributions(free: np.ndarray, sample: Sample,
                        spec: ModelSpec) -> np.ndarray:
    """Per-observation gradients of the log mixture density, shape (T_eff, q).

    Row t is the gradient of ln sum_s w_s p(y_t | x_t, s) with respect to
    the FreeVector coordinates; their column means are the score, minus the
    gradient that neg_loglik_and_score returns.  A decoded point that
    checked_point rejects raises.
    """
    mu, gamma, sigma, weights = checked_point(*decode_arrays(free, spec), spec)
    y, x = spec.regression_frame(sample)
    _, resp, r = mixture_kernel(mu, gamma, sigma, weights, y, x)
    d_mu = resp * r.T / sigma[None, :]
    d_slope = d_mu * x[:, None]
    if spec.form == "msar":
        d_slope = d_slope.sum(axis=1, keepdims=True)
    d_log_sigma = resp * (r.T * r.T - 1.0)
    d_logit = resp[:, :-1] - weights[None, :-1]
    return np.concatenate([d_mu, d_slope, d_log_sigma, d_logit], axis=1)


def neg_loglik_and_score(free: np.ndarray, samples: Sequence[Sample],
                         spec: ModelSpec):
    """Minus the average quasi-log-likelihood and minus its score at
    decode(free), pooled over the usable rows of every sample.

    The reference objective: tests check neg_loglik_score_hessian and its
    Hessian's finite differences against it.  One kernel call per sample.
    The point is decoded and checked once, and the score's column sums are
    formed from the kernel's outputs directly, with no (T, q) row matrix:
    with rr[s, t] = resp[t, s] r[s, t], the mu block is rr's row sums over
    sigma, the slope block rr @ x over sigma, the log sigma block the sums
    of rr r less each component's mass, and the logit block the masses less
    T times the weights.
    """
    mu, gamma, sigma, weights = checked_point(*decode_arrays(free, spec), spec)
    total = 0.0
    grad = np.zeros(spec.q)
    g_mu, g_slope, g_log_sigma, g_logit = [grad[b] for b in spec.blocks]
    n_rows = 0
    for sample in samples:
        y, x = spec.regression_frame(sample)
        lse, resp, r = mixture_kernel(mu, gamma, sigma, weights, y, x)
        rr = r * resp.T
        mass = resp.sum(axis=0)
        total += float(lse.sum())
        g_mu += rr.sum(axis=1) / sigma
        d_slope = (rr @ x) / sigma
        g_slope += d_slope if spec.form == "hmm" else d_slope.sum()
        g_log_sigma += (rr * r).sum(axis=1) - mass
        g_logit += mass[:-1] - len(y) * weights[:-1]
        n_rows += len(y)
    return -total / n_rows, -grad / n_rows


@functools.lru_cache(maxsize=None)
def _local_embedding(d: int, k: int) -> np.ndarray:
    """(d, d + 2, q) one-hot maps from component s's local coordinates
    (mu_s, slope_s, log sigma_s, the d - 1 logits) to the FreeVector of d
    components with k slope coefficients; with k = 1 every component's
    slope is the shared one."""
    blocks = _free_blocks(d, k)
    embed = np.zeros((d, d + 2, blocks.logit.start + d - 1))
    for s in range(d):
        embed[s, 0, blocks.mu.start + s] = 1.0
        embed[s, 1, blocks.slope.start + min(s, k - 1)] = 1.0
        embed[s, 2, blocks.log_sigma.start + s] = 1.0
        embed[s, 3:, blocks.logit] = np.eye(d - 1)
    return embed


def loglik_score_hessian(point: tuple, y: np.ndarray, x: np.ndarray,
                         spec: ModelSpec) -> tuple:
    """Quasi-log-likelihood, score and Hessian in the FreeVector, each summed
    over the rows (y, x), at `point` = (mu, gamma, sigma, weights), from one
    mixture_kernel call.

    The arrays are (d,) or stacked (S, d), and the sums are then (S,),
    (S, q) and (S, q, q), each stacked point's slice with the bits of its
    own call.  The Hessian is closed-form (Louis 1982).  With a[t, s] the
    weighted log density of mixture_kernel, g[t, s] its gradient, rho[t, s]
    the responsibilities and gbar[t] = sum_s rho[t, s] g[t, s] the score
    row, the row Hessian is sum_s rho[t, s] (d2 a[t, s] + g[t, s] g[t, s]')
    - gbar[t] gbar[t]'.  Component s touches only its local coordinates
    (mu_s, slope_s, log sigma_s, logits), on which g[t, s] is
    (r / sigma, r x / sigma, r^2 - 1, e_s - w) and d2 a[t, s] is -1/sigma^2
    times (1, x, x^2) on (mu, slope), -2 r / sigma and -2 r x / sigma
    against log sigma, -2 r^2 on log sigma and -(diag w - w w') on the
    logits.  So the first sum over rows needs only the responsibility-
    weighted moments sum_t rho r^k (1, x, x^2), k <= 4, of each component;
    the second is the score rows' Gram matrix.  The switching AR's shared
    slope gathers every component's slope entries.
    """
    sigma, weights = point[2], point[3]
    d = spec.d
    lse, resp, r = mixture_kernel(*point, y, x)
    # powers[k] = rho r^k, component-major (..., d, T) like r
    powers = np.empty((5,) + r.shape)
    powers[0] = resp.swapaxes(-1, -2)
    for k in range(1, 5):
        np.multiply(powers[k - 1], r, out=powers[k])
    # the score rows gbar[t], component-major (..., q, T)
    rows = np.empty(r.shape[:-2] + (spec.q, len(y)))
    d_mu, d_slope, d_log_sigma, d_logit = [rows[..., b, :] for b in spec.blocks]
    np.divide(powers[1], sigma[..., None], out=d_mu)
    if spec.form == "hmm":
        np.multiply(d_mu, x, out=d_slope)
    else:
        np.sum(d_mu * x, axis=-2, keepdims=True, out=d_slope)
    np.subtract(powers[2], powers[0], out=d_log_sigma)
    np.subtract(powers[0][..., :-1, :], weights[..., :-1, None], out=d_logit)
    # m[k][..., s, j] = sum_t rho[t, s] r[s, t]^k x_t^j
    m0, m1, m2, m3, m4 = powers @ np.stack([np.ones_like(x), x, x * x]).T
    inv = 1.0 / sigma[..., None]
    # sum_t rho (d2 a + g g') on component s's local coordinates, whose mu
    # and slope rows and columns carry a factor 1 / sigma each
    lin = m2 - m0
    local = np.empty(m0.shape[:-1] + (d + 2, d + 2))
    local[..., :2, :2] = lin[..., [[0, 1], [1, 2]]] * (inv * inv)[..., None]
    local[..., :2, 2] = local[..., 2, :2] = (m3[..., :2]
                                             - 3.0 * m1[..., :2]) * inv
    local[..., 2, 2] = m4[..., 0] - 4.0 * m2[..., 0] + m0[..., 0]
    # the logit entries of g[t, s], e_s - w, are the same on every row, so
    # they pair with the component's sums of rho g and its mass
    c = np.eye(d)[:, :d - 1] - weights[..., None, :d - 1]
    rho_g = np.concatenate([m1[..., :2] * inv, lin[..., :1]], axis=-1)
    local[..., :3, 3:] = rho_g[..., :, None] * c[..., None, :]
    local[..., 3:, :3] = local[..., :3, 3:].swapaxes(-1, -2)
    wl = weights[..., None, None, :d - 1]
    local[..., 3:, 3:] = m0[..., :1, None] * (
        c[..., :, None] * c[..., None, :] + wl.swapaxes(-1, -2) * wl
        - np.eye(d - 1) * wl)
    embed = _local_embedding(d, spec.n_slope)
    hess = ((embed.swapaxes(-1, -2) @ local @ embed).sum(axis=-3)
            - rows @ rows.swapaxes(-1, -2))
    return lse.sum(axis=-1), rows.sum(axis=-1), hess


def neg_loglik_score_hessian(free: np.ndarray, frames: Sequence[tuple],
                             spec: ModelSpec) -> tuple:
    """Minus the average quasi-log-likelihood, its gradient and its Hessian
    in the FreeVector at decode(free), pooled over the rows of every (y, x)
    frame, and whether the point is usable.

    `free` is (q,) or stacked (S, q), and the four results are then a
    scalar, (q,), (q, q) and a bool, or (S,), (S, q), (S, q, q) and (S,).
    Each frame is summed by loglik_score_hessian over blocks of _BLOCK_ROWS
    rows, so that only one block's temporaries are alive at a time; a frame
    of at most _BLOCK_ROWS rows is one call, with that call's bits.  A point
    is usable when all three are finite and no weight underflows to 0; the
    floating-point faults of an unusable point are not reported.
    """
    point = decode_arrays(free, spec)
    sums, n_rows = (0.0, 0.0, 0.0), 0
    with np.errstate(all="ignore"):
        for y, x in frames:
            for lo in range(0, len(y), _BLOCK_ROWS):
                block = slice(lo, lo + _BLOCK_ROWS)
                sums = [total + part for total, part in zip(
                    sums, loglik_score_hessian(point, y[block], x[block],
                                               spec))]
            n_rows += len(y)
    value, grad, hess = (-total / n_rows for total in sums)
    usable = (np.isfinite(value) & np.isfinite(grad).all(axis=-1)
              & np.isfinite(hess).all(axis=(-2, -1))
              & (point[3] > 0).all(axis=-1))
    return value, grad, hess, usable


def hessian(free: np.ndarray, sample: Sample, spec: ModelSpec) -> np.ndarray:
    """Hessian of the average quasi-log-likelihood at decode(free), a point
    checked_point accepts: the one-point case of neg_loglik_score_hessian,
    negated and symmetrized."""
    checked_point(*decode_arrays(free, spec), spec)
    h_mat = -neg_loglik_score_hessian(free, [spec.regression_frame(sample)],
                                      spec)[2]
    return 0.5 * (h_mat + h_mat.T)
