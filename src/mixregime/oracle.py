"""Independent verification machinery for the pseudo-true parameter.

Three kinds of evidence about what the misspecified mixture QML should
converge to:

* pseudo_true_weights: the candidate mixture weights are the stationary
  expectation of the one-step regime transition probabilities, computed
  ergodically from a long simulated (Z, S) path with batch-mean error bars.
* pseudo_true_msar: for the switching autoregression, where y_{t-1}
  carries information about the persistent regime and the outcome
  coefficients are not the limit, the quasi-likelihood maximizer on a
  large simulated sample, with its sandwich standard error as Monte Carlo
  error.
* kl_check: the candidate parameter should beat nearby perturbations in
  expected log density under the true process; estimated with common
  random numbers so differences are sharp even when levels are noisy.
* cf_ratio_check / linear_independence_check: numerical versions of the
  tail-ratio and linear-independence conditions under which the mixture
  representation is unique; the Student-t characteristic function comes
  from its Bessel closed form, the Gram matrix from Simpson's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import minimize
from scipy.special import gammaln, kve

from .dgp import (HmmDgpParams, RegimeOutcome, Sample, seed_key,
                  simulate_hmm, simulate_msar)
from .errors import ConfigurationError, QuadratureError, ValidationError
from .estimator import EstimatorConfig, align_permutation
from .inference import HacConfig, sandwich_cov
from .mixture import (MixtureParams, ModelSpec, decode, encode, loglik_terms,
                      natural_vector, neg_loglik_and_score)

DEFAULT_N_BATCHES = 50


def _batch_means_se(values: np.ndarray, n_batches: int = DEFAULT_N_BATCHES):
    """Standard error of the mean of a serially dependent series.

    Splits the series into n_batches consecutive blocks; the variance of
    the block means absorbs the autocorrelation.
    """
    n = len(values)
    width = n // n_batches
    if width < 1:
        raise ValidationError(f"need at least {n_batches} observations for "
                              f"{n_batches} batches, got {n}")
    trimmed = values[: width * n_batches]
    means = trimmed.reshape(n_batches, width).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


@dataclass
class PseudoTrueResult:
    """Ergodic estimate of the limit mixture weights for a given DGP."""

    weights_star: np.ndarray
    outcome_star: list  # list[RegimeOutcome], copied from the DGP
    mc_error: np.ndarray
    n_sim: int
    occupancy: np.ndarray  # raw frequency of each regime, for cross-checks
    occupancy_error: np.ndarray
    ar_coefficient: Optional[float] = None

    def theta_star(self) -> MixtureParams:
        """Assemble the candidate pseudo-true mixture parameter."""
        if self.ar_coefficient is not None:
            raise ConfigurationError(
                "the switching-AR limit differs from the true outcome "
                "coefficients; compute it with pseudo_true_msar")
        return MixtureParams(components=list(self.outcome_star),
                             weights=self.weights_star.copy())

    def to_json(self) -> dict:
        return {
            "weights_star": self.weights_star.tolist(),
            "outcome_star": [c.to_json() for c in self.outcome_star],
            "mc_error": self.mc_error.tolist(),
            "n_sim": self.n_sim,
            "occupancy": self.occupancy.tolist(),
            "occupancy_error": self.occupancy_error.tolist(),
            "ar_coefficient": self.ar_coefficient,
        }


def pseudo_true_weights(dgp: HmmDgpParams, n_sim: int, burn_in: int = 500,
                        seed=0) -> PseudoTrueResult:
    """Stationary expectation of the transition rows, by long simulation.

    weights_star[s] averages P(S_{t+1} = s+1 | Z_t, S_t) over the simulated
    stationary path (a Rao-Blackwellized estimate of the limiting regime
    probabilities); the raw occupancy frequency of S_t is returned as an
    independent estimate of the same limit.  mc_error holds batch-mean
    standard errors (50 batches).
    """
    dgp.validate()
    if n_sim < 10_000:
        raise ValidationError(f"n_sim must be >= 10000, got {n_sim}")
    sample = simulate_hmm(dgp, T=n_sim, burn_in=burn_in, seed=seed)
    z = sample.z
    s0 = sample.s - 1
    spec = dgp.transition
    logits = spec.alpha[s0] + spec.beta[s0] * z[:, None]
    logits -= logits.max(axis=1, keepdims=True)
    rows = np.exp(logits)
    rows /= rows.sum(axis=1, keepdims=True)

    weights = rows.mean(axis=0)
    mc_error = np.array([_batch_means_se(rows[:, s]) for s in range(dgp.d)])
    occ = np.array([(s0 == s).mean() for s in range(dgp.d)])
    occ_err = np.array([_batch_means_se((s0 == s).astype(float))
                        for s in range(dgp.d)])
    return PseudoTrueResult(
        weights_star=weights,
        outcome_star=[RegimeOutcome(c.mu, c.gamma, c.sigma) for c in dgp.outcomes],
        mc_error=mc_error,
        n_sim=n_sim,
        occupancy=occ,
        occupancy_error=occ_err,
        ar_coefficient=dgp.ar_coefficient,
    )


MAX_PATH_LEN = 1_000_000  # longest path simulated at once; bounds memory
_MSAR_PREFIX_SHARE = 10  # the first BFGS stage uses n_sim // 10


@dataclass
class MsarPseudoTrueResult:
    """Large-sample quasi-likelihood optimum for a switching-AR process.

    theta_star lists components in the generator's regime order.
    mc_error holds sandwich standard errors of theta_star at n_sim, keyed
    like estimates() by ModelSpec.natural_names().
    """

    theta_star: MixtureParams
    mc_error: dict
    loglik: float  # average quasi-log-likelihood at theta_star
    grad_max: float  # max-norm of the score at theta_star
    converged: bool
    n_iterations: dict
    n_sim: int
    n_paths: int

    def estimates(self) -> dict:
        spec = ModelSpec(d=self.theta_star.d, form="msar")
        return dict(zip(spec.natural_names(),
                        natural_vector(self.theta_star, spec).tolist()))

    def to_json(self) -> dict:
        return {"theta_star": self.theta_star.to_json(),
                "estimates": self.estimates(),
                "mc_error": dict(self.mc_error),
                "loglik": self.loglik, "grad_max": self.grad_max,
                "converged": self.converged,
                "n_iterations": dict(self.n_iterations),
                "n_sim": self.n_sim, "n_paths": self.n_paths}


def pseudo_true_msar(dgp: HmmDgpParams, n_sim: int, burn_in: int = 500,
                     seed=0) -> MsarPseudoTrueResult:
    """Quasi-likelihood maximizer of the shared-slope mixture at large n_sim.

    White's (1982) pseudo-true value maximizes the expected
    quasi-log-likelihood.  It is estimated here by maximizing the
    quasi-log-likelihood, with the analytic score, on n_sim simulated
    observations.  They come as independent simulate_msar paths of at
    most 10^6 observations each (path k from seed (seed, k)), which
    estimate the same stationary expectation as one long path while
    keeping memory bounded; each path conditions on its first value.

    BFGS starts from the true coefficients (uniform weights) on the first
    n_sim // 10 observations of path 0, then continues on all paths from
    that optimum, started from the first stage's inverse Hessian (scipy's
    hess_inv0) so that only a few full passes are needed.  Both stages
    minimize mixture.neg_loglik_and_score, the estimator's objective, and
    stop once the score's max-norm is at most the estimator's default
    qn_grad_tol; loglik and grad_max are read from the second stage's
    result.  mc_error is the HAC sandwich
    standard error at n_sim: A and B are estimated at theta_star on path 0
    and the result is rescaled to the full sample size.
    """
    dgp.validate()
    if dgp.ar_coefficient is None:
        raise ConfigurationError("pseudo_true_msar needs a switching-AR "
                                 "design (ar_coefficient set)")
    if n_sim < 10_000:
        raise ValidationError(f"n_sim must be >= 10000, got {n_sim}")
    spec = ModelSpec(d=dgp.d, form="msar")
    qn = EstimatorConfig()
    n_paths = -(-n_sim // MAX_PATH_LEN)
    base, extra = divmod(n_sim, n_paths)
    paths = []
    for k in range(n_paths):
        sim = simulate_msar(dgp, T=base + (k < extra), burn_in=burn_in,
                            seed=seed_key(seed) + (k,))
        paths.append(Sample(y=sim.y, w=sim.w))
    n_prefix = n_sim // _MSAR_PREFIX_SHARE
    prefix = Sample(y=paths[0].y[:n_prefix], w=paths[0].w[:n_prefix])
    truth = MixtureParams(
        components=[RegimeOutcome(c.mu, dgp.ar_coefficient, c.sigma)
                    for c in dgp.outcomes],
        weights=np.full(dgp.d, 1.0 / dgp.d))

    options = {"maxiter": qn.qn_max_iter, "gtol": qn.qn_grad_tol}
    res1 = minimize(neg_loglik_and_score, encode(truth, spec),
                    args=([prefix], spec), jac=True, method="BFGS",
                    options=options)
    # scipy rejects an inverse Hessian that is symmetric only to rounding
    hess_inv0 = 0.5 * (res1.hess_inv + res1.hess_inv.T)
    res2 = minimize(neg_loglik_and_score, res1.x, args=(paths, spec),
                    jac=True, method="BFGS",
                    options={**options, "hess_inv0": hess_inv0})
    grad_max = float(np.abs(res2.jac).max())

    theta_star = align_permutation(decode(res2.x, spec), truth)
    _, ses = sandwich_cov(encode(theta_star, spec), paths[0], spec,
                          HacConfig())
    ses = ses * math.sqrt((paths[0].T - 1) / (n_sim - n_paths))
    return MsarPseudoTrueResult(
        theta_star=theta_star,
        mc_error=dict(zip(spec.natural_names(), ses.tolist())),
        loglik=-float(res2.fun), grad_max=grad_max,
        converged=grad_max <= qn.qn_grad_tol,
        n_iterations={"prefix": int(res1.nit), "full": int(res2.nit)},
        n_sim=n_sim, n_paths=n_paths)


@dataclass
class KlComparison:
    """One candidate-vs-perturbation gap in expected log density."""

    label: str
    delta: float  # M(theta_star) - M(theta), positive favors theta_star
    se: float  # paired batch-means standard error of delta

    def to_json(self) -> dict:
        return {"label": self.label, "delta": self.delta, "se": self.se}


@dataclass
class KlCheckReport:
    m_star: float
    comparisons: List[KlComparison]
    n_sim: int
    n_batches: int

    def all_dominated(self, n_se: float = 3.0) -> bool:
        """True when every perturbation loses by more than n_se paired SEs."""
        return all(c.delta > n_se * c.se for c in self.comparisons)

    def to_json(self) -> dict:
        return {"m_star": self.m_star,
                "comparisons": [c.to_json() for c in self.comparisons],
                "n_sim": self.n_sim, "n_batches": self.n_batches}


def kl_check(dgp: HmmDgpParams, theta_star: MixtureParams,
             perturbations: Sequence[Tuple[str, MixtureParams]], n_sim: int,
             seed=0, burn_in: int = 500) -> KlCheckReport:
    """Compare expected log mixture density at theta_star vs perturbations.

    One path is simulated from the true process and every parameter is
    evaluated on it (common random numbers), so each reported gap is a
    paired mean with a batch-means standard error.  Perturbations are
    (label, params) pairs.  A perturbation equal to theta_star, or a label
    permutation of it, yields a gap of exactly zero.
    """
    dgp.validate()
    theta_star.validate()
    if dgp.ar_coefficient is not None:
        spec = ModelSpec(d=theta_star.d, form="msar")
        sample = simulate_msar(dgp, T=n_sim, burn_in=burn_in, seed=seed)
    else:
        spec = ModelSpec(d=theta_star.d, form="hmm")
        sample = simulate_hmm(dgp, T=n_sim, burn_in=burn_in, seed=seed)

    terms_star = loglik_terms(theta_star, sample, spec)
    m_star = float(terms_star.mean())
    comparisons = []
    for label, theta in perturbations:
        theta.validate()
        diffs = terms_star - loglik_terms(theta, sample, spec)
        delta = float(diffs.mean())
        se = _batch_means_se(diffs)
        comparisons.append(KlComparison(label=label, delta=delta, se=se))
    return KlCheckReport(m_star=m_star, comparisons=comparisons, n_sim=n_sim,
                         n_batches=DEFAULT_N_BATCHES)


def perturbation_grid(theta_star: MixtureParams, form: str = "hmm") -> list:
    """Twelve-point perturbation grid around a two-component parameter.

    Both layouts shift mu(1), sigma(1) and the first weight by +/-0.25 and
    mu(2) by +/-0.5; weights are re-normalized against the second
    component.  The "hmm" layout also shifts gamma(1) by +/-0.5 and
    gamma(2) by +/-0.25.  The "msar" layout keeps the slope shared: it
    shifts phi on both components together by +/-0.05 and sigma(2) by
    +/-0.25, so every point stays inside the shared-slope model.
    """
    if theta_star.d != 2:
        raise ConfigurationError(f"grid is defined for d = 2, got d = {theta_star.d}")
    if form == "hmm":
        bumps = (("mu", (0,), 0.25), ("mu", (1,), 0.5), ("gamma", (0,), 0.5),
                 ("gamma", (1,), 0.25), ("sigma", (0,), 0.25))
    elif form == "msar":
        bumps = (("mu", (0,), 0.25), ("mu", (1,), 0.5),
                 ("gamma", (0, 1), 0.05), ("sigma", (0,), 0.25),
                 ("sigma", (1,), 0.25))
    else:
        raise ConfigurationError(f"form must be 'hmm' or 'msar', got {form!r}")
    out = []

    def bumped(fld, comp_idx, delta):
        comps = [RegimeOutcome(c.mu, c.gamma, c.sigma)
                 for c in theta_star.components]
        for i in comp_idx:
            setattr(comps[i], fld, getattr(comps[i], fld) + delta)
        return MixtureParams(components=comps, weights=theta_star.weights.copy())

    for fld, comp_idx, step in bumps:
        name = "phi" if len(comp_idx) > 1 else f"{fld}({comp_idx[0] + 1})"
        for sign in (+1, -1):
            label = f"{name}{'+' if sign > 0 else '-'}{step}"
            out.append((label, bumped(fld, comp_idx, sign * step)))
    for sign in (+1, -1):
        w1 = theta_star.weights[0] + sign * 0.25
        if not 0.0 < w1 < 1.0:
            raise ValidationError(f"perturbed weight {w1} outside (0, 1)")
        params = MixtureParams(
            components=[RegimeOutcome(c.mu, c.gamma, c.sigma)
                        for c in theta_star.components],
            weights=np.array([w1, 1.0 - w1]))
        out.append((f"weight(1){'+' if sign > 0 else '-'}0.25", params))
    return out


CF_RATIO_THRESHOLD = 1e-8


@dataclass
class CfCheckReport:
    """Tail behavior of the ratio of characteristic functions."""

    family: str
    a1: float
    a2: float
    ratio_trace: list  # [(tau, ratio)] with tau strictly increasing
    verdict: bool
    threshold: float  # the verdict's bound on the final ratio

    def to_json(self) -> dict:
        return {"family": self.family, "a1": self.a1, "a2": self.a2,
                "ratio_trace": [[t, r] for t, r in self.ratio_trace],
                "verdict": self.verdict, "threshold": self.threshold}


def _parse_family(family: str):
    if family == "gaussian":
        return "gaussian", None
    if family.startswith("student-t:"):
        try:
            nu = float(family.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad degrees of freedom in {family!r}") from None
        if not nu > 2:
            raise ValidationError(
                f"student-t requires nu > 2 for a unit-variance rescale, got {nu}")
        return "student-t", nu
    raise ValidationError(f"unknown family {family!r}; expected 'gaussian' "
                          "or 'student-t:<nu>'")


def _student_t_cf(tau: float, nu: float) -> float:
    """Characteristic function of the unit-variance Student-t at tau >= 0.

    Closed form phi(tau) = z^{nu/2} K_{nu/2}(z) / (Gamma(nu/2) 2^{nu/2 - 1})
    with z = sqrt(nu - 2) |tau|, evaluated in logs and with K taken from the
    scaled kve = K e^z, so that K does not underflow in the tail.  A Bessel
    value that double precision cannot hold raises QuadratureError.
    """
    if tau == 0.0:
        return 1.0
    half = nu / 2.0
    z = math.sqrt(nu - 2.0) * abs(tau)
    k_scaled = float(kve(half, z))  # K_{nu/2}(z) e^z
    if not (math.isfinite(k_scaled) and k_scaled > 0.0):
        raise QuadratureError(f"Bessel K_{half:g}({z:.6g}) = {k_scaled} is not "
                              f"representable in double precision (tau = {tau})")
    return math.exp(half * math.log(z) + math.log(k_scaled) - z
                    - gammaln(half) - (half - 1.0) * math.log(2.0))


def _eventually_decreasing(values: Sequence[float]) -> bool:
    """True if the sequence is strictly decreasing from some index onward."""
    diffs = np.diff(values)
    if len(diffs) == 0:
        return False
    k = len(diffs)
    while k > 0 and diffs[k - 1] < 0:
        k -= 1
    return k < len(diffs)


def cf_ratio_check(family: str, a1: float, a2: float,
                   tau_grid: Optional[Sequence[float]] = None) -> CfCheckReport:
    """Trace phi(a1 tau) / phi(a2 tau) along tau_grid and judge its decay.

    Requires a1 > a2 > 0.  The Gaussian case uses the closed form
    exp(-(a1^2 - a2^2) tau^2 / 2); the Student-t case uses the Bessel
    closed form of its characteristic function.  Verdict is true when
    the final ratio falls below CF_RATIO_THRESHOLD and the trace is
    eventually monotone decreasing.
    """
    kind, nu = _parse_family(family)
    if not (a1 > a2 > 0):
        raise ValidationError(f"need a1 > a2 > 0, got a1 = {a1}, a2 = {a2}")
    if tau_grid is None:
        tau_grid = (np.linspace(0.0, 10.0, 21) if kind == "gaussian"
                    else np.arange(1.0, 13.0))
    taus = np.asarray(tau_grid, dtype=float)
    if taus.size < 2 or (np.diff(taus) <= 0).any() or taus[0] < 0:
        raise ValidationError("tau_grid must be nonnegative and strictly increasing")

    trace = []
    for tau in taus:
        if kind == "gaussian":
            ratio = math.exp(-(a1 ** 2 - a2 ** 2) * tau ** 2 / 2.0)
        else:
            numer = _student_t_cf(a1 * tau, nu)
            denom = _student_t_cf(a2 * tau, nu)
            if denom <= 0 or not math.isfinite(denom):
                raise QuadratureError(
                    f"denominator characteristic function {denom} at "
                    f"tau = {tau} too small to form a trustworthy ratio")
            ratio = numer / denom
        if not math.isfinite(ratio):
            raise QuadratureError(f"non-finite ratio at tau = {tau}")
        trace.append((float(tau), float(ratio)))

    ratios = [r for _, r in trace]
    verdict = bool(ratios[-1] < CF_RATIO_THRESHOLD and _eventually_decreasing(ratios))
    return CfCheckReport(family=family, a1=float(a1), a2=float(a2),
                         ratio_trace=trace, verdict=verdict,
                         threshold=CF_RATIO_THRESHOLD)


def build_quadrature_grid(theta: MixtureParams, w_probe: float,
                          half_width_sds: float = 12.0, n: int = 4001) -> np.ndarray:
    """Uniform grid covering every component mean +/- half_width_sds sigmas."""
    means = theta.mu_vec + theta.gamma_vec * w_probe
    sigma = theta.sigma_vec
    lo = float((means - half_width_sds * sigma).min())
    hi = float((means + half_width_sds * sigma).max())
    return np.linspace(lo, hi, n)


def linear_independence_check(theta: MixtureParams, w_probe: float,
                              grid: np.ndarray) -> float:
    """Smallest eigenvalue of the Gram matrix of component densities.

    G[s, s'] = int phi_s(y) phi_s'(y) dy at the probe covariate value,
    evaluated on `grid` (must span at least 10 sigmas around every
    component mean).  A value bounded away from zero certifies the
    component densities are linearly independent there.
    """
    theta.validate()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 51 or (np.diff(grid) <= 0).any():
        raise ValidationError("grid must be a strictly increasing vector "
                              "with at least 51 nodes")
    if not np.isfinite(w_probe):
        raise ValidationError(f"w_probe must be finite, got {w_probe}")
    means = theta.mu_vec + theta.gamma_vec * w_probe
    sigma = theta.sigma_vec
    if (grid[0] > (means - 10.0 * sigma)).any() or (grid[-1] < (means + 10.0 * sigma)).any():
        raise ValidationError("grid must span at least 10 standard deviations "
                              "around every component mean")
    dens = np.exp(-0.5 * ((grid[None, :] - means[:, None]) / sigma[:, None]) ** 2)
    dens /= (sigma[:, None] * math.sqrt(2.0 * math.pi))
    d = theta.d
    gram = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            val = simpson(dens[i] * dens[j], x=grid)
            gram[i, j] = val
            gram[j, i] = val
    return float(np.linalg.eigvalsh(gram)[0])
