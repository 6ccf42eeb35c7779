"""Independent verification machinery for the pseudo-true parameter.

Four kinds of evidence about what the misspecified mixture QML should
converge to:

* pseudo_true_weights: the stationary regime weights, the expectation of
  the one-step regime transition probabilities, computed ergodically from a
  long simulated (Z, S) path with batch-mean error bars.
* pseudo_true_msar: for every design, the maximizer of the fitted
  mixture's quasi-likelihood on a large simulated sample, with its sandwich
  standard error as Monte Carlo error.  The paper's claim is that in a
  regime regression with an exogenous outcome covariate this limit keeps
  the true outcome coefficients; in the switching autoregression, where
  y_{t-1} carries information about the persistent regime, it does not.
* kl_check: the candidate parameter should beat nearby perturbations in
  expected log density under the true process; estimated with common
  random numbers so differences are sharp even when levels are noisy.
* cf_ratio_check / linear_independence_check: numerical versions of the
  tail-ratio and linear-independence conditions under which the mixture
  representation is unique; the Student-t characteristic function comes
  from its Bessel closed form, the Gram matrix from the Gaussian overlap
  integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, kve

from .dgp import (DEFAULT_BURN_IN, HmmDgpParams, Sample, seed_key,
                  simulate_hmm, simulate_msar, transition_rows)
from .errors import (ConfigurationError, JsonRecord, QuadratureError,
                     ValidationError, count_faults, type_faults)
from .estimator import EstimatorConfig, align_permutation
from .inference import sandwich_cov
from .mixture import (MixtureParams, ModelSpec, decode, encode, loglik_terms,
                      natural_vector, neg_loglik_and_score, true_reference)

N_BATCHES = 50


def _batch_means_se(values: np.ndarray):
    """Standard error of the mean of a serially dependent series.

    Splits the series into N_BATCHES consecutive blocks; the variance of
    the block means absorbs the autocorrelation.
    """
    n = len(values)
    width = n // N_BATCHES
    if width < 1:
        raise ValidationError(f"need at least {N_BATCHES} observations for "
                              f"{N_BATCHES} batches, got {n}")
    trimmed = values[: width * N_BATCHES]
    means = trimmed.reshape(N_BATCHES, width).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(N_BATCHES))


@dataclass
class PseudoTrueResult(JsonRecord):
    """Ergodic estimate of the stationary regime weights of a DGP."""

    weights_star: np.ndarray
    mc_error: np.ndarray
    n_sim: int
    occupancy: np.ndarray  # raw frequency of each regime, for cross-checks
    occupancy_error: np.ndarray


def pseudo_true_weights(dgp: HmmDgpParams, n_sim: int,
                        burn_in: int = DEFAULT_BURN_IN, seed=0) -> PseudoTrueResult:
    """Stationary expectation of the transition rows, by long simulation.

    weights_star[s] averages P(S_{t+1} = s+1 | Z_t, S_t) over one simulated
    stationary path of n_sim values (a Rao-Blackwellized estimate of the
    limiting regime probabilities); the raw occupancy frequency of S_t is
    returned as an independent estimate of the same limit.  mc_error holds
    batch-mean standard errors (50 batches).  The path is held in memory
    whole, so memory grows with n_sim.  Only the weights are estimated:
    the outcome coefficients of the QML limit come from pseudo_true_msar.
    """
    dgp.validate()
    if faults := count_faults(n_sim, "n_sim", 10_000):
        raise ValidationError(faults)
    sample = simulate_hmm(dgp, T=n_sim, burn_in=burn_in, seed=seed)
    s0 = sample.s - 1
    rows = transition_rows(dgp.transition, sample.z, s0)

    weights = rows.mean(axis=0)
    mc_error = np.array([_batch_means_se(rows[:, s]) for s in range(dgp.d)])
    occ = np.array([(s0 == s).mean() for s in range(dgp.d)])
    occ_err = np.array([_batch_means_se((s0 == s).astype(float))
                        for s in range(dgp.d)])
    return PseudoTrueResult(
        weights_star=weights,
        mc_error=mc_error,
        n_sim=n_sim,
        occupancy=occ,
        occupancy_error=occ_err,
    )


MAX_PATH_LEN = 1_000_000  # longest path simulated at once; bounds memory
_PREFIX_SHARE = 10  # the first BFGS stage uses n_sim // 10


@dataclass
class QmlLimitResult(JsonRecord):
    """Large-sample quasi-likelihood optimum of the mixture fitted to a DGP.

    theta_star lists components in the generator's regime order.
    estimates is theta_star on the natural scale and mc_error its sandwich
    standard errors at n_sim, both keyed by ModelSpec.natural_names().
    """

    theta_star: MixtureParams
    estimates: dict
    mc_error: dict
    loglik: float  # average quasi-log-likelihood at theta_star
    grad_max: float  # max-norm of the score at theta_star
    converged: bool
    n_iterations: dict
    n_sim: int
    n_paths: int


def pseudo_true_msar(dgp: HmmDgpParams, n_sim: int,
                     burn_in: int = DEFAULT_BURN_IN, seed=0) -> QmlLimitResult:
    """Quasi-likelihood maximizer of the mixture fitted to `dgp` at large n_sim.

    White's (1982) pseudo-true value maximizes the expected
    quasi-log-likelihood.  It is estimated here by maximizing the
    quasi-log-likelihood, with the analytic score, on n_sim simulated
    observations of the mixture that ModelSpec.for_dgp fits: the
    regime regression, or the shared-slope switching AR.  They come as
    independent simulated paths of at most 10^6 observations each (path k
    from seed (seed, k)), which estimate the same stationary expectation as
    one long path while keeping memory bounded; a switching-AR path
    conditions on its first value.

    BFGS starts from true_reference(dgp) on the first n_sim // 10
    observations of path 0, then continues on all paths from that optimum,
    started from the first stage's inverse Hessian (scipy's hess_inv0) so
    that only a few full passes are needed.  Both stages minimize
    mixture.neg_loglik_and_score, the estimator's objective, and stop once
    the score's max-norm is at most the estimator's default qn_grad_tol;
    loglik and grad_max are read from the second stage's result.  mc_error
    is the HAC sandwich standard error at n_sim: A and B are estimated at
    theta_star on path 0 and the result is rescaled by the share of all
    usable rows that path 0 holds.
    """
    dgp.validate()
    if faults := count_faults(n_sim, "n_sim", 10_000):
        raise ValidationError(faults)
    spec = ModelSpec.for_dgp(dgp)
    simulate = simulate_msar if spec.form == "msar" else simulate_hmm
    qn = EstimatorConfig()
    n_paths = -(-n_sim // MAX_PATH_LEN)
    base, extra = divmod(n_sim, n_paths)
    paths = []
    for k in range(n_paths):
        sim = simulate(dgp, T=base + (k < extra), burn_in=burn_in,
                       seed=seed_key(seed) + (k,))
        paths.append(Sample(y=sim.y, w=sim.w))
    n_prefix = n_sim // _PREFIX_SHARE
    prefix = Sample(y=paths[0].y[:n_prefix], w=paths[0].w[:n_prefix])
    truth = true_reference(dgp)

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
    _, ses = sandwich_cov(encode(theta_star, spec), paths[0], spec)
    rows = [len(spec.regression_frame(path)[0]) for path in paths]
    ses = ses * math.sqrt(rows[0] / sum(rows))
    names = spec.natural_names()
    return QmlLimitResult(
        theta_star=theta_star,
        estimates=dict(zip(names, natural_vector(theta_star, spec).tolist())),
        mc_error=dict(zip(names, ses.tolist())),
        loglik=-float(res2.fun), grad_max=grad_max,
        converged=grad_max <= qn.qn_grad_tol,
        n_iterations={"prefix": int(res1.nit), "full": int(res2.nit)},
        n_sim=n_sim, n_paths=n_paths)


@dataclass
class KlComparison(JsonRecord):
    """One candidate-vs-perturbation gap in expected log density."""

    label: str
    delta: float  # M(theta_star) - M(theta), positive favors theta_star
    se: float  # paired batch-means standard error of delta


@dataclass
class KlCheckReport(JsonRecord):
    m_star: float
    comparisons: List[KlComparison]
    n_sim: int
    n_batches: int

    def all_dominated(self, n_se: float = 3.0) -> bool:
        """True when every perturbation loses by more than n_se paired SEs."""
        return all(c.delta > n_se * c.se for c in self.comparisons)


def kl_check(dgp: HmmDgpParams, theta_star: MixtureParams,
             perturbations: Sequence[Tuple[str, MixtureParams]], n_sim: int,
             seed=0, burn_in: int = DEFAULT_BURN_IN) -> KlCheckReport:
    """Compare expected log mixture density at theta_star vs perturbations.

    One path is simulated from the true process and every parameter is
    evaluated on it (common random numbers), so each reported gap is a
    paired mean with a batch-means standard error.  Perturbations are
    (label, params) pairs.  A perturbation equal to theta_star, or a label
    permutation of it, yields a gap of exactly zero.
    """
    dgp.validate()
    theta_star.validate()
    spec = ModelSpec.for_dgp(dgp)
    simulate = simulate_msar if spec.form == "msar" else simulate_hmm
    sample = simulate(dgp, T=n_sim, burn_in=burn_in, seed=seed)

    terms_star = loglik_terms(theta_star, sample, spec)
    m_star = float(terms_star.mean())
    comparisons = []
    for label, theta in perturbations:
        diffs = terms_star - loglik_terms(theta, sample, spec)
        delta = float(diffs.mean())
        se = _batch_means_se(diffs)
        comparisons.append(KlComparison(label=label, delta=delta, se=se))
    return KlCheckReport(m_star=m_star, comparisons=comparisons, n_sim=n_sim,
                         n_batches=N_BATCHES)


def perturbation_grid(theta_star: MixtureParams, form: str = "hmm") -> list:
    """Perturbation grid of up to twelve points around a two-component point.

    Both layouts shift mu(1), sigma(1) and the first weight by +/-0.25 and
    mu(2) by +/-0.5; weights are re-normalized against the second
    component, and a weight bump that would leave (0, 1) is left out.  The
    "hmm" layout also shifts gamma(1) by +/-0.5 and gamma(2) by +/-0.25.
    The "msar" layout keeps the slope shared: it shifts phi on both
    components together by +/-0.05 and sigma(2) by +/-0.25, so every point
    stays inside the shared-slope model.  ModelSpec rejects any other form.
    """
    if theta_star.d != 2:
        raise ConfigurationError(f"grid is defined for d = 2, got d = {theta_star.d}")
    if ModelSpec(theta_star.d, form).form == "hmm":
        bumps = (("mu", (0,), 0.25), ("mu", (1,), 0.5), ("gamma", (0,), 0.5),
                 ("gamma", (1,), 0.25), ("sigma", (0,), 0.25))
    else:
        bumps = (("mu", (0,), 0.25), ("mu", (1,), 0.5),
                 ("gamma", (0, 1), 0.05), ("sigma", (0,), 0.25),
                 ("sigma", (1,), 0.25))
    out = []
    outcomes, weights = theta_star.outcome_matrix, theta_star.weights
    for fld, comp_idx, step in bumps:
        name = "phi" if len(comp_idx) > 1 else f"{fld}({comp_idx[0] + 1})"
        rows, col = list(comp_idx), ("mu", "gamma", "sigma").index(fld)
        for sign in (+1, -1):
            bumped = outcomes.copy()
            bumped[rows, col] += sign * step
            out.append((f"{name}{'+' if sign > 0 else '-'}{step}",
                        MixtureParams.from_arrays(*bumped.T, weights.copy())))
    for sign in (+1, -1):
        w1 = weights[0] + sign * 0.25
        if not 0.0 < w1 < 1.0:
            continue
        out.append((f"weight(1){'+' if sign > 0 else '-'}0.25",
                    MixtureParams.from_arrays(*outcomes.T,
                                              np.array([w1, 1.0 - w1]))))
    return out


CF_RATIO_THRESHOLD = 1e-8


@dataclass
class CfCheckReport(JsonRecord):
    """Tail behavior of the ratio of characteristic functions."""

    family: str
    a1: float
    a2: float
    ratio_trace: list  # [(tau, ratio)] with tau strictly increasing
    verdict: bool
    threshold: float  # the verdict's bound on the final ratio


def _parse_family(family: str):
    if family == "gaussian":
        return "gaussian", None
    if family.startswith("student-t:"):
        try:
            nu = float(family.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad degrees of freedom in {family!r}") from None
        if not 2 < nu < math.inf:
            raise ValidationError(f"student-t requires a finite nu > 2 for a "
                                  f"unit-variance rescale, got {nu}")
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


def _gaussian_cf_ratio(a1: float, a2: float, tau: float) -> float:
    """exp(-(a1^2 - a2^2) tau^2 / 2), 0.0 once the exponent passes the
    double range.  Only where a1 ** 2 overflows (a1 past 1.3e154) is the
    exponent formed as (a1 - a2) tau (a1 tau + a2 tau) / 2, which can round
    differently but overflows only where the exponent does."""
    with np.errstate(over="ignore"):
        try:
            exponent = (a1 ** 2 - a2 ** 2) * tau ** 2 / 2.0
        except OverflowError:
            exponent = (a1 - a2) * tau * (a1 * tau + a2 * tau) / 2.0
        return math.exp(-exponent)


def cf_ratio_check(family: str, a1: float, a2: float,
                   tau_grid: Optional[Sequence[float]] = None) -> CfCheckReport:
    """Trace phi(a1 tau) / phi(a2 tau) along tau_grid and judge its decay.

    Requires finite a1 > a2 > 0.  The Gaussian case uses the closed form
    exp(-(a1^2 - a2^2) tau^2 / 2); the Student-t case uses the Bessel
    closed form of its characteristic function.  Verdict is true when
    the final ratio is below CF_RATIO_THRESHOLD and no larger than the one
    before it, so a tail that has underflowed to zero counts as decayed.
    """
    kind, nu = _parse_family(family)
    if type_faults(a1, float) or type_faults(a2, float) or not a1 > a2 > 0:
        raise ValidationError(f"need finite a1 > a2 > 0, got a1 = {a1}, "
                              f"a2 = {a2}")
    a1, a2 = float(a1), float(a2)  # double arithmetic, for an int too
    if tau_grid is None:
        tau_grid = (np.linspace(0.0, 10.0, 21) if kind == "gaussian"
                    else np.arange(1.0, 13.0))
    cells = np.atleast_1d(np.asarray(tau_grid, dtype=object))  # types kept
    taus = np.array([math.nan if type_faults(t, float) else t
                     for t in cells], dtype=float)
    if (taus.size < 2 or not np.isfinite(taus).all()
            or (np.diff(taus) <= 0).any() or taus[0] < 0):
        raise ValidationError("tau_grid must be finite, nonnegative and "
                              "strictly increasing")

    trace = []
    for tau in taus:
        if kind == "gaussian":
            ratio = _gaussian_cf_ratio(a1, a2, tau)
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
    verdict = bool(ratios[-1] < CF_RATIO_THRESHOLD and ratios[-1] <= ratios[-2])
    return CfCheckReport(family=family, a1=a1, a2=a2,
                         ratio_trace=trace, verdict=verdict,
                         threshold=CF_RATIO_THRESHOLD)


def linear_independence_check(theta: MixtureParams, w_probe: float) -> float:
    """Smallest eigenvalue of the Gram matrix of component densities.

    G[s, s'] = int phi_s(y) phi_s'(y) dy at the probe covariate value, in
    closed form: the Gaussian overlap integral
    exp(-(m_s - m_s')^2 / (2 v)) / sqrt(2 pi v) with m = mu + gamma w_probe
    and v = sigma_s^2 + sigma_s'^2.  A value bounded away from zero
    certifies the component densities are linearly independent there.
    """
    theta.validate()
    if not np.isfinite(w_probe):
        raise ValidationError(f"w_probe must be finite, got {w_probe}")
    mu, gamma, sigma, _ = theta.arrays()
    means = mu + gamma * w_probe
    var = sigma[:, None] ** 2 + sigma[None, :] ** 2
    gap = means[:, None] - means[None, :]
    gram = np.exp(-gap ** 2 / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
    return float(np.linalg.eigvalsh(gram)[0])
