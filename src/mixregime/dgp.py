"""Simulation of two-layer regime-switching data generating processes.

The observable triple (Y_t, Z_t, W_t) is driven by a latent regime chain
S_t whose one-step transition probabilities depend on the lagged value of
Z.  Z and W follow stationary Gaussian AR(1) laws, and the three
contemporaneous innovations may be correlated: corr(U1, U2) = rho ties the
outcome noise to the Z innovations, corr(U1, U3) = omega ties it to the W
innovations (W exogeneity fails when omega != 0).

Two outcome recursions are supported:

* regime regression:  Y_t = mu(S_t) + gamma(S_t) W_t + sigma(S_t) U1_t
* switching AR:       Y_t = mu(S_t) + phi Y_{t-1}   + sigma(S_t) U1_t

All simulators are pure functions of (params, T, burn_in, seed) and return
bit-identical output for identical inputs.  Each AR(1) path (Z, W and the
switching-AR outcome) comes from one LAPACK solve of a unit lower-bidiagonal
system; it never pivots, so the path is bit-identical to the recursion
x_t = v_t + slope x_{t-1} written as a loop.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import (ConfigurationError, JsonRecord, ParseError,
                     ValidationError, count_faults, csv_cells, csv_number,
                     read_csv, real_matrix, write_csv)

# Sub-stream labels: one independent RNG stream per noise consumer, so that
# extending T never reshuffles earlier draws.
_STREAM_OUTCOME = 0
_STREAM_Z = 1
_STREAM_W = 2
_STREAM_REGIME = 3
_STREAM_INIT = 4

DEFAULT_BURN_IN = 500


def seed_faults(seed, name: str = "seed") -> list:
    """Messages for the ways `seed`, called `name`, is not a seed: a
    non-negative int or a list or tuple of them.  A bool or a float is not
    an int, and is not truncated to one."""
    parts = (enumerate(seed) if isinstance(seed, (list, tuple))
             else [(None, seed)])
    faults = []
    for i, part in parts:
        what = name if i is None else f"{name}[{i}]"
        faults += count_faults(part, what, 0)
    return faults


def seed_key(seed) -> tuple:
    """A seed as a tuple of ints; one that seed_faults faults is a
    ValidationError."""
    faults = seed_faults(seed)
    if faults:
        raise ValidationError(faults)
    parts = seed if isinstance(seed, (list, tuple)) else [seed]
    return tuple(map(int, parts))


def stream_rng(seed, label: int) -> np.random.Generator:
    """Independent generator for sub-stream `label` of `seed`."""
    return np.random.default_rng(seed_key(seed) + (label,))


def outcome_violations(rows, what: str) -> list:
    """Messages for the faults of the (mu, gamma, sigma) triples `rows`, each
    prefixed by what[i]: a DGP's outcomes and a mixture's components alike."""
    out = []
    for i, (mu, gamma, sigma) in enumerate(rows):
        if not (math.isfinite(mu) and math.isfinite(gamma)
                and math.isfinite(sigma)):
            out.append(f"{what}[{i}]: RegimeOutcome fields must be finite")
        if not sigma > 0:
            out.append(f"{what}[{i}]: sigma must be > 0, got {sigma}")
    return out


@dataclass
class RegimeOutcome(JsonRecord):
    """Outcome-equation coefficients for a single regime."""

    json_label = "outcome"

    mu: float
    gamma: float
    sigma: float


@dataclass
class TransitionSpec(JsonRecord):
    """Covariate-dependent transition kernel of the regime chain.

    Row probabilities follow a multinomial logit over destination regimes:
    given source s' and covariate value z, the logit of destination s is
    alpha[s', s] + beta[s', s] * z.  For d = 2 with off-diagonal
    coefficients fixed at zero this reduces to a logistic stay/leave rule
    with stay probability 1 / (1 + exp(-(alpha_s + beta_s z))).
    """

    json_label = "transition"
    json_qualified = ("alpha", "beta")

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = real_matrix(self.alpha)
        self.beta = real_matrix(self.beta)

    @property
    def d(self) -> int:  # one row of alpha per source regime
        return len(self.alpha)

    @classmethod
    def two_state(cls, stay_intercepts: Sequence[float],
                  stay_slopes: Sequence[float]) -> "TransitionSpec":
        """Two-regime kernel from per-regime stay coefficients."""
        a1, a2 = stay_intercepts
        b1, b2 = stay_slopes
        return cls(alpha=np.array([[a1, 0.0], [0.0, a2]]),
                   beta=np.array([[b1, 0.0], [0.0, b2]]))

    def violations(self) -> list:
        out = []
        if self.d < 2:
            out.append(f"transition must have d >= 2 regimes, got {self.d}")
        for name, mat in (("alpha", self.alpha), ("beta", self.beta)):
            if mat.shape != (self.d, self.d):
                out.append(f"transition {name} must be {self.d}x{self.d}, "
                           f"got {mat.shape}")
        return out


@dataclass
class ArLaw(JsonRecord):
    """Stationary Gaussian AR(1): x_t = intercept + slope x_{t-1} + sd e_t."""

    json_label = "AR law"

    intercept: float
    slope: float
    noise_sd: float

    @property
    def stationary_mean(self) -> float:
        return self.intercept / (1.0 - self.slope)

    @property
    def stationary_sd(self) -> float:
        return self.noise_sd / math.sqrt(1.0 - self.slope ** 2)

    def violations(self) -> list:
        out = []
        if not abs(self.slope) < 1:
            out.append(f"|slope| must be < 1 for stationarity, got {self.slope}")
        if not self.noise_sd > 0:
            out.append(f"noise_sd must be > 0, got {self.noise_sd}")
        return out


@dataclass
class NoiseCorrelation(JsonRecord):
    """Correlation of the outcome noise U1 with the Z and W innovations."""

    json_label = "noise"

    rho: float
    omega: float

    def matrix(self) -> np.ndarray:
        return np.array([[1.0, self.rho, self.omega],
                         [self.rho, 1.0, 0.0],
                         [self.omega, 0.0, 1.0]])

    def violations(self) -> list:
        # positive definiteness of the 3x3 matrix <=> rho^2 + omega^2 < 1;
        # numpy's power has the bits of Python's, but overflows to inf
        with np.errstate(over="ignore"):
            total = np.float64(self.rho) ** 2 + np.float64(self.omega) ** 2
        if total >= 1.0:
            return ["noise correlation matrix must be positive definite "
                    f"(rho^2 + omega^2 = {total:.6g} >= 1)"]
        return []


@dataclass
class HmmDgpParams(JsonRecord):
    """Full truth for one simulated design."""

    json_label = "DGP"

    outcomes: list[RegimeOutcome]  # one per regime
    transition: TransitionSpec
    z_law: ArLaw
    w_law: ArLaw
    noise: NoiseCorrelation
    ar_coefficient: Optional[float] = None  # phi of the switching AR variant

    @property
    def d(self) -> int:
        return self.transition.d

    def violations(self) -> list:
        out = outcome_violations(
            [(oc.mu, oc.gamma, oc.sigma) for oc in self.outcomes], "outcomes")
        out.extend(self.transition.violations())
        out.extend(f"z_law: {v}" for v in self.z_law.violations())
        out.extend(f"w_law: {v}" for v in self.w_law.violations())
        out.extend(self.noise.violations())
        if len(self.outcomes) != self.transition.d:
            out.append(f"need one outcome per regime: got {len(self.outcomes)} "
                       f"outcomes for d = {self.transition.d}")
        phi = self.ar_coefficient
        if phi is not None and not abs(phi) < 1:
            out.append(f"|ar_coefficient| must be < 1 for stationarity, got {phi}")
        if phi is not None:  # the switching AR's outcome has no W term
            out.extend(f"outcomes[{i}]: gamma must be 0 when ar_coefficient "
                       f"is set, got {oc.gamma}"
                       for i, oc in enumerate(self.outcomes) if oc.gamma != 0)
        return out

    def params_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


@dataclass
class Sample:
    """One observed dataset; regime path s (1-based labels) kept if simulated."""

    y: np.ndarray
    w: np.ndarray
    z: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.z is not None:
            self.z = np.asarray(self.z, dtype=float)
        if self.s is not None:
            self.s = np.asarray(self.s, dtype=int)

    @property
    def T(self) -> int:
        return len(self.y)

    def validate(self) -> None:
        out = []
        if self.T < 1:
            out.append("sample must contain at least one observation")
        for name in ("w", "z", "s"):
            vec = getattr(self, name)
            if vec is not None and len(vec) != self.T:
                out.append(f"{name} has length {len(vec)}, expected {self.T}")
        if self.s is not None and self.s.size and self.s.min() < 1:
            out.append("regime labels must be >= 1")
        if out:
            raise ValidationError(out)


def transition_rows(spec: TransitionSpec, z: np.ndarray,
                    s0: np.ndarray) -> np.ndarray:
    """Row t: the transition probabilities out of 0-based regime s0[t] at
    covariate z[t], a softmax computed in place to spare long paths memory."""
    logits = spec.alpha[s0] + spec.beta[s0] * z[:, None]
    logits -= logits.max(axis=1, keepdims=True)
    rows = np.exp(logits)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _next_state_table(spec: TransitionSpec, z_prev: np.ndarray,
                      uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws dest[src, t] out of every source at every step.

    dest[src, t] is the number of k < d - 1 with u_t >= cum_k, where cum_k
    sums the probabilities p_j = 1 / sum_i exp(l_i - l_j) of destinations
    j <= k.  For d = 2 that is the logistic stay/leave rule
    u_t >= 1 / (1 + exp(l_1 - l_0)).

    It keeps its own destination-major probabilities rather than calling
    transition_rows once per source.  A table built from transition_rows
    drew the same destinations over 10^8 draws for d = 2 and for d = 3,
    but at 10^6 steps it took about 160 ms against 18 ms here (d = 2,
    2-core VM), and each oracle round simulates three such paths.
    """
    d = spec.d
    logits = [spec.alpha[:, j, None] + spec.beta[:, j, None] * z_prev
              for j in range(d)]  # per destination, shape (src, t)
    cum = np.zeros((d, len(z_prev)))
    dest = np.zeros((d, len(z_prev)), dtype=np.int64)
    for k in range(d - 1):
        cum += 1.0 / sum(np.exp(lj - logits[k]) for lj in logits)
        dest += uniforms >= cum
    return dest


def _simulate_regime_path(spec: TransitionSpec, z_prev: np.ndarray, s0: int,
                          uniforms: np.ndarray) -> np.ndarray:
    """Regime chain driven by lagged z; s0 and the result are 0-based."""
    # the table's float temporaries are freed before the walk's lists exist
    rows = _next_state_table(spec, z_prev, uniforms).tolist()
    out = [0] * len(z_prev)
    cur = s0
    for t in range(len(z_prev)):
        cur = rows[cur][t]
        out[t] = cur
    return np.asarray(out, dtype=np.int64)


def _ar1(slope: float, x0: float, driven: np.ndarray) -> np.ndarray:
    """x_t = driven_t + slope x_{t-1} from x_{-1} = x0, solved in `driven`.

    The path solves the unit lower-bidiagonal system with sub-diagonal
    -slope.  For |slope| < 1 dgtsv never pivots: each step computes
    driven_t + slope x_{t-1} unfused and its back substitution divides by
    1, so the path equals the loop bit for bit.  LAPACK sets no numpy
    floating-point flag, so a path that overflows raises
    FloatingPointError here.
    """
    n = len(driven)
    driven[0] += slope * x0
    off = max(n - 1, 1)  # the wrapper rejects empty off-diagonals
    *_, x, _ = dgtsv(np.full(off, -slope), np.ones(n), np.zeros(off), driven,
                     overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                     overwrite_b=True)
    if not np.isfinite(x).all():
        raise FloatingPointError("overflow in an AR(1) path")
    return x


def _ar1_path(law: ArLaw, x0: float, shocks: np.ndarray) -> np.ndarray:
    return _ar1(law.slope, x0, law.intercept + law.noise_sd * shocks)


def _simulate(params: HmmDgpParams, T: int, burn_in: int, seed,
              msar: bool) -> Sample:
    """Check the inputs and draw the sample; a value that leaves double
    precision on the way (an overflow, or a NaN formed from one) is a
    ValidationError."""
    params.validate()
    if faults := count_faults(T, "T", 1) + count_faults(burn_in, "burn_in", 0):
        raise ValidationError(faults)
    if msar and params.ar_coefficient is None:
        raise ConfigurationError(
            "switching-AR simulation requires ar_coefficient to be set")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _draw(params, T, burn_in, seed, msar)
    except FloatingPointError as exc:
        raise ValidationError(f"the simulated path leaves double precision: "
                              f"{exc}") from None


def _draw(params: HmmDgpParams, T: int, burn_in: int, seed,
          msar: bool) -> Sample:
    d = params.d
    n = burn_in + T
    chol = np.linalg.cholesky(params.noise.matrix())
    # columns: U1 (outcome), U2 (z), U3 (w); the standard normals are freed
    # here rather than kept alive through the paths below
    u = np.column_stack([
        stream_rng(seed, _STREAM_OUTCOME).standard_normal(n),
        stream_rng(seed, _STREAM_Z).standard_normal(n),
        stream_rng(seed, _STREAM_W).standard_normal(n),
    ]) @ chol.T
    uniforms = stream_rng(seed, _STREAM_REGIME).random(n)

    init = stream_rng(seed, _STREAM_INIT)
    z0 = params.z_law.stationary_mean + params.z_law.stationary_sd * init.standard_normal()
    w0 = params.w_law.stationary_mean + params.w_law.stationary_sd * init.standard_normal()
    s0 = int(init.integers(d))

    z = _ar1_path(params.z_law, z0, u[:, 1])
    w = _ar1_path(params.w_law, w0, u[:, 2])
    z_prev = np.concatenate(([z0], z[:-1]))
    s = _simulate_regime_path(params.transition, z_prev, s0, uniforms)

    mu = np.array([oc.mu for oc in params.outcomes])
    gamma = np.array([oc.gamma for oc in params.outcomes])
    sigma = np.array([oc.sigma for oc in params.outcomes])
    if msar:
        y = _ar1(params.ar_coefficient, 0.0, mu[s] + sigma[s] * u[:, 0])
    else:
        y = mu[s] + gamma[s] * w + sigma[s] * u[:, 0]

    sl = slice(burn_in, None)
    return Sample(y=y[sl], w=w[sl], z=z[sl], s=s[sl] + 1)


def simulate_hmm(params: HmmDgpParams, T: int, burn_in: int = DEFAULT_BURN_IN,
                 seed=0) -> Sample:
    """Simulate the regime-regression process for T steps after burn_in.

    Per time step: the Z and W AR(1) laws advance on their (correlated)
    innovations, the regime S_t is drawn from the transition row at
    (Z_{t-1}, S_{t-1}), and Y_t = mu(S_t) + gamma(S_t) W_t + sigma(S_t) U1_t.
    """
    return _simulate(params, T, burn_in, seed, msar=False)


def simulate_msar(params: HmmDgpParams, T: int, burn_in: int = DEFAULT_BURN_IN,
                  seed=0) -> Sample:
    """Simulate the switching autoregression Y_t = mu(S_t) + phi Y_{t-1} + sigma(S_t) U1_t.

    Requires params.ar_coefficient; the W path is generated and returned even
    though the outcome equation ignores it.
    """
    return _simulate(params, T, burn_in, seed, msar=True)


_CSV_COLUMNS = ("y", "w", "z", "s")
_CSV_BLOCK_ROWS = 1 << 14  # rows save_sample formats at once: memory flat in T


def save_sample(sample: Sample, path) -> None:
    """Write a sample as CSV with header y,w[,z][,s] at full precision."""
    sample.validate()
    cols = [c for c in _CSV_COLUMNS if getattr(sample, c) is not None]
    blocks = ((getattr(sample, c)[lo:lo + _CSV_BLOCK_ROWS] for c in cols)
              for lo in range(0, sample.T, _CSV_BLOCK_ROWS))
    write_csv(path, cols, (row for block in blocks
                           for row in zip(*map(csv_cells, block))))


def load_sample(path) -> Sample:
    """Read a CSV sample with header y,w[,z][,s]: y and w first, then z and
    s in that order if present, and no other column.

    A header that breaks this, a ragged row, a cell that is not a number, a
    non-finite value and a regime label that is not a positive integer are
    each a ParseError that names the line.
    """
    rows = read_csv(path)
    header = [h.strip() for h in next(rows)]
    unknown = [h for h in header if h not in _CSV_COLUMNS]
    if unknown:
        raise ParseError(f"unknown column(s) {unknown}", line=1)
    if header[:2] != ["y", "w"]:
        raise ParseError(f"header must start with y,w; got {header}", line=1)
    if header != [c for c in _CSV_COLUMNS if c in header]:
        raise ParseError(f"columns must appear in order y,w,z,s; got {header}",
                         line=1)
    values = {c: [] for c in header}
    for line, row in rows:
        for col, cell in zip(header, row):
            val = csv_number(cell, col, line)
            if col == "s":
                # stored as int64, so NaN, inf and 1e400 fail here too
                if not (val.is_integer() and 1 <= val < 2.0 ** 63):
                    raise ParseError(f"regime label must be a positive "
                                     f"integer, got {cell!r}", line=line)
                val = int(val)
            elif not math.isfinite(val):
                raise ParseError(f"non-finite value {cell!r} in column {col}",
                                 line=line)
            values[col].append(val)
    if not values["y"]:
        raise ParseError("no data rows", line=2)
    sample = Sample(**{c: np.array(v) for c, v in values.items()})
    sample.validate()
    return sample
