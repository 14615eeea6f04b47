"""Decentralized-detection power allocation problem for wireless sensor networks.

A field of ``L`` sensors observes a common binary event in correlated Gaussian
noise, amplifies the observation with a per-sensor gain, and forwards it over a
Rayleigh-faded channel to a fusion center.  The fusion center applies a
log-likelihood-ratio threshold rule, and its error probability has a closed
form in terms of the gain vector.  The optimization problem is to minimize the
total transmit power subject to a ceiling on that error probability, handled
here through a dynamic multi-stage penalty.

The evaluation kernel costs O(L) per gain vector at every correlation: white
noise has a closed form, and correlated noise needs one tridiagonal solve,
because the inverse of the exponential noise covariance is tridiagonal.  The
dense O(L^3) factorization of the effective covariance is kept only as the
reference (``method="matrix"``) the kernel is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cholesky, toeplitz
from scipy.linalg.lapack import dptsv
from scipy.special import erfc

from .evo import Bounds

# Rayleigh scale that yields unit-mean channel amplitudes.
RAYLEIGH_UNIT_MEAN_SCALE = math.sqrt(2.0 / math.pi)

# Elements per tridiagonal solve of the correlated kernel; a batch is solved
# in chunks of about this many, which bounds the solve's temporaries.
_CHUNK_ELEMENTS = 1 << 16
# Received vectors simulated per draw of ``monte_carlo_error_rate``.
_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class WsnConfig:
    """Static description of one sensor-network detection instance.

    Attributes
    ----------
    num_sensors : int
        Number of sensors ``L`` (also the optimization dimension).
    snr_db : float
        Signal-to-noise ratio in dB; the squared signal amplitude is
        ``10**(snr_db/10) * sigma_v2``.
    correlation : float
        Exponential decay base of the inter-sensor noise correlation,
        in ``[0, 1)``.  Zero means spatially white observation noise.
    spacing : float
        Inter-sensor distance multiplying the index gap in the
        correlation exponent.
    sigma_v2 : float
        Observation noise variance at each sensor.
    sigma_w2 : float
        Receiver (channel) noise variance at the fusion center.
    epsilon : float
        Ceiling on the fusion error probability, in ``(0, 0.5)``.
    fading_seed : int
        Seed used when drawing the channel amplitudes for this instance.
    """

    num_sensors: int
    snr_db: float = 10.0
    correlation: float = 0.0
    spacing: float = 1.0
    sigma_v2: float = 1.0
    sigma_w2: float = 1.0
    epsilon: float = 0.1
    fading_seed: int = 0

    def __post_init__(self):
        if self.num_sensors < 1:
            raise ValueError("num_sensors must be at least 1")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must lie in [0, 1)")
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if self.sigma_v2 <= 0.0 or self.sigma_w2 <= 0.0:
            raise ValueError("noise variances must be positive")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def signal_power(self) -> float:
        """Squared amplitude of the transmitted event signal."""
        return self.snr_linear * self.sigma_v2


def sample_fading(config: WsnConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw the channel amplitude vector for one instance.

    Amplitudes are Rayleigh with unit mean and are returned sorted in
    descending order, so sensor 0 always has the strongest channel.  With
    ``rng=None`` the draw is a pure function of ``config.fading_seed``.
    """
    if rng is None:
        rng = np.random.default_rng(config.fading_seed)
    h = rng.rayleigh(scale=RAYLEIGH_UNIT_MEAN_SCALE, size=config.num_sensors)
    return np.sort(h)[::-1].copy()


def build_signal_covariance(config: WsnConfig) -> np.ndarray:
    """Toeplitz covariance of the observation noise across sensors.

    Entry ``(i, j)`` equals ``sigma_v2 * correlation**(spacing * |i - j|)``.
    """
    lags = config.spacing * np.arange(config.num_sensors)
    first_col = config.sigma_v2 * np.power(config.correlation, lags)
    return toeplitz(first_col)


def effective_noise_covariance(config: WsnConfig, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Covariance of the received vector noise after amplify-and-forward.

    With the per-sensor scaling ``a = h * g`` this is
    ``diag(a) @ Sigma_v @ diag(a) + sigma_w2 * I``.
    """
    a = np.asarray(h, dtype=float) * np.asarray(g, dtype=float)
    sigma_v = build_signal_covariance(config)
    cov = sigma_v * np.outer(a, a)
    cov[np.diag_indices_from(cov)] += config.sigma_w2
    return cov


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def _deflection(config: WsnConfig, h: np.ndarray, g: np.ndarray) -> float:
    """Squared deflection of one gain vector by a dense Cholesky solve.

    The O(L^3) reference behind ``method="matrix"``.
    """
    a = np.asarray(h, dtype=float) * np.asarray(g, dtype=float)
    cov = effective_noise_covariance(config, h, g)
    # Factorization solve; an explicit matrix inverse is never formed.
    factor = cho_factor(cov, lower=True)
    y = cho_solve(factor, a)
    return config.signal_power * float(a @ y)


def _q_of_deflection(s):
    return q_function(0.5 * np.sqrt(np.maximum(s, 0.0)))


def _deflections(config: WsnConfig, h: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Squared deflection of each row of the gain stack ``G``, O(L) a row.

    White observation noise, and a single sensor, have a closed form.  For
    correlated noise let ``r = correlation**spacing``: the noise covariance
    ``sigma_v2 * r**|i-j|`` has the inverse ``c*T`` with
    ``c = 1/(sigma_v2*(1 - r**2))`` and ``T`` tridiagonal, diagonal
    ``(1, 1+r**2, ..., 1+r**2, 1)`` and off-diagonal ``-r``.  With
    ``u = (h*g)**2`` and ``M = c*T + diag(u)/sigma_w2``, Woodbury gives
    ``(P/sigma_w2) * u' M^-1 (c*T 1)``, which has no cancellation at large
    gains.  ``M`` is symmetric and strictly diagonally dominant, hence
    positive definite, so ``dptsv`` solves it without pivoting.  Each chunk
    of rows is one block-diagonal system whose zero couplings between rows
    leave every row's arithmetic exactly as it is alone, so a row's value
    does not depend on its batch.  As ``r`` nears 1, ``T`` grows
    ill-conditioned and the relative error at small gains grows like
    machine epsilon over ``(1 - r)**2``: about 3e-12 at ``r = 0.99``.
    """
    rows, L = G.shape
    if config.correlation == 0.0 or L == 1:
        a2 = (G * h) ** 2
        terms = config.signal_power * a2 / (a2 * config.sigma_v2 + config.sigma_w2)
        return terms.sum(axis=1)
    if not np.isfinite(G).all():
        # A non-finite gain would leak through the zero couplings into the
        # later rows of its chunk.
        raise ValueError("gains must be finite")
    r = config.correlation**config.spacing
    c = 1.0 / (config.sigma_v2 * (1.0 - r * r))
    t_diag = np.full(L, 1.0 + r * r)
    t_diag[[0, -1]] = 1.0
    t_ones = np.full(L, (1.0 - r) ** 2)
    t_ones[[0, -1]] = 1.0 - r
    coupling = np.full(L, -c * r)
    coupling[-1] = 0.0
    chunk = max(1, _CHUNK_ELEMENTS // L)
    s = np.empty(rows)
    for start in range(0, rows, chunk):
        u = (G[start : start + chunk] * h) ** 2
        m = len(u)
        d = (c * t_diag + u / config.sigma_w2).ravel()
        e = np.tile(coupling, m)[:-1]
        b = np.tile(c * t_ones, m)[:, None]
        _, _, x, info = dptsv(d, e, b, overwrite_d=1, overwrite_e=1, overwrite_b=1)
        if info != 0:
            raise LinAlgError(f"tridiagonal system not positive definite (info={info})")
        s[start : start + m] = (u * x.reshape(m, L)).sum(axis=1)
    return (config.signal_power / config.sigma_w2) * s


def error_probabilities(config: WsnConfig, h: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Fusion error probability of each row of the gain stack ``G``.

    The evaluation kernel: O(L) per row at every correlation (see
    ``_deflections``).
    """
    return _q_of_deflection(_deflections(config, h, G))


def fusion_error_probability(
    config: WsnConfig, h: np.ndarray, g: np.ndarray, method: str = "auto"
) -> float:
    """Error probability of the fusion-center threshold rule.

    ``method`` selects the computation path: "auto" is the O(L) evaluation
    kernel (``error_probabilities`` on a batch of one) and "matrix" always
    uses the dense O(L^3) covariance factorization, the reference the kernel
    is checked against.

    Raises ``numpy.linalg.LinAlgError`` when the effective covariance is
    not positive definite (a degenerate configuration).
    """
    g = np.asarray(g, dtype=float)
    if method == "auto":
        return float(error_probabilities(config, h, g[None, :])[0])
    if method == "matrix":
        return float(_q_of_deflection(_deflection(config, h, g)))
    raise ValueError(f"unknown method {method!r}")


def monte_carlo_error_rate(
    config: WsnConfig,
    h: np.ndarray,
    g: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Empirical fusion error rate from simulated received vectors.

    Draws ``n_samples`` received vectors under each hypothesis, applies the
    equal-prior log-likelihood-ratio rule (threshold 0), and returns the
    average of the false-alarm and miss rates.
    Serves as the independent oracle for ``fusion_error_probability``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    a = np.asarray(h, dtype=float) * np.asarray(g, dtype=float)
    m = math.sqrt(config.signal_power)
    cov = effective_noise_covariance(config, h, g)
    chol = cholesky(cov, lower=True)
    w = cho_solve((chol, True), a)
    offset = 0.5 * config.signal_power * float(a @ w)
    mean_signal = m * a

    false_alarms = 0
    misses = 0
    remaining = n_samples
    while remaining > 0:
        n = min(_SAMPLE_CHUNK, remaining)
        z = rng.standard_normal((n, len(a)))
        noise = z @ chol.T
        # Under the null hypothesis the received vector is pure noise.
        t0 = m * (noise @ w) - offset
        false_alarms += int(np.count_nonzero(t0 >= 0.0))
        # Under the alternative the scaled signal is added.
        t1 = m * ((noise + mean_signal) @ w) - offset
        misses += int(np.count_nonzero(t1 < 0.0))
        remaining -= n
    return 0.5 * (false_alarms + misses) / n_samples


def staged_penalty(violations: np.ndarray) -> np.ndarray:
    """Dynamic multi-stage penalty of each violation, elementwise.

    A positive violation ``v`` costs ``10*v`` up to 0.1, ``100*v`` below 1,
    ``100`` at 1 and ``300*v**2`` beyond; non-positive entries cost nothing.
    """
    v = np.maximum(violations, 0.0)
    weights = np.where(v <= 0.1, 10.0, np.where(v <= 1.0, 100.0, 300.0))
    return np.where(v > 0.0, weights * np.where(v < 1.0, v, v * v), 0.0)


def _powers(G: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", G, G)


def evaluate_rows(config: WsnConfig, h: np.ndarray, G: np.ndarray, iterations: np.ndarray):
    """Penalized objective of each row of the gain stack ``G``.

    Returns ``(values, feasible, powers)``: ``powers`` is the total power of
    each row, ``feasible`` marks rows with no active violation, and
    ``values`` adds the iteration-scaled penalty to the power of the other
    rows.  Violations are the positive part of the error-probability margin
    and of each negated gain.  Feasible rows have ``values == powers``
    exactly.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    powers = _powers(G)
    penalties = staged_penalty(error_probabilities(config, h, G) - config.epsilon)
    if np.any(G < 0.0):
        penalties = penalties + staged_penalty(-G).sum(axis=1)
    feasible = penalties == 0.0
    iterations = np.asarray(iterations, dtype=float)
    values = np.where(feasible, powers, powers + iterations * penalties)
    return values, feasible, powers


def total_power(g: np.ndarray) -> float:
    """Total transmit power, the sum of squared gains."""
    return float(_powers(np.atleast_2d(np.asarray(g, dtype=float)))[0])


def constraint_margin(config: WsnConfig, h: np.ndarray, g: np.ndarray) -> float:
    """Error-probability constraint value; positive means violated."""
    return fusion_error_probability(config, h, g) - config.epsilon


def penalized_objective(
    config: WsnConfig, h: np.ndarray, g: np.ndarray, iteration: int
) -> float:
    """Total power plus the iteration-scaled penalty for constraint violations.

    A batch of one through ``evaluate_rows``; on feasible points the result
    equals ``total_power(g)`` exactly.
    """
    if iteration < 1:
        raise ValueError("iteration must be at least 1")
    values, _, _ = evaluate_rows(config, h, g, [iteration])
    return float(values[0])


class PowerAllocationProblem:
    """A config paired with one channel draw, evaluated as a penalized objective.

    Instances expose batch evaluation with an explicit penalty iteration, so
    the surrounding budget tracker can scale the penalty as the search
    progresses.
    """

    def __init__(
        self,
        config: WsnConfig,
        fading: np.ndarray | None = None,
        bounds: Bounds | None = None,
    ):
        self.config = config
        self.fading = sample_fading(config) if fading is None else np.asarray(fading, float)
        if self.fading.shape != (config.num_sensors,):
            raise ValueError("fading vector length must match num_sensors")
        self.bounds = bounds if bounds is not None else Bounds()

    @property
    def dimension(self) -> int:
        return self.config.num_sensors

    def error_probability(self, g: np.ndarray) -> float:
        return fusion_error_probability(self.config, self.fading, g)

    def constraint_margin(self, g: np.ndarray) -> float:
        return constraint_margin(self.config, self.fading, g)

    def batch(self, G: np.ndarray, iterations: np.ndarray):
        """Evaluate a stack of gain vectors; see ``evaluate_rows``."""
        return evaluate_rows(self.config, self.fading, G, iterations)
