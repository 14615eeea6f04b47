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
reference (``method="matrix"``) the kernel is checked against.  The kernel
lives on ``PowerAllocationProblem``, which builds its constants once per
problem; a scalar call is still a batch of one through that kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cholesky, toeplitz
from scipy.linalg.lapack import dptsv
from scipy.special import erfc

from .evo import Bounds

# Rayleigh scale that yields unit-mean channel amplitudes.
RAYLEIGH_UNIT_MEAN_SCALE = math.sqrt(2.0 / math.pi)

# Elements per chunk of rows the kernel evaluates at a time, on both paths,
# which bounds the size of its temporaries: 64 KB of float64 each, under
# glibc's 128 KB mmap threshold, so they are reused from the heap instead of
# arriving as fresh zeroed pages (a 128 KB request lands on the threshold).
_CHUNK_ELEMENTS = 1 << 13
# Received vectors simulated per draw of ``monte_carlo_error_rate``.
_SAMPLE_CHUNK = 1 << 16
# Weight of ``staged_penalty``'s last stage, the largest.
_TOP_PENALTY_WEIGHT = 300.0


@dataclass(frozen=True)
class WsnConfig:
    """Static description of one sensor-network detection instance.

    Attributes
    ----------
    num_sensors : int
        Number of sensors ``L`` (also the optimization dimension).
    correlation : float
        Noise correlation ``r`` of adjacent sensors, decaying as
        ``r**|i - j|``, in ``[0, 1)``.  Zero means spatially white noise.
    epsilon : float
        Ceiling on the fusion error probability, in ``(0, 0.5)``.
    fading_seed : int
        Seed used when drawing the channel amplitudes for this instance.

    The signal power and the observation (``sigma_v2``) and receiver
    (``sigma_w2``) noise variances are class constants: the paper's 10 dB
    SNR at unit noise.
    """

    num_sensors: int
    correlation: float = 0.0
    epsilon: float = 0.1
    fading_seed: int = 0
    signal_power: ClassVar[float] = 10.0
    sigma_v2: ClassVar[float] = 1.0
    sigma_w2: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.num_sensors < 1:
            raise ValueError("num_sensors must be at least 1")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must lie in [0, 1)")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")


def sample_fading(config: WsnConfig) -> np.ndarray:
    """Draw the channel amplitude vector for one instance.

    Amplitudes are Rayleigh with unit mean and are returned sorted in
    descending order, so sensor 0 always has the strongest channel.  The
    draw is a pure function of ``config.fading_seed``.
    """
    rng = np.random.default_rng(config.fading_seed)
    h = rng.rayleigh(scale=RAYLEIGH_UNIT_MEAN_SCALE, size=config.num_sensors)
    return np.sort(h)[::-1].copy()


def build_signal_covariance(config: WsnConfig) -> np.ndarray:
    """Toeplitz covariance of the observation noise across sensors.

    Entry ``(i, j)`` equals ``sigma_v2 * correlation**|i - j|``.
    """
    lags = np.arange(config.num_sensors, dtype=float)
    first_col = config.sigma_v2 * np.power(config.correlation, lags)
    return toeplitz(first_col)


def effective_noise_covariance(config: WsnConfig, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Covariance of the received vector noise after amplify-and-forward.

    With the per-sensor scaling ``a = h * g`` this is
    ``diag(a) @ Sigma_v @ diag(a) + sigma_w2 * I``.  A non-finite amplitude
    or gain raises ``ValueError`` before any arithmetic.
    """
    h, g = np.asarray(h, dtype=float), np.asarray(g, dtype=float)
    if not np.isfinite(h).all():
        raise ValueError("channel amplitudes must be finite")
    if not np.isfinite(g).all():
        raise ValueError("gains must be finite")
    a = h * g
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
    cov = effective_noise_covariance(config, h, g)
    a = np.asarray(h, dtype=float) * np.asarray(g, dtype=float)
    # Factorization solve; an explicit matrix inverse is never formed.
    factor = cho_factor(cov, lower=True)
    y = cho_solve(factor, a)
    return config.signal_power * float(a @ y)


def _q_of_deflection(s):
    return q_function(0.5 * np.sqrt(np.maximum(s, 0.0)))


def fusion_error_probability(
    config: WsnConfig, h: np.ndarray, g: np.ndarray, method: str = "auto"
) -> float:
    """Error probability of the fusion-center threshold rule.

    ``method`` selects the computation path: "auto" is the O(L) evaluation
    kernel (``PowerAllocationProblem.error_probabilities`` on a batch of one)
    and "matrix" always uses the dense O(L^3) covariance factorization, the
    reference the kernel is checked against.

    Both check ``h`` through ``PowerAllocationProblem``, so a non-finite
    amplitude raises ``ValueError``.  Raises ``numpy.linalg.LinAlgError``
    when the effective covariance is not positive definite (a degenerate
    configuration).
    """
    if method not in ("auto", "matrix"):
        raise ValueError(f"unknown method {method!r}")
    problem = PowerAllocationProblem(config, h)
    if method == "auto":
        return problem.error_probability(g)
    return float(_q_of_deflection(_deflection(config, problem.fading, g)))


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
    A non-finite amplitude or gain raises ``ValueError`` before any
    arithmetic.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    cov = effective_noise_covariance(config, h, g)
    a = np.asarray(h, dtype=float) * np.asarray(g, dtype=float)
    m = math.sqrt(config.signal_power)
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
    if not v.any():
        return np.zeros(v.shape)
    weights = np.where(v <= 0.1, 10.0, np.where(v <= 1.0, 100.0, _TOP_PENALTY_WEIGHT))
    return weights * np.where(v < 1.0, v, v * v)


class PowerAllocationProblem:
    """A config paired with one channel draw, evaluated as a penalized objective.

    Instances expose batch evaluation with an explicit penalty iteration, so
    the surrounding budget tracker can scale the penalty as the search
    progresses.  The evaluation kernel's constants are built once, here, and
    every evaluation, a scalar one included, is a batch through that kernel.
    """

    def __init__(self, config: WsnConfig, fading: np.ndarray | None = None):
        self.config = config
        self.fading = sample_fading(config) if fading is None else np.asarray(fading, float)
        if self.fading.shape != (config.num_sensors,):
            raise ValueError("fading vector length must match num_sensors")
        if not np.isfinite(self.fading).all():
            raise ValueError("channel amplitudes must be finite")
        self.bounds = Bounds()
        self._white = config.correlation == 0.0 or config.num_sensors == 1
        L = config.num_sensors
        self._chunk = max(1, _CHUNK_ELEMENTS // L)
        # The largest gain magnitude the kernel takes.  Below it, a row's sum
        # of its largest squared term, the top penalty weight times g**2 or
        # (h*g)**2 times signal_power, sigma_v2 or 1/sigma_w2, stays under the
        # square root of the largest double: no square or row sum overflows,
        # and a value stays finite at any penalty iteration below that root.
        h_max = float(np.abs(self.fading).max())
        scale = max(_TOP_PENALTY_WEIGHT, h_max * h_max * max(
            config.signal_power, config.sigma_v2, 1.0 / config.sigma_w2))
        self._gain_bound = math.sqrt(math.sqrt(sys.float_info.max) / (L * scale))
        if self._white:
            return
        # The tridiagonal constants of ``deflections``.  ``dptsv`` overwrites
        # its inputs, so it is only ever handed fresh arrays built from these.
        r = config.correlation
        c = 1.0 / (config.sigma_v2 * (1.0 - r * r))
        t_diag = np.full(L, 1.0 + r * r)
        t_diag[[0, -1]] = 1.0
        t_ones = np.full(L, (1.0 - r) ** 2)
        t_ones[[0, -1]] = 1.0 - r
        self._c_t_diag = c * t_diag
        self._c_t_ones = c * t_ones
        self._coupling = np.full(L, -c * r)
        self._coupling[-1] = 0.0

    @property
    def dimension(self) -> int:
        return self.config.num_sensors

    def _smallest_gain(self, G: np.ndarray) -> float:
        """The smallest entry of ``G``, or 0.0 when none is negative.

        One ``min`` and one ``max`` over the stack, with no temporary of its
        size, also reject every gain that is NaN, infinite or beyond the
        kernel's bound, which would score its row as a feasible NaN or inf,
        overflow, or leak through a correlated chunk's zero couplings.
        """
        low, high = G.min(initial=0.0), G.max(initial=0.0)
        if not (-self._gain_bound <= low and high <= self._gain_bound):
            raise ValueError(
                f"gains must be finite and at most {self._gain_bound:.3g} in magnitude")
        return low

    def deflections(self, G: np.ndarray) -> np.ndarray:
        """Squared deflection of each row of the gain stack ``G``, O(L) a row.

        White observation noise, and a single sensor, have a closed form.  For
        correlated noise let ``r = correlation``: the noise covariance
        ``sigma_v2 * r**|i-j|`` has the inverse ``c*T`` with
        ``c = 1/(sigma_v2*(1 - r**2))`` and ``T`` tridiagonal, diagonal
        ``(1, 1+r**2, ..., 1+r**2, 1)`` and off-diagonal ``-r``.  With
        ``u = (h*g)**2`` and ``M = c*T + diag(u)/sigma_w2``, Woodbury gives
        ``(P/sigma_w2) * u' M^-1 (c*T 1)``, which has no cancellation at large
        gains.  ``M`` is symmetric and strictly diagonally dominant, hence
        positive definite, so ``dptsv`` solves it without pivoting.  Both paths
        work through ``G`` in chunks of rows, which bounds every temporary, and
        sum each row along its own axis; a stack of one chunk is that chunk.
        A correlated chunk is one block-diagonal system whose zero couplings
        between rows leave every row's arithmetic exactly as it is alone.  So
        a row's value does not depend on its batch.  As ``r`` nears 1, ``T``
        grows ill-conditioned and the relative error at small gains grows like
        machine epsilon over ``(1 - r)**2``: about 3e-12 at ``r = 0.99``.
        A gain that is not finite or beyond the kernel's bound raises
        ``ValueError``.
        """
        self._smallest_gain(G)
        return self._deflections(G)

    def _deflections(self, G: np.ndarray) -> np.ndarray:
        rows = len(G)
        if 0 < rows <= self._chunk:
            s = self._row_sums(G)
        else:
            s = np.empty(rows)
            for start in range(0, rows, self._chunk):
                g = G[start : start + self._chunk]
                s[start : start + len(g)] = self._row_sums(g)
        return s if self._white else (self.config.signal_power / self.config.sigma_w2) * s

    def _row_sums(self, g: np.ndarray) -> np.ndarray:
        """The per-row sums of ``deflections`` for one non-empty chunk ``g``."""
        sigma_w2 = self.config.sigma_w2
        u = (g * self.fading) ** 2
        if self._white:
            terms = self.config.signal_power * u / (u * self.config.sigma_v2 + sigma_w2)
        else:
            m, L = u.shape
            d = (self._c_t_diag + u / sigma_w2).ravel()
            e = self._coupling[None].repeat(m, axis=0).ravel()[:-1]
            b = self._c_t_ones[None].repeat(m, axis=0).reshape(-1, 1)
            _, _, x, info = dptsv(d, e, b, overwrite_d=1, overwrite_e=1, overwrite_b=1)
            if info != 0:
                raise LinAlgError(f"tridiagonal system not positive definite (info={info})")
            terms = u * x.reshape(m, L)
        return terms.sum(axis=1)

    def error_probabilities(self, G: np.ndarray) -> np.ndarray:
        """Fusion error probability of each row of the gain stack ``G``."""
        return _q_of_deflection(self.deflections(G))

    def batch(self, G: np.ndarray, iterations: np.ndarray):
        """Penalized objective of each row of the float ``(n, L)`` gain stack ``G``.

        ``G`` is the stack the tracker has already converted, and
        ``iterations`` its penalty clock, one per row.  Returns ``(values,
        feasible, powers)``: ``powers`` is the total power of each row and
        ``values`` is ``powers + iterations * penalties`` for every row.
        Violations are the positive part of the error-probability margin and
        of each negated gain.  ``feasible`` marks rows with none, whose
        penalty is 0, so a feasible row's value is its power exactly.  The
        one scan that checks the gains also finds whether any is negative.
        """
        smallest = self._smallest_gain(G)
        powers = np.einsum("ij,ij->i", G, G)
        penalties = staged_penalty(_q_of_deflection(self._deflections(G)) - self.config.epsilon)
        if smallest < 0.0:
            penalties = penalties + staged_penalty(-G).sum(axis=1)
        feasible = penalties == 0.0
        return powers + iterations * penalties, feasible, powers

    def error_probability(self, g: np.ndarray) -> float:
        return float(self.error_probabilities(np.asarray(g, dtype=float)[None, :])[0])
