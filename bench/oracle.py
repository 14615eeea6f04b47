"""Exact minimum-power allocation for spatially white observation noise.

With ``correlation == 0`` the squared deflection is a sum of per-sensor terms
``t_i(x_i) = P h_i^2 x_i / (h_i^2 x_i sigma_v2 + sigma_w2)`` in ``x = g^2``, each
concave and increasing, and the error ceiling is a floor ``s_req`` on that sum.
Minimizing ``sum(x)`` over the box is therefore convex.  Stationarity of the
Lagrangian gives the water-filling rule

    x_i(lam) = clip((sqrt(lam P h_i^2 sigma_w2) - sigma_w2) / (h_i^2 sigma_v2), 0, upper^2)

and the single multiplier ``lam`` is found by bisection on
``sum(t_i(x_i(lam))) = s_req`` (Boyd & Vandenberghe, Convex Optimization,
section 5.5.3).  The bisection aims a hair above ``s_req`` and returns the
feasible end of its bracket, so the gains it reports satisfy the constraint;
``verified_optimum`` re-checks them with the problem's own dense-Cholesky path
before anyone relies on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import erfcinv

from wsnopt.problem import WsnConfig, fusion_error_probability


@dataclass(frozen=True)
class Optimum:
    power: float
    gains: np.ndarray
    active: int


def required_deflection(epsilon: float) -> float:
    """Smallest squared deflection whose error probability is at most epsilon."""
    # Q(0.5 sqrt(s)) <= eps  <=>  s >= (2 Q^-1(eps))^2, with Q^-1(e) = sqrt(2) erfcinv(2e).
    return (2.0 * math.sqrt(2.0) * float(erfcinv(2.0 * epsilon))) ** 2


def white_noise_optimum(config: WsnConfig, fading: np.ndarray, upper: float) -> Optimum:
    """Water-filling optimum of the white-noise problem on the box ``[0, upper]``."""
    if config.correlation != 0.0:
        raise ValueError("the exact optimum needs correlation == 0")
    h2 = np.asarray(fading, dtype=float) ** 2
    p, sv, sw = config.signal_power, config.sigma_v2, config.sigma_w2
    x_max = upper * upper
    # A relative margin of 1e-12 keeps the gains feasible under the rounding
    # of either evaluation path; it moves the power by about as little.
    target = required_deflection(config.epsilon) * (1.0 + 1e-12)

    def allocation(lam: float) -> np.ndarray:
        return np.clip((np.sqrt(lam * p * h2 * sw) - sw) / (h2 * sv), 0.0, x_max)

    def deflection(x: np.ndarray) -> float:
        return float(np.sum(p * h2 * x / (h2 * x * sv + sw)))

    if deflection(np.full_like(h2, x_max)) < target:
        raise ValueError("the error ceiling cannot be met inside the box")
    lo, hi = 0.0, 1.0
    while deflection(allocation(hi)) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if deflection(allocation(mid)) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    x = allocation(hi)
    return Optimum(power=float(x.sum()), gains=np.sqrt(x), active=int(np.count_nonzero(x)))


def verified_optimum(config: WsnConfig, fading: np.ndarray, upper: float) -> Optimum:
    """The exact optimum, refused unless it passes the problem's own checks.

    The gains must meet the error ceiling under the dense-Cholesky path, and
    the optimal power must rise strictly when the ceiling is halved.
    """
    best = white_noise_optimum(config, fading, upper)
    margin = fusion_error_probability(config, fading, best.gains, method="matrix") - config.epsilon
    if margin > 0.0:
        raise ValueError(f"oracle gains violate the ceiling by {margin:.3g}")
    tighter = replace(config, epsilon=0.5 * config.epsilon)
    if not white_noise_optimum(tighter, fading, upper).power > best.power:
        raise ValueError("oracle power does not rise as the ceiling tightens")
    return best
