"""Covariance matrix adaptation subsolver for subproblem views.

Standard (mu/mu_w, lambda) CMA-ES with cumulative step-size adaptation and
rank-one plus rank-mu covariance updates.  Candidates are reflected into
the box before evaluation and the update uses the reflected positions.
After every full update the covariance C is factored afresh as C = A·Aᵀ
with a lower Cholesky factor A: steps are sampled as A·z, and the σ-path
is whitened by the triangular solve A⁻¹y, so ‖A⁻¹y‖² = yᵀC⁻¹y (Krause,
Arbonès & Igel, NeurIPS 2016).  Numerical breakdown (non-finite state or a
failed factorization) resets the search to the isotropic start; each reset
is counted in ``CmaesSubsolver.resets``, which the benchmark's
``cmaes.resets`` metric reads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .evo import reflect_into_bounds

# Initial step size as a fraction of the box width.
SIGMA_SCALE = 0.3


class CmaesSubsolver:
    """One generation of CMA-ES per ``step`` on a subproblem view."""

    def __init__(self, view):
        self.view = view
        n = view.dimension
        self.n = n
        self.lam = 4 + int(3.0 * math.log(n))
        self.mu = self.lam // 2
        weights = math.log(self.mu + 0.5) - np.log(np.arange(1, self.mu + 1))
        self.weights = weights / weights.sum()
        # A Python float, so the per-generation scalar arithmetic below stays
        # off numpy scalars.
        self.mueff = float(1.0 / np.sum(self.weights**2))

        self.cs = (self.mueff + 2.0) / (n + self.mueff + 5.0)
        self.ds = (
            1.0
            + 2.0 * max(0.0, math.sqrt((self.mueff - 1.0) / (n + 1.0)) - 1.0)
            + self.cs
        )
        self.cc = (4.0 + self.mueff / n) / (n + 4.0 + 2.0 * self.mueff / n)
        self.c1 = 2.0 / ((n + 1.3) ** 2 + self.mueff)
        self.cmu = min(
            1.0 - self.c1,
            2.0 * (self.mueff - 2.0 + 1.0 / self.mueff) / ((n + 2.0) ** 2 + self.mueff),
        )
        self.chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
        # Scales of the σ-path and the covariance path's new steps.
        self.cs_scale = math.sqrt(self.cs * (2.0 - self.cs) * self.mueff)
        self.cc_scale = math.sqrt(self.cc * (2.0 - self.cc) * self.mueff)

        self.sigma0 = SIGMA_SCALE * view.bounds.width
        self.resets = 0
        self._fresh_state(view.current())

    def _fresh_state(self, mean: np.ndarray):
        self.mean = np.asarray(mean, dtype=float).copy()
        self.sigma = self.sigma0
        self.cov = np.eye(self.n)
        self.factor = np.eye(self.n)
        self.path_sigma = np.zeros(self.n)
        self.path_cov = np.zeros(self.n)
        self.evals_done = 0

    def _reset(self):
        self.resets += 1
        mean = self.mean if np.isfinite(self.mean).all() else self.view.current()
        self._fresh_state(mean)

    def step(self, rng: np.random.Generator) -> None:
        n_cand = min(self.lam, self.view.remaining)
        z = rng.standard_normal((n_cand, self.n))
        steps = z @ self.factor.T
        candidates = np.multiply(self.sigma, steps, out=steps)
        np.add(self.mean, candidates, out=candidates)
        reflect_into_bounds(candidates, self.view.bounds)
        values = self.view.evaluate_batch(candidates)
        self.evals_done += n_cand
        if n_cand < self.lam:
            # Budget-truncated generation: keep the evaluations, skip the update.
            return

        order = values.argsort(kind="stable")
        moves = candidates.take(order[: self.mu], axis=0)
        np.subtract(moves, self.mean, out=moves)
        np.divide(moves, self.sigma, out=moves)
        move_mean = self.weights @ moves

        whitened, info = dtrtrs(self.factor, move_mean, lower=1)
        if info != 0:
            self._reset()
            return
        path_sigma = np.multiply(1.0 - self.cs, self.path_sigma, out=self.path_sigma)
        path_sigma += np.multiply(self.cs_scale, whitened, out=whitened)
        generations = self.evals_done / self.lam
        norm_ps = math.sqrt(path_sigma.dot(path_sigma))
        hsig = norm_ps / math.sqrt(
            1.0 - (1.0 - self.cs) ** (2.0 * generations)
        ) / self.chi_n < 1.4 + 2.0 / (self.n + 1.0)
        path_cov = np.multiply(1.0 - self.cc, self.path_cov, out=self.path_cov)
        path_cov += self.cc_scale * move_mean if hsig else 0.0

        # C <- (1 - c1 - cmu) C + c1 (pc pc' + stall C) + cmu rank_mu, each
        # product and sum in that order, folded into C in place.
        rank_mu = (moves * self.weights[:, None]).T @ moves
        stall_term = 0.0 if hsig else self.cc * (2.0 - self.cc)
        rank_one = np.multiply.outer(path_cov, path_cov)
        rank_one += np.multiply(stall_term, self.cov)
        np.multiply(self.c1, rank_one, out=rank_one)
        np.multiply(1.0 - self.c1 - self.cmu, self.cov, out=self.cov)
        self.cov += rank_one
        self.cov += np.multiply(self.cmu, rank_mu, out=rank_mu)
        self.mean += np.multiply(self.sigma, move_mean, out=move_mean)
        self.sigma = self.sigma * math.exp(
            (self.cs / self.ds) * (norm_ps / self.chi_n - 1.0)
        )

        self.factor, info = dpotrf(self.cov, lower=1, clean=1)
        state_bad = (
            info != 0
            or not np.isfinite(self.factor).all()
            or not np.isfinite(self.mean).all()
            or not math.isfinite(self.sigma)
            or self.sigma > 1e7 * self.sigma0
            or self.sigma <= 0.0
        )
        if state_bad:
            self._reset()
