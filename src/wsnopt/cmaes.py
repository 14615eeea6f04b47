"""Covariance matrix adaptation subsolver for subproblem views.

Standard (mu/mu_w, lambda) CMA-ES with cumulative step-size adaptation and
rank-one plus rank-mu covariance updates.  Candidates are reflected into
the box before evaluation and the update uses the reflected positions.
The eigendecomposition is refreshed lazily on an evaluation-count
schedule.  Numerical breakdown (non-finite state or a non-positive
covariance spectrum) resets the search to the isotropic start; each reset
is counted in ``CmaesSubsolver.resets``, which the benchmark's
``cmaes.resets`` metric reads.
"""

from __future__ import annotations

import math

import numpy as np

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
        self.mueff = 1.0 / np.sum(self.weights**2)

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

        self.sigma0 = SIGMA_SCALE * view.bounds.width
        self.resets = 0
        self._fresh_state(view.current())

    def _fresh_state(self, mean: np.ndarray):
        self.mean = np.asarray(mean, dtype=float).copy()
        self.sigma = self.sigma0
        self.cov = np.eye(self.n)
        self.path_sigma = np.zeros(self.n)
        self.path_cov = np.zeros(self.n)
        self.evals_done = 0
        self.evals_at_decomposition = -1
        self._decompose()

    def _decompose(self) -> bool:
        self.cov = 0.5 * (self.cov + self.cov.T)
        try:
            eigenvalues, basis = np.linalg.eigh(self.cov)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(eigenvalues)) or eigenvalues[0] <= 0.0:
            return False
        self.scales = np.sqrt(eigenvalues)
        self.basis = basis
        self.inv_sqrt_cov = (basis / self.scales[None, :]) @ basis.T
        self.evals_at_decomposition = self.evals_done
        return True

    def _reset(self):
        self.resets += 1
        mean = self.mean if np.all(np.isfinite(self.mean)) else self.view.current()
        self._fresh_state(mean)

    def _maybe_refresh_decomposition(self):
        stale_after = self.lam / ((self.c1 + self.cmu) * self.n * 10.0)
        if self.evals_done - self.evals_at_decomposition > stale_after:
            if not self._decompose():
                self._reset()

    def step(self, rng: np.random.Generator) -> None:
        n_cand = min(self.lam, self.view.remaining)
        if n_cand <= 0:
            return
        self._maybe_refresh_decomposition()
        z = rng.standard_normal((n_cand, self.n))
        steps = z @ (self.basis * self.scales[None, :]).T
        candidates = reflect_into_bounds(self.mean[None, :] + self.sigma * steps,
                                         self.view.bounds)
        values = self.view.evaluate_batch(candidates)
        self.evals_done += n_cand
        best = int(np.argmin(values))
        self.view.commit_if_better(candidates[best], float(values[best]))
        if n_cand < self.lam:
            # Budget-truncated generation: keep the evaluations, skip the update.
            return

        order = np.argsort(values, kind="stable")
        selected = candidates[order[: self.mu]]
        moves = (selected - self.mean[None, :]) / self.sigma
        move_mean = self.weights @ moves

        self.path_sigma = (1.0 - self.cs) * self.path_sigma + math.sqrt(
            self.cs * (2.0 - self.cs) * self.mueff
        ) * (self.inv_sqrt_cov @ move_mean)
        generations = self.evals_done / self.lam
        norm_ps = float(np.linalg.norm(self.path_sigma))
        hsig = norm_ps / math.sqrt(
            1.0 - (1.0 - self.cs) ** (2.0 * generations)
        ) / self.chi_n < 1.4 + 2.0 / (self.n + 1.0)
        self.path_cov = (1.0 - self.cc) * self.path_cov + (
            math.sqrt(self.cc * (2.0 - self.cc) * self.mueff) * move_mean
            if hsig
            else 0.0
        )

        rank_mu = (moves * self.weights[:, None]).T @ moves
        stall_term = 0.0 if hsig else self.cc * (2.0 - self.cc)
        self.cov = (
            (1.0 - self.c1 - self.cmu) * self.cov
            + self.c1 * (np.outer(self.path_cov, self.path_cov) + stall_term * self.cov)
            + self.cmu * rank_mu
        )
        self.mean = self.mean + self.sigma * move_mean
        self.sigma = self.sigma * math.exp(
            (self.cs / self.ds) * (norm_ps / self.chi_n - 1.0)
        )

        state_bad = (
            not np.all(np.isfinite(self.mean))
            or not np.isfinite(self.sigma)
            or self.sigma > 1e7 * self.sigma0
            or self.sigma <= 0.0
        )
        if state_bad:
            self._reset()
