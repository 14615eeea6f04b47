"""Self-adaptive differential evolution subsolver for subproblem views.

Keeps a small subpopulation per variable group.  Mutation alternates
between rand/1 and current-to-best/1 with an adaptive selection
probability, the scale factor is drawn from a Gaussian or a folded Cauchy
with a second adaptive probability, and the crossover-rate mean is
re-estimated from improvement-weighted successful rates.  Member fitness
is measured against the context at evaluation time and is not refreshed
when other groups move the context, which trades a little selection bias
for a large saving in evaluations.
"""

from __future__ import annotations

import numpy as np

from .evo import binomial_crossover, pick_distinct, reflect_into_bounds

# Members of each group's subpopulation, and the generations between updates
# of the strategy and scale-family probabilities and of the crossover mean.
POP_SIZE = 30
STRATEGY_PERIOD = 50
CR_PERIOD = 25


def strategy_success_probability(ns1: int, nf1: int, ns2: int, nf2: int) -> float:
    """Relative success rate of strategy one, clamped away from 0 and 1."""
    numerator = ns1 * (ns2 + nf2)
    denominator = ns2 * (ns1 + nf1) + numerator
    if denominator == 0:
        return 0.5
    return float(np.clip(numerator / denominator, 0.05, 0.95))


def weighted_crossover_mean(cr_values, improvements) -> float:
    """Mean of successful crossover rates weighted by their fitness gains."""
    cr_values = np.asarray(cr_values, dtype=float)
    improvements = np.asarray(improvements, dtype=float)
    total = improvements.sum()
    if total <= 0.0:
        return 0.5
    return float(np.sum(cr_values * improvements) / total)


class SansdeSubsolver:
    """One subpopulation generation per ``step``; lazy first evaluation."""

    def __init__(self, view):
        self.view = view
        self.p_strategy = 0.5
        self.p_gaussian_f = 0.5
        self.cr_mean = 0.5
        self.positions: np.ndarray | None = None
        self.fitness: np.ndarray | None = None
        self.generation = 0
        self._strategy_counts = np.zeros(4, dtype=int)  # ns1 nf1 ns2 nf2
        self._fscale_counts = np.zeros(4, dtype=int)
        self._cr_successes: list[np.ndarray] = []  # (CR, gain) rows per step

    def _initialize(self, rng: np.random.Generator):
        bounds = self.view.bounds
        d = self.view.dimension
        self.positions = rng.uniform(bounds.lower, bounds.upper, (POP_SIZE, d))
        self.positions[0] = self.view.current()
        self.fitness = np.full(POP_SIZE, np.inf)
        n = min(POP_SIZE, self.view.remaining)
        self.fitness[:n] = self.view.evaluate_batch(self.positions[:n])

    def _draw_scales(self, n: int, rng: np.random.Generator):
        """Scale factors from a Gaussian or a folded Cauchy, and which was used."""
        gaussian = rng.random(n) < self.p_gaussian_f
        raw = np.where(gaussian, rng.normal(0.5, 0.3, n), np.abs(rng.standard_cauchy(n)))
        return np.clip(np.abs(raw), 0.05, 2.0), gaussian

    def step(self, rng: np.random.Generator) -> None:
        if self.positions is None:
            self._initialize(rng)
            return
        n = min(POP_SIZE, self.view.remaining)
        if n <= 0:
            return
        pop = self.positions
        scale, used_gaussian = self._draw_scales(n, rng)
        scale = scale[:, None]
        crs = np.clip(rng.normal(self.cr_mean, 0.1, n), 0.0, 1.0)
        used_rand = rng.random(n) < self.p_strategy
        a, b, c = pick_distinct(n, (POP_SIZE,) * 3, rng).T
        # rand/1 adds F*(b - c) to member a; current-to-best/1 adds F*(a - b)
        # to the row pulled toward the best member.
        parents = pop[:n]
        toward_best = parents + scale * (pop[np.argmin(self.fitness)] - parents)
        rand = used_rand[:, None]
        donors = np.where(rand, pop[a], toward_best) + scale * np.where(
            rand, pop[b] - pop[c], pop[a] - pop[b]
        )
        trials = reflect_into_bounds(
            binomial_crossover(parents, donors, crs, rng), self.view.bounds
        )

        values = self.view.evaluate_batch(trials)
        improved = values < self.fitness[:n]
        self._strategy_counts += _outcome_counts(used_rand, improved)
        self._fscale_counts += _outcome_counts(used_gaussian, improved)
        if improved.any():
            gains = self.fitness[:n] - values
            self._cr_successes.append(np.column_stack([crs, gains])[improved])
            parents[improved] = trials[improved]
            self.fitness[:n][improved] = values[improved]

        self.generation += 1
        if self.generation % STRATEGY_PERIOD == 0:
            self.p_strategy = strategy_success_probability(*self._strategy_counts)
            self.p_gaussian_f = strategy_success_probability(*self._fscale_counts)
            self._strategy_counts[:] = 0
            self._fscale_counts[:] = 0
        if self.generation % CR_PERIOD == 0:
            if self._cr_successes:
                successes = np.concatenate(self._cr_successes)
                self.cr_mean = weighted_crossover_mean(successes[:, 0], successes[:, 1])
            self._cr_successes.clear()


def _outcome_counts(first: np.ndarray, improved: np.ndarray) -> np.ndarray:
    """Successes and failures of the first option, then of the second."""
    return np.array([
        np.sum(first & improved),
        np.sum(first & ~improved),
        np.sum(~first & improved),
        np.sum(~first & ~improved),
    ])
