"""Adaptive differential evolution with rank-slice mutation.

The solver sorts its population by fitness each generation and builds half of
its donors from three ranked slices (a top member pulls the donor toward good
regions, a bottom member pushes it away from bad ones); the other half uses
plain DE/rand/1/bin.  Crossover rates come from a small candidate pool whose
selection probabilities track recent success ratios.
"""

from __future__ import annotations

import numpy as np

from .evo import (
    TrackedObjective,
    binomial_crossover,
    de_rand_1_bin,
    init_population,
    reflect_into_bounds,
)


class CrossoverRatePool:
    """Pool of crossover rates with success-ratio-proportional selection.

    Draws are uniform until the first refresh.  Each refresh recomputes the
    selection probabilities from the success ratios accumulated since the
    previous refresh and then resets the counters; if nothing succeeded the
    probabilities fall back to uniform.
    """

    def __init__(self, values=(0.05, 0.5, 0.95)):
        self.values = tuple(float(v) for v in values)
        if len(self.values) < 1:
            raise ValueError("pool must contain at least one rate")
        k = len(self.values)
        self.probabilities = np.full(k, 1.0 / k)
        self.successes = np.zeros(k)
        self.failures = np.zeros(k)

    def draw(self, rng: np.random.Generator) -> tuple[int, float]:
        idx = int(rng.choice(len(self.values), p=self.probabilities))
        return idx, self.values[idx]

    def record(self, index: int, success: bool):
        if success:
            self.successes[index] += 1.0
        else:
            self.failures[index] += 1.0

    def refresh(self):
        tried = (self.successes + self.failures) > 0.0
        ratios = np.zeros(len(self.values))
        ratios[tried] = self.successes[tried] / (
            self.successes[tried] + self.failures[tried]
        )
        total = ratios.sum()
        if total > 0.0:
            self.probabilities = ratios / total
        else:
            self.probabilities = np.full(len(self.values), 1.0 / len(self.values))
        self.successes[:] = 0.0
        self.failures[:] = 0.0


def eade_mutation(
    sorted_positions: np.ndarray,
    n_slice: int,
    rng: np.random.Generator,
    f_top: float | None = None,
    f_bottom: float | None = None,
) -> np.ndarray:
    """Donor built from one top-slice, one middle, and one bottom-slice member.

    ``sorted_positions`` must be ordered best to worst.  The slices are the
    first and last ``n_slice`` rows; the donor is the middle member pulled
    toward the top one and pushed away from the bottom one by uniform random
    weights (or the given ``f_top`` / ``f_bottom``).
    """
    n_pop = len(sorted_positions)
    if n_slice < 1 or n_pop - 2 * n_slice < 1:
        raise ValueError("rank slices are empty for this population size")
    top = rng.integers(n_slice)
    mid = rng.integers(n_slice, n_pop - n_slice)
    bottom = rng.integers(n_pop - n_slice, n_pop)
    if f_top is None:
        f_top = rng.random()
    if f_bottom is None:
        f_bottom = rng.random()
    x_top, x_mid, x_bottom = (
        sorted_positions[top],
        sorted_positions[mid],
        sorted_positions[bottom],
    )
    return x_mid + f_top * (x_top - x_mid) + f_bottom * (x_mid - x_bottom)


class EadeSolver:
    """Population solver mixing rank-slice donors with DE/rand/1/bin."""

    def __init__(
        self,
        slice_fraction: float = 0.1,
        mix_probability: float = 0.5,
        pool_values=(0.05, 0.5, 0.95),
        f_low: float = 0.4,
        f_high: float = 0.9,
        learning_fraction: float = 0.1,
    ):
        if not 0.0 < slice_fraction < 0.5:
            raise ValueError("slice_fraction must lie in (0, 0.5)")
        if not 0.0 <= mix_probability <= 1.0:
            raise ValueError("mix_probability must lie in [0, 1]")
        self.slice_fraction = slice_fraction
        self.mix_probability = mix_probability
        self.pool_values = pool_values
        self.f_low = f_low
        self.f_high = f_high
        self.learning_fraction = learning_fraction

    def run(
        self,
        objective: TrackedObjective,
        rng: np.random.Generator,
        population_size: int,
    ) -> TrackedObjective:
        n_pop = int(population_size)
        n_slice = int(self.slice_fraction * n_pop)
        if n_slice < 1 or n_pop - 2 * n_slice < 1:
            raise ValueError("population too small for the configured slices")

        bounds = objective.bounds
        objective.population_size = n_pop
        pop = init_population(n_pop, objective.dimension, bounds, rng)
        n_first = min(n_pop, objective.remaining)
        fit = np.full(n_pop, np.inf)
        fit[:n_first] = objective.evaluate_batch(pop[:n_first])

        total_generations = max(1, objective.budget.max_evals // n_pop)
        period = max(1, round(self.learning_fraction * total_generations))
        pool = CrossoverRatePool(self.pool_values)

        generation = 0
        while objective.remaining > 0:
            generation += 1
            if generation > 1 and (generation - 1) % period == 0:
                pool.refresh()
            n = min(n_pop, objective.remaining)
            order = np.argsort(fit, kind="stable")
            sorted_pop = pop[order]
            trials = np.empty((n, objective.dimension))
            drawn = np.empty(n, dtype=int)
            for i in range(n):
                idx, cr = pool.draw(rng)
                drawn[i] = idx
                use_slice_donor = self.mix_probability >= 1.0 or (
                    0.0 < self.mix_probability and rng.random() < self.mix_probability
                )
                if use_slice_donor:
                    donor = eade_mutation(sorted_pop, n_slice, rng)
                    trial = binomial_crossover(pop[i], donor, cr, rng)
                else:
                    f_weight = rng.uniform(self.f_low, self.f_high)
                    trial = de_rand_1_bin(pop, i, f_weight, cr, rng)
                trials[i] = reflect_into_bounds(trial, bounds)
            values = objective.evaluate_batch(trials)
            better = values < fit[:n]
            for i in range(n):
                pool.record(drawn[i], bool(better[i]))
            pop[:n][better] = trials[better]
            fit[:n][better] = values[better]
        return objective
