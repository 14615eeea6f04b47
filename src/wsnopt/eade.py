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
    init_population,
    pick_distinct,
    reflect_into_bounds,
)

# The solver's published settings: the crossover-rate candidates, the range
# of the DE/rand/1 weight, and the pool's refresh period as a fraction of
# the run's generations.
POOL_VALUES = (0.05, 0.5, 0.95)
F_LOW, F_HIGH = 0.4, 0.9
LEARNING_FRACTION = 0.1
# The smallest population whose default rank slices (a tenth each) are not empty.
MIN_POPULATION = 10


class CrossoverRatePool:
    """Pool of the ``POOL_VALUES`` crossover rates, drawn by success ratio.

    Draws are uniform until the first refresh.  Each refresh recomputes the
    selection probabilities from the success ratios accumulated since the
    previous refresh and then resets the counters; if nothing succeeded the
    probabilities fall back to uniform.
    """

    def __init__(self):
        k = len(POOL_VALUES)
        self.probabilities = np.full(k, 1.0 / k)
        self.successes = np.zeros(k)
        self.failures = np.zeros(k)

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Pool indices and their rates for ``n`` trials."""
        idx = rng.choice(len(POOL_VALUES), size=n, p=self.probabilities)
        return idx, np.asarray(POOL_VALUES)[idx]

    def record(self, indices: np.ndarray, success: np.ndarray):
        k = len(POOL_VALUES)
        self.successes += np.bincount(indices[success], minlength=k)
        self.failures += np.bincount(indices[~success], minlength=k)

    def refresh(self):
        tried = (self.successes + self.failures) > 0.0
        ratios = np.zeros(len(POOL_VALUES))
        ratios[tried] = self.successes[tried] / (
            self.successes[tried] + self.failures[tried]
        )
        total = ratios.sum()
        if total > 0.0:
            self.probabilities = ratios / total
        else:
            self.probabilities = np.full(len(POOL_VALUES), 1.0 / len(POOL_VALUES))
        self.successes[:] = 0.0
        self.failures[:] = 0.0


def eade_mutation(
    positions: np.ndarray,
    order: np.ndarray,
    n_slice: int,
    n: int,
    rng: np.random.Generator,
    f_top: float | None = None,
    f_bottom: float | None = None,
) -> np.ndarray:
    """``n`` donors, each from one top-slice, one middle and one bottom-slice member.

    ``order`` ranks the rows of ``positions`` best to worst.  The slices are
    the first and last ``n_slice`` ranks; each donor is its middle member
    pulled toward its top one and pushed away from its bottom one by uniform
    random weights (or the given ``f_top`` / ``f_bottom``), that is
    ``mid + f_top*(top - mid) + f_bottom*(mid - bottom)``, computed in place
    in the gathered rows.
    """
    n_pop = len(order)
    if n_slice < 1 or n_pop - 2 * n_slice < 1:
        raise ValueError("rank slices are empty for this population size")
    top = positions[order[rng.integers(n_slice, size=n)]]
    mid = positions[order[rng.integers(n_slice, n_pop - n_slice, size=n)]]
    bottom = positions[order[rng.integers(n_pop - n_slice, n_pop, size=n)]]
    if f_top is None:
        f_top = rng.random((n, 1))
    if f_bottom is None:
        f_bottom = rng.random((n, 1))
    top -= mid
    top *= f_top
    np.subtract(mid, bottom, out=bottom)
    bottom *= f_bottom
    mid += top
    mid += bottom
    return mid


def eade(
    objective: TrackedObjective,
    rng: np.random.Generator,
    population_size: int,
    slice_fraction: float = 0.1,
    mix_probability: float = 0.5,
) -> TrackedObjective:
    """Population solver mixing rank-slice donors with DE/rand/1/bin.

    Each row's donor is a rank-slice donor with ``mix_probability``, else a
    DE/rand/1 donor; the slices are the best and the worst
    ``slice_fraction`` of the population.
    """
    if not 0.0 < slice_fraction < 0.5:
        raise ValueError("slice_fraction must lie in (0, 0.5)")
    if not 0.0 <= mix_probability <= 1.0:
        raise ValueError("mix_probability must lie in [0, 1]")
    n_pop = int(population_size)
    n_slice = int(slice_fraction * n_pop)
    if n_slice < 1 or n_pop - 2 * n_slice < 1:
        raise ValueError("population too small for the configured slices")

    bounds = objective.bounds
    pop = init_population(n_pop, objective.dimension, bounds, rng)
    n_first = min(n_pop, objective.remaining)
    fit = np.full(n_pop, np.inf)
    fit[:n_first] = objective.evaluate_batch(pop[:n_first])

    total_generations = max(1, objective.max_evals // n_pop)
    period = max(1, round(LEARNING_FRACTION * total_generations))
    pool = CrossoverRatePool()

    generation = 0
    while objective.remaining > 0:
        generation += 1
        if generation > 1 and (generation - 1) % period == 0:
            pool.refresh()
        n = min(n_pop, objective.remaining)
        drawn, cr = pool.draw(n, rng)
        slice_rows = rng.random(n) < mix_probability
        rand_rows = ~slice_rows
        donors = np.empty((n, objective.dimension))
        donors[slice_rows] = eade_mutation(
            pop, np.argsort(fit, kind="stable"), n_slice, int(slice_rows.sum()), rng
        )
        r1, r2, r3 = pick_distinct(n, (n_pop,) * 3, rng)[rand_rows].T
        f_weight = rng.uniform(F_LOW, F_HIGH, size=(len(r1), 1))
        # pop[r1] + f_weight * (pop[r2] - pop[r3]), in place in the gathered rows.
        rand_donors = pop[r2]
        rand_donors -= pop[r3]
        rand_donors *= f_weight
        rand_donors += pop[r1]
        donors[rand_rows] = rand_donors
        trials = reflect_into_bounds(
            binomial_crossover(pop[:n], donors, cr, rng), bounds
        )
        values = objective.evaluate_batch(trials)
        better = values < fit[:n]
        pool.record(drawn, better)
        pop[:n][better] = trials[better]
        fit[:n][better] = values[better]
    return objective
