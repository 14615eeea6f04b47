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
# of the DE/rand/1 weight, the pool's refresh period as a fraction of the
# run's generations, the share of the ranks in each of the top and bottom
# slices, and the probability that a row's donor is a rank-slice donor.
POOL_VALUES = (0.05, 0.5, 0.95)
F_LOW, F_HIGH = 0.4, 0.9
LEARNING_FRACTION = 0.1
SLICE_FRACTION = 0.1
MIX_PROBABILITY = 0.5
# The smallest population whose rank slices are not empty.
MIN_POPULATION = 10


class CrossoverRatePool:
    """Pool of the ``POOL_VALUES`` crossover rates, drawn by success ratio.

    Draws are uniform until the first refresh.  Every ``period``-th
    ``record`` (counted in ``recorded``) refreshes: the probabilities become
    the normalised success ratios accumulated since the previous refresh and
    the counters reset; if nothing succeeded the probabilities fall back to
    uniform.
    """

    def __init__(self, period: int):
        k = len(POOL_VALUES)
        self.period = period
        self.recorded = 0
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
        self.recorded += 1
        if self.recorded % self.period == 0:
            self.refresh()

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
) -> np.ndarray:
    """``n`` donors, each from one top-slice, one middle and one bottom-slice member.

    ``order`` ranks the rows of ``positions`` best to worst.  The slices are
    the first and last ``n_slice`` ranks; each donor is its middle member
    pulled toward its top one and pushed away from its bottom one by uniform
    random weights ``u`` and ``v``, drawn in that order after the members:
    ``mid + u*(top - mid) + v*(mid - bottom)``, computed in place in the
    gathered rows.  The caller keeps all three slices non-empty.
    """
    n_pop = len(order)
    top = positions[order[rng.integers(n_slice, size=n)]]
    mid = positions[order[rng.integers(n_slice, n_pop - n_slice, size=n)]]
    bottom = positions[order[rng.integers(n_pop - n_slice, n_pop, size=n)]]
    top -= mid
    top *= rng.random((n, 1))
    np.subtract(mid, bottom, out=bottom)
    bottom *= rng.random((n, 1))
    mid += top
    mid += bottom
    return mid


def eade(objective: TrackedObjective, rng: np.random.Generator) -> TrackedObjective:
    """Population solver mixing rank-slice donors with DE/rand/1/bin.

    Each row's donor is a rank-slice donor with ``MIX_PROBABILITY``, else a
    DE/rand/1 donor; the slices are the best and the worst
    ``SLICE_FRACTION`` of the population, which is the tracker's size.
    """
    n_pop = objective.population_size
    if n_pop < MIN_POPULATION:
        raise ValueError(f"population_size {n_pop} is too small for the slices")
    n_slice = int(SLICE_FRACTION * n_pop)

    bounds = objective.bounds
    pop, fit = init_population(objective, rng)

    total_generations = max(1, objective.max_evals // n_pop)
    pool = CrossoverRatePool(max(1, round(LEARNING_FRACTION * total_generations)))

    while objective.remaining > 0:
        n = min(n_pop, objective.remaining)
        drawn, cr = pool.draw(n, rng)
        slice_rows = rng.random(n) < MIX_PROBABILITY
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
