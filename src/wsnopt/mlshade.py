"""Hybrid multi-strategy solver with dimension cycling and a local phase.

One shared population is evolved by three differential-evolution variants
that take turns under an adaptive evaluation-quota split: a
success-history DE with external archive, a sorted-slice DE with a
crossover-rate pool, and a triangular DE built on ranked triples.  Each
cycle re-partitions the coordinates at random into near-equal groups and
every generation mutates only one group, so the step behaves like a
coordinate-block search inside the full-dimensional population.  The
cycle ends with a multi-trajectory line search around the best member and
a linear population-size reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eade import CrossoverRatePool, eade_mutation
from .evo import (
    SuccessHistory,
    TrackedObjective,
    binomial_crossover,
    init_population,
    linear_pop_size_reduction,
    pick_distinct,
    reflect_into_bounds,
    shrink_population,
)


def random_dimension_grouping(
    dimension: int, n_groups: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Random partition of the coordinates into near-equal groups.

    Group sizes differ by at most one.  Membership is drawn fresh from the
    permutation, so repeated calls decorrelate the coordinate blocks.
    """
    if not 1 <= n_groups <= dimension:
        raise ValueError("n_groups must be between 1 and the dimension")
    return list(np.array_split(rng.permutation(dimension), n_groups))


@dataclass
class MmtsState:
    """Step length of the multi-trajectory line search, kept across cycles."""

    step: float
    shrink: float = 0.5
    floor: float = 1e-8
    restart_fraction: float = 0.4


def mmts_local_search(
    objective: TrackedObjective,
    start_x: np.ndarray,
    start_f: float,
    state: MmtsState,
    max_evals_here: int,
):
    """Coordinate-wise line search: long step down, half step up.

    Sweeps the coordinates in order, first trying a full step down and
    then half a step up, keeping strict improvements.  A sweep with no
    improvement halves the step; once the step collapses below the floor
    it restarts at a fixed fraction of the box width.  Returns the best
    point found, its value, and the evaluations spent.
    """
    bounds = objective.bounds
    x = np.asarray(start_x, dtype=float).copy()
    f_best = float(start_f)
    spent = 0
    dim = len(x)
    while spent < max_evals_here:
        improved_in_sweep = False
        for d in range(dim):
            for move in (-state.step, 0.5 * state.step):
                if spent >= max_evals_here:
                    return x, f_best, spent
                candidate = float(np.clip(x[d] + move, bounds.lower, bounds.upper))
                if candidate == x[d]:
                    continue
                trial = x.copy()
                trial[d] = candidate
                value = objective.evaluate(trial)
                spent += 1
                if value < f_best:
                    x = trial
                    f_best = value
                    improved_in_sweep = True
                    break
        if not improved_in_sweep:
            state.step *= state.shrink
            if state.step < state.floor:
                state.step = state.restart_fraction * bounds.width
    return x, f_best, spent


class MlshadeSpaSolver:
    """Quota-scheduled hybrid of three DE strategies plus a local phase."""

    def __init__(
        self,
        min_pop: int = 20,
        cycle_generations: int = 25,
        local_fraction: float = 0.1,
        history_size: int = 5,
        p_best_fraction: float = 0.1,
        pool_values=(0.05, 0.5, 0.95),
        pool_period: int = 10,
        triangular_cr: float = 0.9,
        f_low: float = 0.4,
        f_high: float = 0.9,
        group_size_target: int = 100,
        quota_floor: float = 0.1,
    ):
        self.min_pop = min_pop
        self.cycle_generations = cycle_generations
        self.local_fraction = local_fraction
        self.history_size = history_size
        self.p_best_fraction = p_best_fraction
        self.pool_values = tuple(pool_values)
        self.pool_period = pool_period
        self.triangular_cr = triangular_cr
        self.f_low = f_low
        self.f_high = f_high
        self.group_size_target = group_size_target
        self.quota_floor = quota_floor

    @staticmethod
    def quota_weights(rates: np.ndarray, floor: float = 0.1) -> np.ndarray:
        """Evaluation shares per strategy from recent improvement rates.

        Every strategy keeps a floor share; the rest is split in
        proportion to improvement per evaluation from the last cycle.
        With no recorded improvement the shares are equal.
        """
        rates = np.asarray(rates, dtype=float)
        total = rates.sum()
        k = len(rates)
        if total <= 0.0:
            return np.full(k, 1.0 / k)
        return floor + (1.0 - k * floor) * (rates / total)

    # ---- strategy generations ------------------------------------------

    def _masked_trial(self, parent, donor, cr, group, rng):
        sub = binomial_crossover(parent[group], donor[group], cr, rng)
        trial = parent.copy()
        trial[group] = sub
        return trial

    def _history_de_generation(self, pop, fit, group, objective, rng, state):
        history, archive = state
        n_pop = len(pop)
        order = np.argsort(fit, kind="stable")
        top = max(1, int(self.p_best_fraction * n_pop))
        trials = np.empty_like(pop)
        f_used = np.empty(n_pop)
        cr_used = np.empty(n_pop)
        for i in range(n_pop):
            f_scale, cr = history.sample(rng)
            pbest = pop[order[rng.integers(top)]]
            r1 = int(pick_distinct(n_pop, i, 1, rng)[0])
            while True:
                r2 = int(rng.integers(n_pop + len(archive)))
                if r2 != i and r2 != r1:
                    break
            other = pop[r2] if r2 < n_pop else archive[r2 - n_pop]
            donor = pop[i] + f_scale * (pbest - pop[i]) + f_scale * (pop[r1] - other)
            trials[i] = self._masked_trial(pop[i], donor, cr, group, rng)
            f_used[i] = f_scale
            cr_used[i] = cr
        trials = reflect_into_bounds(trials, objective.bounds)
        values = objective.evaluate_batch(trials)
        improved = values < fit
        gained = float(np.sum(np.maximum(fit - values, 0.0)))
        if improved.any():
            for i in np.flatnonzero(improved):
                if len(archive) >= n_pop:
                    archive[rng.integers(len(archive))] = pop[i].copy()
                else:
                    archive.append(pop[i].copy())
            history.update(
                f_used[improved], cr_used[improved], (fit - values)[improved]
            )
            pop[improved] = trials[improved]
            fit[improved] = values[improved]
        return gained

    def _slice_de_generation(self, pop, fit, group, objective, rng, state):
        pool = state
        n_pop = len(pop)
        n_slice = max(1, int(0.1 * n_pop))
        order = np.argsort(fit, kind="stable")
        ranked = pop[order]
        trials = np.empty_like(pop)
        drawn = np.empty(n_pop, dtype=int)
        for i in range(n_pop):
            idx, cr = pool.draw(rng)
            donor = eade_mutation(ranked, n_slice, rng)
            trials[i] = self._masked_trial(pop[i], donor, cr, group, rng)
            drawn[i] = idx
        trials = reflect_into_bounds(trials, objective.bounds)
        values = objective.evaluate_batch(trials)
        improved = values < fit
        gained = float(np.sum(np.maximum(fit - values, 0.0)))
        for i in range(n_pop):
            pool.record(drawn[i], bool(improved[i]))
        pop[improved] = trials[improved]
        fit[improved] = values[improved]
        return gained

    def _triangular_de_generation(self, pop, fit, group, objective, rng, state):
        n_pop = len(pop)
        trials = np.empty_like(pop)
        for i in range(n_pop):
            trio = rng.choice(n_pop, size=3, replace=False)
            best, middle, worst = trio[np.argsort(fit[trio], kind="stable")]
            center = (pop[best] + pop[middle] + pop[worst]) / 3.0
            f_scale = rng.uniform(self.f_low, self.f_high)
            donor = center + f_scale * (pop[best] - pop[worst])
            trials[i] = self._masked_trial(pop[i], donor, self.triangular_cr, group, rng)
        trials = reflect_into_bounds(trials, objective.bounds)
        values = objective.evaluate_batch(trials)
        improved = values < fit
        gained = float(np.sum(np.maximum(fit - values, 0.0)))
        pop[improved] = trials[improved]
        fit[improved] = values[improved]
        return gained

    # ---- main loop ------------------------------------------------------

    def run(
        self,
        objective: TrackedObjective,
        rng: np.random.Generator,
        population_size: int,
    ):
        if population_size < 5:
            raise ValueError("population_size must be at least 5")
        dim = objective.dimension
        bounds = objective.bounds
        objective.population_size = population_size

        pop = init_population(population_size, dim, bounds, rng)
        fit = np.full(population_size, np.inf)
        n_first = min(population_size, objective.remaining)
        if n_first > 0:
            fit[:n_first] = objective.evaluate_batch(pop[:n_first])

        history = SuccessHistory(self.history_size)
        archive: list[np.ndarray] = []
        pool = CrossoverRatePool(self.pool_values)
        local_state = MmtsState(step=0.4 * bounds.width)
        n_groups = max(1, math.ceil(dim / self.group_size_target))
        strategies = (
            (self._history_de_generation, (history, archive)),
            (self._slice_de_generation, pool),
            (self._triangular_de_generation, None),
        )
        rates = np.zeros(len(strategies))

        while objective.remaining > 0:
            partition = random_dimension_grouping(dim, min(n_groups, dim), rng)
            n_pop = len(pop)
            cycle_quota = min(self.cycle_generations * n_pop, objective.remaining)
            ea_quota = cycle_quota - int(round(self.local_fraction * cycle_quota))
            weights = self.quota_weights(rates, self.quota_floor)
            quotas = np.floor(weights * ea_quota).astype(int)

            spent_total = 0
            slice_generations = 0
            for s, (generation, state) in enumerate(strategies):
                spent = 0
                gained = 0.0
                cursor = 0
                while (
                    spent + n_pop <= quotas[s] and objective.remaining >= n_pop
                ):
                    group = partition[cursor % len(partition)]
                    cursor += 1
                    gained += generation(pop, fit, group, objective, rng, state)
                    spent += n_pop
                    if s == 1:
                        slice_generations += 1
                        if slice_generations % self.pool_period == 0:
                            pool.refresh()
                rates[s] = gained / spent if spent else 0.0
                spent_total += spent

            local_budget = min(cycle_quota - spent_total, objective.remaining)
            if local_budget > 0:
                best_i = int(np.argmin(fit))
                x_new, f_new, _ = mmts_local_search(
                    objective, pop[best_i], fit[best_i], local_state, local_budget
                )
                worst_i = int(np.argmax(fit))
                if f_new < fit[worst_i]:
                    pop[worst_i] = x_new
                    fit[worst_i] = f_new

            target = linear_pop_size_reduction(
                objective.budget, population_size, self.min_pop
            )
            if target < len(pop):
                pop, fit = shrink_population(pop, fit, target)
                while len(archive) > target:
                    archive.pop(int(rng.integers(len(archive))))
                objective.population_size = target

        return objective
