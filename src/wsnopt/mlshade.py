"""Hybrid multi-strategy solver with dimension cycling and a local phase.

One shared population is evolved by three differential-evolution variants
that take turns under an adaptive evaluation-quota split: a
success-history DE with external archive, a sorted-slice DE with a
crossover-rate pool, and a triangular DE built on ranked triples.  Each
cycle re-partitions the coordinates at random into near-equal groups and
every generation mutates only one group, so the step behaves like a
coordinate-block search inside the full-dimensional population.  The
cycle ends with a multi-trajectory line search around the best member and
a linear population-size reduction, which does not move the tracker's
penalty clock.  The solver's success-history memory and reduction schedule
live here, with its settings.
"""

from __future__ import annotations

import math

import numpy as np

from .eade import SLICE_FRACTION, CrossoverRatePool, eade_mutation
from .evo import (
    TrackedObjective,
    binomial_crossover,
    init_population,
    pick_distinct,
    reflect_into_bounds,
)

# The solver's published settings.  A cycle spends CYCLE_GENERATIONS
# generations' worth of evaluations, LOCAL_FRACTION of them on the line
# search; each strategy keeps at least QUOTA_FLOOR of the rest.  Each cycle
# mutates the coordinates in random groups of about GROUP_SIZE_TARGET.
CYCLE_GENERATIONS = 25
LOCAL_FRACTION = 0.1
QUOTA_FLOOR = 0.1
GROUP_SIZE_TARGET = 100
# Population size at the end of the linear population-size reduction, and
# so the smallest population the solver starts at.
MIN_POPULATION = 20
# Success-history DE: memory slots, the starting mutation weight and
# crossover rate of every slot, and the p-best fraction.
HISTORY_SIZE = 5
HISTORY_INIT = 0.5
P_BEST_FRACTION = 0.1
# Rank-slice DE: slice generations between crossover-pool refreshes.
POOL_PERIOD = 10
# Triangular DE: crossover rate and the range of its mutation weight.
TRIANGULAR_CR = 0.9
F_LOW, F_HIGH = 0.4, 0.9
# Line search: step shrink per failed sweep, the floor below which the step
# restarts, and the start and restart step as a fraction of the box width.
MMTS_SHRINK = 0.5
MMTS_FLOOR = 1e-8
MMTS_RESTART_FRACTION = 0.4


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


def mmts_local_search(
    objective: TrackedObjective,
    start_x: np.ndarray,
    start_f: float,
    step: float,
    max_evals_here: int,
):
    """Coordinate-wise line search: long step down, half step up.

    Sweeps the coordinates in order, first trying a full step down and
    then half a step up, keeping strict improvements.  A sweep with no
    improvement halves the step; once the step collapses below the floor
    it restarts at a fixed fraction of the box width.  Returns the best
    point found, its value, and the step to start the next search with.
    """
    bounds = objective.bounds
    x = np.asarray(start_x, dtype=float).copy()
    f_best = float(start_f)
    spent = 0
    dim = len(x)
    while spent < max_evals_here:
        improved_in_sweep = False
        for d in range(dim):
            for move in (-step, 0.5 * step):
                if spent >= max_evals_here:
                    return x, f_best, step
                candidate = min(max(float(x[d] + move), bounds.lower), bounds.upper)
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
            step *= MMTS_SHRINK
            if step < MMTS_FLOOR:
                step = MMTS_RESTART_FRACTION * bounds.width
    return x, f_best, step


def quota_weights(rates: np.ndarray) -> np.ndarray:
    """Evaluation shares per strategy from recent improvement rates.

    Every strategy keeps a ``QUOTA_FLOOR`` share; the rest is split in
    proportion to improvement per evaluation from the last cycle.  With no
    recorded improvement the shares are equal.
    """
    rates = np.asarray(rates, dtype=float)
    total = rates.sum()
    k = len(rates)
    if total <= 0.0:
        return np.full(k, 1.0 / k)
    return QUOTA_FLOOR + (1.0 - k * QUOTA_FLOOR) * (rates / total)


def linear_pop_size_reduction(used: int, max_evals: int, n_init: int) -> int:
    """Target population size, shrinking linearly with budget consumption.

    The size falls from ``n_init`` when none of the ``max_evals`` evaluations
    are ``used`` to ``MIN_POPULATION`` when all of them are.
    """
    frac = used / max_evals
    # Round half up so the schedule is platform independent.
    return int(np.floor(n_init - (n_init - MIN_POPULATION) * frac + 0.5))


def shrink_population(
    positions: np.ndarray, fitness: np.ndarray, target: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the worst members until only ``target`` remain (best preserved)."""
    if target >= len(positions):
        return positions, fitness
    keep = np.argsort(fitness, kind="stable")[:target]
    keep.sort()
    return positions[keep], fitness[keep]


class SuccessHistory:
    """Circular success-history memory for DE control parameters.

    Each slot stores a mean mutation weight and crossover rate.  Updates use
    the improvement-weighted Lehmer mean for the mutation weight and the
    improvement-weighted arithmetic mean for the crossover rate; a
    generation with no successes leaves the memory untouched.  The
    ``HISTORY_SIZE`` slots all start at ``HISTORY_INIT``.
    """

    def __init__(self):
        self.f_mean = np.full(HISTORY_SIZE, HISTORY_INIT)
        self.cr_mean = np.full(HISTORY_SIZE, HISTORY_INIT)
        self.cursor = 0

    def update(self, f_values, cr_values, improvements):
        f_values = np.asarray(f_values, dtype=float)
        cr_values = np.asarray(cr_values, dtype=float)
        improvements = np.asarray(improvements, dtype=float)
        if f_values.size == 0:
            return
        total = improvements.sum()
        if total <= 0.0:
            return
        w = improvements / total
        self.f_mean[self.cursor] = np.sum(w * f_values**2) / np.sum(w * f_values)
        self.cr_mean[self.cursor] = np.sum(w * cr_values)
        self.cursor = (self.cursor + 1) % len(self.f_mean)

    def sample(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` (F, CR) pairs, each around a uniformly chosen memory slot.

        F is Cauchy around the slot mean, redrawn while non-positive and
        capped at 1; CR is normal around the slot mean, clipped to [0, 1].
        """
        slot = rng.integers(len(self.f_mean), size=n)
        f = np.zeros(n)
        redraw = np.ones(n, dtype=bool)
        while redraw.any():
            f[redraw] = self.f_mean[slot[redraw]] + 0.1 * rng.standard_cauchy(redraw.sum())
            redraw = f <= 0.0
        cr = np.clip(rng.normal(self.cr_mean[slot], 0.1), 0.0, 1.0)
        return np.minimum(f, 1.0), cr


# ---- strategy generations ------------------------------------------------
#
# Each strategy builds its trial stack on the ``group`` columns of the
# population and returns it with its learning step, which ``_generation``
# calls with the improvement mask and gains before selection replaces any
# parent.


def _history_de_trials(pop, fit, group, rng, state):
    history, archive = state
    n_pop = len(pop)
    sub = pop[:, group]
    f_scale, cr = history.sample(n_pop, rng)
    top = max(1, int(P_BEST_FRACTION * n_pop))
    pbest = sub[np.argsort(fit, kind="stable")[rng.integers(top, size=n_pop)]]
    union = np.vstack([pop, *archive])[:, group]
    r1, r2 = pick_distinct(n_pop, (n_pop, len(union)), rng).T
    f = f_scale[:, None]
    donors = sub + f * (pbest - sub) + f * (sub[r1] - union[r2])

    def learn(improved, gains):
        for i in np.flatnonzero(improved):
            if len(archive) >= n_pop:
                archive[rng.integers(len(archive))] = pop[i].copy()
            else:
                archive.append(pop[i].copy())
        history.update(f_scale[improved], cr[improved], gains[improved])

    return binomial_crossover(sub, donors, cr, rng), learn


def _slice_de_trials(pop, fit, group, rng, pool):
    n_pop = len(pop)
    n_slice = int(SLICE_FRACTION * n_pop)
    sub = pop[:, group]
    drawn, cr = pool.draw(n_pop, rng)
    donors = eade_mutation(sub, np.argsort(fit, kind="stable"), n_slice, n_pop, rng)
    trials = binomial_crossover(sub, donors, cr, rng)
    return trials, lambda improved, gains: pool.record(drawn, improved)


def _triangular_de_trials(pop, fit, group, rng, state):
    n_pop = len(pop)
    sub = pop[:, group]
    # Three distinct members per row, the row's own member allowed.
    trio = np.argsort(rng.random((n_pop, n_pop)), axis=1)[:, :3]
    trio = np.take_along_axis(trio, np.argsort(fit[trio], axis=1, kind="stable"), axis=1)
    best, middle, worst = sub[trio[:, 0]], sub[trio[:, 1]], sub[trio[:, 2]]
    center = (best + middle + worst) / 3.0
    f_scale = rng.uniform(F_LOW, F_HIGH, size=(n_pop, 1))
    donors = center + f_scale * (best - worst)
    trials = binomial_crossover(sub, donors, TRIANGULAR_CR, rng)
    return trials, lambda improved, gains: None


def _generation(strategy, state, pop, fit, group, objective, rng) -> float:
    """One generation of ``strategy`` on ``group``; returns the summed gain.

    Coordinates outside ``group`` keep their parent values, so only the
    group needs reflecting.
    """
    sub_trials, learn = strategy(pop, fit, group, rng, state)
    trials = pop.copy()
    trials[:, group] = reflect_into_bounds(sub_trials, objective.bounds)
    values = objective.evaluate_batch(trials)
    improved = values < fit
    gains = np.maximum(fit - values, 0.0)
    learn(improved, gains)
    pop[improved] = trials[improved]
    fit[improved] = values[improved]
    return float(gains.sum())


# ---- main loop ------------------------------------------------------------


def mlshade_spa(objective: TrackedObjective, rng: np.random.Generator) -> TrackedObjective:
    """Quota-scheduled hybrid of three DE strategies plus a local phase.

    The population starts at the tracker's size.  Each cycle mutates the
    coordinates in random groups of about ``GROUP_SIZE_TARGET``; each
    strategy runs as many whole generations as its quota and the budget
    allow, and the line search spends what is left of the cycle.
    """
    if objective.population_size < MIN_POPULATION:
        raise ValueError(f"population_size must be at least {MIN_POPULATION}")
    dim = objective.dimension
    bounds = objective.bounds
    pop, fit = init_population(objective, rng)

    history = SuccessHistory()
    archive: list[np.ndarray] = []
    pool = CrossoverRatePool()
    local_step = MMTS_RESTART_FRACTION * bounds.width
    n_groups = math.ceil(dim / GROUP_SIZE_TARGET)
    strategies = (
        (_history_de_trials, (history, archive)),
        (_slice_de_trials, pool),
        (_triangular_de_trials, None),
    )
    rates = np.zeros(len(strategies))

    while objective.remaining > 0:
        partition = random_dimension_grouping(dim, n_groups, rng)
        n_pop = len(pop)
        cycle_quota = min(CYCLE_GENERATIONS * n_pop, objective.remaining)
        ea_quota = cycle_quota - int(round(LOCAL_FRACTION * cycle_quota))
        quotas = np.floor(quota_weights(rates) * ea_quota).astype(int)
        cycle_end = objective.evals_used + cycle_quota

        for s, (strategy, state) in enumerate(strategies):
            generations = min(quotas[s], objective.remaining) // n_pop
            gained = 0.0
            for g in range(generations):
                group = partition[g % len(partition)]
                gained += _generation(strategy, state, pop, fit, group, objective, rng)
                if s == 1 and (g + 1) % POOL_PERIOD == 0:
                    pool.refresh()
            rates[s] = gained / (generations * n_pop) if generations else 0.0

        local_budget = cycle_end - objective.evals_used
        if local_budget > 0:
            best_i = int(np.argmin(fit))
            x_new, f_new, local_step = mmts_local_search(
                objective, pop[best_i], fit[best_i], local_step, local_budget
            )
            worst_i = int(np.argmax(fit))
            if f_new < fit[worst_i]:
                pop[worst_i] = x_new
                fit[worst_i] = f_new

        target = linear_pop_size_reduction(
            objective.evals_used, objective.max_evals, objective.population_size
        )
        if target < len(pop):
            pop, fit = shrink_population(pop, fit, target)
            while len(archive) > target:
                archive.pop(int(rng.integers(len(archive))))

    return objective
