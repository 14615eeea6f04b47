"""Cooperative coevolution over a decomposed decision vector.

A shared context vector holds the current best full solution.  Each group
of variables gets a subproblem view that splices candidate sub-vectors
into the context for evaluation and commits them when they improve the
context fitness.  A scheduler decides which group the next subsolver step
goes to; round-robin and contribution-greedy schedulers are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evo import TrackedObjective


@dataclass
class ContextVector:
    """Current best full solution shared by all subproblems."""

    values: np.ndarray
    fitness: float


class SubproblemView:
    """One variable group's window onto the shared context."""

    def __init__(self, objective: TrackedObjective, context: ContextVector, indices):
        self.objective = objective
        self.context = context
        self.indices = np.asarray(indices, dtype=int)

    @property
    def dimension(self) -> int:
        return len(self.indices)

    @property
    def bounds(self):
        return self.objective.bounds

    @property
    def remaining(self) -> int:
        return self.objective.remaining

    def current(self) -> np.ndarray:
        return self.context.values[self.indices].copy()

    def evaluate_batch(self, sub_points: np.ndarray) -> np.ndarray:
        """Evaluate sub-vectors spliced into the context and commit the best.

        The lowest row (the first, on a tie) replaces the context's group
        when it is strictly below the context fitness.
        """
        sub_points = np.atleast_2d(np.asarray(sub_points, dtype=float))
        full = np.repeat(self.context.values[None, :], len(sub_points), axis=0)
        full[:, self.indices] = sub_points
        values = self.objective.evaluate_batch(full)
        if len(values):
            best = int(np.argmin(values))
            if values[best] < self.context.fitness:
                self.context.values[self.indices] = sub_points[best]
                self.context.fitness = float(values[best])
        return values


class RoundRobinScheduler:
    """Cycle through the groups in index order."""

    def __init__(self):
        self._step = 0

    def pick(self, n_groups: int) -> int:
        group = self._step % n_groups
        self._step += 1
        return group

    def record(self, group: int, drop: float):
        pass


class ContributionScheduler:
    """Greedy contribution-based selection after one warm-up pass.

    Every group is stepped once in order to seed its contribution, then the
    group whose most recent step improved the context fitness the most is
    chosen again.  A group's stored contribution is overwritten by its
    latest improvement, so a stalled group quickly loses its claim.  When
    every contribution has decayed to zero the scheduler falls back to
    cycling, which restarts exploration instead of hammering group 0.
    """

    def __init__(self):
        self.contributions: np.ndarray | None = None
        self._warmup = 0
        self._fallback = 0

    def pick(self, n_groups: int) -> int:
        if self.contributions is None:
            self.contributions = np.zeros(n_groups)
        if self._warmup < n_groups:
            group = self._warmup
            self._warmup += 1
            return group
        if self.contributions.max() > 0.0:
            return int(np.argmax(self.contributions))
        group = self._fallback % n_groups
        self._fallback += 1
        return group

    def record(self, group: int, drop: float):
        if self.contributions is not None:
            self.contributions[group] = drop


def cc_optimize(
    objective: TrackedObjective,
    groups,
    make_subsolver,
    rng: np.random.Generator,
    scheduler=None,
    initial: np.ndarray | None = None,
):
    """Run cooperative coevolution until the evaluation budget is spent.

    ``make_subsolver`` (a subsolver class such as ``CmaesSubsolver`` or
    ``SansdeSubsolver``) is called once per group with that group's view and
    must return an object whose ``step(rng)`` advances the subproblem by
    one internal iteration, spending budget through the view.  ``initial``
    seeds the context (it is re-evaluated here); by default a uniform
    random point is drawn.  The penalty clock is the tracker's, whatever
    the subsolvers' generation sizes.
    """
    scheduler = scheduler if scheduler is not None else RoundRobinScheduler()
    bounds = objective.bounds

    if initial is None:
        initial = rng.uniform(bounds.lower, bounds.upper, objective.dimension)
    initial = np.asarray(initial, dtype=float).copy()
    fitness = objective.evaluate(initial)
    context = ContextVector(initial, fitness)

    views = [SubproblemView(objective, context, group) for group in groups]
    subsolvers = [make_subsolver(view) for view in views]

    while objective.remaining > 0:
        group = scheduler.pick(len(groups))
        before = context.fitness
        subsolvers[group].step(rng)
        scheduler.record(group, max(0.0, before - context.fitness))
    return objective
