"""Cooperative coevolution over a decomposed decision vector.

A shared context vector holds the current best full solution.  Each group
of variables gets a subproblem view that splices candidate sub-vectors
into the context for evaluation and commits them when they improve the
context fitness.  ``cc_optimize`` gives each subsolver step to the groups in
turn or, greedily, to the group whose last step lowered the fitness most.
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
        self.dimension = len(self.indices)
        self.bounds = objective.bounds

    @property
    def remaining(self) -> int:
        return self.objective.remaining

    def current(self) -> np.ndarray:
        return self.context.values[self.indices]

    def evaluate_batch(self, sub_points: np.ndarray) -> np.ndarray:
        """Evaluate sub-vectors spliced into the context and commit the best.

        The lowest row (the first, on a tie) replaces the context's group
        when it is strictly below the context fitness.
        """
        full = np.empty((len(sub_points), len(self.context.values)))
        full[:] = self.context.values
        full[:, self.indices] = sub_points
        values = self.objective.evaluate_batch(full)
        if len(values):
            best = values.argmin()
            if values[best] < self.context.fitness:
                self.context.values[self.indices] = sub_points[best]
                self.context.fitness = float(values[best])
        return values


def cc_optimize(
    objective: TrackedObjective,
    groups,
    make_subsolver,
    rng: np.random.Generator,
    greedy: bool,
    initial: np.ndarray,
):
    """Run cooperative coevolution until the evaluation budget is spent.

    ``make_subsolver`` (a subsolver class such as ``CmaesSubsolver`` or
    ``SansdeSubsolver``) is called once per group with that group's view and
    must return an object whose ``step(rng)`` advances the subproblem by
    one internal iteration, spending budget through the view.  The groups
    take turns in index order.  With ``greedy`` (contribution-based
    coevolution), once every group has had a turn the step goes instead to
    the group whose latest step lowered the context fitness most; a group's
    drop is overwritten by each of its steps, and while every drop is zero
    the turns go on where they stopped.  ``initial`` seeds the context; it is
    copied and re-evaluated here.  The penalty clock is the tracker's,
    whatever the subsolvers' generation sizes.
    """
    initial = np.asarray(initial, dtype=float).copy()
    context = ContextVector(initial, objective.evaluate(initial))

    subsolvers = [make_subsolver(SubproblemView(objective, context, group))
                  for group in groups]
    drops = np.zeros(len(groups))
    turn = 0
    while objective.remaining > 0:
        if greedy and turn >= len(groups) and drops.max() > 0.0:
            group = int(np.argmax(drops))
        else:
            group = turn % len(groups)
            turn += 1
        before = context.fitness
        subsolvers[group].step(rng)
        drops[group] = max(0.0, before - context.fitness)
    return objective
