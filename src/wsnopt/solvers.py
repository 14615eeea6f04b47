"""Named, ready-to-run optimizer configurations.

Every entry takes the same two arguments (tracked objective, random
generator) and returns that tracked objective, which holds the best points
and the convergence history, so the experiment harness can treat algorithms
as interchangeable.  The tracker is the one owner of the population size:
the population solvers start at it, and it sets the penalty clock.  The two
decomposition-based entries do not use it (their subsolvers size their own
populations), spend part of the budget on structure probes and seed their
context with the tracker's best probe: the cheapest feasible one when any
probe was feasible, else the one with the lowest penalized value.
"""

from __future__ import annotations

import numpy as np

from .cc import ContributionScheduler, RoundRobinScheduler, cc_optimize
from .cmaes import CmaesSubsolver
from .eade import MIN_POPULATION as EADE_MIN_POPULATION
from .eade import eade
from .evo import BudgetExhausted, TrackedObjective
from .grouping import dgsc_group, rdg3_group
from .mlshade import MIN_POPULATION as MLSHADE_MIN_POPULATION
from .mlshade import mlshade_spa
from .sansde import SansdeSubsolver


def _decompose_then_coevolve(objective, rng, group, make_subsolver, scheduler):
    """Decompose by ``group()``, then coevolve from the probes' best point."""
    try:
        groups = group().groups
    except BudgetExhausted:
        return objective
    if objective.remaining <= 0:
        return objective
    return cc_optimize(
        objective, groups, make_subsolver, rng, scheduler, objective.best_x
    )


def solve_cbcc_rdg3(
    objective: TrackedObjective, rng: np.random.Generator
) -> TrackedObjective:
    """Capped recursive grouping, then contribution-guided coevolution."""
    return _decompose_then_coevolve(
        objective, rng, lambda: rdg3_group(objective), CmaesSubsolver,
        ContributionScheduler(),
    )


def solve_dgsc_decc(
    objective: TrackedObjective, rng: np.random.Generator
) -> TrackedObjective:
    """Spectral decomposition, then round-robin coevolution with adaptive DE."""
    return _decompose_then_coevolve(
        objective, rng, lambda: dgsc_group(objective, rng=rng), SansdeSubsolver,
        RoundRobinScheduler(),
    )


SOLVERS = {
    "eade": eade,
    "mlshade-spa": mlshade_spa,
    "cbcc-rdg3": solve_cbcc_rdg3,
    "dgsc-decc": solve_dgsc_decc,
}
# The smallest population each population solver starts at; the other
# entries run at any population of at least 1.
MIN_POPULATION = {"eade": EADE_MIN_POPULATION, "mlshade-spa": MLSHADE_MIN_POPULATION}


def solve(
    name: str, objective: TrackedObjective, rng: np.random.Generator
) -> TrackedObjective:
    """Run the solver registered as ``name`` on ``objective``."""
    try:
        solver = SOLVERS[name]
    except KeyError:
        known = ", ".join(sorted(SOLVERS))
        raise KeyError(f"unknown solver {name!r}; choose one of: {known}") from None
    return solver(objective, rng)
