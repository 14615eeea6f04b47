"""Named, ready-to-run optimizer configurations.

Every entry takes the same three arguments (tracked objective, random
generator, population size) and returns that tracked objective, which holds
the best points and the convergence history, so the experiment harness can
treat algorithms as interchangeable.  The two
decomposition-based entries spend part of the budget on structure probes
and seed their context with the best point those probes happened to see.
"""

from __future__ import annotations

import numpy as np

from .cc import ContributionScheduler, RoundRobinScheduler, cc_optimize
from .cmaes import CmaesSubsolver
from .eade import eade
from .evo import BudgetExhausted, TrackedObjective
from .grouping import dgsc_group, rdg3_group
from .mlshade import mlshade_spa
from .sansde import SansdeSubsolver


def solve_cbcc_rdg3(
    objective: TrackedObjective, rng: np.random.Generator, population_size: int
) -> TrackedObjective:
    """Capped recursive grouping, then contribution-guided coevolution."""
    try:
        decomposition = rdg3_group(objective)
    except BudgetExhausted:
        return objective
    if objective.remaining <= 0:
        return objective
    return cc_optimize(
        objective,
        decomposition.groups,
        CmaesSubsolver,
        scheduler=ContributionScheduler(),
        rng=rng,
        initial=objective.best_x,
        population_size=population_size,
    )


def solve_dgsc_decc(
    objective: TrackedObjective, rng: np.random.Generator, population_size: int
) -> TrackedObjective:
    """Spectral decomposition, then round-robin coevolution with adaptive DE."""
    try:
        decomposition = dgsc_group(objective, rng=rng)
    except BudgetExhausted:
        return objective
    if objective.remaining <= 0:
        return objective
    return cc_optimize(
        objective,
        decomposition.groups,
        SansdeSubsolver,
        scheduler=RoundRobinScheduler(),
        rng=rng,
        initial=objective.best_x,
        population_size=population_size,
    )


SOLVERS = {
    "eade": eade,
    "mlshade-spa": mlshade_spa,
    "cbcc-rdg3": solve_cbcc_rdg3,
    "dgsc-decc": solve_dgsc_decc,
}


def solve(
    name: str,
    objective: TrackedObjective,
    rng: np.random.Generator,
    population_size: int,
) -> TrackedObjective:
    """Run the solver registered as ``name`` on ``objective``."""
    try:
        solver = SOLVERS[name]
    except KeyError:
        known = ", ".join(sorted(SOLVERS))
        raise KeyError(f"unknown solver {name!r}; choose one of: {known}") from None
    return solver(objective, rng, population_size)
