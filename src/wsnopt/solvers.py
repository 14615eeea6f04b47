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
from .cmaes import make_cmaes_subsolver
from .eade import EadeSolver
from .evo import BudgetExhausted, TrackedObjective
from .grouping import dgsc_group, rdg3_group
from .mlshade import MlshadeSpaSolver
from .sansde import make_sansde_subsolver


def solve_eade(
    objective: TrackedObjective, rng: np.random.Generator, population_size: int
) -> TrackedObjective:
    return EadeSolver().run(objective, rng, population_size)


def solve_mlshade_spa(
    objective: TrackedObjective, rng: np.random.Generator, population_size: int
) -> TrackedObjective:
    return MlshadeSpaSolver().run(objective, rng, population_size)


def solve_cbcc_rdg3(
    objective: TrackedObjective, rng: np.random.Generator, population_size: int
) -> TrackedObjective:
    """Capped recursive grouping, then contribution-guided coevolution."""
    try:
        decomposition = rdg3_group(objective, size_cap=50, separable_pack=100)
    except BudgetExhausted:
        return objective
    if objective.remaining <= 0:
        return objective
    return cc_optimize(
        objective,
        decomposition.groups,
        make_cmaes_subsolver,
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
        make_sansde_subsolver,
        scheduler=RoundRobinScheduler(),
        rng=rng,
        initial=objective.best_x,
        population_size=population_size,
    )


SOLVERS = {
    "eade": solve_eade,
    "mlshade-spa": solve_mlshade_spa,
    "cbcc-rdg3": solve_cbcc_rdg3,
    "dgsc-decc": solve_dgsc_decc,
}


def get_solver(name: str):
    try:
        return SOLVERS[name]
    except KeyError:
        known = ", ".join(sorted(SOLVERS))
        raise KeyError(f"unknown solver {name!r}; choose one of: {known}") from None


def solve(
    name: str,
    objective: TrackedObjective,
    rng: np.random.Generator,
    population_size: int,
) -> TrackedObjective:
    return get_solver(name)(objective, rng, population_size)
