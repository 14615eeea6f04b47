"""Shared machinery for the population solvers.

Populations are plain ``(NP, D)`` arrays of positions with a parallel fitness
vector, matching the numpy-first style of the rest of the package.  The
pieces here are the ones every solver needs: bounded uniform initialization,
the classic DE/rand/1/bin trial builder, reflection bound repair, linear
population-size reduction, success-history parameter memory, and a budget
tracker that owns the convergence history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Bounds:
    """Closed box bounds, identical in every coordinate."""

    lower: float = 0.0
    upper: float = 15.0

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("lower bound must be below upper bound")

    @property
    def width(self) -> float:
        return self.upper - self.lower


class BudgetExhausted(RuntimeError):
    """Raised when an evaluation is requested past the allowed budget."""


class EvalBudget:
    """Counts objective evaluations against a hard ceiling."""

    def __init__(self, max_evals: int):
        if max_evals < 1:
            raise ValueError("max_evals must be positive")
        self.max_evals = int(max_evals)
        self.used = 0

    @property
    def remaining(self) -> int:
        return self.max_evals - self.used

    def spend(self, n: int):
        if n > self.remaining:
            raise BudgetExhausted(
                f"requested {n} evaluations with only {self.remaining} remaining"
            )
        self.used += n


class FunctionProblem:
    """Adapter that turns a plain function into an evaluatable problem.

    ``fn`` maps one position to a float; ``batch_fn``, when given, maps an
    ``(N, D)`` stack to a length-``N`` vector and is preferred for speed.
    The penalty iteration is accepted and ignored, so static test functions
    and the dynamic sensor-network objective share one interface.
    """

    def __init__(self, fn, dimension: int, bounds: Bounds, batch_fn=None):
        self.fn = fn
        self.dimension = int(dimension)
        self.bounds = bounds
        self.batch_fn = batch_fn

    def batch(self, X: np.ndarray, iterations: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.batch_fn is not None:
            values = np.asarray(self.batch_fn(X), dtype=float)
        else:
            values = np.array([self.fn(row) for row in X], dtype=float)
        return values, None, None


class TrackedObjective:
    """Budget-enforcing evaluator that owns the best-so-far history.

    Every evaluation, including decomposition probes, passes through this
    wrapper and is charged to one shared budget.  The wrapper derives the
    penalty iteration for each call as ``ceil(k / population_size)`` where
    ``k`` is the 1-based index of the evaluation, so solvers only need to
    keep ``population_size`` current.  Probes pin the iteration to 1, which
    keeps structure detection consistent regardless of when it runs.  Every
    solver returns the tracker itself as its result.
    """

    def __init__(self, problem, max_evals: int, population_size: int = 1):
        self.problem = problem
        self.budget = EvalBudget(max_evals)
        self.population_size = max(1, int(population_size))
        self.best_x: np.ndarray | None = None
        self.best_f = np.inf
        self.best_feasible_x: np.ndarray | None = None
        self.best_feasible_power = np.inf
        self.improvements: list[tuple[int, float]] = []

    @property
    def dimension(self) -> int:
        return self.problem.dimension

    @property
    def bounds(self) -> Bounds:
        return self.problem.bounds

    @property
    def remaining(self) -> int:
        return self.budget.remaining

    def _record(self, X: np.ndarray, values: np.ndarray, feasible, powers, start: int):
        better = values < self.best_f
        if np.any(better):
            running = np.minimum.accumulate(values)
            for k in np.flatnonzero(better & (values == running)):
                if values[k] < self.best_f:
                    self.best_f = float(values[k])
                    self.best_x = X[k].copy()
                    self.improvements.append((start + k + 1, self.best_f))
        if feasible is not None and np.any(feasible):
            idx = np.flatnonzero(feasible)
            k = idx[np.argmin(powers[idx])]
            if powers[k] < self.best_feasible_power:
                self.best_feasible_power = float(powers[k])
                self.best_feasible_x = X[k].copy()

    def _evaluate(self, X: np.ndarray, pinned: bool) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = len(X)
        if n == 0:
            return np.empty(0)
        start = self.budget.used
        self.budget.spend(n)
        if pinned:
            iterations = np.ones(n)
        else:
            iterations = np.ceil((start + 1 + np.arange(n)) / self.population_size)
        values, feasible, powers = self.problem.batch(X, iterations)
        self._record(X, values, feasible, powers, start)
        return values

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return self._evaluate(X, pinned=False)

    def evaluate(self, x: np.ndarray) -> float:
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[None, :])[0])

    def probe_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate with the penalty iteration pinned to 1 (structure probes)."""
        return self._evaluate(X, pinned=True)

    def probe(self, x: np.ndarray) -> float:
        return float(self.probe_batch(np.asarray(x, dtype=float)[None, :])[0])

    @property
    def evals_used(self) -> int:
        return self.budget.used

    @property
    def solution(self) -> np.ndarray | None:
        """Best point found, preferring feasible points when any were seen."""
        if self.best_feasible_x is not None:
            return self.best_feasible_x
        return self.best_x


def init_population(
    n_pop: int, dimension: int, bounds: Bounds, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random population of shape ``(n_pop, dimension)``."""
    if n_pop < 4:
        raise ValueError("population size must be at least 4")
    return rng.uniform(bounds.lower, bounds.upper, size=(n_pop, dimension))


def pick_distinct(
    n_pop: int, exclude: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices drawn without replacement from ``range(n_pop)`` minus ``exclude``."""
    raw = rng.choice(n_pop - 1, size=count, replace=False)
    return np.where(raw >= exclude, raw + 1, raw)


def binomial_crossover(
    parent: np.ndarray, donor: np.ndarray, cr: float, rng: np.random.Generator
) -> np.ndarray:
    """Binomial crossover with one forced donor coordinate."""
    d = len(parent)
    mask = rng.random(d) < cr
    mask[rng.integers(d)] = True
    return np.where(mask, donor, parent)


def de_rand_1_bin(
    population: np.ndarray,
    target_index: int,
    f_weight: float,
    cr: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Classic DE/rand/1 donor with binomial crossover against the target."""
    n_pop = len(population)
    if n_pop < 4:
        raise ValueError("DE/rand/1 needs at least 4 members")
    r1, r2, r3 = pick_distinct(n_pop, target_index, 3, rng)
    donor = population[r1] + f_weight * (population[r2] - population[r3])
    return binomial_crossover(population[target_index], donor, cr, rng)


def reflect_into_bounds(position: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Mirror out-of-bounds coordinates at the violated face, then clamp.

    A coordinate below the lower face maps to ``2*lower - x`` and one above
    the upper face to ``2*upper - x``; anything still outside after one
    reflection is clamped to the nearer face.
    """
    x = np.asarray(position, dtype=float)
    low, high = bounds.lower, bounds.upper
    below = x < low
    above = x > high
    x = x.copy()
    x[below] = 2.0 * low - x[below]
    x[above] = 2.0 * high - x[above]
    return np.clip(x, low, high)


def linear_pop_size_reduction(budget: EvalBudget, n_init: int, n_min: int = 20) -> int:
    """Target population size, shrinking linearly with budget consumption."""
    if n_min > n_init:
        raise ValueError("n_min cannot exceed n_init")
    frac = budget.used / budget.max_evals
    # Round half up so the schedule is platform independent.
    return int(np.floor(n_init - (n_init - n_min) * frac + 0.5))


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
    generation with no successes leaves the memory untouched.
    """

    def __init__(self, size: int = 5, init: float = 0.5):
        if size < 1:
            raise ValueError("memory size must be positive")
        self.f_mean = np.full(size, init)
        self.cr_mean = np.full(size, init)
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

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        """Draw an (F, CR) pair around a uniformly chosen memory slot."""
        slot = rng.integers(len(self.f_mean))
        f = 0.0
        while f <= 0.0:
            f = self.f_mean[slot] + 0.1 * rng.standard_cauchy()
        f = min(f, 1.0)
        cr = float(np.clip(rng.normal(self.cr_mean[slot], 0.1), 0.0, 1.0))
        return float(f), cr
