"""Shared machinery for the population solvers.

Populations are plain ``(NP, D)`` arrays of positions with a parallel fitness
vector, matching the numpy-first style of the rest of the package.  The
pieces here are the ones two or more solvers share: bounded uniform
initialization, whole-population donor-index draws and binomial crossover,
reflection bound repair, and a tracker that owns the evaluation budget, the
penalty clock and the convergence history.  What one solver alone uses, its
settings included, lives in that solver's module.
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


class FunctionProblem:
    """Adapter that turns a plain function into an evaluatable problem.

    ``fn`` maps one position to a float and is called once per row.  The
    penalty iteration is accepted and ignored, so static test functions and
    the dynamic sensor-network objective share one interface; no row is
    feasible, and each row's value is also its power.
    """

    def __init__(self, fn, dimension: int, bounds: Bounds):
        self.fn = fn
        self.dimension = int(dimension)
        self.bounds = bounds

    def batch(self, X: np.ndarray, iterations: np.ndarray):
        values = np.array([self.fn(row) for row in X], dtype=float)
        return values, np.zeros(len(values), dtype=bool), values


class TrackedObjective:
    """Budget-enforcing evaluator that owns the best-so-far history.

    Every evaluation, including decomposition probes, passes through this
    wrapper and is charged to one budget of ``max_evals``; ``evals_used``
    counts what is spent.  The wrapper is also the only penalty clock: the
    iteration of the ``k``-th evaluation (1-based) is
    ``ceil(k / population_size)``, with the period fixed when the tracker is
    built, whatever population a solver runs or shrinks to.  Probes pin the
    iteration to 1, which keeps structure detection consistent regardless of
    when it runs.  Solvers only read these fields, and every solver returns
    the tracker itself as its result.

    The one best-so-far (``best_x``, ``best_f``, ``best_feasible`` and
    ``best_power``, the power of ``best_x``) follows Deb's feasibility rules:
    a feasible row beats any infeasible one, and within a class the lower
    value wins.  A feasible best's ``best_f`` is its ``best_power``, and
    ``improvements`` holds ``(evaluation, best_f)`` at every change of it.
    """

    def __init__(self, problem, max_evals: int, population_size: int = 1):
        if max_evals < 1:
            raise ValueError("max_evals must be positive")
        if population_size < 1:
            raise ValueError("population_size must be positive")
        self.problem = problem
        self.max_evals = int(max_evals)
        self.evals_used = 0
        self.population_size = int(population_size)
        self.best_x: np.ndarray | None = None
        self.best_f = np.inf
        self.best_feasible = False
        self.best_power = np.inf
        self.improvements: list[tuple[int, float]] = []

    @property
    def dimension(self) -> int:
        return self.problem.dimension

    @property
    def bounds(self) -> Bounds:
        return self.problem.bounds

    @property
    def remaining(self) -> int:
        return self.max_evals - self.evals_used

    @property
    def best_feasible_x(self) -> np.ndarray | None:
        return self.best_x if self.best_feasible else None

    def _record(self, X: np.ndarray, values: np.ndarray, feasible, powers, start: int):
        # A row can take over only if it beats the batch's starting best; the
        # loop applies the rule to those in order.
        if len(values) == 1:
            rows = (0,)
        elif self.best_feasible:
            rows = np.flatnonzero(feasible & (values < self.best_f))
        else:
            rows = np.flatnonzero(feasible | (values < self.best_f))
        for k in rows:
            if feasible[k] > self.best_feasible or (
                feasible[k] == self.best_feasible and values[k] < self.best_f
            ):
                self.best_f = float(values[k])
                self.best_x = X[k].copy()
                self.best_feasible = bool(feasible[k])
                self.best_power = float(powers[k])
                self.improvements.append((start + k + 1, self.best_f))

    def _evaluate(self, X: np.ndarray, pinned: bool) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = len(X)
        if n > self.remaining:
            raise BudgetExhausted(
                f"requested {n} evaluations with only {self.remaining} remaining"
            )
        start = self.evals_used
        self.evals_used += n
        if pinned:
            iterations = np.ones(n)
        elif n == 1:
            iterations = np.array([-(-(start + 1) // self.population_size)], dtype=float)
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


def init_population(
    objective: TrackedObjective, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random first population at the tracker's size, and its fitness.

    The first ``min(n, remaining)`` rows are evaluated; any rest stays at
    ``inf``.
    """
    n_pop = objective.population_size
    bounds = objective.bounds
    pop = rng.uniform(bounds.lower, bounds.upper, size=(n_pop, objective.dimension))
    fit = np.full(n_pop, np.inf)
    n_first = min(n_pop, objective.remaining)
    fit[:n_first] = objective.evaluate_batch(pop[:n_first])
    return pop, fit


def pick_distinct(n_rows: int, pools, rng: np.random.Generator) -> np.ndarray:
    """One ``(n_rows, len(pools))`` draw of donor indices.

    Column ``k`` is uniform over ``range(pools[k])`` minus the row's own index
    and the row's earlier columns, so each row holds distinct indices that
    differ from the row.  ``pools`` must not decrease, ``pools[0]`` must be
    at least ``n_rows``, and ``pools[k]`` must exceed ``k + 1``.
    """
    taken = np.arange(n_rows)[:, None]
    for size in pools:
        raw = rng.integers(size - taken.shape[1], size=n_rows)
        # Step over every excluded index at or below the draw, smallest first.
        for excluded in np.sort(taken, axis=1).T:
            raw += raw >= excluded
        taken = np.column_stack([taken, raw])
    return taken[:, 1:]


def binomial_crossover(
    parents: np.ndarray, donors: np.ndarray, cr, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise binomial crossover of ``(n, d)`` stacks at per-row rates ``cr``.

    Each row also takes one forced coordinate, drawn uniformly, from its donor.
    """
    n, d = parents.shape
    mask = rng.random((n, d)) < np.asarray(cr, dtype=float)[..., None]
    mask[np.arange(n), rng.integers(d, size=n)] = True
    return np.where(mask, donors, parents)


def reflect_into_bounds(x: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Mirror out-of-bounds coordinates at the violated face, then clamp.

    A coordinate below the lower face maps to ``2*lower - x`` and one above
    the upper face to ``2*upper - x``; anything still outside after one
    reflection is clamped to the nearer face.  The float array ``x`` is
    repaired in place and returned; both faces' masks are taken before
    either reflection, so no coordinate is reflected twice.
    """
    low, high = bounds.lower, bounds.upper
    below, above = x < low, x > high
    np.subtract(2.0 * low, x, out=x, where=below)
    np.subtract(2.0 * high, x, out=x, where=above)
    return np.clip(x, low, high, out=x)
