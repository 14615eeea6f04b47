"""Tests for cooperative coevolution and its subproblem solvers."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from wsnopt import sansde
from wsnopt.cc import ContextVector, SubproblemView, cc_optimize
from wsnopt.cmaes import CmaesSubsolver
from wsnopt.evo import Bounds, FunctionProblem, TrackedObjective
from wsnopt.sansde import (
    SansdeSubsolver,
    strategy_success_probability,
    weighted_crossover_mean,
)


def sphere(x):
    return float(np.sum(x * x))


def shifted_quadratic(x):
    return float(np.sum((x - 3.0) ** 2))


def make_objective(fn, dim, bounds, max_evals):
    return TrackedObjective(FunctionProblem(fn, dim, bounds), max_evals)


def random_start(obj, rng):
    return rng.uniform(obj.bounds.lower, obj.bounds.upper, obj.dimension)


def rotated_ellipsoid_objective(dim, condition, max_evals):
    """Ellipsoid with axis scales 1..condition in a random rotated basis."""
    rotation, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((dim, dim)))
    scales = condition ** (np.arange(dim) / (dim - 1))

    def batch(X):
        return ((X @ rotation.T) ** 2) @ scales

    problem = FunctionProblem(lambda x: float(batch(x[None, :])[0]), dim, Bounds(-5.0, 5.0))
    return TrackedObjective(problem, max_evals)


class TestSubproblemView:
    def make_view(self, indices, max_evals=100):
        obj = make_objective(shifted_quadratic, 3, Bounds(0.0, 15.0), max_evals)
        context = ContextVector(np.zeros(3), 27.0)
        return obj, context, SubproblemView(obj, context, indices)

    def test_evaluates_spliced_vector(self):
        obj, context, view = self.make_view([2])
        value = view.evaluate_batch(np.array([[3.0]]))[0]
        assert value == pytest.approx(18.0)
        assert obj.evals_used == 1
        # a row strictly below the context fitness is committed
        assert context.fitness == value
        np.testing.assert_array_equal(context.values, [0.0, 0.0, 3.0])

    def test_commit_requires_strict_improvement(self):
        # f = 18 + (x2 - 3)^2 along the group, so x2 = 2 and x2 = 4 tie at 19
        _, context, view = self.make_view([2])
        view.evaluate_batch(np.array([[2.0]]))
        np.testing.assert_array_equal(context.values, [0.0, 0.0, 2.0])
        values = view.evaluate_batch(np.array([[4.0], [6.0]]))
        np.testing.assert_allclose(values, [19.0, 27.0])
        assert context.fitness == 19.0
        np.testing.assert_array_equal(context.values, [0.0, 0.0, 2.0])

    def test_tie_commits_first_row_and_empty_batch_commits_nothing(self):
        obj, context, view = self.make_view([2])
        view.evaluate_batch(np.array([[6.0], [4.0], [2.0], [5.0]]))
        assert context.fitness == 19.0
        np.testing.assert_array_equal(context.values, [0.0, 0.0, 4.0])
        values = view.evaluate_batch(np.empty((0, 1)))
        assert values.shape == (0,)
        assert obj.evals_used == 4
        assert context.fitness == 19.0
        np.testing.assert_array_equal(context.values, [0.0, 0.0, 4.0])

    def test_current_returns_a_copy(self):
        _, context, view = self.make_view([0, 1])
        sub = view.current()
        sub[0] = 99.0
        assert context.values[0] == 0.0


class TestCmaesSubsolver:
    def test_population_size_rule(self):
        obj = make_objective(sphere, 5, Bounds(-5.0, 5.0), 100)
        context = ContextVector(np.ones(5), 5.0)
        solver = CmaesSubsolver(SubproblemView(obj, context, range(5)))
        assert solver.lam == 8
        assert solver.mu == 4
        assert solver.weights.sum() == pytest.approx(1.0)

    def test_sphere_convergence(self):
        obj = make_objective(sphere, 5, Bounds(-5.0, 5.0), 6000)
        rng = np.random.default_rng(11)
        result = cc_optimize(
            obj, [np.arange(5)], CmaesSubsolver, rng, False,
            random_start(obj, rng),
        )
        assert result.best_f < 1e-8
        assert obj.evals_used == 6000
        assert sphere(result.best_x) == pytest.approx(result.best_f)

    def test_budget_truncated_generation_skips_update(self):
        obj = make_objective(sphere, 5, Bounds(-5.0, 5.0), 3)
        context = ContextVector(np.ones(5), 5.0)
        view = SubproblemView(obj, context, range(5))
        solver = CmaesSubsolver(view)
        mean_before = solver.mean.copy()
        sigma_before = solver.sigma
        solver.step(np.random.default_rng(0))
        assert obj.evals_used == 3
        np.testing.assert_array_equal(solver.mean, mean_before)
        assert solver.sigma == sigma_before

    def test_reset_restores_isotropic_state(self):
        obj = make_objective(sphere, 4, Bounds(-5.0, 5.0), 100)
        context = ContextVector(np.ones(4), 4.0)
        solver = CmaesSubsolver(SubproblemView(obj, context, range(4)))
        solver.cov = -np.eye(4)
        solver.step(np.random.default_rng(0))
        assert obj.remaining > 0
        assert solver.resets == 1
        assert solver.sigma == solver.sigma0
        np.testing.assert_array_equal(solver.cov, np.eye(4))
        assert np.all(np.isfinite(solver.mean))

    def test_factor_is_the_cholesky_factor_of_the_covariance(self):
        n = 8
        obj = rotated_ellipsoid_objective(n, 1e4, 10_000)
        context = ContextVector(np.full(n, 2.0), obj.evaluate(np.full(n, 2.0)))
        solver = CmaesSubsolver(SubproblemView(obj, context, range(n)))
        rng = np.random.default_rng(5)
        for _ in range(50):
            solver.step(rng)
        assert solver.resets == 0
        factor, cov = solver.factor, solver.cov
        assert not np.allclose(cov, np.eye(n))
        np.testing.assert_array_equal(factor, np.tril(factor))
        assert np.all(np.diag(factor) > 0.0)
        residual = np.tril(factor @ factor.T - cov)
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(np.tril(cov))
        y = rng.standard_normal(n)
        whitened = solve_triangular(factor, y, lower=True)
        assert whitened @ whitened == pytest.approx(y @ np.linalg.solve(cov, y), rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotated_ellipsoid_convergence(self, seed):
        # Reaching 1e-8 at condition 1e4 needs a correctly whitened step-size path.
        obj = rotated_ellipsoid_objective(10, 1e4, 20_000)
        rng = np.random.default_rng(seed)
        result = cc_optimize(
            obj, [np.arange(10)], CmaesSubsolver, rng, False,
            random_start(obj, rng),
        )
        assert result.best_f < 1e-8


class TestSansdeSubsolver:
    @pytest.mark.parametrize(
        "counts, expected",
        [
            ((10, 0, 0, 10), 0.95),
            ((0, 10, 10, 0), 0.05),
            ((0, 0, 0, 0), 0.5),
            ((5, 5, 5, 5), 0.5),
        ],
    )
    def test_strategy_probability(self, counts, expected):
        assert strategy_success_probability(*counts) == pytest.approx(expected)

    def test_weighted_crossover_mean(self):
        assert weighted_crossover_mean([0.2, 0.8], [1.0, 3.0]) == pytest.approx(0.65)
        assert weighted_crossover_mean([], []) == 0.5
        assert weighted_crossover_mean([0.4], [0.0]) == 0.5

    def test_lazy_initialization_costs_one_subpopulation(self):
        obj = make_objective(shifted_quadratic, 3, Bounds(0.0, 15.0), 1000)
        context = ContextVector(np.full(3, 7.0), shifted_quadratic(np.full(3, 7.0)))
        view = SubproblemView(obj, context, [0, 1])
        solver = SansdeSubsolver(view)
        solver.step(np.random.default_rng(0))
        assert obj.evals_used == 30
        np.testing.assert_array_equal(solver.positions[0], [7.0, 7.0])

    def test_adaptation_counters_reset(self, monkeypatch):
        monkeypatch.setattr(sansde, "STRATEGY_PERIOD", 1)
        monkeypatch.setattr(sansde, "CR_PERIOD", 1)
        obj = make_objective(shifted_quadratic, 3, Bounds(0.0, 15.0), 1000)
        context = ContextVector(np.full(3, 7.0), shifted_quadratic(np.full(3, 7.0)))
        view = SubproblemView(obj, context, [0, 1])
        solver = SansdeSubsolver(view)
        rng = np.random.default_rng(1)
        solver.step(rng)
        solver.step(rng)
        assert solver._strategy_counts.sum() == 0
        assert solver._fscale_counts.sum() == 0
        assert solver._cr_successes == []
        assert 0.05 <= solver.p_strategy <= 0.95
        assert 0.0 <= solver.cr_mean <= 1.0

    def test_single_variable_groups_converge(self):
        obj = make_objective(shifted_quadratic, 4, Bounds(0.0, 15.0), 8000)
        rng = np.random.default_rng(5)
        result = cc_optimize(
            obj, [[0], [1], [2], [3]], SansdeSubsolver, rng, False,
            random_start(obj, rng),
        )
        assert result.best_f < 1e-6
        assert obj.evals_used == 8000


class TestCcOptimize:
    def test_zero_step_run_returns_the_seed_point(self):
        obj = make_objective(shifted_quadratic, 3, Bounds(0.0, 15.0), 1)
        seed_point = np.array([5.0, 5.0, 5.0])
        result = cc_optimize(
            obj, [[0, 1], [2]], CmaesSubsolver, np.random.default_rng(0),
            False, seed_point,
        )
        np.testing.assert_array_equal(result.best_x, seed_point)
        assert result.best_f == pytest.approx(shifted_quadratic(seed_point))

    @pytest.mark.parametrize(
        "greedy, drops, order",
        [
            # warm-up, greedy on the largest latest drop, then turns from
            # group 0 once every drop is zero, greedy again on a new drop
            (True, [5, 1, 0, 0, 0, 0, 2, 0], [0, 1, 2, 0, 1, 0, 1, 1]),
            (False, [5, 1, 3, 2, 4, 1], [0, 1, 2, 0, 1, 2]),
        ],
        ids=["greedy", "in-turn"],
    )
    def test_turn_order(self, greedy, drops, order):
        picked = []
        script = iter(drops)

        class Scripted:
            """One evaluation per step, then a scripted fitness drop."""

            def __init__(self, view):
                self.view = view
                self.group = int(view.indices[0])

            def step(self, rng):
                picked.append(self.group)
                self.view.objective.evaluate_batch(self.view.context.values[None, :])
                self.view.context.fitness -= next(script)

        obj = make_objective(sphere, 3, Bounds(-5.0, 5.0), 1 + len(order))
        cc_optimize(obj, [[0], [1], [2]], Scripted, np.random.default_rng(0),
                    greedy, np.ones(3))
        assert picked == order

    def test_contribution_scheduler_with_mixed_groups(self):
        def coupled(x):
            return float(x[0] * x[1] + (x[2] - 3.0) ** 2)

        obj = make_objective(coupled, 3, Bounds(0.0, 15.0), 4000)
        rng = np.random.default_rng(3)
        result = cc_optimize(
            obj, [[0, 1], [2]], CmaesSubsolver, rng, True,
            random_start(obj, rng),
        )
        assert result.best_f < 1e-3
        assert obj.evals_used == 4000

    def test_population_size_stays_as_built(self):
        obj = TrackedObjective(
            FunctionProblem(sphere, 2, Bounds(-5.0, 5.0)), 50, population_size=25
        )
        rng = np.random.default_rng(0)
        cc_optimize(
            obj, [[0], [1]], SansdeSubsolver, rng, False,
            random_start(obj, rng),
        )
        assert obj.population_size == 25
        assert obj.evals_used == 50
