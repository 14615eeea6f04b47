"""Tests for cooperative coevolution and its subproblem solvers."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtrs

from wsnopt import sansde
from wsnopt.cc import ContextVector, SubproblemView, cc_optimize
from wsnopt.cmaes import CmaesSubsolver
from wsnopt.evo import Bounds, FunctionProblem, TrackedObjective
from wsnopt.problem import PowerAllocationProblem, WsnConfig
from wsnopt.sansde import (
    SansdeSubsolver,
    _outcome_counts,
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


def reference_cmaes_step(self, rng):
    """``CmaesSubsolver.step`` written with one fresh array per product and
    sum, the two-face reflection formula and ``np.all(np.isfinite(...))``
    checks; returns ``hsig`` for a completed update, else None."""
    n_cand = min(self.lam, self.view.remaining)
    z = rng.standard_normal((n_cand, self.n))
    steps = z @ self.factor.T
    low, high = self.view.bounds.lower, self.view.bounds.upper
    x = self.mean[None, :] + self.sigma * steps
    candidates = np.clip(
        np.where(x < low, 2.0 * low - x, np.where(x > high, 2.0 * high - x, x)), low, high
    )
    values = self.view.evaluate_batch(candidates)
    self.evals_done += n_cand
    if n_cand < self.lam:
        return None
    order = np.argsort(values, kind="stable")
    selected = candidates[order[: self.mu]]
    moves = (selected - self.mean[None, :]) / self.sigma
    move_mean = self.weights @ moves
    whitened, info = dtrtrs(self.factor, move_mean, lower=1)
    if info != 0:
        self._reset()
        return None
    self.path_sigma = (1.0 - self.cs) * self.path_sigma + math.sqrt(
        self.cs * (2.0 - self.cs) * self.mueff
    ) * whitened
    generations = self.evals_done / self.lam
    norm_ps = float(np.linalg.norm(self.path_sigma))
    hsig = norm_ps / math.sqrt(
        1.0 - (1.0 - self.cs) ** (2.0 * generations)
    ) / self.chi_n < 1.4 + 2.0 / (self.n + 1.0)
    self.path_cov = (1.0 - self.cc) * self.path_cov + (
        math.sqrt(self.cc * (2.0 - self.cc) * self.mueff) * move_mean if hsig else 0.0
    )
    rank_mu = (moves * self.weights[:, None]).T @ moves
    stall_term = 0.0 if hsig else self.cc * (2.0 - self.cc)
    self.cov = (
        (1.0 - self.c1 - self.cmu) * self.cov
        + self.c1 * (np.outer(self.path_cov, self.path_cov) + stall_term * self.cov)
        + self.cmu * rank_mu
    )
    self.mean = self.mean + self.sigma * move_mean
    self.sigma = self.sigma * math.exp((self.cs / self.ds) * (norm_ps / self.chi_n - 1.0))
    self.factor, info = dpotrf(self.cov, lower=1, clean=1)
    if (
        info != 0
        or not np.all(np.isfinite(self.factor))
        or not np.all(np.isfinite(self.mean))
        or not np.isfinite(self.sigma)
        or self.sigma > 1e7 * self.sigma0
        or self.sigma <= 0.0
    ):
        self._reset()
    return hsig


def cmaes_on_white_l300():
    """A context, a CMA-ES solver on a 51-variable group of a white L=300
    problem, and the generator that steps it."""
    config = WsnConfig(num_sensors=300, epsilon=0.01, fading_seed=4)
    obj = TrackedObjective(PowerAllocationProblem(config), 10_000, 100)
    start = np.random.default_rng(3).uniform(0.0, 15.0, 300)
    context = ContextVector(start, obj.evaluate(start))
    view = SubproblemView(obj, context, np.arange(2, 257, 5))
    return context, CmaesSubsolver(view), np.random.default_rng(8)


def cmaes_state(solver):
    arrays = (solver.mean, solver.cov, solver.factor, solver.path_sigma, solver.path_cov)
    return [a.tobytes() for a in arrays] + [
        float(solver.sigma).hex(), solver.resets, solver.evals_done]


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

    def test_singular_factor_resets_before_the_update(self):
        # A zero on the factor's diagonal makes the whitening solve fail: the
        # step resets at once, from the mean it started with.
        obj = make_objective(sphere, 4, Bounds(-5.0, 5.0), 100)
        context = ContextVector(np.ones(4), 4.0)
        solver = CmaesSubsolver(SubproblemView(obj, context, range(4)))
        solver.factor = np.diag([1.0, 0.0, 1.0, 1.0])
        mean_before = solver.mean.copy()
        solver.step(np.random.default_rng(0))
        assert dtrtrs(np.diag([1.0, 0.0, 1.0, 1.0]), np.ones(4), lower=1)[1] == 2
        assert obj.evals_used == solver.lam
        assert solver.resets == 1
        assert solver.mean.tobytes() == mean_before.tobytes()
        assert solver.sigma == solver.sigma0
        assert solver.evals_done == 0
        np.testing.assert_array_equal(solver.cov, np.eye(4))
        np.testing.assert_array_equal(solver.factor, np.eye(4))
        np.testing.assert_array_equal(solver.path_sigma, np.zeros(4))

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

    def test_step_equals_reference_expressions_bit_for_bit(self):
        # Two identical white L=300 problems, one stepped by the solver and
        # one by the reference, over 300 generations at n=51.  Step 100 starts
        # from a long sigma-path, so hsig is false; step 200 starts from a
        # covariance that cannot be factored, which forces a reset.
        context, solver, rng = cmaes_on_white_l300()
        ref_context, reference, ref_rng = cmaes_on_white_l300()
        assert solver.n == 51
        hsigs, resets = [], []
        for k in range(300):
            for s in (solver, reference):
                if k == 100:
                    s.path_sigma = np.full(s.n, 50.0)
                if k == 200:
                    s.cov[0, 0] = -1e3
            solver.step(rng)
            hsigs.append(reference_cmaes_step(reference, ref_rng))
            resets.append(solver.resets)
            assert cmaes_state(solver) == cmaes_state(reference), k
            assert context.values.tobytes() == ref_context.values.tobytes()
            assert float(context.fitness).hex() == float(ref_context.fitness).hex()
        assert hsigs[99] is True and hsigs[100] is False
        assert resets[200] == resets[199] + 1

    @pytest.mark.parametrize("entry, resets", [
        ((3, 3), 1), ((7, 2), 1), ((50, 0), 1), ((50, 50), 1), ((2, 7), 0)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_covariance_resets_as_the_full_scan_does(self, entry, resets, bad):
        # A non-finite entry on or below the diagonal resets the solver as it
        # does the reference; one above it, which dpotrf does not read,
        # resets neither.
        def setup():
            _, solver, rng = cmaes_on_white_l300()
            for _ in range(20):
                solver.step(rng)
            solver.cov[entry] = bad
            return solver, rng

        solver, rng = setup()
        reference, ref_rng = setup()
        with np.errstate(invalid="ignore", over="ignore"):
            solver.step(rng)
            reference_cmaes_step(reference, ref_rng)
        assert cmaes_state(solver) == cmaes_state(reference)
        assert solver.resets == resets

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

    @pytest.mark.parametrize("fill", [None, True, False])
    def test_outcome_counts_order(self, fill):
        # Successes and failures of the first option, then of the second:
        # the argument order of strategy_success_probability.
        rng = np.random.default_rng(4)
        first, improved = rng.random((2, 50)) < 0.5
        if fill is not None:
            first[:] = improved[:] = fill
        expected = [np.sum(first & improved), np.sum(first & ~improved),
                    np.sum(~first & improved), np.sum(~first & ~improved)]
        np.testing.assert_array_equal(_outcome_counts(first, improved), expected)

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
