"""Tests for the shared evolutionary machinery.

The population-size schedule and the success memory are ``mlshade``'s own,
and are tested here beside the shared pieces they were split from.
"""

import numpy as np
import pytest

from wsnopt.evo import (
    Bounds,
    BudgetExhausted,
    FunctionProblem,
    TrackedObjective,
    binomial_crossover,
    init_population,
    pick_distinct,
    reflect_into_bounds,
)
from wsnopt import mlshade
from wsnopt.mlshade import SuccessHistory, linear_pop_size_reduction, shrink_population


def sphere(x):
    return float(np.sum(x * x))


class TestBounds:
    def test_defaults(self):
        b = Bounds()
        assert (b.lower, b.upper) == (0.0, 15.0)
        assert b.width == 15.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Bounds(2.0, 2.0)


class TestInitPopulation:
    @staticmethod
    def tracker(dim, max_evals, population_size):
        problem = FunctionProblem(sphere, dim, Bounds(0.0, 15.0))
        return TrackedObjective(problem, max_evals, population_size)

    def test_shape_and_range(self):
        obj = self.tracker(6, 100, 30)
        pop, fit = init_population(obj, np.random.default_rng(0))
        assert pop.shape == (30, 6)
        assert pop.min() >= 0.0 and pop.max() <= 15.0
        np.testing.assert_array_equal(fit, [sphere(row) for row in pop])
        assert obj.evals_used == 30

    def test_uniform_mean(self):
        pop, _ = init_population(self.tracker(1000, 100, 100), np.random.default_rng(1))
        assert abs(pop.mean() - 7.5) < 0.1

    def test_budget_below_population_leaves_the_rest_unevaluated(self):
        obj = self.tracker(3, 7, 12)
        pop, fit = init_population(obj, np.random.default_rng(2))
        np.testing.assert_array_equal(fit[:7], [sphere(row) for row in pop[:7]])
        assert np.all(fit[7:] == np.inf)
        assert obj.evals_used == 7


class TestTrialBuilders:
    def test_pick_distinct_excludes_target(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            idx = pick_distinct(10, (10, 10, 10), rng)
            assert idx.shape == (10, 3)
            for row, picked in enumerate(idx):
                assert len(set(picked.tolist())) == 3
                assert row not in picked
                assert picked.min() >= 0 and picked.max() < 10

    def test_pick_distinct_later_columns_reach_the_larger_pool(self):
        rng = np.random.default_rng(4)
        idx = pick_distinct(5, (5, 9), rng)
        for _ in range(200):
            idx = np.vstack([idx, pick_distinct(5, (5, 9), rng)])
        assert idx[:, 0].max() < 5
        assert set(idx[:, 1].tolist()) == set(range(9))
        rows = np.tile(np.arange(5), len(idx) // 5)
        assert not np.any(idx[:, 1] == rows)
        assert not np.any(idx[:, 0] == idx[:, 1])

    def test_crossover_keeps_one_donor_coordinate(self):
        rng = np.random.default_rng(5)
        parent = np.zeros((6, 8))
        donor = np.ones((6, 8))
        trial = binomial_crossover(parent, donor, 0.0, rng)
        # exactly the forced coordinate, once per row
        np.testing.assert_array_equal(trial.sum(axis=1), 1.0)

    def test_crossover_full_rate_copies_donor(self):
        rng = np.random.default_rng(6)
        trial = binomial_crossover(np.zeros((3, 5)), np.ones((3, 5)), 1.0, rng)
        np.testing.assert_array_equal(trial, np.ones((3, 5)))

    def test_crossover_rate_is_per_row(self):
        rng = np.random.default_rng(7)
        trial = binomial_crossover(
            np.zeros((2, 50)), np.ones((2, 50)), np.array([0.0, 1.0]), rng
        )
        assert trial[0].sum() == 1.0
        np.testing.assert_array_equal(trial[1], 1.0)


class TestReflection:
    def test_hand_values(self):
        b = Bounds(0.0, 15.0)
        np.testing.assert_allclose(reflect_into_bounds(np.array([-1.0]), b), [1.0])
        np.testing.assert_allclose(reflect_into_bounds(np.array([16.0]), b), [14.0])
        np.testing.assert_allclose(reflect_into_bounds(np.array([-20.0]), b), [15.0])
        np.testing.assert_allclose(reflect_into_bounds(np.array([40.0]), b), [0.0])

    def test_interior_untouched(self):
        b = Bounds(0.0, 15.0)
        x = np.array([0.0, 7.5, 15.0])
        np.testing.assert_array_equal(reflect_into_bounds(x, b), x)

    def test_always_lands_in_bounds(self):
        rng = np.random.default_rng(8)
        b = Bounds(-3.0, 4.0)
        for _ in range(100):
            x = rng.uniform(-50.0, 50.0, size=20)
            y = reflect_into_bounds(x, b)
            assert y.min() >= b.lower and y.max() <= b.upper

    def test_repairs_its_argument_in_place(self):
        x = np.array([-5.0, 20.0])
        assert reflect_into_bounds(x, Bounds(0.0, 15.0)) is x
        np.testing.assert_array_equal(x, [5.0, 10.0])

    @pytest.mark.parametrize("lower,upper", [(0.0, 15.0), (-3.0, 4.0)])
    def test_equals_two_face_formula_bit_for_bit(self, lower, upper):
        b = Bounds(lower, upper)
        width = upper - lower
        rng = np.random.default_rng(21)
        x = np.concatenate([
            rng.uniform(lower - 3.0 * width, upper + 3.0 * width, size=(40, 25)).ravel(),
            [lower, upper, -0.0, 0.0, lower - width, upper + width,
             lower - 2.5 * width, upper + 2.5 * width, np.nextafter(lower, -np.inf),
             np.nextafter(upper, np.inf)],
        ]).reshape(-1, 5)
        expected = np.clip(
            np.where(x < lower, 2.0 * lower - x, np.where(x > upper, 2.0 * upper - x, x)),
            lower, upper,
        )
        repaired = reflect_into_bounds(x.copy(), b)
        assert repaired.tobytes() == expected.tobytes()


class TestPopSizeReduction:
    def test_endpoints_and_midpoint(self):
        assert linear_pop_size_reduction(0, 1000, 100) == 100
        assert linear_pop_size_reduction(500, 1000, 100) == 60
        assert linear_pop_size_reduction(1000, 1000, 100) == 20

    def test_monotone_nonincreasing(self):
        sizes = [linear_pop_size_reduction(used, 997, 100) for used in range(997)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert min(sizes) >= 20

    def test_shrink_keeps_best_and_order(self):
        pos = np.arange(10, dtype=float)[:, None]
        fit = np.array([5.0, 1.0, 4.0, 0.5, 9.0, 3.0, 8.0, 2.0, 7.0, 6.0])
        new_pos, new_fit = shrink_population(pos, fit, 4)
        assert len(new_pos) == 4
        assert 0.5 in new_fit  # best survives
        # Survivors keep their original relative order.
        assert list(new_pos[:, 0]) == sorted(new_pos[:, 0])


class TestSuccessHistory:
    def test_single_success(self):
        mem = SuccessHistory()
        mem.update([0.5], [0.3], [1.0])
        assert mem.f_mean[0] == pytest.approx(0.5)
        assert mem.cr_mean[0] == pytest.approx(0.3)

    def test_lehmer_mean_weights_large_f(self):
        mem = SuccessHistory()
        mem.update([0.2, 0.8], [0.1, 0.9], [1.0, 1.0])
        assert mem.f_mean[0] == pytest.approx(0.68)
        assert mem.cr_mean[0] == pytest.approx(0.5)

    def test_empty_update_is_noop(self, monkeypatch):
        monkeypatch.setattr(mlshade, "HISTORY_SIZE", 3)
        mem = SuccessHistory()
        mem.update([], [], [])
        np.testing.assert_array_equal(mem.f_mean, 0.5)
        assert mem.cursor == 0

    def test_cursor_wraps(self, monkeypatch):
        monkeypatch.setattr(mlshade, "HISTORY_SIZE", 2)
        mem = SuccessHistory()
        for k in range(3):
            mem.update([0.1 * (k + 1)], [0.2], [1.0])
        # Third update overwrote slot 0.
        assert mem.f_mean[0] == pytest.approx(0.3)
        assert mem.cursor == 1

    def test_sample_ranges(self):
        mem = SuccessHistory()
        rng = np.random.default_rng(13)
        f, cr = mem.sample(500, rng)
        assert f.shape == cr.shape == (500,)
        assert np.all((0.0 < f) & (f <= 1.0))
        assert np.all((0.0 <= cr) & (cr <= 1.0))


class TestTrackedObjective:
    def make(self, max_evals=50, pop=1):
        problem = FunctionProblem(sphere, 3, Bounds(-5.0, 5.0))
        return TrackedObjective(problem, max_evals, population_size=pop)

    def test_budget_counts_every_call(self):
        obj = self.make(max_evals=10)
        obj.evaluate(np.ones(3))
        obj.evaluate_batch(np.zeros((4, 3)))
        obj.probe(np.ones(3))
        assert obj.evals_used == 6
        assert obj.remaining == 4

    def test_over_budget_raises(self):
        obj = self.make(max_evals=3)
        obj.evaluate_batch(np.zeros((3, 3)))
        with pytest.raises(BudgetExhausted):
            obj.evaluate(np.ones(3))
        assert obj.evals_used == 3

    @pytest.mark.parametrize("pop", [0, -5])
    def test_non_positive_population_rejected(self, pop):
        with pytest.raises(ValueError, match="population_size"):
            self.make(pop=pop)

    def test_best_tracking_and_trace(self):
        obj = self.make(max_evals=10)
        obj.evaluate(np.array([2.0, 0.0, 0.0]))
        obj.evaluate(np.array([3.0, 0.0, 0.0]))  # worse, no event
        obj.evaluate(np.array([1.0, 0.0, 0.0]))
        assert obj.best_f == pytest.approx(1.0)
        evals, bests = zip(*obj.improvements)
        assert evals == (1, 3)
        assert list(bests) == sorted(bests, reverse=True)

    def test_batch_improvements_ordered_within_batch(self):
        obj = self.make(max_evals=10)
        X = np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.5, 0, 0]])
        obj.evaluate_batch(X)
        assert [e for e, _ in obj.improvements] == [1, 2, 4]
        assert obj.best_f == pytest.approx(0.25)

    def test_iteration_schedule_follows_population_size(self):
        seen = []

        class Recorder:
            dimension = 2
            bounds = Bounds(0.0, 1.0)

            def batch(self, X, iterations):
                seen.extend(iterations.tolist())
                return np.zeros(len(X)), np.zeros(len(X), dtype=bool), np.zeros(len(X))

        obj = TrackedObjective(Recorder(), 20, population_size=2)
        for _ in range(5):
            obj.evaluate(np.zeros(2))
        assert seen == [1.0, 1.0, 2.0, 2.0, 3.0]

    def test_one_row_clock_matches_batch_at_period_boundaries(self):
        period = 4

        class PenaltyClock:
            # Feasible when x > 0.5 (value = power); otherwise the value grows
            # with the iteration, so a wrong clock changes the best.
            dimension = 1
            bounds = Bounds(0.0, 1.0)

            def __init__(self):
                self.seen = []

            def batch(self, X, iterations):
                self.seen.extend(np.asarray(iterations).tolist())
                feasible = X[:, 0] > 0.5
                powers = 10.0 * X[:, 0]
                return np.where(feasible, powers, X[:, 0] * iterations), feasible, powers

        # k runs over P-1, P, P+1 and 2P.  Row P (iteration 1, value 0.09)
        # improves and row P+1 (iteration 2, value 0.12) does not; an
        # off-by-one clock would swap the two.
        X = np.array([[0.3], [0.2], [0.1], [0.09], [0.06], [0.9], [0.8], [0.85]])
        one_by_one = TrackedObjective(PenaltyClock(), len(X) + 1, population_size=period)
        for x in X:
            one_by_one.evaluate(x)
        ks = np.arange(1, len(X) + 1)
        assert one_by_one.problem.seen == np.ceil(ks / period).tolist()
        assert one_by_one.problem.seen[period - 2 : period + 1] == [1.0, 1.0, 2.0]
        assert one_by_one.problem.seen[2 * period - 1] == 2.0

        batched = TrackedObjective(PenaltyClock(), len(X) + 1, population_size=period)
        batched.evaluate_batch(X)
        assert batched.problem.seen == one_by_one.problem.seen
        np.testing.assert_array_equal(one_by_one.best_x, batched.best_x)
        assert one_by_one.best_f == batched.best_f == 8.0
        assert one_by_one.best_feasible and batched.best_feasible
        assert one_by_one.improvements == batched.improvements
        assert [e for e, _ in one_by_one.improvements] == [1, 2, 3, 4, 6, 7]

        one_by_one.evaluate(X[0])
        with pytest.raises(BudgetExhausted):
            one_by_one.evaluate(X[0])
        assert one_by_one.evals_used == len(X) + 1
        assert one_by_one.problem.seen[-1] == 3.0

    def test_probe_pins_iteration(self):
        seen = []

        class Recorder:
            dimension = 2
            bounds = Bounds(0.0, 1.0)

            def batch(self, X, iterations):
                seen.extend(iterations.tolist())
                return np.zeros(len(X)), np.zeros(len(X), dtype=bool), np.zeros(len(X))

        obj = TrackedObjective(Recorder(), 20, population_size=3)
        obj.evaluate_batch(np.zeros((4, 2)))
        obj.probe_batch(np.zeros((2, 2)))
        assert seen == [1.0, 1.0, 1.0, 2.0, 1.0, 1.0]

    def test_solution_prefers_feasible(self):
        class TwoTrack:
            dimension = 1
            bounds = Bounds(0.0, 1.0)

            def batch(self, X, iterations):
                # Feasibility needs x > 0.5; infeasible rows carry a penalized
                # value below any power, feasible rows their power.
                feasible = X[:, 0] > 0.5
                powers = X[:, 0] * 10.0
                values = np.where(feasible, powers, X[:, 0])
                return values, feasible, powers

        obj = TrackedObjective(TwoTrack(), 10)
        for x in (0.1, 0.7, 0.05, 0.6):
            obj.evaluate(np.array([x]))
        np.testing.assert_allclose(obj.best_x, [0.6])
        assert obj.best_feasible
        np.testing.assert_allclose(obj.best_feasible_x, [0.6])
        assert obj.best_f == pytest.approx(6.0)
        evals, bests = zip(*obj.improvements)
        assert evals == (1, 2, 4)
        assert bests == pytest.approx((0.1, 7.0, 6.0))

    def test_solution_falls_back_to_best(self):
        obj = self.make()
        obj.evaluate(np.ones(3))
        np.testing.assert_allclose(obj.best_x, np.ones(3))
        assert not obj.best_feasible
        assert obj.best_feasible_x is None
