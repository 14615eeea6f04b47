"""Tests for the rank-slice adaptive DE solver."""

import numpy as np
import pytest

from wsnopt import eade as eade_module
from wsnopt.eade import POOL_VALUES, CrossoverRatePool, eade, eade_mutation
from wsnopt.evo import (
    Bounds,
    FunctionProblem,
    TrackedObjective,
    binomial_crossover,
    pick_distinct,
    reflect_into_bounds,
)


# A pool period that no test reaches, so a test refreshes the pool by hand.
NEVER_DUE = 10**9


def sphere_problem(dim=5, bounds=Bounds(0.0, 15.0)):
    return FunctionProblem(lambda x: float(np.sum(x * x)), dim, bounds)


class TestCrossoverRatePool:
    def test_uniform_before_first_refresh(self):
        pool = CrossoverRatePool(NEVER_DUE)
        np.testing.assert_allclose(pool.probabilities, 1.0 / 3.0)

    def test_success_ratio_dominates_after_refresh(self):
        pool = CrossoverRatePool(NEVER_DUE)
        for _ in range(10):
            pool.record(np.array([0, 1, 2]), np.array([False, True, False]))
        pool.refresh()
        assert pool.probabilities[1] > 0.9

    def test_all_failures_fall_back_to_uniform(self):
        pool = CrossoverRatePool(NEVER_DUE)
        pool.record(np.arange(3), np.zeros(3, dtype=bool))
        pool.refresh()
        np.testing.assert_allclose(pool.probabilities, 1.0 / 3.0)

    def test_counters_reset_on_refresh(self):
        pool = CrossoverRatePool(NEVER_DUE)
        pool.record(np.array([0]), np.array([True]))
        pool.refresh()
        assert pool.successes.sum() == 0.0 and pool.failures.sum() == 0.0

    def test_draw_returns_pool_values(self):
        pool = CrossoverRatePool(NEVER_DUE)
        rng = np.random.default_rng(2)
        indices, rates = pool.draw(100, rng)
        assert set(rates.tolist()) == {0.05, 0.5, 0.95}
        np.testing.assert_array_equal(rates, np.array(POOL_VALUES)[indices])

    def test_untried_rates_can_recover_via_uniform_fallback(self):
        pool = CrossoverRatePool(NEVER_DUE)
        pool.record(np.ones(5, dtype=int), np.ones(5, dtype=bool))
        pool.refresh()  # rate 1 takes all the mass
        pool.refresh()  # nothing recorded since: back to uniform
        np.testing.assert_allclose(pool.probabilities, 1.0 / 3.0)

    def refresh_log(self, pool):
        """Make ``pool`` log the ``recorded`` count at each of its refreshes."""
        log, original = [], pool.refresh

        def refresh():
            log.append(pool.recorded)
            original()

        pool.refresh = refresh
        return log

    def test_refreshes_after_every_period_th_record(self):
        pool = CrossoverRatePool(3)
        log = self.refresh_log(pool)
        for k in range(1, 8):
            pool.record(np.array([1, 2]), np.array([True, False]))
            assert log == [3, 6][: k // 3]
            if k == 2:
                np.testing.assert_allclose(pool.probabilities, 1.0 / 3.0)
            if k == 3:
                np.testing.assert_allclose(pool.probabilities, [0.0, 1.0, 0.0])

    def test_zeroing_recorded_restarts_the_count(self):
        pool = CrossoverRatePool(3)
        log = self.refresh_log(pool)
        for _ in range(2):
            pool.record(np.array([0]), np.array([True]))
        pool.recorded = 0
        for _ in range(2):
            pool.record(np.array([0]), np.array([True]))
        assert log == []
        pool.record(np.array([0]), np.array([True]))
        assert log == [3]
        np.testing.assert_allclose(pool.probabilities, [1.0, 0.0, 0.0])
        assert pool.successes.sum() == 0.0


class FixedWeights:
    """A generator that passes ``integers`` to ``rng`` and returns given weights.

    ``eade_mutation`` draws its member ranks with ``integers`` and then one
    weight array each for the top and the bottom member with ``random``.
    """

    def __init__(self, rng, *weights):
        self._rng = rng
        self._weights = iter(weights)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size):
        return np.full(size, next(self._weights))


class TestEadeMutation:
    def test_hand_value_with_singleton_slices(self):
        sorted_pop = np.array([[1.0], [5.0], [9.0]])
        weights = FixedWeights(np.random.default_rng(0), 0.5, 0.5)
        donor = eade_mutation(sorted_pop, np.arange(3), 1, 4, weights)
        np.testing.assert_allclose(donor, 1.0)

    def test_zero_weights_return_middle_member(self):
        sorted_pop = np.array([[0.0], [3.0], [7.0]])
        weights = FixedWeights(np.random.default_rng(1), 0.0, 0.0)
        donor = eade_mutation(sorted_pop, np.arange(3), 1, 4, weights)
        np.testing.assert_allclose(donor, 3.0)

    @pytest.mark.parametrize("n_pop,n_slice", [(3, 0), (4, 2), (2, 1)])
    def test_empty_slices_rejected(self, n_pop, n_slice):
        with pytest.raises(ValueError):
            eade_mutation(
                np.zeros((n_pop, 2)), np.arange(n_pop), n_slice, 1, np.random.default_rng(0)
            )

    def test_sources_come_from_disjoint_slices(self):
        rng = np.random.default_rng(3)
        # Encode slice membership in the value so the donor reveals it; the
        # rows are shuffled, so the slices must come through ``order``.
        sorted_pop = np.array([[0.0], [0.0], [100.0], [100.0], [100.0], [100.0],
                               [100.0], [100.0], [1000.0], [1000.0]])
        shuffle = rng.permutation(10)
        order = np.argsort(shuffle)
        donors = eade_mutation(sorted_pop[shuffle], order, 2, 50, FixedWeights(rng, 1.0, 0.0))
        assert donors.shape == (50, 1)
        np.testing.assert_allclose(donors, 0.0)  # a top weight of 1 lands on the top slice


    @pytest.mark.parametrize("weights", [(0.3, 0.7), (None, None)])
    def test_equals_rank_slice_formula_bit_for_bit(self, weights):
        f_top, f_bottom = weights
        n_pop, n_slice, n, dim = 20, 3, 15, 6
        positions = np.random.default_rng(4).uniform(-5.0, 5.0, size=(n_pop, dim))
        positions[0, :2] = [-0.0, 0.0]
        order = np.random.default_rng(5).permutation(n_pop)
        kept = positions.copy(), order.copy()

        rng = np.random.default_rng(6)
        if f_top is not None:
            rng = FixedWeights(rng, f_top, f_bottom)
        donors = eade_mutation(positions, order, n_slice, n, rng)

        # The same draws, in the same order, through the formula as written.
        rng = np.random.default_rng(6)
        ranked = positions[order]
        top = ranked[rng.integers(n_slice, size=n)]
        mid = ranked[rng.integers(n_slice, n_pop - n_slice, size=n)]
        bottom = ranked[rng.integers(n_pop - n_slice, n_pop, size=n)]
        if f_top is None:
            f_top, f_bottom = rng.random((n, 1)), rng.random((n, 1))
        expected = mid + f_top * (top - mid) + f_bottom * (mid - bottom)
        assert donors.tobytes() == expected.tobytes()
        assert positions.tobytes() == kept[0].tobytes()
        np.testing.assert_array_equal(order, kept[1])


class TestEadeSolver:
    def test_improves_sphere_and_respects_budget(self):
        problem = sphere_problem()
        obj = TrackedObjective(problem, 3000, 30)
        result = eade(obj, np.random.default_rng(7))
        assert obj.evals_used == 3000
        first = result.improvements[0][1]
        assert result.best_f < 0.1 * first
        evals, bests = zip(*result.improvements)
        assert list(bests) == sorted(bests, reverse=True)
        assert list(evals) == sorted(evals)

    def test_budget_smaller_than_population(self):
        problem = sphere_problem()
        obj = TrackedObjective(problem, 7, 12)
        result = eade(obj, np.random.default_rng(0))
        assert obj.evals_used == 7
        assert np.isfinite(result.best_f)

    def test_population_too_small_for_slices(self):
        problem = sphere_problem()
        obj = TrackedObjective(problem, 100, 8)
        with pytest.raises(ValueError, match="population_size 8 is too small"):
            eade(obj, np.random.default_rng(0))
        assert obj.evals_used == 0

    def test_deterministic_given_seed(self):
        r1 = eade(TrackedObjective(sphere_problem(), 1500, 20), np.random.default_rng(42))
        r2 = eade(TrackedObjective(sphere_problem(), 1500, 20), np.random.default_rng(42))
        assert r1.best_f == r2.best_f
        np.testing.assert_array_equal(r1.best_x, r2.best_x)

    def test_pure_rand1_mode_matches_hand_rolled_baseline(self, monkeypatch):
        # With the donor mixing switched off the solver must replay the
        # plain DE/rand/1/bin trajectory draw for draw.
        n_pop, dim, max_evals = 10, 4, 500
        bounds = Bounds(0.0, 15.0)
        seed = 99

        solver_obj = TrackedObjective(sphere_problem(dim, bounds), max_evals, n_pop)
        monkeypatch.setattr(eade_module, "MIX_PROBABILITY", 0.0)
        result = eade(solver_obj, np.random.default_rng(seed))

        rng = np.random.default_rng(seed)
        obj = TrackedObjective(sphere_problem(dim, bounds), max_evals, n_pop)
        pop = rng.uniform(bounds.lower, bounds.upper, size=(n_pop, dim))
        fit = obj.evaluate_batch(pop)
        period = max(1, round(0.1 * (max_evals // n_pop)))
        pool = CrossoverRatePool(NEVER_DUE)
        generation = 0
        while obj.remaining > 0:
            generation += 1
            if generation > 1 and (generation - 1) % period == 0:
                pool.refresh()
            n = min(n_pop, obj.remaining)
            drawn, cr = pool.draw(n, rng)
            rng.random(n)  # the donor-mixing draw, never below 0.0
            r1, r2, r3 = pick_distinct(n, (n_pop,) * 3, rng).T
            f_weight = rng.uniform(0.4, 0.9, size=(n, 1))
            donors = pop[r1] + f_weight * (pop[r2] - pop[r3])
            trials = reflect_into_bounds(
                binomial_crossover(pop[:n], donors, cr, rng), bounds
            )
            values = obj.evaluate_batch(trials)
            better = values < fit[:n]
            pool.record(drawn, better)
            pop[:n][better] = trials[better]
            fit[:n][better] = values[better]

        assert result.best_f == obj.best_f
        np.testing.assert_array_equal(result.best_x, obj.best_x)
        assert result.improvements == obj.improvements

    def test_all_trials_stay_in_bounds(self):
        calls = []

        class SpyProblem(FunctionProblem):
            def batch(self, X, iterations):
                calls.append(X.copy())
                return super().batch(X, iterations)

        problem = SpyProblem(
            lambda x: float(np.sum(x * x)), 3, Bounds(-2.0, 2.0)
        )
        eade(TrackedObjective(problem, 600, 15), np.random.default_rng(5))
        for X in calls:
            assert X.min() >= -2.0 and X.max() <= 2.0
