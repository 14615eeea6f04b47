"""Tests for the hybrid multi-strategy solver and its pieces."""

import numpy as np
import pytest

from wsnopt import mlshade
from wsnopt.eade import CrossoverRatePool
from wsnopt.evo import Bounds, FunctionProblem, TrackedObjective
from wsnopt.mlshade import (
    MIN_POPULATION,
    SuccessHistory,
    _generation,
    _history_de_donors,
    _slice_de_donors,
    _triangular_de_donors,
    mlshade_spa,
    mmts_local_search,
    quota_weights,
    random_dimension_grouping,
)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def make_objective(dim, max_evals, population_size=1, bounds=Bounds(-5.0, 5.0)):
    return TrackedObjective(FunctionProblem(sphere, dim, bounds), max_evals, population_size)


class SpyProblem(FunctionProblem):
    """The sphere on [-5, 5], keeping a copy of every stack it evaluates."""

    def __init__(self, dim):
        super().__init__(sphere, dim, Bounds(-5.0, 5.0))
        self.stacks = []

    def batch(self, X, iterations):
        self.stacks.append(np.array(X, dtype=float))
        return super().batch(X, iterations)


class TestRandomDimensionGrouping:
    def test_even_split(self):
        groups = random_dimension_grouping(300, 3, np.random.default_rng(0))
        assert [len(g) for g in groups] == [100, 100, 100]

    def test_uneven_split_differs_by_at_most_one(self):
        groups = random_dimension_grouping(10, 3, np.random.default_rng(0))
        assert sorted(len(g) for g in groups) == [3, 3, 4]

    def test_partition_covers_all_dimensions(self):
        groups = random_dimension_grouping(17, 4, np.random.default_rng(2))
        merged = np.concatenate(groups)
        assert sorted(merged.tolist()) == list(range(17))

    def test_partitions_vary_with_the_generator(self):
        a = random_dimension_grouping(30, 3, np.random.default_rng(1))
        b = random_dimension_grouping(30, 3, np.random.default_rng(2))
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))


class TestMmtsLocalSearch:
    def test_descends_on_sphere(self):
        obj = make_objective(2, 100)
        x, f, _ = mmts_local_search(obj, np.array([4.0, 4.0]), 32.0, 1.0, 50)
        assert f < 32.0
        assert obj.evals_used <= 50
        assert sphere(x) == f

    def test_single_improving_probe(self):
        obj = make_objective(2, 100)
        x, f, step = mmts_local_search(obj, np.array([4.0, 4.0]), 32.0, 1.0, 1)
        assert obj.evals_used == 1
        np.testing.assert_allclose(x, [3.0, 4.0])
        assert f == pytest.approx(25.0)
        assert step == 1.0

    def test_step_halves_after_failed_sweep(self):
        obj = make_objective(2, 100)
        _, f, step = mmts_local_search(obj, np.zeros(2), 0.0, 1.0, 4)
        assert f == 0.0
        assert obj.evals_used == 4
        assert step == 0.5

    def test_step_restarts_at_box_fraction_after_collapse(self):
        obj = make_objective(2, 100)
        _, _, step = mmts_local_search(obj, np.zeros(2), 0.0, 1.5e-8, 4)
        assert step == pytest.approx(0.4 * 10.0)

    def test_clipped_noop_probes_are_free(self):
        obj = make_objective(2, 100)
        start = np.array([-5.0, -5.0])
        x, f, _ = mmts_local_search(obj, start, 50.0, 1.0, 2)
        # the downhill probe clips back onto the corner and is skipped
        assert obj.evals_used == 2
        np.testing.assert_allclose(x, [-4.5, -4.5])

    def test_zero_budget_returns_start(self):
        obj = make_objective(2, 100)
        x, f, step = mmts_local_search(obj, np.array([4.0, 4.0]), 32.0, 1.0, 0)
        assert obj.evals_used == 0
        assert f == 32.0
        assert step == 1.0
        np.testing.assert_array_equal(x, [4.0, 4.0])


class TestQuotas:
    def test_equal_weights_without_history(self):
        weights = quota_weights(np.zeros(3))
        np.testing.assert_allclose(weights, [1 / 3] * 3)

    def test_floor_plus_proportional_share(self):
        weights = quota_weights(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(weights, [0.8, 0.1, 0.1])
        assert weights.sum() == pytest.approx(1.0)

    def test_mixed_rates(self):
        weights = quota_weights(np.array([3.0, 1.0, 0.0]))
        np.testing.assert_allclose(weights, [0.1 + 0.7 * 0.75, 0.1 + 0.7 * 0.25, 0.1])


class TestMaskedGenerations:
    def setup_generation(self, seed):
        rng = np.random.default_rng(seed)
        obj = make_objective(4, 10000)
        pop = rng.uniform(-5.0, 5.0, (MIN_POPULATION, 4))
        fit = obj.evaluate_batch(pop)
        return obj, pop, fit.copy(), rng

    def strategy(self, name):
        """The named strategy with a fresh state."""
        return {
            "history": (_history_de_donors, (SuccessHistory(), [])),
            "slice": (_slice_de_donors, CrossoverRatePool(mlshade.POOL_PERIOD)),
            "triangular": (_triangular_de_donors, None),
        }[name]

    @pytest.mark.parametrize("name", ["history", "slice", "triangular"])
    def test_trials_only_touch_group_coordinates(self, name):
        obj, pop, fit, rng = self.setup_generation(3)
        original = pop.copy()
        group = np.array([0, 1])
        strategy, state = self.strategy(name)
        _generation(strategy, state, pop, fit, group, obj, rng)
        # coordinates outside the active group never move, even on replacement
        np.testing.assert_array_equal(pop[:, 2:], original[:, 2:])
        changed = ~np.all(pop[:, :2] == original[:, :2], axis=1)
        assert changed.any()

    @pytest.mark.parametrize("name", ["history", "slice", "triangular"])
    def test_strategy_returns_donors_rates_and_learning_step(self, name):
        _, pop, fit, rng = self.setup_generation(5)
        original = pop.copy()
        group = np.array([3, 0, 2])
        strategy, state = self.strategy(name)
        donors, cr, learn = strategy(pop, pop[:, group], fit, group, rng, state)
        assert donors.shape == (len(pop), len(group))
        assert np.all(np.isfinite(donors))
        rates = np.broadcast_to(cr, len(pop))
        assert np.all((rates >= 0.0) & (rates <= 1.0))
        assert callable(learn)
        np.testing.assert_array_equal(pop, original)

    @pytest.mark.parametrize("archived", [0, 7, MIN_POPULATION])
    def test_history_union_is_the_stacked_rows_of_the_group(self, archived, monkeypatch):
        # The donors read union rows r2; two pair draws, rows 0..n-1 and then
        # the last n rows, read every row of the union, so equal donors mean
        # the union equals np.vstack([pop, *archive])[:, group] row by row.
        rng = np.random.default_rng(archived)
        pop = rng.uniform(-5.0, 5.0, (MIN_POPULATION, 9))
        fit = rng.uniform(0.0, 1.0, MIN_POPULATION)
        archive = [rng.uniform(-5.0, 5.0, 9) for _ in range(archived)]
        group = np.array([4, 0, 7])
        sub = pop[:, group]
        union = np.vstack([pop, *archive])[:, group]
        for offset in (0, archived):
            def pairs(n_rows, pools, rng, offset=offset):
                assert tuple(pools) == (n_rows, len(union))
                return np.column_stack([np.arange(n_rows)[::-1], offset + np.arange(n_rows)])

            monkeypatch.setattr(mlshade, "pick_distinct", pairs)
            state = (SuccessHistory(), archive)
            donors, cr, _ = _history_de_donors(
                pop, sub, fit, group, np.random.default_rng(1), state)
            draws = np.random.default_rng(1)
            f_scale, expected_cr = SuccessHistory().sample(len(pop), draws)
            top = max(1, int(mlshade.P_BEST_FRACTION * len(pop)))
            pbest = sub[np.argsort(fit, kind="stable")[draws.integers(top, size=len(pop))]]
            r1, r2 = pairs(len(pop), (len(pop), len(union)), draws).T
            f = f_scale[:, None]
            expected = sub + f * (pbest - sub) + f * (sub[r1] - union[r2])
            assert donors.tobytes() == expected.tobytes()
            assert cr.tobytes() == expected_cr.tobytes()

    def test_pool_count_restarts_every_cycle(self, monkeypatch):
        # Log cycle starts and the pool's records and refreshes; each refresh
        # must follow a multiple of POOL_PERIOD records since the cycle start.
        events = []

        class LoggedPool(CrossoverRatePool):
            def record(self, indices, success):
                events.append("record")
                super().record(indices, success)

            def refresh(self):
                events.append("refresh")
                super().refresh()

        def logged_grouping(*args):
            events.append("cycle")
            return random_dimension_grouping(*args)

        monkeypatch.setattr(mlshade, "POOL_PERIOD", 3)
        monkeypatch.setattr(mlshade, "CrossoverRatePool", LoggedPool)
        monkeypatch.setattr(mlshade, "random_dimension_grouping", logged_grouping)
        mlshade_spa(make_objective(8, 3000, population_size=20), np.random.default_rng(6))

        per_cycle, refreshes = [], 0  # records counted since each cycle start
        for event in events:
            if event == "cycle":
                per_cycle.append(0)
            elif event == "record":
                per_cycle[-1] += 1
            else:
                assert per_cycle[-1] > 0 and per_cycle[-1] % 3 == 0
                refreshes += 1
        assert refreshes == sum(n // 3 for n in per_cycle)
        # A count carried across cycles would refresh at other records.
        assert len(per_cycle) > 1 and per_cycle[0] % 3 != 0
        assert refreshes > per_cycle[0] // 3


class TestMlshadeSpaSolver:
    def test_sphere_improvement_and_full_budget(self, monkeypatch):
        monkeypatch.setattr(mlshade, "GROUP_SIZE_TARGET", 5)
        obj = make_objective(20, 6000, population_size=50)
        result = mlshade_spa(obj, np.random.default_rng(0))
        assert result.best_f < 1e-3
        assert obj.evals_used == 6000
        assert result.evals_used == 6000
        assert sphere(result.best_x) == pytest.approx(result.best_f)

    def test_population_shrinks_to_minimum(self):
        # Each cycle spends 25 generations' worth, so the shrink schedule
        # depends on the budget alone; at this one the last cycle runs at the
        # floor.  One-row batches are line-search steps.
        problem = SpyProblem(10)
        mlshade_spa(TrackedObjective(problem, 5500, 40), np.random.default_rng(1))
        assert [len(X) for X in problem.stacks if len(X) > 1][-1] == 20

    def test_budget_smaller_than_population(self):
        obj = make_objective(5, 7, population_size=20)
        result = mlshade_spa(obj, np.random.default_rng(2))
        assert obj.evals_used == 7
        assert np.isfinite(result.best_f)

    def test_deterministic_given_seed(self, monkeypatch):
        monkeypatch.setattr(mlshade, "GROUP_SIZE_TARGET", 5)
        r1 = mlshade_spa(make_objective(8, 2000, population_size=20), np.random.default_rng(9))
        r2 = mlshade_spa(make_objective(8, 2000, population_size=20), np.random.default_rng(9))
        assert r1.best_f == r2.best_f
        np.testing.assert_array_equal(r1.best_x, r2.best_x)

    def test_all_evaluated_points_stay_in_bounds(self, monkeypatch):
        problem = SpyProblem(6)
        monkeypatch.setattr(mlshade, "GROUP_SIZE_TARGET", 3)
        mlshade_spa(TrackedObjective(problem, 1500, 20), np.random.default_rng(4))
        stacked = np.vstack(problem.stacks)
        assert stacked.min() >= -5.0
        assert stacked.max() <= 5.0

    def test_tiny_population_rejected(self):
        obj = make_objective(5, 100, population_size=4)
        with pytest.raises(ValueError):
            mlshade_spa(obj, np.random.default_rng(0))

    def test_population_below_reduction_floor_rejected_before_evaluating(self):
        obj = make_objective(5, 100, population_size=19)
        with pytest.raises(ValueError):
            mlshade_spa(obj, np.random.default_rng(0))
        assert obj.evals_used == 0
