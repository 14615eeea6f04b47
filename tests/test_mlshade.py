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
    _history_de_trials,
    _slice_de_trials,
    _triangular_de_trials,
    mlshade_spa,
    mmts_local_search,
    quota_weights,
    random_dimension_grouping,
)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def sphere_batch(X):
    return np.sum(np.asarray(X) ** 2, axis=1)


def make_objective(
    dim, max_evals, population_size=1, bounds=Bounds(-5.0, 5.0), batch_fn=sphere_batch
):
    problem = FunctionProblem(sphere, dim, bounds, batch_fn=batch_fn)
    return TrackedObjective(problem, max_evals, population_size)


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

    @pytest.mark.parametrize("k", [0, 11])
    def test_invalid_group_count(self, k):
        with pytest.raises(ValueError):
            random_dimension_grouping(10, k, np.random.default_rng(0))


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

    @pytest.mark.parametrize("strategy", ["history", "slice", "triangular"])
    def test_trials_only_touch_group_coordinates(self, strategy):
        obj, pop, fit, rng = self.setup_generation(3)
        original = pop.copy()
        group = np.array([0, 1])
        if strategy == "history":
            trials, state = _history_de_trials, (SuccessHistory(), [])
        elif strategy == "slice":
            trials, state = _slice_de_trials, CrossoverRatePool()
        else:
            trials, state = _triangular_de_trials, None
        _generation(trials, state, pop, fit, group, obj, rng)
        # coordinates outside the active group never move, even on replacement
        np.testing.assert_array_equal(pop[:, 2:], original[:, 2:])
        changed = ~np.all(pop[:, :2] == original[:, :2], axis=1)
        assert changed.any()


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
        sizes = []

        def recording_batch(X):
            sizes.append(len(X))
            return sphere_batch(X)

        # Each cycle spends 25 generations' worth, so the shrink schedule
        # depends on the budget alone; at this one the last cycle runs at the
        # floor.  One-row batches are line-search steps.
        obj = make_objective(10, 5500, population_size=40, batch_fn=recording_batch)
        mlshade_spa(obj, np.random.default_rng(1))
        assert [n for n in sizes if n > 1][-1] == 20

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
        seen = []

        def checked_batch(X):
            seen.append(np.asarray(X).copy())
            return sphere_batch(X)

        obj = make_objective(6, 1500, population_size=20, batch_fn=checked_batch)
        monkeypatch.setattr(mlshade, "GROUP_SIZE_TARGET", 3)
        mlshade_spa(obj, np.random.default_rng(4))
        stacked = np.vstack(seen)
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
