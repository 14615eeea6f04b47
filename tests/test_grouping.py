"""Tests for interaction detection and decomposition."""

import math

import numpy as np
import pytest

from wsnopt.evo import Bounds, FunctionProblem, TrackedObjective
from wsnopt.grouping import (
    dg_interaction,
    dgsc_group,
    rdg3_group,
    similarity_matrix,
)


def make_objective(fn, dim, bounds=Bounds(0.0, 15.0), max_evals=200000):
    return TrackedObjective(FunctionProblem(fn, dim, bounds), max_evals)


def sphere(x):
    return float(np.sum(x * x))


def product_pairs(x):
    """Adjacent variables multiply: blocks {0,1}, {2,3}, ..."""
    return float(np.sum(x[0::2] * x[1::2]))


def shuffled_products(x):
    """Same structure but with non-contiguous blocks {0,3}, {1,4}, {2,5}."""
    return float(x[0] * x[3] + x[1] * x[4] + x[2] * x[5])


def mixed(x):
    """Blocks {0,1} and {3,4} around one separable variable."""
    return float(x[0] * x[1] + x[2] ** 2 + x[3] * x[4])


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def full_coupling(x):
    s = float(np.sum(x))
    return s * s


def group_sets(result):
    return {frozenset(g.tolist()) for g in result.groups}


class TestDgInteraction:
    def test_product_pair_detected_with_unit_perturbation(self):
        obj = make_objective(product_pairs, 2, bounds=Bounds(0.0, 2.0))
        interacts, lam = dg_interaction(obj, 0, 1, delta=1.0)
        assert interacts
        assert lam == pytest.approx(1.0)

    def test_separable_function_has_zero_strength(self):
        obj = make_objective(sphere, 4)
        interacts, lam = dg_interaction(obj, 1, 3)
        assert not interacts
        assert lam == 0.0

    @pytest.mark.parametrize(
        "i, j, expected",
        [(0, 1, True), (0, 2, False), (2, 3, False), (3, 4, True), (1, 4, False)],
    )
    def test_mixed_structure(self, i, j, expected):
        obj = make_objective(mixed, 5)
        interacts, _ = dg_interaction(obj, i, j)
        assert interacts is expected

    def test_same_variable_rejected(self):
        obj = make_objective(sphere, 3)
        with pytest.raises(ValueError):
            dg_interaction(obj, 2, 2)

    def test_costs_four_evaluations(self):
        obj = make_objective(mixed, 5)
        dg_interaction(obj, 0, 1)
        assert obj.evals_used == 4
        dg_interaction(obj, 0, 2)
        assert obj.evals_used == 8

    def test_threshold_override_can_suppress_detection(self):
        obj = make_objective(product_pairs, 2, bounds=Bounds(0.0, 2.0))
        interacts, lam = dg_interaction(obj, 0, 1, delta=1.0, threshold=10.0)
        assert not interacts
        assert lam == pytest.approx(1.0)


class TestRdg:
    """Plain recursive grouping: a cap at the dimension, separables alone."""

    def test_sphere_fully_separable(self):
        obj = make_objective(sphere, 10)
        result = rdg3_group(obj, size_cap=10, separable_pack=1)
        assert sorted(result.separable.tolist()) == list(range(10))
        assert result.sizes == [1] * 10
        result.assert_partition(10)

    def test_product_blocks_recovered(self):
        obj = make_objective(product_pairs, 6)
        result = rdg3_group(obj, size_cap=6, separable_pack=1)
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        }
        assert result.separable.size == 0

    def test_mixed_structure(self):
        obj = make_objective(mixed, 5)
        result = rdg3_group(obj, size_cap=5, separable_pack=1)
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({3, 4}),
            frozenset({2}),
        }
        assert result.separable.tolist() == [2]

    def test_chain_merges_into_one_group(self):
        obj = make_objective(rosenbrock, 8)
        result = rdg3_group(obj, size_cap=8, separable_pack=1)
        assert group_sets(result) == {frozenset(range(8))}

    def test_probe_evals_match_budget(self):
        obj = make_objective(mixed, 5)
        result = rdg3_group(obj, size_cap=5, separable_pack=1)
        assert result.probe_evals == obj.evals_used
        assert result.probe_evals > 0


class TestRdg3:
    def test_separable_variables_packed_in_index_order(self):
        obj = make_objective(sphere, 10)
        result = rdg3_group(obj, separable_pack=3)
        assert result.sizes == [3, 3, 3, 1]
        assert result.groups[0].tolist() == [0, 1, 2]
        assert result.groups[3].tolist() == [9]
        assert sorted(result.separable.tolist()) == list(range(10))

    def test_small_nonseparable_blocks_untouched_by_cap(self):
        obj = make_objective(product_pairs, 6)
        result = rdg3_group(obj, size_cap=4)
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        }

    def test_chain_cut_by_size_cap(self):
        obj = make_objective(rosenbrock, 12)
        result = rdg3_group(obj, size_cap=4)
        assert len(result.groups) >= 2
        assert max(result.sizes) <= 5
        result.assert_partition(12)
        assert result.separable.size == 0

    def test_cap_at_dimension_matches_uncapped_grouping(self):
        merged_capped = group_sets(rdg3_group(make_objective(rosenbrock, 8), size_cap=8))
        merged_plain = group_sets(rdg3_group(make_objective(rosenbrock, 8), size_cap=1000))
        assert merged_capped == merged_plain

    def test_full_coupling_yields_bounded_groups(self):
        obj = make_objective(full_coupling, 12)
        result = rdg3_group(obj, size_cap=4)
        assert len(result.groups) >= 2
        assert max(result.sizes) <= 5
        result.assert_partition(12)

    @pytest.mark.parametrize("kwargs", [{"size_cap": 0}, {"separable_pack": 0}])
    def test_invalid_parameters_rejected(self, kwargs):
        obj = make_objective(sphere, 4)
        with pytest.raises(ValueError):
            rdg3_group(obj, **kwargs)


class TestSimilarityMatrix:
    def test_block_structure_and_symmetry(self):
        obj = make_objective(product_pairs, 6)
        weights = similarity_matrix(obj)
        assert weights[0, 1] > 0.0
        assert weights[2, 3] > 0.0
        assert weights[4, 5] > 0.0
        assert weights[0, 2] == 0.0
        assert weights[1, 4] == 0.0
        np.testing.assert_array_equal(weights, weights.T)

    @pytest.mark.parametrize("fn, dim", [(mixed, 5), (rosenbrock, 6), (shuffled_products, 6)])
    def test_entries_are_pairwise_interaction_strengths(self, fn, dim):
        weights = similarity_matrix(make_objective(fn, dim))
        for i in range(dim):
            for j in range(i + 1, dim):
                interacts, lam = dg_interaction(make_objective(fn, dim), i, j)
                assert (weights[i, j] != 0.0) == interacts
                if interacts:
                    assert weights[i, j] == pytest.approx(lam, rel=1e-12)

    def test_separable_function_gives_zero_matrix(self):
        obj = make_objective(sphere, 5)
        weights = similarity_matrix(obj)
        assert not weights.any()

    def test_full_probe_cost(self):
        dim = 6
        obj = make_objective(product_pairs, dim)
        similarity_matrix(obj)
        assert obj.evals_used == 1 + dim + dim * (dim - 1) // 2

    def test_pair_sampling_respects_budget_cap(self):
        obj = make_objective(product_pairs, 6, max_evals=20)
        weights = similarity_matrix(obj, rng=np.random.default_rng(3))
        # cap: 80% of 20 minus the 7 single-point probes leaves 9 pair probes
        assert obj.evals_used == 1 + 6 + 9
        np.testing.assert_array_equal(weights, weights.T)


class TestDgsc:
    def test_product_blocks_recovered(self):
        obj = make_objective(product_pairs, 6)
        result = dgsc_group(obj, k_groups=3, rng=np.random.default_rng(0))
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        }

    def test_non_contiguous_blocks_recovered(self):
        obj = make_objective(shuffled_products, 6)
        result = dgsc_group(obj, k_groups=3, rng=np.random.default_rng(1))
        assert group_sets(result) == {
            frozenset({0, 3}),
            frozenset({1, 4}),
            frozenset({2, 5}),
        }

    def test_isolated_variables_packed_separately(self):
        obj = make_objective(mixed, 5)
        result = dgsc_group(obj, k_groups=2, rng=np.random.default_rng(2))
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({3, 4}),
            frozenset({2}),
        }
        assert result.separable.tolist() == [2]

    def test_zero_matrix_falls_back_to_packing(self):
        obj = make_objective(sphere, 10)
        result = dgsc_group(obj, separable_pack=4, rng=np.random.default_rng(0))
        assert result.sizes == [4, 4, 2]
        assert sorted(result.separable.tolist()) == list(range(10))

    def test_default_group_count_scales_with_dimension(self):
        # ceil(6 / 100) == 1, so everything connected lands in one cluster
        obj = make_objective(product_pairs, 6)
        result = dgsc_group(obj, rng=np.random.default_rng(0))
        assert group_sets(result) == {frozenset(range(6))}
        assert math.ceil(250 / 100) == 3

    def test_deterministic_for_fixed_seed(self):
        first = dgsc_group(
            make_objective(shuffled_products, 6), k_groups=3, rng=np.random.default_rng(7)
        )
        second = dgsc_group(
            make_objective(shuffled_products, 6), k_groups=3, rng=np.random.default_rng(7)
        )
        assert group_sets(first) == group_sets(second)

    def test_probe_evals_match_budget(self):
        obj = make_objective(product_pairs, 6)
        result = dgsc_group(obj, k_groups=3, rng=np.random.default_rng(0))
        assert result.probe_evals == obj.evals_used
        result.assert_partition(6)

    def test_invalid_group_count_rejected(self):
        obj = make_objective(sphere, 4)
        with pytest.raises(ValueError):
            dgsc_group(obj, k_groups=0)
