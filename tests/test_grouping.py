"""Tests for interaction detection and decomposition."""

import math
import warnings

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2

from wsnopt import grouping
from wsnopt.evo import Bounds, FunctionProblem, TrackedObjective
from wsnopt.grouping import dgsc_group, rdg3_group, similarity_matrix
from wsnopt.problem import PowerAllocationProblem, WsnConfig


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


def assert_partition(result, dimension):
    merged = np.concatenate(result.groups) if result.groups else np.empty(0, dtype=int)
    assert sorted(merged.tolist()) == list(range(dimension))


def counted(fn):
    """``fn`` plus a list that grows by one entry per call."""
    calls = []

    def wrapper(x):
        calls.append(1)
        return fn(x)

    return wrapper, calls


def pair_weights(fn, dim, bounds=Bounds(0.0, 15.0)):
    return similarity_matrix(make_objective(fn, dim, bounds), rng=np.random.default_rng(0))


class TestDgInteraction:
    """The pairwise test, as ``similarity_matrix`` applies it to each pair."""

    def test_product_pair_detected_with_unit_perturbation(self):
        # Half the width of [0, 2] is a unit step.
        weights = pair_weights(product_pairs, 2, bounds=Bounds(0.0, 2.0))
        assert weights[0, 1] == pytest.approx(1.0)

    def test_separable_function_has_zero_strength(self):
        assert pair_weights(sphere, 4)[1, 3] == 0.0

    @pytest.mark.parametrize(
        "i, j, expected",
        [(0, 1, True), (0, 2, False), (2, 3, False), (3, 4, True), (1, 4, False)],
    )
    def test_mixed_structure(self, i, j, expected):
        assert bool(pair_weights(mixed, 5)[i, j] != 0.0) is expected

    def test_costs_four_evaluations(self):
        # Two variables: the base point, each single move and the pair move.
        obj = make_objective(product_pairs, 2)
        similarity_matrix(obj, rng=np.random.default_rng(0))
        assert obj.evals_used == 4


class TestRdg:
    """Plain recursive grouping: a cap at the dimension, separables alone."""

    @pytest.fixture(autouse=True)
    def separables_alone(self, monkeypatch):
        monkeypatch.setattr(grouping, "SEPARABLE_PACK", 1)

    def test_sphere_fully_separable(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 10)
        obj = make_objective(sphere, 10)
        result = rdg3_group(obj)
        assert result.sizes == [1] * 10
        assert_partition(result, 10)

    def test_product_blocks_recovered(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 6)
        obj = make_objective(product_pairs, 6)
        result = rdg3_group(obj)
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        }
        assert min(result.sizes) >= 2

    def test_mixed_structure(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 5)
        obj = make_objective(mixed, 5)
        result = rdg3_group(obj)
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({3, 4}),
            frozenset({2}),
        }
        assert [g.tolist() for g in result.groups if len(g) == 1] == [[2]]

    def test_chain_merges_into_one_group(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 8)
        obj = make_objective(rosenbrock, 8)
        result = rdg3_group(obj)
        assert group_sets(result) == {frozenset(range(8))}

    def test_probe_evals_match_budget(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 5)
        fn, calls = counted(mixed)
        obj = make_objective(fn, 5)
        rdg3_group(obj)
        assert obj.evals_used == len(calls)
        assert obj.evals_used > 0


class TestRdg3:
    def test_separable_variables_packed_in_index_order(self, monkeypatch):
        monkeypatch.setattr(grouping, "SEPARABLE_PACK", 3)
        obj = make_objective(sphere, 10)
        result = rdg3_group(obj)
        assert result.sizes == [3, 3, 3, 1]
        assert result.groups[0].tolist() == [0, 1, 2]
        assert result.groups[3].tolist() == [9]
        assert [g.tolist() for g in result.groups] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_small_nonseparable_blocks_untouched_by_cap(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 4)
        obj = make_objective(product_pairs, 6)
        result = rdg3_group(obj)
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        }

    def test_chain_cut_by_size_cap(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 4)
        monkeypatch.setattr(grouping, "SEPARABLE_PACK", 1)
        obj = make_objective(rosenbrock, 12)
        # Separables stand alone, so a group of one would be a separable.
        result = rdg3_group(obj)
        assert len(result.groups) >= 2
        assert max(result.sizes) <= 5
        assert_partition(result, 12)
        assert min(result.sizes) >= 2

    def test_cap_at_dimension_matches_uncapped_grouping(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 8)
        merged_capped = group_sets(rdg3_group(make_objective(rosenbrock, 8)))
        monkeypatch.setattr(grouping, "SIZE_CAP", 1000)
        merged_plain = group_sets(rdg3_group(make_objective(rosenbrock, 8)))
        assert merged_capped == merged_plain

    def test_full_coupling_yields_bounded_groups(self, monkeypatch):
        monkeypatch.setattr(grouping, "SIZE_CAP", 4)
        obj = make_objective(full_coupling, 12)
        result = rdg3_group(obj)
        assert len(result.groups) >= 2
        assert max(result.sizes) <= 5
        assert_partition(result, 12)


class TestSimilarityMatrix:
    def test_block_structure_and_symmetry(self):
        weights = pair_weights(product_pairs, 6)
        assert weights[0, 1] > 0.0
        assert weights[2, 3] > 0.0
        assert weights[4, 5] > 0.0
        assert weights[0, 2] == 0.0
        assert weights[1, 4] == 0.0
        np.testing.assert_array_equal(weights, weights.T)

    # Every move is delta = 7.5 from the origin of [0, 15]: a bilinear pair
    # x_i*x_j has strength delta**2, an adjacent Rosenbrock pair, through its
    # term -200*x_i**2*x_(i+1), has 200*delta**3, and every other pair 0.
    @pytest.mark.parametrize(
        "fn, dim, strengths",
        [
            (mixed, 5, {(0, 1): 7.5**2, (3, 4): 7.5**2}),
            (rosenbrock, 6, {(i, i + 1): 200.0 * 7.5**3 for i in range(5)}),
            (shuffled_products, 6, {(0, 3): 7.5**2, (1, 4): 7.5**2, (2, 5): 7.5**2}),
        ],
        ids=["mixed-5", "rosenbrock-6", "shuffled_products-6"],
    )
    def test_entries_are_pairwise_interaction_strengths(self, fn, dim, strengths):
        expected = np.zeros((dim, dim))
        for (i, j), strength in strengths.items():
            expected[i, j] = expected[j, i] = strength
        np.testing.assert_array_equal(pair_weights(fn, dim), expected)

    def test_separable_function_gives_zero_matrix(self):
        assert not pair_weights(sphere, 5).any()

    def test_full_probe_cost(self):
        dim = 6
        obj = make_objective(product_pairs, dim)
        similarity_matrix(obj, rng=np.random.default_rng(0))
        assert obj.evals_used == 1 + dim + dim * (dim - 1) // 2

    def test_pair_sampling_respects_budget_cap(self):
        obj = make_objective(product_pairs, 6, max_evals=20)
        weights = similarity_matrix(obj, rng=np.random.default_rng(3))
        # cap: 80% of 20 minus the 7 single-point probes leaves 9 pair probes
        assert obj.evals_used == 1 + 6 + 9
        np.testing.assert_array_equal(weights, weights.T)


def sensor_probes(dim, max_evals, group):
    """Outcome of one probe phase on a correlated sensor problem.

    Returns the weights bytes (``group`` false) or the groups of
    ``dgsc_group``, the tracker's ``evals_used`` and ``improvements``, and
    the row count of every probe batch.
    """
    cfg = WsnConfig(num_sensors=dim, correlation=0.5, epsilon=0.1, fading_seed=5)
    obj = TrackedObjective(PowerAllocationProblem(cfg), max_evals)
    batches = []
    probe_batch = obj.probe_batch
    obj.probe_batch = lambda X: batches.append(len(X)) or probe_batch(X)
    rng = np.random.default_rng(11)
    if group:
        out = [g.tolist() for g in dgsc_group(obj, rng=rng).groups]
    else:
        out = similarity_matrix(obj, rng=rng).tobytes()
    return out, obj.evals_used, obj.improvements, batches


class TestProbeBlocks:
    # 450 variables on 5,000 evaluations sample their pairs, partner floor
    # included; 120 variables probe every pair.
    @pytest.mark.parametrize("dim, max_evals", [(450, 5000), (120, 10000)])
    @pytest.mark.parametrize("group", [False, True], ids=["weights", "groups"])
    def test_block_size_changes_no_result(self, monkeypatch, dim, max_evals, group):
        reference = sensor_probes(dim, max_evals, group)
        assert max(reference[3]) == grouping._PROBE_ELEMENTS // dim
        for rows in (1, 7, 10**9):
            monkeypatch.setattr(grouping, "_PROBE_ELEMENTS", rows * dim + dim // 2)
            out, evals_used, improvements, batches = sensor_probes(dim, max_evals, group)
            assert out == reference[0]
            assert evals_used == reference[1]
            assert improvements == reference[2]
            if rows == 10**9:
                assert batches == [1, dim, evals_used - dim - 1]
            else:
                assert max(batches) == rows


class TestDgsc:
    # GROUP_SIZE 2 splits six variables into ceil(6 / 2) = 3 clusters.
    def test_product_blocks_recovered(self, monkeypatch):
        monkeypatch.setattr(grouping, "GROUP_SIZE", 2)
        obj = make_objective(product_pairs, 6)
        result = dgsc_group(obj, rng=np.random.default_rng(0))
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        }

    def test_non_contiguous_blocks_recovered(self, monkeypatch):
        monkeypatch.setattr(grouping, "GROUP_SIZE", 2)
        obj = make_objective(shuffled_products, 6)
        result = dgsc_group(obj, rng=np.random.default_rng(1))
        assert group_sets(result) == {
            frozenset({0, 3}),
            frozenset({1, 4}),
            frozenset({2, 5}),
        }

    def test_isolated_variables_packed_separately(self, monkeypatch):
        monkeypatch.setattr(grouping, "GROUP_SIZE", 3)  # ceil(5 / 3) = 2 clusters
        obj = make_objective(mixed, 5)
        result = dgsc_group(obj, rng=np.random.default_rng(2))
        assert group_sets(result) == {
            frozenset({0, 1}),
            frozenset({3, 4}),
            frozenset({2}),
        }
        # Two clusters, so the group of one is the packed isolated variable.
        assert result.groups[-1].tolist() == [2]

    def test_zero_matrix_falls_back_to_packing(self, monkeypatch):
        monkeypatch.setattr(grouping, "SEPARABLE_PACK", 4)
        obj = make_objective(sphere, 10)
        result = dgsc_group(obj, rng=np.random.default_rng(0))
        assert [g.tolist() for g in result.groups] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_default_group_count_scales_with_dimension(self):
        # ceil(6 / 100) == 1, so everything connected lands in one cluster
        obj = make_objective(product_pairs, 6)
        result = dgsc_group(obj, rng=np.random.default_rng(0))
        assert group_sets(result) == {frozenset(range(6))}
        assert math.ceil(250 / 100) == 3

    def test_deterministic_for_fixed_seed(self, monkeypatch):
        monkeypatch.setattr(grouping, "GROUP_SIZE", 2)
        first = dgsc_group(make_objective(shuffled_products, 6), rng=np.random.default_rng(7))
        second = dgsc_group(make_objective(shuffled_products, 6), rng=np.random.default_rng(7))
        assert group_sets(first) == group_sets(second)

    def test_probe_evals_match_budget(self, monkeypatch):
        monkeypatch.setattr(grouping, "GROUP_SIZE", 2)
        fn, calls = counted(product_pairs)
        obj = make_objective(fn, 6)
        result = dgsc_group(obj, rng=np.random.default_rng(0))
        assert obj.evals_used == len(calls) == 1 + 6 + 15
        assert_partition(result, 6)


def kmeans2_result(data, k, rng):
    """scipy's centers and labels for ``data``, and whether it found a
    cluster empty."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(invalid="ignore"):
        warnings.simplefilter("always")
        centers, labels = kmeans2(data, k, minit="++", seed=rng)
    return centers, labels, any("clusters is empty" in str(w.message) for w in caught)


class TestKmeans:
    """``_kmeans`` against the ``kmeans2`` call it replaced, on twin generators."""

    @staticmethod
    def assert_matches_kmeans2(data, k, seed) -> bool:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        expected_centers, expected_labels, emptied = kmeans2_result(data, k, theirs)
        # Warnings are errors: an emptied cluster passes without one.
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            centers, labels = grouping._kmeans(data, k, ours)
        np.testing.assert_array_equal(labels, expected_labels)
        # Same labels, so each center is the same sum over the same rows.
        np.testing.assert_array_equal(centers, expected_centers)
        assert ours.random() == theirs.random()
        return emptied

    # dgsc clusters L variables into k = ceil(L / 100) groups by k unit-norm
    # features; 800 x 8 is L = 800, and from 9 features on numpy's own sums
    # would switch to pairwise blocks.
    @pytest.mark.parametrize("rows, k", [(300, 3), (800, 8), (900, 10), (500, 12)])
    def test_unit_norm_embeddings_match_kmeans2(self, rows, k):
        rng = np.random.default_rng(rows + k)
        for seed in range(10):
            data = rng.normal(size=(rows, k))
            data /= np.linalg.norm(data, axis=1, keepdims=True)
            self.assert_matches_kmeans2(data, k, seed)

    @pytest.mark.parametrize("distinct", [1, 2, 3])
    def test_duplicated_points_that_empty_a_cluster_match_kmeans2(self, distinct):
        # Fewer distinct points than clusters: seeding repeats a center, and
        # the copy with the higher index loses every point.
        rng = np.random.default_rng(distinct)
        emptied = []
        for seed in range(10):
            data = rng.normal(size=(distinct, 3))[rng.integers(0, distinct, size=200)]
            emptied.append(self.assert_matches_kmeans2(data, 4, seed))
        assert all(emptied)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        data = np.ones((5, 2))
        data[3, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            grouping._kmeans(data, 2, np.random.default_rng(0))
