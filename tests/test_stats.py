"""Tests for the nonparametric comparison statistics."""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import wsnopt
from wsnopt.stats import (
    _mean_ranks,
    friedman_ranks,
    load_reference_table,
    paired_rank_tests,
    read_table,
    wilcoxon_signed_rank,
)


def brute_force_two_sided_p(diffs):
    """Independent oracle: enumerate every sign assignment exactly."""
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0.0]
    ranks = scipy.stats.rankdata(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    observed = min(w_plus, w_minus)
    count = 0
    total = 0
    for signs in itertools.product([0, 1], repeat=len(ranks)):
        mask = np.array(signs, dtype=bool)
        w = ranks[mask].sum()
        stat = min(w, ranks.sum() - w)
        total += 1
        if w <= observed:
            count += 1
    return min(1.0, 2.0 * count / total)


class TestFriedmanRanks:
    def test_two_column_ordering(self):
        result = friedman_ranks([[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_allclose(result.average_ranks, [1.0, 2.0])
        np.testing.assert_array_equal(result.order, [1, 2])

    def test_tied_values_get_mean_ranks(self):
        result = friedman_ranks([[3.0, 3.0], [1.0, 2.0]])
        np.testing.assert_allclose(result.row_ranks[0], [1.5, 1.5])

    def test_row_ranks_sum_to_constant(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(10, 4))
        result = friedman_ranks(matrix)
        np.testing.assert_allclose(result.row_ranks.sum(axis=1), np.full(10, 10.0))

    def test_invariant_under_monotone_row_transforms(self):
        rng = np.random.default_rng(1)
        matrix = rng.uniform(0.1, 5.0, size=(8, 3))
        warped = matrix.copy()
        warped[2] = np.exp(warped[2])
        warped[5] = warped[5] ** 3
        a = friedman_ranks(matrix)
        b = friedman_ranks(warped)
        np.testing.assert_allclose(a.average_ranks, b.average_ranks)

    @pytest.mark.parametrize(
        "bad", [[[1.0, 2.0]], [[1.0], [2.0]], [[1.0, np.inf], [2.0, 3.0]]]
    )
    def test_invalid_matrices_rejected(self, bad):
        with pytest.raises(ValueError):
            friedman_ranks(bad)


class TestMeanRanks:
    def test_equal_to_scipy_rankdata_on_tied_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            # Few distinct values, so most draws hold ties.
            values = rng.integers(0, 6, size=n) * rng.choice([0.5, 1.0, 3.25])
            np.testing.assert_array_equal(
                _mean_ranks(values), scipy.stats.rankdata(values)
            )
            matrix = rng.integers(0, 4, size=(n, 5)) / 7.0
            np.testing.assert_array_equal(
                _mean_ranks(matrix), scipy.stats.rankdata(matrix, axis=1)
            )

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # Run from the directory holding the package this suite imports.
        source = Path(wsnopt.__file__).resolve().parents[1]
        code = ("import sys, wsnopt; print([m for m in ('scipy.stats', 'scipy.cluster',"
                " 'scipy.spatial') if m in sys.modules])")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd=source,
        ).stdout
        assert out.strip() == "[]"


class TestWilcoxonSignedRank:
    def test_identical_samples_are_degenerate(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.p_value == 1.0
        assert result.n_used == 0

    def test_too_few_nonzero_differences(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = np.arange(8.0)
        y = np.zeros(8)
        for first, second in ((np.append(x, bad), np.append(y, 1.0)),
                              (np.append(x, 1.0), np.append(y, bad))):
            with pytest.raises(ValueError, match="finite"):
                wilcoxon_signed_rank(first, second)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_exact_path_matches_enumeration(self):
        x = np.array([3.1, 0.4, 2.9, 5.0, 1.2, 7.7, 0.6, 4.4, 2.2, 6.6])
        y = np.array([1.0, 1.1, 0.3, 4.1, 3.3, 2.0, 0.1, 1.8, 4.0, 0.5])
        result = wilcoxon_signed_rank(x, y)
        assert result.exact
        assert result.p_value == pytest.approx(brute_force_two_sided_p(x - y))

    def test_exact_path_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        ours = wilcoxon_signed_rank(x, y)
        reference = scipy.stats.wilcoxon(x, y, alternative="two-sided", method="exact")
        assert ours.exact
        assert ours.p_value == pytest.approx(reference.pvalue)
        assert ours.statistic == pytest.approx(reference.statistic)

    def test_large_sample_matches_scipy_approximation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.3, 1.0, size=40)
        y = rng.normal(0.0, 1.0, size=40)
        ours = wilcoxon_signed_rank(x, y)
        reference = scipy.stats.wilcoxon(
            x, y, alternative="two-sided", method="approx", correction=True
        )
        assert not ours.exact
        assert ours.p_value == pytest.approx(reference.pvalue)

    def test_ties_force_the_approximation(self):
        x = np.array([2.0, 3.0, 5.0, 9.0, 11.0, 13.0, 4.0, 8.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.0, 4.0])
        result = wilcoxon_signed_rank(x, y)
        assert not result.exact
        assert 0.0 < result.p_value <= 1.0

    def test_antisymmetric_in_the_sample_order(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        assert wilcoxon_signed_rank(x, y).p_value == pytest.approx(
            wilcoxon_signed_rank(y, x).p_value
        )

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        a = wilcoxon_signed_rank(x, y)
        b = wilcoxon_signed_rank(7.0 * x, 7.0 * y)
        assert a.p_value == pytest.approx(b.p_value)


class TestReferenceTable:
    def test_shape_and_order(self):
        cases, algorithms, matrix = load_reference_table()
        assert len(cases) == 24
        assert algorithms == ["mlshade-spa", "dgsc-decc", "cbcc-rdg3", "eade"]
        assert matrix.shape == (24, 4)
        assert np.all(np.isfinite(matrix))
        assert cases[0] == "L300-rho0-eps0.1"
        assert cases[-1] == "L800-rho0-eps0.001"

    def test_average_ranks_reproduce_published_summary(self):
        _, _, matrix = load_reference_table()
        result = friedman_ranks(matrix)
        np.testing.assert_allclose(
            result.average_ranks, [1.75, 2.96, 1.33, 3.96], atol=0.005
        )
        np.testing.assert_allclose(
            result.normalized, [1.31, 2.22, 1.00, 2.97], atol=0.01
        )
        np.testing.assert_array_equal(result.order, [2, 3, 1, 4])

    def test_rank_paired_tests_against_best_algorithm(self):
        _, algorithms, matrix = load_reference_table()
        baseline, results = paired_rank_tests(friedman_ranks(matrix))
        assert baseline == algorithms.index("cbcc-rdg3")
        assert set(results) == {0, 1, 3}
        assert all(r.p_value <= 0.05 for r in results.values())
        assert results[0].p_value == pytest.approx(0.035648561930467546, rel=1e-9)
        assert results[1].p_value == pytest.approx(4.2637062678318534e-05, rel=1e-9)
        assert results[3].p_value == pytest.approx(7.65374093920025e-06, rel=1e-9)

    def test_baseline_is_first_of_tied_best_columns(self):
        baseline, results = paired_rank_tests(friedman_ranks([[1.0, 1.0, 2.0]] * 5))
        assert baseline == 0
        assert set(results) == {1, 2}
        assert results[1].n_used == 0 and results[1].p_value == 1.0
        assert results[2].n_used == 5


class TestReadTable:
    def test_first_column_holds_case_ids_whatever_its_header(self):
        cases, names, matrix = read_table(["id,a,b", "c1,1.0,2.0", "c2,4.0,3.0"])
        assert cases == ["c1", "c2"]
        assert names == ["a", "b"]
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [4.0, 3.0]])

    @pytest.mark.parametrize("lines", [[], ["", "  "]])
    def test_no_header_row_rejected(self, lines):
        with pytest.raises(ValueError, match="need a header row"):
            read_table(lines)

    def test_shape_and_finiteness_left_to_friedman_ranks(self):
        _, _, matrix = read_table(["case,a,b", "c1,1.0,nan"])
        assert matrix.shape == (1, 2)
