"""Nonparametric comparison of algorithms over a grid of problem cases.

A result matrix holds one row per case and one column per algorithm, each
entry being that algorithm's mean best objective on the case.  Friedman
average ranks summarize the ordering; paired signed-rank tests compare
algorithms against the best-ranked one.  The pairwise tests run on the
per-case ranks rather than raw values, which keeps wildly different
objective scales across cases from swamping the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.special import ndtr

DESCRIPTIVE_COLUMNS = {"case", "sensors", "correlation", "epsilon", "rho"}


@dataclass
class FriedmanResult:
    """Average ranks per algorithm plus derived orderings."""

    average_ranks: np.ndarray
    normalized: np.ndarray
    order: np.ndarray
    row_ranks: np.ndarray


@dataclass
class WilcoxonResult:
    """Two-sided signed-rank test outcome."""

    p_value: float
    statistic: float
    n_used: int
    exact: bool


def _mean_ranks(values: np.ndarray) -> np.ndarray:
    """Ascending ranks from 1 along the last axis, ties sharing their mean rank.

    A value with ``less`` smaller entries and ``ties`` equal ones (itself
    included) holds ranks ``less + 1`` to ``less + ties``, whose mean is
    ``less + (ties + 1) / 2``.
    """
    column = values[..., :, None]
    row = values[..., None, :]
    less = np.count_nonzero(row < column, axis=-1)
    ties = np.count_nonzero(row == column, axis=-1)
    return less + 0.5 * (ties + 1)


def friedman_ranks(matrix) -> FriedmanResult:
    """Row-wise ascending ranks (mean ties), averaged over the rows.

    ``normalized`` divides by the best average rank and ``order`` gives
    the ordinal placement of each column (1 = best).  This is the one check
    of a result table's shape (at least 2x2) and finiteness.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2 or matrix.shape[1] < 2:
        raise ValueError("need a matrix with at least 2 rows and 2 columns")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("table entries must be finite")
    row_ranks = _mean_ranks(matrix)
    average = row_ranks.mean(axis=0)
    order = np.empty(len(average), dtype=int)
    order[np.argsort(average, kind="stable")] = np.arange(1, len(average) + 1)
    return FriedmanResult(average, average / average.min(), order, row_ranks)


def _exact_p_value(ranks: np.ndarray, statistic: float, n: int) -> float:
    """Exact two-sided tail from the full sign-assignment distribution.

    Valid only for tie-free integer ranks 1..n; counts the number of sign
    assignments whose smaller rank sum is at most the observed one.
    """
    max_sum = n * (n + 1) // 2
    counts = np.zeros(max_sum + 1)
    counts[0] = 1.0
    for r in np.sort(ranks.astype(int)):
        counts[r:] = counts[r:] + counts[:-r]
    tail = counts[: int(round(statistic)) + 1].sum() / 2.0**n
    return min(1.0, 2.0 * tail)


def wilcoxon_signed_rank(x, y) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Zero differences are dropped.  The exact distribution is used up to 25
    untied differences; otherwise a normal approximation with tie
    correction in the variance and a continuity correction.  All-zero
    differences give p = 1 and ``n_used == 0`` rather than an error.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need two one-dimensional samples of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")
    diffs = x - y
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(1.0, 0.0, 0, exact=False)
    if n < 5:
        raise ValueError("need at least 5 nonzero differences")

    magnitudes = np.abs(diffs)
    ranks = _mean_ranks(magnitudes)
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    statistic = min(w_plus, w_minus)
    has_ties = len(np.unique(magnitudes)) < n

    if n <= 25 and not has_ties:
        return WilcoxonResult(_exact_p_value(ranks, statistic, n), statistic, n, exact=True)

    mean = n * (n + 1) / 4.0
    _, tie_sizes = np.unique(magnitudes, return_counts=True)
    # Positive: the tie sum is at most n^3 - n, so this is >= n(n+1)^2/16.
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - np.sum(
        tie_sizes**3 - tie_sizes
    ) / 48.0
    z = (statistic - mean + 0.5) / np.sqrt(variance)
    p = min(1.0, 2.0 * float(ndtr(z)))
    return WilcoxonResult(p, statistic, n, exact=False)


def paired_rank_tests(ranks: FriedmanResult) -> tuple[int, dict[int, WilcoxonResult]]:
    """``(baseline, tests)``: signed-rank tests of every column against the
    best-ranked one, on case ranks.

    The baseline is the column with the lowest average rank (the first, on a
    tie).  Each other column's row ranks are paired with the baseline's.
    """
    baseline = int(np.argmin(ranks.average_ranks))
    row_ranks = ranks.row_ranks
    return baseline, {
        col: wilcoxon_signed_rank(row_ranks[:, col], row_ranks[:, baseline])
        for col in range(row_ranks.shape[1])
        if col != baseline
    }


def read_table(lines):
    """(case ids, algorithm names, matrix) from the lines of a case-by-algorithm CSV.

    Blank lines are skipped.  The first column holds the case ids, whatever
    its header; the other descriptive columns are skipped and the rest are
    algorithms.  Case ids and algorithm names must not repeat.  The matrix's
    shape and finiteness are left to ``friedman_ranks``.
    """
    rows = [line.strip().split(",") for line in lines if line.strip()]
    if not rows:
        raise ValueError("need a header row")
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        raise ValueError(f"every row needs {len(header)} cells, one per header column")
    columns = [j for j, name in enumerate(header) if j and name not in DESCRIPTIVE_COLUMNS]
    cases, names = [row[0] for row in body], [header[j] for j in columns]
    for kind, values in (("case ids", cases), ("algorithm names", names)):
        repeats = sorted({v for v in values if values.count(v) > 1})
        if repeats:
            raise ValueError(f"{kind} must not repeat: {repeats}")
    return cases, names, np.array([[float(row[j]) for j in columns] for row in body])


def load_reference_table():
    """Bundled grid of published mean best objectives per case and algorithm,
    as ``read_table`` returns it: one row per case, one column per algorithm.
    """
    path = resources.files("wsnopt").joinpath("data/reference_means.csv")
    with path.open("r", encoding="utf-8") as handle:
        return read_table(handle)
