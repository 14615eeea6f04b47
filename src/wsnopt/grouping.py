"""Variable-interaction discovery and decomposition into subproblem groups.

One finite-difference interaction test serves two groupers: recursive
differential grouping, which applies it to index sets (with a group-size
cap and separable-variable packing), and a spectral clustering
variant, which applies it to pairs and embeds the resulting
interaction-strength graph.  Every probe is charged to the shared evaluation
budget through the tracked objective, with the penalty iteration pinned so
detection is consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .evo import TrackedObjective

# The groupers' published settings: rdg3 cuts a merged group once it holds
# more than SIZE_CAP variables, both groupers pack separable variables into
# groups of SEPARABLE_PACK, and dgsc clusters the connected variables into
# ceil(dimension / GROUP_SIZE) groups.
SIZE_CAP = 50
SEPARABLE_PACK = 100
GROUP_SIZE = 100
# Pair sampling of ``similarity_matrix``: every pair is probed up to this
# many variables, and above it this fraction of the pairs, with at least
# MIN_PARTNERS partners per variable; probes never take more than
# PROBE_BUDGET_FRACTION of the evaluation budget.
FULL_PROBE_DIMENSION = 400
SAMPLE_FRACTION = 0.25
MIN_PARTNERS = 3
PROBE_BUDGET_FRACTION = 0.8
# Elements of the one buffer ``similarity_matrix`` probes through.
_PROBE_ELEMENTS = 1 << 16
# Lloyd steps of dgsc's k-means, after its k-means++ seeding.
KMEANS_STEPS = 10


@dataclass
class GroupingResult:
    """Partition of the variable indices into subproblem groups."""

    groups: list[np.ndarray]

    @property
    def sizes(self) -> list[int]:
        return [len(g) for g in self.groups]


def _interaction(f_base, f_a, f_b, f_ab, dimension: int):
    """Finite-difference interaction test between two sets of variables.

    ``f_a`` and ``f_b`` are the values after moving set a or set b away from
    the base point and ``f_ab`` after moving both; for additively separable
    sets ``lam = |(f_a - f_base) - (f_ab - f_b)|`` is zero.  Returns ``lam``
    and whether it exceeds the detection threshold, ``1e-12 * dimension``
    times the smallest probe magnitude (at least 1).  The values are scalars
    or arrays with one entry per test, and so are the results.
    """
    lam = np.abs((f_a - f_base) - (f_ab - f_b))
    smallest = np.abs(np.broadcast_arrays(f_base, f_a, f_b, f_ab)).min(axis=0)
    return lam, lam > 1e-12 * dimension * np.maximum(smallest, 1.0)


def _lower_corner(objective: TrackedObjective) -> np.ndarray:
    """Base point of every interaction probe: the box's lower-bound corner."""
    return np.full(objective.dimension, objective.bounds.lower, dtype=float)


def _pack(indices: list[int]) -> list[np.ndarray]:
    """``indices`` in order, in groups of ``SEPARABLE_PACK``."""
    return [
        np.array(indices[k : k + SEPARABLE_PACK], dtype=int)
        for k in range(0, len(indices), SEPARABLE_PACK)
    ]


def rdg3_group(objective: TrackedObjective) -> GroupingResult:
    """Recursive differential grouping with capped groups and packed separables.

    Each variable not yet grouped starts a nucleus, moved to the upper bound
    face; candidate sets are moved to the box midpoint, so the two shifts
    never coincide and additively separable contributions cancel exactly.
    The nucleus grows in passes, one per round of growth, each over every
    variable not yet grouped: sets are popped depth first, left half first,
    and probed only while the nucleus is within ``SIZE_CAP``.  An interacting
    set is halved, and an interacting variable joins the nucleus, which is
    then probed again.  A merged group is thus cut as soon as it exceeds
    ``SIZE_CAP``, deliberately breaking long interaction chains so that
    subsolvers face bounded subproblem sizes.  Separable variables are
    packed, in index order, into groups of ``SEPARABLE_PACK``.  With
    ``SIZE_CAP`` >= dimension and ``SEPARABLE_PACK`` = 1 this is plain
    recursive differential grouping: merged groups closed under detected
    interaction, and every separable variable on its own.
    """
    bounds = objective.bounds
    base = _lower_corner(objective)
    mid = bounds.lower + 0.5 * bounds.width
    f_base = objective.probe(base)
    remaining = list(range(objective.dimension))
    groups: list[np.ndarray] = []
    separable: list[int] = []
    while remaining:
        nucleus = [remaining.pop(0)]
        x1 = base.copy()
        x1[nucleus] = bounds.upper
        f_nucleus = objective.probe(x1)
        grew = True
        while grew and remaining and len(nucleus) <= SIZE_CAP:
            grew, pending = False, [list(remaining)]
            while pending and len(nucleus) <= SIZE_CAP:
                candidates = pending.pop()
                rows = np.stack([base, base])
                rows[:, candidates] = mid
                rows[1, nucleus] = bounds.upper
                f2, f12 = objective.probe_batch(rows)
                if not _interaction(f_base, f_nucleus, f2, f12, objective.dimension)[1]:
                    continue
                if len(candidates) > 1:
                    half = len(candidates) // 2
                    pending += [candidates[half:], candidates[:half]]
                    continue
                nucleus.append(candidates[0])
                remaining.remove(candidates[0])
                x1[candidates[0]] = bounds.upper
                f_nucleus = objective.probe(x1)
                grew = True
        if len(nucleus) == 1:
            separable.append(nucleus[0])
        else:
            groups.append(np.array(sorted(nucleus), dtype=int))
    return GroupingResult(groups + _pack(separable))


def _flat_pair(i, j, dim: int):
    """Row-major index of the pair ``i < j`` among all pairs of ``range(dim)``."""
    return i * (2 * dim - i - 1) // 2 + (j - i - 1)


def _sample_pairs(dim: int, target: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted flat indices of ``target`` sampled pairs of ``range(dim)``."""
    all_pairs = dim * (dim - 1) // 2
    chosen = np.empty(0, dtype=np.int64)
    # Connectivity floor: a few random partners for every variable.
    if target >= MIN_PARTNERS * dim // 2:
        partners = []
        for i in range(dim):
            p = rng.choice(dim - 1, size=min(MIN_PARTNERS, dim - 1), replace=False)
            j = p + (p >= i)
            partners.append(_flat_pair(np.minimum(i, j), np.maximum(i, j), dim))
        chosen = np.unique(np.concatenate(partners))
    # Then random pairs, in the order drawn, until the target is met.  The
    # first ``need + len(chosen)`` draws hold at least ``need`` fresh ones.
    need = max(target - len(chosen), 0)
    drawn = rng.permutation(all_pairs)[: need + len(chosen)]
    taken = np.zeros(all_pairs, dtype=bool)
    taken[chosen] = True
    fresh = drawn[~taken[drawn]][:need]
    return np.sort(np.concatenate([chosen, fresh]))[:target]


def similarity_matrix(objective: TrackedObjective, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix of pairwise interaction strengths.

    All pairs are probed up to ``FULL_PROBE_DIMENSION`` variables; beyond
    that a random ``SAMPLE_FRACTION`` of the pairs is sampled (with at least
    ``MIN_PARTNERS`` sampled partners per variable) and the matrix is
    symmetrized.  The total probing cost is additionally capped at
    ``PROBE_BUDGET_FRACTION`` of the overall evaluation budget so a solver
    phase can still follow.  Pair ``(i, j)`` is tested by ``_interaction``
    with both variables moved half the box width from the lower-bound
    corner; entries at or below the threshold are zeroed.

    Singles and pairs are probed in blocks of rows through one reused buffer
    of at most ``_PROBE_ELEMENTS`` elements (512 KB; one row if a row is
    longer): each block moves its entries, is evaluated, and has the base
    written back.  A row's value does not depend on its block, so the block
    size changes no result.  Besides the returned ``dim x dim`` matrix, the
    transient memory is that buffer, the row and column of each probed pair,
    and, when pairs are sampled, one permutation of all the pairs.
    The kernel works through each block in chunks whose temporaries stay
    under glibc's 128 KB mmap threshold, so they are reused from the heap
    instead of arriving as fresh zeroed pages.
    """
    dim = objective.dimension
    base = _lower_corner(objective)
    delta = 0.5 * objective.bounds.width
    all_pairs = dim * (dim - 1) // 2
    block = max(1, _PROBE_ELEMENTS // dim)
    buffer = np.repeat(base[None, :], min(block, max(dim, all_pairs)), axis=0)

    def probe(*columns: np.ndarray):
        """Each block of columns, and the values with ``delta`` added there."""
        for start in range(0, len(columns[0]), block):
            moved = [c[start : start + block] for c in columns]
            k = np.arange(len(moved[0]))
            for c in moved:
                buffer[k, c] += delta
            values = objective.probe_batch(buffer[: len(k)])
            for c in moved:
                buffer[k, c] = base[c]
            yield moved, values

    f_base = objective.probe(base)
    f_single = np.concatenate([values for _, values in probe(np.arange(dim))])

    sample_fraction = 1.0 if dim <= FULL_PROBE_DIMENSION else SAMPLE_FRACTION
    cap = int(PROBE_BUDGET_FRACTION * objective.max_evals) - (dim + 1)
    target = min(int(round(sample_fraction * all_pairs)), max(cap, 0), objective.remaining)
    chosen = np.arange(all_pairs) if target == all_pairs else _sample_pairs(dim, target, rng)

    # Row of each flat pair index from the row offsets, then its column.
    offsets = _flat_pair(np.arange(dim - 1), np.arange(1, dim), dim)
    rows = np.searchsorted(offsets, chosen, side="right") - 1
    cols = chosen - offsets[rows] + rows + 1
    weights = np.zeros((dim, dim))
    for (i, j), f_pair in probe(rows, cols):
        lam, hit = _interaction(f_base, f_single[i], f_single[j], f_pair, dim)
        weights[i[hit], j[hit]] = weights[j[hit], i[hit]] = lam[hit]
    return weights


def _kmeans(data: np.ndarray, k: int, rng: np.random.Generator) -> tuple:
    """Centers and each row's label: k-means++ seeding (Arthur and
    Vassilvitskii, SODA 2007), then ``KMEANS_STEPS`` Lloyd steps, drawing and
    computing as scipy's ``kmeans2(data, k, minit="++")`` does, in its order,
    so both and the generator's state match it.  Squared distances add one
    feature at a time; a row joins its nearest center, the lowest index on a
    tie; a center moves to the mean of its rows, summed in row order, and an
    empty cluster keeps its center.  From 5 features on, ``kmeans2`` labels
    by ``|x|^2 + |c|^2 - 2 x.c`` and may break a near-tie another way.
    """
    if not np.isfinite(data).all():
        raise ValueError("k-means data must not contain infs or NaNs")

    def squared_distances(centers: np.ndarray) -> np.ndarray:
        return sum((centers[:, j, None] - data[:, j]) ** 2 for j in range(data.shape[1]))

    centers = data[[rng.integers(len(data))]]
    for _ in range(1, k):
        d2 = squared_distances(centers).min(axis=0)
        cumulative = (d2 / d2.sum()).cumsum()
        centers = np.concatenate([centers, data[[np.searchsorted(cumulative, rng.uniform())]]])
    for _ in range(KMEANS_STEPS):
        labels = squared_distances(centers).argmin(axis=0)
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        for j, column in enumerate(data.T):
            centers[filled, j] = np.bincount(labels, column, k)[filled] / counts[filled]
    return centers, labels


def dgsc_group(objective: TrackedObjective, rng: np.random.Generator) -> GroupingResult:
    """Decomposition by spectral clustering of the interaction-strength graph.

    Variables with no detected interaction are treated as separable and
    packed in index order into groups of ``SEPARABLE_PACK``; the connected
    remainder is embedded with the normalized graph Laplacian and split into
    ``ceil(dimension / GROUP_SIZE)`` clusters (at most one per variable) by
    k-means on the leading eigenvectors.  An entirely empty graph falls back
    to packing every variable.
    """
    weights = similarity_matrix(objective, rng=rng)
    degree = weights.sum(axis=1)
    isolated = np.flatnonzero(degree == 0.0)
    connected = np.flatnonzero(degree > 0.0)

    groups: list[np.ndarray] = []
    if connected.size:
        # I - D^-1/2 W D^-1/2, built in place in the submatrix copy in the
        # usual order of operations, so the peak is about two dim x dim
        # matrices; ``0.0 - x``, not ``-x``, keeps zeros positive as I - x does.
        laplacian = weights[np.ix_(connected, connected)]
        del weights
        inv_sqrt = 1.0 / np.sqrt(laplacian.sum(axis=1))
        laplacian *= inv_sqrt[:, None]
        laplacian *= inv_sqrt[None, :]
        diagonal = 1.0 - laplacian.diagonal()
        np.subtract(0.0, laplacian, out=laplacian)
        np.fill_diagonal(laplacian, diagonal)
        k_eff = min(math.ceil(objective.dimension / GROUP_SIZE), len(connected))
        _, vectors = eigh(laplacian, subset_by_index=(0, k_eff - 1))
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        embedding = vectors / norms
        if k_eff == 1:
            labels = np.zeros(len(connected), dtype=int)
        else:
            _, labels = _kmeans(embedding, k_eff, rng)
        for label in np.unique(labels):
            groups.append(np.sort(connected[labels == label]))
    groups.extend(_pack(isolated.tolist()))
    return GroupingResult(groups)
