"""Variable-interaction discovery and decomposition into subproblem groups.

Three graders of structure detection live here: a pairwise finite-difference
interaction test, recursive differential grouping over index sets (with an
optional group-size cap and separable-variable packing), and a spectral
clustering variant that embeds the pairwise interaction-strength graph.
Every probe is charged to the shared evaluation budget through the tracked
objective, with the penalty iteration pinned so detection is consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.cluster.vq import kmeans2
from scipy.linalg import eigh

from .evo import TrackedObjective

# Pair sampling of ``similarity_matrix``: every pair is probed up to this
# many variables, and above it this fraction of the pairs, with at least
# MIN_PARTNERS partners per variable; probes never take more than
# PROBE_BUDGET_FRACTION of the evaluation budget.
FULL_PROBE_DIMENSION = 400
SAMPLE_FRACTION = 0.25
MIN_PARTNERS = 3
PROBE_BUDGET_FRACTION = 0.8


@dataclass
class GroupingResult:
    """Partition of the variable indices plus probing metadata."""

    groups: list[np.ndarray]
    separable: np.ndarray
    probe_evals: int = 0

    @property
    def sizes(self) -> list[int]:
        return [len(g) for g in self.groups]

    def assert_partition(self, dimension: int):
        merged = np.concatenate(self.groups) if self.groups else np.empty(0, dtype=int)
        if sorted(merged.tolist()) != list(range(dimension)):
            raise AssertionError("groups do not partition the variable indices")


def _adaptive_threshold(f_values, dimension: int):
    """Detection threshold scaled by dimension and function magnitude.

    ``f_values`` holds the probe values of one test, each a scalar or an
    array with one entry per test; the result has the same shape.
    """
    alpha = 1e-12 * dimension
    smallest = np.abs(np.broadcast_arrays(*f_values)).min(axis=0)
    return alpha * np.maximum(smallest, 1.0)


def _lower_corner(objective: TrackedObjective) -> np.ndarray:
    """Base point of every interaction probe: the box's lower-bound corner."""
    return np.full(objective.dimension, objective.bounds.lower, dtype=float)


def dg_interaction(
    objective: TrackedObjective,
    i: int,
    j: int,
    delta: float | None = None,
    threshold: float | None = None,
) -> tuple[bool, float]:
    """Pairwise finite-difference interaction test between variables i and j.

    Compares the change from perturbing variable ``i`` alone with the same
    perturbation applied after variable ``j`` has moved; a mismatch above the
    detection threshold means the pair is non-separable.  Both moves start
    from the lower-bound corner.  ``delta`` defaults to half the box width
    and ``threshold`` to the adaptive one.  Costs exactly four budgeted
    probe evaluations.
    """
    if i == j:
        raise ValueError("interaction test needs two distinct variables")
    base = _lower_corner(objective)
    delta = 0.5 * objective.bounds.width if delta is None else float(delta)
    x_i = base.copy()
    x_i[i] += delta
    x_j = base.copy()
    x_j[j] += delta
    x_ij = x_i.copy()
    x_ij[j] += delta
    f0, fi, fj, fij = objective.probe_batch(np.stack([base, x_i, x_j, x_ij]))
    lam = abs((fi - f0) - (fij - fj))
    if threshold is None:
        threshold = _adaptive_threshold((f0, fi, fj, fij), objective.dimension)
    return bool(lam > threshold), float(lam)


class _SetTester:
    """Set-level interaction tests against a growing nucleus of variables.

    The nucleus is perturbed to the upper bound face and candidate sets to
    the box midpoint, so the two shifts never coincide and additively
    separable contributions cancel exactly.
    """

    def __init__(self, objective: TrackedObjective):
        self.objective = objective
        bounds = objective.bounds
        self.base = _lower_corner(objective)
        self.high = bounds.upper
        self.mid = bounds.lower + 0.5 * bounds.width
        self.f_base = objective.probe(self.base)

    def nucleus_value(self, nucleus: list[int]) -> float:
        x = self.base.copy()
        x[nucleus] = self.high
        return self.objective.probe(x)

    def interacts(self, nucleus: list[int], f_nucleus: float, candidate) -> bool:
        candidate = list(candidate)
        x2 = self.base.copy()
        x2[candidate] = self.mid
        x12 = x2.copy()
        x12[nucleus] = self.high
        f2, f12 = self.objective.probe_batch(np.stack([x2, x12]))
        lam = abs((f_nucleus - self.f_base) - (f12 - f2))
        threshold = _adaptive_threshold(
            (self.f_base, f_nucleus, f2, f12), self.objective.dimension
        )
        return bool(lam > threshold)


def _recursive_grouping(
    objective: TrackedObjective, cap: int
) -> tuple[list[list[int]], list[int], int]:
    """Core recursive differential grouping loop of rdg3."""
    used_before = objective.evals_used
    dim = objective.dimension
    tester = _SetTester(objective)

    remaining = list(range(dim))
    merged_groups: list[list[int]] = []
    separable: list[int] = []

    while remaining:
        nucleus = [remaining.pop(0)]
        f_nucleus = tester.nucleus_value(nucleus)

        def absorb(candidates: list[int]) -> bool:
            """Bisection search absorbing every direct interactor found."""
            nonlocal f_nucleus
            if len(nucleus) > cap or not candidates:
                return False
            if not tester.interacts(nucleus, f_nucleus, candidates):
                return False
            if len(candidates) == 1:
                var = candidates[0]
                nucleus.append(var)
                remaining.remove(var)
                f_nucleus = tester.nucleus_value(nucleus)
                return True
            half = len(candidates) // 2
            left = absorb(candidates[:half])
            right = absorb(candidates[half:])
            return left or right

        while remaining and len(nucleus) <= cap:
            if not absorb(list(remaining)):
                break

        if len(nucleus) == 1:
            separable.append(nucleus[0])
        else:
            merged_groups.append(sorted(nucleus))

    return merged_groups, separable, objective.evals_used - used_before


def _pack(indices: list[int], pack_size: int) -> list[np.ndarray]:
    return [
        np.array(indices[k : k + pack_size], dtype=int)
        for k in range(0, len(indices), pack_size)
    ]


def rdg3_group(
    objective: TrackedObjective,
    size_cap: int = 50,
    separable_pack: int = 100,
) -> GroupingResult:
    """Recursive differential grouping with capped groups and packed separables.

    A growing merged group is cut and emitted as soon as it exceeds
    ``size_cap``, deliberately breaking long interaction chains so that
    downstream subsolvers face bounded subproblem sizes.  Separable
    variables are packed, in index order, into groups of ``separable_pack``.
    With ``size_cap >= dimension`` and ``separable_pack=1`` this is plain
    recursive differential grouping: merged groups closed under detected
    interaction, and every separable variable on its own.
    """
    if size_cap < 1 or separable_pack < 1:
        raise ValueError("size_cap and separable_pack must be positive")
    merged, separable, evals = _recursive_grouping(objective, int(size_cap))
    groups = [np.array(g, dtype=int) for g in merged]
    groups.extend(_pack(separable, separable_pack))
    return GroupingResult(groups, np.array(separable, dtype=int), evals)


def _flat_pair(i, j, dim: int):
    """Row-major index of the pair ``i < j`` among all pairs of ``range(dim)``."""
    return i * (2 * dim - i - 1) // 2 + (j - i - 1)


def similarity_matrix(
    objective: TrackedObjective, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Symmetric matrix of pairwise interaction strengths.

    All pairs are probed up to ``FULL_PROBE_DIMENSION`` variables; beyond
    that a random ``SAMPLE_FRACTION`` of the pairs is sampled (with at least
    ``MIN_PARTNERS`` sampled partners per variable) and the matrix is
    symmetrized.  The total probing cost is additionally capped at
    ``PROBE_BUDGET_FRACTION`` of the overall evaluation budget so a solver
    phase can still follow.  Each pair is probed as in ``dg_interaction``
    with its default step and threshold; entries at or below the threshold
    are zeroed.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    dim = objective.dimension
    base = _lower_corner(objective)
    delta = 0.5 * objective.bounds.width

    f_base = objective.probe(base)
    singles = base[None, :] + delta * np.eye(dim)
    f_single = objective.probe_batch(singles)

    sample_fraction = 1.0 if dim <= FULL_PROBE_DIMENSION else SAMPLE_FRACTION
    all_pairs = dim * (dim - 1) // 2
    cap = int(PROBE_BUDGET_FRACTION * objective.max_evals) - (dim + 1)
    target = min(int(round(sample_fraction * all_pairs)), max(cap, 0), objective.remaining)

    rows, cols = np.triu_indices(dim, k=1)
    if target < all_pairs:
        chosen = np.empty(0, dtype=np.int64)
        # Connectivity floor: a few random partners for every variable.
        if target >= MIN_PARTNERS * dim // 2:
            partners = []
            for i in range(dim):
                p = rng.choice(dim - 1, size=min(MIN_PARTNERS, dim - 1), replace=False)
                j = p + (p >= i)
                partners.append(_flat_pair(np.minimum(i, j), np.maximum(i, j), dim))
            chosen = np.unique(np.concatenate(partners))
        # Then random pairs, in the order drawn, until the target is met.
        flat = rng.permutation(all_pairs)
        fresh = flat[~np.isin(flat, chosen)][: max(target - len(chosen), 0)]
        chosen = np.sort(np.concatenate([chosen, fresh]))[:target]
        rows, cols = rows[chosen], cols[chosen]

    weights = np.zeros((dim, dim))
    block = 4096
    for start in range(0, len(rows), block):
        i, j = rows[start : start + block], cols[start : start + block]
        points = np.repeat(base[None, :], len(i), axis=0)
        k = np.arange(len(i))
        points[k, i] += delta
        points[k, j] += delta
        f_pair = objective.probe_batch(points)
        lam = np.abs((f_single[i] - f_base) - (f_pair - f_single[j]))
        hit = lam > _adaptive_threshold((f_base, f_single[i], f_single[j], f_pair), dim)
        weights[i[hit], j[hit]] = weights[j[hit], i[hit]] = lam[hit]
    return weights


def dgsc_group(
    objective: TrackedObjective,
    k_groups: int | None = None,
    separable_pack: int = 100,
    rng: np.random.Generator | None = None,
) -> GroupingResult:
    """Decomposition by spectral clustering of the interaction-strength graph.

    Variables with no detected interaction are treated as separable and
    packed in index order; the connected remainder is embedded with the
    normalized graph Laplacian and split into ``k_groups`` clusters by
    k-means on the leading eigenvectors.  An entirely empty graph falls
    back to packing every variable.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    used_before = objective.evals_used
    dim = objective.dimension
    k = k_groups if k_groups is not None else math.ceil(dim / 100)
    if k < 1:
        raise ValueError("k_groups must be positive")

    weights = similarity_matrix(objective, rng=rng)
    degree = weights.sum(axis=1)
    isolated = np.flatnonzero(degree == 0.0)
    connected = np.flatnonzero(degree > 0.0)
    evals = objective.evals_used - used_before

    groups: list[np.ndarray] = []
    if connected.size:
        sub = weights[np.ix_(connected, connected)]
        inv_sqrt = 1.0 / np.sqrt(sub.sum(axis=1))
        laplacian = np.eye(len(connected)) - inv_sqrt[:, None] * sub * inv_sqrt[None, :]
        k_eff = min(k, len(connected))
        _, vectors = eigh(laplacian, subset_by_index=(0, k_eff - 1))
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        embedding = vectors / norms
        if k_eff == 1:
            labels = np.zeros(len(connected), dtype=int)
        else:
            _, labels = kmeans2(embedding, k_eff, minit="++", seed=rng)
        for label in np.unique(labels):
            members = connected[labels == label]
            if members.size:
                groups.append(np.sort(members))
    groups.extend(_pack(isolated.tolist(), separable_pack))
    return GroupingResult(groups, isolated, evals)
