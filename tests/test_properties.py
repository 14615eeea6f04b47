"""Property tests of the row kernel, the tracker's best-so-far, reflection
and recursive differential grouping.

Every scalar entry point is a batch of one, and the error probability never
rises when one gain is raised.  The float tail of small stacks gives the
array path's bits.  The tracker's batched bookkeeping follows the
feasible-first order row by row, however the rows are batched.  Bound
repair gives the bits of the two-face reflection formula on any float.
``rdg3_group``'s one loop probes the rows of the recursive search, in its
order, and the interaction test gives the bits of its broadcast form.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from wsnopt import grouping  # noqa: E402
from wsnopt import problem as problem_module  # noqa: E402
from wsnopt.evo import (  # noqa: E402
    Bounds,
    BudgetExhausted,
    FunctionProblem,
    TrackedObjective,
    reflect_into_bounds,
)
from wsnopt.grouping import rdg3_group  # noqa: E402
from wsnopt.problem import (  # noqa: E402
    PowerAllocationProblem,
    WsnConfig,
    _q_of_deflection,
    fusion_error_probability,
    staged_penalty,
)

# Derandomized and without an example database, so every run checks the
# same examples and leaves no files behind.
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def staged_reference(v: float) -> float:
    """Scalar staged penalty of one violation, written from its definition."""
    if v <= 0.0:
        return 0.0
    weight = 10.0 if v <= 0.1 else 100.0 if v <= 1.0 else 300.0
    return weight * (v if v < 1.0 else v * v)


@st.composite
def instances(draw, rho):
    sensors = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 6))
    cfg = WsnConfig(
        num_sensors=sensors,
        correlation=rho,
        epsilon=draw(st.sampled_from([0.3, 0.1, 0.01])),
        fading_seed=draw(st.integers(0, 1000)),
    )
    gains = st.one_of(st.just(0.0), st.floats(-2.0, 15.0))
    G = draw(arrays(np.float64, (rows, sensors), elements=gains))
    iterations = draw(arrays(np.float64, rows, elements=st.integers(1, 500).map(float)))
    return PowerAllocationProblem(cfg), G, iterations


@pytest.mark.parametrize("rho", [0.0, 0.5])
@SETTINGS
@given(data=st.data())
def test_batch_rows_are_scalar_calls(rho, data):
    prob, G, iterations = data.draw(instances(rho))
    cfg, h = prob.config, prob.fading
    values, feasible, powers = prob.batch(G, iterations)
    for k in range(len(G)):
        one = PowerAllocationProblem(cfg, h).batch(G[k : k + 1], [iterations[k]])
        assert values[k] == one[0][0]
        assert powers[k] == one[2][0]


@pytest.mark.parametrize("rho", [0.0, 0.5])
@SETTINGS
@given(data=st.data())
def test_feasible_rows_are_exactly_penalty_free(rho, data):
    prob, G, iterations = data.draw(instances(rho))
    values, feasible, powers = prob.batch(G, iterations)
    for k, g in enumerate(G):
        margin = prob.error_probability(g) - prob.config.epsilon
        penalty = staged_reference(margin) + sum(staged_reference(-x) for x in g)
        assert feasible[k] == (penalty == 0.0)
        if feasible[k]:
            assert values[k] == powers[k]
        else:
            assert values[k] == pytest.approx(powers[k] + iterations[k] * penalty, rel=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
@SETTINGS
@given(data=st.data())
def test_default_path_agrees_with_matrix_reference(rho, data):
    prob, G, _ = data.draw(instances(rho))
    for g in G:
        default = fusion_error_probability(prob.config, prob.fading, g)
        matrix = fusion_error_probability(prob.config, prob.fading, g, method="matrix")
        assert abs(default - matrix) < 1e-10


@st.composite
def small_stacks(draw):
    """``(problem, G, iterations)``: 0 to ``_FLOAT_ROWS`` + 1 rows of no
    negative gain, so both sides of the float tail's row limit occur.

    Each row is one special gain throughout, a uniform draw at a drawn
    scale, or special gains mixed, so rows are feasible, infeasible at either
    penalty stage (an all-zero row's violation is 0.5 - epsilon), or at the
    problem's gain bound.
    """
    cfg = WsnConfig(
        num_sensors=draw(st.sampled_from([1, 8, 300])),
        correlation=draw(st.sampled_from([0.0, 0.5, 0.9])),
        epsilon=draw(st.sampled_from([0.001, 0.01, 0.1, 0.49])),
        fading_seed=draw(st.integers(0, 1000)),
    )
    prob = PowerAllocationProblem(cfg)
    L = cfg.num_sensors
    special = [0.0, -0.0, 5e-324, 1e-3, 7.5, 15.0, prob._gain_bound]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    # One and two rows, the sizes of probes and line-search steps, often.
    sizes = st.sampled_from([1, 2]) | st.integers(0, problem_module._FLOAT_ROWS + 1)
    for _ in range(draw(sizes)):
        kind = draw(st.sampled_from(["special", "uniform", "mixed"]))
        if kind == "special":
            rows.append(np.full(L, draw(st.sampled_from(special))))
        elif kind == "uniform":
            rows.append(rng.uniform(0.0, draw(st.sampled_from([0.01, 0.1, 1.0, 15.0])), L))
        else:
            rows.append(rng.choice(special, L))
    G = np.array(rows).reshape(len(rows), L)
    iterations = np.array([draw(st.sampled_from([1.0, 7.0, 1e6])) for _ in rows])
    return prob, G, iterations


@settings(SETTINGS, max_examples=300)
@given(data=st.data())
def test_float_tail_gives_the_array_paths_bits(data):
    prob, G, iterations = data.draw(small_stacks())
    values, feasible, powers = prob.batch(G, iterations)
    penalties = staged_penalty(_q_of_deflection(prob.deflections(G)) - prob.config.epsilon)
    expected_powers = np.einsum("ij,ij->i", G, G)
    expected = (expected_powers + iterations * penalties, penalties == 0.0, expected_powers)
    for got, want in zip((values, feasible, powers), expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    if not len(G):
        assert TrackedObjective(prob, 1).evaluate_batch(G).tolist() == []


def test_float_stage_rule_is_the_array_rule():
    cuts = [0.1, 1.0]
    points = [-0.25, -0.0, 0.0, 5e-324, 0.5, 1e150]
    points += [x for c in cuts for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 2.0))]
    for v in points:
        got = problem_module._staged_penalty_float(float(v))
        assert np.array([got]).tobytes() == staged_penalty(np.array([v])).tobytes()


# Relative slack for the monotonicity check: on the "matrix" side the
# deflection of each point goes through its own dense Cholesky solve at
# rho > 0, and on the default side through its own tridiagonal solve; the
# rounding of either can reverse two nearly equal probabilities by far less
# than this.
MONOTONE_REL_TOL = 1e-9


@pytest.mark.parametrize("method", ["auto", "matrix"])
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
@SETTINGS
@given(data=st.data())
def test_raising_one_gain_never_raises_error_probability(rho, method, data):
    # The deflection is 1'(Sigma_v + sigma_w2 diag(a)^-2)^-1 1 scaled by the
    # signal power, with a = h * g, so it grows with every a_i^2 and the
    # error probability Q(sqrt(deflection) / 2) falls.
    prob, _, _ = data.draw(instances(rho))
    L = prob.dimension
    g = data.draw(arrays(np.float64, L, elements=st.floats(0.0, 15.0)))
    k = data.draw(st.integers(0, L - 1))
    raised = g.copy()
    raised[k] += data.draw(st.floats(0.0, 5.0))
    before = fusion_error_probability(prob.config, prob.fading, g, method=method)
    after = fusion_error_probability(prob.config, prob.fading, raised, method=method)
    assert after <= before * (1.0 + MONOTONE_REL_TOL)


@SETTINGS
@given(data=st.data())
def test_batched_best_follows_feasible_first_order_row_by_row(data):
    n = data.draw(st.integers(1, 16))
    # Few distinct values, so ties within and across classes are common.
    values = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                                         min_size=n, max_size=n)))
    feasible = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else [])

    class Table:
        # Row i of the stack is the point [i]; it scores values[i].
        dimension = 1
        bounds = Bounds(0.0, float(n))

        def batch(self, X, iterations):
            rows = X[:, 0].astype(int)
            return values[rows], feasible[rows], values[rows]

    objective = TrackedObjective(Table(), n)
    for chunk in np.split(np.arange(n, dtype=float)[:, None], cuts):
        objective.evaluate_batch(chunk)

    best, events = (False, -np.inf), []
    for k in range(n):
        key = (bool(feasible[k]), -values[k])
        if key > best:
            best = key
            events.append((k + 1, float(values[k])))
    assert objective.improvements == events
    assert objective.best_feasible == best[0]
    assert objective.best_f == -best[1]
    assert objective.best_x[0] == events[-1][0] - 1


# Bounds of moderate size, zeros of both signs and the package's own box
# among them, so no mirror image overflows.
BOUND_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 15.0, -3.0]), st.floats(-1e6, 1e6))


@settings(SETTINGS, max_examples=300)
@given(data=st.data())
def test_reflection_equals_two_face_formula_bit_for_bit(data):
    low, high = sorted([data.draw(BOUND_VALUES), data.draw(BOUND_VALUES)])
    if not low < high:
        return
    # Any float: NaNs, infinities, subnormals and both zeros, plus the faces,
    # their negations and their neighbours, so ties of -0.0 and 0.0 occur.
    special = [low, high, -low, -high, 0.0, -0.0,
               np.nextafter(low, -np.inf), np.nextafter(high, np.inf)]
    elements = st.one_of(st.floats(), st.sampled_from(special))
    x = data.draw(arrays(np.float64, array_shapes(max_dims=2, max_side=12), elements=elements))
    expected = np.clip(
        np.where(x < low, 2.0 * low - x, np.where(x > high, 2.0 * high - x, x)), low, high)
    repaired = reflect_into_bounds(x.copy(), Bounds(low, high))
    assert repaired.tobytes() == expected.tobytes()


def recursive_rdg3_group(objective):
    """``rdg3_group`` written as nested recursion, the form it had before its
    search became one loop; the reference for the loop's probes."""
    bounds = objective.bounds
    base = grouping._lower_corner(objective)
    mid = bounds.lower + 0.5 * bounds.width
    f_base = objective.probe(base)
    remaining = list(range(objective.dimension))
    groups = []
    separable = []

    def nucleus_value():
        x = base.copy()
        x[nucleus] = bounds.upper
        return objective.probe(x)

    def absorb(candidates):
        nonlocal f_nucleus
        if len(nucleus) > grouping.SIZE_CAP:
            return False
        x2 = base.copy()
        x2[candidates] = mid
        x12 = x2.copy()
        x12[nucleus] = bounds.upper
        f2, f12 = objective.probe_batch(np.stack([x2, x12]))
        _, hit = grouping._interaction(f_base, f_nucleus, f2, f12, objective.dimension)
        if not hit:
            return False
        if len(candidates) == 1:
            nucleus.append(candidates[0])
            remaining.remove(candidates[0])
            f_nucleus = nucleus_value()
            return True
        half = len(candidates) // 2
        left = absorb(candidates[:half])
        right = absorb(candidates[half:])
        return left or right

    while remaining:
        nucleus = [remaining.pop(0)]
        f_nucleus = nucleus_value()
        while remaining and len(nucleus) <= grouping.SIZE_CAP:
            if not absorb(list(remaining)):
                break
        if len(nucleus) == 1:
            separable.append(nucleus[0])
        else:
            groups.append(np.array(sorted(nucleus), dtype=int))
    return grouping.GroupingResult(groups + grouping._pack(separable))


class RecordingProblem(FunctionProblem):
    """A function problem that keeps the bytes of every row it evaluates."""

    def __init__(self, fn, dimension):
        super().__init__(fn, dimension, Bounds(0.0, 15.0))
        self.rows = []

    def batch(self, X, iterations):
        self.rows += [row.tobytes() for row in X]
        return super().batch(X, iterations)


@st.composite
def block_coupled_functions(draw):
    """``(fn, dimension)``: a sphere plus the squared sum of each block.

    The first ``coupled`` variables of a drawn order are cut into blocks of
    drawn sizes, each overlapping the one before it by a drawn count, so
    chains of blocks can exceed ``SIZE_CAP``; the other variables are
    separable, and more than ``SEPARABLE_PACK`` of them fill two packs.
    """
    dim = draw(st.integers(1, 120) | st.integers(100, 120))
    order = draw(st.permutations(range(dim)))
    coupled = draw(st.integers(0, dim) | st.sampled_from([dim // 10, dim // 2, dim]))
    incidence, start = [], 0
    while start < coupled - 1:
        size = draw(st.integers(2, 60))
        row = np.zeros(dim)
        row[order[start:min(start + size, coupled)]] = 1.0
        incidence.append(row)
        start += size - draw(st.integers(0, size - 1))
    blocks = np.array(incidence).reshape(-1, dim)
    return (lambda x: float(x @ x + np.sum((blocks @ x) ** 2))), dim


@settings(SETTINGS, max_examples=60)
@given(data=st.data())
def test_rdg3_loop_probes_the_rows_of_the_recursive_search(data):
    fn, dim = data.draw(block_coupled_functions())

    def run(group, max_evals):
        problem = RecordingProblem(fn, dim)
        objective = TrackedObjective(problem, max_evals)
        try:
            groups = [g.tolist() for g in group(objective).groups]
        except BudgetExhausted:
            groups = None
        return problem.rows, groups, objective.evals_used, objective.improvements

    reference = run(recursive_rdg3_group, 10**6)
    assert run(rdg3_group, 10**6) == reference
    # A budget that ends mid-search stops both at the same row.
    budget = data.draw(st.integers(1, reference[2] - 1))
    cut = run(recursive_rdg3_group, budget)
    assert cut[1] is None
    assert run(rdg3_group, budget) == cut


def interaction_reference(f_base, f_a, f_b, f_ab, dimension):
    """``_interaction``'s formula with a broadcast minimum, the reference for
    its ``np.minimum`` chain."""
    lam = np.abs((f_a - f_base) - (f_ab - f_b))
    smallest = np.abs(np.broadcast_arrays(f_base, f_a, f_b, f_ab)).min(axis=0)
    return lam, lam > 1e-12 * dimension * np.maximum(smallest, 1.0)


# Any float: NaNs, infinities, both zeros, subnormals and magnitudes below 1,
# where the threshold's floor of 1 applies.
PROBE_VALUES = st.one_of(
    st.floats(),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1.0, 2.5e-10]),
)
OFFSETS = st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 5e-9])


@st.composite
def probe_values(draw, size):
    """One probe value: a Python float, a numpy scalar, or ``size`` entries."""
    form = draw(st.sampled_from(["float", "scalar", "array"] if size else ["float", "scalar"]))
    if form == "array":
        return draw(arrays(np.float64, size, elements=PROBE_VALUES))
    value = draw(PROBE_VALUES)
    return value if form == "float" else np.float64(value)


@st.composite
def paired_probes(draw, size):
    """The four probe values, ``f_a`` near ``f_base`` and ``f_ab`` near ``f_b``
    at two drawn magnitudes of either sign, so ``lam`` falls a few thresholds
    from 0 and the hit turns on which magnitude is the smallest."""
    near = st.sampled_from([-4.0, -2.0, -0.5, 0.5, 2.0, 4.0])
    b1, b2 = draw(near), draw(near)

    def value(b):
        if size and draw(st.booleans()):
            return b + draw(arrays(np.float64, size, elements=OFFSETS))
        return b + draw(OFFSETS)

    return [b1 + draw(OFFSETS), value(b1), value(b2), value(b2)]


def assert_same_interaction(args, dimension):
    with np.errstate(all="ignore"):
        got = grouping._interaction(*args, dimension)
        want = interaction_reference(*args, dimension)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@settings(SETTINGS, max_examples=300)
@given(data=st.data())
def test_interaction_gives_the_bits_of_its_broadcast_form(data):
    size = data.draw(st.sampled_from([0, 1, 7]))
    # The base is a scalar whenever the others are arrays, as in the groupers.
    if data.draw(st.booleans()):
        args = data.draw(paired_probes(size))
    else:
        args = [data.draw(probe_values(0))] + [data.draw(probe_values(size)) for _ in range(3)]
    assert_same_interaction(args, data.draw(st.sampled_from([1, 300, 800])))


@pytest.mark.parametrize("dimension", [1, 300, 800])
def test_interaction_at_its_threshold_is_no_hit(dimension):
    # Probe magnitudes below 1, so the threshold is 1e-12 * dimension, and
    # lam equals it exactly from either difference, on floats and on arrays.
    t = 1e-12 * dimension
    for args in ((0.0, t, 0.0, 0.0), (0.0, 0.0, t, 0.0), (np.float64(0.0), t, -0.0, 0.0)):
        lam, hit = grouping._interaction(*args, dimension)
        assert lam == t and not hit
        assert_same_interaction(args, dimension)
        lam, hit = grouping._interaction(args[0], *(np.full(3, a) for a in args[1:]), dimension)
        assert (lam == t).all() and not hit.any()
