"""Property tests of the row kernel: every scalar entry point is a batch of one."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from wsnopt.problem import (  # noqa: E402
    PowerAllocationProblem,
    WsnConfig,
    fusion_error_probability,
    penalized_objective,
    total_power,
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
    for k, g in enumerate(G):
        assert values[k] == penalized_objective(cfg, h, g, int(iterations[k]))
        assert powers[k] == total_power(g)


@pytest.mark.parametrize("rho", [0.0, 0.5])
@SETTINGS
@given(data=st.data())
def test_feasible_rows_are_exactly_penalty_free(rho, data):
    prob, G, iterations = data.draw(instances(rho))
    values, feasible, powers = prob.batch(G, iterations)
    for k, g in enumerate(G):
        margin = prob.constraint_margin(g)
        penalty = staged_reference(margin) + sum(staged_reference(-x) for x in g)
        assert feasible[k] == (penalty == 0.0)
        if feasible[k]:
            assert values[k] == powers[k]
        else:
            assert values[k] == pytest.approx(powers[k] + iterations[k] * penalty, rel=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.5])
@SETTINGS
@given(data=st.data())
def test_default_path_agrees_with_matrix_reference(rho, data):
    prob, G, _ = data.draw(instances(rho))
    for g in G:
        default = fusion_error_probability(prob.config, prob.fading, g)
        matrix = fusion_error_probability(prob.config, prob.fading, g, method="matrix")
        assert abs(default - matrix) < 1e-10
