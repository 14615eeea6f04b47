"""End-to-end acceptance checks for the whole toolkit.

Each test pins one externally meaningful behavior: statistical ranking of
the bundled results table, agreement between the analytic detector and
simulation, solution quality of the large-scale solvers, structural
recovery by the decomposition methods, reproducibility of experiment
outputs, and exact evaluation accounting.  Tolerances are stated inline
next to each assertion.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from wsnopt import eade as eade_module
from wsnopt import grouping, harness
from wsnopt.evo import Bounds, FunctionProblem, TrackedObjective
from wsnopt.grouping import dgsc_group, rdg3_group
from wsnopt.harness import ExperimentConfig, derive_seed, run_experiment
from wsnopt.problem import (
    PowerAllocationProblem,
    WsnConfig,
    fusion_error_probability,
    monte_carlo_error_rate,
)
from wsnopt.solvers import solve
from wsnopt.stats import friedman_ranks, load_reference_table, paired_rank_tests

BASE_SEED = 2026


def power_case(sensors, epsilon, correlation=0.0):
    case_id = f"L{sensors}-rho{correlation:g}-eps{epsilon:g}"
    return WsnConfig(
        num_sensors=sensors,
        correlation=correlation,
        epsilon=epsilon,
        fading_seed=derive_seed(BASE_SEED, case_id, "fading"),
    )


def run_one(algorithm, config, seed, max_evals, population):
    problem = PowerAllocationProblem(config)
    objective = TrackedObjective(problem, max_evals, population)
    rng = np.random.default_rng(seed)
    if algorithm == "baseline-de":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eade_module, "MIX_PROBABILITY", 0.0)
            result = eade_module.eade(objective, rng)
    else:
        result = solve(algorithm, objective, rng)
    return problem, result


def feasible_power(problem, result, tolerance=1e-6):
    """Best feasible total power of a run, or None when infeasible."""
    if not result.best_feasible:
        return None
    x = result.best_x
    if problem.error_probability(x) - problem.config.epsilon > tolerance or np.any(x < 0.0):
        return None
    return float(result.best_f)


def test_rank_aggregation_reproduces_published_ordering():
    _, names, table = load_reference_table()
    ranks = friedman_ranks(table)
    by_name = dict(zip(names, ranks.average_ranks))
    assert by_name["cbcc-rdg3"] == pytest.approx(1.33, abs=0.005)
    assert by_name["mlshade-spa"] == pytest.approx(1.75, abs=0.005)
    assert by_name["dgsc-decc"] == pytest.approx(2.96, abs=0.005)
    assert by_name["eade"] == pytest.approx(3.96, abs=0.005)
    normalized = dict(zip(names, ranks.normalized))
    assert normalized["cbcc-rdg3"] == pytest.approx(1.00, abs=0.01)
    assert normalized["mlshade-spa"] == pytest.approx(1.31, abs=0.01)
    assert normalized["dgsc-decc"] == pytest.approx(2.22, abs=0.01)
    assert normalized["eade"] == pytest.approx(2.97, abs=0.01)


def test_pairwise_tests_separate_best_method_from_the_rest():
    _, names, table = load_reference_table()
    baseline, tests = paired_rank_tests(friedman_ranks(table))
    assert names[baseline] == "cbcc-rdg3"
    published = {
        "mlshade-spa": 3.426e-2,
        "dgsc-decc": 4.000e-5,
        "eade": 7.000e-6,
    }
    for col, result in tests.items():
        name = names[col]
        assert result.p_value <= 0.05, f"{name}: p={result.p_value}"
        ratio = result.p_value / published[name]
        assert 1.0 / 3.0 <= ratio <= 3.0, f"{name}: ratio={ratio}"


def test_analytic_error_probability_agrees_with_simulation():
    start = time.monotonic()
    rng = np.random.default_rng(17)
    n_samples = 1_000_000
    sensor_counts = [1, 5, 50]
    correlations = [0.0, 0.5]
    for k in range(20):
        sensors = sensor_counts[k % 3]
        rho = correlations[k % 2]
        config = WsnConfig(
            num_sensors=sensors,
            correlation=rho,
            epsilon=0.1,
            fading_seed=1000 + k,
        )
        problem = PowerAllocationProblem(config)
        gains = rng.uniform(0.0, 2.0, size=sensors)
        analytic = problem.error_probability(gains)
        simulated = monte_carlo_error_rate(
            config,
            problem.fading,
            gains,
            n_samples,
            np.random.default_rng(int(rng.integers(2**63))),
        )
        sigma = np.sqrt(max(analytic * (1.0 - analytic), 0.0) / n_samples)
        assert abs(simulated - analytic) <= 3.0 * sigma + 1e-12, (
            f"config {k}: sensors={sensors} rho={rho} "
            f"analytic={analytic} simulated={simulated}"
        )
        direct = fusion_error_probability(
            config, problem.fading, gains, method="matrix"
        )
        assert abs(direct - analytic) <= 1e-10
    assert time.monotonic() - start < 120.0


def test_large_scale_solvers_allocate_power_economically():
    config = power_case(300, 0.1)
    budget = 60_000
    population = 100
    trials = 5

    powers = {}
    feasible_counts = {}
    for algorithm in ["mlshade-spa", "cbcc-rdg3", "eade", "baseline-de"]:
        values = []
        for trial in range(trials):
            seed = derive_seed(BASE_SEED, "accept-power", algorithm, trial)
            problem, result = run_one(algorithm, config, seed, budget, population)
            value = feasible_power(problem, result)
            if value is not None:
                values.append(value)
        powers[algorithm] = values
        feasible_counts[algorithm] = len(values)

    assert feasible_counts["mlshade-spa"] >= 4
    assert feasible_counts["cbcc-rdg3"] >= 4
    assert feasible_counts["baseline-de"] >= 3, "baseline must give a reference"
    assert feasible_counts["eade"] >= 3, "reference method must give a mean"

    baseline_mean = float(np.mean(powers["baseline-de"]))
    eade_mean = float(np.mean(powers["eade"]))
    for algorithm in ["mlshade-spa", "cbcc-rdg3"]:
        mean_power = float(np.mean(powers[algorithm]))
        assert mean_power < 10.0 * baseline_mean, (
            f"{algorithm}: {mean_power} vs baseline {baseline_mean}"
        )
        assert eade_mean >= 10.0 * mean_power, (
            f"{algorithm}: {mean_power} not 10x below {eade_mean}"
        )


def test_correlated_l800_trials_run_to_budget_with_feasible_solutions():
    # L=800 at rho=0.5 was the slowest class of the grid under the dense
    # per-row factorization; the tridiagonal kernel makes a 5k-eval trial
    # take well under a second.  Every solver saw a feasible point on each
    # of 15 trial seeds tried, so that count is asserted too.
    config = power_case(800, 0.1, correlation=0.5)
    feasible_trials = 0
    for algorithm in ["eade", "mlshade-spa", "cbcc-rdg3", "dgsc-decc"]:
        seed = derive_seed(BASE_SEED, "accept-l800", algorithm)
        problem, result = run_one(algorithm, config, seed, 5_000, 250)
        assert result.evals_used == 5_000
        x = result.best_feasible_x
        if x is not None:
            feasible_trials += 1
            reference = fusion_error_probability(
                config, problem.fading, x, method="matrix"
            )
            assert reference <= config.epsilon, f"{algorithm}: {reference}"
    assert feasible_trials == 4


def test_tightening_the_error_constraint_never_lowers_power():
    budget = 30_000
    population = 50
    for seed_index in range(3):
        sequence = []
        for epsilon in [0.1, 0.01, 0.001]:
            config = power_case(50, epsilon)
            seed = derive_seed(BASE_SEED, "accept-monotone", seed_index)
            problem, result = run_one(
                "mlshade-spa", config, seed, budget, population
            )
            value = feasible_power(problem, result)
            assert value is not None, f"eps={epsilon} seed={seed_index} infeasible"
            sequence.append(value)
        assert sequence[0] <= sequence[1] <= sequence[2], (
            f"seed {seed_index}: powers {sequence} decreased as the "
            "constraint tightened"
        )


def test_decomposition_recovers_known_interaction_structure(monkeypatch):
    bounds = Bounds(0.0, 4.0)

    def sphere(x):
        return float(np.sum(x * x))

    problem = FunctionProblem(sphere, 12, bounds)
    monkeypatch.setattr(grouping, "SIZE_CAP", 12)
    monkeypatch.setattr(grouping, "SEPARABLE_PACK", 1)
    result = rdg3_group(TrackedObjective(problem, 10_000))
    assert sorted(g[0] for g in result.groups) == list(range(12))
    assert all(len(g) == 1 for g in result.groups)
    assert result.sizes == [1] * 12

    def paired(x):
        return float(x[0] * x[5] + x[1] * x[6] + x[2] * x[7] + x[3] * x[8] + x[4] * x[9])

    problem = FunctionProblem(paired, 10, bounds)
    monkeypatch.setattr(grouping, "SIZE_CAP", 10)
    result = rdg3_group(TrackedObjective(problem, 10_000))
    pairs = sorted(tuple(sorted(g)) for g in result.groups if len(g) > 1)
    assert pairs == [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    assert min(result.sizes) >= 2

    def chain(x):
        shifted = x - 1.0
        return float(
            np.sum(100.0 * (shifted[1:] - shifted[:-1] ** 2) ** 2 + shifted[:-1] ** 2)
        )

    problem = FunctionProblem(chain, 8, bounds)
    monkeypatch.setattr(grouping, "SIZE_CAP", 50)
    monkeypatch.setattr(grouping, "SEPARABLE_PACK", 100)
    result = rdg3_group(TrackedObjective(problem, 10_000))
    assert len(result.groups) == 1
    assert sorted(result.groups[0].tolist()) == list(range(8))

    def three_blocks(x):
        total = 0.0
        for start in (0, 4, 8):
            block = x[start : start + 4]
            total += float(block[0] * block[1] + block[1] * block[2] + block[2] * block[3])
        return total

    problem = FunctionProblem(three_blocks, 12, bounds)
    monkeypatch.setattr(grouping, "GROUP_SIZE", 4)  # ceil(12 / 4) = 3 clusters
    result = dgsc_group(TrackedObjective(problem, 20_000), rng=np.random.default_rng(5))
    recovered = sorted(tuple(sorted(g)) for g in result.groups)
    assert recovered == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]


def test_experiment_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "TRACE_STEP", 100)
    raw = {
        "grid": [{"sensors": [8], "epsilon": [0.1], "rho": [0.0, 0.5]}],
        "algorithms": ["eade", "mlshade-spa"],
        "trials": 2,
        "max_evals": 500,
        "population_sizes": {"8": 20},
        "base_seed": 13,
    }

    def execute(tag, workers):
        config_path = tmp_path / f"{tag}.json"
        config_path.write_text(
            json.dumps(dict(raw, output_dir=str(tmp_path / tag)))
        )
        run_experiment(ExperimentConfig.from_json(config_path), workers=workers)
        root = Path(tmp_path / tag) / "results"
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*.csv"))
        }

    first = execute("first", 1)
    second = execute("second", 1)
    pooled = execute("pooled", 3)
    assert first == second
    assert first == pooled
    assert any(name.endswith("summary.csv") for name in first)


class CountingProblem:
    """Wrapper that counts every objective row the solver asks for."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def batch(self, X, iterations):
        self.calls += len(np.atleast_2d(np.asarray(X, dtype=float)))
        return self.inner.batch(X, iterations)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize(
    "algorithm", ["eade", "mlshade-spa", "cbcc-rdg3", "dgsc-decc"]
)
def test_every_objective_call_is_counted_against_the_budget(algorithm):
    budget = 60_000
    config = power_case(50, 0.1)
    counted = CountingProblem(PowerAllocationProblem(config))
    objective = TrackedObjective(counted, budget, 50)
    rng = np.random.default_rng(derive_seed(BASE_SEED, "accept-count", algorithm))
    result = solve(algorithm, objective, rng)
    assert counted.calls == objective.evals_used
    assert result.evals_used == objective.evals_used
    assert objective.evals_used <= budget
