"""End-to-end checks of the named solver configurations on small problems."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from wsnopt.cmaes import CmaesSubsolver
from wsnopt.eade import eade_mutation
from wsnopt.evo import TrackedObjective
from wsnopt.grouping import dgsc_group, rdg3_group
from wsnopt.harness import ExperimentConfig
from wsnopt.mlshade import SuccessHistory
from wsnopt.problem import PowerAllocationProblem, WsnConfig
from wsnopt.sansde import SansdeSubsolver
from wsnopt.solvers import MIN_POPULATION, SOLVERS, solve


def small_problem(num_sensors=8, epsilon=0.1, correlation=0.0, seed=42):
    config = WsnConfig(
        num_sensors=num_sensors,
        epsilon=epsilon,
        correlation=correlation,
        fading_seed=seed,
    )
    return PowerAllocationProblem(config)


class TestRegistry:
    def test_expected_names(self):
        assert sorted(SOLVERS) == ["cbcc-rdg3", "dgsc-decc", "eade", "mlshade-spa"]

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="eade"):
            solve(
                "gradient-descent",
                TrackedObjective(small_problem(), max_evals=10, population_size=20),
                np.random.default_rng(0),
            )


class TestSolversOnSensorProblem:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_budget_spent_and_result_coherent(self, name):
        objective = TrackedObjective(small_problem(), max_evals=3000, population_size=20)
        result = solve(name, objective, np.random.default_rng(7))
        assert objective.evals_used == 3000
        assert result.evals_used == 3000
        assert np.isfinite(result.best_f)
        assert len(result.best_x) == 8
        # The improvement record falls except for at most one rise, where the
        # first feasible point displaces a lower penalized value, and it ends
        # at the reported best.
        values = [f for _, f in result.improvements]
        rises = sum(b > a for a, b in zip(values, values[1:]))
        assert rises <= 1
        assert rises == 0 or result.best_feasible
        assert values[-1] == result.best_f

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_finds_feasible_allocation_on_loose_constraint(self, name):
        problem = small_problem(epsilon=0.1)
        objective = TrackedObjective(problem, max_evals=4000, population_size=20)
        result = solve(name, objective, np.random.default_rng(3))
        assert result.best_feasible
        assert problem.error_probability(result.best_x) <= 0.1 + 1e-12
        assert np.all(result.best_x >= 0.0)
        assert result.best_f == pytest.approx(float(result.best_x @ result.best_x))

    @pytest.mark.parametrize("name", ["cbcc-rdg3", "dgsc-decc"])
    def test_decomposition_solvers_survive_tiny_budgets(self, name):
        objective = TrackedObjective(small_problem(), max_evals=12, population_size=20)
        result = solve(name, objective, np.random.default_rng(0))
        assert objective.evals_used <= 12
        assert np.isfinite(result.best_f)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_probes_that_spend_the_budget_exactly_end_the_run(self, rho):
        # With no evaluation left after grouping, cbcc-rdg3 returns before
        # coevolution, whose first act would evaluate the seed point.
        probed = TrackedObjective(small_problem(20, correlation=rho), 10**6, 20)
        rdg3_group(probed)
        budget = probed.evals_used
        objective = TrackedObjective(small_problem(20, correlation=rho), budget, 20)
        result = solve("cbcc-rdg3", objective, np.random.default_rng(0))
        assert result.evals_used == budget
        assert (result.best_f, result.best_power) == (probed.best_f, probed.best_power)
        assert result.best_x.tobytes() == probed.best_x.tobytes()
        assert result.improvements == probed.improvements

    def test_deterministic_across_repeats(self):
        outcomes = []
        for _ in range(2):
            objective = TrackedObjective(small_problem(), max_evals=2000, population_size=20)
            result = solve("cbcc-rdg3", objective, np.random.default_rng(11))
            outcomes.append(result.best_f)
        assert outcomes[0] == outcomes[1]


class IterationRecorder(PowerAllocationProblem):
    """The sensor problem, recording each row's iteration and each batch's size."""

    def __init__(self, config):
        super().__init__(config)
        self.iterations = []
        self.batch_rows = []

    def batch(self, G, iterations):
        self.iterations.extend(np.asarray(iterations).tolist())
        self.batch_rows.append(len(G))
        return super().batch(G, iterations)


def test_solvers_take_objective_and_rng_and_start_at_the_trackers_population():
    for solver in SOLVERS.values():
        required = [
            p.name
            for p in inspect.signature(solver).parameters.values()
            if p.default is inspect.Parameter.empty
        ]
        assert required == ["objective", "rng"]
    for name, n in [("eade", 12), ("mlshade-spa", 25)]:
        problem = IterationRecorder(small_problem().config)
        objective = TrackedObjective(problem, 500, population_size=n)
        solve(name, objective, np.random.default_rng(0))
        assert problem.batch_rows[0] == n, name


def test_settings_are_module_constants_not_arguments():
    # Every published setting lives in its module; the entry points take only
    # what a run supplies.
    def parameters(fn):
        return list(inspect.signature(fn).parameters)

    for solver in SOLVERS.values():
        assert parameters(solver) == ["objective", "rng"]
    assert parameters(rdg3_group) == ["objective"]
    assert parameters(dgsc_group) == ["objective", "rng"]
    assert parameters(CmaesSubsolver) == ["view"]
    assert parameters(SansdeSubsolver) == ["view"]
    assert parameters(SuccessHistory) == []
    assert parameters(eade_mutation) == ["positions", "order", "n_slice", "n", "rng"]


@pytest.mark.parametrize("name", sorted(MIN_POPULATION))
def test_config_and_solver_share_the_registered_population_floor(name):
    floor = MIN_POPULATION[name]

    def config(population):
        return ExperimentConfig(
            grid=[{"sensors": [8], "epsilon": [0.1], "rho": [0.0]}], algorithms=[name],
            trials=1, max_evals=200, population_sizes={8: population}, base_seed=0,
            output_dir="unused",
        )

    with pytest.raises(ValueError, match=f"{name} needs a population of at least {floor}"):
        config(floor - 1)
    config(floor)
    below = TrackedObjective(small_problem(), 200, population_size=floor - 1)
    with pytest.raises(ValueError):
        solve(name, below, np.random.default_rng(0))
    assert below.evals_used == 0
    at_floor = TrackedObjective(small_problem(), 200, population_size=floor)
    solve(name, at_floor, np.random.default_rng(0))
    assert at_floor.evals_used == 200


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_solver_runs_on_the_trackers_clock(name):
    problem = IterationRecorder(small_problem(num_sensors=40).config)
    objective = TrackedObjective(problem, max_evals=3000, population_size=30)
    solve(name, objective, np.random.default_rng(5))
    seen = np.array(problem.iterations)
    clock = np.ceil(np.arange(1, len(seen) + 1) / 30)
    assert len(seen) == 3000
    assert np.all((seen == 1.0) | (seen == clock))
    assert seen.max() == 100.0


def test_readme_library_use_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(np.isfinite(float(value)) for value in printed)
