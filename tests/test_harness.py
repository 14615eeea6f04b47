"""Experiment harness: config parsing, seeding, file outputs, CLI."""

import csv
import dataclasses
import hashlib
import json
import operator
import pickle
from pathlib import Path

import numpy as np
import pytest

from wsnopt import harness
from wsnopt.cli import main
from wsnopt.harness import (
    CaseSpec,
    ExperimentConfig,
    derive_seed,
    fmt,
    run_experiment,
    run_trial,
    sample_step_function,
)
from wsnopt.stats import friedman_ranks, load_reference_table


def write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "grid": [{"sensors": [8], "epsilon": [0.1], "rho": [0.0]}],
        "algorithms": ["eade"],
        "trials": 2,
        "max_evals": 400,
        "population_sizes": {"8": 20},
        "base_seed": 7,
        "output_dir": str(tmp_path / "run"),
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def blocked_tree(tmp_path, monkeypatch):
    """A working directory holding the files ``afile``, ``adir/results``,
    ``tdir/results/traces`` and ``cdir/results/L8-rho0-eps0.1`` (where a
    cell's directory goes) and the directory ``sdir/results/summary.csv``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "adir").mkdir()
    (tmp_path / "adir" / "results").write_text("kept\n")
    (tmp_path / "tdir" / "results").mkdir(parents=True)
    (tmp_path / "tdir" / "results" / "traces").write_text("kept\n")
    (tmp_path / "cdir" / "results").mkdir(parents=True)
    (tmp_path / "cdir" / "results" / "L8-rho0-eps0.1").write_text("kept\n")
    (tmp_path / "sdir" / "results" / "summary.csv").mkdir(parents=True)
    return tmp_path


def tree_contents(root):
    """Every path under ``root``, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.fixture(autouse=True)
def trace_every_100(monkeypatch):
    # Short budgets still sample several trace checkpoints.
    monkeypatch.setattr(harness, "TRACE_STEP", 100)


def hash_outputs(output_dir):
    root = Path(output_dir) / "results"
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*.csv"))
    }


class TestConfig:
    def test_paper_scale_grid_expands_to_24_cases(self, tmp_path):
        path = write_config(
            tmp_path,
            grid=[
                {
                    "sensors": [300],
                    "epsilon": [0.1, 0.05, 0.01, 0.001],
                    "rho": [0.0, 0.01, 0.1, 0.5],
                },
                {
                    "sensors": [600, 800],
                    "epsilon": [0.1, 0.05, 0.01, 0.001],
                    "rho": [0.0],
                },
            ],
            population_sizes={"300": 100, "600": 250, "800": 250},
        )
        config = ExperimentConfig.from_json(path)
        cases = config.cases()
        assert len(cases) == 24
        ids = [c.case_id for c in cases]
        assert ids[0] == "L300-rho0-eps0.1"
        assert ids[3] == "L300-rho0-eps0.001"
        assert ids[4] == "L300-rho0.01-eps0.1"
        assert ids[16] == "L600-rho0-eps0.1"
        assert ids[-1] == "L800-rho0-eps0.001"
        assert len(set(ids)) == 24

    def test_case_ids_match_reference_table(self, tmp_path):
        path = write_config(
            tmp_path,
            grid=[
                {
                    "sensors": [300],
                    "epsilon": [0.1, 0.05, 0.01, 0.001],
                    "rho": [0.0, 0.01, 0.1, 0.5],
                },
                {
                    "sensors": [600, 800],
                    "epsilon": [0.1, 0.05, 0.01, 0.001],
                    "rho": [0.0],
                },
            ],
            population_sizes={"300": 100, "600": 250, "800": 250},
        )
        config = ExperimentConfig.from_json(path)
        expected, _, _ = load_reference_table()
        assert [c.case_id for c in config.cases()] == list(expected)

    def test_a_case_repeated_across_blocks_runs_once(self, tmp_path):
        block = {"sensors": [8], "epsilon": [0.1], "rho": [0.0, 0.5]}
        config = ExperimentConfig.from_json(write_config(tmp_path, grid=[block, block]))
        assert [c.case_id for c in config.cases()] == ["L8-rho0-eps0.1", "L8-rho0.5-eps0.1"]

    def test_negative_zero_rho_is_rho_zero(self, tmp_path):
        grid = [{"sensors": [8], "epsilon": [0.1], "rho": [0, -0.0]}]
        config = ExperimentConfig.from_json(write_config(tmp_path, grid=grid))
        assert [c.case_id for c in config.cases()] == ["L8-rho0-eps0.1"]
        assert str(config.cases()[0].correlation) == "0.0"

    def test_unknown_algorithm_rejected_with_choices(self, tmp_path):
        path = write_config(tmp_path, algorithms=["eade", "gradient-descent"])
        with pytest.raises(ValueError, match="gradient-descent"):
            ExperimentConfig.from_json(path)

    def test_missing_population_size_names_the_case(self, tmp_path):
        path = write_config(
            tmp_path,
            grid=[{"sensors": [8, 12], "epsilon": [0.1], "rho": [0.0]}],
        )
        with pytest.raises(ValueError, match="12 sensors"):
            ExperimentConfig.from_json(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, budget=500)
        with pytest.raises(ValueError, match="budget"):
            ExperimentConfig.from_json(path)

    def test_nonpositive_trials_rejected(self, tmp_path):
        path = write_config(tmp_path, trials=0)
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig.from_json(path)

    def test_fields_cannot_be_reassigned(self, tmp_path):
        config = ExperimentConfig.from_json(write_config(tmp_path))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 0

    @pytest.mark.parametrize(
        "change",
        [
            lambda c: c.grid[0]["rho"].append(1.5),
            lambda c: c.grid[0].rho.append(1.5),
            lambda c: operator.setitem(c.grid[0].rho, 0, 1.5),
            lambda c: c.grid.append(c.grid[0]),
            lambda c: operator.setitem(c.population_sizes, 8, 3),
            lambda c: operator.setitem(c.population_sizes[0], 1, 3),
            lambda c: c.algorithms.append("nope"),
        ],
        ids=["block-by-key", "block-values", "block-value", "grid", "sizes", "size-pair",
             "algorithms"],
    )
    def test_checked_config_rejects_in_place_changes(self, tmp_path, change):
        config = ExperimentConfig.from_json(write_config(tmp_path))
        with pytest.raises((AttributeError, TypeError)):
            change(config)
        assert [c.case_id for c in config.cases()] == ["L8-rho0-eps0.1"]
        assert config.population_size(8) == 20
        assert config.algorithms == ("eade",)

    def test_population_sizes_are_sorted_pairs_read_by_lookup(self, tmp_path):
        config = ExperimentConfig.from_json(
            write_config(tmp_path, population_sizes={"12": 30, "8": 20}))
        assert config.population_sizes == ((8, 20), (12, 30))
        assert config.population_size(12) == 30
        assert config.population_size(9) is None

    def test_population_size_key_must_be_an_integer(self):
        with pytest.raises(ValueError, match="sensor count must be an integer, not '9'"):
            ExperimentConfig(
                grid=[{"sensors": [8], "epsilon": [0.1], "rho": [0.0]}], algorithms=["eade"],
                trials=1, max_evals=100, population_sizes={8: 20, "9": 20}, base_seed=0,
                output_dir="unused",
            )

    def test_pickle_round_trip_gives_an_equal_config(self, tmp_path):
        config = ExperimentConfig.from_json(write_config(tmp_path))
        assert pickle.loads(pickle.dumps(config)) == config

    def test_replace_takes_the_stored_forms_and_checks_again(self, tmp_path):
        config = ExperimentConfig.from_json(write_config(tmp_path))
        with_two = ExperimentConfig.from_json(write_config(tmp_path, workers=2))
        assert dataclasses.replace(config, workers=2) == with_two
        with pytest.raises(ValueError, match="workers must be at least 1"):
            dataclasses.replace(config, workers=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_run_experiment_checks_worker_override_before_output(self, tmp_path, workers):
        config = ExperimentConfig.from_json(write_config(tmp_path))
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_experiment(config, workers=workers)
        assert not (tmp_path / "run").exists()


class TestSeeding:
    def test_derived_seeds_are_stable_and_distinct(self):
        a = derive_seed(7, "L8-rho0-eps0.1", "eade", 0)
        b = derive_seed(7, "L8-rho0-eps0.1", "eade", 0)
        c = derive_seed(7, "L8-rho0-eps0.1", "eade", 1)
        d = derive_seed(7, "L8-rho0-eps0.1", "mlshade-spa", 0)
        e = derive_seed(8, "L8-rho0-eps0.1", "eade", 0)
        assert a == b
        assert len({a, c, d, e}) == 4

    def test_fading_shared_across_algorithms_within_a_case(self, tmp_path):
        path = write_config(tmp_path)
        config = ExperimentConfig.from_json(path)
        case = config.cases()[0]
        first = config.problem_config(case)
        second = config.problem_config(case)
        assert first.fading_seed == second.fading_seed

    def test_case_id_formatting(self):
        assert CaseSpec(300, 0.1, 0.0).case_id == "L300-rho0-eps0.1"
        assert CaseSpec(600, 0.001, 0.01).case_id == "L600-rho0.01-eps0.001"
        assert CaseSpec(50, 0.05, 0.5).case_id == "L50-rho0.5-eps0.05"


class TestTrialRecord:
    def test_trace_is_monotone_and_ends_at_best(self, tmp_path):
        path = write_config(tmp_path)
        config = ExperimentConfig.from_json(path)
        case = config.cases()[0]
        record = run_trial(config, case, "eade", 0)
        values = [v for _, v in record.trace]
        # The one allowed rise is the first feasible point displacing a lower
        # penalized value.
        rises = sum(b > a for a, b in zip(values, values[1:]))
        assert rises <= 1
        assert rises == 0 or record.feasible
        assert values[-1] == record.best_f
        assert record.evals_used == config.max_evals

    @pytest.mark.parametrize("algorithm", ["eade", "mlshade-spa", "cbcc-rdg3", "dgsc-decc"])
    def test_best_is_reported_solution_power(self, tmp_path, algorithm):
        # A trial sees a feasible point exactly when it reports a feasible
        # solution, and then its best must be that solution's power.
        config = ExperimentConfig.from_json(write_config(tmp_path))
        case = config.cases()[0]
        records = [run_trial(config, case, algorithm, trial) for trial in range(3)]
        assert any(r.feasible for r in records)
        for record in records:
            if record.feasible:
                assert record.best_f == record.power

    def test_feasible_flag_matches_stored_vector(self, tmp_path):
        from wsnopt.problem import PowerAllocationProblem

        # The second trial's ceiling is out of reach in 60 evaluations, so its
        # best is infeasible and carries a penalty on top of its power.
        tight = {"grid": [{"sensors": [20], "epsilon": [1e-12], "rho": [0.0]}],
                 "max_evals": 60, "population_sizes": {"20": 20}}
        for overrides, feasible in [({"max_evals": 2000}, True), (tight, False)]:
            path = write_config(tmp_path, **overrides)
            config = ExperimentConfig.from_json(path)
            case = config.cases()[0]
            record = run_trial(config, case, "mlshade-spa", 0)
            problem = PowerAllocationProblem(config.problem_config(case))
            margin = problem.error_probability(record.gains) - problem.config.epsilon
            assert record.feasible == (margin <= 0.0 and np.all(record.gains >= 0.0))
            assert record.feasible is feasible
            assert record.power == pytest.approx(float(record.gains @ record.gains))
            assert record.best_f == record.power if feasible else record.best_f > record.power


class TestStepSampling:
    def test_checkpoints_pick_latest_event_at_or_before(self):
        events = [(1, 50.0), (120, 30.0), (121, 10.0), (500, 2.0)]
        out = sample_step_function(events, [100, 200, 499, 500, 600])
        assert out.tolist() == [50.0, 10.0, 10.0, 2.0, 2.0]

    def test_single_event_extends_forever(self):
        out = sample_step_function([(1, 5.0)], [100, 200])
        assert out.tolist() == [5.0, 5.0]

    def test_checkpoint_before_first_event_is_nan(self):
        out = sample_step_function([(150, 4.0), (300, 1.0)], [100, 150, 299, 300])
        assert np.isnan(out[0])
        assert out[1:].tolist() == [4.0, 4.0, 1.0]

    def test_empty_trace_is_all_nan(self):
        out = sample_step_function([], [100, 200])
        assert out.shape == (2,)
        assert np.isnan(out).all()


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("exp")
    path = write_config(
        tmp_path,
        grid=[{"sensors": [8], "epsilon": [0.1, 0.05], "rho": [0.0]}],
        algorithms=["eade", "mlshade-spa"],
    )
    config = ExperimentConfig.from_json(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "TRACE_STEP", 100)
        assert run_experiment(config) is None
    return config, Path(config.output_dir) / "results"


def trial_columns(root, case_id, algorithm):
    """A cell's ``best_f`` and ``feasible`` columns, read from its trials.csv."""
    with open(root / case_id / algorithm / "trials.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return (np.array([float(r["best_f"]) for r in rows]),
            np.array([r["feasible"] == "1" for r in rows]))


class TestOutputs:
    def test_directory_layout(self, experiment):
        config, _ = experiment
        root = Path(config.output_dir) / "results"
        assert (root / "summary.csv").is_file()
        assert (root / "details.csv").is_file()
        assert (root / "L8-rho0-eps0.1" / "eade" / "trials.csv").is_file()
        assert (root / "L8-rho0-eps0.1" / "eade" / "gains.csv").is_file()
        assert (root / "traces" / "L8-rho0-eps0.05.csv").is_file()

    def test_trials_schema(self, experiment):
        config, _ = experiment
        root = Path(config.output_dir) / "results"
        lines = (root / "L8-rho0-eps0.1" / "eade" / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,seed,best_f,feasible,evals"
        assert len(lines) == 1 + config.trials
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[3] in {"0", "1"}
        assert int(first[4]) == config.max_evals

    def test_summary_is_case_by_algorithm_means(self, experiment):
        config, root = experiment
        lines = (root / "summary.csv").read_text().splitlines()
        assert lines[0] == "case,eade,mlshade-spa"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "L8-rho0-eps0.1", "L8-rho0-eps0.05"]
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_summary_means_match_trial_files(self, experiment):
        # The 17-digit cells round-trip, so each equals its recomputed mean.
        config, root = experiment
        with open(root / "summary.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(config.cases())
        for row in rows:
            for algo in config.algorithms:
                values, _ = trial_columns(root, row["case"], algo)
                assert float(row[algo]) == np.mean(values), (row["case"], algo)

    def test_details_schema(self, experiment):
        config, root = experiment
        lines = (root / "details.csv").read_text().splitlines()
        assert lines[0] == "case,algorithm,mean,median,std,min,feasible_rate"
        expected = [(case.case_id, algo) for case in config.cases()
                    for algo in config.algorithms]
        assert [tuple(line.split(",")[:2]) for line in lines[1:]] == expected
        for line, (case_id, algo) in zip(lines[1:], expected):
            values, feasible = trial_columns(root, case_id, algo)
            recomputed = (np.mean(values), np.median(values), np.std(values),
                          np.min(values), np.mean(feasible))
            assert [float(v) for v in line.split(",")[2:]] == list(recomputed), line
            assert 0.0 <= recomputed[4] <= 1.0

    def test_trace_rows_cover_budget_in_steps(self, experiment):
        config, _ = experiment
        root = Path(config.output_dir) / "results"
        lines = (root / "traces" / "L8-rho0-eps0.1.csv").read_text().splitlines()
        assert lines[0] == "eval,eade,mlshade-spa"
        assert len(lines) == 1 + config.max_evals // 100
        evals = [int(line.split(",")[0]) for line in lines[1:]]
        assert evals == list(range(100, config.max_evals + 1, 100))
        for name_idx in (1, 2):
            series = [float(line.split(",")[name_idx]) for line in lines[1:]]
            assert all(b <= a for a, b in zip(series, series[1:]))


def test_trace_ends_at_summary_mean(tmp_path):
    # Every trial's trace follows the one best it reports, so the last trace
    # row of each cell is that cell's summary mean, infeasible trials and the
    # correlated cases included.
    path = write_config(
        tmp_path,
        grid=[{"sensors": [8, 20], "epsilon": [0.1, 0.01], "rho": [0.0, 0.5]}],
        algorithms=["eade", "mlshade-spa", "cbcc-rdg3", "dgsc-decc"],
        max_evals=2000,
        population_sizes={"8": 20, "20": 20},
        base_seed=11,
    )
    assert main(["run", str(path)]) == 0
    root = tmp_path / "run" / "results"
    summary = (root / "summary.csv").read_text().splitlines()
    algorithms = summary[0].split(",")[1:]
    assert len(summary) == 9
    for line in summary[1:]:
        case_id, *means = line.split(",")
        last = (root / "traces" / f"{case_id}.csv").read_text().splitlines()[-1]
        step, *ends = last.split(",")
        assert step == "2000"
        for algo, mean, end in zip(algorithms, means, ends):
            assert float(end) == pytest.approx(float(mean), rel=1e-12), (case_id, algo)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        path_a = write_config(tmp_path, name="a.json", output_dir=str(tmp_path / "a"))
        path_b = write_config(tmp_path, name="b.json", output_dir=str(tmp_path / "b"))
        run_experiment(ExperimentConfig.from_json(path_a))
        run_experiment(ExperimentConfig.from_json(path_b))
        assert hash_outputs(tmp_path / "a") == hash_outputs(tmp_path / "b")

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        path_a = write_config(
            tmp_path, name="serial.json", output_dir=str(tmp_path / "serial")
        )
        path_b = write_config(
            tmp_path, name="pool.json", output_dir=str(tmp_path / "pool")
        )
        run_experiment(ExperimentConfig.from_json(path_a), workers=1)
        run_experiment(ExperimentConfig.from_json(path_b), workers=3)
        assert hash_outputs(tmp_path / "serial") == hash_outputs(tmp_path / "pool")

    def test_pool_gets_no_more_workers_than_trials(self, tmp_path, monkeypatch):
        requested = []

        class InProcessPool:
            """Records the pool size it is asked for and maps in this process."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        trees = {}
        for trials, workers in [(2, 1), (2, 8), (1, 1), (1, 8)]:
            out = tmp_path / f"t{trials}w{workers}"
            path = write_config(tmp_path, trials=trials, output_dir=str(out))
            run_experiment(ExperimentConfig.from_json(path), workers=workers)
            trees[trials, workers] = hash_outputs(out)
        # Two trials get two processes; one trial runs in this process.
        assert requested == [2]
        assert trees[2, 8] == trees[2, 1]
        assert trees[1, 8] == trees[1, 1]


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "summary.csv" in out
        assert (Path(tmp_path / "run") / "results" / "summary.csv").is_file()

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, algorithms=["nope"])
        assert main(["run", str(path)]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"grid": [{"sensors": [8], "epsilon": [0.1], "rho": [1.0]}]}, "correlation"),
            ({"grid": [{"sensors": [8], "epsilon": [0.1], "rho": [0]},
                       {"sensors": [], "epsilon": [0.1], "rho": [0]}]},
             "grid block 1: sensors must be a non-empty list"),
            ({"population_sizes": {"8": 9}}, "eade needs a population"),
            ({"trials": 2.5}, "trials must be an integer"),
            ({"trials": True}, "trials must be an integer"),
            ({"max_evals": 100.5}, "max_evals must be an integer"),
            ({"grid": [{"sensors": [8], "epsilon": [0.1]}]},
             "grid block 0: rho must be a non-empty list"),
            ({"workers": "2"}, "workers must be an integer"),
            ({"base_seed": 7.0}, "base_seed must be an integer"),
            ({"population_sizes": [10]}, "population_sizes must map"),
            ({"population_sizes": {"8": 20.0}}, "population size for 8 sensors"),
            ({"grid": [{"sensors": [8.0], "epsilon": [0.1], "rho": [0.0]}]}, "sensor count"),
            ({"grid": [{"sensors": [8], "epsilon": [0.1], "rho": ["0.5"]}]},
             "rho must be a number"),
            ({"grid": [{"sensors": [8], "epsilon": [0.1], "rho": [False]}]},
             "rho must be a number"),
            ({"grid": [{"sensors": [8], "epsilon": ["0.1"], "rho": [0.0]}]},
             "epsilon must be a number"),
            ({"grid": [{"sensors": [8], "epsilon": [True], "rho": [0.0]}]},
             "epsilon must be a number"),
            ({"workers": 0}, "workers must be at least 1"),
            ({"workers": -2}, "workers must be at least 1"),
            ({"algorithms": ["cbcc-rdg3", "dgsc-decc"], "population_sizes": {"8": 0}},
             "population size for 8 sensors must be at least 1"),
            ({"algorithms": ["cbcc-rdg3", "dgsc-decc"], "population_sizes": {"8": -5}},
             "population size for 8 sensors must be at least 1"),
            ({"algorithms": ["eade", "cbcc-rdg3", "eade"]}, "algorithms must not repeat"),
            ({"population_sizes": {"8": 20, "08": 30}},
             "population_sizes names a sensor count twice"),
            ({"grid": [{"sensors": [8], "epsilon": [0.1, 0.1000001],
                        "rho": [0.5, 0.50000001]}]},
             "share the case id L8-rho0.5-eps0.1"),
            ({"grid": [{"sensors": [8], "epsilon": [0.1], "rho": [0], "trials": [9]}]},
             "unknown grid block keys: ['trials']"),
            ({"grid": [{"sensors": [], "epsilon": [0.1], "rho": [0]}]},
             "grid block 0: sensors must be a non-empty list"),
            ({"grid": [{"sensors": 8, "epsilon": [0.1], "rho": [0]}]},
             "grid block 0: sensors must be a non-empty list"),
            ({"grid": [{"sensors": [8], "epsilon": "0.1", "rho": [0]}]},
             "grid block 0: epsilon must be a non-empty list"),
            ({"grid": [[8], [0.1], [0]]}, "grid block 0 must be an object"),
            ({"grid": {"sensors": [8], "epsilon": [0.1], "rho": [0]}},
             "grid must be a non-empty list"),
            ({"grid": []}, "grid must be a non-empty list"),
            ({"algorithms": "eade"}, "algorithms must be a non-empty list"),
            ({"algorithms": []}, "algorithms must be a non-empty list"),
            ({"population_sizes": {"8.0": 20}},
             "population_sizes keys must be decimal integers, not ['8.0']"),
            ({"output_dir": 5}, "output_dir must be a string, not 5"),
            ({"output_dir": None}, "output_dir must be a string, not None"),
            ({"output_dir": ["a"]}, "output_dir must be a string, not ['a']"),
            ({"output_dir": ""}, "config error: output_dir must not be empty"),
            ({"output_dir": "afile"}, "output_dir 'afile': afile is not a directory"),
            ({"output_dir": "afile/sub"}, "output_dir 'afile/sub': afile is not a directory"),
            ({"output_dir": "adir"}, "output_dir 'adir': adir/results is not a directory"),
            ({"output_dir": "tdir"},
             "output_dir 'tdir': tdir/results/traces is not a directory"),
            ({"output_dir": "cdir"},
             "output_dir 'cdir': cdir/results/L8-rho0-eps0.1 is not a directory"),
            ({"output_dir": "sdir"}, "output_dir 'sdir': sdir/results/summary.csv is a directory"),
        ],
    )
    def test_run_rejects_out_of_range_values_before_output(
        self, blocked_tree, capsys, overrides, message
    ):
        path = write_config(blocked_tree, **overrides)
        before = tree_contents(blocked_tree)
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert tree_contents(blocked_tree) == before

    @pytest.mark.parametrize("text", ["[1, 2]", "7"])
    def test_run_rejects_config_that_is_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert "config error: config must be a JSON object" in capsys.readouterr().err

    def test_run_rejects_non_positive_worker_count_before_output(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--workers", "0"]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    CASE_FLAGS = ["--sensors", "8", "--epsilon", "0.1", "--algo", "eade", "--trials", "2",
                  "--seed", "3", "--max-evals", "300", "--population", "20"]

    def test_case_subcommand_writes_files(self, tmp_path, capsys):
        rc = main(["case", *self.CASE_FLAGS, "--out", str(tmp_path / "case")])
        assert rc == 0
        summary = tmp_path / "case" / "results" / "summary.csv"
        assert capsys.readouterr().out == f"wrote 1 cases x 1 algorithms\nsummary: {summary}\n"
        trials = (
            tmp_path / "case" / "results" / "L8-rho0-eps0.1" / "eade" / "trials.csv"
        )
        assert len(trials.read_text().splitlines()) == 3
        # The same tree, byte for byte, as run_experiment on the one-case config.
        path = write_config(tmp_path, max_evals=300, base_seed=3)
        run_experiment(ExperimentConfig.from_json(path))
        assert hash_outputs(tmp_path / "case") == hash_outputs(tmp_path / "run")

    def test_case_rho_negative_zero_writes_the_rho_zero_tree(self, tmp_path):
        for rho in ("0", "-0"):
            assert main(["case", *self.CASE_FLAGS, "--rho", rho,
                         "--out", str(tmp_path / rho)]) == 0
        assert hash_outputs(tmp_path / "-0") == hash_outputs(tmp_path / "0")

    def test_a_second_run_leaves_no_earlier_rank_report(self, tmp_path):
        def run(out, rho, algorithms):
            grid = [{"sensors": [8], "epsilon": [0.1, 0.05, 0.01], "rho": rho}]
            path = write_config(tmp_path, grid=grid, algorithms=algorithms, trials=1,
                                max_evals=200, base_seed=2026, output_dir=str(tmp_path / out))
            assert main(["run", str(path)]) == 0

        def report(out):
            root = tmp_path / out / "results"
            return {name: (root / name).read_text() for name in ("ranks.csv", "pairwise.csv")
                    if (root / name).exists()}

        run("run", [0.0, 0.5], ["eade", "cbcc-rdg3"])
        assert report("run")["pairwise.csv"].startswith("baseline,cbcc-rdg3")
        # The smaller grid's report is exactly what it gives in a new directory.
        run("run", [0.0], ["eade", "mlshade-spa"])
        run("fresh", [0.0], ["eade", "mlshade-spa"])
        assert "mlshade-spa" in report("run")["ranks.csv"]
        assert report("run") == report("fresh")
        assert main(["case", *self.CASE_FLAGS, "--out", str(tmp_path / "run")]) == 0
        assert report("run") == {}

    def test_case_rejects_unknown_algorithm(self, tmp_path, capsys):
        rc = main(
            [
                "case",
                "--sensors",
                "8",
                "--epsilon",
                "0.1",
                "--algo",
                "simplex",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "simplex" in err
        assert "eade" in err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--sensors", "0", "--epsilon", "0.1"], "num_sensors"),
         (["--sensors", "8", "--epsilon", "0.7"], "epsilon"),
         (["--sensors", "8", "--epsilon", "0.1", "--algo", "mlshade-spa",
           "--population", "10"], "population"),
         (["--sensors", "8", "--epsilon", "0.1", "--algo", "eade",
           "--population", "9"], "eade needs a population"),
         (["--sensors", "8", "--epsilon", "0.1", "--algo", "cbcc-rdg3",
           "--population", "0"], "population size for 8 sensors must be at least 1"),
         (["--sensors", "8", "--epsilon", "0.1", "--out", ""], "output_dir must not be empty"),
         (["--sensors", "8", "--epsilon", "0.1", "--out", "afile"],
          "output_dir 'afile': afile is not a directory"),
         (["--sensors", "8", "--epsilon", "0.1", "--out", "adir"],
          "output_dir 'adir': adir/results is not a directory"),
         (["--sensors", "8", "--epsilon", "0.1", "--out", "tdir"],
          "output_dir 'tdir': tdir/results/traces is not a directory"),
         (["--sensors", "8", "--epsilon", "0.1", "--out", "cdir"],
          "output_dir 'cdir': cdir/results/L8-rho0-eps0.1 is not a directory"),
         (["--sensors", "8", "--epsilon", "0.1", "--out", "sdir"],
          "output_dir 'sdir': sdir/results/summary.csv is a directory")],
    )
    def test_case_rejects_out_of_range_values_before_output(
        self, blocked_tree, capsys, flags, message
    ):
        # A row's own --out comes later and replaces this one.
        before = tree_contents(blocked_tree)
        rc = main(["case", "--out", str(blocked_tree / "x"), *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert tree_contents(blocked_tree) == before

    def test_stats_subcommand_on_reference_table(self, capsys):
        from importlib import resources

        table = resources.files("wsnopt").joinpath("data/reference_means.csv")
        with resources.as_file(table) as path:
            rc = main(["stats", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cbcc-rdg3" in out
        assert "1.3333" in out
        assert "3.9583" in out
        assert "p = " in out

    def test_stats_reads_reference_table_like_load_reference_table(self, capsys):
        from importlib import resources

        cases, names, matrix = load_reference_table()
        table = resources.files("wsnopt").joinpath("data/reference_means.csv")
        with resources.as_file(table) as path:
            with open(path, newline="", encoding="utf-8") as handle:
                records = list(csv.DictReader(handle))
            assert main(["stats", str(path)]) == 0
        assert cases == [r["case"] for r in records]
        np.testing.assert_array_equal(
            matrix, [[float(r[name]) for name in names] for r in records]
        )
        ranks = friedman_ranks(matrix)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"24 cases, {len(names)} algorithms"
        for line, name, rank in zip(lines[2:], names, ranks.average_ranks):
            assert line.split()[:2] == [name, f"{rank:.4f}"]

    @pytest.mark.parametrize("row", ["c2,3.0", "c2,3.0,4.0,5.0"])
    def test_stats_rejects_ragged_row(self, tmp_path, capsys, row):
        table = tmp_path / "table.csv"
        table.write_text(f"case,a,b\nc1,1.0,2.0\n{row}\nc3,4.0,5.0\n")
        assert main(["stats", str(table)]) == 2
        assert "table error: every row needs 3 cells" in capsys.readouterr().err

    def test_stats_rejects_missing_file(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "absent.csv")])
        assert rc == 2
        assert "table error" in capsys.readouterr().err

    def test_stats_rejects_non_finite_entry(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("case,a,b\nc1,1.0,2.0\nc2,nan,3.0\nc3,4.0,5.0\n")
        assert main(["stats", str(table)]) == 2
        assert "table error: table entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("case,eade,eade,x\nc1,1,2,3\nc2,3,2,1\n",
             "table error: algorithm names must not repeat: ['eade']"),
            ("case,a,b\nc1,1,2\nc2,2,1\nc1,1,2\nc3,1,2\nc2,2,1\n",
             "table error: case ids must not repeat: ['c1', 'c2']"),
        ],
    )
    def test_stats_rejects_repeated_names(self, tmp_path, capsys, text, message):
        table = tmp_path / "table.csv"
        table.write_text(text)
        assert main(["stats", str(table)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_stats_on_a_grid_summary_agrees_with_its_rank_report(self, tmp_path, capsys):
        grid = [{"sensors": [8], "epsilon": [0.1, 0.05, 0.01], "rho": [0.0, 0.5]}]
        path = write_config(tmp_path, grid=grid, trials=1, max_evals=200,
                            algorithms=["eade", "cbcc-rdg3", "dgsc-decc"])
        assert main(["run", str(path)]) == 0
        root = tmp_path / "run" / "results"
        capsys.readouterr()
        assert main(["stats", str(root / "summary.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "6 cases, 3 algorithms"
        with open(root / "ranks.csv", newline="", encoding="utf-8") as handle:
            ranks = list(csv.DictReader(handle))
        for line, rank in zip(lines[2:5], ranks):
            assert line.split() == [rank["algorithm"], f"{float(rank['average_rank']):.4f}",
                                    f"{float(rank['normalized']):.4f}", rank["order"]]
        pairwise = (root / "pairwise.csv").read_text().splitlines()
        baseline = pairwise[0].split(",")[1]
        assert baseline == min(ranks, key=lambda r: float(r["average_rank"]))["algorithm"]
        assert lines[5] == f"pairwise signed-rank tests vs {baseline} (rank-transformed):"
        printed = [line.split()[0] for line in lines[6:]]
        assert printed == [row.split(",")[0] for row in pairwise[2:]]

    def test_validate_subcommand_passes(self, capsys):
        rc = main(["validate", "--samples", "20000", "--configs", "4", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "agrees" in out

    @pytest.mark.parametrize("configs", ["0", "-3"])
    def test_validate_rejects_a_config_count_below_one(self, capsys, configs):
        assert main(["validate", "--configs", configs]) == 2
        captured = capsys.readouterr()
        assert "--configs must be at least 1" in captured.err
        assert "agrees" not in captured.out

    def test_validate_rejects_fewer_than_1000_samples(self, capsys):
        assert main(["validate", "--samples", "999"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "--samples must be at least 1000\n"
        assert captured.out == ""

    def test_stats_skips_pairwise_tests_on_three_cases(self, tmp_path, capsys):
        table = tmp_path / "three.csv"
        table.write_text("case,a,b\nc1,1,2\nc2,2,3\nc3,3,4\n")
        assert main(["stats", str(table)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("3 cases, 2 algorithms\n")
        assert "pairwise tests skipped: need at least 5 nonzero differences" in out

    @pytest.mark.parametrize("seed", ["-1", "-2026"])
    def test_validate_rejects_a_negative_seed(self, capsys, seed):
        assert main(["validate", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "--seed must be non-negative" in captured.err
        assert captured.out == ""


class TestFormatting:
    def test_fmt_round_trips_doubles(self):
        for value in [0.1, 1.0 / 3.0, 1e-300, 12345.6789, 2.0**-52]:
            assert float(fmt(value)) == value

    def test_fmt_is_plain_ascii(self):
        assert fmt(0.5) == "0.5"
        assert fmt(2.0) == "2"
