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
        "trace_step": 100,
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


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

        path = write_config(tmp_path, max_evals=2000)
        config = ExperimentConfig.from_json(path)
        case = config.cases()[0]
        record = run_trial(config, case, "mlshade-spa", 0)
        problem = PowerAllocationProblem(config.problem_config(case))
        margin = problem.constraint_margin(record.gains)
        assert record.feasible == (margin <= 0.0 and np.all(record.gains >= 0.0))
        assert record.power == pytest.approx(float(record.gains @ record.gains))


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
    result = run_experiment(config)
    return config, result


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
        config, result = experiment
        root = Path(config.output_dir) / "results"
        lines = (root / "summary.csv").read_text().splitlines()
        assert lines[0] == "case,eade,mlshade-spa"
        assert len(lines) == 1 + len(result.cases)
        row = lines[1].split(",")
        assert row[0] == "L8-rho0-eps0.1"
        assert float(row[1]) == result.means[0, 0]

    def test_summary_means_match_trial_files(self, experiment):
        config, result = experiment
        root = Path(config.output_dir) / "results"
        lines = (root / "L8-rho0-eps0.1" / "eade" / "trials.csv").read_text().splitlines()
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert np.mean(values) == pytest.approx(result.means[0, 0], rel=1e-15)

    def test_details_schema(self, experiment):
        config, result = experiment
        root = Path(config.output_dir) / "results"
        lines = (root / "details.csv").read_text().splitlines()
        assert lines[0] == "case,algorithm,mean,median,std,min,feasible_rate"
        assert len(lines) == 1 + len(result.cases) * len(result.algorithms)
        cell = result.cells[("L8-rho0-eps0.1", "eade")]
        row = lines[1].split(",")
        assert row[:2] == ["L8-rho0-eps0.1", "eade"]
        assert float(row[2]) == cell.mean
        assert 0.0 <= cell.feasible_rate <= 1.0

    def test_trace_rows_cover_budget_in_steps(self, experiment):
        config, _ = experiment
        root = Path(config.output_dir) / "results"
        lines = (root / "traces" / "L8-rho0-eps0.1.csv").read_text().splitlines()
        assert lines[0] == "eval,eade,mlshade-spa"
        assert len(lines) == 1 + config.max_evals // config.trace_step
        evals = [int(line.split(",")[0]) for line in lines[1:]]
        assert evals == list(
            range(config.trace_step, config.max_evals + 1, config.trace_step)
        )
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
        trace_step=500,
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
            ({"trace_step": 0}, "trace_step"),
            ({"population_sizes": {"8": 9}}, "eade needs a population"),
            ({"trials": 2.5}, "trials must be an integer"),
            ({"trials": True}, "trials must be an integer"),
            ({"max_evals": 100.5}, "max_evals must be an integer"),
            ({"trace_step": "100"}, "trace_step must be an integer"),
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
        ],
    )
    def test_run_rejects_out_of_range_values_before_output(
        self, tmp_path, capsys, monkeypatch, overrides, message
    ):
        monkeypatch.delenv("WSNOPT_WORKERS", raising=False)
        path = write_config(tmp_path, **overrides)
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "7"])
    def test_run_rejects_config_that_is_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert "config error: config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, env", [(["--workers", "0"], None), ([], "0")])
    def test_run_rejects_non_positive_worker_count_before_output(
        self, tmp_path, capsys, monkeypatch, flags, env
    ):
        path = write_config(tmp_path)
        if env is not None:
            monkeypatch.setenv("WSNOPT_WORKERS", env)
        assert main(["run", str(path), *flags]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_run_workers_env_override(self, tmp_path, monkeypatch):
        path = write_config(
            tmp_path, name="env.json", output_dir=str(tmp_path / "envrun")
        )
        monkeypatch.setenv("WSNOPT_WORKERS", "2")
        assert main(["run", str(path)]) == 0
        reference = write_config(
            tmp_path, name="ref.json", output_dir=str(tmp_path / "ref")
        )
        monkeypatch.delenv("WSNOPT_WORKERS")
        assert main(["run", str(reference)]) == 0
        assert hash_outputs(tmp_path / "envrun") == hash_outputs(tmp_path / "ref")

    def test_case_subcommand_writes_files(self, tmp_path, capsys):
        rc = main(
            [
                "case",
                "--sensors",
                "8",
                "--epsilon",
                "0.1",
                "--algo",
                "eade",
                "--trials",
                "2",
                "--seed",
                "3",
                "--max-evals",
                "300",
                "--population",
                "20",
                "--out",
                str(tmp_path / "case"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "trial 0" in out and "trial 1" in out
        trials = (
            tmp_path / "case" / "results" / "L8-rho0-eps0.1" / "eade" / "trials.csv"
        )
        assert trials.is_file()
        assert len(trials.read_text().splitlines()) == 3

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
           "--population", "0"], "population size for 8 sensors must be at least 1")],
    )
    def test_case_rejects_out_of_range_values_before_output(
        self, tmp_path, capsys, flags, message
    ):
        rc = main(["case", *flags, "--out", str(tmp_path / "x")])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()

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


class TestFormatting:
    def test_fmt_round_trips_doubles(self):
        for value in [0.1, 1.0 / 3.0, 1e-300, 12345.6789, 2.0**-52]:
            assert float(fmt(value)) == value

    def test_fmt_is_plain_ascii(self):
        assert fmt(0.5) == "0.5"
        assert fmt(2.0) == "2"
