"""Experiment orchestration: case grids, seeded trials, result files.

A configuration file names grid blocks (sensor counts crossed with error
thresholds and correlation factors), the algorithms to run, trial counts,
and the evaluation budget.  Every trial owns an independent random stream
derived by hashing the base seed with the case id, algorithm name, and
trial index, so results are reproducible run-to-run and independent of
worker parallelism.  All floats are written with repr-faithful formatting
to keep output files byte-identical across executions.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .evo import TrackedObjective
from .problem import PowerAllocationProblem, WsnConfig
from .solvers import MIN_POPULATION, SOLVERS, solve
from .stats import friedman_ranks, paired_rank_tests


def fmt(value: float) -> str:
    """Shortest round-trip decimal form, stable across runs."""
    return "%.17g" % float(value)


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit stream seed from the base seed and labels."""
    text = "|".join([str(base_seed), *[str(p) for p in parts]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class CaseSpec:
    """One problem instance of the experiment grid."""

    sensors: int
    epsilon: float
    correlation: float

    @property
    def case_id(self) -> str:
        return f"L{self.sensors}-rho{self.correlation:g}-eps{self.epsilon:g}"


@dataclass
class TrialRecord:
    case_id: str
    algorithm: str
    trial: int
    seed: int
    best_f: float
    gains: np.ndarray
    power: float
    feasible: bool
    evals_used: int
    trace: list


@dataclass
class CellStats:
    """Aggregates for one case and algorithm over its trials."""

    mean: float
    median: float
    std: float
    minimum: float
    feasible_rate: float


@dataclass
class ExperimentResult:
    cases: list
    algorithms: list
    means: np.ndarray
    cells: dict


class GridBlock(NamedTuple):
    """One block of the grid: every sensor count crossed with every factor."""

    sensors: tuple
    epsilon: tuple
    rho: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment grid; every construction runs ``__post_init__``'s checks.

    A checked config cannot change: ``algorithms`` and ``grid`` (of
    ``GridBlock``) are tuples and ``population_sizes`` is sorted ``(sensors,
    size)`` pairs.  It takes these forms back, so ``replace`` checks again.
    """

    grid: tuple
    algorithms: tuple
    trials: int
    max_evals: int
    population_sizes: tuple
    base_seed: int
    output_dir: str
    workers: int = 1
    trace_step: int = 500

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        sizes = raw.get("population_sizes")
        if isinstance(sizes, dict):
            raw["population_sizes"] = {int(k): v for k, v in sizes.items()}
            if len(raw["population_sizes"]) < len(sizes):
                raise ValueError(
                    f"population_sizes names a sensor count twice: {sorted(sizes)}")
        return cls(**raw)

    def __post_init__(self):
        sizes = self.population_sizes
        if isinstance(sizes, dict):
            sizes = tuple(sizes.items())
        if not isinstance(sizes, tuple):
            raise ValueError("population_sizes must map sensor counts to sizes")
        grid = tuple(block if isinstance(block, GridBlock) else GridBlock(
            *(tuple(block[name]) for name in GridBlock._fields)) for block in self.grid)
        positive = [("trials", self.trials), ("max_evals", self.max_evals),
                    ("trace_step", self.trace_step), ("workers", self.workers)]
        positive += [(f"population size for {k} sensors", v) for k, v in sizes]
        counts = positive + [("base_seed", self.base_seed)]
        counts += [("sensor count", n) for n, _ in sizes]
        counts += [("sensor count", n) for block in grid for n in block.sensors]
        for name, value in counts:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        # The sensor counts are integers, so the pairs sort by them.
        object.__setattr__(self, "population_sizes", tuple(sorted(sizes)))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        for name in ("rho", "epsilon"):
            for value in (v for block in grid for v in getattr(block, name)):
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"{name} must be a number, not {value!r}")
        for name, value in positive:
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        if not grid:
            raise ValueError("grid must contain at least one block")
        unknown = [a for a in self.algorithms if a not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; available: {sorted(SOLVERS)}")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"algorithms must not repeat: {list(self.algorithms)}")
        for case in self.cases():
            population = self.population_size(case.sensors)
            if population is None:
                raise ValueError(f"population size missing for {case.sensors} sensors"
                                 f" (case {case.case_id})")
            for algorithm in self.algorithms:
                floor = MIN_POPULATION.get(algorithm, 1)
                if population < floor:
                    raise ValueError(f"{algorithm} needs a population of at least {floor}"
                                     f" (case {case.case_id})")
            # Builds the case's problem description, which checks its ranges.
            self.problem_config(case)

    def population_size(self, sensors: int) -> int | None:
        """The population size set for ``sensors`` sensors, or None."""
        return dict(self.population_sizes).get(sensors)

    def cases(self) -> list:
        seen = {}
        for block in self.grid:
            for sensors in block.sensors:
                for rho in block.rho:
                    for eps in block.epsilon:
                        case = CaseSpec(int(sensors), float(eps), float(rho))
                        seen.setdefault(case.case_id, case)
        return list(seen.values())

    def problem_config(self, case: CaseSpec) -> WsnConfig:
        return WsnConfig(
            num_sensors=case.sensors,
            correlation=case.correlation,
            epsilon=case.epsilon,
            fading_seed=derive_seed(self.base_seed, case.case_id, "fading"),
        )


def run_trial(
    config: ExperimentConfig, case: CaseSpec, algorithm: str, trial: int
) -> TrialRecord:
    """Execute one seeded trial and package the outcome."""
    problem = PowerAllocationProblem(config.problem_config(case))
    population = config.population_size(case.sensors)
    objective = TrackedObjective(problem, config.max_evals, population)
    seed = derive_seed(config.base_seed, case.case_id, algorithm, trial)
    solve(algorithm, objective, np.random.default_rng(seed))
    # Only the tracker calls ``problem.batch``, so every row through it is a
    # budgeted evaluation; this scoring row is not, and skips it.
    _, feasible, power = problem.evaluate_rows(objective.best_x, [1])
    return TrialRecord(
        case_id=case.case_id,
        algorithm=algorithm,
        trial=trial,
        seed=seed,
        best_f=objective.best_f,
        gains=np.asarray(objective.best_x, dtype=float),
        power=float(power[0]),
        feasible=bool(feasible[0]),
        evals_used=objective.evals_used,
        trace=list(objective.improvements),
    )


def _trial_job(args) -> TrialRecord:
    config, case, algorithm, trial = args
    return run_trial(config, case, algorithm, trial)


def sample_step_function(events, checkpoints) -> np.ndarray:
    """Best-so-far values at the checkpoints from improvement events.

    ``events`` are ``(evaluation, value)`` pairs in evaluation order; a
    checkpoint before the first event samples NaN.
    """
    events = np.asarray(events, dtype=float).reshape(-1, 2)
    values = np.concatenate([[math.nan], events[:, 1]])
    return values[np.searchsorted(events[:, 0], checkpoints, side="right")]


def _write_csv(path: Path, header, rows):
    """One comma-separated line for the header and for each row of cells."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_cell_files(directory: Path, records: list):
    """Per-trial results and gain vectors for one case and algorithm."""
    directory.mkdir(parents=True, exist_ok=True)
    _write_csv(
        directory / "trials.csv",
        ["trial", "seed", "best_f", "feasible", "evals"],
        ([str(r.trial), str(r.seed), fmt(r.best_f), str(int(r.feasible)), str(r.evals_used)]
         for r in records),
    )
    width = len(records[0].gains)
    _write_csv(
        directory / "gains.csv",
        ["trial", "seed", "power"] + [f"g{i}" for i in range(width)],
        ([str(r.trial), str(r.seed), fmt(r.power)] + [fmt(v) for v in r.gains]
         for r in records),
    )


def write_trace_file(path: Path, algorithms, traces, checkpoints):
    """Mean best-so-far per algorithm at each evaluation checkpoint."""
    _write_csv(
        path,
        ["eval"] + list(algorithms),
        ([str(int(c))] + [fmt(traces[a][k]) for a in algorithms]
         for k, c in enumerate(checkpoints)),
    )


def write_summary(path: Path, cases, algorithms, means: np.ndarray):
    _write_csv(
        path,
        ["case"] + list(algorithms),
        ([case_id] + [fmt(v) for v in means[i]] for i, case_id in enumerate(cases)),
    )


def write_details(path: Path, cases, algorithms, cells):
    rows = []
    for case_id in cases:
        for algo in algorithms:
            s = cells[(case_id, algo)]
            rows.append([case_id, algo] + [fmt(v) for v in (
                s.mean, s.median, s.std, s.minimum, s.feasible_rate)])
    _write_csv(path, ["case", "algorithm", "mean", "median", "std", "min", "feasible_rate"], rows)


def write_rank_report(root: Path, cases, algorithms, means: np.ndarray):
    """Friedman ranks plus paired tests against the best-ranked algorithm."""
    if len(cases) < 2 or len(algorithms) < 2:
        return
    ranks = friedman_ranks(means)
    _write_csv(
        root / "ranks.csv",
        ["algorithm", "average_rank", "normalized", "order"],
        ([algo, fmt(ranks.average_ranks[j]), fmt(ranks.normalized[j]), str(ranks.order[j])]
         for j, algo in enumerate(algorithms)),
    )

    baseline = int(np.argmin(ranks.average_ranks))
    try:
        tests = paired_rank_tests(means, baseline)
    except ValueError:
        return
    rows = [["algorithm", "p_value", "statistic", "n", "exact"]]
    for col in sorted(tests):
        t = tests[col]
        rows.append([algorithms[col], fmt(t.p_value), fmt(t.statistic), str(t.n_used),
                     str(int(t.exact))])
    _write_csv(root / "pairwise.csv", ["baseline", algorithms[baseline]], rows)


def run_experiment(config: ExperimentConfig, workers: int | None = None):
    """Run the full grid and persist every output file.

    Trials execute in a deterministic order (case-major, then algorithm,
    then trial).  With more than one worker the trials run in a process
    pool; records are still committed in submission order, so the output
    bytes do not depend on the worker count.  A ``workers`` argument
    replaces the config's count and is checked like it.
    """
    if workers is not None:
        config = replace(config, workers=workers)
    cases = config.cases()
    root = Path(config.output_dir) / "results"
    (root / "traces").mkdir(parents=True, exist_ok=True)

    jobs = [
        (config, case, algo, trial)
        for case in cases
        for algo in config.algorithms
        for trial in range(config.trials)
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = pool.map(_trial_job, jobs, chunksize=1)
            records = _collect(config, cases, root, outcomes)
    else:
        records = _collect(config, cases, root, map(_trial_job, jobs))

    case_ids = [c.case_id for c in cases]
    means = np.array(
        [
            [records[(cid, algo)].mean for algo in config.algorithms]
            for cid in case_ids
        ]
    )
    write_summary(root / "summary.csv", case_ids, config.algorithms, means)
    write_details(root / "details.csv", case_ids, config.algorithms, records)
    write_rank_report(root, case_ids, config.algorithms, means)
    return ExperimentResult(case_ids, list(config.algorithms), means, records)


def _collect(config: ExperimentConfig, cases, root: Path, outcomes) -> dict:
    """Stream trial records in order, flushing files as cells complete."""
    checkpoints = np.arange(
        config.trace_step, config.max_evals + 1, config.trace_step
    )
    cells = {}
    buffer = []
    case_traces = {}
    outcome_iter = iter(outcomes)
    for case in cases:
        case_traces.clear()
        for algo in config.algorithms:
            buffer.clear()
            for _ in range(config.trials):
                buffer.append(next(outcome_iter))
            write_cell_files(root / case.case_id / algo, buffer)
            values = np.array([r.best_f for r in buffer])
            cells[(case.case_id, algo)] = CellStats(
                mean=float(values.mean()),
                median=float(np.median(values)),
                std=float(values.std()),
                minimum=float(values.min()),
                feasible_rate=float(np.mean([r.feasible for r in buffer])),
            )
            sampled = [sample_step_function(r.trace, checkpoints) for r in buffer]
            case_traces[algo] = np.mean(sampled, axis=0)
        write_trace_file(
            root / "traces" / f"{case.case_id}.csv",
            config.algorithms,
            case_traces,
            checkpoints,
        )
    return cells
