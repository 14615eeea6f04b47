"""The benchmark's workloads, the checks on their outputs, and their metrics.

``white-L300`` and ``corr-L300`` call ``harness.run_trial`` in this process,
one round of all four solvers after another, until the requested time has
passed.  ``grid-L800`` runs ``harness.run_experiment`` on a JSON config read
through ``ExperimentConfig.from_json``, with a two-worker process pool, as
many times as fit in the requested time.  Every input is generated here from
the seed; nothing is read from the repository but the package itself.

A run's trials are a fixed set chosen by the seed: a workload's ``rounds``
distinct trial indices, always all run, then run again in turn while time
remains.  A repeated trial must reproduce its first record exactly, so the
trials a run checks, and which of them fail, depend on the seed alone and
not on how many rounds fit in the time.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wsnopt import harness
from wsnopt.evo import Bounds
from wsnopt.problem import fusion_error_probability, sample_fading

import layers
from instrument import Recorder, instrumented, measured_trial, perf, reference_s
from oracle import verified_optimum

SOLVERS = ("eade", "mlshade-spa", "cbcc-rdg3", "dgsc-decc")
# Solver self time is reported under the module that holds the solver's own code.
SELF_LAYER = {"eade": "eade", "mlshade-spa": "mlshade", "cbcc-rdg3": "cc", "dgsc-decc": "cc"}
GROUPING_SOLVERS = ("cbcc-rdg3", "dgsc-decc")
CHECKS = ("budget_mismatch", "infeasible_solution", "best_not_feasible_power")


@dataclass(frozen=True)
class Workload:
    name: str
    sensors: int
    correlation: float
    epsilons: tuple
    max_evals: int
    population: int
    rounds: int = 1  # distinct trial indices per solver; run_experiment always uses trial 0
    workers: int = 0  # 0 runs trials in this process; otherwise run_experiment's pool size

    def config(self, seed: int, output_dir: str, max_evals: int | None = None) -> dict:
        """The experiment config, as the JSON object ``from_json`` reads."""
        return {
            "grid": [{"sensors": [self.sensors], "rho": [self.correlation],
                      "epsilon": list(self.epsilons)}],
            "algorithms": list(SOLVERS),
            "trials": 1,
            "max_evals": max_evals or self.max_evals,
            "population_sizes": {str(self.sensors): self.population},
            "base_seed": seed,
            "output_dir": output_dir,
            "workers": max(1, self.workers),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("white-L300", 300, 0.0, (0.01,), 60_000, 100, rounds=3),
        # 2,500 evaluations, not 5,000, so that a run holds two rounds.
        Workload("corr-L300", 300, 0.5, (0.01,), 2_500, 100, rounds=2),
        Workload("grid-L800", 800, 0.0, (0.1, 0.01), 60_000, 250, workers=2),
    )
}

# ``ref`` is one run of the reference computation (``instrument.reference_s``),
# timed beside every trial; rows per ref cancels the shared host's speed drift.
END_TO_END = {"setup_s": "s", "evals_per_ref": "1/ref", "peak_rss_mb": "MB"}
# Printed and saved with every untraced run, but too noisy on a shared host to gate.
RAW = {"evals_per_s": "1/s", **{f"trial_s.{a}": "s" for a in SOLVERS}, "ref_s": "s"}


def per_layer_units() -> dict:
    units = {
        "problem.rows": "count", "problem.calls": "count", "problem.busy_s": "s",
        "problem.busy_share": "ratio", "problem.us_per_row": "us",
        "problem.rows_per_call": "count",
        **{f"problem.first_feasible_eval.{a}": "count" for a in SOLVERS},
        "evo.calls": "count", "evo.single_row_calls": "count", "evo.self_s": "s",
    }
    for a in GROUPING_SOLVERS:
        units.update({f"grouping.busy_s.{a}": "s", f"grouping.self_s.{a}": "s",
                      f"grouping.probe_rows.{a}": "count", f"grouping.probe_share.{a}": "ratio",
                      f"grouping.groups.{a}": "count", f"grouping.max_group.{a}": "count"})
    units.update({
        "eade.self_s": "s", "mlshade.self_s": "s", "cc.self_s": "s",
        "mlshade.local_search_s": "s", "mlshade.local_search_rows": "count",
        "cmaes.steps": "count", "cmaes.self_s": "s", "cmaes.resets": "count",
        "sansde.steps": "count", "sansde.self_s": "s",
        "harness.pool_efficiency": "ratio", "harness.collect_wait_s": "s",
        "harness.write_s": "s", "harness.bytes_written": "bytes", "stats.busy_s": "s",
        **{f"check.{c}": "count" for c in CHECKS},
        **{f"power.{a}": "power" for a in SOLVERS},
        **{f"trace.trial_s.{a}": "s" for a in SOLVERS},
        "trace.untraced_s": "s", "trace.spans": "count", "trace.evals_per_ref": "1/ref",
    })
    return units


PER_LAYER = per_layer_units()


@dataclass
class RunResult:
    outcomes: list
    distinct: list  # index into outcomes of each trial's first run
    wall_s: float
    ref_units: float  # measured wall time in units of the reference computation
    repeats: int
    recorder: Recorder
    bytes_written: int
    identical: bool
    workers: int


def fingerprint(record) -> tuple:
    """What a repeated trial must reproduce exactly."""
    return (record.seed, record.best_f, record.power, record.evals_used, record.rows,
            record.gains.tobytes())


def tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the total size."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def load_config(workload: Workload, seed: int, out_dir: Path, max_evals=None):
    """Write the generated config as JSON and load it the way the CLI does."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "config.json"
    raw = workload.config(seed, str(out_dir / "grid"), max_evals)
    path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return harness.ExperimentConfig.from_json(path)


def run_workload(workload: Workload, config, seconds: float, traced: bool) -> RunResult:
    """Measure whole rounds until ``seconds`` have passed.

    In-process, a round is one trial of each solver and its time is the sum
    of their wall times; with a pool, a round is one ``run_experiment`` and
    its time is that call's wall time.  Each round's time is also expressed
    in units of the reference computation timed beside its trials.
    """
    rec = Recorder(traced)
    outcomes, walls, ref_units, digests = [], [], 0.0, []
    first, identical = {}, True
    case = config.cases()[0]
    with instrumented(rec):
        reference_s()  # warm caches before the first trial
        while len(walls) < workload.rounds or sum(walls) < seconds:
            if workload.workers:
                del rec.records[:]
                start = perf()
                harness.run_experiment(config)
                walls.append(perf() - start)
                for record in rec.records:
                    record.repeat = len(walls) - 1
                batch = list(rec.records)
                digests.append(tree_digest(Path(config.output_dir)))
            else:
                trial = len(walls) % workload.rounds
                batch = [measured_trial(config, case, a, trial) for a in config.algorithms]
                walls.append(sum(r.wall_s for r in batch))
            for record in batch:
                key = (record.case_id, record.algorithm, record.trial)
                if key in first:
                    identical &= fingerprint(outcomes[first[key]]) == fingerprint(record)
                else:
                    first[key] = len(outcomes)
                outcomes.append(record)
            ref_units += walls[-1] / statistics.mean(r.ref_s for r in batch)
    return RunResult(
        outcomes=outcomes,
        distinct=sorted(first.values()),
        wall_s=sum(walls),
        ref_units=ref_units,
        repeats=len(walls),
        recorder=rec,
        bytes_written=digests[0][1] if digests else 0,
        identical=identical and len({d for d, _ in digests}) <= 1,
        workers=max(1, workload.workers),
    )


def optima(config) -> dict:
    """Verified exact optimum per white-noise case id."""
    upper = Bounds().upper
    out = {}
    for case in config.cases():
        if case.correlation == 0.0:
            cfg = config.problem_config(case)
            out[case.case_id] = verified_optimum(cfg, sample_fading(cfg), upper).power
    return out


def check_trial(config, case_by_id: dict, record) -> dict:
    """The per-trial output checks; each true entry is a failure."""
    cfg = config.problem_config(case_by_id[record.case_id])
    gains = record.gains
    margin = fusion_error_probability(cfg, sample_fading(cfg), gains, method="matrix") - cfg.epsilon
    verified = bool(margin <= 0.0 and np.all(gains >= 0.0))
    return {
        "budget_mismatch": not (record.rows == record.evals_used == config.max_evals),
        "infeasible_solution": record.saw_feasible and not verified,
        "best_not_feasible_power": record.saw_feasible
        and not math.isclose(record.best_f, record.power, rel_tol=1e-12),
        "verified": verified,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(run: RunResult, setup_samples: list) -> dict:
    """Values and sample counts of the end-to-end and raw metrics of an untraced run."""
    rows = sum(r.rows for r in run.outcomes)
    out = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "evals_per_ref": (rows / run.ref_units, len(run.outcomes)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "evals_per_s": (rows / run.wall_s, len(run.outcomes)),
        "ref_s": (statistics.median(r.ref_s for r in run.outcomes), len(run.outcomes)),
    }
    for a in SOLVERS:
        walls = [r.wall_s for r in run.outcomes if r.algorithm == a]
        out[f"trial_s.{a}"] = (statistics.median(walls), len(walls))
    return out


def quality(trials: list, checks: list) -> dict:
    """Median power per solver over trials whose solution the oracle path verified.

    A solver with no verified solution falls back to all its trials, so the
    value stays a number; the sample count then reads 0.
    """
    out = {}
    for a in SOLVERS:
        mine = [(r.power, c["verified"]) for r, c in zip(trials, checks) if r.algorithm == a]
        verified = [p for p, ok in mine if ok]
        out[f"power.{a}"] = (statistics.median(verified or [p for p, _ in mine]), len(verified))
    return out


def per_layer(run: RunResult, checks: list, max_evals: int) -> dict:
    """Values and sample counts of the per-layer metrics of a traced run.

    ``checks`` holds the output checks of the run's distinct trials, in order.
    """
    splits = [layers.split(r.spans) for r in run.outcomes]
    by_solver = {a: [s for s, r in zip(splits, run.outcomes) if r.algorithm == a] for a in SOLVERS}

    def mean(key, group=splits):
        return (statistics.fmean(s.get(key, 0.0) for s in group), len(group))

    rows = sum(s.get("problem.rows", 0.0) for s in splits)
    calls = sum(s.get("problem.calls", 0.0) for s in splits)
    busy = sum(s.get("problem.busy_s", 0.0) for s in splits)
    wall = sum(s["wall_s"] for s in splits)
    n = len(splits)
    out = {
        "problem.rows": mean("problem.rows"),
        "problem.calls": mean("problem.calls"),
        "problem.busy_s": mean("problem.busy_s"),
        "problem.busy_share": (busy / wall, n),
        "problem.us_per_row": (1e6 * busy / rows, n),
        "problem.rows_per_call": (rows / calls, n),
    }
    for a in SOLVERS:
        firsts = [r.first_feasible or max_evals + 1 for r in run.outcomes if r.algorithm == a]
        out[f"problem.first_feasible_eval.{a}"] = (statistics.median(firsts), len(firsts))
    out.update({k: mean(k) for k in ("evo.calls", "evo.single_row_calls", "evo.self_s")})
    for a in GROUPING_SOLVERS:
        group = by_solver[a]
        out[f"grouping.busy_s.{a}"] = mean("grouping.busy_s", group)
        out[f"grouping.self_s.{a}"] = mean("grouping.self_s", group)
        out[f"grouping.probe_rows.{a}"] = mean("grouping.probe_rows", group)
        probe_share = statistics.fmean(s.get("grouping.probe_rows", 0.0) / s["problem.rows"]
                                       for s in group)
        out[f"grouping.probe_share.{a}"] = (probe_share, len(group))
        out[f"grouping.groups.{a}"] = mean("grouping.groups", group)
        out[f"grouping.max_group.{a}"] = mean("grouping.max_group", group)
    for layer in ("eade", "mlshade", "cc"):
        group = [s for s, r in zip(splits, run.outcomes) if SELF_LAYER[r.algorithm] == layer]
        out[f"{layer}.self_s"] = mean("solver.self_s", group)
    mls, cbcc, dgsc = by_solver["mlshade-spa"], by_solver["cbcc-rdg3"], by_solver["dgsc-decc"]
    out.update({
        "mlshade.local_search_s": mean("mlshade.local_search_s", mls),
        "mlshade.local_search_rows": mean("mlshade.local_search_rows", mls),
        "cmaes.steps": mean("cmaes.steps", cbcc),
        "cmaes.self_s": mean("cmaes.step.self_s", cbcc),
        "cmaes.resets": mean("cmaes.resets", cbcc),
        "sansde.steps": mean("sansde.steps", dgsc),
        "sansde.self_s": mean("sansde.step.self_s", dgsc),
    })
    write = sum(s[2] - s[1] for s in run.recorder.spans if s[0] == "harness.write")
    stats_s = sum(s[2] - s[1] for s in run.recorder.spans if s[0] == "stats")
    reps = run.repeats
    out.update({
        "harness.pool_efficiency": (wall / (run.workers * run.wall_s), n),
        "harness.collect_wait_s": (run.recorder.collect_wait_s / reps, reps),
        "harness.write_s": ((write - stats_s) / reps, reps),
        "harness.bytes_written": (float(run.bytes_written), reps),
        "stats.busy_s": (stats_s / reps, reps),
    })
    for c in CHECKS:
        out[f"check.{c}"] = (float(sum(ch[c] for ch in checks)), len(checks))
    out.update(quality([run.outcomes[i] for i in run.distinct], checks))
    for a in SOLVERS:
        out[f"trace.trial_s.{a}"] = mean("wall_s", by_solver[a])
    out["trace.untraced_s"] = mean("untraced_s")
    out["trace.spans"] = mean("spans")
    out["trace.evals_per_ref"] = (sum(r.rows for r in run.outcomes) / run.ref_units, n)
    return out
