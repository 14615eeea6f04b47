"""Benchmark of the wsnopt solvers, objective and experiment harness.

Usage, from the root of a checkout:

    python3 bench/run.py --workload white-L300 --seed 2026 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

``--trace 0`` measures the end-to-end metrics with only a row counter
installed; ``--trace 1`` records spans around every layer and prints the
per-layer metrics.  Each run prints one ``metric`` line per metric (name,
value, unit, sample count), the machine it ran on, and as its last line a JSON
object with ``correct``, ``attempted`` (distinct trials), ``failed`` (those that fail
a per-trial output check) and ``metrics``.  Results and spans are written
under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads; pool workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5


def _use_checkout_package():
    """Import the package from this checkout's sources, or stop with exit code 2."""
    if not (SRC / "wsnopt" / "__init__.py").is_file():
        print(f"no package sources at {SRC / 'wsnopt'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(workload_name: str, seed: int, scratch: Path):
    """Set up as a run does, up to its first trial, then report readiness."""
    from concurrent.futures import ProcessPoolExecutor

    from wsnopt.problem import PowerAllocationProblem

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    config = workloads.load_config(workload, seed, scratch)
    for case in config.cases():
        PowerAllocationProblem(config.problem_config(case))
    if workload.workers:
        with ProcessPoolExecutor(max_workers=workload.workers) as pool:
            list(pool.map(abs, range(workload.workers)))
    print("ready", flush=True)


def measure_setup(workload_name: str, seed: int, scratch: Path) -> list:
    """Seconds from process start to readiness, over several fresh processes."""
    import subprocess
    import time

    samples = []
    for k in range(SETUP_SAMPLES):
        command = [sys.executable, __file__, "--setup-probe", "--workload", workload_name,
                   "--seed", str(seed), "--scratch", str(scratch / f"setup{k}")]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        samples.append(elapsed)
    return samples


# Layer predictions the traced baseline is expected to confirm, per workload.
PREDICTIONS = {
    "corr-L300": [("problem.busy_share", ">=", 0.90)],
    "white-L300": [("problem.busy_share", "<=", 0.25), ("eade.self_share", ">=", 0.85)],
}


def run_one(workload_name: str, seed: int, seconds: float, traced: bool,
            max_evals: int | None) -> dict:
    import json
    import math
    import shutil

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    tag = f"{workload_name}-seed{seed}-trace{int(traced)}"
    scratch = OUT / tag
    shutil.rmtree(scratch, ignore_errors=True)
    info = machine()
    print("machine " + json.dumps(info), flush=True)

    setup = [] if traced else measure_setup(workload_name, seed, scratch)
    config = workloads.load_config(workload, seed, scratch, max_evals)
    optima = workloads.optima(config)
    run = workloads.run_workload(workload, config, seconds, traced)

    cases = {c.case_id: c for c in config.cases()}
    trials = [run.outcomes[i] for i in run.distinct]
    checks = [workloads.check_trial(config, cases, r) for r in trials]
    failed = sum(any(c[k] for k in workloads.CHECKS) for c in checks)
    below_optimum = sum(
        c["verified"] and r.power < optima[r.case_id] * (1.0 - 1e-9)
        for r, c in zip(trials, checks) if r.case_id in optima
    )
    if traced:
        metrics = workloads.per_layer(run, checks, config.max_evals)
        units = workloads.PER_LAYER
    else:
        metrics = workloads.end_to_end(run, setup)
        units = workloads.END_TO_END
    correct = run.identical and below_optimum == 0 and all(
        math.isfinite(value) for value, _ in metrics.values())

    print(f"workload {workload_name} seed {seed} trace {int(traced)}: {len(trials)} distinct"
          f" trials, {len(run.outcomes)} run in {run.repeats} round(s), {run.wall_s:.2f} s measured")
    for name, unit in units.items():
        value, count = metrics[name]
        print(f"metric {name} {value:.6g} {unit} n={count}")
    for name, unit in ({} if traced else workloads.RAW).items():
        value, count = metrics[name]
        print(f"raw {name} {value:.6g} {unit} n={count}")
    report_quality(trials, checks, optima)
    for k in workloads.CHECKS:
        bad = [f"{r.algorithm}/{r.case_id}/t{r.trial}" for r, c in zip(trials, checks) if c[k]]
        print(f"check {k} {len(bad)} of {len(checks)} {' '.join(bad)}".rstrip())
    print(f"check failed_share {failed / len(checks):.6g} ({failed} of {len(checks)} trials)")
    print(f"check below_optimum {below_optimum}; repeats_identical {run.identical}")
    if traced:
        report_predictions(workload_name, run, metrics)

    result = {
        "correct": bool(correct),
        "attempted": len(trials),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k][0]), "unit": u} for k, u in units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"machine": info, "workload": workload_name, "seed": seed,
                    "samples": {k: n for k, (_, n) in metrics.items()},
                    "raw": {k: v for k, (v, _) in metrics.items() if k not in units}, **result},
                   indent=1),
        encoding="utf-8")
    if traced:
        write_spans(OUT / f"spans-{tag}.jsonl.gz", run)
    shutil.rmtree(scratch, ignore_errors=True)
    return result


def report_quality(trials, checks, optima: dict):
    """Verified power per solver, and its ratio to the exact optimum where known."""
    import statistics

    import workloads

    for name, (value, count) in workloads.quality(trials, checks).items():
        print(f"quality {name} {value:.6g} power n={count}")
    for case_id, optimum in optima.items():
        print(f"optimum {case_id} {optimum:.6g}")
        for a in workloads.SOLVERS:
            powers = [r.power for r, c in zip(trials, checks)
                      if r.case_id == case_id and r.algorithm == a and c["verified"]]
            if powers:
                ratio = statistics.median(powers) / optimum
                print(f"quality ratio_to_optimum.{a}.{case_id} {ratio:.6g} n={len(powers)}")


def report_predictions(workload_name: str, run, metrics: dict):
    eade_wall = [r.wall_s for r in run.outcomes if r.algorithm == "eade"]
    values = {name: value for name, (value, _) in metrics.items()}
    values["eade.self_share"] = values["eade.self_s"] / (sum(eade_wall) / len(eade_wall))
    for name, op, limit in PREDICTIONS.get(workload_name, []):
        holds = values[name] >= limit if op == ">=" else values[name] <= limit
        print(f"prediction {name} {values[name]:.4g} {op} {limit}: {'holds' if holds else 'FAILS'}")


def write_spans(path: Path, run):
    """Every span as one JSON line: trial spans first, then the harness's own."""
    import gzip
    import json

    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for r in run.outcomes:
            trial = f"{r.repeat}/{r.case_id}/{r.algorithm}/{r.trial}"
            for i, (name, start, end, parent, n, _) in enumerate(r.spans):
                handle.write(json.dumps({"trial": trial, "id": i, "name": name, "start": start,
                                         "end": end, "parent": parent, "n": n}) + "\n")
        for i, (name, start, end, parent, n, _) in enumerate(run.recorder.spans):
            handle.write(json.dumps({"trial": None, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "n": n}) + "\n")


def run_all(seed: int, seconds: float, max_evals: int | None) -> dict:
    """Every workload untraced and traced, each in a fresh process."""
    import json
    import subprocess

    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        evals = {}
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if max_evals:
                command += ["--max-evals", str(max_evals)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
            print(done.stdout, end="", flush=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                merged["metrics"][f"{name}/{key}"] = metric
            evals[trace] = result
        untraced = evals[0]["metrics"]["evals_per_ref"]["value"]
        traced = evals[1]["metrics"]["trace.evals_per_ref"]["value"]
        print(f"summary {name}: {untraced:.6g} evals/ref untraced, {traced:.6g} traced;"
              f" tracing overhead {untraced / traced - 1.0:.1%}")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-evals", type=int, default=None,
                        help="override every workload's budget (smoke runs)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_package()
    import json

    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.scratch)
        return 0
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.max_evals)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.max_evals)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
