"""Self-test of the benchmark; kept out of the package's test suite.

    python3 bench/selftest.py            # about two minutes on 2 cores

1. The exact white-noise optimum passes its own checks and reproduces the
   reference values at base seed 2026, and its constraint is tight.
2. ``grid-L800`` writes byte-identical outputs with 1 and 2 workers.
3. A smoke run of every workload at a tiny budget, untraced and traced, prints
   exactly the metrics ``BENCHMARK.json`` names, in a result of exactly the
   four keys.
4. A short and a longer run of one seed report the same ``attempted`` and
   ``failed``: the seed alone fixes which trials a run checks.
5. In a directory holding only ``BENCHMARK.json`` and the benchmark's files,
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402  (pins BLAS threads before numpy loads)

from wsnopt import harness  # noqa: E402
from wsnopt.evo import Bounds  # noqa: E402
from wsnopt.problem import fusion_error_probability, sample_fading  # noqa: E402

import workloads  # noqa: E402
from oracle import verified_optimum  # noqa: E402

REFERENCE_OPTIMA = {  # base seed 2026, harness fading seeds
    "L300-rho0-eps0.01": 0.46750,
    "L800-rho0-eps0.01": 0.37647,
    "L800-rho0-eps0.1": 0.11651,
}
SCRATCH = run.OUT / "selftest"


def check_oracle() -> list:
    problems = []
    for case_id, expected in REFERENCE_OPTIMA.items():
        sensors, _, eps = case_id.split("-")
        case = harness.CaseSpec(int(sensors[1:]), float(eps[3:]), 0.0)
        config = workloads.load_config(workloads.WORKLOADS["white-L300"], 2026, SCRATCH / "oracle")
        cfg = config.problem_config(case)
        fading = sample_fading(cfg)
        best = verified_optimum(cfg, fading, Bounds().upper)
        if round(best.power, 5) != expected:
            problems.append(f"{case_id}: optimum {best.power:.6f}, expected {expected}")
        shrunk = fusion_error_probability(cfg, fading, 0.999 * best.gains, method="matrix")
        if not shrunk > cfg.epsilon:
            problems.append(f"{case_id}: constraint is slack at the optimum")
        print(f"oracle {case_id} {best.power:.6f} with {best.active} active sensors")
    return problems


def check_worker_invariance() -> list:
    digests = {}
    for workers in (1, 2):
        config = workloads.load_config(workloads.WORKLOADS["grid-L800"], 2026,
                                       SCRATCH / f"workers{workers}")
        harness.run_experiment(config, workers=workers)
        digests[workers] = workloads.tree_digest(Path(config.output_dir))
        print(f"grid-L800 workers={workers}: {digests[workers][1]} bytes, sha256 {digests[workers][0]}")
    return [] if digests[1] == digests[2] else ["grid-L800 outputs depend on the worker count"]


def check_smoke() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                       "--seconds", "0.1", "--trace", str(trace), "--max-evals", "3000"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=180)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            printed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("metric ")}
            if done.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: exit {done.returncode}, keys {sorted(result)}")
            if set(result["metrics"]) != expected[trace] or printed != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json")
            print(f"smoke {name} trace {trace}: {len(result['metrics'])} metrics, correct {result['correct']}")
    return problems


def check_fixed_trials() -> list:
    """A seed fixes which trials a run checks, however many rounds fit in its time."""
    counts = {}
    for seconds in ("0.1", "3"):
        command = [sys.executable, str(HERE / "run.py"), "--workload", "white-L300", "--seed", "7",
                   "--seconds", seconds, "--trace", "0", "--max-evals", "3000"]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=180)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        counts[seconds] = (result["attempted"], result["failed"], result["correct"])
        print(f"white-L300 --seconds {seconds}: attempted {counts[seconds][0]},"
              f" failed {counts[seconds][1]}, correct {counts[seconds][2]}")
    if len(set(counts.values())) != 1:
        return ["attempted or failed depends on the run's length"]
    return []


def check_bare_directory() -> list:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "bench/run.py", "--workload", "white-L300", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["the benchmark ran without the package sources"]
    print(f"bare directory: exit {done.returncode}, {done.stderr.strip()}")
    return []


def main() -> int:
    problems = (check_oracle() + check_worker_invariance() + check_smoke() + check_fixed_trials()
                + check_bare_directory())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
