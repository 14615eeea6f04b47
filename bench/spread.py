"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload white-L300 --seeds 1-10

Runs ``bench/run.py`` once per seed, sequentially, and prints for every metric
its median, quartiles and the distance between the quartiles as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from ``BENCHMARK.json``; ``WIDE`` marks a spread of a third of the bound or more.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def spread(values: list) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])

    results = []
    for seed in seeds(args.seeds):
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", seconds, "--trace", args.trace]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: correct {results[-1]['correct']}, "
              f"{results[-1]['failed']} of {results[-1]['attempted']} trials failed", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3, share = spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if share < bound / 3 else "  WIDE")
        print(f"{name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {share:7.2%}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
