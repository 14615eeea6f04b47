"""Command line interface for the power allocation toolkit.

Subcommands:
  run       execute an experiment grid described by a JSON config file
  case      run a single case with explicit parameters
  stats     rank algorithms from a results table and test pairwise deltas
  validate  cross-check the analytic error probability against simulation
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .harness import ExperimentConfig, derive_seed, run_experiment
from .problem import PowerAllocationProblem, WsnConfig, monte_carlo_error_rate
from .stats import friedman_ranks, paired_rank_tests, read_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnopt",
        description="Optimal power allocation for decentralized detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid from a config file")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count, never more than the trials (overrides the config's workers)",
    )

    p_case = sub.add_parser("case", help="run one case with explicit parameters")
    p_case.add_argument("--sensors", type=int, required=True)
    p_case.add_argument("--epsilon", type=float, required=True)
    p_case.add_argument("--rho", type=float, default=0.0)
    p_case.add_argument("--algo", default="mlshade-spa")
    p_case.add_argument("--trials", type=int, default=1)
    p_case.add_argument("--seed", type=int, default=0)
    p_case.add_argument("--max-evals", type=int, default=60000)
    p_case.add_argument("--population", type=int, default=100)
    p_case.add_argument("--out", default="runs/case")

    p_stats = sub.add_parser("stats", help="rank algorithms from a results table")
    p_stats.add_argument("table", help="CSV with a case column and one column per algorithm")

    p_val = sub.add_parser("validate", help="compare analytic and simulated error rates")
    p_val.add_argument("--samples", type=int, default=200000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--configs", type=int, default=6)

    return parser


def run_grid(build) -> int:
    """Run the config ``build()`` returns; a config error exits 2 before output."""
    try:
        config = build()
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    run_experiment(config)
    print(f"wrote {len(config.cases())} cases x {len(config.algorithms)} algorithms")
    print(f"summary: {Path(config.output_dir) / 'results' / 'summary.csv'}")
    return 0


def cmd_run(args) -> int:
    def build():
        config = ExperimentConfig.from_json(args.config)
        return config if args.workers is None else replace(config, workers=args.workers)

    return run_grid(build)


def cmd_case(args) -> int:
    return run_grid(lambda: ExperimentConfig(
        grid=[{"sensors": [args.sensors], "epsilon": [args.epsilon], "rho": [args.rho]}],
        algorithms=[args.algo],
        trials=args.trials,
        max_evals=args.max_evals,
        population_sizes={args.sensors: args.population},
        base_seed=args.seed,
        output_dir=args.out,
    ))


def cmd_stats(args) -> int:
    try:
        with open(args.table, "r", encoding="utf-8") as handle:
            _, names, data = read_table(handle)
        ranks = friedman_ranks(data)
    except (OSError, ValueError) as exc:
        print(f"table error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(data)} cases, {len(names)} algorithms")
    print("algorithm          avg_rank  normalized  order")
    for j, name in enumerate(names):
        print(
            f"{name:<18s} {ranks.average_ranks[j]:8.4f}  {ranks.normalized[j]:10.4f}"
            f"  {ranks.order[j]:5d}"
        )
    try:
        baseline, tests = paired_rank_tests(ranks)
    except ValueError as exc:
        print(f"pairwise tests skipped: {exc}")
        return 0
    print(f"pairwise signed-rank tests vs {names[baseline]} (rank-transformed):")
    for col in sorted(tests):
        t = tests[col]
        method = "exact" if t.exact else "approx"
        print(f"  {names[col]:<18s} p = {t.p_value:.3e} ({method}, n={t.n_used})")
    return 0


def cmd_validate(args) -> int:
    if args.samples < 1000:
        print("--samples must be at least 1000", file=sys.stderr)
        return 2
    if args.configs < 1:
        print("--configs must be at least 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    sensor_counts = [1, 5, 50]
    correlations = [0.0, 0.5]
    failures = 0
    print("sensors  rho  analytic        simulated       z")
    for k in range(args.configs):
        sensors = sensor_counts[k % len(sensor_counts)]
        rho = correlations[(k // len(sensor_counts)) % len(correlations)]
        config = WsnConfig(
            num_sensors=sensors,
            correlation=rho,
            epsilon=0.1,
            fading_seed=derive_seed(args.seed, "validate", k, "fading"),
        )
        problem = PowerAllocationProblem(config)
        gains = rng.uniform(0.0, 4.0, size=sensors)
        analytic = problem.error_probability(gains)
        simulated = monte_carlo_error_rate(
            config,
            problem.fading,
            gains,
            args.samples,
            np.random.default_rng(int(rng.integers(2**63))),
        )
        sigma = math.sqrt(analytic * (1.0 - analytic) / args.samples)
        z = 0.0 if sigma == 0.0 else (simulated - analytic) / sigma
        status = "" if abs(z) <= 3.0 else "  MISMATCH"
        if abs(z) > 3.0:
            failures += 1
        print(
            f"{sensors:7d}  {rho:3.1f}  {analytic:.8e}  {simulated:.8e}"
            f"  {z:+6.2f}{status}"
        )
    if failures:
        print(f"{failures} of {args.configs} checks outside 3 sigma", file=sys.stderr)
        return 1
    print("analytic error probability agrees with simulation")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "case": cmd_case,
        "stats": cmd_stats,
        "validate": cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
