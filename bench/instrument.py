"""Layer instrumentation installed from outside the package.

No file of the package is edited.  While ``instrumented(recorder)`` is active,
public names are swapped for thin wrappers and restored afterwards:

- ``PowerAllocationProblem.batch`` counts rows (always) and, when traced,
  records a ``problem`` span per call and the first feasible row;
- ``harness.TrackedObjective`` becomes a subclass that hands its instance to
  the recorder and, when traced, spans ``evaluate_batch``/``probe_batch``;
- ``harness._trial_job`` runs each grid trial through ``measured_trial`` so
  worker processes return their measurements with the trial record, and
  ``harness._collect`` keeps those records and times the wait for each;
- when traced, ``rdg3_group``/``dgsc_group`` (as bound in ``solvers``),
  ``mlshade.mmts_local_search``, ``CmaesSubsolver.step``,
  ``SansdeSubsolver.step``, the ``harness.write_*`` functions and the two
  ``stats`` functions the harness calls are spanned as well.

Spans stay in memory as ``[name, start, end, parent, n, extra]`` lists, where
``parent`` indexes the same trial's list (-1 for the root) and ``n``/``extra``
carry a count the layer reports (rows, groups, resets).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from wsnopt import cmaes, harness, mlshade, sansde, solvers
from wsnopt.problem import PowerAllocationProblem

perf = time.perf_counter

# The recorder of the active ``instrumented`` block.  Forked pool workers
# inherit it, which is how their trials reach the same wrappers.
_ACTIVE: "Recorder | None" = None


class Recorder:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rows = 0
        self.first_feasible = 0
        self.objective = None
        self.records: list = []
        self.collect_wait_s = 0.0

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf(), 0.0, parent, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list):
        span[2] = perf()
        self._stack.pop()

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper


@dataclass
class MeasuredRecord(harness.TrialRecord):
    """A harness trial record plus what the benchmark measured around it."""

    repeat: int = 0
    wall_s: float = 0.0
    ref_s: float = 0.0
    rows: int = 0
    saw_feasible: bool = False
    first_feasible: int = 0
    spans: list = field(default_factory=list)


def measured_trial(config, case, algorithm: str, trial: int) -> MeasuredRecord:
    """Run ``harness.run_trial`` once and attach the trial's measurements."""
    rec = _ACTIVE
    rec.rows = 0
    rec.first_feasible = 0
    rec.objective = None
    ref_before = reference_s()
    first_span = len(rec.spans)
    root = rec.open("trial") if rec.traced else None
    start = perf()
    record = harness.run_trial(config, case, algorithm, trial)
    wall = perf() - start
    if root is not None:
        rec.close(root)
    ref = 0.5 * (ref_before + reference_s())
    spans = rec.spans[first_span:]
    del rec.spans[first_span:]
    for span in spans:
        span[3] = span[3] - first_span if span[3] >= first_span else -1
    objective = rec.objective
    return MeasuredRecord(
        **vars(record),
        wall_s=wall,
        ref_s=ref,
        rows=rec.rows,
        saw_feasible=objective.best_feasible_x is not None,
        first_feasible=rec.first_feasible,
        spans=spans,
    )


def reference_s(repeats: int = 25) -> float:
    """Median seconds of a fixed computation that stands in for machine speed.

    It is per-individual DE arithmetic on small numpy arrays, the kind of
    work solver generation code does.  The program never runs this code, so a
    change to the program cannot move it.  Timed right before and after each
    trial, in the process that runs it, it tracks how fast the shared host
    runs at that moment, contention from other workers included.
    """
    rng = np.random.default_rng(12345)
    pop = rng.random((100, 300))
    times = []
    for _ in range(repeats + 1):
        start = perf()
        for i in range(100):
            a, b, c = rng.choice(100, 3, replace=False)
            donor = pop[a] + 0.5 * (pop[b] - pop[c])
            trial = np.clip(np.where(rng.random(300) < 0.5, donor, pop[i]), 0.0, 1.0)
            float(trial @ trial)
        times.append(perf() - start)
    return statistics.median(times[1:])


def _measured_job(args) -> MeasuredRecord:
    return measured_trial(*args)


def _problem_batch(rec: Recorder, batch):
    if not rec.traced:

        def counted(self, G, iterations):
            out = batch(self, G, iterations)
            rec.rows += len(out[0])
            return out

        return counted

    def traced(self, G, iterations):
        span = rec.open("problem")
        try:
            values, feasible, powers = batch(self, G, iterations)
        finally:
            rec.close(span)
        span[4] = len(values)
        if not rec.first_feasible and feasible is not None and feasible.any():
            rec.first_feasible = rec.rows + int(np.argmax(feasible)) + 1
        rec.rows += len(values)
        return values, feasible, powers

    return traced


def _objective_class(rec: Recorder, base):
    class MeasuredObjective(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rec.objective = self

    if not rec.traced:
        return MeasuredObjective

    class TracedObjective(MeasuredObjective):
        def _spanned_call(self, name, method, X):
            span = rec.open(name)
            try:
                values = method(X)
            finally:
                rec.close(span)
            span[4] = len(values)
            return values

        def evaluate_batch(self, X):
            return self._spanned_call("evo.evaluate", super().evaluate_batch, X)

        def probe_batch(self, X):
            return self._spanned_call("evo.probe", super().probe_batch, X)

    return TracedObjective


def _grouping(rec: Recorder, group_fn):
    def wrapper(*args, **kwargs):
        span = rec.open("grouping")
        try:
            result = group_fn(*args, **kwargs)
        finally:
            rec.close(span)
        span[4] = len(result.groups)
        span[5] = max(result.sizes, default=0)
        return result

    return wrapper


def _cmaes_step(rec: Recorder, step):
    def wrapper(self, rng):
        resets = self.resets
        span = rec.open("cmaes.step")
        try:
            return step(self, rng)
        finally:
            rec.close(span)
            span[4] = self.resets - resets

    return wrapper


def _collect(rec: Recorder, collect):
    def wrapper(config, cases, root, outcomes):
        def watched():
            outcome_iter = iter(outcomes)
            while True:
                start = perf()
                try:
                    record = next(outcome_iter)
                except StopIteration:
                    return
                rec.collect_wait_s += perf() - start
                rec.records.append(record)
                yield record

        return collect(config, cases, root, watched())

    return wrapper


@contextmanager
def instrumented(rec: Recorder):
    """Install the wrappers for ``rec`` and restore every original on exit."""
    global _ACTIVE
    patches = [
        (PowerAllocationProblem, "batch", _problem_batch(rec, PowerAllocationProblem.batch)),
        (harness, "TrackedObjective", _objective_class(rec, harness.TrackedObjective)),
        (harness, "_trial_job", _measured_job),
        (harness, "_collect", _collect(rec, harness._collect)),
    ]
    if rec.traced:
        patches += [
            (solvers, "rdg3_group", _grouping(rec, solvers.rdg3_group)),
            (solvers, "dgsc_group", _grouping(rec, solvers.dgsc_group)),
            (mlshade, "mmts_local_search",
             rec.spanned("mlshade.local_search", mlshade.mmts_local_search)),
            (cmaes.CmaesSubsolver, "step", _cmaes_step(rec, cmaes.CmaesSubsolver.step)),
            (sansde.SansdeSubsolver, "step",
             rec.spanned("sansde.step", sansde.SansdeSubsolver.step)),
            (harness, "friedman_ranks", rec.spanned("stats", harness.friedman_ranks)),
            (harness, "paired_rank_tests", rec.spanned("stats", harness.paired_rank_tests)),
        ]
        patches += [
            (harness, name, rec.spanned("harness.write", getattr(harness, name)))
            for name in ("write_cell_files", "write_trace_file", "write_summary",
                         "write_details", "write_rank_report")
        ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    _ACTIVE = rec
    try:
        yield rec
    finally:
        _ACTIVE = None
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)
