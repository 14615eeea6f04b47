"""The benchmark wraps package names by attribute; renaming one fails here."""

from pathlib import Path

from wsnopt import cmaes, harness, mlshade, sansde, solvers
from wsnopt.problem import PowerAllocationProblem

WRAPPED = [
    (PowerAllocationProblem, "batch"),
    (harness, "TrackedObjective"),
    (harness, "_trial_job"),
    (harness, "_collect"),
    (harness, "write_cell_files"),
    (harness, "write_trace_file"),
    (harness, "write_summary"),
    (harness, "write_details"),
    (harness, "write_rank_report"),
    (harness, "friedman_ranks"),
    (harness, "paired_rank_tests"),
    (solvers, "rdg3_group"),
    (solvers, "dgsc_group"),
    (mlshade, "mmts_local_search"),
    (cmaes.CmaesSubsolver, "step"),
    (sansde.SansdeSubsolver, "step"),
]


def test_traced_instrumentation_installs_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import instrument

    before = [getattr(owner, name) for owner, name in WRAPPED]
    with instrument.instrumented(instrument.Recorder(traced=True)):
        pass
    assert [getattr(owner, name) for owner, name in WRAPPED] == before
