"""Per-trial layer split computed from the spans of a traced run.

A span's self time is its duration minus the durations of its direct
children.  Provided every child lies inside its parent, the self times of a
trial's spans add up to the trial's wall time; ``split`` checks both and
reports the root's self time as ``untraced_s``, the solver code that runs
outside every traced callee.
"""

from __future__ import annotations

from collections import defaultdict

EVO = ("evo.evaluate", "evo.probe")


class NestingError(ValueError):
    """A child span lies outside its parent, so self times would not add up."""


def split(spans: list) -> dict:
    """Layer times and counts of one traced trial (``spans[0]`` is the root)."""
    if not spans or spans[0][0] != "trial":
        raise NestingError("trial spans must start with the root span")
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans[1:]:
        if not 0 <= parent < len(spans) or start < spans[parent][1] or end > spans[parent][2]:
            raise NestingError(f"span {name} is not nested in its parent")
        child_time[parent] += end - start
    self_time = [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]
    wall = spans[0][2] - spans[0][1]
    if abs(sum(self_time) - wall) > 1e-9 * len(spans):
        raise NestingError("span self times do not add up to the trial's wall time")

    def within(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    out = defaultdict(float)
    out["wall_s"] = wall
    out["untraced_s"] = self_time[0]
    out["spans"] = len(spans)
    for i, (name, start, end, _, count, extra) in enumerate(spans[1:], start=1):
        out[f"{name}.self_s"] += self_time[i]
        if name == "problem":
            out["problem.calls"] += 1
            out["problem.rows"] += count
        elif name in EVO:
            out["evo.calls"] += 1
            out["evo.single_row_calls"] += count == 1
            out["evo.busy_s"] += end - start
            if within(i, "grouping"):
                out["grouping.probe_rows"] += count
            if within(i, "mlshade.local_search"):
                out["mlshade.local_search_rows"] += count
        elif name == "grouping":
            out["grouping.busy_s"] += end - start
            out["grouping.groups"] += count
            out["grouping.max_group"] = max(out["grouping.max_group"], extra)
        elif name == "mlshade.local_search":
            out["mlshade.local_search_s"] += end - start
        elif name == "cmaes.step":
            out["cmaes.steps"] += 1
            out["cmaes.resets"] += count
        elif name == "sansde.step":
            out["sansde.steps"] += 1
    out["problem.busy_s"] = out["problem.self_s"]
    out["evo.self_s"] = out["evo.evaluate.self_s"] + out["evo.probe.self_s"]
    # Trial wall time minus time inside objective calls (ROADMAP layer 4).
    out["solver.self_s"] = out["wall_s"] - out["evo.busy_s"]
    return dict(out)
