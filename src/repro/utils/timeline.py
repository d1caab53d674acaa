"""Text rendering of simulated execution traces.

``run_spmd(..., trace=True)`` records every compute segment and
collective with simulated start/end times; this module renders the
trace as a per-rank ASCII Gantt chart — the quickest way to *see* why
Algorithm 2 is communication-bound on one platform and compute-bound on
another.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ValidationError

_GLYPHS = {
    "compute": "#",
    "bcast": "B",
    "reduce": "R",
    "allreduce": "A",
    "gather": "g",
}


def trace_summary(trace: Sequence[dict]) -> dict:
    """Aggregate a trace: total busy seconds per op kind."""
    if trace is None:
        raise ValidationError("run with trace=True to collect a trace")
    totals: dict[str, float] = {}
    for event in trace:
        totals[event["op"]] = totals.get(event["op"], 0.0) + \
            (event["end"] - event["start"])
    return totals


def render_timeline(trace: Sequence[dict], n_ranks: int, *,
                    width: int = 72) -> str:
    """ASCII Gantt chart: one row per rank, simulated time left→right.

    Compute segments draw ``#`` on their rank; collectives draw their
    glyph across every participating rank.  Overlaps keep the latest
    glyph (collectives are drawn after compute so synchronisation points
    stay visible).
    """
    if trace is None:
        raise ValidationError("run with trace=True to collect a trace")
    if n_ranks < 1 or width < 10:
        raise ValidationError(
            f"need n_ranks >= 1 and width >= 10, got {n_ranks}, {width}")
    if not trace:
        return "(empty trace)"
    t_end = max(e["end"] for e in trace)
    t_start = min(e["start"] for e in trace)
    span = max(t_end - t_start, 1e-30)

    def col(t: float) -> int:
        return min(int((t - t_start) / span * (width - 1)), width - 1)

    rows = [[" "] * width for _ in range(n_ranks)]
    ordered = sorted(trace, key=lambda e: (e["op"] != "compute",
                                           e["start"]))
    for event in ordered:
        glyph = _GLYPHS.get(event["op"], "?")
        lo, hi = col(event["start"]), col(event["end"])
        for rank in event["ranks"]:
            if 0 <= rank < n_ranks:
                for c in range(lo, hi + 1):
                    rows[rank][c] = glyph

    label_w = len(str(n_ranks - 1)) + 6
    lines = [f"{'rank':<{label_w}}" + f"0 .. {span:.3e} s (simulated)"]
    for rank in range(n_ranks):
        lines.append(f"rank {rank:<{label_w - 5}}" + "".join(rows[rank]))
    legend = "  ".join(f"{g}={op}" for op, g in _GLYPHS.items()
                       if any(e['op'] == op for e in trace))
    lines.append(legend)
    return "\n".join(lines)
