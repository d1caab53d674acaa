"""Execution-trace and timeline-rendering tests."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mpi import run_spmd
from repro.platform import platform_by_name
from repro.utils import render_timeline, trace_summary


def _traced_run():
    cluster = platform_by_name("1x4")

    def prog(comm):
        comm.charge_flops(100_000 * (comm.Get_rank() + 1))
        comm.allreduce(np.ones(64))
        comm.bcast(np.zeros(32) if comm.Get_rank() == 0 else None, root=0)
        comm.gather(comm.Get_rank(), root=0)
    return run_spmd(0, prog, cluster=cluster, trace=True)


class TestTraceCollection:
    def test_trace_off_by_default(self):
        res = run_spmd(2, lambda comm: comm.allreduce(1),
                       cluster=platform_by_name("1x4") if False else None)
        assert res.trace is None

    def test_events_recorded_and_ordered(self):
        res = _traced_run()
        assert res.trace is not None
        ops = {e["op"] for e in res.trace}
        assert {"compute", "allreduce", "bcast", "gather"} <= ops
        starts = [e["start"] for e in res.trace]
        assert starts == sorted(starts)

    def test_event_invariants(self):
        res = _traced_run()
        for event in res.trace:
            assert event["end"] >= event["start"] >= 0.0
            assert event["end"] <= res.simulated_time + 1e-12
            assert all(0 <= r < 4 for r in event["ranks"])
            assert event["words"] >= 0

    def test_collective_involves_all_ranks(self):
        res = _traced_run()
        allreduces = [e for e in res.trace if e["op"] == "allreduce"]
        assert allreduces
        assert set(allreduces[0]["ranks"]) == {0, 1, 2, 3}

    def test_compute_per_rank_duration_scales(self):
        res = _traced_run()
        computes = {e["ranks"][0]: e["end"] - e["start"]
                    for e in res.trace if e["op"] == "compute"}
        assert computes[3] == pytest.approx(4 * computes[0], rel=1e-6)


class TestSummaryAndRendering:
    def test_summary_totals(self):
        res = _traced_run()
        totals = trace_summary(res.trace)
        assert totals["compute"] > 0
        assert set(totals) >= {"compute", "allreduce"}

    def test_render_contains_rows_and_legend(self):
        res = _traced_run()
        art = render_timeline(res.trace, 4, width=60)
        lines = art.splitlines()
        assert len(lines) == 6  # header + 4 ranks + legend
        assert "rank 0" in lines[1]
        assert "#" in art and "A" in art
        assert "A=allreduce" in lines[-1]

    def test_render_empty_trace(self):
        assert render_timeline([], 2) == "(empty trace)"

    def test_render_validation(self):
        res = _traced_run()
        with pytest.raises(ValidationError):
            render_timeline(None, 2)
        with pytest.raises(ValidationError):
            render_timeline(res.trace, 0)
        with pytest.raises(ValidationError):
            trace_summary(None)

    def test_rank_rows_reflect_straggler(self):
        """Rank 3 computes 4x longer: its compute bar must be longer."""
        res = _traced_run()
        art = render_timeline(res.trace, 4, width=72)
        lines = art.splitlines()
        assert lines[4].count("#") > lines[1].count("#")
