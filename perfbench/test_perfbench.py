"""Self-tests of the benchmark harness.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
from pathlib import Path

import pytest

from common import (
    Ops,
    RunDirs,
    fingerprint_mismatches,
    latency_summary,
    percentile,
    shm_segments,
    tail_percentile,
    teardown_checks,
    windowed_summary,
)
from loadgen import closed_loop, open_loop, poisson_schedule, windowed_rate

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the >=10-beyond percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,q", [(1000, 99.0), (100, 90.0), (40, 75.0),
                                 (20, 50.0), (11, 50.0), (1, 50.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert tail_percentile(n) == pytest.approx(q)


def test_tail_value_has_exactly_ten_samples_beyond_it():
    values = list(range(1, 201))          # shuffled order must not matter
    values = values[::2] + values[1::2]
    summary = latency_summary(values)
    assert summary["tail_percentile"] == pytest.approx(95.0)
    assert summary["tail_ms"] == 190
    assert sum(v > summary["tail_ms"] for v in values) == 10
    assert summary["samples"] == 200
    assert summary["p50_ms"] == pytest.approx(100.5)


def test_percentile_is_a_sample_never_interpolated():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.0


def test_windowed_summary_shrugs_off_one_burst():
    steady = [5.0] * 500
    burst = steady[:]
    burst[100:200] = [50.0] * 100          # one window of five
    assert windowed_summary(burst, 5)["p50_ms"] == 5.0
    assert windowed_summary(burst, 5)["tail_ms"] == 5.0
    assert latency_summary(burst)["tail_ms"] == 50.0


# ----------------------------------------------------------------------
# due-time latency and generator lateness on a synthetic schedule
# ----------------------------------------------------------------------
def _fake_server(service_s: float):
    async def send(_conn, _i):
        await asyncio.sleep(service_s)
        return True
    return send


def test_open_loop_charges_queueing_from_the_due_time():
    # four requests due at once on two connections, 50 ms service:
    # two finish after one service time, two wait for a free connection
    records = asyncio.run(open_loop([0.0, 0.0, 0.0, 0.0],
                                    _fake_server(0.05), 2))
    latencies = sorted(r.latency for r in records)
    assert latencies[0] == pytest.approx(0.05, abs=0.03)
    assert latencies[1] == pytest.approx(0.05, abs=0.03)
    assert latencies[2] == pytest.approx(0.10, abs=0.03)
    assert latencies[3] == pytest.approx(0.10, abs=0.03)
    # the queued two were late because the server was busy, not the
    # generator: lateness counts from max(due, connection free)
    assert max(r.late for r in records) < 0.03
    assert all(r.sent >= r.due - 1e-3 for r in records)


def test_open_loop_sends_on_schedule_when_idle():
    records = asyncio.run(open_loop([0.0, 0.06, 0.12], _fake_server(0.02), 1))
    for r in records:
        assert r.latency == pytest.approx(0.02, abs=0.015)
        assert r.sent - r.due < 0.015


def test_closed_loop_rate():
    offsets = asyncio.run(closed_loop(0.3, _fake_server(0.01), 2))
    assert 20 <= len(offsets) <= 62
    assert windowed_rate(offsets, 0.3, 3) == pytest.approx(200, rel=0.35)


def test_windowed_rate_of_even_completions():
    offsets = [k / 100 for k in range(500)]
    assert windowed_rate(offsets, 5.0, 5) == pytest.approx(100.0)


# ----------------------------------------------------------------------
# the request schedule is a function of the seed
# ----------------------------------------------------------------------
def test_schedule_is_reproducible_from_its_seed():
    a = poisson_schedule(100.0, 5.0, seed=7)
    assert a == poisson_schedule(100.0, 5.0, seed=7)
    assert a != poisson_schedule(100.0, 5.0, seed=8)
    assert all(0 < t < 5.0 for t in a)
    assert a == sorted(a)
    assert len(a) == pytest.approx(500, rel=0.15)


# ----------------------------------------------------------------------
# fail counting
# ----------------------------------------------------------------------
def test_ops_count_raises_and_failed_gates():
    ops = Ops()

    def boom():
        raise ValueError("bad input")

    assert ops.call(boom) is None
    assert ops.call(lambda: 3) == 3           # no gate yet: not counted
    assert ops.gate(True, "fine")
    assert not ops.gate(False, "wrong answer")
    assert (ops.attempted, ops.failed) == (3, 2)
    assert ops.fail_frac == pytest.approx(2 / 3)
    assert "bad input" in ops.reasons[0] and ops.reasons[1] == "wrong answer"


def test_each_leak_is_a_failed_op(tmp_path, monkeypatch):
    # RunDirs points TMPDIR and tempfile at the run's scratch space
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    dirs = RunDirs(tmp_path, "selftest")
    (dirs.tmp / "left-behind").mkdir()
    (dirs.tmp / "also").write_text("x")
    ops = Ops()
    found = teardown_checks(ops, shm_before=shm_segments(), dirs=dirs)
    assert found == {"shm": [], "processes": [],
                     "tmp": ["also", "left-behind"]}
    # two clean checks, and one failed op per leftover entry
    assert (ops.attempted, ops.failed) == (4, 2)


# ----------------------------------------------------------------------
# fingerprints and the declared metric set
# ----------------------------------------------------------------------
def test_fingerprint_mismatch_ignores_code_identity():
    a = {"numpy": "2.4", "cpu_count": 2, "git_commit": "x",
         "source_digest": "1"}
    b = dict(a, git_commit="y", source_digest="2")
    assert fingerprint_mismatches(a, b) == []
    assert fingerprint_mismatches(a, dict(b, cpu_count=4)) == ["cpu_count"]


def test_declared_metrics_cover_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from run import WORKLOADS
    assert sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    tracer = Tracer()
    assert set(tracer.common_metrics()) <= per_layer
    assert "trace.overhead_frac" in per_layer
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert {"setup_s", "peak_rss_mb"} <= e2e
