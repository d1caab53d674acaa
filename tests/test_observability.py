"""Tests for the unified observability layer (metrics, spans, reports).

Covers the acceptance surface of the observability PR: registry
thread-safety under the MPI emulator's rank threads, span nesting and
exception unwinding (per thread and per asyncio task), the merge of
``fork_map`` workers' counters and spans into the parent, and a
golden-file check of the RunReport JSON schema.
"""

import asyncio
import json
import os

import numpy as np
import pytest

from repro import observability as obs
from repro.core.alpha import measure_alpha
from repro.linalg.omp import batch_omp_matrix
from repro.linalg.parallel_omp import GRAM_CACHE, _can_fork
from repro.mpi import run_spmd

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "run_report_schema.json")


@pytest.fixture(autouse=True)
def _clean_observability():
    """Every test starts and ends with a pristine, disabled layer."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestRegistry:
    def test_counters_gauges_histograms(self):
        r = obs.MetricsRegistry()
        r.inc("c")
        r.inc("c", 4)
        r.set_gauge("g", 2.5)
        r.set_gauge("g", 3.5)
        r.observe("h", 1.0)
        r.observe("h", 3.0)
        assert r.counter("c") == 5
        assert r.gauge("g") == 3.5
        assert r.histogram("h") == {"count": 2, "total": 4.0, "min": 1.0,
                                    "max": 3.0, "mean": 2.0}
        snap = r.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 3.5}
        r.reset()
        assert r.snapshot() == {"counters": {}, "gauges": {},
                                "histograms": {}}

    def test_merge_counters(self):
        r = obs.MetricsRegistry()
        r.inc("x", 2)
        r.merge_counters({"x": 3, "y": 7})
        assert r.counter("x") == 5
        assert r.counter("y") == 7

    def test_merge_snapshot_adds_counters_and_combines_histograms(self):
        r, other = obs.MetricsRegistry(), obs.MetricsRegistry()
        r.inc("x", 2)
        r.observe("h", 2.0)
        r.set_gauge("g", 1.0)
        other.inc("x", 3)
        other.observe("h", 1.0)
        other.observe("h", 5.0)
        other.observe("only", 4.0)
        other.set_gauge("g", 9.0)
        r.merge(other.snapshot())
        assert r.counter("x") == 5
        assert r.histogram("h") == {"count": 3, "total": 8.0, "min": 1.0,
                                    "max": 5.0, "mean": 8.0 / 3}
        assert r.histogram("only")["count"] == 1
        assert r.gauge("g") == 1.0  # gauges are not merged

    def test_helpers_are_noops_when_disabled(self):
        obs.inc("dead.counter", 10)
        obs.set_gauge("dead.gauge", 1.0)
        obs.observe("dead.hist", 1.0)
        obs.merge_counters({"dead.merge": 1})
        snap = obs.REGISTRY.snapshot()
        assert "dead.counter" not in snap["counters"]
        assert "dead.gauge" not in snap["gauges"]
        assert "dead.hist" not in snap["histograms"]

    def test_thread_safety_under_rank_threads(self):
        """P emulated ranks hammering one counter lose no increments."""
        obs.enable()
        p, n = 8, 200

        def program(comm):
            for _ in range(n):
                obs.inc("stress.incs")
            return comm.Get_rank()

        run_spmd(p, program)
        assert obs.REGISTRY.counter("stress.incs") == p * n


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        obs.enable()
        with obs.span("outer"):
            assert obs.current_span_path() == "outer"
            with obs.span("inner"):
                assert obs.current_span_path() == "outer/inner"
        snap = obs.SPANS.snapshot()
        assert set(snap) == {"outer", "outer/inner"}
        assert snap["outer"]["count"] == 1
        assert snap["outer"]["total_s"] >= snap["outer/inner"]["total_s"]

    def test_exception_unwinds_and_counts_error(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("boom"):
                    raise ValueError("x")
        # Both spans recorded, the stack fully unwound.
        snap = obs.SPANS.snapshot()
        assert snap["outer/boom"]["errors"] == 1
        assert snap["outer"]["errors"] == 1
        assert obs.current_span_path() == ""
        # A later span starts a fresh root path.
        with obs.span("after"):
            assert obs.current_span_path() == "after"

    def test_disabled_span_is_shared_noop(self):
        s1, s2 = obs.span("a"), obs.span("b")
        assert s1 is s2  # no allocation on the disabled path
        with s1:
            assert obs.current_span_path() == ""
        assert obs.SPANS.snapshot() == {}

    def test_merge_combines_span_aggregates(self):
        ours, theirs = obs.SpanRecorder(), obs.SpanRecorder()
        for rec, durations in ((ours, [0.5]), (theirs, [0.25, 2.0])):
            for d in durations:
                path, token = rec.push("a")
                rec.pop(path, token, d, failed=d > 1)
        path, token = theirs.push("b")
        theirs.pop(path, token, 1.0, failed=False)
        ours.merge(theirs.snapshot())
        snap = ours.snapshot()
        assert snap["a"] == {"count": 3, "total_s": 2.75, "min_s": 0.25,
                             "max_s": 2.0, "errors": 1}
        assert snap["b"]["count"] == 1

    def test_interleaved_asyncio_tasks_do_not_nest(self):
        """Concurrent requests on one event loop each get their own
        span path: no ``req/req`` and nothing left open afterwards."""
        obs.enable()

        async def request(entered, release):
            with obs.span("req"):
                entered.set()
                await release.wait()
                return obs.current_span_path()

        async def main():
            first_in, second_in = asyncio.Event(), asyncio.Event()
            release = asyncio.Event()
            first = asyncio.create_task(request(first_in, release))
            await first_in.wait()
            second = asyncio.create_task(request(second_in, release))
            await second_in.wait()  # both spans are open at once
            release.set()
            return await asyncio.gather(first, second)

        assert asyncio.run(main()) == ["req", "req"]
        snap = obs.SPANS.snapshot()
        assert set(snap) == {"req"}
        assert snap["req"]["count"] == 2
        assert obs.current_span_path() == ""

    def test_rank_threads_get_independent_stacks(self):
        obs.enable()

        def program(comm):
            with obs.span("rank_work"):
                return obs.current_span_path()

        res = run_spmd(4, program)
        assert res.returns == ["rank_work"] * 4
        assert obs.SPANS.snapshot()["rank_work"]["count"] == 4


class TestWorkerStatMerge:
    def test_parallel_encode_merges_worker_counters(self, rng):
        """Fork-pool workers report per-chunk deltas; the parent total
        must equal the serial count: every column exactly once."""
        d = rng.standard_normal((16, 32))
        d /= np.linalg.norm(d, axis=0)
        a = rng.standard_normal((16, 60))
        obs.enable()
        batch_omp_matrix(d, a, 0.3, workers=2)
        merged = obs.REGISTRY.counter("omp.columns_encoded")
        assert merged == a.shape[1]
        assert obs.REGISTRY.counter("omp.iterations") > 0
        assert obs.REGISTRY.counter("pool.chunks") >= 2
        assert obs.REGISTRY.gauge("pool.workers") == 2

    def test_serial_and_parallel_counts_agree(self, rng):
        d = rng.standard_normal((12, 24))
        d /= np.linalg.norm(d, axis=0)
        a = rng.standard_normal((12, 40))
        with obs.observed():
            batch_omp_matrix(d, a, 0.3)
            serial = dict(obs.REGISTRY.snapshot()["counters"])
        with obs.observed():
            batch_omp_matrix(d, a, 0.3, workers=2)
            parallel = dict(obs.REGISTRY.snapshot()["counters"])
        for key in ("omp.columns_encoded", "omp.converged_columns",
                    "omp.iterations"):
            assert serial[key] == parallel[key], key


class TestForkMapTelemetry:
    @pytest.mark.skipif(not _can_fork(), reason="forking unavailable")
    def test_worker_counters_and_spans_reach_the_parent(self, union_data):
        """Trials that run in fork_map workers count exactly as if they
        had run in the parent: same counters, same span paths/counts."""
        a, _ = union_data

        def observe(workers):
            with obs.observed():
                measure_alpha(a, 10, 0.2, trials=4, seed=1,
                              workers=workers)
                counters = dict(obs.REGISTRY.snapshot()["counters"])
                spans = {p: e["count"]
                         for p, e in obs.SPANS.snapshot().items()}
                alphas = obs.REGISTRY.histogram("exd.alpha")["count"]
            return counters, spans, alphas

        serial, parallel = observe(1), observe(2)
        assert serial[0]["exd.transforms"] == 4
        assert serial[0]["omp.columns_encoded"] == 4 * a.shape[1]
        assert serial[1] == {"alpha.trials": 1,
                             "alpha.trials/exd.transform": 4,
                             "alpha.trials/exd.transform/omp.encode": 4}
        assert parallel == serial


class TestGramCacheCounters:
    def test_hits_and_misses_counted(self, rng):
        d = rng.standard_normal((10, 20))
        d /= np.linalg.norm(d, axis=0)
        a = rng.standard_normal((10, 15))
        GRAM_CACHE.clear()
        obs.enable()
        batch_omp_matrix(d, a, 0.3)
        batch_omp_matrix(d, a, 0.3)
        assert obs.REGISTRY.counter("gram_cache.misses") == 1
        assert obs.REGISTRY.counter("gram_cache.hits") == 1


class TestSpmdTelemetry:
    def test_traffic_and_clocks_aggregate(self, small_cluster):
        obs.enable()

        def program(comm):
            return comm.allreduce(float(comm.Get_rank()))

        run_spmd(0, program, cluster=small_cluster)
        report = obs.collect_report()
        assert report.clocks["runs"] == 1
        assert report.clocks["ranks"] == small_cluster.size
        assert report.clocks["simulated_time"] > 0
        assert "allreduce" in report.traffic
        assert report.traffic["allreduce"]["payload_words"] > 0
        counters = report.metrics["counters"]
        assert counters["mpi.runs"] == 1
        assert counters["mpi.collective.words"] > 0
        assert counters["mpi.wire.words"] > 0

    def test_record_is_noop_when_disabled(self):
        def program(comm):
            return comm.allreduce(1)

        run_spmd(2, program)
        report = obs.collect_report()
        assert report.clocks["runs"] == 0
        assert report.traffic == {}


class TestObservedContext:
    def test_restores_prior_state(self):
        assert not obs.enabled()
        with obs.observed():
            assert obs.enabled()
        assert not obs.enabled()
        obs.enable()
        with obs.observed():
            pass
        assert obs.enabled()

    def test_fresh_resets_state(self):
        obs.enable()
        obs.inc("stale")
        with obs.observed(fresh=True):
            assert obs.REGISTRY.counter("stale") == 0


class TestRunReportSchema:
    @staticmethod
    def _shape(value):
        """Recursive type skeleton: dicts keep keys, leaves keep type."""
        if isinstance(value, dict):
            return {k: TestRunReportSchema._shape(v)
                    for k, v in sorted(value.items())}
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, float)):
            return "number"
        if isinstance(value, str):
            return "string"
        if isinstance(value, list):
            return "array"
        return type(value).__name__

    def _reference_report(self):
        """A deterministic little run exercising every report section."""
        obs.enable()
        with obs.span("golden.root"):
            with obs.span("golden.child"):
                obs.inc("golden.counter", 2)
        obs.set_gauge("golden.gauge", 1.0)
        obs.observe("golden.hist", 0.5)

        def program(comm):
            return comm.allreduce(1.0)

        from repro.platform import platform_by_name
        run_spmd(0, program, cluster=platform_by_name("1x4"))
        return obs.collect_report(command="golden",
                                  argv=["golden", "--seed", "0"])

    def test_document_matches_golden_schema(self):
        doc = json.loads(self._reference_report().to_json())
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        # Span/metric/traffic *names* vary with instrumentation; the
        # golden file pins the document layout and per-entry shapes.
        assert self._shape(doc["clocks"]) == golden["clocks"]
        assert sorted(doc) == golden["top_level_keys"]
        assert doc["schema"] == golden["schema"]
        assert sorted(doc["metrics"]) == golden["metrics_keys"]
        for entry in doc["spans"].values():
            assert self._shape(entry) == golden["span_entry"]
        for entry in doc["metrics"]["histograms"].values():
            assert self._shape(entry) == golden["histogram_entry"]
        for entry in doc["traffic"].values():
            assert self._shape(entry) == golden["traffic_entry"]
        assert self._shape(doc["gram_cache"]) == golden["gram_cache"]

    def test_json_roundtrip_and_save(self, tmp_path):
        report = self._reference_report()
        path = report.save(tmp_path / "report.json")
        doc = json.loads(open(path, encoding="utf-8").read())
        assert doc == report.to_dict() or doc["schema"] == obs.SCHEMA
        assert doc["meta"]["command"] == "golden"
        assert doc["spans"]["golden.root/golden.child"]["count"] == 1

    def test_pretty_mentions_every_section(self):
        text = self._reference_report().pretty()
        for needle in ("run report", "spans", "counters", "gram cache",
                       "mpi traffic", "virtual clocks"):
            assert needle in text
