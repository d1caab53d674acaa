"""RunReport: one JSON document unifying every telemetry source.

The report joins four streams that previously lived in separate
objects:

* the metrics registry (counters / gauges / histograms),
* the span recorder (nested timed regions),
* the MPI emulator's :class:`~repro.mpi.counters.TrafficLedger`
  (per-operation payload/wire words, aggregated over every SPMD run of
  the process while observability was enabled),
* the per-rank virtual clocks (simulated time / energy / flops totals),
* plus the Gram cache's own hit/miss/entry counts.

:func:`record_spmd_run` is the hook :func:`repro.mpi.runtime.run_spmd`
calls after every emulated run; it is a no-op while observability is
disabled.  :func:`collect_report` assembles the current process-wide
state into a :class:`RunReport`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from repro.observability._state import STATE
from repro.observability.metrics import REGISTRY
from repro.observability.spans import SPANS

__all__ = ["RunReport", "SCHEMA", "collect_report", "record_spmd_run"]

#: Schema identifier embedded in every report (bump on layout changes).
SCHEMA = "repro.run_report/v1"

_SPMD_LOCK = threading.Lock()


def _empty_spmd() -> dict:
    return {
        "runs": 0,
        "ranks": 0,
        "simulated_time": 0.0,
        "simulated_energy": 0.0,
        "total_flops": 0,
        "wall_time": 0.0,
    }


_SPMD = _empty_spmd()
_TRAFFIC: dict[str, dict] = {}


def _reset_spmd() -> None:
    with _SPMD_LOCK:
        _SPMD.clear()
        _SPMD.update(_empty_spmd())
        _TRAFFIC.clear()


def record_spmd_run(result) -> None:
    """Fold one :class:`~repro.mpi.runtime.SPMDResult` into the totals.

    Called by ``run_spmd`` after every emulated run; no-op while
    observability is disabled.  Per-op traffic is accumulated across
    runs, clock totals are summed (``simulated_time`` adds makespans, so
    sequential runs report their combined simulated duration), and the
    headline counters (``mpi.collective.words``, ``mpi.wire.words``,
    ``mpi.runs``) land in the metrics registry as well.
    """
    if not STATE.enabled:
        return
    collective_words = 0
    wire_words = 0
    with _SPMD_LOCK:
        _SPMD["runs"] += 1
        _SPMD["ranks"] += len(result.clocks)
        _SPMD["simulated_time"] += result.simulated_time
        _SPMD["simulated_energy"] += result.simulated_energy
        _SPMD["total_flops"] += result.total_flops
        _SPMD["wall_time"] += result.wall_time
        for op, tally in result.traffic.snapshot().items():
            agg = _TRAFFIC.setdefault(
                op, {"calls": 0, "payload_words": 0, "wire_words": 0})
            agg["calls"] += tally.calls
            agg["payload_words"] += tally.payload_words
            agg["wire_words"] += tally.wire_words
            wire_words += tally.wire_words
            collective_words += tally.payload_words
    REGISTRY.inc("mpi.runs")
    REGISTRY.inc("mpi.collective.words", collective_words)
    REGISTRY.inc("mpi.wire.words", wire_words)


def _gram_cache_stats() -> dict:
    # Imported lazily: parallel_omp itself imports observability.metrics.
    from repro.linalg.parallel_omp import GRAM_CACHE

    return {
        "hits": GRAM_CACHE.hits,
        "misses": GRAM_CACHE.misses,
        "entries": len(GRAM_CACHE),
    }


@dataclass
class RunReport:
    """JSON-serialisable unified telemetry document.

    Attributes
    ----------
    meta:
        Free-form run context (command, argv, notes).
    metrics:
        :meth:`MetricsRegistry.snapshot` — counters/gauges/histograms.
    spans:
        :meth:`SpanRecorder.snapshot` — per-path timing aggregates.
    gram_cache:
        Hit/miss/entry counts of the process-wide Gram cache.
    traffic:
        Per-operation MPI word tallies summed over the process's
        observed SPMD runs (empty when none ran).
    clocks:
        Virtual-clock totals over the observed SPMD runs (all zeros
        when none ran).
    """

    meta: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    gram_cache: dict = field(default_factory=dict)
    traffic: dict = field(default_factory=dict)
    clocks: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The full document as one plain dict."""
        return {
            "schema": SCHEMA,
            "meta": dict(self.meta),
            "metrics": self.metrics,
            "spans": self.spans,
            "gram_cache": self.gram_cache,
            "traffic": self.traffic,
            "clocks": self.clocks,
        }

    def to_json(self, *, indent: int = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          default=float)

    def save(self, path: str) -> str:
        """Write the JSON document to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path

    def pretty(self) -> str:
        """Human-readable profile (the CLI's ``--profile`` output)."""
        lines = ["== run report =="]
        if self.meta:
            lines.append("meta: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.meta.items())))
        if self.spans:
            lines.append("-- spans (seconds) --")
            for path, s in self.spans.items():
                lines.append(
                    f"  {path}: n={s['count']} total={s['total_s']:.4f} "
                    f"min={s['min_s']:.4f} max={s['max_s']:.4f} "
                    f"errors={s['errors']}")
        counters = self.metrics.get("counters", {})
        if counters:
            lines.append("-- counters --")
            for name in sorted(counters):
                lines.append(f"  {name}: {counters[name]}")
        gauges = self.metrics.get("gauges", {})
        if gauges:
            lines.append("-- gauges --")
            for name in sorted(gauges):
                lines.append(f"  {name}: {gauges[name]}")
        histograms = self.metrics.get("histograms", {})
        if histograms:
            lines.append("-- histograms --")
            for name in sorted(histograms):
                h = histograms[name]
                lines.append(
                    f"  {name}: n={h['count']} mean={h['mean']:.4g} "
                    f"min={h['min']:.4g} max={h['max']:.4g}")
        lines.append("-- gram cache --")
        lines.append(
            f"  hits={self.gram_cache.get('hits', 0)} "
            f"misses={self.gram_cache.get('misses', 0)} "
            f"entries={self.gram_cache.get('entries', 0)}")
        lines.append("-- mpi traffic (words) --")
        if self.traffic:
            for op in sorted(self.traffic):
                t = self.traffic[op]
                lines.append(
                    f"  {op}: calls={t['calls']} "
                    f"payload={t['payload_words']} wire={t['wire_words']}")
        else:
            lines.append("  (no emulated MPI runs observed)")
        c = self.clocks
        lines.append("-- virtual clocks --")
        lines.append(
            f"  runs={c.get('runs', 0)} ranks={c.get('ranks', 0)} "
            f"simulated_time={c.get('simulated_time', 0.0):.6g}s "
            f"simulated_energy={c.get('simulated_energy', 0.0):.6g}J "
            f"flops={c.get('total_flops', 0)}")
        return "\n".join(lines)


def collect_report(*, command: str | None = None, argv=None,
                   meta: dict | None = None) -> RunReport:
    """Assemble the process-wide telemetry into one :class:`RunReport`."""
    doc_meta: dict = {}
    if command is not None:
        doc_meta["command"] = command
    if argv is not None:
        doc_meta["argv"] = list(argv)
    if meta:
        doc_meta.update(meta)
    with _SPMD_LOCK:
        clocks = dict(_SPMD)
        traffic = {op: dict(t) for op, t in _TRAFFIC.items()}
    return RunReport(meta=doc_meta,
                     metrics=REGISTRY.snapshot(),
                     spans=SPANS.snapshot(),
                     gram_cache=_gram_cache_stats(),
                     traffic=traffic,
                     clocks=clocks)
