"""Compare two sets of benchmark records.

Usage::

    python3 perfbench/compare.py BASE_DIR OTHER_DIR

Each directory holds records written by ``run.py`` (copies of
``.perfbench/results/*.json`` from two checkouts, one run per seed).
For every workload and trace mode present in both, prints each metric's
median and quartiles per side and the change against the base median;
an end-to-end metric worse than its ``BENCHMARK.json`` bound is marked
REGRESSION.  Records whose environment fingerprints differ (cores, BLAS,
versions, backends) are flagged: their numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import fingerprint_mismatches


def _load(directory: Path) -> dict:
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}
    base, other = (_load(Path(d)) for d in argv)
    status = 0
    for key in sorted(set(base) & set(other)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(base[key])} vs "
              f"{len(other[key])} runs")
        prints = {json.dumps(r["fingerprint"], sort_keys=True)
                  for r in base[key] + other[key]}
        if len(prints) > 1:
            first = base[key][0]["fingerprint"]
            differ = sorted({k for r in base[key] + other[key]
                             for k in fingerprint_mismatches(
                                 first, r["fingerprint"])})
            if differ:
                print(f"   FINGERPRINT DIFFERS on {differ}: not comparable")
                status = 1
        failed = [sum(r["failed"] for r in side)
                  for side in (base[key], other[key])]
        if any(failed):
            print(f"   failed ops: base {failed[0]}, other {failed[1]}")
        for name in sorted(base[key][0]["metrics"]):
            b = [r["metrics"][name]["value"] for r in base[key]]
            o = [r["metrics"][name]["value"] for r in other[key]
                 if name in r["metrics"]]
            if not o:
                continue
            bq, oq = _quartiles(b), _quartiles(o)
            change = (oq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            mark = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = change if better == "lower" else -change
                if worse > bound:
                    mark = f"  REGRESSION (bound {bound:.0%})"
                    status = 1
            print(f"   {name:28s} {bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f" -> {oq[1]:12.5g} [{oq[0]:.5g}, {oq[2]:.5g}]"
                  f"  {change:+.1%}{mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
