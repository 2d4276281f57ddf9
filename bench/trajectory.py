"""Fold the run records in .bench_out/ into one BENCH_<n>.json point.

    python3 bench/trajectory.py bench/BENCH_2.json

For every workload: the median and quartiles of each end-to-end metric
over its `--trace 0` runs (one run per seed), and the per-layer metrics of
its one `--trace 1` record; more than one traced record of a workload is
refused.  Only records of the current source tree (same digest of
src/gcx) are used.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import OUT_DIR, source_digest  # noqa: E402


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    root = Path.cwd()
    source = source_digest(root)
    records = [json.loads(p.read_text()) for p in sorted((root / OUT_DIR).glob("*.json"))]
    records = [r for r in records if r["env"]["source"] == source]
    if not records:
        sys.stderr.write(f"no run records of source {source} in {OUT_DIR}/\n")
        return 1
    point = {"env": records[-1]["env"], "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        runs = sorted((r for r in records if r["workload"] == workload and not r["trace"]),
                      key=lambda r: r["seed"])
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        if len(traced) > 1:
            sys.stderr.write(f"{len(traced)} traced records of {workload} in {OUT_DIR}/; "
                             "keep one\n")
            return 1
        entry = {"seeds": [r["seed"] for r in runs],
                 "correct": all(r["correct"] for r in runs + traced),
                 "end_to_end": {}}
        for name in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][name] for r in runs]
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry["end_to_end"][name] = {"median": statistics.median(values),
                                         "q1": q[0], "q3": q[2], "runs": values}
        if traced:
            entry["per_layer"] = traced[0]["metrics"]
        point["workloads"][workload] = entry
    Path(argv[0]).write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
