#!/usr/bin/env python3
"""Fold several runs of one bench into a baseline of per-row medians.

Usage:
    python3 bench/median_rows.py OUT.json RUN1.json RUN2.json RUN3.json ...

Each RUN is a BENCH_fig6.json or BENCH_transport.json written by the same
bench.  OUT is the first run with every numeric field of each measured row
(keyed as check_regression.py keys them) replaced by that field's median
over the runs.  A baseline taken from one run inherits that run's luck,
and one run's spread on a shared box is wider than the gate's tolerance.
"""

import json
import statistics
import sys

from check_regression import measured_rows


def main():
    if len(sys.argv) < 4:
        print(__doc__.strip())
        return 2
    out_path, run_paths = sys.argv[1], sys.argv[2:]
    docs = []
    for path in run_paths:
        with open(path) as f:
            docs.append(json.load(f))
    runs = [measured_rows(doc) for doc in docs]
    out = docs[0]
    for key, row in measured_rows(out).items():
        for field, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if field in ("engines", "batch_max"):
                continue
            values = [run[key][field] for run in runs if key in run]
            row[field] = statistics.median(values)
    with open(out_path, "w") as f:
        json.dump(out, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {out_path}: per-row medians of {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
