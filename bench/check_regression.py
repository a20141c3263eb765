#!/usr/bin/env python3
"""Gate a fresh bench run against the committed baseline.

Usage:
    python3 bench/check_regression.py FRESH.json [BASELINE.json]

FRESH.json is a BENCH_fig6.json produced by a just-built bench/fig6_scaling
run, or a BENCH_transport.json from bench/transport_stream (pass the
committed BENCH_transport.json as BASELINE.json); BASELINE.json defaults
to the committed BENCH_fig6.json at the repo root.  The gate fails
(exit 1) when, over the measured pipeline rows keyed by
(transport, engines, batch_max) — transport defaults to "local" for files
that predate the field:

  * any fresh row's applied_tps — tuples the engines applied per second,
    first emit to last apply — falls more than --tolerance (default 10%)
    below the same row in the baseline's "current" measurements, or a
    row of either file lacks it, or
  * any fresh *local, shm or tcp* pipeline row reports allocs_per_tuple
    > 0 — the steady-state data plane is supposed to be allocation-free,
    and both carriers keep the tuple arena engaged on both sides of the
    boundary (the sink releases each slab once its frame is encoded, the
    server decodes into leased slabs), so a single leaked alloc per tuple
    is a regression regardless of throughput.  The bare "wire" row
    (TcpTupleSink -> TcpTupleServer with no pipeline or arena) is not
    measured for allocations; its delivered rate is still gated.

The split's enqueue rate (split_enqueue_tps) is printed but not gated: it
measures how fast the split fills the engine ports, which reads far above
what the engines absorb whenever the ports are deep enough to hold a
whole run.

Rows present in only one file are reported but don't fail the gate (engine
counts may be added or dropped deliberately).  Commit baselines taken from
the per-row median of several runs: a single run's spread on a shared box
is wider than the tolerance.
"""

import argparse
import json
import sys
from pathlib import Path


def measured_rows(doc):
    """Extract {(transport, engines, batch_max): row} from a BENCH_*.json."""
    current = doc.get("current", doc)  # tolerate a bare {"measured": [...]}
    rows = current.get("measured", [])
    return {
        (
            str(r.get("transport", "local")),
            int(r["engines"]),
            int(r.get("batch_max", 1)),
        ): r
        for r in rows
    }


def row_label(key):
    transport, engines, batch = key
    label = f"e={engines} b={batch}"
    return label if transport == "local" else f"{transport} {label}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="BENCH_fig6.json from the fresh run")
    ap.add_argument(
        "baseline",
        nargs="?",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_fig6.json"),
        help="committed BENCH_fig6.json to gate against (default: repo root)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional applied-rate drop (default 0.10 = 10%%)",
    )
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = measured_rows(json.load(f))
    with open(args.baseline) as f:
        base = measured_rows(json.load(f))

    if not fresh:
        print("FAIL: no measured rows in", args.fresh)
        return 1

    failures = []
    for key in sorted(base):
        if key not in fresh:
            print(f"note: {row_label(key)} in baseline only (skipped)")
            continue
        if "applied_tps" not in fresh[key] or "applied_tps" not in base[key]:
            failures.append(f"{row_label(key)}: no applied_tps")
            print(f"{row_label(key)}: NO applied_tps")
            continue
        f_tps = float(fresh[key]["applied_tps"])
        b_tps = float(base[key]["applied_tps"])
        floor = (1.0 - args.tolerance) * b_tps
        verdict = "ok"
        if f_tps < floor:
            verdict = "THROUGHPUT REGRESSION"
            failures.append(
                f"{row_label(key)}: applied {f_tps:.0f} t/s < "
                f"{floor:.0f} (baseline {b_tps:.0f} - {args.tolerance:.0%})"
            )
        split = fresh[key].get("split_enqueue_tps")
        split_note = f"  split {float(split):>10.0f} t/s" if split else ""
        print(
            f"{row_label(key)}: applied {f_tps:>10.0f} t/s  "
            f"baseline {b_tps:>10.0f} t/s{split_note}  [{verdict}]"
        )

    for key in sorted(fresh):
        transport = key[0]
        allocs = float(fresh[key].get("allocs_per_tuple", 0.0))
        if transport in ("local", "shm", "tcp") and allocs > 0.0:
            failures.append(
                f"{row_label(key)}: allocs_per_tuple = {allocs} > 0"
            )
            print(f"{row_label(key)}: ALLOCS/TUPLE {allocs} > 0")
        if key not in base:
            print(f"note: {row_label(key)} in fresh only (no gate)")

    if failures:
        print("\nFAIL:")
        for msg in failures:
            print(" -", msg)
        return 1
    print("\nPASS: no applied-rate regression, steady state allocation-free")
    return 0


if __name__ == "__main__":
    sys.exit(main())
