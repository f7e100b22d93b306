#!/usr/bin/env python3
"""One host-stamped benchmark: five workloads, end to end and per layer.

Commands::

    run.py run [--trace] [--quick] [--seed N] [--seconds S]
        every workload once; prints every metric by name with its unit
        and checks outputs.  ``--trace`` adds the separate traced run
        (per-layer numbers + tracing overhead).
    run.py check-repeat [--quick] [--seconds S]
        the untraced suite twice on the same tree; non-zero exit unless
        every end-to-end metric agrees within its bound and the counts
        repeat exactly.
    run.py bench --workload W --seed N --seconds S --trace 0|1
        one run in the driver's protocol (see BENCHMARK.json): the last
        stdout line is the result object.

Every workload's measured phase runs in its own fresh child process;
this process only generates load, aggregates and prints.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402
import host  # noqa: E402
import metrics  # noqa: E402

#: measured-phase seconds of ``run`` / ``check-repeat``: BENCHMARK.json's
#: ``run_seconds``, which is what the driver passes to ``bench``
DEFAULT_SECONDS = 12.0
QUICK_SECONDS = 1.0


def _workload_module(workload: str):
    import cold
    import inmem
    import serve
    import stream

    return {"bulk_inmem": inmem, "small_inmem": inmem, "cold_start": cold,
            "serve_http": serve, "stream_file": stream}[workload]


def run_workload(opts) -> Dict:
    """One workload, one mode -> the full output record."""
    common.require_program()
    raw = _workload_module(opts.workload).parent(opts)
    classes = raw["classes"]
    ran = {n: c for n, c in classes.items() if c.get("n")}
    attempted, failed = int(raw["ops"]), int(raw["failed"])
    end_to_end = {
        "op_ms_p50": common.geomean(c["p50_ms"] for c in ran.values()),
        "ops_per_s": attempted / raw["wall_s"] if raw["wall_s"] > 0 else 0.0,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "fail_share": failed / attempted if attempted else 1.0,
        "setup_s": common.median(raw["setup_s"]),
    }
    skipped = dict(raw.get("skipped", {}))
    stamp = host.stamp()
    record = {
        "workload": opts.workload,
        "trace": bool(opts.trace),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "quick": bool(opts.quick),
        "host": stamp,
        # a run that lost a class or a yardstick changes what a geomean
        # averages: say so instead of silently reporting another number
        "comparable": not skipped and stamp["scipy"] is not None
        and stamp["compiler"]["path"] is not None,
        "skipped": skipped,
        "attempted": attempted,
        "failed": failed,
        "problems": raw.get("problems", []),
        "op_counts": {name: c.get("n", 0) for name, c in classes.items()},
        "wall_s": raw["wall_s"],
        "setup_samples_s": raw["setup_s"],
        "end_to_end": end_to_end,
        "classes": classes,
        "counts": raw.get("counts", {}),
        "choice_changes": raw.get("choice_changes", 0),
        "extra": raw.get("extra", {}),
    }
    if opts.trace:
        layers = dict(raw.get("layers", {}))
        layers.update(raw.get("counts", {}))
        layers["tail.op_ms_p90"] = common.geomean(
            c["p90_ms"] for c in ran.values())
        record["per_layer"] = metrics.per_layer_record(opts.workload, layers)
        record["layer_classes"] = raw.get("layer_classes", {})
        record["self_time_us"] = raw.get("self_time_us", {})
        record["trace_overhead_ms"] = (
            layers.get("trace.op_ms_p50", 0.0) - end_to_end["op_ms_p50"])
        record["trace_file"] = os.path.relpath(
            common.trace_path(opts.workload), common.REPO_ROOT)
    return record


# ----------------------------------------------------------------------
# printing


def print_record(record: Dict, out=sys.stdout) -> None:
    units = {m.name: m.unit for m in metrics.END_TO_END + [metrics.FAIL_SHARE]}
    mode = "traced" if record["trace"] else "untraced"
    out.write(f"== {record['workload']} ({mode}, seed {record['seed']}, "
              f"{record['attempted']} ops in {record['wall_s']:.2f} s) ==\n")
    if not record["trace"]:
        for name, value in record["end_to_end"].items():
            out.write(f"  {name:<24} {value:>14.6g} {units[name]}\n")
    out.write("  classes:\n")
    for name, row in record["classes"].items():
        if row.get("skipped"):
            out.write(f"    {name:<20} skipped: {row['skipped']}\n")
            continue
        out.write(
            f"    {name:<20} n={row['n']:<6} p50={row['p50_ms']:>10.4f} ms "
            f"p90={row['p90_ms']:>10.4f} ms failed={row['failed']}"
            + (f"  [{row['impl']}]" if row.get("impl") else "") + "\n")
    if record["trace"]:
        out.write("  per-layer:\n")
        exercised = {layer.name for layer in metrics.PER_LAYER
                     if record["workload"] in layer.workloads}
        for name, cell in record["per_layer"].items():
            if name in exercised:
                out.write(f"    {name:<32} {cell['value']:>14.6g} {cell['unit']}\n")
        out.write("  self time per span (median):\n")
        for name, value in record["self_time_us"].items():
            out.write(f"    {name:<32} {value:>14.3f} us\n")
        out.write(f"  tracing overhead (traced - untraced op_ms_p50 of this "
                  f"run): {record['trace_overhead_ms']:.6g} ms\n")
    for problem in record["problems"]:
        out.write(f"  PROBLEM {problem}\n")
    for name, why in record["skipped"].items():
        out.write(f"  SKIPPED {name}: {why}\n")
    if not record["comparable"]:
        out.write("  comparable: false\n")


def print_host(stamp: Dict, out=sys.stdout) -> None:
    cc = stamp["compiler"]
    out.write(
        f"host: commit {stamp['commit']}"
        f"{' (dirty)' if stamp['dirty'] else ''}, {stamp['nproc']} x "
        f"{stamp['cpu']}, python {stamp['python']}, numpy {stamp['numpy']}, "
        f"scipy {stamp['scipy']}, CC={cc['CC']} [{cc['banner']}]\n")


# ----------------------------------------------------------------------
# commands


def _options(ns, workload: str, trace: bool):
    return argparse.Namespace(
        workload=workload, seed=ns.seed, seconds=ns.seconds,
        trace=int(trace), quick=bool(getattr(ns, "quick", False)))


def _seconds(ns) -> None:
    if ns.seconds is None:
        ns.seconds = QUICK_SECONDS if ns.quick else DEFAULT_SECONDS


def run_suite(ns, trace: bool) -> List[Dict]:
    records = []
    for workload in metrics.WORKLOADS:
        record = run_workload(_options(ns, workload, trace))
        print_record(record)
        records.append(record)
    return records


def cmd_run(ns) -> int:
    _seconds(ns)
    print_host(host.stamp())
    records = run_suite(ns, trace=False)
    if ns.trace:
        records += run_suite(ns, trace=True)
    path = os.path.join(common.scratch_dir(),
                        f"run-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as handle:
        json.dump(records, handle, indent=1)
    print(f"records: {os.path.relpath(path, common.REPO_ROOT)}")
    return 1 if any(r["failed"] for r in records) else 0


def cmd_check_repeat(ns) -> int:
    """The untraced suite twice; every end-to-end metric must agree
    within its bound and every count must repeat exactly (counts that
    scale with the operations done are compared per operation)."""
    _seconds(ns)
    print_host(host.stamp())
    first, second = run_suite(ns, trace=False), run_suite(ns, trace=False)
    bad = 0
    kinds = {layer.name: layer.kind for layer in metrics.PER_LAYER}
    print(f"{'workload':<12} {'metric':<28} {'first':>14} {'second':>14}  verdict")
    for a, b in zip(first, second):
        for spec in metrics.END_TO_END + [metrics.FAIL_SHARE]:
            if spec.name == "setup_s" and ns.quick:
                continue
            x, y = a["end_to_end"][spec.name], b["end_to_end"][spec.name]
            worse = (y - x) if spec.better == "lower" else (x - y)
            base = abs(x) if x else 1.0
            ok = abs(worse) <= spec.bound * base if spec.bound else x == y == 0
            bad += not ok
            print(f"{a['workload']:<12} {spec.name:<28} {x:>14.6g} {y:>14.6g}  "
                  f"{'ok' if ok else 'DIFFERS'} (bound {spec.bound:.0%})")
        counts = dict.fromkeys(list(a["counts"]) + list(b["counts"]))
        for name in counts:
            x, y = a["counts"].get(name, 0), b["counts"].get(name, 0)
            if kinds.get(name) == "count":  # scales with ops: compare per op
                ok = x * b["attempted"] == y * a["attempted"]
            else:
                ok = x == y
            bad += not ok
            print(f"{a['workload']:<12} {name:<28} {x:>14} {y:>14}  "
                  f"{'ok' if ok else 'DIFFERS'} (exact)")
        x, y = a["choice_changes"], b["choice_changes"]
        ok = x == y == 0
        bad += not ok
        print(f"{a['workload']:<12} {'router.choice_changes':<28} {x:>14} "
              f"{y:>14}  {'ok' if ok else 'DIFFERS'} (must be 0)")
    print("check-repeat:", "PASS" if not bad else f"FAIL ({bad} disagreements)")
    return 1 if bad else 0


def cmd_bench(ns) -> int:
    """The driver's protocol: one workload, one mode, one result line."""
    record = run_workload(_options(ns, ns.workload, bool(ns.trace)))
    print_host(record["host"])
    print_record(record)
    path = os.path.join(
        common.scratch_dir(),
        f"bench-{ns.workload}-{'traced' if ns.trace else 'untraced'}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    if ns.trace:
        cells = record["per_layer"]
    else:
        cells = {
            spec.name: {"value": record["end_to_end"][spec.name],
                        "unit": spec.unit}
            for spec in metrics.END_TO_END
        }
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": cells,
    }))
    return 0


def cmd_child(ns) -> int:
    _workload_module(ns.workload).child(ns)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=None,
                       help="measured-phase length per workload")
        p.add_argument("--quick", action="store_true",
                       help="tiny sizes; the whole suite in <= 20 s")

    p = sub.add_parser("run", help="every workload once, all metrics by name")
    common_flags(p)
    p.add_argument("--trace", action="store_true",
                   help="also make the separate traced run (per-layer)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check-repeat", help="two untraced runs must agree")
    common_flags(p)
    p.set_defaults(func=cmd_check_repeat)

    def one_run_flags(p):
        p.add_argument("--workload", required=True, choices=list(metrics.WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        p.add_argument("--quick", action="store_true")

    p = sub.add_parser("bench", help="one run in the driver's protocol")
    one_run_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("child", help=argparse.SUPPRESS)
    one_run_flags(p)
    p.add_argument("--mode", default="measure")
    p.add_argument("--role", default=None)
    p.add_argument("--path", default=None)
    p.set_defaults(func=cmd_child)

    ns = parser.parse_args(argv)
    return ns.func(ns)


if __name__ == "__main__":
    sys.exit(main())
