"""``cold_start``: one operation = one fresh interpreter (cold_child.py).

The parent *is* the load generator here: it spawns one child at a time
(closed loop), classes interleaved round-robin, and times each from
spawn to exit.  Every child's output digest is compared with the digest
of a set-up operation of the same class whose full outputs the oracle
decoded and checked, so every measured operation is verified without
putting a dump inside its timed region.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import gen
import host
import oracle
from common import (
    HARNESS_DIR, REPO_ROOT, RoundClock, child_env, class_row, geomean, median,
    scratch_dir, setup_repeats, trace_path,
)
from inmem import SMALL
from metrics import ENGINE_COUNTERS
from spans import Tracer

CLASSES = ("auto_cold", "auto_disk", "native_cold", "native_disk")
CHILD = os.path.join(HARNESS_DIR, "cold_child.py")
OP_TIMEOUT_S = 60.0


def _spawn(cls: str, input_path: str, cache_dir: Optional[str],
           steps: bool = False, dump: Optional[str] = None) -> Dict:
    """One operation, timed by the parent from spawn to exit."""
    argv = [sys.executable, CHILD, "--cls", cls, "--input", input_path]
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    if steps:
        argv.append("--steps")
    if dump:
        argv += ["--dump", dump]
    started = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=REPO_ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"op_ms": OP_TIMEOUT_S * 1e3, "error": "timed out"}
    op_ms = (time.perf_counter() - started) * 1e3
    if proc.returncode != 0:
        return {"op_ms": op_ms,
                "error": f"exit {proc.returncode}: {proc.stderr[-300:]}"}
    report = json.loads(proc.stdout.splitlines()[-1])
    report["op_ms"] = op_ms
    report["started"] = started
    return report


def _verify_dump(path: str, raw: gen.Raw) -> List[str]:
    """Decode a child's dumped outputs with the oracle."""
    problems = []
    with np.load(path) as flat:
        for fmt in ("CSR", "CSC", "DIA", "ELL"):
            arrays, meta = {}, {}
            for key in flat.files:
                parts = key.split("|")
                if parts[0] != fmt or parts[1] == "vals":
                    continue
                target = arrays if parts[1] == "array" else meta
                value = flat[key]
                target[(int(parts[2]), parts[3])] = (
                    value if parts[1] == "array" else int(value))
            problems += oracle.check_result(
                fmt, raw.dims, arrays, meta, flat[f"{fmt}|vals"],
                raw.coords, raw.sorted_vals)
    return problems


def parent(opts) -> Dict:
    run_dir = scratch_dir(f"cold-{os.getpid()}")
    try:
        return _run(opts, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(opts, run_dir: str) -> Dict:
    classes = list(CLASSES)
    skipped = {}
    if host.compiler()["path"] is None:
        classes = [c for c in classes if not c.startswith("native")]
        skipped = {c: "no working C compiler" for c in CLASSES
                   if c.startswith("native")}

    # -- set-up: input, warm kernel-cache dirs, one verified op per class
    setups, problems = [], []
    for rep in range(setup_repeats(opts)):
        started = time.time()
        raw = gen.coo_matrix(*SMALL[236], np.random.default_rng(opts.seed))
        input_path = os.path.join(run_dir, f"input-{rep}.npz")
        np.savez(input_path, n=raw.dims[0], rows=raw.arrays[(0, "crd")],
                 cols=raw.arrays[(1, "crd")], vals=raw.vals)
        cache_dirs = {
            "auto_cold": None, "native_cold": None,
            "auto_disk": os.path.join(run_dir, f"kernels-auto-{rep}"),
            "native_disk": os.path.join(run_dir, f"kernels-native-{rep}"),
        }
        verified = {}
        for cls in classes:
            dump = os.path.join(run_dir, f"dump-{rep}-{cls}.npz")
            report = _spawn(cls, input_path, cache_dirs[cls], dump=dump)
            found = ([report["error"]] if "error" in report
                     else _verify_dump(dump, raw))
            problems += [f"{cls} (set-up): {p}" for p in found]
            verified[cls] = None if found else report["digest"]
        setups.append(time.time() - started)

    # -- the measured phase: spawn, wait, next ----------------------------
    samples = {c: [] for c in classes}
    traced_samples = {c: [] for c in classes}
    failed = {c: 0 for c in classes}
    reports: Dict[str, List[Dict]] = {c: [] for c in classes}
    counts = {f"engine.{k}": 0 for k in ENGINE_COUNTERS}
    peak_kb = ops = 0
    # quick untraced: the one round that is first and last at once
    clock = RoundClock(0.0 if opts.quick and not opts.trace else opts.seconds)
    for index, _ in clock:
        steps = bool(opts.trace) and index % 2 == 1
        for cls in classes:
            report = _spawn(cls, input_path, cache_dirs[cls], steps=steps)
            ops += 1
            (traced_samples if steps else samples)[cls].append(report["op_ms"])
            if "error" in report or report["digest"] != verified[cls]:
                failed[cls] += 1
                problems.append(f"{cls}: " + report.get(
                    "error", "output digest differs from the verified run"))
                continue
            report["steps"] = steps
            reports[cls].append(report)
            peak_kb = max(peak_kb, report["vm_hwm_kb"])
            for key in ENGINE_COUNTERS:
                counts[f"engine.{key}"] += report["stats"].get(key, 0)
    wall = clock.wall

    rows = {}
    for cls in classes:
        stats = reports[cls][-1]["stats"] if reports[cls] else {}
        rows[cls] = class_row(samples[cls], failed[cls], impl=(
            f"compiles={stats.get('compiles')} disk_hits="
            f"{stats.get('disk_hits')} native_compiles="
            f"{stats.get('native_compiles')}"))
    for cls, why in skipped.items():
        rows[cls] = {"n": 0, "failed": 0, "skipped": why}
    record = {
        "setup_s": setups, "wall_s": wall, "ops": ops, "rounds": clock.rounds,
        "failed": sum(failed.values()), "problems": problems[:10],
        "peak_rss_kb": peak_kb, "classes": rows, "counts": counts,
        "skipped": skipped,
    }
    if not opts.trace:
        return record

    # -- per-layer: what the children reported around their own calls ----
    def layer(metric: str, only_steps: Optional[bool] = None) -> float:
        """Geomean over classes of the class median of a child timing."""
        per_class = []
        for cls in classes:
            values = [r["ms"][metric] for r in reports[cls]
                      if metric in r["ms"]
                      and (only_steps is None or r["steps"] == only_steps)]
            if values:
                per_class.append(median(values))
        return geomean(per_class)

    layers = {
        "proc.spawn_ms": geomean(
            median([r["op_ms"] - r["total_ms"] for r in reports[c]])
            for c in classes if reports[c]),
        # the untraced child's first convert carries probe + plan + obtain
        "engine.first_convert_ms": layer("engine.first_convert_ms", False),
        "trace.op_ms_p50": geomean(
            median(v) for v in traced_samples.values() if v),
    }
    for metric in ("import.numpy_ms", "import.repro_ms", "engine.init_ms",
                   "engine.toolchain_probe_ms", "engine.first_plan_ms",
                   "engine.obtain_codegen_ms", "engine.obtain_scalar_codegen_ms",
                   "engine.obtain_cc_ms", "engine.obtain_disk_ms",
                   "engine.obtain_native_disk_ms"):
        layers[metric] = layer(metric)
    shas = {cls: {r["source_sha"] for r in reports[cls] if r["source_sha"]}
            for cls in classes}
    by_backend = {}  # vector sources: auto_*, C sources: native_*
    for cls, seen in shas.items():
        by_backend.setdefault(cls.split("_")[0], set()).update(seen)
    layers["codegen.deterministic"] = float(
        all(len(seen) == 1 for seen in by_backend.values()) and bool(by_backend))
    layers["codegen.source_bytes"] = sum(
        max((r["source_bytes"] for r in reports[cls]), default=0)
        for cls in ("auto_cold", "native_cold") if cls in reports)
    # spans: the parent's spawn-to-exit window per op, the child's own
    # steps placed inside it (the child's clock starts after the spawn)
    tracer = Tracer()
    for cls in classes:
        for op_id, r in enumerate(reports[cls]):
            end = r["started"] + r["op_ms"] / 1e3
            top = tracer.record("cold_start.op", r["started"], end,
                                op=op_id, cls=cls)
            child_t0 = end - r["total_ms"] / 1e3
            tracer.record("proc.spawn", r["started"], child_t0, top, op_id, cls)
            for name, offset in r["at_ms"].items():
                start = child_t0 + offset / 1e3
                tracer.record(name.rsplit("_", 1)[0], start,
                              start + r["ms"][name] / 1e3, top, op_id, cls)
    tracer.dump(trace_path(opts.workload))
    record["self_time_us"] = tracer.self_time_us()
    record["layers"] = layers
    record["layer_classes"] = {
        cls: {k: median([r["ms"][k] for r in reports[cls] if k in r["ms"]])
              for k in sorted({k for r in reports[cls] for k in r["ms"]})}
        for cls in classes
    }
    return record
