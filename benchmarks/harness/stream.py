"""``stream_file``: ``convert_file()`` of one REPROCOO file to COO, CSR,
DIA and ELL — one fresh child per class running all its repeats, so each
class has its own ``VmHWM`` (peak RSS is the out-of-core contract).

The parent writes the fixture (numpy only), runs the four children one
after another, and oracle-checks the result directories of every class's
first and last operation through ``load_result()`` — in the parent, so
the check's memory never counts against a child's peak.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from typing import Dict

import numpy as np

import gen
import oracle
from common import (
    SRC_DIR, RoundClock, child_argv, class_row, emit, geomean, median,
    run_child, scratch_dir, setup_repeats, time_reps, trace_path, vm_hwm_kb,
)
from metrics import ENGINE_COUNTERS
from spans import Tracer

CLASSES = ("COO", "CSR", "DIA", "ELL")
#: (n, stride) of the fixture stencil: 4M nnz, 96 MB on disk
FIXTURE = {False: (800_000, 894), True: (20_000, 141)}
CHUNK_NNZ = {False: 262_144, True: 8_192}


def parent(opts) -> Dict:
    run_dir = scratch_dir(f"stream-{os.getpid()}")
    try:
        return _run(opts, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(opts, run_dir: str) -> Dict:
    if SRC_DIR not in sys.path:  # the parent only loads results to check them
        sys.path.insert(0, SRC_DIR)
    from repro.stream import load_result

    path = os.path.join(run_dir, "fixture.reprocoo")
    fixture_s = []
    for _ in range(setup_repeats(opts)):
        started = time.time()
        raw = gen.coo_matrix(*FIXTURE[opts.quick],
                             np.random.default_rng(opts.seed))
        source_bytes = gen.write_reprocoo(path, raw)
        fixture_s.append(time.time() - started)

    rows, problems, counts = {}, [], {}
    layer_classes: Dict[str, Dict[str, float]] = {}
    child_setup = wall = 0.0
    ops = failed = peak_kb = 0
    tracer = Tracer()
    for cls in CLASSES:
        spawned = time.time()
        rec = run_child(child_argv(opts, "--role", cls, "--path", path))
        child_setup += rec["measure_started_at"] - spawned
        bad = rec["failed"]
        problems += rec["problems"]
        for out_dir in rec["check_dirs"]:
            out = load_result(out_dir)
            found = oracle.check_result(
                out.format.name, out.dims, out.arrays, out.metadata, out.vals,
                raw.coords, raw.sorted_vals)
            del out
            if found:
                bad += 1
                problems += [f"{cls}: {p}" for p in found]
            shutil.rmtree(out_dir, ignore_errors=True)
        rows[cls] = class_row(rec["samples_ms"], bad,
                              impl=f"{rec['passes']} passes")
        wall += rec["wall_s"]
        ops += len(rec["samples_ms"])
        failed += bad
        peak_kb = max(peak_kb, rec["vm_hwm_kb"])
        for key, value in rec["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for metric, value in rec.get("layers", {}).items():
            layer_classes.setdefault(metric, {})[cls] = value
        for start, end in rec.get("spans", []):
            tracer.record("stream.convert_file", start, end, cls=cls)
    record = {
        # the children run one after another, so their set-ups add up
        "setup_s": [f + child_setup for f in fixture_s],
        "wall_s": wall, "ops": ops, "failed": failed,
        "problems": problems[:10], "peak_rss_kb": peak_kb,
        "classes": rows, "counts": counts,
    }
    if not opts.trace:
        return record
    summed = ("stream.passes", "stream.chunks", "stream.out_bytes")
    layers = {
        metric: (sum(per.values()) if metric in summed
                 else max(per.values()) if metric == "stream.rss_fraction"
                 else geomean(per.values()))
        for metric, per in layer_classes.items()
    }
    layers["trace.op_ms_p50"] = geomean(r["p50_ms"] for r in rows.values())
    record.update(layers=layers, layer_classes=layer_classes,
                  self_time_us=tracer.self_time_us())
    record["extra"] = {"source_bytes": source_bytes}
    tracer.dump(trace_path(opts.workload))
    return record


def child(args) -> None:
    from repro import ConversionEngine, Tensor, convert_file, load_result
    from repro.convert import plan_streamed
    from repro.formats import get_format
    from repro.io.stream import open_stream
    from repro.stream import source_format_for

    dst, path = args.role, args.path
    chunk = CHUNK_NNZ[args.quick]
    base = os.path.dirname(path)
    dirs = {k: os.path.join(base, f"{k}-{dst}") for k in ("first", "work", "last")}
    engine = ConversionEngine()
    layers = {}
    if args.trace:  # the first plan in the process is the one that costs
        layers["stream.plan_ms"] = time_reps(lambda: plan_streamed(
            source_format_for(2), get_format(dst)), 1)[0] * 1e3

    def op(out_dir: str):
        return convert_file(path, dst, out_dir, chunk_nnz=chunk,
                            engine=engine, overwrite=True)

    op(dirs["work"])  # warm-up: plan scheduled, page cache holds the source
    stats0 = engine.cache_stats()
    samples, spans, problems = [], [], []
    failed = 0
    result = None
    measure_started_at = time.time()
    clock = RoundClock(args.seconds / len(CLASSES))
    for index, final in clock:
        out_dir = dirs["last" if final else "work" if index else "first"]
        started = time.perf_counter()
        try:
            result = op(out_dir)
        except Exception as exc:  # counted, never fatal to the run
            failed += 1
            problems.append(f"{dst}: {type(exc).__name__}: {exc}")
        ended = time.perf_counter()
        samples.append((ended - started) * 1e3)
        spans.append((started, ended))
    wall = clock.wall
    peak_kb = vm_hwm_kb()
    stats1 = engine.cache_stats()
    record = {
        "measure_started_at": measure_started_at, "wall_s": wall,
        "samples_ms": samples, "failed": failed, "problems": problems,
        "vm_hwm_kb": peak_kb, "passes": result.passes if result else 0,
        "check_dirs": [d for d in (dirs["first"], dirs["last"])
                       if os.path.isdir(d)],
        "counts": {f"engine.{k}": stats1[k] - stats0[k] for k in ENGINE_COUNTERS},
    }
    if args.trace and result is not None:
        def read_all() -> None:
            for _ in open_stream(path, chunk_nnz=chunk).chunks():
                pass

        def in_memory() -> None:
            columns = [np.concatenate(parts) for parts in
                       zip(*open_stream(path, chunk_nnz=chunk).chunks())]
            tensor = Tensor(
                get_format("COO"), result.dims,
                {(0, "pos"): np.array([0, len(columns[2])], dtype=np.int64),
                 (0, "crd"): columns[0], (1, "crd"): columns[1]},
                {}, columns[2])
            engine.convert(tensor, dst)

        in_memory()
        layers.update({
            "stream.read_ms": median(time_reps(read_all, 3)) * 1e3,
            "stream.load_result_ms": median(time_reps(
                lambda: load_result(dirs["last"]), 10)) * 1e3,
            "stream.vs_inmemory_x": median(samples) / (
                median(time_reps(in_memory, 3)) * 1e3),
            "stream.rss_fraction": peak_kb * 1024 / result.source_bytes,
            "stream.passes": result.passes,
            "stream.chunks": result.chunks,
            "stream.out_bytes": sum(
                os.path.getsize(os.path.join(dirs["last"], name))
                for name in os.listdir(dirs["last"])),
        })
        record["layers"] = layers
        record["spans"] = spans
    shutil.rmtree(dirs["work"], ignore_errors=True)
    emit(record)
