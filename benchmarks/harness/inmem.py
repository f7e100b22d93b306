"""Child process of ``bulk_inmem`` and ``small_inmem``.

One fresh process: generate the inputs from the seed, build an own
``ConversionEngine()``, warm up, then run the measured phase — classes
interleaved round-robin, every operation on a ``Tensor`` wrapper the
engine has never seen (fresh wrapper over shared arrays, which is what a
user's call looks like and what defeats the per-tensor feature memo).

The traced run alternates untraced and traced rounds in the *same*
process: a traced operation replays ``convert()`` as its public steps
(``sample_features`` -> ``engine.plan`` -> ``engine.run_plan``) under
spans, so the unattributed remainder and the tracing overhead are
differences between neighbours, not between two runs.  After the phase
the inner calls and the fixed executors are timed standalone.
"""

from __future__ import annotations

import gc
import os
import time
import warnings
from typing import Callable, Dict, List, Optional

import numpy as np

import gen
import oracle
from common import (
    RoundClock, class_row, emit, geomean, measure_in_child, median, time_reps,
    trace_path, vm_hwm_kb,
)
from host import nproc
from metrics import ENGINE_COUNTERS
from spans import Tracer

#: Untimed rounds before the measured phase: kernels compiled, routes
#: cached, and the cost model past its K = 3 observations per kind.
WARMUP_ROUNDS = 5

#: (n, stride) of the stencils; ``quick`` shrinks everything ~100x.
SIZES = {
    False: {"bulk": (200_000, 447), "hash": (40_000, 200),
            "coo3": ((2000, 300, 300), 500_000)},
    True: {"bulk": (2_000, 44), "hash": (500, 22),
           "coo3": ((50, 30, 30), 5_000)},
}
SMALL = {236: (50, 6), 1166: (240, 16)}  # nnz -> (n, stride): 5n - 2 - 2m

parent = measure_in_child


class Case:
    """One class: an input, a destination (or ``"spmv"``), its oracle."""

    def __init__(self, name: str, raw: gen.Raw, dst: str) -> None:
        self.name = name
        self.raw = raw
        self.dst = dst


def build_cases(workload: str, rng, quick: bool) -> List[Case]:
    if workload == "small_inmem":
        cases = [Case("coo_csr_0", gen.empty_coo(50), "CSR")]
        for nnz, (n, m) in SMALL.items():
            coo, csr = gen.coo_matrix(n, m, rng), gen.csr_matrix(n, m, rng)
            cases += [
                Case(f"coo_csr_{nnz}", coo, "CSR"),
                Case(f"csr_csc_{nnz}", csr, "CSC"),
                Case(f"coo_dia_{nnz}", coo, "DIA"),
                Case(f"csr_ell_{nnz}", csr, "ELL"),
            ]
        cases.append(Case("hash_csr_236", gen.hash_matrix(*SMALL[236], rng), "CSR"))
        return cases
    sizes = SIZES[quick]
    n, m = sizes["bulk"]
    coo, csr = gen.coo_matrix(n, m, rng), gen.csr_matrix(n, m, rng)
    return [
        Case("coo_csr", coo, "CSR"),
        Case("coo_csr_unsorted", gen.coo_matrix(n, m, rng, shuffled=True), "CSR"),
        Case("csr_csc", csr, "CSC"),
        Case("coo_dia", coo, "DIA"),
        Case("csr_ell", csr, "ELL"),
        Case("csr_coo", csr, "COO"),
        Case("hash_csr", gen.hash_matrix(*sizes["hash"], rng), "CSR"),
        Case("coo3_csf", gen.coo3_tensor(*sizes["coo3"], rng), "CSF"),
        Case("coo_spmv_csr", coo, "spmv"),
    ]


def child(args) -> None:
    from repro import ConversionEngine, Tensor
    from repro.convert import (
        ConversionRequest, bridge_for, chunkable, converter_named,
        converters_for, resolve_backend, run_converter, sample_features,
    )
    from repro.convert.native import native_capable
    from repro.formats import get_format

    rng = np.random.default_rng(args.seed)
    cases = build_cases(args.workload, rng, args.quick)
    engine = ConversionEngine()
    formats = {c.name: get_format(c.raw.format) for c in cases}
    spmv_dims = [c.raw.dims for c in cases if c.dst == "spmv"]
    x = rng.uniform(0.5, 1.5, spmv_dims[0][1]) if spmv_dims else None

    def fresh(case: Case) -> "Tensor":
        raw = case.raw
        return Tensor(formats[case.name], raw.dims, raw.arrays, raw.meta, raw.vals)

    def make_plan(case: Case, t, feats):
        if case.dst == "spmv":
            return engine.plan_compute(t.format, "spmv", "CSR",
                                       nnz=t.nnz_stored, features=feats)
        return engine.plan(t.format, case.dst, nnz=t.nnz_stored, features=feats)

    def decide(case: Case, t):
        """The plan auto would run for ``t`` (public planning calls)."""
        return make_plan(case, t, sample_features(t))

    def run_plain(case: Case, t, op_id: int):
        """One untraced operation: the call a user makes."""
        if case.dst == "spmv":
            return t.spmv(x, via="CSR", engine=engine)
        return engine.convert(t, case.dst)

    def choice(plan) -> str:
        """The planned hop kinds/converters: what change detection compares."""
        return "+".join(
            hop.kind + (f":{hop.converter}" if hop.converter else "")
            for hop in plan.hops
        )

    def walk(plan, t):
        """Run ``plan``'s conversion hops on ``t`` the way the engine
        would, from public calls only; returns ``(seconds inside the hop
        executables alone, label of what actually executed)``.  An
        external hop whose predicate refuses the actual tensor runs the
        generated kernel instead — the engine's run-time recheck — so the
        label can differ from the plan's."""
        hops = getattr(plan, "conversion_hops", plan.hops)
        total, labels = 0.0, []
        for index, hop in enumerate(hops):
            kind, converter = hop.kind, None
            if kind == "external":
                converter = converter_named(hop.src, hop.dst, hop.converter)
                if not converter.admits(sample_features(t)):
                    converter = None
                    kind = resolve_backend(hop.src, hop.dst, plan.options, "auto")
            if kind == "bridge":
                run = bridge_for(hop.src)[1]
            elif converter is not None:
                run = lambda cur, c=converter, d=hop.dst: run_converter(c, cur, d)
                kind = f"external:{converter.name}"
            elif kind == "chunked":
                chunked = engine.make_chunked(hop.src, hop.dst, plan.options)
                pool = engine.worker_pool(plan.workers)
                run = lambda cur, c=chunked, p=pool: c(cur, p)
            else:
                conv = engine.make_converter(hop.src, hop.dst, plan.options, kind)
                arguments = conv.arguments(t)
                started = time.perf_counter()
                conv.func(*arguments)
                total += time.perf_counter() - started
                labels.append(kind)
                if index < len(hops) - 1:
                    t = conv(t)  # untimed: the next hop needs a Tensor
                continue
            started = time.perf_counter()
            nxt = run(t)
            total += time.perf_counter() - started
            labels.append(kind)
            t = nxt
        if hops is not plan.hops:
            labels.append(plan.terminal.kind)
        return total, "+".join(labels)

    tracer = Tracer()

    def run_traced(case: Case, t, op_id: int):
        """The same operation replayed as its public steps, under spans."""
        spmv = case.dst == "spmv"
        with tracer.span("convert", op=op_id, cls=case.name):
            with tracer.span("features.sample"):
                feats = sample_features(t)
            with tracer.span("compute.plan" if spmv else "engine.plan"):
                plan = make_plan(case, t, feats)
            with tracer.span("compute.run" if spmv else "engine.run_plan"):
                if spmv:
                    out = engine.run_compute_plan(plan, t, x=x)
                else:
                    out = engine.run_plan(plan, t)
        seen.setdefault(case.name, []).append(choice(plan))
        return out

    # test hook (test_harness.py): damage every checked result, so the
    # path oracle -> failed -> fail_share is itself shown to work
    corrupt = bool(os.environ.get("HARNESS_CORRUPT_RESULTS"))

    def verify(case: Case, out) -> List[str]:
        raw = case.raw
        if case.dst == "spmv":
            y = out + 1.0 if corrupt else out
            return oracle.check_spmv(y, raw.coords, raw.sorted_vals, x, raw.dims[0])
        vals = np.append(out.vals, 1.0) if corrupt else out.vals
        return oracle.check_result(out.format.name, out.dims, out.arrays,
                                   out.metadata, vals, raw.coords,
                                   raw.sorted_vals)

    # -- warm-up (part of set-up) ---------------------------------------
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(WARMUP_ROUNDS):
            for case in cases:
                run_plain(case, fresh(case), -1)
    if args.mode == "setup":
        emit({"measure_started_at": time.time()})
        return

    # -- the measured phase ---------------------------------------------
    seen: Dict[str, List[str]] = {}
    samples = {c.name: [] for c in cases}        # untraced ops, ms
    traced_samples = {c.name: [] for c in cases}  # traced ops, ms
    failed = {c.name: 0 for c in cases}
    problems: List[str] = []
    before = {c.name: choice(decide(c, fresh(c))) for c in cases}
    stats0 = engine.cache_stats()
    gc.collect()
    gc.freeze()  # the imported program is not garbage: keep collections cheap
    gc.disable()
    measure_started_at = time.time()
    clock = RoundClock(args.seconds * (0.5 if args.trace else 1.0))
    ops = 0
    last_gc = time.perf_counter()
    for index, final in clock:
        traced_round = bool(args.trace) and index % 2 == 1
        run_op = run_traced if traced_round else run_plain
        for case in cases:
            t = fresh(case)
            out = None
            started = time.perf_counter()
            try:
                out = run_op(case, t, ops)
                elapsed = time.perf_counter() - started
            except Exception as exc:  # counted, never fatal to the run
                elapsed = time.perf_counter() - started
                failed[case.name] += 1
                problems.append(f"{case.name}: {type(exc).__name__}: {exc}")
            ops += 1
            (traced_samples if traced_round else samples)[case.name].append(
                elapsed * 1e3)
            if (index == 0 or final) and out is not None:
                with clock.stopped():
                    found = verify(case, out)
                if found:
                    failed[case.name] += 1
                    problems.extend(f"{case.name}: {p}" for p in found)
            del out, t
        now = time.perf_counter()
        if now - last_gc > 0.5:  # between rounds only, never inside an op
            gc.collect()
            last_gc = now
    wall = clock.wall
    peak_kb = vm_hwm_kb()
    stats1 = engine.cache_stats()
    gc.enable()
    # what auto decided at the end of the phase, and what that executes;
    # taken before anything below can feed the engine's cost model
    plans = {c.name: decide(c, fresh(c)) for c in cases}
    executed = {c.name: walk(plans[c.name], fresh(c))[1] for c in cases}

    changes = sum(before[n] != choice(plans[n]) for n in before)
    for name, picks in seen.items():
        changes += sum(a != b for a, b in zip(picks, picks[1:]))
    classes = {}
    for case in cases:
        row = class_row(samples[case.name], failed[case.name],
                        impl=executed[case.name])
        row["nnz"] = case.raw.nnz
        classes[case.name] = row
    record = {
        "measure_started_at": measure_started_at,
        "wall_s": wall, "ops": ops, "rounds": clock.rounds,
        "failed": sum(failed.values()), "problems": problems[:10],
        "vm_hwm_kb": peak_kb, "classes": classes,
        "counts": {f"engine.{k}": stats1[k] - stats0[k] for k in ENGINE_COUNTERS},
        "choice_changes": changes,
    }
    if not args.trace:
        emit(record)
        return

    # -- traced run: per-class layer medians from the spans --------------
    layers: Dict[str, Dict[str, float]] = {}  # metric -> class -> value

    def put(metric: str, cls: str, value: float) -> None:
        layers.setdefault(metric, {})[cls] = value

    for case in cases:
        name, spmv = case.name, case.dst == "spmv"
        feats_us = median(tracer.durations_us("features.sample", name))
        plan_us = median(tracer.durations_us(
            "compute.plan" if spmv else "engine.plan", name))
        run_us = median(tracer.durations_us(
            "compute.run" if spmv else "engine.run_plan", name))
        put("features.sample_us", name, feats_us)
        put("compute.plan_us" if spmv else "engine.plan_us", name, plan_us)
        put("compute.run_us" if spmv else "engine.run_plan_us", name, run_us)
        untraced_us = classes[name]["p50_ms"] * 1e3
        put("convert.unattributed_us", name,
            untraced_us - feats_us - plan_us - run_us)
        classes[name]["traced_p50_ms"] = median(traced_samples[name])

    # -- second pass: the inner calls, standalone ------------------------
    reps = 5 if args.workload == "bulk_inmem" and not args.quick else 30
    workers = max(2, nproc())
    # the fixed executors run on an engine of their own: their timings
    # must not teach the measured engine's cost model new rates
    trial = ConversionEngine()

    def p50_us(fn: Callable, n: int = reps) -> float:
        fn()  # one untimed call: compiled, bound and cached before the clock
        return median(time_reps(fn, n)) * 1e6

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for case in cases:
            name, plan = case.name, plans[case.name]
            t = fresh(case)
            feats = sample_features(t)
            if case.dst == "spmv":
                fused = p50_us(lambda: fresh(case).spmv(
                    x, via="CSR", fuse=True, engine=trial))
                materialized = p50_us(lambda: fresh(case).spmv(
                    x, via="CSR", fuse=False, engine=trial))
                put("compute.fused_vs_materialized_x", name, fused / materialized)
                continue
            src, dst = t.format, get_format(case.dst)
            put("request.build_us", name, p50_us(lambda: ConversionRequest.build(
                src, dst, nnz=t.nnz_stored, features=feats,
                default_options=engine.options, default_backend=engine.backend),
                max(reps, 30)))
            put("router.route_hot_us", name, p50_us(lambda: engine.route(
                src, dst, nnz=t.nnz_stored, features=feats), max(reps, 30)))
            put("engine.obtain_hot_us", name, p50_us(plan.compile, max(reps, 30)))
            # the first walk is the untimed settling call
            kernel_us = median(
                [walk(plan, fresh(case))[0] for _ in range(reps + 1)][1:]) * 1e6
            put("kernel.exec_us", name, kernel_us)
            put("engine.hop_overhead_us", name,
                layers["engine.run_plan_us"][name] - kernel_us)
            put("convert.overhead_share", name,
                1.0 - kernel_us / max(classes[name]["p50_ms"] * 1e3, 1e-9))
            out = plan.run(fresh(case))
            put("tensor.build_us", name, p50_us(lambda: Tensor(
                out.format, out.dims, out.arrays, out.metadata, out.vals),
                max(reps, 30)))
            del out

            # -- executors on trial: a direct plan per executor, made once;
            #    the cell is run_plan alone (no feature sampling, no planning)
            def pinned(backend: str, parallel: Optional[int]) -> float:
                direct = trial.plan(src, dst, backend=backend, route="direct",
                                    parallel=parallel, nnz=t.nnz_stored,
                                    features=feats)
                return p50_us(lambda: trial.run_plan(direct, fresh(case))) / 1e3

            if args.workload == "small_inmem":
                put("kernel.scalar_ms", name, pinned("scalar", None))
                continue
            cells = {}
            if resolve_backend(src, dst, trial.options, "vector") == "vector":
                cells["kernel.vector_ms"] = pinned("vector", None)
            if trial.toolchain() is not None and native_capable(src, dst):
                cells["kernel.native_ms"] = pinned("native", None)
                cells["kernel.native_omp_ms"] = pinned("native", workers)
            if chunkable(src, dst, trial.options):
                cells["kernel.chunked_ms"] = pinned("vector", workers)
            for conv in converters_for(src, dst):
                if conv.admits(feats):
                    cells["kernel.external_ms"] = p50_us(
                        lambda c=conv: run_converter(c, fresh(case), dst)) / 1e3
            for metric, value in cells.items():
                put(metric, name, value)
            if cells:
                put("router.auto_vs_best_x", name,
                    classes[name]["p50_ms"] / min(cells.values()))
            reference = _scipy_reference(case)
            if reference is not None:
                put("kernel.scipy_ref_ms", name, p50_us(reference) / 1e3)
    trial.shutdown()

    # differences and shares: median over classes; times: geomean
    by_median = {"engine.hop_overhead_us", "convert.unattributed_us",
                 "convert.overhead_share"}
    record["layers"] = {
        metric: (median(list(per_class.values())) if metric in by_median
                 else geomean(per_class.values()))
        for metric, per_class in layers.items()
    }
    record["layers"]["router.choice_changes"] = changes
    record["layers"]["trace.op_ms_p50"] = geomean(
        median(v) for v in traced_samples.values() if v)
    record["layer_classes"] = layers
    record["self_time_us"] = tracer.self_time_us()
    if args.workload == "bulk_inmem":
        record["skipped"] = _skipped_cells(engine)
    tracer.dump(trace_path(args.workload))
    emit(record)


def _scipy_reference(case: Case) -> Optional[Callable]:
    """scipy's own public conversion for the class, on a matrix built
    outside the timed region — the outside yardstick the paper uses."""
    if not oracle.scipy_available() or len(case.raw.dims) != 2:
        return None
    import scipy.sparse as sparse

    raw = case.raw
    if raw.format == "COO":
        matrix = sparse.coo_matrix(
            (raw.vals, (raw.arrays[(0, "crd")], raw.arrays[(1, "crd")])),
            shape=raw.dims)
    elif raw.format == "CSR":
        matrix = sparse.csr_matrix(
            (raw.vals, raw.arrays[(1, "crd")], raw.arrays[(1, "pos")]),
            shape=raw.dims)
    else:
        return None
    method = {"CSR": "tocsr", "CSC": "tocsc", "DIA": "todia", "COO": "tocoo"}
    name = method.get(case.dst)
    if name is None or raw.format == case.dst:
        return None
    return getattr(matrix, name)


def _skipped_cells(engine) -> Dict[str, str]:
    skipped = {}
    if engine.toolchain() is None:
        skipped["kernel.native_ms"] = skipped["kernel.native_omp_ms"] = (
            "no working C compiler")
    if not oracle.scipy_available():
        skipped["kernel.external_ms"] = skipped["kernel.scipy_ref_ms"] = (
            "scipy is not installed")
    return skipped
