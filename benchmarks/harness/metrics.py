"""The names this benchmark defines: workloads, end-to-end and per-layer
metrics.  ``BENCHMARK.json``, the README tables, ``check-repeat`` and the
schema test are all derived from (or checked against) these tables, so a
name exists in exactly one place.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS: Dict[str, str] = {
    "bulk_inmem": (
        "~1M-nnz engine.convert()/Tensor.spmv() from fresh Tensors: kernel "
        "execution is >=90% of an op, so kernel, executor and routing changes "
        "show and Python-overhead changes do not"
    ),
    "small_inmem": (
        "0/236/1166-nnz conversions: the fixed-overhead floor (request, "
        "features, router, plan/run_plan, Tensor) a service doing many small "
        "conversions lives on; the kernel is a minority of the op"
    ),
    "cold_start": (
        "fresh interpreter imports repro and converts one tiny tensor through "
        "four pairs: imports, codegen, cc and the kernel store's miss/disk "
        "paths do all the work, the kernels none"
    ),
    "serve_http": (
        "a closed-loop keep-alive client POSTs /convert, each payload once as "
        "a data-cache miss and once as a hit: wire, digest and the HTTP stack "
        "dominate, the kernel is <=10%"
    ),
    "stream_file": (
        "convert_file() of a 4M-nnz REPROCOO file to COO/CSR/DIA/ELL: the "
        "vector kernels bulk_inmem runs serially, re-sectioned out of core; "
        "peak RSS is the out-of-core contract"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Reported for every workload.  ``fail_share`` is part of every record
#: but not of ``BENCHMARK.json`` (it is 0 on a healthy tree, a value the
#: driver's contract excludes; the driver reads ``attempted``/``failed``
#: from the result line instead).
#:
#: The two timing bounds are 15 %, not the 10 % the issue proposed: ten
#: identical runs on the 2-core reference VM spread (quartile distance /
#: median) by 2-4 % in a quiet window and 7.6 % in a noisy one, and the
#: median itself drifted 9 % inside one window (serve_http, 7.8 -> 7.1
#: ms).  A bound has to sit above the noise it is read through.
END_TO_END: List[EndToEnd] = [
    EndToEnd("op_ms_p50", "ms", "lower", 0.15,
             "geometric mean over the workload's classes of each class's "
             "median wall time per operation"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.15,
             "operations completed / wall time of the measured phase "
             "(closed loop)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "VmHWM of the workload's child process at the end of the "
             "measured phase (max over children)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "input generation + process/server start + warm-up, up to the "
             "start of the measured phase (median of three set-ups)"),
]
FAIL_SHARE = EndToEnd(
    "fail_share", "fraction", "lower", 0.0,
    "operations that raised, timed out, answered wrongly or failed the "
    "oracle / operations attempted")


#: ``engine.cache_stats()`` keys whose delta over the measured phase every
#: workload reports as ``engine.<key>``, with the direction that is better
ENGINE_COUNTERS: Dict[str, str] = {
    "compiles": "lower", "hits": "higher", "misses": "lower",
    "kernel_hits": "higher", "conversions": "higher",
    "routed_conversions": "higher", "parallel_conversions": "higher",
    "disk_hits": "higher", "disk_writes": "lower", "native_compiles": "lower",
    "native_disk_hits": "higher",
}


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: 'time' | 'count' (scales with ops: compared per op) | 'gauge'
    kind: str
    #: workloads whose traced run measures it (0 elsewhere)
    workloads: Tuple[str, ...]
    #: the end-to-end metric / workload it is predicted to move
    moves: str
    definition: str


INMEM = ("bulk_inmem", "small_inmem")
BULK = ("bulk_inmem",)
SMALL = ("small_inmem",)
COLD = ("cold_start",)
SERVE = ("serve_http",)
STREAM = ("stream_file",)
ALL = tuple(WORKLOADS)

_SMALL_E2E = "op_ms_p50, ops_per_s on small_inmem"
_BULK_E2E = "op_ms_p50, ops_per_s on bulk_inmem"
_COLD_E2E = "op_ms_p50 on cold_start"
_SERVE_E2E = "op_ms_p50, ops_per_s on serve_http"
_STREAM_E2E = "op_ms_p50, peak_rss_mb on stream_file"

PER_LAYER: List[Layer] = [
    # -- the in-memory path: convert() replayed as its public steps -----
    Layer("features.sample_us", "us", "lower", "time", INMEM,
          "op_ms_p50 on both in-memory workloads",
          "sample_features(t) on a fresh wrapper (O(nnz))"),
    Layer("request.build_us", "us", "lower", "time", INMEM, _SMALL_E2E,
          "ConversionRequest.build(...)"),
    Layer("router.route_hot_us", "us", "lower", "time", INMEM, _SMALL_E2E,
          "engine.route(...) on a cached route"),
    Layer("engine.plan_us", "us", "lower", "time", INMEM, _SMALL_E2E,
          "engine.plan(src, dst, nnz=, features=)"),
    Layer("engine.obtain_hot_us", "us", "lower", "time", INMEM, _SMALL_E2E,
          "plan.compile(): every hop's converter from the hot cache"),
    Layer("engine.run_plan_us", "us", "lower", "time", INMEM, _SMALL_E2E,
          "engine.run_plan(plan, t)"),
    Layer("kernel.exec_us", "us", "lower", "time", INMEM,
          _BULK_E2E + ", peak_rss_mb there",
          "conv.func(*conv.arguments(t)) / run_converter / the bridge "
          "callable, summed over the plan's hops"),
    Layer("engine.hop_overhead_us", "us", "lower", "time", INMEM, _SMALL_E2E,
          "run_plan - kernel.exec: result build, CostModel.observe, "
          "observers, counters (median over classes)"),
    Layer("tensor.build_us", "us", "lower", "time", INMEM, _SMALL_E2E,
          "Tensor(...) over a result's raw arrays"),
    Layer("convert.unattributed_us", "us", "lower", "time", INMEM, _SMALL_E2E,
          "untraced convert p50 - features - plan - run_plan (median over "
          "classes; tracing overhead + unknown)"),
    Layer("convert.overhead_share", "fraction", "lower", "gauge", INMEM,
          _SMALL_E2E, "1 - kernel.exec / convert (median over classes)"),
    # -- executors on trial: one direct plan each, the cell is run_plan ---
    Layer("kernel.vector_ms", "ms", "lower", "time", BULK, _BULK_E2E,
          "run_plan of plan(backend='vector', route='direct', parallel=None)"),
    Layer("kernel.native_ms", "ms", "lower", "time", BULK, _BULK_E2E,
          "run_plan of plan(backend='native', route='direct'), workers 0"),
    Layer("kernel.native_omp_ms", "ms", "lower", "time", BULK, _BULK_E2E,
          "run_plan of plan(backend='native', route='direct', parallel=nproc)"),
    Layer("kernel.chunked_ms", "ms", "lower", "time", BULK, _BULK_E2E,
          "run_plan of plan(backend='vector', route='direct', parallel=nproc)"),
    Layer("kernel.external_ms", "ms", "lower", "time", BULK, _BULK_E2E,
          "run_converter(registered scipy delegate)"),
    Layer("kernel.scipy_ref_ms", "ms", "lower", "time", BULK, "(yardstick)",
          "scipy's own public tocsr/tocsc/todia/tocoo on a prebuilt matrix"),
    Layer("kernel.scalar_ms", "ms", "lower", "time", SMALL, "(reference)",
          "run_plan of plan(backend='scalar', route='direct')"),
    Layer("router.auto_vs_best_x", "x", "lower", "gauge", BULK, _BULK_E2E,
          "auto p50 / best fixed executor cell, geomean over classes"),
    Layer("router.choice_changes", "count", "lower", "gauge", INMEM,
          "op_ms_p50 on bulk_inmem (must be 0 for a stable run)",
          "times a class's executed hop kinds/converter changed during "
          "the measured phase"),
    # -- compute ---------------------------------------------------------
    Layer("compute.plan_us", "us", "lower", "time", BULK, _BULK_E2E,
          "engine.plan_compute(COO, 'spmv', CSR, ...)"),
    Layer("compute.run_us", "us", "lower", "time", BULK, _BULK_E2E,
          "engine.run_compute_plan(plan, t, x=x)"),
    Layer("compute.fused_vs_materialized_x", "x", "lower", "gauge", BULK,
          _BULK_E2E, "spmv(fuse=True) p50 / spmv(fuse=False) p50"),
    # -- engine counters: delta of cache_stats() over the measured phase -
    *[
        Layer(f"engine.{name}", "count", better, "count", ALL,
              "(expected: 0 compiles in the measured phase in-process; "
              "exact per class in cold_start)",
              f"delta of engine.cache_stats()['{name}']")
        for name, better in ENGINE_COUNTERS.items()
    ],
    # -- cold_start: reported by the child around its own calls ----------
    Layer("proc.spawn_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "parent wall - child's own total: fork/exec + interpreter start"),
    Layer("import.numpy_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "import numpy"),
    Layer("import.repro_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "import repro (numpy already imported)"),
    Layer("engine.init_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "ConversionEngine(...)"),
    Layer("engine.toolchain_probe_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "first engine.toolchain() in the process"),
    Layer("engine.first_plan_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "first engine.plan(COO, CSR, nnz=, features=)"),
    Layer("engine.obtain_codegen_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "make_converter(backend='vector') misses, four pairs (auto_cold)"),
    Layer("engine.obtain_scalar_codegen_ms", "ms", "lower", "time", COLD,
          _COLD_E2E,
          "make_converter(backend='scalar') misses, four pairs (auto_cold)"),
    Layer("engine.obtain_cc_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "make_converter(backend='native') misses incl. cc, four pairs "
          "(native_cold)"),
    Layer("engine.obtain_disk_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "make_converter(backend='vector') from a warm cache_dir, four "
          "pairs (auto_disk)"),
    Layer("engine.obtain_native_disk_ms", "ms", "lower", "time", COLD,
          _COLD_E2E,
          "make_converter(backend='native') from a warm cache_dir, four "
          "pairs (native_disk)"),
    Layer("engine.first_convert_ms", "ms", "lower", "time", COLD, _COLD_E2E,
          "first engine.convert() of the untraced child (probe + plan + "
          "obtain + kernel)"),
    Layer("codegen.source_bytes", "bytes", "lower", "gauge", COLD, _COLD_E2E,
          "sum of len(source) over the four pairs, vector + native"),
    Layer("codegen.deterministic", "bool", "higher", "gauge", COLD,
          "(must be 1)",
          "1 when every child's generated-source sha256 agrees per backend"),
    # -- serve_http ------------------------------------------------------
    Layer("tensor.digest_us", "us", "lower", "time", SERVE, _SERVE_E2E,
          "Tensor.content_digest() on a fresh wrapper"),
    Layer("wire.decode_ms", "ms", "lower", "time", SERVE, _SERVE_E2E,
          "json.loads(body) + tensor_from_wire"),
    Layer("wire.encode_ms", "ms", "lower", "time", SERVE, _SERVE_E2E,
          "tensor_to_wire + json.dumps"),
    Layer("datacache.get_us", "us", "lower", "time", SERVE, _SERVE_E2E,
          "service.cache.get(digest, fmt) hit"),
    Layer("datacache.put_us", "us", "lower", "time", SERVE, _SERVE_E2E,
          "service.cache.put(digest, fmt, tensor) refresh"),
    Layer("service.submit_hit_ms", "ms", "lower", "time", SERVE, _SERVE_E2E,
          "server.call(service.submit(...)) answered from the data cache"),
    Layer("service.submit_miss_ms", "ms", "lower", "time", SERVE, _SERVE_E2E,
          "server.call(service.submit(...)) running the full plan"),
    Layer("http.healthz_ms", "ms", "lower", "time", SERVE, _SERVE_E2E,
          "GET /healthz on a keep-alive connection"),
    Layer("http.overhead_ms", "ms", "lower", "time", SERVE, _SERVE_E2E,
          "HTTP op - decode - submit - encode (median over classes)"),
    Layer("serve.concurrency_x", "x", "higher", "gauge", SERVE, _SERVE_E2E,
          "ops_per_s with 2 clients / with 1"),
    *[
        Layer(name, "count", better, kind, SERVE, _SERVE_E2E,
              f"delta of service.snapshot() {source}")
        for name, better, kind, source in [
            ("service.data_hits", "higher", "count", "counters.data_hits"),
            ("service.full_conversions", "lower", "count",
             "counters.full_conversions"),
            ("service.coalesced", "higher", "count", "counters.coalesced"),
            ("service.errors", "lower", "count", "counters.errors"),
            ("service.quota_rejections", "lower", "count",
             "counters.quota_rejections"),
            ("datacache.evictions", "lower", "count", "data_cache.evictions"),
        ]
    ],
    Layer("datacache.bytes", "bytes", "lower", "gauge", SERVE, _SERVE_E2E,
          "service.snapshot() data_cache.bytes at the end of the phase"),
    # -- stream_file -----------------------------------------------------
    Layer("stream.read_ms", "ms", "lower", "time", STREAM, _STREAM_E2E,
          "open_stream(...).chunks() full pass, no conversion"),
    Layer("stream.plan_ms", "ms", "lower", "time", STREAM, _STREAM_E2E,
          "first plan_streamed(src, dst) in the process"),
    Layer("stream.load_result_ms", "ms", "lower", "time", STREAM, _STREAM_E2E,
          "load_result(out_dir)"),
    Layer("stream.vs_inmemory_x", "x", "lower", "gauge", STREAM, _STREAM_E2E,
          "convert_file p50 / (read file to a Tensor + engine.convert)"),
    Layer("stream.rss_fraction", "fraction", "lower", "gauge", STREAM,
          "peak_rss_mb on stream_file", "peak RSS / materialized source bytes"),
    Layer("stream.passes", "count", "lower", "gauge", STREAM, _STREAM_E2E,
          "passes over the source per conversion, summed over classes"),
    Layer("stream.chunks", "count", "lower", "gauge", STREAM, _STREAM_E2E,
          "chunks processed per conversion, summed over classes"),
    Layer("stream.out_bytes", "bytes", "lower", "gauge", STREAM, _STREAM_E2E,
          "bytes of the result directories, summed over classes"),
    # -- every workload ---------------------------------------------------
    Layer("tail.op_ms_p90", "ms", "lower", "time", ALL, "(ungated)",
          "geomean over classes of each class's p90 wall time per op"),
    Layer("trace.op_ms_p50", "ms", "lower", "time", ALL, "(ungated)",
          "op_ms_p50 of the traced operations; minus the untraced "
          "op_ms_p50 it is the tracing overhead"),
]

PER_LAYER_NAMES = [layer.name for layer in PER_LAYER]


def per_layer_record(workload: str, measured: Dict[str, float]) -> Dict:
    """Every per-layer metric with its unit; layers this workload does
    not exercise read 0 (the driver wants every name on every run)."""
    unknown = set(measured) - set(PER_LAYER_NAMES)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        layer.name: {"value": float(measured.get(layer.name, 0.0)),
                     "unit": layer.unit}
        for layer in PER_LAYER
    }
