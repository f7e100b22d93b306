"""Tests for the ConversionEngine: caching, LRU bounds, thread safety,
policy, telemetry and the stable module-level shims."""

import warnings
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.convert import (
    ConversionEngine,
    PlanOptions,
    convert,
    default_engine,
    make_converter,
)
from repro.formats import BCSR, COO, CSC, CSR, DIA, ELL, HASH, make_format
from repro.ir.native import detect_toolchain
from repro.levels.compressed import CompressedLevel
from repro.levels.dense import DenseLevel
from repro.storage.build import reference_build

from ..support import (
    count_exact_passes,
    count_feature_samples,
    sorted_only_converter,
)


HAVE_CC = detect_toolchain() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")


def small_coo():
    return reference_build(COO, (4, 5), [(0, 1), (2, 3), (3, 0)], [1.0, 2.0, 3.0])


# ----------------------------------------------------------------------
# basic semantics


def test_engine_convert_accepts_spec_strings():
    engine = ConversionEngine()
    out = engine.convert(small_coo(), "CSR")
    assert out.format is CSR
    assert out.to_coo() == small_coo().to_coo()


def test_engine_make_converter_accepts_spec_strings():
    engine = ConversionEngine()
    converter = engine.make_converter("COO", "CSR")
    assert converter.src_format is COO and converter.dst_format is CSR
    assert "def convert_COO_to_CSR" in converter.source


def test_engine_default_options_and_backend_policy():
    engine = ConversionEngine(
        options=PlanOptions(force_unsequenced_edges=True), backend="scalar"
    )
    converter = engine.make_converter(COO, CSR)
    assert converter.backend == "scalar"
    assert "prefix_sum" in converter.source  # unsequenced edges honoured


def test_generated_source_defaults_to_scalar():
    engine = ConversionEngine()
    assert "for " in engine.generated_source(COO, CSR)


def test_invalid_capacity_and_backend_rejected():
    with pytest.raises(ValueError):
        ConversionEngine(capacity=0)
    with pytest.raises(Exception):
        ConversionEngine(backend="simd")


def test_unknown_route_mode_rejected():
    engine = ConversionEngine()
    with pytest.raises(ValueError):
        engine.convert(small_coo(), CSR, route="scenic")


# ----------------------------------------------------------------------
# cache behaviour and telemetry


def test_cache_stats_are_exact():
    engine = ConversionEngine(capacity=8)
    engine.make_converter(COO, CSR)  # miss + compile
    engine.make_converter(COO, CSR)  # converter hit
    engine.make_converter(COO, CSC)  # miss + compile
    stats = engine.cache_stats()
    assert stats["requests"] == 3
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert stats["compiles"] == 2
    assert stats["kernel_hits"] == 0
    assert stats["evictions"] == 0
    assert stats["size"] == 2
    assert stats["capacity"] == 8
    assert stats["compile_seconds"] > 0.0


def test_structural_twins_share_kernels():
    engine = ConversionEngine()
    twin = make_format(
        "CSRTWIN_ENGINE",
        "(i,j) -> (i, j)",
        [DenseLevel(), CompressedLevel(ordered=False)],
        inverse_text="(i,j) -> (i, j)",
    )
    engine.make_converter(COO, CSR)
    converter = engine.make_converter(COO, twin)
    stats = engine.cache_stats()
    assert stats["compiles"] == 1  # kernel shared structurally
    assert stats["kernel_hits"] == 1
    assert converter.dst_format is twin  # but the converter knows its format


def test_lru_eviction_evicts_and_recompiles():
    engine = ConversionEngine(capacity=2)
    engine.make_converter(COO, CSR)
    engine.make_converter(COO, CSC)
    engine.make_converter(COO, DIA)  # evicts COO->CSR
    stats = engine.cache_stats()
    assert stats["compiles"] == 3
    assert stats["evictions"] == 1
    assert stats["size"] == 2
    engine.make_converter(COO, CSR)  # gone: must recompile
    stats = engine.cache_stats()
    assert stats["compiles"] == 4
    assert stats["evictions"] == 2


def test_lru_order_is_recency_not_insertion():
    engine = ConversionEngine(capacity=2)
    engine.make_converter(COO, CSR)
    engine.make_converter(COO, CSC)
    engine.make_converter(COO, CSR)  # refresh CSR
    engine.make_converter(COO, DIA)  # evicts CSC, not CSR
    engine.make_converter(COO, CSR)
    assert engine.cache_stats()["compiles"] == 3  # CSR never recompiled


def test_evicted_converters_still_work_and_results_stay_correct():
    engine = ConversionEngine(capacity=1)
    tensor = small_coo()
    first = engine.make_converter(COO, CSR)
    engine.make_converter(COO, CSC)  # evicts the CSR kernel
    assert first(tensor).to_coo() == tensor.to_coo()  # object keeps working
    again = engine.convert(tensor, CSR)  # recompiled transparently
    assert again.to_coo() == tensor.to_coo()


def test_clear_cache_forces_recompile():
    engine = ConversionEngine()
    engine.make_converter(COO, CSR)
    engine.clear_cache()
    assert engine.cache_stats()["size"] == 0
    engine.make_converter(COO, CSR)
    assert engine.cache_stats()["compiles"] == 2


def test_pair_counts():
    engine = ConversionEngine()
    tensor = small_coo()
    engine.convert(tensor, CSR)
    engine.convert(tensor, CSR)
    engine.convert(tensor, CSC)
    assert engine.pair_counts() == {("COO", "CSR"): 2, ("COO", "CSC"): 1}
    assert engine.cache_stats()["conversions"] == 3


def test_warmup_precompiles():
    engine = ConversionEngine()
    assert engine.warmup([("COO", "CSR"), (COO, ELL)]) == 2
    compiled = engine.cache_stats()["compiles"]
    assert compiled >= 2
    engine.convert(small_coo(), CSR)
    assert engine.cache_stats()["compiles"] == compiled  # no compile at use


def test_warmup_accepts_format_spec_strings():
    eng = ConversionEngine()
    assert eng.warmup([("COO", "CSR"), ("BCSR8x8", "CSR"), ("HASH", "csr")]) == 3
    assert eng.cache_stats()["compiles"] > 0
    with pytest.raises(Exception):
        eng.warmup([("COO", "NO_SUCH_FORMAT")])


def test_warmup_compiles_route_hops():
    engine = ConversionEngine()
    engine.warmup([("HASH", "CSR")])
    compiled = engine.cache_stats()["compiles"]
    # the route's one hop HASH->CSR (vector, or native once warmup built
    # it) was compiled during warmup
    engine.plan("HASH", "CSR").compile()
    assert engine.cache_stats()["compiles"] == compiled


def test_pinned_requests_sample_no_features(monkeypatch):
    """Features only price candidates under the auto policies: with a
    filtered converter out of COO, a pinned backend (given or the engine
    default) or route="direct" samples nothing, an auto conversion
    samples once."""
    calls = count_feature_samples(monkeypatch)
    engine = ConversionEngine()
    tensor = small_coo()
    with sorted_only_converter():
        for knobs in ({"backend": "scalar"}, {"backend": "vector"},
                      {"route": "direct"}):
            engine.convert(tensor, DIA, **knobs)
        ConversionEngine(backend="scalar").convert(tensor, DIA)
        assert engine.features_for(tensor, "vector") is None
        assert calls == []
        engine.convert(tensor, DIA)
    assert len(calls) == 1


def test_builtins_alone_sample_no_features_and_take_no_exact_pass(
    monkeypatch,
):
    """No builtin converter has a filter, so an auto conversion out of
    COO samples no features and takes no exact pass, at any size; a
    filtered converter out of COO turns the sample back on for that
    source only, and unregistering it turns it off again."""
    samples = count_feature_samples(monkeypatch)
    passes = count_exact_passes(monkeypatch)
    engine = ConversionEngine()
    rows = np.repeat(np.arange(500, dtype=np.int64), 20)
    cols = np.tile(np.arange(20, dtype=np.int64), 500)
    bulk = repro.Tensor(
        COO, (500, 20),
        {(0, "pos"): np.array([0, len(rows)]), (0, "crd"): rows,
         (1, "crd"): cols}, {}, np.ones(len(rows)),
    )
    for tensor in (small_coo(), bulk):
        for dst in (CSR, DIA):
            engine.convert(tensor, dst)
    assert samples == [] and passes == []
    csr = engine.convert(bulk, CSR)
    with sorted_only_converter():
        assert engine.features_for(csr) is None
        assert engine.features_for(bulk) is not None
    assert engine.features_for(bulk) is None


def test_pinned_requests_take_no_exact_pass(monkeypatch):
    """Pinned backends and route="direct" run generated hops only, so
    neither the planning sample nor the execution-time exact check
    runs, even for a pair with a filtered converter."""
    samples = count_feature_samples(monkeypatch)
    passes = count_exact_passes(monkeypatch)
    engine = ConversionEngine()
    rows = np.repeat(np.arange(500, dtype=np.int64), 20)
    cols = np.tile(np.arange(20, dtype=np.int64), 500)
    tensor = repro.Tensor(
        COO, (500, 20),
        {(0, "pos"): np.array([0, len(rows)]), (0, "crd"): rows,
         (1, "crd"): cols}, {}, np.ones(len(rows)),
    )
    for knobs in ({"backend": "scalar"}, {"backend": "vector"},
                  {"route": "direct"}):
        engine.convert(tensor, CSR, **knobs)
    assert samples == [] and passes == []


# ----------------------------------------------------------------------
# thread safety


def test_concurrent_converts_never_double_compile():
    engine = ConversionEngine()
    tensor = small_coo()
    want = tensor.to_coo()
    barrier = threading.Barrier(8)
    errors = []

    def hammer():
        barrier.wait()
        for _ in range(25):
            out = engine.convert(tensor, CSR, route="direct")
            if out.to_coo() != want:
                errors.append("wrong result")

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: hammer(), range(8)))

    assert not errors
    stats = engine.cache_stats()
    assert stats["compiles"] == 1  # never double-compiled
    assert stats["requests"] == 8 * 25
    # several threads may converter-miss before the first insert, but
    # every request is accounted for and the kernel compiled only once
    assert stats["hits"] + stats["misses"] == 8 * 25
    assert 1 <= stats["misses"] <= 8
    assert stats["conversions"] == 8 * 25
    assert stats["size"] == 1 and stats["converter_size"] == 1


def test_cache_hits_do_not_wait_behind_a_compile(monkeypatch):
    """Compilation happens outside the engine lock: a hit for an already
    cached pair returns promptly while another pair is mid-compile."""
    import sys
    import time as time_mod

    engine_mod = sys.modules["repro.convert.engine"]

    engine = ConversionEngine()
    engine.make_converter(COO, CSR)  # cached ahead of the stall
    release = threading.Event()
    in_compile = threading.Event()
    real_plan = engine_mod.plan_conversion

    def slow_plan(*args, **kwargs):
        in_compile.set()
        release.wait(timeout=10)
        return real_plan(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "plan_conversion", slow_plan)
    worker = threading.Thread(target=lambda: engine.make_converter(COO, CSC))
    worker.start()
    try:
        assert in_compile.wait(timeout=10)  # CSC compile is now stalled
        start = time_mod.perf_counter()
        engine.make_converter(COO, CSR)  # must not queue behind it
        hit_seconds = time_mod.perf_counter() - start
    finally:
        release.set()
        worker.join()
    assert hit_seconds < 1.0, hit_seconds
    assert engine.cache_stats()["compiles"] == 2


def test_concurrent_distinct_pairs_fill_cache_consistently():
    engine = ConversionEngine()
    targets = [CSR, CSC, DIA, ELL, BCSR(2, 2)]
    tensor = small_coo()

    def work(dst):
        for _ in range(10):
            engine.convert(tensor, dst, route="direct")

    with ThreadPoolExecutor(max_workers=5) as pool:
        list(pool.map(work, targets))

    stats = engine.cache_stats()
    assert stats["compiles"] == len(targets)
    assert stats["requests"] == 50
    assert stats["misses"] == len(targets)


# ----------------------------------------------------------------------
# the stable module-level shims


def test_module_shims_delegate_to_default_engine():
    tensor = small_coo()
    before = default_engine().cache_stats()["conversions"]
    out = convert(tensor, "CSR")
    assert out.format is CSR
    assert default_engine().cache_stats()["conversions"] == before + 1
    assert make_converter("COO", "CSR") is default_engine().make_converter(COO, CSR)


def test_top_level_exports():
    assert repro.ConversionEngine is ConversionEngine
    assert isinstance(repro.default_engine(), ConversionEngine)


def test_shim_results_match_engine_results():
    tensor = small_coo()
    mine = ConversionEngine()
    a = convert(tensor, DIA)
    b = mine.convert(tensor, DIA)
    assert a.format is b.format is DIA
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key])
    assert np.array_equal(a.vals, b.vals)
    assert a.metadata == b.metadata


def test_failed_route_validation_leaves_counters_untouched():
    engine = ConversionEngine()
    tensor = small_coo()
    with pytest.raises(ValueError):
        engine.convert(tensor, CSR, route="scenic")
    stats = engine.cache_stats()
    assert stats["conversions"] == 0
    assert engine.pair_counts() == {}


# ----------------------------------------------------------------------
# the persistent (on-disk) kernel cache: native kernels only


def test_engine_without_cache_dir_reports_zero_disk_stats():
    engine = ConversionEngine()
    engine.make_converter(COO, CSR)
    stats = engine.cache_stats()
    assert stats["disk_hits"] == 0 and stats["disk_writes"] == 0


def test_python_kernels_are_not_persisted(tmp_path):
    """cache_dir persists native kernels only: a Python kernel costs
    about as much to regenerate as to read back, so it leaves no record
    and a second engine on the same directory simply compiles it."""
    cache = tmp_path / "kernels"
    for _ in range(2):
        engine = ConversionEngine(cache_dir=str(cache))
        engine.make_converter(COO, CSR, backend="vector")
        engine.make_converter(COO, CSR, backend="scalar")
        stats = engine.cache_stats()
        assert stats["compiles"] == 2
        assert stats["disk_hits"] == 0 and stats["disk_writes"] == 0
    assert list(cache.iterdir()) == []


@needs_cc
def test_disk_cache_writes_then_serves_a_warm_engine(tmp_path):
    cache = str(tmp_path / "kernels")
    cold = ConversionEngine(cache_dir=cache)
    cold.make_converter(COO, CSR, backend="native")
    cold.make_converter(CSR, CSC, backend="native")
    cold_stats = cold.cache_stats()
    assert cold_stats["compiles"] == 2
    assert cold_stats["disk_writes"] == 2
    assert cold_stats["disk_hits"] == 0

    warm = ConversionEngine(cache_dir=cache)
    out = warm.convert(small_coo(), CSR, backend="native")
    assert out.to_coo() == small_coo().to_coo()
    warm.make_converter(CSR, CSC, backend="native")
    warm_stats = warm.cache_stats()
    assert warm_stats["compiles"] == 0
    assert warm_stats["disk_hits"] == 2
    assert warm_stats["disk_writes"] == 0


@needs_cc
def test_disk_cache_results_bit_identical_to_fresh_compile(tmp_path):
    cache = str(tmp_path / "kernels")
    tensor = small_coo()
    cold = ConversionEngine(cache_dir=cache)
    a = cold.convert(tensor, DIA, backend="native")
    warm = ConversionEngine(cache_dir=cache)
    b = warm.convert(tensor, DIA, backend="native")
    assert warm.cache_stats()["compiles"] == 0
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key])
    assert np.array_equal(a.vals, b.vals)
    assert a.metadata == b.metadata


@needs_cc
def test_disk_cache_keyed_by_options_and_backend(tmp_path):
    cache = str(tmp_path / "kernels")
    cold = ConversionEngine(cache_dir=cache)
    cold.make_converter(COO, CSR, backend="native")
    warm = ConversionEngine(cache_dir=cache)
    warm.make_converter(COO, CSR, backend="vector")  # never a record
    assert warm.cache_stats()["compiles"] == 1
    warm.make_converter(
        COO, CSR, options=PlanOptions(force_unsequenced_edges=True),
        backend="native",
    )  # different options: also a fresh compile
    assert warm.cache_stats()["compiles"] == 2
    warm.make_converter(COO, CSR, backend="native")  # the cold record
    stats = warm.cache_stats()
    assert stats["compiles"] == 2 and stats["disk_hits"] == 1


@needs_cc
def test_corrupt_disk_records_are_ignored_and_rewritten(tmp_path):
    import os

    cache = str(tmp_path / "kernels")
    cold = ConversionEngine(cache_dir=cache)
    cold.make_converter(COO, CSR, backend="native")
    (record,) = [
        os.path.join(cache, name) for name in os.listdir(cache)
        if name.endswith(".json")
    ]
    with open(record, "w") as handle:
        handle.write("{ definitely not a kernel record")
    warm = ConversionEngine(cache_dir=cache)
    out = warm.convert(small_coo(), CSR, backend="native")
    assert out.to_coo() == small_coo().to_coo()
    stats = warm.cache_stats()
    assert stats["compiles"] == 1  # recompiled past the corrupt record
    assert stats["disk_writes"] == 1  # and healed the cache


@needs_cc
def test_structural_twins_share_disk_records(tmp_path):
    cache = str(tmp_path / "kernels")
    cold = ConversionEngine(cache_dir=cache)
    cold.make_converter(COO, CSR, backend="native")
    twin = make_format(
        "DISKTWIN_CSR",
        "(i,j) -> (i, j)",
        [DenseLevel(), CompressedLevel(ordered=False)],
        inverse_text="(i,j) -> (i, j)",
    )
    warm = ConversionEngine(cache_dir=cache)
    converter = warm.make_converter(COO, twin, backend="native")
    assert warm.cache_stats()["compiles"] == 0
    assert warm.cache_stats()["disk_hits"] == 1
    assert converter.dst_format is twin  # re-tagged to the requested twin
    out = warm.convert(small_coo(), twin, backend="native")
    assert out.format is twin


# ----------------------------------------------------------------------
# the four names benchmarks/harness still uses of the deleted chunked
# executor; each goes when ROADMAP item 2 drops it from the harness


def test_shutdown_is_idempotent_and_engine_stays_usable():
    # ROADMAP item 2: shutdown() is a no-op kept for the harness's call
    engine = ConversionEngine()
    engine.shutdown()
    engine.shutdown()  # second call is a no-op, not an error
    assert engine.convert(small_coo(), CSR).format is CSR


def test_concurrent_shutdowns_do_not_race():
    # ROADMAP item 2: the harness may shut an engine down from any thread
    engine = ConversionEngine()
    engine.convert(small_coo(), CSR)
    with ThreadPoolExecutor(max_workers=4) as pool:
        for future in [pool.submit(engine.shutdown) for _ in range(8)]:
            future.result()
    assert engine.convert(small_coo(), CSR).format is CSR


def test_chunkable_stays_importable_from_repro_convert():
    # ROADMAP item 2: the harness imports it; it is the streaming predicate
    from repro.convert import chunkable

    assert chunkable(COO, CSR)


def test_bridge_for_stays_importable_and_finds_no_bridge():
    # ROADMAP item 2(iii): the harness imports it; no format has a bridge
    from repro.convert import bridge_for

    assert bridge_for(HASH) is None


def test_plan_parallel_keyword_warns_and_changes_nothing():
    # ROADMAP item 2: the harness passes plan(parallel=...) for its
    # executor cells; the keyword is ignored with one DeprecationWarning
    engine = ConversionEngine()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pinned = engine.plan(COO, CSR, parallel=4, nnz=2_000_000)
    assert [w.category for w in caught] == [DeprecationWarning]
    assert "ROADMAP item 2" in str(caught[0].message)
    assert pinned.hops == engine.plan(COO, CSR, nnz=2_000_000).hops


def test_parallel_conversions_counter_reads_zero():
    # ROADMAP item 2: the harness reads this cache_stats() key
    engine = ConversionEngine()
    engine.convert(small_coo(), CSR)
    engine.convert(small_coo(), "HASH")
    stats = engine.cache_stats()
    assert stats["conversions"] == 2
    assert stats["parallel_conversions"] == 0


# ----------------------------------------------------------------------
# hop observation (the serving layer's data-cache seam)


def test_hop_observer_sees_every_hop_with_timings():
    engine = ConversionEngine()
    seen = []
    engine.add_hop_observer(
        lambda hop, src, dst, options, seconds: seen.append(
            (hop.src.name, hop.dst.name, src, dst, seconds)
        )
    )
    tensor = small_coo()
    out = engine.convert(tensor, CSR)
    assert len(seen) == 1
    src_name, dst_name, src, dst, seconds = seen[0]
    assert (src_name, dst_name) == ("COO", "CSR")
    assert src is tensor and dst is out
    assert seconds >= 0.0


def test_hop_observer_sees_routed_intermediates():
    """A loaded multi-hop plan (the router plans one hop) still runs hop
    by hop, and the observer sees its intermediate."""
    from repro.convert import ConversionPlan, PlanOptions
    from repro.convert.router import Hop

    engine = ConversionEngine()
    seen = []
    engine.add_hop_observer(
        lambda hop, src, dst, options, seconds: seen.append(
            (hop.src.name, hop.dst.name, dst.format.name)
        )
    )
    tensor = reference_build(
        HASH, (30, 30),
        [(i, (i * 7) % 30) for i in range(30)], [float(i) for i in range(30)],
    )
    chain = ConversionPlan(
        hops=(Hop(HASH, COO, "vector"), Hop(COO, CSR, "vector")),
        options=PlanOptions(), engine=engine,
    )
    chain.run(tensor)
    assert seen == [("HASH", "COO", "COO"), ("COO", "CSR", "CSR")]
    assert engine.cache_stats()["routed_conversions"] == 1


def test_toolchain_is_memoized_per_cc_value(monkeypatch):
    """engine.toolchain() probes once per $CC value, not once per plan."""
    import repro.ir.native as native

    calls = []
    monkeypatch.setattr(native, "detect_toolchain",
                        lambda: calls.append(1) or "probed")
    monkeypatch.setenv("CC", "/bin/false")
    engine = ConversionEngine()
    for _ in range(3):
        engine.plan(COO, CSR)
        assert engine.toolchain() == "probed"
    assert len(calls) == 1
    monkeypatch.setenv("CC", "cc")  # a new $CC value probes again
    engine.toolchain()
    assert len(calls) == 2


def test_hop_observer_remove_and_exception_isolation():
    engine = ConversionEngine()
    calls = []

    def bad_observer(hop, src, dst, options, seconds):
        raise RuntimeError("observer boom")

    engine.add_hop_observer(bad_observer)
    engine.add_hop_observer(
        lambda hop, src, dst, options, seconds: calls.append(hop)
    )
    with pytest.warns(RuntimeWarning, match="observer"):
        engine.convert(small_coo(), CSR)
    assert len(calls) == 1  # the broken observer did not block the next
    # a second failure warns no more (warn-once), conversion still works
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine.convert(small_coo(), DIA)
    assert len(calls) == 2
    engine.remove_hop_observer(bad_observer)
    engine.remove_hop_observer(bad_observer)  # removing twice is a no-op


def test_engine_cache_dir_creates_nested_parents(tmp_path):
    """Regression: a cache_dir whose parents don't exist yet must be
    created (mkdir -p semantics), not crash the first compile."""
    deep = tmp_path / "a" / "b" / "c" / "kernels"
    engine = ConversionEngine(cache_dir=str(deep))
    out = engine.convert(small_coo(), CSR)
    assert out.format is CSR
    assert deep.is_dir()
    if HAVE_CC:  # native kernels are what the directory persists
        engine.convert(small_coo(), CSR, backend="native")
        assert engine.cache_stats()["disk_writes"] >= 1
