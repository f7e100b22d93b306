"""Native (compiled C) backend: bit-identity, toolchain handling and the
persistent ``.so`` cache.

The native backend emits a C translation unit from the same per-level
conversion plan the scalar printer walks, builds it with the host
compiler and binds it through ctypes.  Its contract mirrors the vector
backend's: **bit-identical** output arrays to the direct scalar
conversion for every pair it lowers — plus the operational guarantees
this file pins: graceful warn-once fallback when the host has no
compiler, recompile-not-crash on a corrupt cached ``.so``, a cache miss
(not a stale-ABI load) on a compiler-fingerprint mismatch, and zero
compiler invocations on a warm cache directory.
"""

import json
import os
import random
import re
import threading
import warnings

import numpy as np
import pytest

from repro.convert import convert
from repro.convert.engine import ConversionEngine
from repro.convert.native import native_capable, plan_native
from repro.convert.plan import ConversionPlan
from repro.convert.converters import scipy_available
from repro.convert.planner import PlanOptions
from repro.convert.context import PlanError
from repro.convert.router import BULK_NNZ
from repro.formats.library import (
    BCSR,
    COO,
    COO3,
    CSC,
    CSF,
    CSR,
    DCSR,
    DIA,
    ELL,
    HASH,
    HICOO,
)
from repro.ir.native import _clear_toolchain_cache, detect_toolchain
from repro.matrices.suite import get_matrix
from repro.storage.build import reference_build

from ..support.tensorgen import random_problem as _random_problem
from .test_backends import VECTOR_FORMATS, assert_tensors_bit_identical

EXTENDED = [BCSR(2, 2), DCSR, HICOO(2), HASH]

HAVE_CC = detect_toolchain() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain")

#: the entry point's parameter list: no team-size slot
FIVE_SLOT_SIGNATURE = (
    "    void **in_arrays, const int64_t *in_scalars,\n"
    "    void **out_arrays, int64_t *out_lens,\n"
    "    int64_t *out_scalars)\n{"
)


@pytest.fixture(scope="module")
def engine():
    eng = ConversionEngine()
    yield eng
    eng.shutdown()


@pytest.fixture
def no_compiler(monkeypatch):
    """A host with no working C compiler, restored afterwards."""
    monkeypatch.setenv("CC", "/bin/false")
    _clear_toolchain_cache()
    yield
    monkeypatch.delenv("CC", raising=False)
    _clear_toolchain_cache()


# ----------------------------------------------------------------------
# bit-identity


@needs_cc
@pytest.mark.parametrize("src", VECTOR_FORMATS + EXTENDED, ids=lambda f: f.name)
@pytest.mark.parametrize("dst", VECTOR_FORMATS + EXTENDED, ids=lambda f: f.name)
def test_native_bit_identical_all_pairs(src, dst, engine):
    assert native_capable(src, dst)
    native = engine.make_converter(src, dst, backend="native")
    assert native.backend == "native"
    for seed, (m, n) in enumerate([(7, 11), (1, 9), (8, 8)]):
        for style in ("empty", "dense", "sparse"):
            cells, vals = _random_problem(seed, m, n, style)
            tensor = reference_build(src, (m, n), cells, vals)
            scalar = convert(tensor, dst, backend="scalar")
            out = native(tensor)
            assert out.to_coo() == dict(zip(cells, vals))
            assert_tensors_bit_identical(scalar, out)


@needs_cc
@pytest.mark.parametrize(
    "pair",
    [(COO3, CSF), (CSF, COO3), (CSF, CSF)],
    ids=lambda p: f"{p[0].name}_{p[1].name}",
)
def test_native_bit_identical_third_order(pair, engine):
    src, dst = pair
    rng = random.Random(11)
    cells = rng.sample(
        [(i, j, k) for i in range(4) for j in range(5) for k in range(6)], 37
    )
    vals = [round(rng.uniform(0.5, 9.5), 4) for _ in cells]
    tensor = reference_build(src, (4, 5, 6), cells, vals)
    scalar = convert(tensor, dst, backend="scalar")
    out = engine.make_converter(src, dst, backend="native")(tensor)
    assert_tensors_bit_identical(scalar, out)


@needs_cc
@pytest.mark.parametrize(
    "pair",
    [(COO, CSR), (CSR, CSC), (COO, DIA)],
    ids=lambda p: f"{p[0].name}_{p[1].name}",
)
def test_native_bit_identical_on_suite_matrix(pair, engine):
    """Suite-size inputs stay bit-identical through the one serial C
    body of every emitted loop."""
    src, dst = pair
    entry = get_matrix("chem_master1", scale=2.0)
    tensor = entry.tensor(src)
    scalar = convert(tensor, dst, backend="scalar")
    native = engine.make_converter(src, dst, backend="native")
    assert_tensors_bit_identical(scalar, native(tensor))


# ----------------------------------------------------------------------
# toolchain failure paths


def test_missing_compiler_falls_back_to_vector_with_one_warning(no_compiler):
    eng = ConversionEngine()
    try:
        assert eng.toolchain() is None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conv = eng.make_converter(COO, CSR, backend="native")
        assert conv.backend == "vector"
        native_warnings = [
            w for w in caught if "no working C compiler" in str(w.message)
        ]
        assert len(native_warnings) == 1
        # warn-once: the second degraded request is silent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conv2 = eng.make_converter(CSR, CSC, backend="native")
        assert conv2.backend == "vector"
        assert not [
            w for w in caught if "no working C compiler" in str(w.message)
        ]
        # the fallback converts correctly
        tensor = reference_build(COO, (4, 5), [(1, 2), (3, 0)], [2.5, 1.5])
        ref = convert(tensor, CSR, backend="scalar")
        assert_tensors_bit_identical(ref, conv(tensor))
    finally:
        eng.shutdown()


def test_missing_compiler_plan_degrades_and_convert_runs(no_compiler):
    eng = ConversionEngine()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plan = eng.plan(COO, CSR, backend="native")
        assert "native" not in plan.backend_per_hop
        tensor = reference_build(COO, (4, 5), [(1, 2), (3, 0)], [2.5, 1.5])
        ref = convert(tensor, CSR, backend="scalar")
        assert_tensors_bit_identical(ref, plan.run(tensor))
    finally:
        eng.shutdown()


@needs_cc
def test_pinned_native_plan_replays_loudly_without_toolchain(monkeypatch):
    eng = ConversionEngine()
    text = eng.plan(COO, CSR, backend="native").to_json()
    eng.shutdown()

    monkeypatch.setenv("CC", "/bin/false")
    _clear_toolchain_cache()
    try:
        bare = ConversionEngine()
        replay = ConversionPlan.from_json(text, engine=bare)
        assert replay.backend_per_hop == ("native",)
        tensor = reference_build(COO, (4, 5), [(1, 2), (3, 0)], [2.5, 1.5])
        with pytest.raises(PlanError, match="no working C compiler"):
            replay.run(tensor)
        bare.shutdown()
    finally:
        monkeypatch.delenv("CC", raising=False)
        _clear_toolchain_cache()


def test_codegen_is_pure_and_needs_no_toolchain(no_compiler, capsys):
    from repro.__main__ import main

    main(["codegen", "COO", "CSR", "--backend", "native"])
    out = capsys.readouterr().out
    assert "#include <stdint.h>" in out
    assert FIVE_SLOT_SIGNATURE in out


# ----------------------------------------------------------------------
# the persistent .so cache


def _native_cache_files(cache_dir):
    names = sorted(os.listdir(cache_dir))
    return (
        [n for n in names if n.endswith(".json")],
        [n for n in names if n.endswith(".so")],
    )


@needs_cc
def test_warm_cache_invokes_no_compiler(tmp_path):
    cache = str(tmp_path)
    tensor = reference_build(COO, (6, 6), [(0, 1), (2, 3), (5, 5)], [1, 2, 3])
    ref = convert(tensor, CSR, backend="scalar")

    cold = ConversionEngine(cache_dir=cache)
    out = cold.make_converter(COO, CSR, backend="native")(tensor)
    assert_tensors_bit_identical(ref, out)
    stats = cold.cache_stats()
    assert stats["native_compiles"] == 1 and stats["native_disk_hits"] == 0
    records, shared = _native_cache_files(cache)
    assert len(records) == 1 and len(shared) == 1
    cold.shutdown()

    warm = ConversionEngine(cache_dir=cache)
    out = warm.make_converter(COO, CSR, backend="native")(tensor)
    assert_tensors_bit_identical(ref, out)
    stats = warm.cache_stats()
    assert stats["native_compiles"] == 0
    assert stats["native_disk_hits"] == 1
    warm.shutdown()


@needs_cc
def test_corrupt_cached_so_recompiles_instead_of_crashing(tmp_path):
    cache = str(tmp_path)
    tensor = reference_build(COO, (6, 6), [(0, 1), (2, 3)], [1.0, 2.0])
    ref = convert(tensor, CSR, backend="scalar")

    cold = ConversionEngine(cache_dir=cache)
    cold.make_converter(COO, CSR, backend="native")
    cold.shutdown()
    _, shared = _native_cache_files(cache)
    so_path = os.path.join(cache, shared[0])
    with open(so_path, "wb") as handle:
        handle.write(b"\x7fELF not really")

    eng = ConversionEngine(cache_dir=cache)
    out = eng.make_converter(COO, CSR, backend="native")(tensor)
    assert_tensors_bit_identical(ref, out)
    stats = eng.cache_stats()
    assert stats["native_compiles"] == 1 and stats["native_disk_hits"] == 0
    eng.shutdown()


@needs_cc
def test_compiler_fingerprint_mismatch_is_a_cache_miss(tmp_path):
    cache = str(tmp_path)
    cold = ConversionEngine(cache_dir=cache)
    cold.make_converter(COO, CSR, backend="native")
    cold.shutdown()
    records, _ = _native_cache_files(cache)
    record_path = os.path.join(cache, records[0])
    with open(record_path) as handle:
        record = json.load(handle)
    record["compiler"] = "0" * 16  # a different toolchain built this .so
    with open(record_path, "w") as handle:
        json.dump(record, handle)

    eng = ConversionEngine(cache_dir=cache)
    eng.make_converter(COO, CSR, backend="native")
    stats = eng.cache_stats()
    assert stats["native_compiles"] == 1, "stale-ABI record must not load"
    assert stats["native_disk_hits"] == 0
    eng.shutdown()


# ----------------------------------------------------------------------
# routing


@needs_cc
def test_auto_routing_gates_native_on_its_build(engine):
    """Native is the ladder's second rung: listed unbuilt at bulk sizes
    (its build is what a bulk run queues), taken once built, and never
    ahead of a registered converter that admits a bulk tensor.  Planning
    never starts the compiler."""
    nnz = 2_000_000
    fresh = ConversionEngine()
    try:
        native = fresh.converters(COO, DIA, nnz=nnz)[1]
        assert (native.name, native.rung, native.verdict) == (
            "generated-native", 2, "not built")
        assert "(not built)" in native.describe()
        plan = fresh.plan(COO, DIA, nnz=nnz)
        assert plan.backend_per_hop == ("vector",)
        assert [hop.kind for hop in plan._pending] == ["native"]
        # below BULK_NNZ an unbuilt kernel is not offered: no run queues it
        small = BULK_NNZ - 1
        assert "generated-native" not in [
            c.name for c in fresh.converters(COO, DIA, nnz=small)]
        assert fresh.cache_stats()["native_compiles"] == 0

        fresh.warmup([(COO, DIA)])
        first = fresh.converters(COO, DIA, nnz=nnz)[0]
        assert (first.name, first.verdict) == ("generated-native", "")
        assert fresh.plan(COO, DIA, nnz=nnz).backend_per_hop == ("native",)

        names = [c.name for c in fresh.converters(COO, CSR, nnz=nnz)]
        assert ("generated-native" in names) == (not scipy_available()), (
            "an unbuilt native kernel is not queued where a registered "
            "converter takes the edge"
        )
    finally:
        fresh.shutdown()


def test_no_toolchain_hosts_never_offer_native(no_compiler):
    eng = ConversionEngine()
    try:
        names = [c.name for c in eng.converters(COO, CSR, nnz=2_000_000)]
        assert "generated-native" not in names
    finally:
        eng.shutdown()


# ----------------------------------------------------------------------
# emission details


def test_emitted_c_declares_the_fixed_abi():
    source = plan_native(COO, CSR).source
    assert "REPRO_EXPORT int64_t" in source
    assert FIVE_SLOT_SIGNATURE in source
    assert "repro_native_free" in source


TABLE3_PAIRS = [
    (COO, CSR), (CSR, CSC), (COO, DIA), (CSR, DIA), (CSC, DIA), (CSR, ELL),
    (CSC, ELL),
]


def test_emitted_c_is_one_serial_body():
    """No OpenMP twin, team-size slot or run-time parallel switch is
    emitted for the Table-3 pairs or the fused COO SpMV kernel."""
    from repro.compute import plan_compute_kernel

    sources = [plan_native(src, dst).source for src, dst in TABLE3_PAIRS]
    sources.append(plan_compute_kernel(COO, "spmv", backend="native").source)
    for source in sources:
        for word in ("omp", "_OPENMP", "repro_par", "n_workers"):
            assert not re.search(rf"\b{word}\b", source), word


@needs_cc
def test_toolchain_builds_without_openmp():
    assert "-fopenmp" not in detect_toolchain().flags


@needs_cc
def test_bound_kernel_takes_no_team_size(engine):
    conv = engine.make_converter(COO, CSR, backend="native")
    tensor = reference_build(COO, (4, 5), [(1, 2), (3, 0)], [2.5, 1.5])
    with pytest.raises(TypeError):
        conv.func(*conv.arguments(tensor), n_workers=2)


@needs_cc
def test_warm_native_calls_leave_no_garbage_and_release_every_buffer(
    engine, monkeypatch
):
    """The wrapper makes no ctypes type per call (its slot blocks are
    allocated once per kernel and reused), so warm native calls leave no
    cyclic garbage, at any output size; and every C output buffer is
    still handed back to the library once its array dies."""
    import gc

    from repro.ir import native as native_module

    # ids of the buffers made here and not yet released (buffers made
    # before the patch may die meanwhile; they never share an id with a
    # live one)
    made, live = [], set()
    owner = native_module._NativeBuffer
    real_init, real_del = owner.__init__, owner.__del__

    def counted_init(self, *args):
        made.append(id(self))
        live.add(id(self))
        real_init(self, *args)

    def counted_del(self):
        key, ptr, release = id(self), self._ptr, self._release

        def tracked(freed):
            if freed == ptr:
                live.discard(key)
            release(freed)

        self._release = tracked
        real_del(self)

    monkeypatch.setattr(owner, "__init__", counted_init)
    monkeypatch.setattr(owner, "__del__", counted_del)
    tensors = [
        reference_build(COO, (m, n), *_random_problem(seed, m, n, style))
        for seed, (m, n) in enumerate([(7, 11), (30, 40), (1, 9)])
        for style in ("empty", "dense", "sparse")
    ]
    for dst in (CSR, DIA, ELL):
        conv = engine.make_converter(COO, dst, backend="native")
        assert conv.backend == "native"
        refs = [convert(t, dst, backend="scalar") for t in tensors]
        for tensor in tensors:
            conv(tensor)  # warm
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(5):
                for tensor, ref in zip(tensors, refs):
                    assert_tensors_bit_identical(ref, conv(tensor))
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []
    assert made and not live


@needs_cc
def test_concurrent_native_calls_keep_their_own_slot_blocks(engine):
    """One kernel called from more threads than cores, with a short
    switch interval: each thread marshals into its own slot blocks, so
    every call still returns its own tensor's conversion."""
    import sys

    conv = engine.make_converter(COO, CSR, backend="native")
    tensors = [
        reference_build(COO, (m, n), *_random_problem(seed, m, n, "sparse"))
        for seed, (m, n) in enumerate([(30, 40), (7, 11), (50, 9), (1, 9)])
    ]
    refs = [convert(t, CSR, backend="scalar") for t in tensors]
    errors = []

    def work(k):
        try:
            for _ in range(200):
                assert_tensors_bit_identical(refs[k], conv(tensors[k]))
        except Exception as exc:  # reported below, with the thread's index
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(tensors))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _every_small_pattern():
    """Every sparsity pattern of every 2-D shape up to 3x3 (682 in all,
    the empty pattern of each shape included)."""
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            cells = [(i, j) for i in range(m) for j in range(n)]
            for mask in range(1 << len(cells)):
                picked = [c for k, c in enumerate(cells) if mask >> k & 1]
                yield (m, n), picked, [k + 0.5 for k in range(len(picked))]


SMALL_PATTERNS = list(_every_small_pattern())


@pytest.mark.parametrize("backend", ["vector", "native"])
def test_small_scope_exhaustion_table3_pairs(backend, engine):
    """Empty rows, full rows, single entries and empty tensors, all of
    them: bit-identical to scalar for the seven Table-3 pairs."""
    if backend == "native" and not HAVE_CC:
        pytest.skip("no C toolchain")
    assert len(SMALL_PATTERNS) == 682
    sources = {
        src.name: [reference_build(src, dims, cells, vals)
                   for dims, cells, vals in SMALL_PATTERNS]
        for src in (COO, CSR, CSC)
    }
    for src, dst in TABLE3_PAIRS:
        scalar = engine.make_converter(src, dst, backend="scalar")
        other = engine.make_converter(src, dst, backend=backend)
        assert other.backend == backend
        for tensor in sources[src.name]:
            assert_tensors_bit_identical(scalar(tensor), other(tensor))


def test_native_plan_reports_no_chunk_workers():
    """A native hop runs on no chunk pool: its plan record carries no
    ``workers`` count (older readers default it to 0), its transcript
    names none, and it still converts bit-identically to scalar."""
    eng = ConversionEngine()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # compiler-less hosts degrade
        plan = eng.plan(COO, CSR, backend="native")
    record = plan.to_dict()
    assert "workers" not in record
    assert record.get("workers", 0) == 0
    assert "chunk workers" not in plan.explain()
    assert ConversionPlan.from_dict(record).hops == plan.hops
    tensor = reference_build(
        COO, (6, 7), [(0, 1), (2, 3), (2, 6), (5, 0)], [1.5, 2.0, 3.0, 4.0]
    )
    ref = convert(tensor, CSR, backend="scalar")
    assert_tensors_bit_identical(ref, plan.run(tensor))


def test_plan_options_reach_the_emitted_c():
    default = plan_native(CSR, CSC).source
    unsequenced = plan_native(
        CSR, CSC, PlanOptions(force_unsequenced_edges=True)
    ).source
    # the ablation toggle changes the emitted C, so options must be part
    # of the native plan cache key
    assert default != unsequenced


# ----------------------------------------------------------------------
# background builds: auto runs the compiled kernel once it is built


def _stencil_coo(n=2000, m=45, shuffled=False, seed=0):
    """A 5-point stencil in COO (~5n nonzeros; 9908 at the defaults)."""
    rng = np.random.default_rng(seed)
    i = np.arange(n, dtype=np.int64)
    rows = np.repeat(i, 5)
    cols = rows + np.tile(np.array([-m, -1, 0, 1, m], dtype=np.int64), n)
    keep = (cols >= 0) & (cols < n)
    rows, cols = rows[keep], cols[keep]
    vals = rng.uniform(0.5, 1.5, len(rows))
    if shuffled:
        perm = rng.permutation(len(rows))
        rows, cols, vals = rows[perm], cols[perm], vals[perm]
    from repro.storage.tensor import Tensor

    arrays = {(0, "pos"): np.array([0, len(rows)], dtype=np.int64),
              (0, "crd"): rows, (1, "crd"): cols}
    return Tensor(COO, (n, n), arrays, {}, vals)


def _coo3(seed=0):
    """A shuffled third-order COO of ~9.5k nonzeros."""
    from repro.storage.tensor import Tensor

    rng = np.random.default_rng(seed)
    dims = (60, 40, 40)
    keys = np.unique(rng.integers(0, 60 * 40 * 40, 10_000))
    keys = keys[rng.permutation(len(keys))]
    coords = [keys // 1600, (keys // 40) % 40, keys % 40]
    arrays = {(0, "pos"): np.array([0, len(keys)], dtype=np.int64)}
    arrays.update({(k, "crd"): coords[k] for k in range(3)})
    return Tensor(COO3, dims, arrays, {}, rng.uniform(0.5, 1.5, len(keys)))


def _bulk_sources():
    """Inputs of at least 8192 stored components for the five pairs a
    registered converter never serves: (tensor, destination)."""
    coo = _stencil_coo()
    scratch = ConversionEngine()
    csr = scratch.convert(coo, CSR, backend="vector")
    hashed = scratch.convert(coo, HASH, backend="scalar")
    return [(coo, DIA), (csr, ELL), (csr, COO), (_coo3(), CSF), (hashed, CSR)]


@needs_cc
def test_warmed_engine_plans_native_and_runs_bit_identical():
    eng = ConversionEngine()
    try:
        sources = _bulk_sources()
        assert all(t.nnz_stored >= 8192 for t, _ in sources)
        eng.warmup([(t.format, dst) for t, dst in sources])
        for tensor, dst in sources:
            plan = eng.plan(tensor.format, dst, nnz=tensor.nnz_stored)
            assert plan.backend_per_hop == ("native",), (tensor.format, dst)
            ref = eng.convert(tensor, dst, backend="scalar")
            assert_tensors_bit_identical(ref, plan.run(tensor))
    finally:
        eng.shutdown()


@needs_cc
def test_cold_engine_runs_python_first_then_native_once_built():
    """The first auto conversion returns from a Python kernel (its
    native build is queued, not awaited); once the build has landed the
    same conversion runs native.  Both match scalar."""
    eng = ConversionEngine()
    try:
        kinds = []
        eng.add_hop_observer(lambda hop, *_: kinds.append(hop.kind))
        for tensor, dst in _bulk_sources():
            ref = eng.convert(tensor, dst, backend="scalar")
            del kinds[:]
            assert_tensors_bit_identical(ref, eng.convert(tensor, dst))
            assert "native" not in kinds, (tensor.format, dst)
            assert eng._builds_idle.wait(120)
            del kinds[:]
            assert_tensors_bit_identical(ref, eng.convert(tensor, dst))
            assert kinds == ["native"], (tensor.format, dst)
    finally:
        eng.shutdown()


@needs_cc
def test_concurrent_shutdowns_with_a_build_pending_return():
    eng = ConversionEngine()
    sources = _bulk_sources()
    for tensor, dst in sources:
        eng.convert(tensor, dst)  # queues its native build
    threads = [threading.Thread(target=eng.shutdown) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not any(thread.is_alive() for thread in threads)
    assert eng._builder is None and not eng._build_queue
    tensor, dst = sources[0]
    assert_tensors_bit_identical(
        eng.convert(tensor, dst, backend="scalar"), eng.convert(tensor, dst))
    eng.shutdown()


@needs_cc
def test_concurrent_bulk_conversions_build_each_kernel_once():
    """Many threads converting the same bulk pairs on a cold engine
    queue each native kernel once: after the builds land, one compile
    per pair, nothing queued, and every result matches scalar."""
    import sys

    eng = ConversionEngine()
    sources = _bulk_sources()
    refs = [eng.convert(t, dst, backend="scalar") for t, dst in sources]
    failures = []

    def worker():
        try:
            for (tensor, dst), ref in zip(sources, refs):
                assert_tensors_bit_identical(ref, eng.convert(tensor, dst))
        except Exception as exc:  # pragma: no cover - the assert reports
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert eng._builds_idle.wait(120)
        assert eng.cache_stats()["native_compiles"] == len(sources)
        assert not eng._build_queue and not eng._native_pending
    finally:
        eng.shutdown()


@needs_cc
def test_failed_build_is_remembered_and_the_pair_stays_python(monkeypatch):
    import repro.ir.native as native_ir

    def broken(*args, **kwargs):
        raise RuntimeError("cc exploded")

    monkeypatch.setattr(native_ir, "build_shared", broken)
    eng = ConversionEngine()
    tensor, dst = _bulk_sources()[0]
    with pytest.warns(RuntimeWarning, match="stays on its Python kernel"):
        eng.warmup([(tensor.format, dst)])
    assert eng.plan(tensor.format, dst, nnz=tensor.nnz_stored
                    ).backend_per_hop == ("vector",)
    eng.convert(tensor, dst)  # a bulk run queues no second attempt
    assert eng._builder is None and not eng._native_pending


def _builders():
    return [t for t in threading.enumerate()
            if t.name == "repro-native-builder"]


def test_small_conversions_queue_no_build():
    """Below ``BULK_NNZ`` auto never queues a build (236 stored
    components, the small_inmem size), so no builder thread starts."""
    eng = ConversionEngine()
    before = _builders()
    coo = _stencil_coo(n=50, m=6)
    assert coo.nnz_stored == 236 < BULK_NNZ
    hashed = eng.convert(coo, HASH, backend="scalar")
    for tensor in (coo, hashed):
        eng.convert(tensor, CSR)
    assert eng._builder is None and not eng._native_pending
    assert _builders() == before
    assert eng.cache_stats()["native_compiles"] == 0


def test_no_builder_thread_without_a_compiler(no_compiler):
    eng = ConversionEngine()
    before = _builders()
    for tensor, dst in _bulk_sources():
        eng.convert(tensor, dst)
    assert eng._builder is None and not eng._native_pending
    assert _builders() == before


def test_repro_plan_invokes_no_compiler():
    """Planning never starts ``cc``: a fresh ``repro plan COO DIA --json``
    process compiles nothing and starts no builder."""
    import subprocess
    import sys

    code = (
        "import threading, repro.__main__ as cli\n"
        "from repro.convert import default_engine\n"
        "cli.main(['plan', 'COO', 'DIA', '--json'])\n"
        "print(default_engine().cache_stats()['native_compiles'],\n"
        "      [t.name for t in threading.enumerate()\n"
        "       if t.name == 'repro-native-builder'])\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out[:out.rindex("}") + 1])["hops"][0]["kind"] == "vector"
    assert out.strip().endswith("0 []")
