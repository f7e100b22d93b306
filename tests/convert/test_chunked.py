"""Chunked executor: chunk-parallel conversion must produce *bit-identical*
output arrays to the serial vector backend.

This is the contract that lets the engine engage the chunked executor
freely (``convert(..., parallel=...)``): same dtypes, same array contents,
same metadata, for every vectorizable pair — with chunking forced onto
tiny inputs (small pool grain) so chunk-boundary merge paths actually run.
"""

import random
import warnings

import pytest

from repro.convert import chunkable, convert, plan_chunked
from repro.convert.chunked import rewrite_chunked
from repro.convert.engine import ConversionEngine
from repro.convert.planner import PlanOptions
from repro.convert.router import CostModel
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
from repro.ir.runtime import WorkerPool
from repro.ir.vector import plan_vector
from repro.matrices.suite import get_matrix
from repro.storage.build import reference_build

from ..support.tensorgen import random_problem as _random_problem
from .test_backends import VECTOR_FORMATS, assert_tensors_bit_identical

EXTENDED = [BCSR(2, 2), DCSR, HICOO(2)]


@pytest.fixture(scope="module")
def engine():
    eng = ConversionEngine()
    yield eng
    eng.shutdown()


@pytest.fixture(scope="module")
def tiny_chunk_pool():
    """Four workers with a grain of 4: even ~10-nonzero streams split, so
    every merge path (offset merge, seen-filter, boundary runs) executes."""
    pool = WorkerPool(workers=4, grain=4)
    yield pool
    pool.shutdown()


@pytest.mark.parametrize("src", VECTOR_FORMATS + EXTENDED, ids=lambda f: f.name)
@pytest.mark.parametrize("dst", VECTOR_FORMATS + EXTENDED, ids=lambda f: f.name)
def test_chunked_bit_identical_all_vectorizable_pairs(
    src, dst, engine, tiny_chunk_pool
):
    assert chunkable(src, dst)
    chunked = engine.make_chunked(src, dst)
    for seed, (m, n) in enumerate([(7, 11), (1, 9), (8, 8)]):
        for style in ("empty", "dense", "sparse"):
            cells, vals = _random_problem(seed, m, n, style)
            tensor = reference_build(src, (m, n), cells, vals)
            vector = convert(tensor, dst, backend="vector", parallel=None)
            out = chunked(tensor, tiny_chunk_pool)
            assert out.to_coo() == dict(zip(cells, vals))
            assert_tensors_bit_identical(vector, out)


@pytest.mark.parametrize(
    "pair",
    [(COO3, CSF), (CSF, COO3), (CSF, CSF)],
    ids=lambda p: f"{p[0].name}_{p[1].name}",
)
def test_chunked_bit_identical_third_order(pair, engine, tiny_chunk_pool):
    src, dst = pair
    rng = random.Random(11)
    cells = rng.sample(
        [(i, j, k) for i in range(4) for j in range(5) for k in range(6)], 37
    )
    vals = [round(rng.uniform(0.5, 9.5), 4) for _ in cells]
    tensor = reference_build(src, (4, 5, 6), cells, vals)
    vector = convert(tensor, dst, backend="vector", parallel=None)
    out = engine.make_chunked(src, dst)(tensor, tiny_chunk_pool)
    assert_tensors_bit_identical(vector, out)


@pytest.mark.parametrize(
    "pair",
    [(COO, CSR), (CSR, CSC), (COO, DIA), (CSR, ELL)],
    ids=lambda p: f"{p[0].name}_{p[1].name}",
)
def test_chunked_bit_identical_on_suite_matrix(pair, engine, tiny_chunk_pool):
    src, dst = pair
    entry = get_matrix("scircuit", scale=0.05)
    tensor = entry.tensor(src)
    vector = convert(tensor, dst, backend="vector", parallel=None)
    out = engine.make_chunked(src, dst)(tensor, tiny_chunk_pool)
    assert_tensors_bit_identical(vector, out)


# ----------------------------------------------------------------------
# chunk-boundary edge cases


def test_chunk_boundary_splits_one_row(engine):
    """A single long row spanning every chunk: the yield-position merge
    must offset later chunks by the earlier chunks' per-row counts."""
    n = 64
    cells = [(3, j) for j in range(n)] + [(5, 0)]
    vals = [float(j + 1) for j in range(len(cells))]
    tensor = reference_build(COO, (8, n), cells, vals)
    pool = WorkerPool(workers=4, grain=2)
    serial = convert(tensor, CSR, backend="vector", parallel=None)
    out = engine.make_chunked(COO, CSR)(tensor, pool)
    assert_tensors_bit_identical(serial, out)
    pool.shutdown()


def test_chunk_boundary_splits_one_fiber(engine):
    """A CSF fiber (shared (i, j) prefix) split across chunks exercises
    the dedup merge: later chunks must reuse the first chunk's position."""
    cells = [(0, 0, 0)] + [(1, 2, k) for k in range(40)] + [(2, 1, 1)]
    vals = [float(k + 1) for k in range(len(cells))]
    tensor = reference_build(COO3, (3, 3, 40), cells, vals)
    pool = WorkerPool(workers=4, grain=2)
    serial = convert(tensor, CSF, backend="vector", parallel=None)
    out = engine.make_chunked(COO3, CSF)(tensor, pool)
    assert_tensors_bit_identical(serial, out)
    pool.shutdown()


def test_empty_tensor_chunks(engine, tiny_chunk_pool):
    tensor = reference_build(COO, (6, 6), [], [])
    serial = convert(tensor, CSR, backend="vector", parallel=None)
    out = engine.make_chunked(COO, CSR)(tensor, tiny_chunk_pool)
    assert_tensors_bit_identical(serial, out)


def test_one_worker_pool_equals_serial_exactly(engine):
    """A 1-worker pool is the serial path: one chunk, no threads, and the
    result is bit-identical to the serial vector backend."""
    pool = WorkerPool(workers=1)
    cells, vals = _random_problem(3, 9, 9, "sparse")
    tensor = reference_build(COO, (9, 9), cells, vals)
    serial = convert(tensor, CSR, backend="vector", parallel=None)
    out = engine.make_chunked(COO, CSR)(tensor, pool)
    assert_tensors_bit_identical(serial, out)
    assert pool._executor is None  # no thread ever started
    assert pool.bounds(10**7) == [(0, 10**7)]


# ----------------------------------------------------------------------
# engine policy


def test_parallel_auto_respects_threshold():
    eng = ConversionEngine(options=PlanOptions(parallel_threshold=10**6),
                           workers=4)
    cells, vals = _random_problem(1, 8, 8, "sparse")
    tensor = reference_build(COO, (8, 8), cells, vals)
    eng.convert(tensor, CSR)  # parallel="auto", tiny tensor: stays serial
    assert eng.cache_stats()["parallel_conversions"] == 0
    # a tiny threshold engages it (multi-core pools only under "auto")
    eng2 = ConversionEngine(options=PlanOptions(parallel_threshold=1),
                            workers=4)
    eng2.convert(tensor, CSR)
    assert eng2.cache_stats()["parallel_conversions"] == 1
    # ...but a single-worker engine never self-engages
    eng1 = ConversionEngine(options=PlanOptions(parallel_threshold=1),
                            workers=1)
    eng1.convert(tensor, CSR)
    assert eng1.cache_stats()["parallel_conversions"] == 0
    for e in (eng, eng1, eng2):
        e.shutdown()


def test_explicit_worker_count_forces_chunked(engine):
    cells, vals = _random_problem(2, 8, 8, "sparse")
    tensor = reference_build(COO, (8, 8), cells, vals)
    before = engine.cache_stats()["parallel_conversions"]
    out = engine.convert(tensor, CSR, parallel=2)
    assert engine.cache_stats()["parallel_conversions"] == before + 1
    assert_tensors_bit_identical(
        out, convert(tensor, CSR, backend="vector", parallel=None)
    )
    with pytest.raises(ValueError):
        engine.convert(tensor, CSR, parallel=0)
    with pytest.raises(ValueError):
        engine.convert(tensor, CSR, parallel="sideways")


def test_parallel_falls_back_for_non_chunkable_pairs(engine):
    assert not chunkable(CSR, HASH)
    cells, vals = _random_problem(4, 6, 6, "sparse")
    tensor = reference_build(CSR, (6, 6), cells, vals)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = engine.convert(tensor, HASH, parallel=3)
        engine.convert(tensor, HASH, parallel=3)
    fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(fallback) == 1  # warns once per pair, result still correct
    assert out.to_coo() == dict(zip(cells, vals))
    assert engine.make_chunked(CSR, HASH) is None


def test_routed_conversion_runs_chunked_hops(engine):
    """HASH -> COO -> CSR with workers: the generated vector hop runs on
    the chunk pool, bit-identically to the serial routed conversion."""
    cells, vals = _random_problem(5, 10, 10, "sparse")
    tensor = reference_build(HASH, (10, 10), cells, vals)
    route = engine.route(HASH, CSR, nnz=len(vals))
    serial = engine.convert_via(route, tensor)
    chunked = engine.convert_via(route, tensor, workers=3)
    assert_tensors_bit_identical(serial, chunked)


def test_worker_pools_are_engine_owned_and_cached(engine):
    assert engine.worker_pool(3) is engine.worker_pool(3)
    assert engine.worker_pool(3) is not engine.worker_pool(2)
    assert engine.worker_pool().workers == engine.workers


def test_chunked_converters_cached(engine):
    assert engine.make_chunked(COO, CSR) is engine.make_chunked(COO, CSR)
    assert engine.make_chunked("COO", "CSR") is engine.make_chunked(COO, CSR)


# ----------------------------------------------------------------------
# the rewrite itself


def test_chunked_source_is_rewritten_vector_source():
    generated = plan_chunked(COO, CSR)
    assert generated.backend == "chunked"
    assert "chunked_yield_positions" in generated.source
    assert "chunked_bincount" in generated.source
    assert "chunked_scatter" in generated.source
    assert "group_ranks(" not in generated.source.replace(
        "chunked_group_ranks(", "")
    # dedup pairs route through the chunked dedup helpers
    dedup = plan_chunked(CSR, BCSR(4, 4))
    assert "chunked_unique_first" in dedup.source


def test_rewrite_reports_sites():
    vector = plan_vector(CSR, CSC)
    _, name, sites = rewrite_chunked(vector.source, vector.func_name)
    assert name.endswith("__chunked")
    assert sites["yield"] == 1 and sites["scatter"] == 2


def test_plan_chunked_returns_none_for_scalar_only_pairs():
    assert plan_chunked(CSR, HASH) is None


def test_non_default_options_have_no_chunked_form():
    options = PlanOptions(force_unsequenced_edges=True)
    assert not chunkable(COO, CSR, options)
    # ...but the execution-only threshold field keeps the chunked form
    assert chunkable(COO, CSR, PlanOptions(parallel_threshold=5))


# ----------------------------------------------------------------------
# cost model


def test_cost_model_knows_the_parallel_path():
    model = CostModel()
    assert model.cost("chunked", 10**6) < model.cost("vector", 10**6)
    assert model.cost("vector", 10**6, workers=4) == model.cost("chunked", 10**6)
    assert model.cost("vector", 10**6, workers=1) > model.cost("chunked", 10**6)


# ----------------------------------------------------------------------
# warmup accepts specs (regression: every entry point takes spec strings)


def test_warmup_accepts_format_spec_strings():
    eng = ConversionEngine()
    assert eng.warmup([("COO", "CSR"), ("BCSR8x8", "CSR"), ("HASH", "csr")]) == 3
    stats = eng.cache_stats()
    assert stats["compiles"] > 0
    # parallel=True precompiles the chunked kernels of chunkable pairs too
    assert eng.warmup([("coo", "csc")], parallel=True) == 1
    assert eng.make_chunked(COO, CSC) is not None
    with pytest.raises(Exception):
        eng.warmup([("COO", "NO_SUCH_FORMAT")])
    eng.shutdown()


# ----------------------------------------------------------------------
# chunked prefix passes: np.add.at / np.maximum.at (per-chunk partial
# reductions merged by key)


def test_maximum_at_prefix_pass_is_rewritten_for_sky():
    from repro.formats.library import SKY

    generated = plan_chunked(COO, SKY)
    assert "chunked_maximum_at" in generated.source
    assert "np.maximum.at" not in generated.source


def test_add_at_rewrite_on_synthetic_kernel():
    source = (
        "def k(qi, width, n):\n"
        "    import numpy as np\n"
        "    out = np.zeros(n, dtype=np.int64)\n"
        "    np.add.at(out, qi, width)\n"
        "    return out\n"
    )
    rewritten, name, sites = rewrite_chunked(source, "k")
    assert sites["add_at"] == 1
    assert "chunked_add_at(out, qi, width, _pool)" in rewritten


@pytest.mark.parametrize("scalar_values", [False, True],
                         ids=["array-values", "scalar-values"])
def test_chunked_ufunc_at_helpers_bit_identical(tiny_chunk_pool, scalar_values):
    import numpy as np

    from repro.ir.runtime import chunked_add_at, chunked_maximum_at

    rng = np.random.default_rng(9)
    for n in (0, 1, 5, 37, 200):
        index = rng.integers(0, 17, n)
        values = 3 if scalar_values else rng.integers(-4, 60, n)
        serial_add = np.zeros(17, dtype=np.int64)
        np.add.at(serial_add, index, values)
        chunked_add = np.zeros(17, dtype=np.int64)
        chunked_add_at(chunked_add, index, values, tiny_chunk_pool)
        assert np.array_equal(serial_add, chunked_add)

        serial_max = np.zeros(17, dtype=np.int64)
        np.maximum.at(serial_max, index, values)
        chunked_max = np.zeros(17, dtype=np.int64)
        chunked_maximum_at(chunked_max, index, values, tiny_chunk_pool)
        assert np.array_equal(serial_max, chunked_max)


def test_chunked_add_at_float_destination_stays_serial(tiny_chunk_pool):
    """Float accumulation depends on summation order; the helper must run
    the serial ufunc there so results stay bit-identical."""
    import numpy as np

    from repro.ir.runtime import chunked_add_at

    rng = np.random.default_rng(2)
    index = rng.integers(0, 7, 100)
    values = rng.uniform(-1, 1, 100)
    serial = np.zeros(7, dtype=np.float64)
    np.add.at(serial, index, values)
    chunked = np.zeros(7, dtype=np.float64)
    chunked_add_at(chunked, index, values, tiny_chunk_pool)
    assert np.array_equal(serial, chunked)  # bit-identical, not approx


@pytest.mark.parametrize("src", [COO, CSR, DCSR], ids=lambda f: f.name)
def test_chunked_sky_bit_identical(src, engine, tiny_chunk_pool):
    """* -> SKY exercises the chunked np.maximum.at prefix pass end to
    end (skyline row widths are a max= analysis)."""
    from repro.formats.library import SKY

    rng = random.Random(13)
    dims = (18, 18)
    cells = sorted({
        (max(i, j), min(i, j))  # lower-triangular: SKY's domain
        for _ in range(160)
        for i, j in [(rng.randrange(dims[0]), rng.randrange(dims[1]))]
    })
    vals = [round(rng.uniform(0.5, 9.5), 4) for _ in cells]
    tensor = reference_build(src, dims, cells, vals)
    vector = convert(tensor, SKY, backend="vector", parallel=None)
    chunked = engine.make_chunked(src, SKY)
    assert "chunked_maximum_at" in chunked.source
    out = chunked(tensor, tiny_chunk_pool)
    assert_tensors_bit_identical(vector, out)


def test_chunked_add_at_bool_destination_stays_serial(tiny_chunk_pool):
    """numpy forbids subtraction (the merge's dedup step) on booleans, so
    bool destinations must take the serial ufunc path."""
    import numpy as np

    from repro.ir.runtime import chunked_add_at

    rng = np.random.default_rng(4)
    index = rng.integers(0, 9, 120)
    serial = np.zeros(9, dtype=bool)
    np.add.at(serial, index, True)
    chunked = np.zeros(9, dtype=bool)
    chunked_add_at(chunked, index, True, tiny_chunk_pool)
    assert np.array_equal(serial, chunked)
