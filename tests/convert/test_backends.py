"""Backend equivalence: the vector (bulk numpy) lowering must produce
*bit-identical* output arrays to the scalar (loop) lowering.

This is the contract that lets the planner pick backends freely: same
dtypes, same array contents, same metadata, for every registered format
pair — on adversarial random inputs (empty, dense, rectangular) and on
the synthetic benchmark suite matrices.
"""

import random
import warnings

import numpy as np
import pytest

from repro.convert import (
    convert,
    generated_source,
    make_converter,
    resolve_backend,
    verify_all_pairs,
)
from repro.convert.planner import PlanOptions, _FALLBACK_WARNED
from repro.formats.format import make_format
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
from repro.ir.runtime import group_ranks, stable_order, unique_first
from repro.levels.compressed import CompressedLevel
from repro.levels.dense import DenseLevel
from repro.matrices.suite import get_matrix
from repro.storage.build import reference_build

VECTOR_FORMATS = [COO, CSR, CSC, DIA, ELL]
#: formerly scalar-only pairs that the per-level lowering newly vectorizes
EXTENDED_FORMATS = [BCSR(2, 2), DCSR, HICOO(2)]


class ScalarOnlyDense(DenseLevel):
    """A dense level without the vector-emission protocol (every library
    level has it, hashed ones included)."""

    name = "dense_scalar_only"
    vector_capable = False


#: formats that fall back to scalar as a *source*: a CSR twin whose row
#: level has no vector facet
FALLBACK_SOURCES = [
    make_format(
        "CSR_SCALAR_ONLY",
        "(i,j) -> (i, j)",
        [ScalarOnlyDense(), CompressedLevel(ordered=False)],
        inverse_text="(i,j) -> (i, j)",
    )
]


def assert_tensors_bit_identical(a, b):
    assert a.dims == b.dims
    assert a.metadata == b.metadata
    assert set(a.arrays) == set(b.arrays)
    for key in a.arrays:
        left, right = a.arrays[key], b.arrays[key]
        assert left.dtype == right.dtype, f"{key}: {left.dtype} != {right.dtype}"
        assert np.array_equal(left, right), f"{key}: arrays differ"
    assert a.vals.dtype == b.vals.dtype
    assert np.array_equal(a.vals, b.vals)


def _random_problem(seed, m, n, style):
    rng = random.Random(seed)
    capacity = m * n
    count = {"empty": 0, "dense": capacity, "sparse": rng.randint(1, capacity)}[style]
    cells = rng.sample([(i, j) for i in range(m) for j in range(n)], count)
    vals = [round(rng.uniform(0.5, 9.5), 4) for _ in cells]
    return cells, vals


@pytest.mark.parametrize("src", VECTOR_FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("dst", VECTOR_FORMATS, ids=lambda f: f.name)
def test_backends_bit_identical_all_pairs(src, dst):
    for seed, (m, n) in enumerate([(7, 11), (11, 7), (1, 9), (8, 8)]):
        for style in ("empty", "dense", "sparse"):
            cells, vals = _random_problem(seed, m, n, style)
            tensor = reference_build(src, (m, n), cells, vals)
            scalar = convert(tensor, dst, backend="scalar")
            vector = convert(tensor, dst, backend="vector")
            assert vector.to_coo() == dict(zip(cells, vals))
            assert_tensors_bit_identical(scalar, vector)


@pytest.mark.parametrize("src", EXTENDED_FORMATS, ids=lambda f: f.name)
@pytest.mark.parametrize("dst", EXTENDED_FORMATS + [CSR, COO], ids=lambda f: f.name)
def test_backends_bit_identical_extended_formats(src, dst):
    """BCSR / DCSR / HiCOO vectorize through the per-level lowering —
    no structural allowlist — and stay bit-identical to scalar."""
    assert resolve_backend(src, dst) == "vector"
    for seed, (m, n) in enumerate([(6, 8), (8, 6), (1, 7)]):
        for style in ("empty", "dense", "sparse"):
            cells, vals = _random_problem(seed, m, n, style)
            tensor = reference_build(src, (m, n), cells, vals)
            scalar = convert(tensor, dst, backend="scalar")
            vector = convert(tensor, dst, backend="vector")
            assert vector.to_coo() == dict(zip(cells, vals))
            assert_tensors_bit_identical(scalar, vector)


@pytest.mark.parametrize(
    "pair",
    [(COO3, CSF), (CSF, COO3), (CSF, CSF), (COO3, COO3)],
    ids=lambda p: f"{p[0].name}_{p[1].name}",
)
def test_backends_bit_identical_third_order(pair):
    """CSF / COO3 third-order conversions resolve to the vector backend
    through the leaf singleton / staged compressed emitters."""
    src, dst = pair
    assert resolve_backend(src, dst) == "vector"
    rng = random.Random(11)
    dims = (4, 5, 6)
    cells = rng.sample(
        [(i, j, k) for i in range(4) for j in range(5) for k in range(6)], 37
    )
    vals = [round(rng.uniform(0.5, 9.5), 4) for _ in cells]
    tensor = reference_build(src, dims, cells, vals)
    scalar = convert(tensor, dst, backend="scalar")
    vector = convert(tensor, dst, backend="vector")
    assert vector.to_coo() == dict(zip(cells, vals))
    assert_tensors_bit_identical(scalar, vector)


@pytest.mark.parametrize("matrix_name", ["jnlbrng1", "scircuit", "cant"])
@pytest.mark.parametrize(
    "pair",
    [(COO, CSR), (CSR, CSC), (COO, DIA), (CSR, ELL), (CSC, DIA)],
    ids=lambda p: f"{p[0].name}_{p[1].name}",
)
def test_backends_bit_identical_on_suite_matrices(matrix_name, pair):
    src, dst = pair
    entry = get_matrix(matrix_name, scale=0.05)
    tensor = entry.tensor(src)
    scalar = convert(tensor, dst, backend="scalar")
    vector = convert(tensor, dst, backend="vector")
    assert_tensors_bit_identical(scalar, vector)


def test_every_capable_library_pair_actually_plans_vector():
    """`resolve_backend` promises are kept: every library pair whose
    levels report vector capability really lowers through the vector
    backend (no silent scalar fallback inside plan_vector)."""
    from repro.formats.library import BUILTIN_FORMATS

    formats = dict(BUILTIN_FORMATS)
    formats["BCSR4x4"] = BCSR(4, 4)
    formats["HICOO4"] = HICOO(4)
    for src in formats.values():
        for dst in formats.values():
            if src.order != dst.order:
                continue
            if resolve_backend(src, dst) != "vector":
                assert "hashed" in {
                    level.name for level in src.levels + dst.levels
                }, f"{src.name}->{dst.name} unexpectedly scalar"
                continue
            converter = make_converter(src, dst, backend="vector")
            assert converter.backend == "vector", f"{src.name}->{dst.name}"


def test_vector_backend_passes_randomized_verification():
    report = verify_all_pairs(VECTOR_FORMATS, trials=6, max_dim=7, backend="vector")
    assert len(report) == len(VECTOR_FORMATS) ** 2
    assert all(checked > 0 for _, _, checked in report)


def test_resolve_backend_selection():
    assert resolve_backend(COO, CSR) == "vector"
    assert resolve_backend(CSR, CSC, backend="auto") == "vector"
    assert resolve_backend(COO, CSR, backend="scalar") == "scalar"
    # capability is asked of the levels, not read off an allowlist:
    # blocked/hypersparse/third-order formats all resolve to vector
    assert resolve_backend(BCSR(2, 2), CSR) == "vector"
    assert resolve_backend(CSR, BCSR(2, 2), backend="vector") == "vector"
    assert resolve_backend(DCSR, CSR) == "vector"
    assert resolve_backend(COO3, CSF) == "vector"
    # hashed assembles in bulk as a destination (hashed_bulk_insert) and
    # gathers its occupied slots in bulk as a source
    assert resolve_backend(CSR, HASH) == "vector"
    assert resolve_backend(HASH, CSR, backend="vector") == "vector"
    # a level without the vector facet keeps its format on scalar
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert resolve_backend(
            FALLBACK_SOURCES[0], CSR, backend="vector"
        ) == "scalar"
    # ablation options select scalar code shapes: scalar only
    assert resolve_backend(COO, CSR, PlanOptions(force_unsequenced_edges=True)) == "scalar"


def test_structural_match_vectorizes_renamed_format():
    """Backend selection is structural, not by format name."""
    my_csr = make_format(
        "MyRowMajor",
        "(i,j) -> (i, j)",
        [DenseLevel(), CompressedLevel(ordered=False)],
        inverse_text="(i,j) -> (i, j)",
    )
    assert resolve_backend(COO, my_csr) == "vector"
    cells, vals = _random_problem(3, 6, 5, "sparse")
    tensor = reference_build(COO, (6, 5), cells, vals)
    out = convert(tensor, my_csr, backend="vector")
    assert out.to_coo() == dict(zip(cells, vals))


def test_renamed_format_shares_kernel_cache_entry():
    """Structurally-identical renamed formats share one compiled kernel
    (the cache is keyed by repro.convert.planner.structural_key)."""
    my_csr = make_format(
        "MyRowMajor2",
        "(i,j) -> (i, j)",
        [DenseLevel(), CompressedLevel(ordered=False)],
        inverse_text="(i,j) -> (i, j)",
    )
    for backend in ("vector", "scalar"):
        renamed = make_converter(COO, my_csr, backend=backend)
        canonical = make_converter(COO, CSR, backend=backend)
        assert renamed.func is canonical.func
        assert renamed.source == canonical.source
    # ...while the returned converters still carry the requested formats
    assert make_converter(COO, my_csr).dst_format.name == "MyRowMajor2"
    # and a converter compiled for CSR accepts the structural twin
    from repro.storage.tensor import Tensor

    cells, vals = _random_problem(5, 4, 4, "sparse")
    built = reference_build(CSR, (4, 4), cells, vals)
    twin = Tensor(my_csr, built.dims, built.arrays, built.metadata, built.vals)
    out = make_converter(CSR, CSC)(twin)
    assert out.to_coo() == dict(zip(cells, vals))


@pytest.mark.parametrize("src", FALLBACK_SOURCES, ids=lambda f: f.name)
def test_vector_request_falls_back_to_scalar(src):
    cells, vals = _random_problem(1, 6, 6, "sparse")
    tensor = make_converter(COO, src, backend="scalar")(
        reference_build(COO, (6, 6), cells, vals)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        converter = make_converter(src, CSR, backend="vector")
    assert converter.backend == "scalar"  # fell back
    out = converter(tensor)
    out.check()
    assert out.to_coo() == dict(zip(cells, vals))


@pytest.mark.parametrize(
    "options",
    [
        PlanOptions(force_unsequenced_edges=True),
        PlanOptions(force_counter_arrays=True),
        PlanOptions(disable_width_count=True),
        PlanOptions(skip_src_zeros=False),
    ],
    ids=["unseq_edges", "counter_arrays", "no_width_count", "keep_zeros"],
)
def test_non_default_options_stay_scalar_and_warn_once(options):
    """Non-default PlanOptions select scalar code shapes: the resolver
    falls back (even on explicit vector requests) and warns exactly once
    per pair."""
    assert resolve_backend(COO, CSR, options) == "scalar"
    _FALLBACK_WARNED.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert resolve_backend(COO, CSR, options, backend="vector") == "scalar"
        assert resolve_backend(COO, CSR, options, backend="vector") == "scalar"
    fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(fallback) == 1
    assert "falling back to scalar" in str(fallback[0].message)
    # the fallback still produces a correct scalar routine
    cells, vals = _random_problem(2, 5, 5, "sparse")
    tensor = reference_build(COO, (5, 5), cells, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        converter = make_converter(COO, CSR, options, backend="vector")
    assert converter.backend == "scalar"
    assert converter(tensor).to_coo() == dict(zip(cells, vals))


def test_both_backends_keep_source_inspectable():
    scalar = make_converter(COO, CSR, backend="scalar")
    vector = make_converter(COO, CSR, backend="vector")
    assert scalar.backend == "scalar" and "for " in scalar.source
    assert vector.backend == "vector" and "np.bincount" in vector.source
    assert scalar.source != vector.source
    # both spellings reachable through generated_source too
    assert generated_source(COO, CSR) == scalar.source
    assert generated_source(COO, CSR, backend="vector") == vector.source


def test_backends_cached_separately():
    scalar = make_converter(CSR, DIA, backend="scalar")
    vector = make_converter(CSR, DIA, backend="vector")
    auto = make_converter(CSR, DIA, backend="auto")
    assert scalar is not vector
    assert auto is vector  # auto resolves to the vector cache entry


def test_stable_order_matches_stable_argsort():
    rng = np.random.default_rng(0)
    for n in (0, 1, 17, 1000):
        keys = rng.integers(0, 50, size=n).astype(np.int64)
        got = stable_order(keys)
        want = np.argsort(keys, kind="stable")
        assert np.array_equal(got, want)
    # negative keys take the argsort fallback and stay correct
    keys = np.array([3, -1, 2, -1, 3], dtype=np.int64)
    assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))


def test_group_ranks_matches_sequential_counting():
    rng = np.random.default_rng(1)
    for n in (0, 1, 17, 1000):
        keys = rng.integers(0, 7, size=n).astype(np.int64)
        got = group_ranks(keys)
        counts = {}
        want = np.empty(n, dtype=np.int64)
        for idx, key in enumerate(keys):
            want[idx] = counts.get(int(key), 0)
            counts[int(key)] = want[idx] + 1
        assert np.array_equal(got, want)


def test_unique_first_matches_sequential_dedup():
    rng = np.random.default_rng(2)
    for n in (0, 1, 17, 1000):
        keys = rng.integers(0, 9, size=n).astype(np.int64)
        got = unique_first(keys)
        seen, want = set(), []
        for idx, key in enumerate(keys):
            if int(key) not in seen:
                seen.add(int(key))
                want.append(idx)
        assert np.array_equal(got, np.array(want, dtype=np.int64))
