"""Hashed levels vectorize on both sides of a conversion.

Four contracts from the HASH vectorization:

* ``hashed_bulk_insert`` places every nonzero exactly where the scalar
  probe loop would — bit-identical table and positions — on random
  streams with collisions, duplicates and wraparound;
* X→HASH conversions are bit-identical between the scalar and vector
  backends for every vectorizable source;
* hashed pairs are not ``chunkable``, so they never stream (placement
  depends on the global nonzero order, which chunk-local replays cannot
  reproduce);
* HASH→X is one generated hop on the vector and native backends,
  bit-identical to scalar: the vector gather compacts the table to its
  occupied nonzero slots at the level, so no empty slot reaches a later
  pass.
"""

import warnings

import numpy as np
import pytest

from repro.compute import spmv_reference
from repro.convert import (
    ConversionEngine,
    chunkable,
    make_converter,
    resolve_backend,
)
from repro.formats.format import make_format
from repro.formats.library import (
    BCSR,
    COO,
    CSC,
    CSR,
    DCSR,
    DIA,
    ELL,
    HASH,
    HICOO,
    SKY,
)
from repro.ir.native import detect_toolchain
from repro.ir.runtime import hashed_bulk_insert
from repro.levels.dense import DenseLevel
from repro.levels.hashed import HashedLevel
from repro.storage.build import reference_build

from .test_backends import assert_tensors_bit_identical


def _sequential_insert(table, base, home, coord, width):
    """The scalar probe loop, one nonzero at a time, in stream order."""
    n = len(coord)
    out = np.empty(n, dtype=np.int64)
    base = np.broadcast_to(np.asarray(base, dtype=np.int64), (n,))
    for i in range(n):
        s = int(home[i])
        p = int(base[i]) + s
        while table[p] >= 0 and table[p] != coord[i]:
            s = (s + 1) % width
            p = int(base[i]) + s
        table[p] = coord[i]
        out[i] = p
    return out


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("parents,width", [(1, 16), (4, 8), (7, 32)])
def test_bulk_insert_replays_sequential_placement(seed, parents, width):
    rng = np.random.default_rng(seed)
    # load factor <= width // 2 per parent keeps probe chains honest but
    # bounded (matching how the level sizes its tables: 2x the peak)
    per_parent = rng.integers(0, width // 2 + 1, parents)
    base, coord = [], []
    for p in range(parents):
        # draw from a window 4x the width so collisions and wraparound
        # both occur; duplicates are allowed (idempotent re-insert)
        cs = rng.integers(0, width * 4, per_parent[p])
        coord.extend(int(c) for c in cs)
        base.extend([p * width] * len(cs))
    coord = np.asarray(coord, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64)
    home = coord % width

    table_seq = np.full(parents * width, -1, dtype=np.int64)
    table_bulk = np.full(parents * width, -1, dtype=np.int64)
    want = _sequential_insert(table_seq, base, home, coord, width)
    got = hashed_bulk_insert(table_bulk, base, home, coord, width)
    np.testing.assert_array_equal(table_bulk, table_seq)
    np.testing.assert_array_equal(got, want)


def test_bulk_insert_empty_stream():
    table = np.full(8, -1, dtype=np.int64)
    out = hashed_bulk_insert(table, 0, np.empty(0, np.int64),
                             np.empty(0, np.int64), 8)
    assert out.shape == (0,)
    assert (table == -1).all()


@pytest.mark.parametrize("src", [COO, CSR, CSC, DIA, ELL],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("style", ["sparse", "dense", "empty"])
def test_to_hash_scalar_vs_vector_bit_identical(src, style):
    rng = np.random.default_rng(hash((src.name, style)) % (2**32))
    dims = (9, 7)
    if style == "empty":
        cells = []
    else:
        every = 1 if style == "dense" else 3
        cells = [(i, j) for i in range(dims[0]) for j in range(dims[1])][
            ::every
        ]
    vals = list(rng.uniform(0.5, 1.5, len(cells)))
    tensor = reference_build(src, dims, cells, vals)

    assert resolve_backend(src, HASH) == "vector"
    scalar = make_converter(src, HASH, backend="scalar")(tensor)
    vector = make_converter(src, HASH, backend="vector")(tensor)
    scalar.check()
    vector.check()
    assert_tensors_bit_identical(scalar, vector)
    assert vector.to_coo(skip_zeros=True) == dict(zip(cells, vals))


def test_hashed_pairs_stay_off_the_chunked_executor():
    assert not chunkable(COO, HASH)
    assert not chunkable(HASH, COO)
    assert chunkable(COO, CSR)  # sanity: the predicate is not disabled


def test_hashed_source_still_falls_back_to_scalar():
    """A level below a hashed table would need the table's kept slots as
    a contiguous range, which the compacting gather does not give: that
    hashed source keeps the scalar kernel (HASH itself vectorizes)."""
    from repro.levels.compressed import CompressedLevel

    table_on_top = make_format(
        "HASH_TABLE_ON_TOP",
        "(i,j) -> (i, j)",
        [HashedLevel(), CompressedLevel(ordered=False)],
        inverse_text="(i,j) -> (i, j)",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert make_converter(table_on_top, CSR,
                              backend="vector").backend == "scalar"


def test_hashed_source_vectorizes():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no fallback warning
        assert resolve_backend(HASH, CSR, backend="vector") == "vector"
        assert make_converter(HASH, CSR, backend="vector").backend == "vector"


# ----------------------------------------------------------------------
# hashed sources: the compacting gather

#: a renamed structural twin of HASH (kernels are shared structurally)
HASH_TWIN = make_format(
    "HASH_TWIN_GATHER",
    "(i,j) -> (i, j)",
    [DenseLevel(), HashedLevel()],
    inverse_text="(i,j) -> (i, j)",
)

GATHER_TARGETS = [COO, CSR, CSC, DIA, ELL, SKY, DCSR, BCSR(2, 2), HICOO(2)]

HAVE_CC = detect_toolchain() is not None


def _hash_tables():
    """Named HASH tables, lower triangular so SKY holds every entry."""
    dims = (12, 10)
    rng = np.random.default_rng(11)
    lower = [(i, j) for i in range(dims[0]) for j in range(dims[1]) if j <= i]
    picked = sorted(rng.choice(len(lower), 30, replace=False))
    scattered = [lower[k] for k in picked]
    # one full row sets W = 32 against a mean degree near 1: the table is
    # almost all padding
    padding_heavy = [(11, j) for j in range(dims[1])] + [
        (i, i // 2) for i in range(0, 11, 3)
    ]
    zero_vals = list(rng.uniform(0.5, 1.5, len(scattered)))
    zero_vals[::4] = [0.0] * len(zero_vals[::4])  # stored explicit zeros
    tables = {
        "scattered": (scattered, list(rng.uniform(0.5, 1.5, len(scattered)))),
        "padding_heavy": (
            padding_heavy, list(rng.uniform(0.5, 1.5, len(padding_heavy)))
        ),
        "empty": ([], []),
        "explicit_zeros": (scattered, zero_vals),
    }
    return {
        name: reference_build(HASH, dims, cells, vals)
        for name, (cells, vals) in tables.items()
    }


HASH_TABLES = _hash_tables()


def _as_format(tensor, fmt):
    return type(tensor)(fmt, tensor.dims, tensor.arrays, tensor.metadata,
                        tensor.vals)


def test_the_tables_cover_padding_and_explicit_zeros():
    heavy = HASH_TABLES["padding_heavy"]
    occupied = heavy.array(1, "crd") >= 0
    assert heavy.meta(1, "W") >= 8 * occupied.sum() / heavy.dims[0]
    assert occupied.mean() < 0.1
    zeros = HASH_TABLES["explicit_zeros"]
    occupied = zeros.array(1, "crd") >= 0
    assert (zeros.vals[occupied] == 0.0).any()
    assert not (HASH_TABLES["empty"].array(1, "crd") >= 0).any()


@pytest.mark.parametrize(
    "backend",
    ["vector", pytest.param("native", marks=pytest.mark.skipif(
        not HAVE_CC, reason="no C toolchain"))],
)
@pytest.mark.parametrize("src", [HASH, HASH_TWIN], ids=lambda f: f.name)
@pytest.mark.parametrize("dst", GATHER_TARGETS, ids=lambda f: f.name)
def test_hash_source_bit_identical_to_scalar(dst, src, backend):
    scalar = make_converter(src, dst, backend="scalar")
    generated = make_converter(src, dst, backend=backend)
    assert generated.backend == backend
    for name, table in HASH_TABLES.items():
        tensor = _as_format(table, src)
        want = scalar(tensor)
        got = generated(tensor)
        assert got.format is dst, name
        assert_tensors_bit_identical(want, got)


def test_hashed_gather_compacts_at_the_level():
    """One mask keeps the occupied nonzero slots; nothing downstream
    filters the streams again."""
    source = make_converter(HASH, CSR, backend="vector").source
    assert "np.flatnonzero((A2_crd[0:N1 * A2_W] >= 0) & " in source
    assert "np.bincount(p2 // A2_W" in source
    assert "np.tile" not in source
    assert "keep" not in source  # no second (padded-source) filter


def test_fused_spmv_from_a_hash_source_takes_the_vector_gather():
    engine = ConversionEngine()
    x = np.random.default_rng(2).uniform(0.5, 1.5, 10)
    for name, tensor in HASH_TABLES.items():
        plan = engine.plan_compute(HASH, "spmv", CSR, fuse=True,
                                   backend="vector", nnz=tensor.nnz_stored)
        assert plan.fused and plan.backend == "vector", name
        np.testing.assert_allclose(
            engine.run_compute_plan(plan, tensor, x=x),
            spmv_reference(tensor, x), rtol=1e-12, atol=0.0,
        )
