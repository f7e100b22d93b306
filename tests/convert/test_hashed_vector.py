"""Hashed destinations vectorize: bulk open-addressing inserts.

Three contracts from the HASH vectorization:

* ``hashed_bulk_insert`` places every nonzero exactly where the scalar
  probe loop would — bit-identical table and positions — on random
  streams with collisions, duplicates and wraparound;
* X→HASH conversions are bit-identical between the scalar and vector
  backends for every vectorizable source;
* hashed pairs are not ``chunkable``, so they never stream (placement
  depends on the global nonzero order, which chunk-local replays cannot
  reproduce).
"""

import warnings

import numpy as np
import pytest

from repro.convert import chunkable, make_converter, resolve_backend
from repro.formats.library import COO, CSC, CSR, DIA, ELL, HASH
from repro.ir.runtime import hashed_bulk_insert
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert resolve_backend(HASH, CSR, backend="vector") == "scalar"
