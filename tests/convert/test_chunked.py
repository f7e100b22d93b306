"""Chunk boundaries of the streamed conversion.

A :func:`~repro.convert.chunkable` pair runs its vector kernel chunk by
chunk over a coordinate stream, carrying ``group_ranks`` / ``unique_first``
state across chunks.  A row or fiber that straddles every chunk bound is
where that carried state matters most: the streamed result must still be
bit-identical to the in-memory vector backend.
"""

import numpy as np
import pytest

from repro.convert import chunkable
from repro.convert.engine import ConversionEngine
from repro.formats.library import COO, COO3, CSF, CSR
from repro.io.stream import write_stream
from repro.storage.build import reference_build
from repro.stream import convert_file


@pytest.fixture(scope="module")
def engine():
    return ConversionEngine()


def _assert_streamed_matches_vector(tmp_path, engine, src, dst, dims,
                                    cells, vals, chunk_nnz):
    assert chunkable(src, dst)
    expected = engine.convert(reference_build(src, dims, cells, vals), dst,
                              backend="vector")
    src_path = tmp_path / "source.bin"
    write_stream(src_path, dims, cells, vals)
    got = convert_file(src_path, dst, tmp_path / "out",
                       chunk_nnz=chunk_nnz).load()
    assert got.dims == expected.dims
    assert set(got.arrays) == set(expected.arrays)
    for key, array in expected.arrays.items():
        streamed = np.asarray(got.arrays[key])
        assert streamed.dtype == array.dtype, key
        np.testing.assert_array_equal(streamed, np.asarray(array), err_msg=key)
    assert got.metadata == expected.metadata
    np.testing.assert_array_equal(np.asarray(got.vals), np.asarray(expected.vals))


def test_chunk_boundary_splits_one_row(tmp_path, engine):
    """A single long row spanning every chunk: each chunk's yield
    positions must continue from the earlier chunks' count for that row."""
    n = 64
    cells = [(3, j) for j in range(n)] + [(5, 0)]
    vals = [float(j + 1) for j in range(len(cells))]
    _assert_streamed_matches_vector(tmp_path, engine, COO, CSR, (8, n),
                                    cells, vals, chunk_nnz=5)


def test_chunk_boundary_splits_one_fiber(tmp_path, engine):
    """A CSF fiber (shared (i, j) prefix) split across chunks: later
    chunks must reuse the first chunk's position for the prefix."""
    cells = [(0, 0, 0)] + [(1, 2, k) for k in range(40)] + [(2, 1, 1)]
    vals = [float(k + 1) for k in range(len(cells))]
    _assert_streamed_matches_vector(tmp_path, engine, COO3, CSF, (3, 3, 40),
                                    cells, vals, chunk_nnz=3)


def test_empty_tensor_chunks(tmp_path, engine):
    _assert_streamed_matches_vector(tmp_path, engine, COO, CSR, (6, 6),
                                    [], [], chunk_nnz=4)
