"""Hypothesis strategies and helpers for the streaming harness.

The generator itself is the library one (:func:`repro.verify.
random_tensor_case`, re-exported through ``tests/support/tensorgen``) so
a failing hypothesis example prints a ``seed``/``ordering`` pair that
also reproduces under ``python -m repro.verify fuzz``.  The strategies
here wrap it for property-based use and add the chunk-size machinery:
every differential property runs at several chunk sizes, including one
computed to land **mid-row** (inside a run of equal leading
coordinates), the boundary the carried-state runtime exists for.
"""

import numpy as np
from hypothesis import strategies as st

from ..support.tensorgen import TensorCase, constrain_case, random_tensor_case

#: Destination specs of every streamable pair, by source order.
STREAM_DSTS_2D = ("COO", "CSR", "CSC", "DIA", "ELL", "SKY", "DCSR",
                  "BCSR2x2", "HICOO2")
STREAM_DSTS_3D = ("COO3", "CSF")


@st.composite
def tensor_cases(draw, order=2, max_dim=24):
    """A seeded :class:`TensorCase`: hypothesis shrinks over the seed and
    ordering, the case itself is deterministic in both."""
    seed = draw(st.integers(min_value=0, max_value=2**20))
    ordering = draw(st.sampled_from(
        ("sorted", "reverse", "random", "rowheavy", "empty", "dense")
        + (("diagonal",) if order == 2 else ())
    ))
    return random_tensor_case(seed, order=order, max_dim=max_dim,
                              ordering=ordering)


def mid_row_chunk(case: TensorCase) -> int:
    """A chunk size that splits a run of equal leading coordinates.

    Finds the longest run of equal first coordinates and returns a chunk
    bound ending strictly inside it, so a destination row straddles two
    chunks (the carried group-rank/seen-table paths must fire).  Falls
    back to 3 when every slice has a single entry.
    """
    if case.nnz < 2:
        return 3
    lead = case.columns()[0]
    runs = np.flatnonzero(np.diff(lead) != 0)
    starts = np.concatenate(([0], runs + 1))
    ends = np.concatenate((runs + 1, [len(lead)]))
    lengths = ends - starts
    best = int(np.argmax(lengths))
    if lengths[best] < 2:
        return 3
    return max(1, int(starts[best]) + 1)


def chunk_sizes(case: TensorCase):
    """At least three chunk bounds: tiny, mid-row straddling, and one
    bigger than the whole stream (the degenerate single-chunk run)."""
    return sorted({
        max(1, case.nnz // 3 or 1),
        mid_row_chunk(case),
        case.nnz + 7,
    })


def coo_source(case: TensorCase):
    """The case as an in-memory COO/COO3 tensor **in stream order**.

    ``reference_build`` canonicalizes coordinate order; the differential
    property needs the in-memory engine to see exactly the byte stream's
    entry order, so the tensor is assembled directly.
    """
    from repro.formats import get_format
    from repro.storage.tensor import Tensor

    fmt = get_format("COO" if len(case.dims) == 2 else "COO3")
    columns = case.columns()
    arrays = {(0, "pos"): np.array([0, case.nnz], dtype=np.int64)}
    for k in range(len(case.dims)):
        arrays[(k, "crd")] = columns[k]
    return Tensor(fmt, case.dims, arrays, {}, columns[-1])


def assert_stream_matches_memory(tmp_path, engine, case: TensorCase,
                                 dst_format, chunk_nnz: int,
                                 src_path=None) -> None:
    """The core property: ``convert_file`` output is bit-identical to the
    in-memory vector backend on the same source."""
    from repro.io.stream import write_stream
    from repro.stream import convert_file

    case = constrain_case(dst_format, case)
    if src_path is None:
        src_path = tmp_path / f"case-{case.seed}.bin"
        columns = case.columns()
        write_stream(src_path, case.dims, list(columns[:-1]), columns[-1])
    expected = engine.convert(coo_source(case), dst_format, backend="vector")
    out_dir = tmp_path / f"out-{case.seed}-{dst_format.name}-{chunk_nnz}"
    result = convert_file(src_path, dst_format, out_dir,
                          chunk_nnz=chunk_nnz, overwrite=True)
    got = result.load()
    assert got.dims == expected.dims
    assert set(got.arrays) == set(expected.arrays)
    for key, array in expected.arrays.items():
        streamed = np.asarray(got.arrays[key])
        assert streamed.dtype == array.dtype, key
        assert np.array_equal(streamed, np.asarray(array)), (
            f"{dst_format.name} {key} differs at chunk_nnz={chunk_nnz} "
            f"(seed={case.seed}, ordering={case.ordering})"
        )
    assert got.metadata == expected.metadata
    assert np.asarray(got.vals).dtype == np.asarray(expected.vals).dtype
    assert np.array_equal(np.asarray(got.vals), np.asarray(expected.vals))
