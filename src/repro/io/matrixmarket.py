"""Matrix Market (.mtx) coordinate-format reader and writer.

The paper's evaluation inputs come from the SuiteSparse collection, which
distributes Matrix Market files.  This module supports the coordinate
subset sufficient for SuiteSparse matrices: real/integer/pattern values,
general/symmetric/skew-symmetric storage.  SuiteSparse downloads arrive
gzipped, so ``.mtx.gz`` paths are read (and written) transparently.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..formats.format import Format
from .stream import MatrixMarketStream, StreamError, _open_text

#: Raised for malformed Matrix Market content.  There is one Matrix
#: Market parser (:class:`repro.io.stream.MatrixMarketStream`), so this
#: is its error type under the in-memory reader's historical name.
MatrixMarketError = StreamError


def read_matrix_market(path) -> Tuple[Tuple[int, int], List[Tuple[int, int]], List[float]]:
    """Read a coordinate Matrix Market file (gzipped if ``path`` ends
    in ``.gz``, as SuiteSparse distributes them).

    Returns ``(dims, coords, vals)`` with zero-based coordinates.
    Symmetric and skew-symmetric storage is expanded to general form.
    The file is drained through the streaming reader, so it is validated
    the same way: a malformed header or entry, an out-of-bounds
    coordinate, or an entry count disagreeing with the header raises
    :class:`MatrixMarketError`.
    """
    stream = MatrixMarketStream(path)
    coords: List[Tuple[int, int]] = []
    vals: List[float] = []
    for rows, cols, values in stream.chunks():
        coords.extend(zip(rows.tolist(), cols.tolist()))
        vals.extend(values.tolist())
    return stream.dims, coords, vals


def write_matrix_market(path, dims, coords: Sequence[Tuple[int, int]], vals) -> None:
    """Write a general real coordinate Matrix Market file (1-based),
    gzipped when ``path`` ends in ``.gz``."""
    with _open_text(path, "w") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"{dims[0]} {dims[1]} {len(coords)}\n")
        for (i, j), value in zip(coords, vals):
            handle.write(f"{i + 1} {j + 1} {value!r}\n")


def read_tensor(path, format: Optional[Format] = None):
    """Read a Matrix Market file directly into a tensor (default COO)."""
    from ..formats.library import COO
    from ..storage.build import reference_build

    dims, coords, vals = read_matrix_market(path)
    return reference_build(format or COO, dims, coords, vals)
