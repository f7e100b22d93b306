"""Bounded-memory coordinate stream readers and writers.

The in-memory reader (:mod:`repro.io.matrixmarket`) materializes the
whole nonzero list before building a tensor; for sources bigger than RAM
that is exactly the step that cannot happen.  This module reads the same
sources **chunk by chunk**: a :class:`CoordinateStream` knows the tensor
dimensions and total entry count up front (from the header) and yields
bounded-size numpy chunks ``(crd_0, ..., crd_{order-1}, vals)`` of at
most ``chunk_nnz`` entries, never holding more than one chunk at a time.
The streaming conversion executor (:mod:`repro.convert.streamed`) makes
one pass over ``chunks()`` per plan phase, so a stream must be
re-iterable — both readers re-open the file on every ``chunks()`` call.

Two source formats are supported, sniffed by :func:`open_stream`:

* **Matrix Market** coordinate files (``.mtx`` / ``.mtx.gz``):
  real/integer/pattern, general/symmetric/skew-symmetric.  This is the
  package's one Matrix Market parser —
  :func:`repro.io.matrixmarket.read_matrix_market` drains it — so a
  streamed conversion is bit-identical to converting
  ``read_tensor(path)``; each mirrored entry of a symmetric file follows
  its stored entry directly.
* The **binary wire format** (``REPROCOO1``): a fixed header followed by
  columnar little-endian ``int64`` coordinate sections and a ``float64``
  value section.  This is the fast path — chunked reads are plain
  ``np.fromfile`` slices — and the format :func:`write_stream` produces.

Every malformed input — bad header, truncated payload (mid-chunk EOF),
an entry count disagreeing with the header — raises :class:`StreamError`
with the offending path in the message, never a numpy shape error.
"""

from __future__ import annotations

import gzip
import os
import struct
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "BINARY_MAGIC",
    "DEFAULT_CHUNK_NNZ",
    "BinaryStream",
    "BinaryStreamWriter",
    "CoordinateStream",
    "MatrixMarketStream",
    "StreamError",
    "open_stream",
    "write_stream",
]

#: Default chunk bound (entries per chunk) of the streaming readers.
DEFAULT_CHUNK_NNZ = 1 << 20

#: Magic prefix of the binary coordinate-stream format (8 bytes).
BINARY_MAGIC = b"REPROCOO"

#: Version written after the magic; bump on any layout change.
BINARY_VERSION = 1

_HEADER = struct.Struct("<8sqq")  # magic, version, order
_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")


class StreamError(ValueError):
    """A coordinate stream could not be parsed or validated."""


def _open_text(path, mode: str = "r"):
    """Open ``path`` for text I/O, through gzip for ``.gz`` paths."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


class CoordinateStream:
    """A re-iterable, bounded-memory source of coordinate chunks.

    Attributes
    ----------
    path, dims, order, nnz, chunk_nnz:
        Source path, tensor dimensions, number of coordinate levels, the
        total entry count the stream yields (after symmetry expansion),
        and the per-chunk entry bound.
    """

    path: str
    dims: Tuple[int, ...]
    order: int
    nnz: int
    chunk_nnz: int

    def chunks(self) -> Iterator[Tuple[np.ndarray, ...]]:
        """Yield ``(crd_0, ..., crd_{order-1}, vals)`` chunks in order.

        Coordinates are zero-based ``int64``, values ``float64``; every
        chunk holds at most ``chunk_nnz`` entries.  An empty stream
        yields exactly one zero-length chunk, so consumers that fold
        over chunks always run at least once.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _check_bounds(self, columns: Sequence[np.ndarray]) -> None:
        for k, column in enumerate(columns[: self.order]):
            if column.size == 0:
                continue
            lo, hi = int(column.min()), int(column.max())
            if lo < 0 or hi >= self.dims[k]:
                raise StreamError(
                    f"{self.path}: coordinate {hi if hi >= self.dims[k] else lo}"
                    f" out of bounds for dimension {k} of size {self.dims[k]}"
                )


class MatrixMarketStream(CoordinateStream):
    """Streaming Matrix Market coordinate reader (``.mtx`` / ``.mtx.gz``)."""

    def __init__(self, path, chunk_nnz: int = DEFAULT_CHUNK_NNZ) -> None:
        if chunk_nnz < 1:
            raise ValueError(f"chunk_nnz must be >= 1, got {chunk_nnz}")
        self.path = os.fspath(path)
        self.chunk_nnz = int(chunk_nnz)
        self.order = 2
        with _open_text(self.path) as handle:
            self._field, self._symmetry, self.dims, self._stored = (
                self._parse_header(handle)
            )
        if self._symmetry == "general":
            self.nnz = self._stored
        else:
            # Mirrored off-diagonal entries double up; one cheap text
            # pre-pass pins the expanded count (needed up front to size
            # the destination arrays).
            self.nnz = self._count_expanded()

    # ------------------------------------------------------------------
    def _parse_header(self, handle):
        header = handle.readline().strip().split()
        if len(header) < 4 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
            raise StreamError(f"{self.path}: not a Matrix Market matrix file")
        layout, field = header[2].lower(), header[3].lower()
        symmetry = header[4].lower() if len(header) > 4 else "general"
        if layout != "coordinate":
            raise StreamError(f"{self.path}: only coordinate layout is supported")
        if field not in ("real", "integer", "pattern"):
            raise StreamError(f"{self.path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric", "skew-symmetric"):
            raise StreamError(f"{self.path}: unsupported symmetry {symmetry!r}")
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        try:
            nrows, ncols, stored = (int(tok) for tok in line.split())
        except ValueError as exc:
            raise StreamError(f"{self.path}: bad size line {line!r}") from exc
        if nrows < 0 or ncols < 0 or stored < 0:
            raise StreamError(f"{self.path}: bad size line {line!r}")
        return field, symmetry, (nrows, ncols), stored

    def _entries(self):
        """Parse entries, applying symmetry expansion in reader order."""
        with _open_text(self.path) as handle:
            self._parse_header(handle)
            seen = 0
            for line in handle:
                tokens = line.split()
                if not tokens:
                    continue
                if seen >= self._stored:
                    raise StreamError(
                        f"{self.path}: {self._stored} entries declared but "
                        f"more follow (entry count disagrees with header)"
                    )
                try:
                    i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
                    value = 1.0 if self._field == "pattern" else float(tokens[2])
                except (ValueError, IndexError) as exc:
                    raise StreamError(
                        f"{self.path}: bad entry line {line!r}"
                    ) from exc
                seen += 1
                yield i, j, value
                if self._symmetry != "general" and i != j:
                    yield j, i, (
                        -value if self._symmetry == "skew-symmetric" else value
                    )
            if seen != self._stored:
                raise StreamError(
                    f"{self.path}: truncated entry list — header declares "
                    f"{self._stored} entries, found {seen}"
                )

    def _count_expanded(self) -> int:
        return sum(1 for _ in self._entries())

    def chunks(self) -> Iterator[Tuple[np.ndarray, ...]]:
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        emitted = False

        def flush():
            chunk = (
                np.array(rows, dtype=np.int64),
                np.array(cols, dtype=np.int64),
                np.array(vals, dtype=np.float64),
            )
            self._check_bounds(chunk)
            rows.clear(), cols.clear(), vals.clear()
            return chunk

        for i, j, value in self._entries():
            rows.append(i), cols.append(j), vals.append(value)
            if len(rows) >= self.chunk_nnz:
                emitted = True
                yield flush()
        if rows or not emitted:
            yield flush()


class BinaryStream(CoordinateStream):
    """Streaming reader of the ``REPROCOO`` binary wire format.

    Layout: ``magic(8) | version(i64) | order(i64) | dims[order](i64)
    | nnz(i64)`` followed by ``order`` contiguous ``int64`` coordinate
    sections and one ``float64`` value section, each of ``nnz`` entries.
    The columnar layout makes a chunked read of column ``k`` a single
    seek plus a bounded ``np.fromfile``.
    """

    def __init__(self, path, chunk_nnz: int = DEFAULT_CHUNK_NNZ) -> None:
        if chunk_nnz < 1:
            raise ValueError(f"chunk_nnz must be >= 1, got {chunk_nnz}")
        self.path = os.fspath(path)
        self.chunk_nnz = int(chunk_nnz)
        with open(self.path, "rb") as handle:
            head = handle.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise StreamError(f"{self.path}: truncated stream header")
            magic, version, order = _HEADER.unpack(head)
            if magic != BINARY_MAGIC:
                raise StreamError(f"{self.path}: not a {BINARY_MAGIC.decode()} stream")
            if version != BINARY_VERSION:
                raise StreamError(
                    f"{self.path}: unsupported stream version {version} "
                    f"(expected {BINARY_VERSION})"
                )
            if not 1 <= order <= 16:
                raise StreamError(f"{self.path}: implausible order {order}")
            self.order = int(order)
            tail = handle.read(8 * (self.order + 1))
            if len(tail) < 8 * (self.order + 1):
                raise StreamError(f"{self.path}: truncated stream header")
            values = struct.unpack(f"<{self.order + 1}q", tail)
            self.dims = tuple(int(d) for d in values[: self.order])
            self.nnz = int(values[self.order])
        if self.nnz < 0 or any(d < 0 for d in self.dims):
            raise StreamError(f"{self.path}: negative sizes in stream header")
        self._payload = _HEADER.size + 8 * (self.order + 1)
        expected = self._payload + self.nnz * 8 * (self.order + 1)
        actual = os.path.getsize(self.path)
        if actual != expected:
            raise StreamError(
                f"{self.path}: payload size disagrees with header — expected "
                f"{expected} bytes for {self.nnz} entries, file has {actual} "
                f"({'mid-chunk EOF' if actual < expected else 'trailing data'})"
            )

    def _section(self, column: int) -> int:
        """Byte offset of coordinate section ``column`` (order = vals)."""
        return self._payload + column * 8 * self.nnz

    def chunks(self) -> Iterator[Tuple[np.ndarray, ...]]:
        with open(self.path, "rb") as handle:
            for start in range(0, max(self.nnz, 1), self.chunk_nnz):
                count = min(self.chunk_nnz, self.nnz - start)
                columns = []
                for column in range(self.order + 1):
                    handle.seek(self._section(column) + 8 * start)
                    dtype = _F64 if column == self.order else _I64
                    data = np.fromfile(handle, dtype=dtype, count=count)
                    if data.size != count:
                        raise StreamError(
                            f"{self.path}: mid-chunk EOF at entry "
                            f"{start + data.size} of {self.nnz}"
                        )
                    columns.append(data.astype(data.dtype.newbyteorder("="),
                                               copy=False))
                self._check_bounds(columns)
                yield tuple(columns)


class BinaryStreamWriter:
    """Incremental writer of the binary wire format.

    The entry count must be known up front (the columnar layout needs
    it to place sections); :meth:`append` may then be called any number
    of times with bounded chunks.  The stream is written to a ``.tmp``
    sibling and atomically renamed into place on :meth:`close` — a
    crashed writer never leaves a partial stream behind.
    """

    def __init__(self, path, dims: Sequence[int], nnz: int) -> None:
        self.path = os.fspath(path)
        self.dims = tuple(int(d) for d in dims)
        self.order = len(self.dims)
        self.nnz = int(nnz)
        if self.nnz < 0:
            raise ValueError(f"nnz must be >= 0, got {nnz}")
        self._tmp = f"{self.path}.tmp.{os.getpid()}"
        self._written = 0
        self._closed = False
        self._handle = open(self._tmp, "wb")
        header = _HEADER.pack(BINARY_MAGIC, BINARY_VERSION, self.order)
        header += struct.pack(f"<{self.order + 1}q", *self.dims, self.nnz)
        self._payload = len(header)
        self._handle.write(header)
        self._handle.truncate(self._payload + self.nnz * 8 * (self.order + 1))

    def append(self, *columns: np.ndarray) -> None:
        """Append one chunk: ``order`` coordinate arrays plus values."""
        if self._closed:
            raise ValueError("writer is closed")
        if len(columns) != self.order + 1:
            raise ValueError(
                f"expected {self.order} coordinate arrays plus values, "
                f"got {len(columns)} arrays"
            )
        count = len(columns[0])
        if any(len(c) != count for c in columns):
            raise ValueError("chunk columns disagree in length")
        if self._written + count > self.nnz:
            raise ValueError(
                f"stream overflow: {self._written + count} entries appended, "
                f"{self.nnz} declared"
            )
        for column, data in enumerate(columns):
            dtype = _F64 if column == self.order else _I64
            start = self._payload + column * 8 * self.nnz + 8 * self._written
            self._handle.seek(start)
            np.ascontiguousarray(data, dtype=dtype).tofile(self._handle)
        self._written += count

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._handle.close()
        if self._written != self.nnz:
            os.unlink(self._tmp)
            raise ValueError(
                f"stream underflow: {self._written} entries appended, "
                f"{self.nnz} declared"
            )
        os.replace(self._tmp, self.path)

    def abort(self) -> None:
        """Discard the partially written stream."""
        if not self._closed:
            self._closed = True
            self._handle.close()
            if os.path.exists(self._tmp):
                os.unlink(self._tmp)

    def __enter__(self) -> "BinaryStreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_stream(path, dims: Sequence[int], coords, vals) -> None:
    """Write a binary coordinate stream in one shot.

    ``coords`` is either a sequence of coordinate tuples (the
    :func:`repro.storage.build.reference_build` convention) or a tuple
    of per-dimension arrays.
    """
    dims = tuple(int(d) for d in dims)
    coords = list(coords)
    if coords and isinstance(coords[0], np.ndarray) and np.ndim(coords[0]) == 1:
        columns = [np.asarray(c, dtype=np.int64) for c in coords]
    else:
        columns = [
            np.array([c[k] for c in coords], dtype=np.int64)
            for k in range(len(dims))
        ]
    values = np.asarray(vals, dtype=np.float64)
    with BinaryStreamWriter(path, dims, len(values)) as writer:
        writer.append(*columns, values)


def open_stream(path, chunk_nnz: int = DEFAULT_CHUNK_NNZ) -> CoordinateStream:
    """Open ``path`` as a coordinate stream, sniffing the format.

    Binary streams are recognized by their magic; anything else must be
    a Matrix Market file.  Raises :class:`StreamError` when the file is
    neither, or fails header validation.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise StreamError(f"{path}: no such file")
    if not str(path).endswith(".gz"):
        with open(path, "rb") as handle:
            if handle.read(len(BINARY_MAGIC)) == BINARY_MAGIC:
                return BinaryStream(path, chunk_nnz)
    return MatrixMarketStream(path, chunk_nnz)
