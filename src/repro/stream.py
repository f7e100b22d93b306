"""Out-of-core conversion: :func:`convert_file` and friends.

This is the public face of the streaming subsystem.  It wires together

* the bounded-memory source readers (:mod:`repro.io.stream`),
* the pass-scheduled streaming executor
  (:mod:`repro.convert.streamed`), and
* memmap-backed destination storage (:mod:`repro.storage.memmap`)

so a tensor that never fits in memory can still be converted with the
same generated kernels — bit-identically to the in-memory
``engine.convert`` path (``tests/stream`` asserts this property over
every chunkable pair).

The destination directory is produced atomically: all level arrays are
written into a ``<out_dir>.tmp.<pid>`` sibling and renamed into place
only after the manifest is durable, mirroring the kernel-cache and
native-``.so`` write pattern — a failed or interrupted conversion never
leaves a partial result behind.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Tuple

from .convert.streamed import plan_streamed
from .formats import get_format, parse_format_spec
from .io.stream import DEFAULT_CHUNK_NNZ, StreamError, open_stream
from .storage.memmap import MemmapStore, load_arrays
from .storage.tensor import Tensor

__all__ = ["StreamResult", "convert_file", "load_result", "source_format_for"]


def source_format_for(order: int):
    """The coordinate source format matching a stream's order."""
    if order == 2:
        return get_format("COO")
    if order == 3:
        return get_format("COO3")
    raise StreamError(
        f"no coordinate source format for order-{order} streams "
        "(supported: 2, 3)"
    )


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set size, in bytes.

    Prefers ``VmHWM`` from ``/proc/self/status``: unlike ``ru_maxrss``
    (which survives ``execve`` and so reports the *forking parent's*
    resident set when this process was spawned from a large one — e.g.
    the benchmark harness), the high-water mark belongs to this
    process's own address space.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


@dataclass
class StreamResult:
    """Outcome of one :func:`convert_file` run.

    ``source_bytes`` is what materializing the source in memory would
    cost (``nnz * 8 * (order + 1)``: int64 coordinates plus float64
    values) — the yardstick the peak-RSS acceptance gate is measured
    against.  ``peak_rss_bytes`` is the process-lifetime high-water
    mark, so it includes whatever ran before the conversion; benchmarks
    wanting a clean number run the conversion in a fresh process
    (``benchmarks/harness`` does).
    """

    out_dir: str
    dst_format: str
    dims: Tuple[int, ...]
    nnz: int
    chunk_nnz: int
    passes: int
    chunks: int
    source_bytes: int
    peak_rss_bytes: int
    elapsed_seconds: float

    def load(self, mode: str = "r") -> Tensor:
        """Open the result as a (memmap-backed) :class:`Tensor`."""
        return load_result(self.out_dir, mode=mode)


def convert_file(
    src_path,
    dst_spec,
    out_dir,
    *,
    chunk_nnz: int = DEFAULT_CHUNK_NNZ,
    engine=None,
    overwrite: bool = False,
) -> StreamResult:
    """Convert the coordinate stream at ``src_path`` into ``out_dir``.

    ``src_path`` is a Matrix Market file (plain or ``.gz``) or a binary
    coordinate stream (:func:`repro.io.stream.write_stream`); it is read
    in ``chunk_nnz``-sized chunks and never materialized.  ``dst_spec``
    is any format spec string (or :class:`Format`) whose pair is
    :func:`~repro.convert.streamed.chunkable`.  The destination level
    arrays land as memmap-backed files under ``out_dir`` with a
    ``manifest.json`` (see :mod:`repro.storage.memmap`);
    ``overwrite=True`` replaces an existing directory, otherwise one is
    an error.

    Peak memory is O(dimensions + chunk): source chunks are bounded,
    destination pages are dropped from the resident set as each chunk's
    scatters retire.  Raises :class:`~repro.io.stream.StreamError` for
    unstreamable pairs and malformed sources; on any failure the
    temporary directory is removed and ``out_dir`` is left untouched.
    """
    dst_format = (
        parse_format_spec(dst_spec) if isinstance(dst_spec, str) else dst_spec
    )
    out_dir = os.fspath(out_dir)
    if os.path.exists(out_dir):
        if not overwrite:
            raise StreamError(
                f"{out_dir}: output directory exists (pass overwrite=True)"
            )
    reader = open_stream(src_path, chunk_nnz=chunk_nnz)
    src_format = source_format_for(reader.order)
    plan = plan_streamed(src_format, dst_format)
    if plan is None:
        raise StreamError(
            f"{src_format.name} -> {dst_format.name} is not streamable "
            "(its vector kernel cannot run chunk by chunk)"
        )
    started = time.perf_counter()
    tmp_dir = f"{out_dir}.tmp.{os.getpid()}"
    store = MemmapStore(tmp_dir)
    try:
        plan.execute(reader, store)
        store.finalize(
            format=dst_format.name,
            dims=list(reader.dims),
            nnz=reader.nnz,
            source=os.fspath(src_path),
            chunk_nnz=int(chunk_nnz),
            passes=plan.passes,
        )
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        os.replace(tmp_dir, out_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    elapsed = time.perf_counter() - started
    if engine is not None:
        engine._record_conversion((src_format.name, dst_format.name),
                                  routed=False)
    return StreamResult(
        out_dir=out_dir,
        dst_format=dst_format.name,
        dims=tuple(reader.dims),
        nnz=reader.nnz,
        chunk_nnz=int(chunk_nnz),
        passes=plan.passes,
        chunks=plan.passes * max(1, -(-reader.nnz // int(chunk_nnz))),
        source_bytes=reader.nnz * 8 * (reader.order + 1),
        peak_rss_bytes=peak_rss_bytes(),
        elapsed_seconds=elapsed,
    )


def load_result(out_dir, mode: str = "r") -> Tensor:
    """Load a :func:`convert_file` output directory as a :class:`Tensor`.

    Arrays come back memmap-backed (read-only by default), so loading a
    bigger-than-RAM result does not materialize it; pass ``mode="r+"``
    for in-place mutation.
    """
    out_dir = os.fspath(out_dir)
    try:
        manifest, values = load_arrays(out_dir, mode=mode)
    except FileNotFoundError as exc:
        raise StreamError(f"{out_dir}: not a conversion result ({exc})") from exc
    fmt = parse_format_spec(manifest["format"])
    arrays = {}
    meta = {}
    vals = None
    for name, entry in manifest["entries"].items():
        level, part = int(entry["level"]), entry["part"]
        if entry["kind"] == "scalar":
            meta[(level, part)] = int(values[name])
        elif level == -1:
            vals = values[name]
        else:
            arrays[(level, part)] = values[name]
    if vals is None:
        raise StreamError(f"{out_dir}: manifest has no values array")
    return Tensor(fmt, tuple(manifest["dims"]), arrays, meta, vals)
