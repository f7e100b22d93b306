"""Sparse tensor storage: a format plus its concrete arrays.

A :class:`Tensor` owns the numpy arrays of every level (``pos``, ``crd``,
``perm``...), scalar metadata (e.g. ELL's ``K``), and the ``vals`` array.
It also implements the *host-side oracle*: interpreted traversal of the
coordinate hierarchy (``paths``/``to_coo``) through the same level
abstraction the code generator uses, which gives the test suite an
independent reference for every generated routine.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..formats.format import Format, FormatError
from ..remap.evaluate import apply_remap_once, CounterState

#: Instance attribute holding the memoized :meth:`Tensor.content_digest`
#: (same rebind-invalidation pattern as the structural-feature cache in
#: :mod:`repro.convert.features`).
_DIGEST_ATTR = "_repro_content_digest"


class Tensor:
    """A sparse tensor stored in some :class:`~repro.formats.format.Format`.

    ``arrays`` maps ``(level_index, array_name)`` to numpy arrays;
    ``meta`` maps ``(level_index, name)`` to scalars.  The canonical
    dimensions are ``dims``; remapped-dimension extents are derived from
    the format (plus metadata for data-dependent dimensions).
    """

    def __init__(
        self,
        format: Format,
        dims: Sequence[int],
        arrays: Dict[Tuple[int, str], np.ndarray],
        meta: Dict[Tuple[int, str], int],
        vals: np.ndarray,
    ) -> None:
        if len(dims) != format.order:
            raise FormatError(
                f"{format.name} is order-{format.order} but got dims {dims}"
            )
        self.format = format
        self.dims = tuple(int(d) for d in dims)
        self.arrays = dict(arrays)
        self.metadata = dict(meta)
        self.vals = vals
        self._extents = format.concrete_dim_extents(self.dims)
        self._lows = format.concrete_dim_lo(self.dims)

    # -- StorageView interface (used by level host methods) -----------------
    def array(self, k: int, name: str) -> np.ndarray:
        """Numpy array ``name`` of level ``k`` (e.g. ``array(1, "pos")``)."""
        return self.arrays[(k, name)]

    def meta(self, k: int, name: str) -> int:
        """Scalar metadata ``name`` of level ``k`` (e.g. ELL's K)."""
        return self.metadata[(k, name)]

    def dim_size(self, k: int) -> int:
        """Extent of remapped dimension ``k`` (metadata for counter dims)."""
        if self._extents[k] is not None:
            return self._extents[k]
        return self.metadata[(k, "K")]

    def dim_lo(self, k: int) -> int:
        """Lower coordinate bound of remapped dimension ``k``."""
        return 0 if self._lows[k] is None else self._lows[k]

    # -- basic facts ---------------------------------------------------------
    @property
    def nnz_stored(self) -> int:
        """Number of stored components, including padding zeros."""
        return int(len(self.vals))

    @property
    def nnz(self) -> int:
        """Number of stored nonzero values."""
        return int(np.count_nonzero(self.vals))

    def content_digest(self) -> str:
        """Stable sha256 hex digest of this tensor's stored content.

        Hashes the shape plus every level array (name, dtype and raw
        little-endian bytes), the scalar metadata, and the values array —
        so two tensors holding bit-identical storage share a digest, and
        any differing byte changes it.  The digest is the tensor half of
        the serving layer's data-cache key (the other half is the
        structural format key).

        The result is memoized on the instance, keyed by the identities
        of the component arrays (the same rebind-invalidation pattern as
        the structural-feature cache): rebinding different arrays
        invalidates the memo, but mutating an array *in place* does not
        — callers that rewrite arrays in place should drop the
        ``_repro_content_digest`` attribute.
        """
        token = (
            tuple(id(arr) for _, arr in sorted(self.arrays.items())),
            id(self.vals),
        )
        cached = getattr(self, _DIGEST_ATTR, None)
        if cached is not None and cached[0] == token:
            return cached[1]
        digest = hashlib.sha256()
        digest.update(repr(self.dims).encode())
        for (level, name), arr in sorted(self.arrays.items()):
            arr = np.ascontiguousarray(arr)
            if arr.dtype.byteorder == ">":  # big-endian never hashes raw
                arr = arr.astype(arr.dtype.newbyteorder("<"))
            digest.update(f"|{level}:{name}:{arr.dtype.str}|".encode())
            digest.update(arr.tobytes())
        for (level, name), value in sorted(self.metadata.items()):
            digest.update(f"|{level}:{name}={int(value)}|".encode())
        vals = np.ascontiguousarray(self.vals)
        if vals.dtype.byteorder == ">":
            vals = vals.astype(vals.dtype.newbyteorder("<"))
        digest.update(f"|vals:{vals.dtype.str}|".encode())
        digest.update(vals.tobytes())
        result = digest.hexdigest()
        try:
            setattr(self, _DIGEST_ATTR, (token, result))
        except AttributeError:  # pragma: no cover - exotic subclasses
            pass
        return result

    # -- oracle traversal ------------------------------------------------------
    def paths(self) -> Iterator[Tuple[Tuple[int, ...], int]]:
        """Yield every stored path as (level coordinates, leaf position).

        This interprets each level's iteration level functions — the same
        semantics the generated code compiles — making it a slow but
        trustworthy oracle.
        """
        levels = self.format.levels

        def rec(k: int, parent_pos: int, ancestors: Tuple[int, ...]):
            if k == len(levels):
                yield ancestors, parent_pos
                return
            for pos, coord in levels[k].iterate(self, k, parent_pos, ancestors):
                yield from rec(k + 1, pos, ancestors + (coord,))

        yield from rec(0, 0, ())

    def to_coo(self, skip_zeros: Optional[bool] = None) -> Dict[Tuple[int, ...], float]:
        """Canonical content: map from canonical coordinates to value.

        Padding zeros of padded formats (DIA/ELL/SKY...) are dropped by
        default; pass ``skip_zeros`` explicitly to override.
        """
        if skip_zeros is None:
            skip_zeros = self.format.padded
        inverse = self.format.inverse
        if inverse is None:
            raise FormatError(f"{self.format.name} has no inverse mapping")
        out: Dict[Tuple[int, ...], float] = {}
        counters = CounterState()
        for level_coords, leaf_pos in self.paths():
            value = float(self.vals[leaf_pos])
            if skip_zeros and value == 0.0:
                continue
            canonical = apply_remap_once(
                inverse, level_coords, self.format.params, counters
            )
            if canonical in out:
                raise FormatError(
                    f"duplicate canonical coordinate {canonical} in {self.format.name}"
                )
            out[canonical] = value
        return out

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense numpy array (for kernel tests)."""
        dense = np.zeros(self.dims, dtype=np.float64)
        for coords, value in self.to_coo(skip_zeros=True).items():
            dense[coords] = value
        return dense

    # -- conversion convenience ------------------------------------------------
    def to(self, dst_format, options=None, backend=None, engine=None,
           route=None) -> "Tensor":
        """Convert to ``dst_format`` (a :class:`Format` or a registry spec
        string like ``"CSR"`` / ``"BCSR8x8"``) with a generated routine.

        Uses the process-wide default engine unless ``engine`` (a
        :class:`~repro.convert.engine.ConversionEngine`) is given (see
        :meth:`ConversionEngine.convert
        <repro.convert.engine.ConversionEngine.convert>`)::

            csr = tensor.to("CSR")
            dia = tensor.to(DIA, engine=my_engine)
        """
        if engine is None:
            from ..convert.engine import default_engine

            engine = default_engine()
        return engine.convert(self, dst_format, options, backend, route)

    def spmv(self, x, via="CSR", fuse="auto", backend=None, engine=None):
        """``y = A @ x`` through the fusion planner (:mod:`repro.compute`).

        ``via`` names the compute format the pipeline would convert to;
        with ``fuse="auto"`` the engine runs the **fused** kernel that
        consumes this tensor's format directly wherever the op can (the
        intermediate's arrays are then never allocated), and
        materializes ``via`` otherwise.  ``via=None`` computes in this
        tensor's own format; ``fuse=True`` / ``fuse=False`` pin the
        decision::

            y = tensor.spmv(x)                    # fused where it can be
            y = tensor.spmv(x, via="DIA", fuse=True)
        """
        if engine is None:
            from ..convert.engine import default_engine

            engine = default_engine()
        return engine.spmv(self, x, via=via, fuse=fuse, backend=backend)

    # -- scipy interop ---------------------------------------------------------
    @classmethod
    def from_scipy(cls, matrix, format=None, engine=None) -> "Tensor":
        """Build a tensor from a ``scipy.sparse`` matrix.

        The entries arrive in the scipy matrix's COO order; pass
        ``format`` (a :class:`Format` or spec string) to convert onward
        with a generated routine (through ``engine`` or the default)::

            csr = Tensor.from_scipy(scipy_matrix, "CSR")
        """
        from ..formats.library import COO

        coo = matrix.tocoo()
        if not getattr(coo, "has_canonical_format", True):
            # scipy COO may carry duplicate entries (its semantics: they
            # sum); the library's builders/oracle require unique
            # coordinates, so canonicalize a copy first.
            coo = coo.copy()
            coo.sum_duplicates()
        rows = np.asarray(coo.row, dtype=np.int64)
        cols = np.asarray(coo.col, dtype=np.int64)
        vals = np.asarray(coo.data, dtype=np.float64)
        arrays = {
            (0, "pos"): np.array([0, len(vals)], dtype=np.int64),
            (0, "crd"): rows,
            (1, "crd"): cols,
        }
        tensor = cls(COO, coo.shape, arrays, {}, vals)
        if format is None:
            return tensor
        return tensor.to(format, engine=engine)

    def to_scipy(self, kind: str = "coo", engine=None):
        """Export as a ``scipy.sparse`` matrix (``kind``: coo/csr/csc...).

        Matrix formats only.  The tensor is brought to COO with a
        generated routine (a no-op for COO tensors) and handed to scipy,
        which converts to any of its own formats from there::

            sp = tensor.to_scipy("csr")      # scipy.sparse.csr_matrix
            tensor.to("DIA").to_scipy("csc") # convert, then export
        """
        import scipy.sparse  # deliberately late: scipy is optional

        from ..formats.library import COO
        from ..convert.planner import structural_key

        if self.format.order != 2:
            raise FormatError(
                f"to_scipy exports matrices; {self.format.name} is "
                f"order-{self.format.order}"
            )
        if structural_key(self.format) == structural_key(COO):
            coo = self
        else:
            coo = self.to(COO, engine=engine)
        matrix = scipy.sparse.coo_matrix(
            (coo.vals, (coo.array(0, "crd"), coo.array(1, "crd"))),
            shape=coo.dims,
        )
        return matrix.asformat(kind)

    # -- validation ------------------------------------------------------------
    def check(self) -> None:
        """Validate structural invariants of every level; raises on failure."""
        size = 1
        for k, level in enumerate(self.format.levels):
            size = level.check(self, k, size)
        if len(self.vals) != size:
            raise FormatError(f"vals length {len(self.vals)} != leaf size {size}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = "x".join(str(d) for d in self.dims)
        return f"<Tensor {self.format.name} {dims} nnz={self.nnz}>"
