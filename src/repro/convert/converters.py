"""Competing converters: multiple registered implementations per edge.

The code generator gives every (src, dst) pair a scalar and (usually) a
vector lowering, and bridges cover bulk extractions — but they are not
necessarily the fastest implementation available on a given host.  This
module lets any callable compete for an edge::

    from repro.convert import register_converter

    def my_coo_to_csr(tensor, dst):          # returns a Tensor in dst
        ...

    register_converter("COO", "CSR", my_coo_to_csr,
                       filter=lambda f: f.sortedness >= 1.0,
                       weight=1.0, name="my-coo-csr")

Registered converters are keyed *structurally* (renamed twins share
them).  At planning time the router prices every admitted competitor —
the generated kernel, the bridge, and each registered converter whose
``filter`` accepts the tensor's :class:`~repro.convert.features.
StructuralFeatures` (read from a bounded sample) — and the cheapest
``cost * weight`` wins (ties break on lower weight, then name, so
selection is deterministic).  At execution time the engine re-checks a
filtered winner's predicate against the actual tensor's exact
``sortedness >= 1.0`` fact (the other fields stay the sample's) and
falls back to the generated kernel when it refuses, so bit-identity
never depends on a planning-time guess.

When scipy is importable, four scipy-delegated converters register
themselves for the matrix compression edges.  They are **predicated on
exact bit-identity**: scipy's COO compressors canonicalize (sort column
indices within each row), so they only compete when the coordinate
stream is already fully sorted; the CSR<->CSC transposes are stable
counting sorts that preserve stream order and explicit zeros, so they
compete unconditionally.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..formats.format import Format, FormatError
from ..formats.registry import FormatSpec, get_format
from ..storage.tensor import Tensor
from .features import StructuralFeatures
from .planner import structural_key

__all__ = [
    "Converter",
    "converter_named",
    "converters_for",
    "register_converter",
    "run_converter",
    "scipy_available",
    "unregister_converter",
]

#: Converter callables take ``(tensor, dst_format)`` and return a
#: :class:`Tensor` stored in ``dst_format`` (or a structural twin; the
#: runner retags).  Filters take :class:`StructuralFeatures` -> bool.
ConverterFunc = Callable[[Tensor, Format], Tensor]
ConverterFilter = Callable[[StructuralFeatures], bool]


@dataclass(frozen=True)
class Converter:
    """One registered implementation competing for a conversion edge.

    ``weight`` scales the cost model's estimate when ranking competitors
    (< 1 favours, > 1 penalizes); ``filter`` is an optional admission
    predicate over the tensor's structural features — a converter whose
    predicate refuses never runs, and the generated kernel takes over.
    """

    name: str
    src: Format
    dst: Format
    func: ConverterFunc = field(repr=False, compare=False)
    filter: Optional[ConverterFilter] = field(
        default=None, repr=False, compare=False
    )
    weight: float = 1.0

    def admits(self, features: Optional[StructuralFeatures]) -> bool:
        """Whether this converter may run for a tensor with ``features``
        (``None`` — e.g. planning without a tensor — admits predicated
        converters optimistically; execution re-checks)."""
        if self.filter is None or features is None:
            return True
        return bool(self.filter(features))


_LOCK = threading.Lock()
#: (structural src key, structural dst key) -> {name: Converter}
_CONVERTERS: Dict[Tuple, Dict[str, Converter]] = {}
#: bumped by every successful register/unregister; engines fold it into
#: their route-cache key so cached routes never outlive the registry
#: state they were planned against
_REGISTRY_VERSION = 0


def registry_version() -> int:
    """Monotonic counter advanced by each register/unregister call."""
    with _LOCK:
        return _REGISTRY_VERSION


def _pair_key(src: Format, dst: Format) -> Tuple:
    return (structural_key(src), structural_key(dst))


def register_converter(
    src: FormatSpec,
    dst: FormatSpec,
    func: ConverterFunc,
    *,
    filter: Optional[ConverterFilter] = None,
    weight: float = 1.0,
    name: Optional[str] = None,
) -> Converter:
    """Register ``func`` as a competing converter for ``src -> dst``.

    ``src``/``dst`` are :class:`Format` objects or registry spec strings
    (``"CSR"``, ``"BCSR4x4"``...).  ``func(tensor, dst_format)`` must
    return the converted tensor **bit-identical to the direct scalar
    conversion** for every tensor its ``filter`` admits — the router
    freely substitutes it for the generated kernel.  Returns the
    :class:`Converter` record; registering a second converter under the
    same ``name`` for the same structural pair raises ``ValueError``
    (unregister the old one first).
    """
    src = get_format(src)
    dst = get_format(dst)
    if not callable(func):
        raise TypeError(f"converter func must be callable, got {func!r}")
    if filter is not None and not callable(filter):
        raise TypeError(f"converter filter must be callable, got {filter!r}")
    try:
        weight = float(weight)
    except (TypeError, ValueError):
        raise ValueError(f"converter weight must be a number, got {weight!r}")
    if not weight > 0.0:
        raise ValueError(f"converter weight must be > 0, got {weight!r}")
    label = name or getattr(func, "__name__", None) or "converter"
    converter = Converter(
        name=str(label), src=src, dst=dst, func=func, filter=filter,
        weight=weight,
    )
    key = _pair_key(src, dst)
    with _LOCK:
        table = _CONVERTERS.setdefault(key, {})
        if converter.name in table:
            raise ValueError(
                f"a converter named {converter.name!r} is already "
                f"registered for {src.name} -> {dst.name}"
            )
        table[converter.name] = converter
        global _REGISTRY_VERSION
        _REGISTRY_VERSION += 1
    return converter


def unregister_converter(src: FormatSpec, dst: FormatSpec, name: str) -> bool:
    """Remove the converter ``name`` from ``src -> dst``; True if it
    existed.  Replayed plans pinned to a removed converter fail loudly."""
    key = _pair_key(get_format(src), get_format(dst))
    with _LOCK:
        table = _CONVERTERS.get(key)
        if not table or name not in table:
            return False
        del table[name]
        if not table:
            del _CONVERTERS[key]
        global _REGISTRY_VERSION
        _REGISTRY_VERSION += 1
        return True


def converters_for(src: FormatSpec, dst: FormatSpec) -> Tuple[Converter, ...]:
    """The registered competitors for ``src -> dst``, sorted by name."""
    key = _pair_key(get_format(src), get_format(dst))
    with _LOCK:
        table = _CONVERTERS.get(key, {})
        return tuple(table[name] for name in sorted(table))


def converter_named(
    src: FormatSpec, dst: FormatSpec, name: str
) -> Optional[Converter]:
    """Look up one registered converter by name, or ``None``."""
    key = _pair_key(get_format(src), get_format(dst))
    with _LOCK:
        table = _CONVERTERS.get(key, {})
        return table.get(name)


def run_converter(converter: Converter, tensor: Tensor, dst: Format) -> Tensor:
    """Execute ``converter`` and retag the result with the exact ``dst``
    the caller asked for (structural twins share registrations)."""
    out = converter.func(tensor, dst)
    if not isinstance(out, Tensor):
        raise FormatError(
            f"converter {converter.name!r} returned {type(out).__name__}, "
            "not a Tensor"
        )
    if out.format is not dst:
        if structural_key(out.format) != structural_key(dst):
            raise FormatError(
                f"converter {converter.name!r} returned a "
                f"{out.format.name} tensor, which is not structurally "
                f"{dst.name}"
            )
        out = Tensor(dst, out.dims, out.arrays, out.metadata, out.vals)
    return out


# ----------------------------------------------------------------------
# scipy-delegated builtins (registered only when scipy is importable)


def scipy_available() -> bool:
    """Whether ``scipy.sparse`` imports on this host."""
    try:
        import scipy.sparse  # noqa: F401
    except ImportError:
        return False
    return True


def _sparse():
    import scipy.sparse

    return scipy.sparse


def _sparsetools():
    """scipy's compiled conversion kernels, or ``None`` to use the
    public matrix API.

    The public constructors downcast int64 indices to int32 (and the
    generated kernels use int64 throughout), so delegating through
    ``coo_matrix(...).tocsr()`` pays a copy on the way in and a cast on
    the way out — ~40% overhead at 1M nnz.  The underlying kernels are
    dtype-templated and fill caller-allocated arrays, so calling them
    directly stays int64 end to end; the attribute check degrades to the
    public path on scipy versions that reshuffle the private module.
    """
    try:
        from scipy.sparse import _sparsetools
    except ImportError:  # pragma: no cover - very old scipy layouts
        return None
    if hasattr(_sparsetools, "coo_tocsr") and hasattr(
        _sparsetools, "csr_tocsc"
    ):
        return _sparsetools
    return None  # pragma: no cover - very old scipy layouts


def _as_compressed_tensor(matrix, dst: Format, dims) -> Tensor:
    """Wrap a scipy CSR/CSC matrix as a (dense, compressed) tensor.

    scipy emits int32 index arrays on most hosts; the generated kernels
    use int64 throughout, so cast for bit-identity of dtypes too.
    """
    arrays = {
        (1, "pos"): np.asarray(matrix.indptr, dtype=np.int64),
        (1, "crd"): np.asarray(matrix.indices, dtype=np.int64),
    }
    vals = np.asarray(matrix.data, dtype=np.float64)
    return Tensor(dst, dims, arrays, {}, vals)


def _compress_coo(tensor: Tensor, dst: Format, by_column: bool) -> Tensor:
    """COO -> CSR/CSC through scipy's compiled counting sort.

    ``coo_tocsr`` is stable (within-slice stream order survives), so on
    the fully sorted streams the admission predicate requires, the
    result is bit-identical to the generated kernels.
    """
    rows = np.ascontiguousarray(tensor.array(0, "crd"), dtype=np.int64)
    cols = np.ascontiguousarray(tensor.array(1, "crd"), dtype=np.int64)
    vals = np.ascontiguousarray(tensor.vals, dtype=np.float64)
    if by_column:
        rows, cols = cols, rows
    outer = tensor.dims[1] if by_column else tensor.dims[0]
    inner = tensor.dims[0] if by_column else tensor.dims[1]
    tools = _sparsetools()
    if tools is not None:
        nnz = len(vals)
        pos = np.zeros(outer + 1, dtype=np.int64)
        crd = np.empty(nnz, dtype=np.int64)
        out = np.empty(nnz, dtype=np.float64)
        tools.coo_tocsr(outer, inner, nnz, rows, cols, vals, pos, crd, out)
        return Tensor(
            dst, tensor.dims, {(1, "pos"): pos, (1, "crd"): crd}, {}, out
        )
    sparse = _sparse()
    coo = sparse.coo_matrix((vals, (rows, cols)), shape=(outer, inner))
    return _as_compressed_tensor(coo.tocsr(), dst, tensor.dims)


def _transpose_compressed(tensor: Tensor, dst: Format, from_rows: bool) -> Tensor:
    """CSR <-> CSC through scipy's compiled stable counting sort."""
    pos = np.ascontiguousarray(tensor.array(1, "pos"), dtype=np.int64)
    crd = np.ascontiguousarray(tensor.array(1, "crd"), dtype=np.int64)
    vals = np.ascontiguousarray(tensor.vals, dtype=np.float64)
    # csr_tocsc is symmetric: a CSC is the CSR of the transpose, so the
    # same kernel handles both directions with the dims swapped.
    outer = tensor.dims[0] if from_rows else tensor.dims[1]
    inner = tensor.dims[1] if from_rows else tensor.dims[0]
    tools = _sparsetools()
    if tools is not None:
        nnz = len(vals)
        dst_pos = np.zeros(inner + 1, dtype=np.int64)
        dst_crd = np.empty(nnz, dtype=np.int64)
        out = np.empty(nnz, dtype=np.float64)
        tools.csr_tocsc(outer, inner, pos, crd, vals, dst_pos, dst_crd, out)
        return Tensor(
            dst, tensor.dims,
            {(1, "pos"): dst_pos, (1, "crd"): dst_crd}, {}, out,
        )
    sparse = _sparse()
    matrix = sparse.csr_matrix((vals, crd, pos), shape=(outer, inner))
    return _as_compressed_tensor(matrix.tocsc(), dst, tensor.dims)


def _scipy_coo_to_csr(tensor: Tensor, dst: Format) -> Tensor:
    return _compress_coo(tensor, dst, by_column=False)


def _scipy_coo_to_csc(tensor: Tensor, dst: Format) -> Tensor:
    return _compress_coo(tensor, dst, by_column=True)


def _scipy_csr_to_csc(tensor: Tensor, dst: Format) -> Tensor:
    return _transpose_compressed(tensor, dst, from_rows=True)


def _scipy_csc_to_csr(tensor: Tensor, dst: Format) -> Tensor:
    return _transpose_compressed(tensor, dst, from_rows=False)


def _stream_is_sorted(features: StructuralFeatures) -> bool:
    # scipy's COO compressors canonicalize (sort within rows); they are
    # bit-identical to the generated kernels only when the coordinate
    # stream is already *exactly* sorted.
    return features.sortedness >= 1.0


def _register_builtin_converters() -> None:
    if not scipy_available():
        return
    from ..formats.library import COO, CSC, CSR

    register_converter(
        COO, CSR, _scipy_coo_to_csr,
        filter=_stream_is_sorted, name="scipy-coo-csr",
    )
    register_converter(
        COO, CSC, _scipy_coo_to_csc,
        filter=_stream_is_sorted, name="scipy-coo-csc",
    )
    # CSR<->CSC in scipy are stable counting sorts: stream order and
    # explicit zeros survive, so no structural predicate is needed.
    register_converter(CSR, CSC, _scipy_csr_to_csc, name="scipy-csr-csc")
    register_converter(CSC, CSR, _scipy_csc_to_csr, name="scipy-csc-csr")


_register_builtin_converters()
