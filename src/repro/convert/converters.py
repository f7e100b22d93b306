"""Competing converters: multiple registered implementations per edge.

The code generator gives every (src, dst) pair a scalar and (usually) a
vector and a native lowering — but they are not necessarily the fastest
implementation available on a given host.  This
module lets any callable compete for an edge::

    from repro.convert import register_converter

    def my_coo_to_csr(tensor, dst):          # returns a Tensor in dst
        ...

    register_converter("COO", "CSR", my_coo_to_csr,
                       weight=1.0, name="my-coo-csr")

Registered converters are keyed *structurally* (renamed twins share
them).  Whether a converter competes is a host fact, settled once when
it is registered: a converter that needs a condition of the host (a
library, a CPU feature) is registered inside an ``if`` on that
condition, and nothing about the data is asked later.  On bulk tensors
the router's ladder gives the edge to the registered converter with the
lowest ``weight`` (ties break on name, so selection is deterministic),
ahead of the generated kernels, and the engine runs it on every tensor
of the source format.

When scipy's compiled kernels are present, four scipy-delegated
converters register themselves for the matrix compression edges.
``_sparsetools.coo_tocsr`` (COO -> CSR/CSC) and ``csr_tocsc`` (CSR <->
CSC) are stable counting sorts that neither sort within a slice nor sum
duplicates, so stream order and explicit zeros survive and the result
is bit-identical to the generated kernels on any stream, sorted or not.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..formats.format import Format, FormatError
from ..formats.registry import FormatSpec, get_format
from ..storage.tensor import Tensor
from .planner import structural_key

__all__ = [
    "Converter",
    "converter_named",
    "converters_for",
    "register_converter",
    "run_converter",
    "sample_features",
    "scipy_available",
    "unregister_converter",
]

#: Converter callables take ``(tensor, dst_format)`` and return a
#: :class:`Tensor` stored in ``dst_format`` (or a structural twin; the
#: runner retags).
ConverterFunc = Callable[[Tensor, Format], Tensor]


@dataclass(frozen=True)
class Converter:
    """One registered implementation competing for a conversion edge.

    ``weight`` orders the converters of one edge (the lowest one takes
    it at bulk sizes).
    """

    name: str
    src: Format
    dst: Format
    func: ConverterFunc = field(repr=False, compare=False)
    weight: float = 1.0

    # -- inert stubs: the benchmark harness still calls these two names
    # and passes ``features=`` (ROADMAP item 2(iii) deletes them all, as
    # it does router.bridge_for).  Admission is a host fact settled at
    # registration, so a registered converter admits every tensor and
    # there are no features to sample; ConversionRequest.build,
    # engine.route, engine.plan and engine.plan_compute accept and
    # ignore ``features=None`` for the same reason.
    def admits(self, features=None) -> bool:
        """Always ``True``."""
        return True


def sample_features(tensor) -> None:
    """Always ``None`` (see the comment above :meth:`Converter.admits`)."""
    return None


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


def _registry_changed() -> None:
    """Advance the registry version; the caller holds ``_LOCK``."""
    global _REGISTRY_VERSION
    _REGISTRY_VERSION += 1


def register_converter(
    src: FormatSpec,
    dst: FormatSpec,
    func: ConverterFunc,
    *,
    weight: float = 1.0,
    name: Optional[str] = None,
) -> Converter:
    """Register ``func`` as a competing converter for ``src -> dst``.

    ``src``/``dst`` are :class:`Format` objects or registry spec strings
    (``"CSR"``, ``"BCSR4x4"``...).  ``func(tensor, dst_format)`` must
    return the converted tensor **bit-identical to the direct scalar
    conversion** for every tensor of ``src`` — the router freely
    substitutes it for the generated kernel.  A converter that only
    holds on some hosts is registered inside an ``if`` on that host
    fact; there is no per-tensor admission.  Returns the
    :class:`Converter` record; registering a second converter under the
    same ``name`` for the same structural pair raises ``ValueError``
    (unregister the old one first).
    """
    src = get_format(src)
    dst = get_format(dst)
    if not callable(func):
        raise TypeError(f"converter func must be callable, got {func!r}")
    try:
        weight = float(weight)
    except (TypeError, ValueError):
        raise ValueError(f"converter weight must be a number, got {weight!r}")
    if not weight > 0.0:
        raise ValueError(f"converter weight must be > 0, got {weight!r}")
    label = name or getattr(func, "__name__", None) or "converter"
    converter = Converter(
        name=str(label), src=src, dst=dst, func=func, weight=weight,
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
        _registry_changed()
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
        _registry_changed()
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
# scipy-delegated builtins (registered only where scipy's kernels exist)


def scipy_available() -> bool:
    """Whether ``scipy.sparse`` imports on this host."""
    try:
        import scipy.sparse  # noqa: F401
    except ImportError:
        return False
    return True


def _compress_coo(coo_tocsr, tensor: Tensor, dst: Format,
                  by_column: bool) -> Tensor:
    """COO -> CSR/CSC through scipy's compiled ``coo_tocsr``.

    It is a stable counting sort that neither sorts within a slice nor
    sums duplicates: each slice keeps its components in stream order,
    explicit zeros included, which is what the generated kernels emit
    for any stream.  It is dtype-templated and fills caller-allocated
    arrays, so the indices stay int64 end to end.
    """
    rows = np.ascontiguousarray(tensor.array(0, "crd"), dtype=np.int64)
    cols = np.ascontiguousarray(tensor.array(1, "crd"), dtype=np.int64)
    vals = np.ascontiguousarray(tensor.vals, dtype=np.float64)
    if by_column:
        rows, cols = cols, rows
    outer = tensor.dims[1] if by_column else tensor.dims[0]
    inner = tensor.dims[0] if by_column else tensor.dims[1]
    nnz = len(vals)
    pos = np.zeros(outer + 1, dtype=np.int64)
    crd = np.empty(nnz, dtype=np.int64)
    out = np.empty(nnz, dtype=np.float64)
    coo_tocsr(outer, inner, nnz, rows, cols, vals, pos, crd, out)
    return Tensor(dst, tensor.dims, {(1, "pos"): pos, (1, "crd"): crd}, {}, out)


def _transpose_compressed(csr_tocsc, tensor: Tensor, dst: Format,
                          from_rows: bool) -> Tensor:
    """CSR <-> CSC through scipy's compiled stable counting sort."""
    pos = np.ascontiguousarray(tensor.array(1, "pos"), dtype=np.int64)
    crd = np.ascontiguousarray(tensor.array(1, "crd"), dtype=np.int64)
    vals = np.ascontiguousarray(tensor.vals, dtype=np.float64)
    # csr_tocsc is symmetric: a CSC is the CSR of the transpose, so the
    # same kernel handles both directions with the dims swapped.
    outer = tensor.dims[0] if from_rows else tensor.dims[1]
    inner = tensor.dims[1] if from_rows else tensor.dims[0]
    nnz = len(vals)
    dst_pos = np.zeros(inner + 1, dtype=np.int64)
    dst_crd = np.empty(nnz, dtype=np.int64)
    out = np.empty(nnz, dtype=np.float64)
    csr_tocsc(outer, inner, pos, crd, vals, dst_pos, dst_crd, out)
    return Tensor(
        dst, tensor.dims, {(1, "pos"): dst_pos, (1, "crd"): dst_crd}, {}, out,
    )


def _register_builtin_converters() -> None:
    """Register each scipy delegate whose compiled kernel this host's
    scipy exposes in ``scipy.sparse._sparsetools``: a host fact, settled
    once here."""
    try:
        from scipy.sparse import _sparsetools as tools
    except ImportError:
        return
    from ..formats.library import COO, CSC, CSR

    coo_tocsr = getattr(tools, "coo_tocsr", None)
    if coo_tocsr is not None:
        register_converter(
            COO, CSR, partial(_compress_coo, coo_tocsr, by_column=False),
            name="scipy-coo-csr",
        )
        register_converter(
            COO, CSC, partial(_compress_coo, coo_tocsr, by_column=True),
            name="scipy-coo-csc",
        )
    csr_tocsc = getattr(tools, "csr_tocsc", None)
    if csr_tocsc is not None:
        register_converter(
            CSR, CSC, partial(_transpose_compressed, csr_tocsc, from_rows=True),
            name="scipy-csr-csc",
        )
        register_converter(
            CSC, CSR, partial(_transpose_compressed, csr_tocsc, from_rows=False),
            name="scipy-csc-csr",
        )


_register_builtin_converters()
