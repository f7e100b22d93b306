"""The native (compiled C) conversion backend's planner seam.

Thin glue between the planner and :mod:`repro.ir.native`: plan the
scalar IR for a pair, print it as C, and wrap the bound kernel in the
engine's converter protocol.  Planning (IR + C emission) is pure and
toolchain-free — ``repro codegen --backend native`` and plan-JSON
``sources()`` work on hosts with no compiler; only the engine's build
step needs one.  The engine binds the built kernel as a plain
:class:`~repro.convert.engine.CompiledConversion`: a native kernel takes
the same positional arguments as the generated Python kernels.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..formats.format import Format
from ..ir.native import NativeUnsupported, emit_c
from .context import PlanError
from .planner import (
    ConversionPlanner,
    GeneratedConversion,
    PlanOptions,
    structural_key,
)

#: Memoized native plans (or the NativeUnsupported verdict) per
#: (structural pair, options key) — capability checks run on every
#: route/convert call, and planning re-runs the full scalar planner.
_NATIVE_PLAN_CACHE: Dict[Tuple, object] = {}
_NATIVE_PLAN_LOCK = threading.Lock()


def _plan_key(
    src_format: Format, dst_format: Format, options: PlanOptions
) -> Tuple:
    return (
        structural_key(src_format),
        structural_key(dst_format),
        options.key(),
    )


def plan_native(
    src_format: Format,
    dst_format: Format,
    options: Optional[PlanOptions] = None,
) -> GeneratedConversion:
    """Plan one conversion and lower it to C.

    Returns a :class:`GeneratedConversion` whose ``source`` is a C
    translation unit and whose ``func`` is ``None`` (binding happens in
    the engine after the build).  Raises :class:`NativeUnsupported` when
    the pair's scalar plan uses a construct the C emitter cannot
    translate.  Memoized per (structural pair, options).
    """
    options = options or PlanOptions()
    key = _plan_key(src_format, dst_format, options)
    with _NATIVE_PLAN_LOCK:
        cached = _NATIVE_PLAN_CACHE.get(key)
    if cached is None:
        scalar = ConversionPlanner(src_format, dst_format, options).plan()
        try:
            source = emit_c(scalar.func, scalar.params, scalar.outputs)
        except NativeUnsupported as exc:
            cached = NativeUnsupported(str(exc))
        else:
            cached = GeneratedConversion(
                func=None,
                source=source,
                func_name=scalar.func_name,
                params=scalar.params,
                outputs=scalar.outputs,
                src_format=src_format,
                dst_format=dst_format,
                backend="native",
            )
        with _NATIVE_PLAN_LOCK:
            cached = _NATIVE_PLAN_CACHE.setdefault(key, cached)
    if isinstance(cached, NativeUnsupported):
        raise NativeUnsupported(str(cached))
    generated = cached
    if (
        generated.src_format is not src_format
        or generated.dst_format is not dst_format
    ):
        # structural twins share the plan; rebind the display formats
        generated = GeneratedConversion(
            func=None,
            source=generated.source,
            func_name=generated.func_name,
            params=generated.params,
            outputs=generated.outputs,
            src_format=src_format,
            dst_format=dst_format,
            backend="native",
        )
    return generated


def native_capable(
    src_format: Format,
    dst_format: Format,
    options: Optional[PlanOptions] = None,
) -> bool:
    """True when the pair's scalar plan lowers to C (shares the plan memo
    with :func:`plan_native`, so a positive check does the planning work
    exactly once).  A pair with no scalar plan at all (e.g. a source
    format without an inverse mapping) is not native-capable either."""
    try:
        plan_native(src_format, dst_format, options)
    except (NativeUnsupported, PlanError):
        return False
    return True

