"""Public conversion API: stable module-level shims over the default engine.

Typical use::

    from repro import convert, formats
    csr = convert(coo_tensor, formats.CSR)    # or convert(coo_tensor, "CSR")

``make_converter`` returns the compiled routine itself (with its generated
Python source on ``.source``) so callers can inspect the generated code or
amortize lookups in benchmarks.

These functions delegate to the process-wide
:class:`~repro.convert.engine.ConversionEngine`
(:func:`~repro.convert.engine.default_engine`), which owns the caches,
policy, routing and telemetry.  They are kept stable for existing callers;
new code that needs its own cache bounds, default options or counters
should construct an engine directly.
"""

from __future__ import annotations

from typing import Optional

from ..formats.registry import FormatSpec
from ..storage.tensor import Tensor
from .engine import CompiledConversion, default_engine
from .plan import ConversionPlan
from .planner import PlanOptions

__all__ = [
    "CompiledConversion",
    "convert",
    "generated_source",
    "make_converter",
    "plan",
]


def make_converter(
    src_format: FormatSpec,
    dst_format: FormatSpec,
    options: Optional[PlanOptions] = None,
    backend: str = "auto",
) -> CompiledConversion:
    """Generate (or fetch from the default engine's cache) the conversion
    routine for a format pair.  Formats may be objects or registry spec
    strings (``"CSR"``, ``"BCSR8x8"``...).  Generated code is cached per
    (structural format key, plan options, resolved backend) — see
    :func:`repro.convert.planner.structural_key` — so e.g. every
    4x4-blocked BCSR conversion shares one routine, and a renamed format
    with CSR's exact structure reuses the CSR kernel.

    ``backend`` selects the lowering: ``"auto"`` (default) uses the bulk
    numpy vector backend where available and falls back to the scalar
    loop backend; ``"scalar"`` / ``"vector"`` request one explicitly
    (a ``"vector"`` request still falls back for non-vectorizable pairs,
    warning once per pair).

    Example::

        conv = make_converter("COO", "CSR")
        csr = conv(coo_tensor)           # amortizes the cache lookup
        print(conv.source)               # the generated routine
    """
    return default_engine().make_converter(src_format, dst_format, options, backend)


def convert(
    tensor: Tensor,
    dst_format: FormatSpec,
    options: Optional[PlanOptions] = None,
    backend: str = "auto",
    route: Optional[str] = None,
) -> Tensor:
    """Convert ``tensor`` to ``dst_format`` with a generated routine.

    ``route=None`` (default) applies the auto policy: the router's fixed
    ladder picks the edge's implementation (a registered converter at
    bulk sizes, else a built native kernel, else the generated kernel) — the result is bit-identical to the direct
    scalar conversion.  ``route="direct"``
    runs the generated kernel the backend policy resolves to, matching
    the pre-engine behaviour exactly.  Passing ``route="auto"``
    *explicitly* together with an explicit non-auto ``backend`` raises
    ``ValueError`` (the backend pins the direct conversion, so there is
    nothing for routing to decide).

    Example::

        csr = convert(coo, "CSR")                  # auto backend + routing
    """
    return default_engine().convert(tensor, dst_format, options, backend, route)


def plan(
    src_format: FormatSpec,
    dst_format: FormatSpec,
    *,
    options: Optional[PlanOptions] = None,
    backend: Optional[str] = None,
    route: Optional[str] = None,
    nnz: Optional[int] = None,
) -> ConversionPlan:
    """The default engine's conversion plan for a format pair.

    The returned :class:`~repro.convert.plan.ConversionPlan` is the
    reified decision ``convert()`` would make — inspect it
    (``explain()``, ``sources()``), compile it
    ahead of time, run it, or serialize it (``to_json()``) and replay it
    in another process with ``ConversionPlan.from_json``.

    Example::

        p = plan("HASH", "CSR", nnz=1_000_000)
        print(p.explain())
        csr = p.run(tensor)
    """
    return default_engine().plan(
        src_format, dst_format, options=options, backend=backend,
        route=route, nnz=nnz,
    )


def generated_source(
    src_format: FormatSpec, dst_format: FormatSpec, backend: str = "scalar"
) -> str:
    """The Python source of the generated conversion routine (for docs,
    examples and golden tests).

    Defaults to the scalar backend — its loop nests are the paper's
    generated code and are pinned by the golden tests.  Pass
    ``backend="vector"`` to inspect the bulk numpy lowering instead.
    """
    return default_engine().generated_source(src_format, dst_format, backend)
