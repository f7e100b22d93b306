"""One validated request object behind ``convert(...)``'s knobs.

``convert``/``plan`` historically validated ``backend=`` and ``route=``
in different places with different error styles, and silently preferred
the backend when a caller pinned both a backend and ``route="auto"``.
:class:`ConversionRequest` normalizes the overlapping knobs once, with
one documented message per mistake:

* ``backend`` — ``None`` (engine default), ``"auto"``, ``"scalar"``,
  ``"vector"``; anything else raises
  :class:`~repro.convert.context.PlanError`.
* ``route`` — ``None`` (unspecified: the engine's auto policy),
  ``"auto"`` or ``"direct"``; anything else raises ``ValueError`` (a
  plan in hand runs with ``plan.run(tensor)``, not through
  ``route=``).  An **explicit** ``route="auto"`` together with an
  explicit non-auto backend is a contradiction (the backend pins the
  direct conversion, so there is nothing for routing to decide) and now
  raises ``ValueError`` instead of silently preferring one; omit either
  knob, or pass ``route="direct"`` to keep the pinned backend.

Every public entry point (``engine.convert``/``engine.plan``, the
module-level shims, ``Tensor.to``, the CLI) funnels through
:meth:`ConversionRequest.build`, so the messages are consistent
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..formats.format import Format
from ..formats.registry import FormatSpec, get_format
from .context import PlanError
from .features import StructuralFeatures
from .planner import BACKENDS, PlanOptions
from .router import DEFAULT_ROUTE_NNZ

__all__ = ["ConversionRequest"]

#: Accepted values of the ``route=`` option (besides ``None``).
ROUTE_MODES = ("auto", "direct")


@dataclass(frozen=True)
class ConversionRequest:
    """A fully validated, normalized conversion request.

    ``route`` is normalized (``None`` becomes ``"auto"``) with
    ``route_explicit`` recording whether the caller actually asked.
    """

    src: Format
    dst: Format
    options: PlanOptions
    backend: str
    route: str
    route_explicit: bool
    nnz: int
    features: Optional[StructuralFeatures] = None

    @classmethod
    def build(
        cls,
        src: FormatSpec,
        dst: FormatSpec,
        *,
        options: Optional[PlanOptions] = None,
        backend: Optional[str] = None,
        route: Optional[str] = None,
        nnz: Optional[int] = None,
        features: Optional[StructuralFeatures] = None,
        default_options: Optional[PlanOptions] = None,
        default_backend: str = "auto",
    ) -> "ConversionRequest":
        """Validate and normalize one conversion request.

        ``default_options``/``default_backend`` are the engine's policy,
        applied when the caller passes ``None``.  See the module
        docstring for the accepted values and the error they raise.
        """
        src = get_format(src)
        dst = get_format(dst)

        backend_explicit = backend is not None
        if backend is None:
            backend = default_backend
        if backend not in BACKENDS:
            raise PlanError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )

        route_explicit = route is not None
        if route is None:
            route = "auto"
        elif not isinstance(route, str):
            raise ValueError(
                f"route= takes one of {ROUTE_MODES}, not a "
                f"{type(route).__name__}; to execute a plan, call "
                "plan.run(tensor)"
            )
        elif route not in ROUTE_MODES:
            raise ValueError(
                f"unknown route mode {route!r}; expected one of {ROUTE_MODES}"
            )
        if (
            route_explicit
            and route == "auto"
            and backend_explicit
            and backend != "auto"
        ):
            raise ValueError(
                f"backend={backend!r} conflicts with route='auto': an "
                "explicit backend pins the direct conversion, so there is "
                "nothing for routing to decide; pass route='direct' to "
                "keep the pinned backend, or omit backend to let routing "
                "choose"
            )

        if nnz is None:
            nnz = (
                features.nnz if features is not None else DEFAULT_ROUTE_NNZ
            )
        try:
            nnz = int(nnz)
        except (TypeError, ValueError):
            raise ValueError(f"nnz must be an integer, got {nnz!r}")

        return cls(
            src=src,
            dst=dst,
            options=options or default_options or PlanOptions(),
            backend=backend,
            route=route,
            route_explicit=route_explicit,
            nnz=nnz,
            features=features,
        )
