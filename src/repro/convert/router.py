"""Conversion routing: a fixed ladder picks the implementation of one edge.

A conversion is one edge, ``src -> dst``, and the paper's thesis is that
a *direct* generated routine is the one to run (no via-COO or via-CSR
temporaries).  What still varies per edge is *which* implementation runs
it: the generated scalar / vector / native (compiled C) kernel, or a
registered ``external`` converter (:mod:`repro.convert.converters`).
Like the paper, the router never prices them; it walks a fixed ladder
and the first rung that applies takes the edge:

1. at ``nnz >= BULK_NNZ``, the registered converter with the lowest
   ``weight`` (ties break on name);
2. else the pair's native kernel, if it is built;
3. else the generated kernel :func:`~repro.convert.planner.resolve_backend`
   picks (vector where the pair lowers to it, scalar otherwise).

:func:`edge_candidates` lists the implementations in ladder order and
:func:`find_route` returns the one-hop
:class:`~repro.convert.plan.ConversionPlan` the first of them runs.  The
engine's auto policy executes that plan as is, and ``explain()`` names
the rung that decided.

Every competitor is **bit-identical** to the direct scalar conversion:
the vector and native backends by construction, and a registered
converter by its registration contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..formats.format import Format
from ..formats.registry import FormatSpec, get_format
from .converters import converters_for
from .planner import PlanOptions, resolve_backend, structural_key

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .plan import ConversionPlan

#: Reference nonzero count used when no tensor is at hand (``engine.route``
#: without ``nnz``): a bulk size.
DEFAULT_ROUTE_NNZ = 100_000

#: Smallest stored size at which a registered converter takes the edge
#: (rung 1) and a bulk run queues an unbuilt native kernel's build.
#: Below it, the library-boundary marshalling of a converter outweighs
#: its kernel, and a build would not pay back.
BULK_NNZ = 4096

#: The verdict of a native candidate whose kernel is not built yet.
NOT_BUILT = "not built"


def key_to_json(key) -> List:
    """A structural key (nested tuples) as JSON-compatible nested lists."""
    if isinstance(key, tuple):
        return [key_to_json(item) for item in key]
    return key


#: What each hop kind executes, as ``explain()`` transcripts word it.  The
#: keys are the hop kinds: the generated-code backends ``scalar`` /
#: ``vector`` / ``native`` (the compiled-C backend), a registered
#: competing converter (``external``, see :mod:`repro.convert.converters`),
#: and the two terminal kinds of a compute plan.
HOP_KIND_DETAIL = {
    "scalar": "generated per-nonzero loop nest",
    "vector": "generated bulk-numpy routine",
    "native": "generated native (compiled C) routine",
    "external": "registered converter (external implementation)",
    "fused": "generated compute kernel reading the hop's source directly",
    "compute": "generated compute kernel over the materialized format",
}


def bridge_for(src_format: FormatSpec) -> None:
    """Always ``None``: no format needs a bulk-extraction bridge, since
    hashed sources gather directly.  Kept importable only for the
    benchmark harness (ROADMAP item 2(iii))."""
    return None


@dataclass(frozen=True)
class Hop:
    """One edge of a conversion plan.

    ``converter`` names the registered converter that runs the hop when
    ``kind`` is ``"external"`` — the plan schema pins it, so replays run
    the same implementation.
    """

    src: Format
    dst: Format
    kind: str  # a key of HOP_KIND_DETAIL
    converter: Optional[str] = None

    def __str__(self) -> str:
        label = self.kind if not self.converter else (
            f"{self.kind}:{self.converter}"
        )
        return f"{self.src.name} -> {self.dst.name} [{label}]"


@dataclass(frozen=True)
class EdgeCandidate:
    """One implementation of a single conversion edge, on its ladder rung.

    ``rank`` is the ladder order: rung, then weight, then name.  A
    candidate with a ``verdict`` is passed over — its native kernel is
    not built, or the tensor is below :data:`BULK_NNZ` for a registered
    converter — and the edge goes to the first candidate without one.
    """

    name: str
    kind: str  # "scalar" | "vector" | "native" | "external"
    rung: int
    weight: float = 1.0
    converter: Optional[str] = None
    verdict: str = ""

    @property
    def rank(self) -> Tuple[int, float, str]:
        return (self.rung, self.weight, self.name)

    def describe(self) -> str:
        verdict = f" ({self.verdict})" if self.verdict else ""
        return (
            f"{self.name} [{self.kind}] weight {self.weight:g} "
            f"(rung {self.rung}){verdict}"
        )


def edge_candidates(
    src: FormatSpec,
    dst: FormatSpec,
    options: Optional[PlanOptions] = None,
    nnz: Optional[int] = None,
    native_ok: bool = False,
    native_ready: Optional[Callable[[Format, Format], bool]] = None,
) -> List[EdgeCandidate]:
    """Every implementation of the single edge ``src -> dst`` at ``nnz``
    stored components, in ladder order with the passed-over ones last,
    so the first one is the one the edge takes.

    Registered converters (rung 1) replay the *default* code shapes, so
    non-default :class:`PlanOptions` leave them out.  ``native_ok`` (a
    working C toolchain) adds the compiled-C kernel (rung 2);
    ``native_ready(src, dst)`` says whether it is built (without it,
    every one counts as built).  An unbuilt kernel is listed only where
    a run would queue its build: at bulk sizes, for a pair it supports,
    when no registered converter takes the edge.  The generated
    kernel (rung 3) is always listed and always taken last.  Listing
    never invokes the C compiler.
    """
    src = get_format(src)
    dst = get_format(dst)
    options = options or PlanOptions()
    nnz = DEFAULT_ROUTE_NNZ if nnz is None else int(nnz)
    bulk = nnz >= BULK_NNZ
    out = []
    if options.key() == PlanOptions().key():
        for conv in converters_for(src, dst):
            verdict = "" if bulk else f"below {BULK_NNZ} stored components"
            out.append(EdgeCandidate(
                name=conv.name, kind="external", rung=1,
                weight=conv.weight, converter=conv.name, verdict=verdict,
            ))
    if native_ok:
        from .native import native_capable

        built = native_ready is None or native_ready(src, dst)
        # at bulk sizes a registered converter (any in ``out``) takes
        # the edge, so an unbuilt kernel is listed only without one
        if built or (bulk and not out and native_capable(src, dst, options)):
            out.append(EdgeCandidate(
                name="generated-native", kind="native", rung=2,
                verdict="" if built else NOT_BUILT,
            ))
    generated = resolve_backend(src, dst, options, "auto")
    out.append(EdgeCandidate(
        name=f"generated-{generated}", kind=generated, rung=3,
    ))
    out.sort(key=lambda cand: (bool(cand.verdict),) + cand.rank)
    return out


def _rung_reason(candidates: List[EdgeCandidate]) -> str:
    """Which ladder rung took the edge, and why the rungs above passed."""
    taken = candidates[0]
    if taken.rung == 1:
        why = (f"registered converter {taken.name!r}, the lowest-weight "
               f"one, at >= {BULK_NNZ} stored components")
    elif taken.rung == 2:
        why = "the pair's native kernel is built"
    else:
        passed = [f"{cand.name} ({cand.verdict})" for cand in candidates
                  if cand.verdict]
        why = f"{taken.name}, the generated kernel" + (
            f"; passed over: {', '.join(passed)}" if passed else
            "; no registered converter or built native kernel"
        )
    return f"ladder rung {taken.rung}: {why}"


def find_route(
    src: FormatSpec,
    dst: FormatSpec,
    options: Optional[PlanOptions] = None,
    nnz: Optional[int] = None,
    native_ok: bool = False,
    native_ready: Optional[Callable[[Format, Format], bool]] = None,
) -> "ConversionPlan":
    """The one-hop plan for ``src -> dst``, run by the first candidate
    of :func:`edge_candidates` (``native_ok`` / ``native_ready`` offer
    the compiled-C kernel).
    When the ladder lists the unbuilt native kernel, the plan's
    ``_pending`` holds its hop, so a bulk run queues the build.  The plan
    is unbound (``engine=None``): :meth:`ConversionEngine.route
    <repro.convert.engine.ConversionEngine.route>` binds the plans it
    caches.
    """
    from .plan import ConversionPlan  # plan.py imports Hop from here

    src = get_format(src)
    dst = get_format(dst)
    options = options or PlanOptions()
    nnz = DEFAULT_ROUTE_NNZ if nnz is None else int(nnz)
    candidates = edge_candidates(
        src, dst, options, nnz, native_ok, native_ready,
    )
    taken = candidates[0]
    pending = tuple(
        Hop(src, dst, "native") for cand in candidates
        if cand.verdict == NOT_BUILT
    )
    return ConversionPlan(
        hops=(Hop(src, dst, taken.kind, taken.converter),),
        options=options, nnz=nnz, _pending=pending,
        _rung=_rung_reason(candidates),
    )


def rebind_endpoints(
    plan: "ConversionPlan", src: Format, dst: Format
) -> "ConversionPlan":
    """The one-hop plan with its hop's formats swapped for ``src``/``dst``.

    Plans are cached by *structural* pair, but results must be tagged
    with the exact (possibly renamed-twin) formats the caller asked for.
    Raises ``ValueError`` when the plan is not one hop or the endpoints
    are not structurally identical to the plan's.
    """
    if not plan.is_direct or structural_key(src) != structural_key(
        plan.src
    ) or structural_key(dst) != structural_key(plan.dst):
        raise ValueError(
            f"plan {plan} does not fit the pair {src.name} -> {dst.name}"
        )
    if src is plan.src and dst is plan.dst:
        return plan
    return replace(plan, hops=(replace(plan.hops[0], src=src, dst=dst),))
