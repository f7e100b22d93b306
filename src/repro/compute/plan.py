"""First-class compute plans: fused convert-and-compute pipelines.

A :class:`ComputePlan` is the fusion planner's full decision for one
``engine.plan_compute(src_fmt, op, dst_fmt)`` call: zero or more
conversion hops followed by one *terminal* hop that runs the compute op.
The terminal hop's kind records the fusion decision:

``fused``
    the op consumes the terminal hop's **source** directly through a
    generated compute kernel (:mod:`repro.compute.kernels`) — the
    destination format's ``pos``/``crd``/``vals`` arrays are never
    allocated;
``compute``
    the op runs over the **materialized** destination (the preceding
    conversion hops produced it) — the materialize-then-compute path.

Plans serialize to JSON at :data:`COMPUTE_PLAN_SCHEMA` (schema **3**).
The document keeps the conversion-plan layout (``schema`` / ``hops`` /
``options`` / ...) plus the ``op`` and fusion fields, so feeding a fused
plan to an old reader — :meth:`ConversionPlan.from_json
<repro.convert.plan.ConversionPlan.from_json>` supports schemas <= 2 —
**replays loudly**: the reader rejects it with "plan schema 3 is newer
than this reader" instead of silently running the hops without the op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..convert.context import PlanError
from ..convert.features import StructuralFeatures
from ..convert.plan import (
    _PLAN_HOP_KINDS,
    ConversionPlan,
    _hop_cost_kind,
    check_plan_header,
    parse_plan_json,
    plan_document,
    read_plan_fields,
)
from ..convert.planner import PlanOptions
from ..convert.router import Hop
from ..formats.format import Format
from .ops import ComputeOp, ComputeOpError, get_op

#: Version of the compute-plan JSON schema.  Compute plans begin at
#: schema 3: schemas 1–2 are conversion plans (no terminal op), so the
#: two families reject each other's documents loudly in both directions.
COMPUTE_PLAN_SCHEMA = 3

#: Hop kinds a compute plan may carry: every conversion hop kind plus
#: the two terminal compute kinds.
_COMPUTE_HOP_KINDS = _PLAN_HOP_KINDS + ("fused", "compute")

#: Kinds that may terminate a compute plan.
TERMINAL_KINDS = ("fused", "compute")


@dataclass(frozen=True)
class ComputePlan:
    """Zero or more conversion hops plus one terminal compute hop."""

    op: ComputeOp
    hops: Tuple[Hop, ...]
    #: resolved lowering backend of the terminal compute kernel
    backend: str
    options: PlanOptions
    workers: int = 0
    nnz: int = 0
    #: the fusion decision: ``"fused"`` or ``"materialize"``
    fuse: str = "materialize"
    routed: bool = False
    features: Optional[StructuralFeatures] = None
    engine: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.hops:
            raise PlanError("compute plan has no hops")
        terminal = self.hops[-1]
        if terminal.kind not in TERMINAL_KINDS:
            raise PlanError(
                f"compute plan must end in a compute hop, got {terminal.kind!r}"
            )
        for hop in self.hops[:-1]:
            if hop.kind in TERMINAL_KINDS:
                raise PlanError("compute hops may only terminate a plan")

    # -- shape -----------------------------------------------------------
    @property
    def src(self) -> Format:
        return self.hops[0].src

    @property
    def dst(self) -> Format:
        """The format the op consumes (fused: would-be intermediate)."""
        return self.hops[-1].dst

    @property
    def terminal(self) -> Hop:
        return self.hops[-1]

    @property
    def conversion_hops(self) -> Tuple[Hop, ...]:
        return self.hops[:-1]

    @property
    def fused(self) -> bool:
        return self.terminal.kind == "fused"

    # -- inspection ------------------------------------------------------
    def estimated_cost(self, model) -> float:
        """Estimated seconds under ``model`` at the plan's ``nnz``."""
        total = 0.0
        for hop in self.conversion_hops:
            total += model.cost(
                _hop_cost_kind(hop), self.nnz, self.workers, self.features
            )
        total += model.cost(self.terminal.kind, self.nnz, 1, self.features)
        return total

    def explain(self, model=None) -> str:
        """Human-readable rendering of the pipeline and its decision."""
        lines = [
            f"compute plan: {self.op.name} over {self.src.name} "
            f"via {self.dst.name} [{self.fuse}]"
        ]
        for hop in self.conversion_hops:
            lines.append(f"  convert {hop}")
        terminal = self.terminal
        if terminal.kind == "fused":
            lines.append(
                f"  fused   {terminal.src.name} -> {self.op.name} "
                f"[{self.backend}; {terminal.dst.name} never materialized]"
            )
        else:
            lines.append(
                f"  compute {self.op.name} over {terminal.dst.name} "
                f"[{self.backend}]"
            )
        if model is not None:
            lines.append(
                f"  estimated {self.estimated_cost(model) * 1e3:.3f} ms "
                f"at nnz={self.nnz}"
            )
        return "\n".join(lines)

    def sources(self) -> Dict[str, str]:
        """Generated source of every hop, keyed by a pipeline label."""
        from .kernels import plan_compute_kernel

        engine = self._engine()
        out: Dict[str, str] = {}
        for index, hop in enumerate(self.conversion_hops):
            backend = "vector" if hop.kind == "chunked" else hop.kind
            if backend in ("bridge", "external"):
                continue  # no generated source: library/bridge code
            out[f"{index}:{hop.src.name}->{hop.dst.name}"] = (
                engine.generated_source(hop.src, hop.dst, backend, self.options)
            )
        terminal = self.terminal
        consumed = terminal.src if terminal.kind == "fused" else terminal.dst
        generated = plan_compute_kernel(
            consumed,
            self.op,
            dst_format=terminal.dst if self.op.needs_destination else None,
            options=self.options,
            backend=self.backend,
        )
        out[f"{len(self.hops) - 1}:{self.op.name}({consumed.name})"] = (
            generated.source
        )
        return out

    # -- execution -------------------------------------------------------
    #: the bound engine, else the process default at call time
    _engine = ConversionPlan._engine

    def run(self, tensor, x=None, alpha=None):
        """Execute the pipeline on ``tensor``; returns the op's result."""
        return self._engine().run_compute_plan(self, tensor, x=x, alpha=alpha)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON snapshot (schema :data:`COMPUTE_PLAN_SCHEMA`): the
        conversion-plan document plus the op and fusion fields."""
        data = plan_document(self, COMPUTE_PLAN_SCHEMA, "repro-compute-plan")
        data.update(op=self.op.name, backend=self.backend, fuse=self.fuse)
        return data

    to_json = ConversionPlan.to_json

    @classmethod
    def from_dict(cls, data: Dict, engine=None) -> "ComputePlan":
        """Rebuild a compute plan from :meth:`to_dict` output.

        The hops and shared fields go through the conversion-plan reader
        (:func:`~repro.convert.plan.read_plan_fields`: registry lookup +
        structural-key check per format, chain and pinned-converter
        checks); newer schemas are rejected loudly, and conversion-plan
        documents (schema <= 2, no ``op``) as the wrong plan family.
        """
        schema = check_plan_header(data, "ComputePlan", COMPUTE_PLAN_SCHEMA)
        if schema < COMPUTE_PLAN_SCHEMA or "op" not in data:
            raise PlanError(
                f"schema {schema!r} document is a conversion plan, not a "
                "compute plan; load it with ConversionPlan.from_json"
            )
        try:
            op = get_op(data["op"])
        except ComputeOpError as exc:
            raise PlanError(str(exc)) from None
        backend = data.get("backend", "scalar")
        if not isinstance(backend, str):
            raise PlanError(f"malformed compute plan backend: {backend!r}")
        return cls(
            op=op,
            backend=backend,
            fuse=str(data.get("fuse", "materialize")),
            engine=engine,
            **read_plan_fields(data, _COMPUTE_HOP_KINDS),
        )

    @classmethod
    def from_json(cls, text: str, engine=None) -> "ComputePlan":
        return cls.from_dict(parse_plan_json(text), engine=engine)
