"""First-class conversion plans: inspect, serialize and replay conversions.

The paper's core artifact is a *generated routine*; this module makes the
plan that produces it a public object instead of an engine internal.
:meth:`ConversionEngine.plan <repro.convert.engine.ConversionEngine.plan>`
returns a :class:`ConversionPlan` — the full decision the engine would
make for a ``convert()`` call (route hops, lowering backend per hop) —
which can be inspected (:meth:`~
ConversionPlan.explain`, :meth:`~ConversionPlan.sources`,
:meth:`~ConversionPlan.estimated_cost`), compiled ahead of time
(:meth:`~ConversionPlan.compile`), executed (:meth:`~ConversionPlan.run`),
and serialized (:meth:`~ConversionPlan.to_json` /
:meth:`~ConversionPlan.from_json`)::

    plan = engine.plan("COO", "CSR")
    print(plan.explain())
    csr = plan.run(coo_tensor)

    text = plan.to_json()                 # choose a plan on one host ...
    replay = ConversionPlan.from_json(text, engine=other_engine)
    csr = replay.run(coo_tensor)          # ... replay it on another

The JSON schema is versioned (:data:`PLAN_SCHEMA`) and keys every format
by its **structural key** (:func:`repro.convert.planner.structural_key`)
alongside its registry name: loading verifies the structure registered
under that name on the replaying host matches the one the plan was made
for, so a renamed or diverging registry fails loudly instead of running
the wrong kernel.  Plans pair naturally with the engine's persistent
kernel cache (``ConversionEngine(cache_dir=...)``): a replayed plan on a
warm cache directory compiles nothing.

``convert``/``make_converter`` remain the stable entry points; they are
thin shims that build and run a plan.  A compute plan
(``engine.plan_compute``) is a :class:`ConversionPlan` whose last hop
runs an op, so one writer and one reader serve both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..formats.format import Format
from ..formats.registry import UnknownFormatError, get_format
from ..storage.tensor import Tensor
from .context import PlanError
from .converters import converter_named
from .features import StructuralFeatures
from .planner import PlanOptions, structural_key
from .router import HOP_KIND_DETAIL, Hop, hop_cost, key_to_json

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..compute.ops import ComputeOp

#: Newest plan JSON schema this reader loads.  Bump when the layout
#: changes; loaders reject plans from a newer schema with a clear error.
#: Schema 2 (competing converters): hop records may carry ``kind:
#: "external"`` plus a ``converter`` name pinning the registered
#: implementation, and plans may record the structural ``features`` the
#: decision was made against.  Schema-1 documents still load.  ``native``
#: hops ride on schema 2: they add an enum value, not a layout change, so
#: plans without native hops stay interchangeable with older readers
#: (which reject a native hop loudly as an unknown kind).  Schema 3 adds
#: the terminal op of a compute plan (``op`` / ``backend`` / ``fuse`` and
#: the ``fused`` / ``compute`` hop kinds).  The writer stamps the oldest
#: schema that expresses the plan — 2 without an op, 3 with one — so
#: schema-2 readers keep loading conversion plans and reject a compute
#: plan loudly instead of replaying its hops without the op.
PLAN_SCHEMA = 3

#: Hop kinds that run a compute plan's op; only the last hop may be one.
TERMINAL_KINDS = ("fused", "compute")


def format_record(fmt: Format) -> Dict:
    """The serialized identity of a format: registry name + structural key."""
    return {
        "name": fmt.name,
        "structural_key": key_to_json(structural_key(fmt)),
    }


def resolve_format_record(record: Dict) -> Format:
    """Resolve a serialized format identity on *this* host.

    The name is looked up through the format registry (so parameterized
    specs like ``BCSR8x8`` and user-registered names resolve), then the
    registered structure is verified against the recorded structural key
    — a plan made against a different structure must not silently run.
    """
    if not isinstance(record, dict):
        raise PlanError(f"malformed plan format record: {record!r}")
    name = record.get("name")
    if not isinstance(name, str):
        raise PlanError(f"plan format record has no name: {record!r}")
    try:
        fmt = get_format(name)
    except UnknownFormatError as exc:
        raise PlanError(
            f"plan references format {name!r}, which is not registered on "
            "this host; register it (repro.formats.register_format) before "
            "loading the plan"
        ) from exc
    recorded = record.get("structural_key")
    if recorded is not None and key_to_json(structural_key(fmt)) != recorded:
        raise PlanError(
            f"format {name!r} registered on this host does not match the "
            "structure the plan was made for; the registries have diverged"
        )
    return fmt


@dataclass(frozen=True)
class ConversionPlan:
    """A complete, replayable conversion decision.

    ``hops`` is the executed sequence: the router plans one hop, and a
    loaded document may chain several; ``options`` the
    :class:`PlanOptions` every generated hop honours; ``nnz`` the
    stored-component count the plan was costed at.  Instances are immutable; ``engine`` is the
    :class:`~repro.convert.engine.ConversionEngine` that compiles and
    runs the hops (``None``: the process default engine at call time).

    A **compute plan** (``engine.plan_compute``, :mod:`repro.compute`)
    is the same object with an ``op``: its last hop is a *terminal* hop
    that runs the op instead of converting.  A ``fused`` terminal
    consumes its source directly through a generated compute kernel
    (the destination's ``pos``/``crd``/``vals`` arrays are never
    allocated); a ``compute`` terminal runs the op over the destination
    the preceding hops materialized.
    """

    hops: Tuple[Hop, ...]
    options: PlanOptions
    nnz: int = 0
    #: Structural features of the tensor the plan was decided against
    #: (None when planned from a bare nnz).
    features: Optional[StructuralFeatures] = None
    #: The op the terminal hop runs (None: a conversion plan).
    op: Optional["ComputeOp"] = None
    #: Resolved lowering backend of the terminal op's kernel.
    backend: Optional[str] = None
    engine: Optional[object] = field(default=None, repr=False, compare=False)
    #: The native hop whose kernel was not built when the router planned
    #: (see :func:`~repro.convert.router.find_route`): running the plan
    #: on at least :data:`~repro.convert.router.BULK_NNZ` stored
    #: components queues its build off the request path.  Not
    #: serialized: a replayed plan runs exactly its hops.
    _pending: Tuple[Hop, ...] = field(default=(), repr=False, compare=False)
    #: The router's ladder rung that took the edge, as ``explain()``
    #: prints it (empty for pinned, compute and loaded plans).  Not
    #: serialized.
    _rung: str = field(default="", repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.hops:
            raise PlanError("plan has no hops")
        last = self.hops[-1].kind
        if self.op is None and last in TERMINAL_KINDS:
            raise PlanError(f"a {last!r} hop runs an op; the plan names none")
        if self.op is not None and last not in TERMINAL_KINDS:
            raise PlanError(
                f"compute plan must end in a compute hop, got {last!r}"
            )
        for hop in self.hops[:-1]:
            if hop.kind in TERMINAL_KINDS:
                raise PlanError("compute hops may only terminate a plan")

    # -- structure -------------------------------------------------------
    @property
    def src(self) -> Format:
        return self.hops[0].src

    @property
    def dst(self) -> Format:
        """The destination (for a fused compute plan: the format the op
        consumes in place of materializing it)."""
        return self.hops[-1].dst

    @property
    def is_direct(self) -> bool:
        return len(self.hops) == 1

    @property
    def routed(self) -> bool:
        """True for a multi-hop plan (only a loaded document has one);
        the engine counts its executions as routed conversions."""
        return len(self.hops) > 1

    @property
    def formats(self) -> Tuple[Format, ...]:
        """The visited (materialized) formats, source first."""
        return (self.hops[0].src,) + tuple(
            hop.dst for hop in self.conversion_hops
        )

    @property
    def backend_per_hop(self) -> Tuple[str, ...]:
        """The lowering kind of every hop, in execution order."""
        return tuple(hop.kind for hop in self.hops)

    @property
    def conversion_hops(self) -> Tuple[Hop, ...]:
        """The hops that convert: every hop but a compute plan's terminal."""
        return self.hops if self.op is None else self.hops[:-1]

    @property
    def terminal(self) -> Optional[Hop]:
        """The hop that runs the op (None for a conversion plan)."""
        return None if self.op is None else self.hops[-1]

    @property
    def fused(self) -> bool:
        return self.hops[-1].kind == "fused"

    @property
    def fuse(self) -> Optional[str]:
        """A compute plan's fusion decision, ``"fused"`` or
        ``"materialize"`` (None for a conversion plan)."""
        if self.op is None:
            return None
        return "fused" if self.fused else "materialize"

    def _engine(self):
        if self.engine is not None:
            return self.engine
        from .engine import default_engine

        return default_engine()

    # -- inspection ------------------------------------------------------
    def estimated_cost(self, nnz: Optional[int] = None) -> float:
        """Estimated seconds to execute the plan on ``nnz`` stored
        components (default: the plan's own planning size), from the
        static per-kind rates of :data:`~repro.convert.router.HOP_RATES`.
        No decision reads it."""
        nnz = self.nnz if nnz is None else int(nnz)
        return sum(hop_cost(hop.kind, nnz) for hop in self.hops)

    def sources(self) -> List[Optional[str]]:
        """The generated source per hop, in execution order.

        ``external`` hops are registered converters, not generated code,
        so their entry is ``None``.  A ``native`` hop shows the generated C
        translation unit (printing needs no toolchain — only executing
        does).  Looking up a Python source compiles (or disk-loads) the
        hop's kernel through the engine cache, so a plan whose sources
        were inspected is already warm.  A compute plan's last entry is
        its op kernel.
        """
        engine = self._engine()
        out: List[Optional[str]] = []
        for hop in self.conversion_hops:
            if hop.kind == "external":
                out.append(None)
                continue
            if hop.kind == "native":
                from .native import plan_native

                out.append(
                    plan_native(hop.src, hop.dst, self.options).source
                )
                continue
            out.append(
                engine.make_converter(
                    hop.src, hop.dst, self.options, hop.kind
                ).source
            )
        if self.op is not None:
            from ..compute.kernels import plan_compute_kernel

            terminal = self.terminal
            out.append(plan_compute_kernel(
                terminal.src, self.op,
                terminal.dst if self.op.needs_destination else None,
                self.options, self.backend,
            ).source)
        return out

    def explain(self) -> str:
        """Human-readable transcript of the plan."""
        path = " -> ".join(fmt.name for fmt in self.formats)
        target = self.dst.name if self.op is None else (
            f"{self.op.name}({self.dst.name})"
        )
        lines = [
            f"plan {self.src.name} -> {target}: {path} "
            f"({len(self.hops)} hop{'s' if len(self.hops) != 1 else ''}, "
            f"est {self.estimated_cost() * 1e3:.3f} ms at {self.nnz} "
            "stored components)"
        ]
        if self.features is not None:
            lines.append(f"  structural features: {self.features.describe()}")
        for n, hop in enumerate(self.hops, 1):
            if hop.kind == "external":
                what = (
                    f"registered converter {hop.converter!r} runs this edge"
                )
            else:
                what = HOP_KIND_DETAIL[hop.kind]
            if hop.kind == "fused":
                what += (f" ({self.op.name}, {self.backend}; "
                         f"{hop.dst.name} never materialized)")
            elif hop.kind == "compute":
                what += f" ({self.op.name}, {self.backend})"
            lines.append(f"  {n}. {hop} {what}")
        if self._rung:
            lines.append(f"  {self._rung}")
        return "\n".join(lines)

    # -- execution -------------------------------------------------------
    def compile(self) -> "CompiledPlan":
        """Compile (or disk-load) every generated hop — and a compute
        plan's op kernel — now and return a ready-to-run handle, so the
        first :meth:`run` pays no compile.  An ``external`` hop warms
        the generated kernel it falls back to when its predicate refuses
        the tensor at run time."""
        engine = self._engine()
        for hop in self.conversion_hops:
            kind = "auto" if hop.kind == "external" else hop.kind
            engine.make_converter(hop.src, hop.dst, self.options, kind)
        if self.op is not None:
            engine._op_kernel(self)
        return CompiledPlan(self)

    def run(self, tensor: Tensor, x=None, alpha: Optional[float] = None):
        """Execute the plan on ``tensor`` (which must be structurally in
        the plan's source format); a compute plan's op takes the dense
        operand ``x`` (``spmv``) or the scalar ``alpha`` (``scale``)."""
        return self._engine().run_plan(self, tensor, x=x, alpha=alpha)

    __call__ = run

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot (versioned; see :data:`PLAN_SCHEMA`)."""
        hops = []
        for hop in self.hops:
            record = {
                "src": format_record(hop.src),
                "dst": format_record(hop.dst),
                "kind": hop.kind,
            }
            if hop.converter is not None:
                record["converter"] = hop.converter
            hops.append(record)
        data = {
            "schema": 2 if self.op is None else PLAN_SCHEMA,
            "kind": (
                "repro-conversion-plan" if self.op is None
                else "repro-compute-plan"
            ),
            "hops": hops,
            "options": self.options.to_dict(),
            "nnz": self.nnz,
            "routed": self.routed,
        }
        if self.features is not None:
            data["features"] = self.features.to_dict()
        if self.op is not None:
            data.update(op=self.op.name, backend=self.backend, fuse=self.fuse)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """The plan as a JSON document (see the module docstring)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict, engine=None) -> "ConversionPlan":
        """Rebuild a plan — conversion or compute — from :meth:`to_dict`
        output.

        Formats resolve through this host's registry and are verified
        against the recorded structural keys; hops must be of a known
        kind and chain; an ``external`` hop pins the registered converter
        that won the edge by name, and loading fails loudly when that
        converter is not registered on this host (e.g. a scipy-delegated
        plan replayed where scipy is absent) rather than silently running
        a different implementation.  A compute plan's ``op`` must be a
        registered op and its ``backend`` a lowering backend; the fusion
        decision is read off the terminal hop.  Every violation, and a
        newer schema, raises :class:`~repro.convert.context.PlanError`.

        Plans written before the chunked executor's deletion still load:
        a ``chunked`` hop runs as the ``vector`` hop it rewrote, and the
        ``workers`` count it ran with is checked and ignored.  So do plans
        written before the bridge hop kind's deletion: a ``bridge`` hop
        (HASH -> COO) runs as the ``vector`` hop of the same pair, and
        the recorded ``routed`` flag is ignored (it is derived).
        """
        if not isinstance(data, dict) or "hops" not in data:
            raise PlanError("not a serialized plan")
        schema = data.get("schema")
        if not isinstance(schema, int) or schema > PLAN_SCHEMA:
            raise PlanError(
                f"plan schema {schema!r} is newer than this reader "
                f"(supports <= {PLAN_SCHEMA}); upgrade to load it"
            )
        hop_records = data["hops"]
        if not isinstance(hop_records, list):
            raise PlanError(f"plan hops must be a list, got {hop_records!r}")
        hops: List[Hop] = []
        for record in hop_records:
            if not isinstance(record, dict):
                raise PlanError(f"malformed plan hop record: {record!r}")
            kind = record.get("kind")
            if kind in ("chunked", "bridge"):
                kind = "vector"
            if kind not in HOP_KIND_DETAIL:
                raise PlanError(f"unknown plan hop kind {kind!r}")
            src = resolve_format_record(record.get("src", {}))
            dst = resolve_format_record(record.get("dst", {}))
            converter = record.get("converter")
            if kind == "external":
                if not isinstance(converter, str):
                    raise PlanError(
                        f"external plan hop {src.name} -> {dst.name} does "
                        "not name its converter"
                    )
                if converter_named(src, dst, converter) is None:
                    raise PlanError(
                        f"plan pins converter {converter!r} for "
                        f"{src.name} -> {dst.name}, which is not registered "
                        "on this host; register it (repro.convert."
                        "register_converter) before loading the plan"
                    )
            hops.append(
                Hop(
                    src=src,
                    dst=dst,
                    kind=kind,
                    converter=converter if kind == "external" else None,
                )
            )
        for prev, nxt in zip(hops, hops[1:]):
            if structural_key(prev.dst) != structural_key(nxt.src):
                raise PlanError(f"plan hops do not chain: {prev} then {nxt}")
        op, backend = data.get("op"), None
        if op is not None:
            from ..compute.ops import ComputeOpError, get_op

            if not isinstance(op, str):
                raise PlanError(f"malformed plan op: {op!r}")
            try:
                op = get_op(op)
            except ComputeOpError as exc:
                raise PlanError(str(exc)) from None
            backend = data.get("backend", "scalar")
            if backend not in ("scalar", "vector", "native"):
                raise PlanError(f"malformed plan backend: {backend!r}")
        try:
            options = PlanOptions.from_dict(data.get("options", {}))
            workers = int(data.get("workers", 0))  # older writers only
            nnz = int(data.get("nnz", 0))
            if workers < 0 or nnz < 0:
                raise ValueError(
                    f"workers and nnz must be >= 0, got {workers}, {nnz}"
                )
            recorded = data.get("features")
            features = (
                StructuralFeatures.from_dict(recorded)
                if isinstance(recorded, dict)
                else None
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise PlanError(f"malformed plan fields: {exc}") from exc
        return cls(
            hops=tuple(hops),
            options=options,
            nnz=nnz,
            features=features,
            op=op,
            backend=backend,
            engine=engine,
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes, Dict],
                  engine=None) -> "ConversionPlan":
        """Rebuild a plan from :meth:`to_json` output (or an already
        parsed dict), bound to ``engine`` (default: the process engine)."""
        if isinstance(text, (str, bytes)):
            try:
                text = json.loads(text)
            except ValueError as exc:
                raise PlanError(f"plan JSON does not parse: {exc}") from exc
        return cls.from_dict(text, engine=engine)

    def __str__(self) -> str:
        return " -> ".join(fmt.name for fmt in self.formats)


class CompiledPlan:
    """A plan whose generated hops are all compiled and cached.

    Returned by :meth:`ConversionPlan.compile`; calling it converts a
    tensor with zero compile work left (every kernel sits in the engine
    cache — and, with ``cache_dir`` set, on disk for the next process)::

        runner = engine.plan("COO", "CSR").compile()
        csr = runner(coo_tensor)
    """

    def __init__(self, plan: ConversionPlan) -> None:
        self.plan = plan

    @property
    def src_format(self) -> Format:
        return self.plan.src

    @property
    def dst_format(self) -> Format:
        return self.plan.dst

    @property
    def backend_per_hop(self) -> Tuple[str, ...]:
        return self.plan.backend_per_hop

    def sources(self) -> List[Optional[str]]:
        """Generated source per hop (``None`` for external hops)."""
        return self.plan.sources()

    def __call__(self, tensor: Tensor, x=None,
                 alpha: Optional[float] = None):
        return self.plan.run(tensor, x=x, alpha=alpha)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledPlan {self.plan.src.name} -> {self.plan.dst.name} "
            f"hops={len(self.plan.hops)}>"
        )


