"""First-class conversion plans: inspect, serialize and replay conversions.

The paper's core artifact is a *generated routine*; this module makes the
plan that produces it a public object instead of an engine internal.
:meth:`ConversionEngine.plan <repro.convert.engine.ConversionEngine.plan>`
returns a :class:`ConversionPlan` — the full decision the engine would
make for a ``convert()`` call (route hops, lowering backend per hop,
chunk-parallel worker count) — which can be inspected (:meth:`~
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
thin shims that build and run a plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..formats.format import Format
from ..formats.registry import UnknownFormatError, get_format
from ..storage.tensor import Tensor
from .context import PlanError
from .converters import converter_named
from .features import StructuralFeatures
from .planner import PlanOptions, structural_key
from .router import HOP_KIND_DETAIL, Hop

#: Version of the plan JSON schema.  Bump when the layout changes;
#: loaders reject plans from a newer schema with a clear error.
#: Schema 2 (competing converters): hop records may carry ``kind:
#: "external"`` plus a ``converter`` name pinning the registered
#: implementation, and plans may record the structural ``features`` the
#: decision was made against.  Schema-1 documents still load.  ``native``
#: hops ride on schema 2: they add an enum value, not a layout change, so
#: plans without native hops stay interchangeable with older readers
#: (which reject a native hop loudly as an unknown kind).
PLAN_SCHEMA = 2

#: Hop kinds a serialized plan may carry.
_PLAN_HOP_KINDS = (
    "scalar", "vector", "native", "bridge", "chunked", "external"
)


def key_to_json(key) -> List:
    """A structural key (nested tuples) as JSON-compatible nested lists."""
    if isinstance(key, tuple):
        return [key_to_json(item) for item in key]
    return key


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


def _hop_cost_kind(hop: Hop) -> str:
    """The cost-model row a hop charges (per-converter for externals)."""
    return f"external:{hop.converter}" if hop.kind == "external" else hop.kind


# ----------------------------------------------------------------------
# the plan codec: one writer and one reader for every plan family
# (conversion plans here, compute plans in :mod:`repro.compute.plan`)


def plan_document(plan, schema: int, kind: str) -> Dict:
    """The JSON snapshot of the fields every plan family carries —
    ``hops`` / ``options`` / ``workers`` / ``nnz`` / ``routed`` and, when
    recorded, ``features`` — under the family's ``schema`` and ``kind``."""
    hops = []
    for hop in plan.hops:
        record = {
            "src": format_record(hop.src),
            "dst": format_record(hop.dst),
            "kind": hop.kind,
        }
        if hop.converter is not None:
            record["converter"] = hop.converter
        hops.append(record)
    data = {
        "schema": schema,
        "kind": kind,
        "hops": hops,
        "options": plan.options.to_dict(),
        "workers": plan.workers,
        "nnz": plan.nnz,
        "routed": plan.routed,
    }
    if plan.features is not None:
        data["features"] = plan.features.to_dict()
    return data


def parse_plan_json(text: Union[str, bytes, Dict]) -> Dict:
    """A plan document from JSON text (an already parsed dict passes
    through); unparsable text raises :class:`PlanError`."""
    if not isinstance(text, (str, bytes)):
        return text
    try:
        return json.loads(text)
    except ValueError as exc:
        raise PlanError(f"plan JSON does not parse: {exc}") from exc


def check_plan_header(data, what: str, newest: int) -> int:
    """Verify ``data`` is a plan document this reader can load and
    return its schema number; a newer schema raises :class:`PlanError`."""
    if not isinstance(data, dict) or "hops" not in data:
        raise PlanError(f"not a serialized {what}")
    schema = data.get("schema")
    if not isinstance(schema, int) or schema > newest:
        raise PlanError(
            f"plan schema {schema!r} is newer than this reader "
            f"(supports <= {newest}); upgrade to load it"
        )
    return schema


def read_plan_fields(data: Dict, hop_kinds: Tuple[str, ...]) -> Dict:
    """Parse and verify the fields :func:`plan_document` wrote, as
    constructor keywords (``hops``, ``options``, ``workers``, ``nnz``,
    ``routed``, ``features``).

    Formats resolve through this host's registry and are verified
    against the recorded structural keys; hops must be of ``hop_kinds``
    and chain; an ``external`` hop pins the registered converter that
    won the edge by name, and loading fails loudly when that converter
    is not registered on this host (e.g. a scipy-delegated plan replayed
    where scipy is absent) rather than silently running a different
    implementation.  Every violation raises :class:`PlanError`.
    """
    hop_records = data["hops"]
    if not isinstance(hop_records, list):
        raise PlanError(f"plan hops must be a list, got {hop_records!r}")
    hops: List[Hop] = []
    for record in hop_records:
        if not isinstance(record, dict):
            raise PlanError(f"malformed plan hop record: {record!r}")
        kind = record.get("kind")
        if kind not in hop_kinds:
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
    if not hops:
        raise PlanError("plan has no hops")
    for prev, nxt in zip(hops, hops[1:]):
        if structural_key(prev.dst) != structural_key(nxt.src):
            raise PlanError(f"plan hops do not chain: {prev} then {nxt}")
    try:
        options = PlanOptions.from_dict(data.get("options", {}))
        workers = int(data.get("workers", 0))
        nnz = int(data.get("nnz", 0))
        recorded = data.get("features")
        features = (
            StructuralFeatures.from_dict(recorded)
            if isinstance(recorded, dict)
            else None
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise PlanError(f"malformed plan fields: {exc}") from exc
    return {
        "hops": tuple(hops),
        "options": options,
        "workers": workers,
        "nnz": nnz,
        "routed": bool(data.get("routed", len(hops) > 1)),
        "features": features,
    }


@dataclass(frozen=True)
class ConversionPlan:
    """A complete, replayable conversion decision.

    ``hops`` is the executed sequence (single direct hop, or a routed
    multi-hop path); ``options`` the :class:`PlanOptions` every generated
    hop honours; ``workers`` the chunk-pool size the plan executes with
    (``0``: serial); ``nnz`` the stored-component count the plan was
    costed at; ``routed`` whether the engine counts executions as routed
    conversions.  Instances are immutable; ``engine`` is the
    :class:`~repro.convert.engine.ConversionEngine` that compiles and
    runs the hops (``None``: the process default engine at call time).
    """

    hops: Tuple[Hop, ...]
    options: PlanOptions
    workers: int = 0
    nnz: int = 0
    routed: bool = False
    #: Structural features of the tensor the plan was decided against
    #: (None when planned from a bare nnz).
    features: Optional[StructuralFeatures] = None
    engine: Optional[object] = field(default=None, repr=False, compare=False)

    # -- structure -------------------------------------------------------
    @property
    def src(self) -> Format:
        return self.hops[0].src

    @property
    def dst(self) -> Format:
        return self.hops[-1].dst

    @property
    def is_direct(self) -> bool:
        return len(self.hops) == 1

    @property
    def formats(self) -> Tuple[Format, ...]:
        """The visited formats, source first."""
        return (self.hops[0].src,) + tuple(hop.dst for hop in self.hops)

    @property
    def backend_per_hop(self) -> Tuple[str, ...]:
        """The lowering kind of every hop, in execution order."""
        return tuple(hop.kind for hop in self.hops)

    def _engine(self):
        if self.engine is not None:
            return self.engine
        from .engine import default_engine

        return default_engine()

    # -- inspection ------------------------------------------------------
    def estimated_cost(self, nnz: Optional[int] = None,
                       workers: Optional[int] = None) -> float:
        """Estimated seconds to execute the plan on ``nnz`` stored
        components with ``workers`` chunk workers (defaults: the plan's
        own planning size and worker count).  Uses the engine's cost
        model, so measured hop timings sharpen the estimate over time."""
        nnz = self.nnz if nnz is None else int(nnz)
        workers = self.workers if workers is None else int(workers)
        model = self._engine().cost_model
        return sum(
            model.cost(_hop_cost_kind(hop), nnz, workers or 1, self.features)
            for hop in self.hops
        )

    def sources(self) -> List[Optional[str]]:
        """The generated source per hop, in execution order.

        Bridge hops are library bulk extractions and ``external`` hops
        are registered converters — neither is generated code, so their
        entry is ``None``.  A ``native`` hop shows the generated C
        translation unit (printing needs no toolchain — only executing
        does).  Looking up a Python source compiles (or disk-loads) the
        hop's kernel through the engine cache, so a plan whose sources
        were inspected is already warm.  A ``chunked`` hop whose pair has
        no chunked form on this host (a replayed plan from elsewhere)
        shows the serial vector kernel — the same fallback :meth:`run`
        executes.
        """
        engine = self._engine()
        out: List[Optional[str]] = []
        for hop in self.hops:
            if hop.kind in ("bridge", "external"):
                out.append(None)
                continue
            if hop.kind == "native":
                from .native import plan_native

                out.append(
                    plan_native(hop.src, hop.dst, self.options).source
                )
                continue
            if hop.kind == "chunked":
                chunked = engine.make_chunked(hop.src, hop.dst, self.options)
                if chunked is not None:
                    out.append(chunked.source)
                    continue
            kind = "vector" if hop.kind == "chunked" else hop.kind
            out.append(
                engine.make_converter(
                    hop.src, hop.dst, self.options, kind
                ).source
            )
        return out

    def explain(self) -> str:
        """Human-readable transcript of the plan."""
        path = " -> ".join(fmt.name for fmt in self.formats)
        lines = [
            f"plan {self.src.name} -> {self.dst.name}: {path} "
            f"({len(self.hops)} hop{'s' if len(self.hops) != 1 else ''}, "
            f"est {self.estimated_cost() * 1e3:.3f} ms at {self.nnz} "
            "stored components"
            + (f", {self.workers} chunk workers)" if self.workers else ")")
        ]
        if self.features is not None:
            lines.append(f"  structural features: {self.features.describe()}")
        model = self._engine().cost_model
        for n, hop in enumerate(self.hops, 1):
            cost, provenance = model.cost_detail(
                _hop_cost_kind(hop), self.nnz, self.workers or 1,
                self.features,
            )
            if hop.kind == "external":
                what = (
                    f"registered converter {hop.converter!r} won this edge"
                )
            else:
                what = HOP_KIND_DETAIL[hop.kind]
            lines.append(
                f"  {n}. {hop} {what} "
                f"(est {cost * 1e3:.3f} ms, {provenance} cost)"
            )
        return "\n".join(lines)

    # -- execution -------------------------------------------------------
    def compile(self) -> "CompiledPlan":
        """Compile (or disk-load) every generated hop now and return a
        ready-to-run handle, so the first :meth:`run` pays no compile.
        Hops warm exactly what :meth:`run` will execute, including the
        serial-vector fallback for ``chunked`` hops without a chunked
        form on this host."""
        engine = self._engine()
        for hop in self.hops:
            if hop.kind in ("bridge", "external"):
                # library code, nothing to compile; an external hop whose
                # predicate refuses the tensor at run time compiles its
                # generated fallback lazily
                continue
            if hop.kind == "chunked" or (hop.kind == "vector" and self.workers):
                chunked = engine.make_chunked(hop.src, hop.dst, self.options)
                if chunked is not None:
                    continue
            kind = "vector" if hop.kind == "chunked" else hop.kind
            engine.make_converter(hop.src, hop.dst, self.options, kind)
        return CompiledPlan(self)

    def run(self, tensor: Tensor) -> Tensor:
        """Execute the plan on ``tensor`` (which must be structurally in
        the plan's source format)."""
        return self._engine().run_plan(self, tensor)

    __call__ = run

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot (versioned; see :data:`PLAN_SCHEMA`)."""
        return plan_document(self, PLAN_SCHEMA, "repro-conversion-plan")

    def to_json(self, indent: Optional[int] = None) -> str:
        """The plan as a JSON document (see the module docstring)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict, engine=None) -> "ConversionPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        An unknown format name, diverged structure, unknown hop kind,
        unregistered pinned converter or newer schema raises
        :class:`~repro.convert.context.PlanError` (see
        :func:`read_plan_fields`).
        """
        check_plan_header(data, "ConversionPlan", PLAN_SCHEMA)
        return cls(engine=engine, **read_plan_fields(data, _PLAN_HOP_KINDS))

    @classmethod
    def from_json(cls, text: Union[str, bytes, Dict],
                  engine=None) -> "ConversionPlan":
        """Rebuild a plan from :meth:`to_json` output (or an already
        parsed dict), bound to ``engine`` (default: the process engine)."""
        return cls.from_dict(parse_plan_json(text), engine=engine)

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
        """Generated source per hop (``None`` for bridge hops)."""
        return self.plan.sources()

    def __call__(self, tensor: Tensor) -> Tensor:
        return self.plan.run(tensor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledPlan {self.plan.src.name} -> {self.plan.dst.name} "
            f"hops={len(self.plan.hops)}>"
        )


