"""Multi-hop conversion routing over the format graph.

Direct conversions between some pairs only lower to the scalar backend —
today that is every pair touching a hashed level.  Rather than silently
running a per-nonzero Python loop, the engine can *route* the conversion
through an intermediate format whose hops are bulk numpy operations::

    HASH -> COO -> CSR        # bridge extraction, then a vectorized hop
    ^^^^^^^^^^^    ^^^^^^
    bulk mask/gather over     generated vector
    the hash table            conversion routine

Routing is cost-driven: :class:`CostModel` holds per-nonzero throughput
estimates for each hop kind — constant seeds until the engine has
measured the kind on this host.
:func:`find_route` runs Dijkstra over the registered formats and returns a
:class:`ConversionRoute` whose ``explain()`` transcript shows the decision.

Routed execution is **bit-identical** to the direct scalar conversion:
bridge extractions replay the scalar loop's iteration order exactly, and
the vector backend is bit-identical to scalar by construction; the test
suite asserts equality for every multi-hop pair.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..formats.format import Format, FormatError
from ..formats.registry import FormatSpec, available_formats, get_format
from ..storage.tensor import Tensor
from .converters import converters_for
from .features import StructuralFeatures
from .planner import PlanOptions, resolve_backend, structural_key

#: Hop kinds, in the cost model's vocabulary.  ``scalar``, ``vector``
#: and ``native`` are the generated-code backends (``native`` is the
#: compiled-C backend); ``bridge`` is a registered bulk extraction
#: (below); ``external`` is a registered competing converter (see
#: :mod:`repro.convert.converters`) — its cost-table rows are keyed
#: ``"external:<name>"`` per converter.
HOP_KINDS = ("scalar", "vector", "native", "bridge", "external")

#: Reference nonzero count used when no tensor is at hand (``engine.route``
#: without ``nnz``): large enough that throughput, not per-hop overhead,
#: dominates the decision.
DEFAULT_ROUTE_NNZ = 100_000


#: Provenance labels of a cost estimate.
SEEDED = "seeded"
MEASURED = "measured"

#: Schema version of persisted cost-model files (``CostModel.save``).
COST_MODEL_SCHEMA = 1

#: EWMA smoothing factor for measured per-nonzero rates: each observation
#: contributes a quarter, so one outlier conversion cannot flip a route.
EWMA_ALPHA = 0.25

#: Relative drift of a measured rate that republishes it (bumping
#: :attr:`CostModel.version` so engines drop their cached routes).
PUBLISH_DRIFT = 0.25


@dataclass
class CostModel:
    """Per-hop conversion cost estimates, linear in the stored size.

    The *seeded* defaults are plain constants (scalar loops ~1.5 µs per
    stored component, the vector backend ~40 ns, the chunked executor
    ~20 ns) that only have to rank the kinds until measurements replace
    them.  ``hop_overhead`` charges each hop's fixed cost
    (dispatch, array allocation, tensor marshalling) so short routes win
    ties and tiny tensors stay direct.

    On top of the seeds the model keeps a **measured** table: the engine
    records the wall time of every executed hop (:meth:`observe`) into a
    per-kind EWMA of the per-nonzero rate.  Once a kind has at least
    ``min_observations`` recordings, :meth:`cost` prefers the measured
    rate over the seeded one — routing decisions then reflect *this*
    host — and ``ConversionRoute.explain()`` labels each edge ``seeded``
    or ``measured``.  Models persist to JSON (:meth:`save` / :meth:`load`).
    """

    scalar_per_nnz: float = 1.5e-6
    vector_per_nnz: float = 4.0e-8
    bridge_per_nnz: float = 2.0e-8
    chunked_per_nnz: float = 2.0e-8
    #: The compiled-C backend streams nonzeros with no interpreter or
    #: numpy dispatch in the loop; the seed sits below chunked.
    native_per_nnz: float = 1.2e-8
    hop_overhead: float = 5.0e-5
    #: Seeded rate/overhead of registered external converters (the scipy
    #: delegates, or user registrations without measured history).  The
    #: rate sits between chunked and vector — external implementations
    #: beat the serial vector kernel on bulk streams but not the
    #: chunk-parallel executor — and the overhead charges the tensor
    #: marshalling at the library boundary, which keeps tiny tensors on
    #: the generated kernels.
    external_per_nnz: float = 2.2e-8
    external_overhead: float = 2.0e-4
    #: Fused convert-and-compute hops (:mod:`repro.compute`): one pass
    #: that gathers the source and folds the consuming op, skipping the
    #: intermediate's assembly.  Seeded slightly above the vector
    #: conversion rate (the gather plus the op's reduction); the
    #: ``compute`` kind prices the op alone over an already-materialized
    #: tensor.  Seeds never *select* fusion: the fusion planner requires
    #: ``min_observations`` measured ``fused`` timings before it will
    #: prefer a fused hop (see ``ConversionEngine.plan_compute``).
    fused_per_nnz: float = 5.0e-8
    compute_per_nnz: float = 2.5e-8
    #: Observations of a kind required before measured rates take over.
    min_observations: int = 3
    #: Smallest hop size (stored components) worth recording: below this,
    #: fixed per-call overhead dominates and extrapolating a per-nonzero
    #: rate from it would wildly misprice bulk conversions.
    min_nnz: int = 4096
    #: Measured per-kind state, restored by :meth:`load` — normally left
    #: to default and filled through :meth:`observe`.
    measured: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        #: rates as last seen by consumers; drift beyond PUBLISH_DRIFT
        #: bumps ``version`` (route caches key on it).  Only entries that
        #: already crossed ``min_observations`` count as published — a
        #: restored sub-threshold entry must still bump the version when
        #: it later reaches the threshold (cost_detail flips provenance
        #: at that point, so cached routes must be re-planned).
        self._published: Dict[str, float] = {
            kind: entry["rate"]
            for kind, entry in self.measured.items()
            if entry.get("count", 0) >= self.min_observations
        }
        self._version = 0

    # -- measured rates --------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter of *meaningful* measured-rate changes.

        Bumped when a kind first reaches ``min_observations`` and
        whenever its EWMA rate drifts more than ``PUBLISH_DRIFT`` from
        the last published value.  The engine keys its route cache on
        this, so routes are re-planned exactly when measurements could
        change them.
        """
        with self._lock:
            return self._version

    @staticmethod
    def effective_kind(kind: str, workers: int = 1) -> str:
        """The cost-table row a hop charges: ``vector`` hops executed
        chunk-parallel charge (and record) the ``chunked`` rate."""
        if kind == "chunked" or (kind == "vector" and workers > 1):
            return "chunked"
        return kind

    def _overhead(self, key: str) -> float:
        """Fixed per-hop cost of an effective kind: external converters
        pay the marshalling overhead, everything else the hop overhead."""
        return (
            self.external_overhead
            if key.startswith("external")
            else self.hop_overhead
        )

    def observe(self, kind: str, nnz: int, workers: int = 1,
                seconds: float = 0.0) -> None:
        """Record the measured wall time of one executed hop.

        ``kind`` is the hop kind (``scalar``/``vector``/``bridge``/
        ``chunked``); a ``vector`` hop that ran chunk-parallel
        (``workers > 1``) records under ``chunked``.  The per-nonzero
        rate (after subtracting the fixed ``hop_overhead``) feeds a
        per-kind EWMA; degenerate observations are ignored — fewer than
        ``min_nnz`` stored components, non-positive time, or a hop faster
        than ``hop_overhead`` (such timings carry no throughput signal,
        and recording them as a zero rate would pin the measured cost of
        arbitrarily large hops at the fixed overhead).
        """
        key = self.effective_kind(kind, workers)
        overhead = self._overhead(key)
        if nnz < max(self.min_nnz, 1) or seconds <= overhead:
            return
        rate = (seconds - overhead) / nnz
        with self._lock:
            entry = self.measured.get(key)
            if entry is None:
                entry = {"rate": rate, "count": 0}
                self.measured[key] = entry
            else:
                entry["rate"] += EWMA_ALPHA * (rate - entry["rate"])
            entry["count"] += 1
            if entry["count"] < self.min_observations:
                return
            published = self._published.get(key)
            drifted = (
                published is None
                or abs(entry["rate"] - published)
                > PUBLISH_DRIFT * max(published, 1e-12)
            )
            if drifted:
                self._published[key] = entry["rate"]
                self._version += 1

    def observation_count(self, kind: str) -> int:
        """Recorded observations of ``kind`` (an effective kind)."""
        with self._lock:
            entry = self.measured.get(kind)
            return int(entry["count"]) if entry else 0

    def _measured_rate(self, kind: str) -> Optional[float]:
        with self._lock:
            entry = self.measured.get(kind)
            if entry is None or entry["count"] < self.min_observations:
                return None
            return float(entry["rate"])

    # -- estimates -------------------------------------------------------
    def cost(self, kind: str, nnz: int, workers: int = 1,
             features: Optional[StructuralFeatures] = None) -> float:
        """Estimated seconds for one hop of ``kind`` over ``nnz`` components.

        ``workers > 1`` plans for chunk-parallel execution: vectorizable
        hops (``"vector"`` or the explicit ``"chunked"`` kind) are costed
        at the chunked throughput — this is how the router weighs routes
        when the engine converts with ``parallel=`` engaged.  Kinds with
        at least ``min_observations`` recorded timings use the measured
        rate (see :meth:`cost_detail` for the provenance).  ``kind`` may
        be ``"external:<name>"`` for a registered converter (seeded at
        the shared external rate, measured per converter).
        """
        return self.cost_detail(kind, nnz, workers, features)[0]

    def cost_detail(self, kind: str, nnz: int, workers: int = 1,
                    features: Optional[StructuralFeatures] = None,
                    ) -> Tuple[float, str]:
        """``(estimated seconds, provenance)`` for one hop — provenance is
        ``"measured"`` when the kind's measured EWMA rate is trusted
        (enough observations), ``"seeded"`` otherwise.  ``features``
        refines seeded estimates with structural facts about the tensor:
        the chunked executor's sorted-run fast path degrades on shuffled
        streams, so its seeded rate is penalized as sortedness drops.
        """
        key = self.effective_kind(kind, workers)
        overhead = self._overhead(key)
        rate = self._measured_rate(key)
        if rate is not None:
            return rate * max(int(nnz), 0) + overhead, MEASURED
        if key.startswith("external"):
            per_nnz = self.external_per_nnz
        else:
            per_nnz = {
                "scalar": self.scalar_per_nnz,
                "vector": self.vector_per_nnz,
                "bridge": self.bridge_per_nnz,
                "chunked": self.chunked_per_nnz,
                "native": self.native_per_nnz,
                "fused": self.fused_per_nnz,
                "compute": self.compute_per_nnz,
            }[key]
        if key == "chunked" and features is not None:
            sortedness = min(max(features.sortedness, 0.0), 1.0)
            per_nnz *= 1.0 + 1.7 * (1.0 - sortedness)
        return per_nnz * max(int(nnz), 0) + overhead, SEEDED

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot (seeds + measured table)."""
        with self._lock:
            measured = {
                kind: dict(entry) for kind, entry in self.measured.items()
            }
        return {
            "schema": COST_MODEL_SCHEMA,
            "kind": "repro-cost-model",
            "seeded": {
                "scalar_per_nnz": self.scalar_per_nnz,
                "vector_per_nnz": self.vector_per_nnz,
                "bridge_per_nnz": self.bridge_per_nnz,
                "chunked_per_nnz": self.chunked_per_nnz,
                "native_per_nnz": self.native_per_nnz,
                "hop_overhead": self.hop_overhead,
                "external_per_nnz": self.external_per_nnz,
                "external_overhead": self.external_overhead,
                "fused_per_nnz": self.fused_per_nnz,
                "compute_per_nnz": self.compute_per_nnz,
            },
            "min_observations": self.min_observations,
            "min_nnz": self.min_nnz,
            "measured": measured,
        }

    def save(self, path: Union[str, "os.PathLike"]) -> None:
        """Persist the model (seeds **and** measured rates) as JSON, so a
        warm process start routes with this host's measured costs.
        Missing parent directories are created (``mkdir -p`` semantics),
        so saving into a fresh state directory just works."""
        data = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            handle.write(data + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Union[str, "os.PathLike"]) -> "CostModel":
        """Load a model from ``path``.

        Accepts a file written by :meth:`save` (seeds + measured table
        restored exactly).  Anything else — unreadable, not JSON, or JSON
        of another kind — degrades to the default model with a single
        warning.
        """
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            warnings.warn(
                f"could not read cost model from {os.fspath(path)!r} "
                f"({exc}); using the default seeds",
                RuntimeWarning,
                stacklevel=2,
            )
            return cls()
        if isinstance(data, dict) and data.get("kind") == "repro-cost-model":
            return cls._from_saved(data, os.fspath(path))
        warnings.warn(
            f"{os.fspath(path)!r} is not a cost-model file "
            "(kind != 'repro-cost-model'); using the default seeds",
            RuntimeWarning,
            stacklevel=2,
        )
        return cls()

    @classmethod
    def _from_saved(cls, data: Dict, origin: str) -> "CostModel":
        try:
            seeds = data.get("seeded", {})
            model = cls(
                **{
                    name: float(seeds[name])
                    for name in (
                        "scalar_per_nnz", "vector_per_nnz", "bridge_per_nnz",
                        "chunked_per_nnz", "native_per_nnz", "hop_overhead",
                        "external_per_nnz", "external_overhead",
                        "fused_per_nnz", "compute_per_nnz",
                    )
                    if name in seeds
                },
                min_observations=int(
                    data.get("min_observations", cls.min_observations)
                ),
                min_nnz=int(data.get("min_nnz", cls.min_nnz)),
            )
            for kind, entry in dict(data.get("measured", {})).items():
                model.measured[str(kind)] = {
                    "rate": float(entry["rate"]),
                    "count": int(entry["count"]),
                }
            model.__post_init__()  # republish the restored measured rates
            return model
        except (KeyError, TypeError, ValueError) as exc:
            warnings.warn(
                f"malformed cost-model file {origin!r} ({exc}); "
                "using the default seeds",
                RuntimeWarning,
                stacklevel=3,
            )
            return cls()


# ----------------------------------------------------------------------
# extraction bridges

#: Bulk extractions for formats whose levels cannot join the generic
#: vector-emission protocol (yet): structural key of the source format ->
#: (intermediate format, extraction function).  The extraction must be
#: bit-identical to the generated scalar src->intermediate routine.
_BRIDGES: Dict[Tuple, Tuple[Format, Callable[[Tensor], Tensor]]] = {}


def register_bridge(
    src_format: Format,
    intermediate: Format,
    extract: Callable[[Tensor], Tensor],
) -> None:
    """Register a bulk extraction bridge for ``src_format`` (structurally:
    renamed twins share the bridge).  ``extract(tensor)`` must return the
    tensor in ``intermediate``, bit-identical to the generated scalar
    conversion for the same pair."""
    _BRIDGES[structural_key(src_format)] = (intermediate, extract)


def bridge_for(src_format: Format) -> Optional[Tuple[Format, Callable]]:
    """The (intermediate, extraction) bridge of ``src_format``, if any."""
    return _BRIDGES.get(structural_key(src_format))


def _hash_to_coo(tensor: Tensor) -> Tensor:
    """Bulk extraction of a (dense, hashed) table into COO.

    Replays the scalar loop's iteration order — rows ascending, slots
    ascending within each row — as one mask/gather: flat slot index order
    *is* that order.  Empty slots (``crd < 0``) and explicit zeros are
    dropped exactly as the generated guard drops them.
    """
    from ..formats.library import COO

    width = tensor.meta(1, "W")
    crd = tensor.array(1, "crd")
    vals = tensor.vals
    keep = np.flatnonzero((crd >= 0) & (vals != 0.0))
    arrays = {
        (0, "pos"): np.array([0, len(keep)], dtype=np.int64),
        (0, "crd"): keep // max(width, 1),
        (1, "crd"): crd[keep],
    }
    return Tensor(COO, tensor.dims, arrays, {}, vals[keep])


def _register_builtin_bridges() -> None:
    from ..formats.library import COO, HASH

    register_bridge(HASH, COO, _hash_to_coo)


# ----------------------------------------------------------------------
# routes


#: What each hop kind executes, as ``explain()`` transcripts word it
#: (routes and plans share the table).
HOP_KIND_DETAIL = {
    "scalar": "generated per-nonzero loop nest",
    "vector": "generated bulk-numpy routine",
    "native": "generated native (compiled C) routine",
    "bridge": "bulk extraction (mask/gather, no codegen)",
    "chunked": "chunk-parallel rewrite of the vector routine",
    "external": "registered converter (external implementation)",
}


@dataclass(frozen=True)
class Hop:
    """One edge of a conversion route.

    ``cost`` is the estimated seconds of this hop at the route's planning
    size, ``provenance`` whether the estimate came from the cost model's
    constant seeds (``"seeded"``) or from this host's own measured hop
    timings (``"measured"``).  ``converter`` names the registered
    converter that won the hop when ``kind`` is ``"external"`` — the
    plan schema pins it, so replays run the same implementation.
    """

    src: Format
    dst: Format
    kind: str  # "scalar" | "vector" | "native" | "bridge" | "chunked" | "external"
    cost: float = 0.0
    provenance: str = SEEDED
    converter: Optional[str] = None

    def __str__(self) -> str:
        label = self.kind if not self.converter else (
            f"{self.kind}:{self.converter}"
        )
        return f"{self.src.name} -> {self.dst.name} [{label}]"


@dataclass(frozen=True)
class ConversionRoute:
    """A conversion path chosen by the router.

    ``hops`` is the executed sequence; ``cost`` the estimated seconds at
    ``nnz`` stored components; ``direct_cost`` the estimate for the direct
    single-hop conversion the route was weighed against.  Calling the
    route converts a tensor (hop converters come from ``engine``, the
    default engine unless one is passed).
    """

    hops: Tuple[Hop, ...]
    cost: float
    direct_cost: float
    nnz: int
    options: PlanOptions
    #: Structural features the route was planned against (None when the
    #: route was planned from a bare nnz, without a tensor in hand).
    features: Optional[StructuralFeatures] = None

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
    def beats_direct(self) -> bool:
        """True when executing this route is preferable to the plain
        direct conversion: a multi-hop path, a direct bridge extraction,
        or a direct registered converter that beat the generated kernel.
        This is *the* engage-routing predicate — the engine and the CLI
        display both consult it."""
        return not self.is_direct or self.hops[0].kind in (
            "bridge", "external"
        )

    @property
    def formats(self) -> Tuple[Format, ...]:
        """The visited formats, source first."""
        return (self.hops[0].src,) + tuple(hop.dst for hop in self.hops)

    @property
    def backend_per_hop(self) -> Tuple[str, ...]:
        """The lowering kind of every hop, in execution order."""
        return tuple(hop.kind for hop in self.hops)

    def explain(self) -> str:
        """Human-readable transcript of the routing decision."""
        path = " -> ".join(fmt.name for fmt in self.formats)
        lines = [
            f"route {self.src.name} -> {self.dst.name}: {path} "
            f"({len(self.hops)} hop{'s' if len(self.hops) != 1 else ''}, "
            f"est {self.cost * 1e3:.3f} ms at {self.nnz} stored components)"
        ]
        if self.features is not None:
            lines.append(f"  structural features: {self.features.describe()}")
        for n, hop in enumerate(self.hops, 1):
            lines.append(
                f"  {n}. {hop} {HOP_KIND_DETAIL[hop.kind]} "
                f"(est {hop.cost * 1e3:.3f} ms, {hop.provenance} cost)"
            )
        if self.is_direct:
            lines.append(
                "  direct conversion is the estimated optimum; no "
                "intermediate beats it"
            )
        else:
            direct = resolve_backend(self.src, self.dst, self.options, "auto")
            lines.append(
                f"  chosen over the direct {direct} conversion "
                f"(est {self.direct_cost * 1e3:.3f} ms): " + (
                    "every hop is a bulk operation, the direct pair only "
                    "lowers to scalar loops" if direct == "scalar"
                    else "the route is estimated cheaper")
            )
        return "\n".join(lines)

    def __call__(self, tensor: Tensor, engine=None) -> Tensor:
        """Run the route on ``tensor`` (with ``engine``'s converter cache)."""
        if engine is None:
            from .engine import default_engine

            engine = default_engine()
        return engine.convert_via(self, tensor)

    def __str__(self) -> str:
        return " -> ".join(fmt.name for fmt in self.formats)


def _candidate_intermediates(src: Format, dst: Format) -> List[Format]:
    """Registered formats eligible as intermediates for (src, dst)."""
    skip = {structural_key(src), structural_key(dst)}
    seen = set(skip)
    out: List[Format] = []
    for fmt in available_formats().values():
        key = structural_key(fmt)
        if key in seen:
            continue
        seen.add(key)
        if fmt.order != src.order or fmt.inverse is None:
            continue
        out.append(fmt)
    return out


@dataclass(frozen=True)
class EdgeCandidate:
    """One priced competitor for a single conversion edge.

    ``rank`` is the deterministic selection key: estimated cost scaled
    by the competitor's weight, with ties broken by lower weight and
    then name, so equal-cost competitors always resolve the same way.
    Rejected candidates (``admitted=False``: their runtime predicate
    refused the tensor's features) are kept for introspection but never
    selected.
    """

    name: str
    kind: str  # "scalar" | "vector" | "native" | "bridge" | "external"
    cost: float
    provenance: str
    weight: float = 1.0
    admitted: bool = True
    converter: Optional[str] = None

    @property
    def rank(self) -> Tuple[float, float, str]:
        return (self.cost * self.weight, self.weight, self.name)

    def describe(self) -> str:
        verdict = "" if self.admitted else " (rejected by predicate)"
        return (
            f"{self.name} [{self.kind}] est {self.cost * 1e3:.3f} ms "
            f"weight {self.weight:g} ({self.provenance}){verdict}"
        )


def edge_candidates(
    src: FormatSpec,
    dst: FormatSpec,
    options: Optional[PlanOptions] = None,
    cost_model: Optional[CostModel] = None,
    nnz: Optional[int] = None,
    workers: int = 1,
    features: Optional[StructuralFeatures] = None,
    native_ok: bool = False,
) -> List[EdgeCandidate]:
    """Every competitor for the single edge ``src -> dst``, priced at
    ``nnz`` stored components and sorted best rank first (admitted
    candidates before rejected ones).

    The generated kernel is always present and always admitted — it is
    the fallback when every registered competitor's predicate refuses.
    Bridges and registered converters replay the *default* code shapes,
    so non-default :class:`PlanOptions` leave only the generated kernel.
    ``native_ok`` adds the compiled-C kernel as a competitor for pairs it
    supports, but only once the host has *measured* native timings
    (``min_observations`` recordings) — an automatic route never invokes
    the C compiler on the strength of a seed alone.
    """
    src = get_format(src)
    dst = get_format(dst)
    options = options or PlanOptions()
    model = cost_model or CostModel()
    nnz = DEFAULT_ROUTE_NNZ if nnz is None else int(nnz)
    workers = max(int(workers), 1)

    generated = resolve_backend(src, dst, options, "auto")
    cost, provenance = model.cost_detail(generated, nnz, workers, features)
    out = [
        EdgeCandidate(
            name=f"generated-{generated}", kind=generated,
            cost=cost, provenance=provenance,
        )
    ]
    if (
        native_ok
        and model.observation_count("native") >= model.min_observations
    ):
        from .native import native_capable

        if native_capable(src, dst, options):
            cost, provenance = model.cost_detail(
                "native", nnz, workers, features
            )
            out.append(
                EdgeCandidate(
                    name="generated-native", kind="native",
                    cost=cost, provenance=provenance,
                )
            )
    if options.key() == PlanOptions().key():
        bridge = bridge_for(src)
        if bridge is not None and structural_key(bridge[0]) == structural_key(dst):
            cost, provenance = model.cost_detail(
                "bridge", nnz, workers, features
            )
            out.append(
                EdgeCandidate(
                    name="bridge", kind="bridge",
                    cost=cost, provenance=provenance,
                )
            )
        for conv in converters_for(src, dst):
            cost, provenance = model.cost_detail(
                f"external:{conv.name}", nnz, workers, features
            )
            out.append(
                EdgeCandidate(
                    name=conv.name, kind="external",
                    cost=cost, provenance=provenance,
                    weight=conv.weight, admitted=conv.admits(features),
                    converter=conv.name,
                )
            )
    out.sort(key=lambda cand: (not cand.admitted,) + cand.rank)
    return out


def _edge_choice(
    src: Format,
    dst: Format,
    options: PlanOptions,
    model: CostModel,
    nnz: int,
    workers: int,
    features: Optional[StructuralFeatures],
    native_ok: bool = False,
) -> EdgeCandidate:
    """The winning competitor for one edge (the generated kernel is
    always admitted, so a winner always exists)."""
    for candidate in edge_candidates(
        src, dst, options, model, nnz, workers, features, native_ok
    ):
        if candidate.admitted:
            return candidate
    raise AssertionError("edge_candidates lost the generated kernel")


def find_route(
    src: FormatSpec,
    dst: FormatSpec,
    options: Optional[PlanOptions] = None,
    cost_model: Optional[CostModel] = None,
    nnz: Optional[int] = None,
    max_hops: int = 3,
    intermediates: Optional[Sequence[Format]] = None,
    workers: int = 0,
    features: Optional[StructuralFeatures] = None,
    native_ok: bool = False,
) -> ConversionRoute:
    """Find the cheapest conversion path from ``src`` to ``dst``.

    Runs Dijkstra over the format graph — nodes are ``src``, ``dst`` and
    the registered same-order intermediates (or an explicit
    ``intermediates`` list); edge weights come from ``cost_model`` at
    ``nnz`` stored components, each edge taking its cheapest admitted
    competitor (generated kernel, bridge, or registered converter — see
    :func:`edge_candidates`).  ``workers > 1`` plans for chunk-parallel
    execution: vector edges are costed at the model's chunked throughput
    (the engine executes those hops on its worker pool).  ``features``
    are the source tensor's structural facts: they gate predicated
    converters on the first hop and refine its cost; hops out of
    intermediate formats are judged optimistically (their predicates are
    re-checked at execution time).  Non-default :class:`PlanOptions` pin
    the route to the direct conversion: the options select scalar code
    shapes that bridges and competing converters do not honour.

    ``native_ok`` (set by the engine when a working C toolchain was
    detected) lets edges take the compiled-C kernel, subject to the
    measured-gating described in :func:`edge_candidates`.

    The direct route always exists, so the result is never empty; ties go
    to the direct conversion.
    """
    src = get_format(src)
    dst = get_format(dst)
    options = options or PlanOptions()
    model = cost_model or CostModel()
    nnz = DEFAULT_ROUTE_NNZ if nnz is None else int(nnz)
    workers = max(int(workers), 0)

    choice = _edge_choice(
        src, dst, options, model, nnz, workers or 1, features, native_ok
    )
    direct_cost = choice.cost
    direct = ConversionRoute(
        hops=(
            Hop(src, dst, choice.kind, choice.cost, choice.provenance,
                choice.converter),
        ),
        cost=direct_cost,
        direct_cost=direct_cost,
        nnz=nnz,
        options=options,
        features=features,
    )
    if (
        src.order != dst.order
        or options.key() != PlanOptions().key()
        or max_hops < 2
    ):
        return direct

    if intermediates is None:
        intermediates = _candidate_intermediates(src, dst)
    nodes: List[Format] = [src] + list(intermediates) + [dst]
    dst_index = len(nodes) - 1

    # Dijkstra with a hop budget; the graph is tiny (every registered
    # format), so the quadratic edge scan is fine.
    best: Dict[Tuple[int, int], float] = {(0, 0): 0.0}
    heap: List[Tuple[float, int, int, Tuple[Hop, ...]]] = [(0.0, 0, 0, ())]
    best_route = direct
    while heap:
        cost, node, hops_used, hops = heapq.heappop(heap)
        if cost > best.get((node, hops_used), float("inf")):
            continue
        if node == dst_index:
            if cost < best_route.cost - 1e-12:
                best_route = ConversionRoute(
                    hops=hops,
                    cost=cost,
                    direct_cost=direct_cost,
                    nnz=nnz,
                    options=options,
                    features=features,
                )
            continue
        if hops_used == max_hops:
            continue
        here = nodes[node]
        if here.inverse is None:
            continue  # cannot be a conversion source
        # Only the first hop sees the source tensor's features; later
        # hops read intermediate tensors whose structure is unknown at
        # planning time, so their predicates are judged optimistically
        # and re-checked against the actual intermediate at run time.
        hop_features = features if node == 0 else None
        for nxt in range(1, len(nodes)):
            if nxt == node:
                continue
            edge = _edge_choice(
                here, nodes[nxt], options, model, nnz, workers or 1,
                hop_features, native_ok,
            )
            step = cost + edge.cost
            state = (nxt, hops_used + 1)
            if step < best.get(state, float("inf")):
                best[state] = step
                heapq.heappush(
                    heap,
                    (
                        step,
                        nxt,
                        hops_used + 1,
                        hops + (
                            Hop(here, nodes[nxt], edge.kind, edge.cost,
                                edge.provenance, edge.converter),
                        ),
                    ),
                )
    return best_route


def rebind_endpoints(
    route: ConversionRoute, src: Format, dst: Format
) -> ConversionRoute:
    """The same route with its endpoint formats swapped for ``src``/``dst``.

    Routes are cached by *structural* pair, but results must be tagged
    with the exact (possibly renamed-twin) formats the caller asked for —
    the converter cache handles the rename per hop.  Raises ``ValueError``
    when the endpoints are not structurally identical to the route's.
    """
    if structural_key(src) != structural_key(route.src) or structural_key(
        dst
    ) != structural_key(route.dst):
        raise ValueError(
            f"route {route} does not fit the pair {src.name} -> {dst.name}"
        )
    if src is route.src and dst is route.dst:
        return route
    hops = list(route.hops)
    first = hops[0]
    hops[0] = replace(first, src=src, dst=dst if len(hops) == 1 else first.dst)
    if len(hops) > 1:
        hops[-1] = replace(hops[-1], dst=dst)
    return replace(route, hops=tuple(hops))


def check_route(route: ConversionRoute) -> None:
    """Validate a route's shape (used when callers pass explicit routes)."""
    if not route.hops:
        raise FormatError("route has no hops")
    for prev, nxt in zip(route.hops, route.hops[1:]):
        if structural_key(prev.dst) != structural_key(nxt.src):
            raise FormatError(
                f"route hops do not chain: {prev} then {nxt}"
            )


# ----------------------------------------------------------------------
# route prefixes
#
# Two routes out of the same source tensor often share their leading
# hops: HASH -> COO -> CSR and HASH -> COO -> DIA both pay the HASH ->
# COO extraction.  A layer that caches hop outputs (the serving data
# cache) can resume the second conversion at COO.  These helpers name
# the resumable boundaries of a hop sequence and find the deepest one a
# cache already holds.


def route_checkpoints(hops: Sequence[Hop]) -> Tuple[Format, ...]:
    """The formats a hop sequence materializes, in execution order.

    ``checkpoints[i]`` is the tensor format after executing ``i + 1``
    hops; the last entry is the route's destination.  Each one is a
    point another conversion sharing this prefix can resume from.
    """
    return tuple(hop.dst for hop in hops)


def longest_cached_prefix(
    hops: Sequence[Hop], is_cached: Callable[[Format], bool]
) -> int:
    """The number of leading hops a cache makes skippable.

    ``is_cached(fmt)`` answers whether the conversion's tensor is
    already materialized in ``fmt``.  Checkpoints are probed deepest
    first, so the return value ``k`` is the largest hop count whose
    output is cached: ``k == len(hops)`` means the final result is
    cached (nothing to execute), ``0 < k < len(hops)`` means execution
    can resume at ``hops[k]`` from the cached intermediate, and ``0``
    means no shared prefix — run the route in full.
    """
    for k in range(len(hops), 0, -1):
        if is_cached(hops[k - 1].dst):
            return k
    return 0


_register_builtin_bridges()
