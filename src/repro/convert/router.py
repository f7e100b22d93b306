"""Conversion routing: price every implementation of one edge.

A conversion is one edge, ``src -> dst``, and the paper's thesis is that
a *direct* generated routine is the one to run (no via-COO or via-CSR
temporaries).  What still varies per edge is *which* implementation runs
it: the generated scalar / vector / native (compiled C) kernel, or a
registered ``external`` converter (:mod:`repro.convert.converters`).
:func:`edge_candidates` prices each of them with :class:`CostModel` —
constant seeds until the engine has measured the kind on the pair on
this host — and :func:`find_route` returns the one-hop
:class:`~repro.convert.plan.ConversionPlan` its winner runs.  The
engine's auto policy executes that plan as is, and ``explain()`` shows
it.

Every competitor is **bit-identical** to the direct scalar conversion:
the vector and native backends by construction, and a registered
converter by its registration contract.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..formats.format import Format
from ..formats.registry import FormatSpec, available_formats, get_format
from .converters import converters_for
from .features import StructuralFeatures
from .planner import PlanOptions, resolve_backend, structural_key

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .plan import ConversionPlan

#: Reference nonzero count used when no tensor is at hand (``engine.route``
#: without ``nnz``): large enough that throughput, not per-hop overhead,
#: dominates the decision.
DEFAULT_ROUTE_NNZ = 100_000


#: Provenance labels of a cost estimate.
SEEDED = "seeded"
MEASURED = "measured"

#: Schema version of persisted cost-model files (``CostModel.save``).
#: Schema 2 keys each measured rate by (kind, structural pair); a
#: schema-1 file (one rate per kind) loads its seeds only.
COST_MODEL_SCHEMA = 2

#: EWMA smoothing factor for measured per-nonzero rates: each observation
#: contributes a quarter, so one outlier conversion cannot flip a route.
EWMA_ALPHA = 0.25

#: Relative drift of a measured rate that republishes it (bumping
#: :attr:`CostModel.version` so engines drop their cached routes).
PUBLISH_DRIFT = 0.25

#: The generated-code kinds, in the order a pair's seeds are calibrated
#: from their measured rates (:meth:`CostModel.cost_detail`).
_GENERATED = ("native", "vector", "scalar")


def key_to_json(key) -> List:
    """A structural key (nested tuples) as JSON-compatible nested lists."""
    if isinstance(key, tuple):
        return [key_to_json(item) for item in key]
    return key


def _key_from_json(value):
    """Inverse of :func:`key_to_json`."""
    if isinstance(value, list):
        return tuple(_key_from_json(item) for item in value)
    return value


def _format_name(key: Tuple) -> str:
    """The registry name of the first registered format with structural
    key ``key`` (``"?"`` when none is registered)."""
    for name, fmt in available_formats().items():
        if structural_key(fmt) == key:
            return name
    return "?"


@dataclass
class CostModel:
    """Per-hop conversion cost estimates, linear in the stored size.

    The *seeded* defaults are plain constants (scalar loops ~1.5 µs per
    stored component, the vector backend ~40 ns, compiled C ~12 ns) that
    only have to rank the kinds until measurements replace them.
    ``hop_overhead`` charges each hop's fixed cost (dispatch, array
    allocation, tensor marshalling) so short routes win ties and tiny
    tensors stay direct.

    On top of the seeds the model keeps a **measured** table: the engine
    records the wall time of every executed hop (:meth:`observe`) into an
    EWMA of the per-nonzero rate, one per (kind, structural pair) — the
    hop's ``(structural_key(src), structural_key(dst))``, because one
    kind's rate varies far more across pairs than across kinds.  Once a
    pair's rate has at least ``min_observations`` recordings,
    :meth:`cost` prefers it over the kind's seed — routing decisions then
    reflect *this* host — and ``ConversionPlan.explain()`` labels each
    edge ``seeded`` or ``measured``.  A pair with no history of a kind
    is priced at the kind's seed (scaled by the pair's own measured
    generated backends, see :meth:`cost_detail`), never at another
    pair's rate.  Models persist to JSON (:meth:`save` / :meth:`load`).
    """

    scalar_per_nnz: float = 1.5e-6
    vector_per_nnz: float = 4.0e-8
    #: The compiled-C backend streams nonzeros with no interpreter or
    #: numpy dispatch in the loop; the seed sits below the external one.
    native_per_nnz: float = 1.2e-8
    hop_overhead: float = 5.0e-5
    #: Seeded rate/overhead of registered external converters (the scipy
    #: delegates, or user registrations without measured history).  The
    #: rate sits below vector — external implementations beat the
    #: vector kernel on bulk streams — and the overhead charges the
    #: tensor marshalling at the library boundary, which keeps tiny
    #: tensors on the generated kernels.
    external_per_nnz: float = 2.2e-8
    external_overhead: float = 2.0e-4
    #: Fused convert-and-compute hops (:mod:`repro.compute`): one pass
    #: that gathers the source and folds the consuming op, skipping the
    #: intermediate's assembly.  Seeded slightly above the vector
    #: conversion rate (the gather plus the op's reduction); the
    #: ``compute`` kind prices the op alone over an already-materialized
    #: tensor.  Seeds never *select* fusion: the fusion planner requires
    #: ``min_observations`` measured ``fused`` timings of the pair before
    #: it will prefer a fused hop (see ``ConversionEngine.plan_compute``).
    fused_per_nnz: float = 5.0e-8
    compute_per_nnz: float = 2.5e-8
    #: Observations of a pair required before its measured rate takes over.
    min_observations: int = 3
    #: Smallest hop size (stored components) worth recording: below this,
    #: fixed per-call overhead dominates and extrapolating a per-nonzero
    #: rate from it would wildly misprice bulk conversions.
    min_nnz: int = 4096
    #: Measured state per ``(kind, pair)``, restored by :meth:`load` —
    #: normally left to default and filled through :meth:`observe`.
    measured: Dict[Tuple, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        #: rates as last seen by consumers; drift beyond PUBLISH_DRIFT
        #: bumps ``version`` (route caches key on it).  Only entries that
        #: already crossed ``min_observations`` count as published — a
        #: restored sub-threshold entry must still bump the version when
        #: it later reaches the threshold (cost_detail flips provenance
        #: at that point, so cached routes must be re-planned).
        self._published: Dict[Tuple, float] = {
            key: entry["rate"]
            for key, entry in self.measured.items()
            if entry.get("count", 0) >= self.min_observations
        }
        self._version = 0
        #: per-nonzero rates of each key's first ``min_observations``
        #: timings, until its rate first publishes
        self._first: Dict[Tuple, List[float]] = {}

    # -- measured rates --------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter of *meaningful* measured-rate changes.

        Bumped when one pair's rate first reaches ``min_observations``
        and whenever it drifts more than ``PUBLISH_DRIFT`` from its last
        published value.  The engine keys its route cache on this, so
        routes are re-planned exactly when measurements could change
        them.
        """
        with self._lock:
            return self._version

    def _overhead(self, key: str) -> float:
        """Fixed per-hop cost of a kind: external converters
        pay the marshalling overhead, everything else the hop overhead."""
        return (
            self.external_overhead
            if key.startswith("external")
            else self.hop_overhead
        )

    def observe(self, kind: str, nnz: int, seconds: float,
                pair: Optional[Tuple] = None) -> None:
        """Record the measured wall time of one executed hop.

        ``kind`` is the hop kind (``scalar``/``vector``/``native``/...,
        ``external:<name>`` per converter) and ``pair`` the hop's
        ``(structural_key(src), structural_key(dst))``.  The per-nonzero
        rate (after subtracting the fixed ``hop_overhead``) feeds that
        pair's EWMA, which first publishes at the median of the pair's
        first ``min_observations`` rates; degenerate observations are
        ignored — fewer than
        ``min_nnz`` stored components, non-positive time, or a hop faster
        than ``hop_overhead`` (such timings carry no throughput signal,
        and recording them as a zero rate would pin the measured cost of
        arbitrarily large hops at the fixed overhead).
        """
        overhead = self._overhead(kind)
        if nnz < max(self.min_nnz, 1) or seconds <= overhead:
            return
        rate = (seconds - overhead) / nnz
        key = (kind, pair)
        with self._lock:
            entry = self.measured.get(key)
            if entry is None:
                entry = {"rate": rate, "count": 0}
                self.measured[key] = entry
            else:
                entry["rate"] += EWMA_ALPHA * (rate - entry["rate"])
            entry["count"] += 1
            if entry["count"] <= self.min_observations:
                first = self._first.setdefault(key, [])
                first.append(rate)
                if entry["count"] < self.min_observations:
                    return
                if len(first) == self.min_observations:
                    # publish the median of the first timings: one cold
                    # run (first-touch page faults, a build on the other
                    # core) must not skew the rate later drift is
                    # measured against
                    entry["rate"] = float(np.median(first))
                del self._first[key]
            published = self._published.get(key)
            drifted = (
                published is None
                or abs(entry["rate"] - published)
                > PUBLISH_DRIFT * max(published, 1e-12)
            )
            if drifted:
                self._published[key] = entry["rate"]
                self._version += 1

    def observation_count(self, kind: str,
                          pair: Optional[Tuple] = None) -> int:
        """Recorded observations of ``kind`` on ``pair`` (with no pair:
        summed over every pair of the kind)."""
        with self._lock:
            if pair is not None:
                entry = self.measured.get((kind, pair))
                return int(entry["count"]) if entry else 0
            return sum(
                int(entry["count"])
                for (measured_kind, _), entry in self.measured.items()
                if measured_kind == kind
            )

    def _measured_rate(self, kind: str,
                       pair: Optional[Tuple]) -> Optional[float]:
        with self._lock:
            entry = self.measured.get((kind, pair))
            if entry is None or entry["count"] < self.min_observations:
                return None
            return float(entry["rate"])

    # -- estimates -------------------------------------------------------
    def cost(self, kind: str, nnz: int, pair: Optional[Tuple] = None) -> float:
        """Estimated seconds for one hop of ``kind`` over ``nnz`` components.

        A ``pair`` with at least ``min_observations`` recorded timings of
        the kind uses its measured rate (see :meth:`cost_detail` for the
        provenance).  ``kind`` may be ``"external:<name>"`` for a
        registered converter (seeded at the shared external rate).
        """
        return self.cost_detail(kind, nnz, pair)[0]

    def _seed(self, kind: str) -> float:
        if kind.startswith("external"):
            return self.external_per_nnz
        return {
            "scalar": self.scalar_per_nnz,
            "vector": self.vector_per_nnz,
            "native": self.native_per_nnz,
            "fused": self.fused_per_nnz,
            "compute": self.compute_per_nnz,
        }[kind]

    def cost_detail(self, kind: str, nnz: int,
                    pair: Optional[Tuple] = None) -> Tuple[float, str]:
        """``(estimated seconds, provenance)`` for one hop — provenance is
        ``"measured"`` when the pair's measured EWMA rate of the kind is
        trusted (enough observations), ``"seeded"`` otherwise.

        A pair without history of its own takes the kind's seed — never
        another pair's rate.  The generated backends (``scalar`` /
        ``vector`` / ``native``) run the same passes over the same
        structure, so once one of them is measured on the pair, the
        others' seeds are scaled by its measured-to-seed ratio: a pair
        whose native kernel runs 6x its seed does not price its vector
        kernel at the vector seed.
        """
        overhead = self._overhead(kind)
        rate = self._measured_rate(kind, pair)
        if rate is not None:
            return rate * max(int(nnz), 0) + overhead, MEASURED
        per_nnz = self._seed(kind)
        if kind in _GENERATED:
            for sibling in _GENERATED:  # ``kind`` itself is unmeasured
                measured = self._measured_rate(sibling, pair)
                if measured is not None:
                    per_nnz *= measured / self._seed(sibling)
                    break
        return per_nnz * max(int(nnz), 0) + overhead, SEEDED

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable snapshot (seeds + measured table).  Each
        measured entry carries its kind, its pair's registry names and
        structural keys (``pair`` is ``None`` for a pairless record),
        and its rate and count."""
        with self._lock:
            entries = [
                (kind, pair, dict(entry))
                for (kind, pair), entry in self.measured.items()
            ]
        measured = []
        for kind, pair, entry in entries:
            record = {"kind": kind, "pair": None, **entry}
            if pair is not None:
                record["pair"] = [
                    {"name": _format_name(key),
                     "structural_key": key_to_json(key)}
                    for key in pair
                ]
            measured.append(record)
        measured.sort(key=lambda r: (r["kind"], json.dumps(r["pair"])))
        return {
            "schema": COST_MODEL_SCHEMA,
            "kind": "repro-cost-model",
            "seeded": {
                "scalar_per_nnz": self.scalar_per_nnz,
                "vector_per_nnz": self.vector_per_nnz,
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
        restored exactly; the seed and measured rows of the deleted
        ``bridge`` hop kind are skipped).  A schema-1 file (rates kept
        per kind) loads its seeds only, with a single warning.  Anything else —
        unreadable, not JSON, or JSON of another kind — degrades to the
        default model with a single warning.
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
                        "scalar_per_nnz", "vector_per_nnz",
                        "native_per_nnz", "hop_overhead",
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
            if data.get("schema") != COST_MODEL_SCHEMA:
                warnings.warn(
                    f"cost-model file {origin!r} has schema "
                    f"{data.get('schema')!r}: its measured rates are not "
                    f"kept per structural pair (schema {COST_MODEL_SCHEMA}),"
                    " so only its seeds load",
                    RuntimeWarning,
                    stacklevel=3,
                )
                return model
            for record in data.get("measured", []):
                if record["kind"] == "bridge":
                    continue  # a deleted hop kind: nothing prices it
                pair = record["pair"]
                if pair is not None:
                    pair = tuple(
                        _key_from_json(side["structural_key"]) for side in pair
                    )
                    if len(pair) != 2:
                        raise ValueError(f"pair of {len(pair)} formats")
                model.measured[(str(record["kind"]), pair)] = {
                    "rate": float(record["rate"]),
                    "count": int(record["count"]),
                }
            model.__post_init__()  # republish the restored measured rates
            return model
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            warnings.warn(
                f"malformed cost-model file {origin!r} ({exc}); "
                "using the default seeds",
                RuntimeWarning,
                stacklevel=3,
            )
            return cls()


# ----------------------------------------------------------------------
# routes


#: What each hop kind executes, as ``explain()`` transcripts word it.  The
#: keys are the hop kinds: the generated-code backends ``scalar`` /
#: ``vector`` / ``native`` (the compiled-C backend), a registered
#: competing converter (``external``, see :mod:`repro.convert.converters`;
#: its cost-table rows are keyed ``"external:<name>"`` per converter), and
#: the two terminal kinds of a compute plan.
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

    ``cost`` is the estimated seconds of this hop at the plan's planning
    size, ``provenance`` whether the estimate came from the cost model's
    constant seeds (``"seeded"``) or from this host's own measured hop
    timings (``"measured"``).  ``converter`` names the registered
    converter that won the hop when ``kind`` is ``"external"`` — the
    plan schema pins it, so replays run the same implementation.
    """

    src: Format
    dst: Format
    kind: str  # a key of HOP_KIND_DETAIL
    cost: float = 0.0
    provenance: str = SEEDED
    converter: Optional[str] = None

    def __str__(self) -> str:
        label = self.kind if not self.converter else (
            f"{self.kind}:{self.converter}"
        )
        return f"{self.src.name} -> {self.dst.name} [{label}]"


def _pair(hop: Hop) -> Tuple[Tuple, Tuple]:
    """The structural pair a hop's measured rates are keyed by."""
    return (structural_key(hop.src), structural_key(hop.dst))


@dataclass(frozen=True)
class EdgeCandidate:
    """One priced competitor for a single conversion edge.

    ``rank`` is the deterministic selection key: estimated cost scaled
    by the competitor's weight, with ties broken by lower weight and
    then name, so equal-cost competitors always resolve the same way.
    Rejected candidates (``admitted=False``: their runtime predicate
    refused the tensor's features) are kept for introspection but never
    selected.  An unbuilt native kernel (``built=False``) is priced and
    listed but not selected either: its edge takes the best built
    candidate while the kernel builds off the request path.
    """

    name: str
    kind: str  # "scalar" | "vector" | "native" | "external"
    cost: float
    provenance: str
    weight: float = 1.0
    admitted: bool = True
    converter: Optional[str] = None
    built: bool = True

    @property
    def rank(self) -> Tuple[float, float, str]:
        return (self.cost * self.weight, self.weight, self.name)

    def describe(self) -> str:
        verdict = "" if self.admitted else " (rejected by predicate)"
        if not self.built:
            verdict += " (not built)"
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
    features: Optional[StructuralFeatures] = None,
    native_ok: bool = False,
    native_ready: Optional[Callable[[Format, Format], bool]] = None,
) -> List[EdgeCandidate]:
    """Every competitor for the single edge ``src -> dst``, priced at
    ``nnz`` stored components and sorted best rank first (admitted
    candidates before rejected ones, built before unbuilt), so the first
    one is the one the edge takes.

    The generated kernel is always present and always admitted — it is
    the fallback when every registered competitor's predicate refuses.
    Registered converters replay the *default* code shapes, so
    non-default :class:`PlanOptions` leave only the generated kernel.
    ``native_ok`` (a working C toolchain) adds the compiled-C kernel for
    pairs it supports, priced at the native seed until the pair has
    measured native timings of its own.  Like fusion, a seed alone never
    displaces a registered converter: while a registered converter
    admits the tensor, native competes only on its pair's measured rate.
    ``native_ready(src, dst)`` says whether the pair's native kernel is
    built (without it, every one counts as built); an unbuilt kernel is
    listed with ``built=False``, and only at ``nnz >=
    cost_model.min_nnz``, the sizes whose runs queue its build.  Pricing
    never invokes the C compiler.
    """
    src = get_format(src)
    dst = get_format(dst)
    options = options or PlanOptions()
    model = cost_model or CostModel()
    nnz = DEFAULT_ROUTE_NNZ if nnz is None else int(nnz)
    pair = (structural_key(src), structural_key(dst))

    generated = resolve_backend(src, dst, options, "auto")
    cost, provenance = model.cost_detail(generated, nnz, pair)
    out = [
        EdgeCandidate(
            name=f"generated-{generated}", kind=generated,
            cost=cost, provenance=provenance,
        )
    ]
    native = None
    if native_ok:
        from .native import native_capable

        built = native_ready is None or native_ready(src, dst)
        if built or (
            nnz >= model.min_nnz and native_capable(src, dst, options)
        ):
            cost, provenance = model.cost_detail("native", nnz, pair)
            native = EdgeCandidate(
                name="generated-native", kind="native",
                cost=cost, provenance=provenance, built=built,
            )
    if options.key() == PlanOptions().key():
        for conv in converters_for(src, dst):
            cost, provenance = model.cost_detail(
                f"external:{conv.name}", nnz, pair
            )
            out.append(
                EdgeCandidate(
                    name=conv.name, kind="external",
                    cost=cost, provenance=provenance,
                    weight=conv.weight, admitted=conv.admits(features),
                    converter=conv.name,
                )
            )
    if native is not None and (
        native.provenance == MEASURED
        or not any(c.kind == "external" and c.admitted for c in out)
    ):
        out.append(native)
    out.sort(key=lambda cand: (not cand.admitted, not cand.built) + cand.rank)
    return out


def find_route(
    src: FormatSpec,
    dst: FormatSpec,
    options: Optional[PlanOptions] = None,
    cost_model: Optional[CostModel] = None,
    nnz: Optional[int] = None,
    features: Optional[StructuralFeatures] = None,
    native_ok: bool = False,
    native_ready: Optional[Callable[[Format, Format], bool]] = None,
) -> "ConversionPlan":
    """The one-hop plan for ``src -> dst``, run by the cheapest admitted
    and built competitor of :func:`edge_candidates` (priced by
    ``cost_model`` at ``nnz`` stored components; ``features`` gate
    predicated converters, and ``native_ok`` / ``native_ready`` offer the
    compiled-C kernel).  When the cheapest is the unbuilt native kernel,
    the plan's ``_pending`` holds its hop, so a bulk run can queue the
    build.  The plan is unbound (``engine=None``):
    :meth:`ConversionEngine.route
    <repro.convert.engine.ConversionEngine.route>` binds the plans it
    caches.
    """
    from .plan import ConversionPlan  # plan.py imports Hop from here

    src = get_format(src)
    dst = get_format(dst)
    options = options or PlanOptions()
    nnz = DEFAULT_ROUTE_NNZ if nnz is None else int(nnz)
    admitted = [
        cand for cand in edge_candidates(
            src, dst, options, cost_model, nnz, features,
            native_ok, native_ready,
        )
        if cand.admitted
    ]
    # the generated kernel is always admitted and built, and the list
    # puts built candidates first
    taken, best = admitted[0], min(admitted, key=lambda cand: cand.rank)
    pending: Tuple[Hop, ...] = ()
    if not best.built:
        pending = (Hop(src, dst, best.kind, best.cost, best.provenance),)
    return ConversionPlan(
        hops=(Hop(src, dst, taken.kind, taken.cost, taken.provenance,
                  taken.converter),),
        options=options, nnz=nnz, features=features, _pending=pending,
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
