"""Conversion serving: cache, admission, batching, metrics, HTTP.

The library converts one tensor at a time; this package turns that into
a long-lived, multi-tenant **service**.  The moving parts:

- :class:`~repro.serve.datacache.DataCache` — a content-hash LRU over
  converted tensors; every executed hop's output is inserted, so a
  repeat of a payload in any format it was converted to is a hit.
- :class:`~repro.serve.service.ConversionService` — asyncio admission
  (per-tenant quotas), single-flight coalescing of identical in-flight
  conversions, same-pair batching, and cache-aware plan execution.
- :mod:`~repro.serve.metrics` — counters + latency histograms, exported
  as JSON and Prometheus text.
- :mod:`~repro.serve.wire` — the JSON wire encoding for tensors (plans
  already have one: the plan JSON of :mod:`repro.convert.plan`).
- :class:`~repro.serve.http.ServiceServer` — the stdlib HTTP front end;
  ``python -m repro.serve`` runs it.

See ``docs/serve.md`` for the lifecycle walk-through.
"""

from .datacache import DataCache, origin_digest, tensor_nbytes
from .http import ServiceServer
from .metrics import Histogram, Metrics, render_prometheus
from .service import (
    ComputeResult,
    ConversionService,
    QuotaError,
    ServeResult,
    TenantPolicy,
)
from .wire import (
    WIRE_SCHEMA,
    WireError,
    array_from_wire,
    array_to_wire,
    tensor_from_wire,
    tensor_to_wire,
)

__all__ = [
    "ComputeResult",
    "ConversionService",
    "DataCache",
    "Histogram",
    "Metrics",
    "QuotaError",
    "ServeResult",
    "ServiceServer",
    "TenantPolicy",
    "WIRE_SCHEMA",
    "WireError",
    "array_from_wire",
    "array_to_wire",
    "origin_digest",
    "render_prometheus",
    "tensor_from_wire",
    "tensor_nbytes",
    "tensor_to_wire",
]
