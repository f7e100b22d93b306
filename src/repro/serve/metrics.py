"""Service metrics: counters, latency histograms, an aggregated snapshot.

Everything here is deliberately small and stdlib-only.  The service owns
one :class:`Metrics` instance; the HTTP layer exports it two ways —
:meth:`Metrics.snapshot` as JSON (the machine-readable health surface)
and :func:`render_prometheus` as Prometheus text exposition for
scrapers.  The snapshot folds in the engine's exact cache counters
(:meth:`ConversionEngine.cache_stats
<repro.convert.engine.ConversionEngine.cache_stats>`), the data cache's
occupancy/hit counters and the per-pair conversion counts, so one
endpoint answers "what has this process been doing".
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional

__all__ = ["Histogram", "Metrics", "render_prometheus"]


def _log_buckets() -> List[float]:
    """Latency bucket bounds: 1 µs .. ~100 s in quarter-decade steps."""
    bounds = []
    value = 1e-6
    while value < 100.0:
        bounds.append(value)
        value *= 10 ** 0.25
    return bounds


_BUCKET_BOUNDS = _log_buckets()


class Histogram:
    """A fixed-bucket log-scale latency histogram.

    Quarter-decade buckets from a microsecond to ~100 s keep percentile
    error under ~40 % of the value while staying allocation-free on the
    hot path — good enough for p50/p99 over request latencies, cheap
    enough to update under the service lock.
    """

    def __init__(self) -> None:
        self._counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        self._counts[bisect_left(_BUCKET_BOUNDS, seconds)] += 1
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, q: float) -> float:
        """The upper bound of the bucket holding quantile ``q`` (0..1)."""
        if self._count == 0:
            return 0.0
        target = max(1, int(q * self._count + 0.999999))
        seen = 0
        for i, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= target:
                if i < len(_BUCKET_BOUNDS):
                    return _BUCKET_BOUNDS[i]
                return self._max
        return self._max  # pragma: no cover - unreachable

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self._count,
            "sum_seconds": self._sum,
            "max_seconds": self._max,
            "p50_seconds": self.percentile(0.50),
            "p90_seconds": self.percentile(0.90),
            "p99_seconds": self.percentile(0.99),
        }


#: Counter names every snapshot reports (zero-initialized so dashboards
#: see a stable schema from the first scrape).
_COUNTERS = (
    "requests",
    "responses",
    "data_hits",
    "prefix_hits",
    "full_conversions",
    "coalesced",
    "batches",
    "batched_requests",
    "quota_rejections",
    "errors",
)


class Metrics:
    """Thread-safe counters + per-outcome latency histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._tenants: Dict[str, int] = {}
        self._latency: Dict[str, Histogram] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def incr_tenant(self, tenant: str) -> None:
        with self._lock:
            self._tenants[tenant] = self._tenants.get(tenant, 0) + 1

    def observe_latency(self, outcome: str, seconds: float) -> None:
        """Record a request latency under its outcome (``cached`` /
        ``converted`` / ``coalesced``, and the ``compute_*`` family)."""
        with self._lock:
            hist = self._latency.get(outcome)
            if hist is None:
                hist = self._latency[outcome] = Histogram()
            hist.observe(seconds)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def snapshot(self, engine=None, datacache=None) -> Dict:
        """The full JSON metrics document.

        ``engine`` and ``datacache`` fold in their own counters; both are
        optional so the document degrades gracefully in unit tests.
        """
        with self._lock:
            doc: Dict = {
                "counters": dict(self._counters),
                "tenants": dict(self._tenants),
                "latency": {
                    outcome: hist.to_dict()
                    for outcome, hist in sorted(self._latency.items())
                },
            }
        if engine is not None:
            doc["engine"] = {
                key: value for key, value in engine.cache_stats().items()
            }
            doc["pairs"] = {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(engine.pair_counts().items())
            }
        if datacache is not None:
            doc["data_cache"] = datacache.stats()
        return doc


def _prom_name(name: str) -> str:
    return "repro_" + name.replace("-", "_").replace(".", "_")


def render_prometheus(snapshot: Dict) -> str:
    """Render a :meth:`Metrics.snapshot` document as Prometheus text.

    Counters become ``repro_<name>`` counters, latency histograms become
    ``repro_latency_seconds{outcome=...,quantile=...}`` summary-style
    gauges, and engine/data-cache counters are namespaced under
    ``repro_engine_*`` / ``repro_data_cache_*``.
    """
    lines: List[str] = []

    def emit(name: str, value, labels: Optional[Dict[str, str]] = None) -> None:
        label_text = ""
        if labels:
            inner = ",".join(
                f'{key}="{val}"' for key, val in sorted(labels.items())
            )
            label_text = "{" + inner + "}"
        lines.append(f"{name}{label_text} {float(value):g}")

    for name, value in sorted(snapshot.get("counters", {}).items()):
        emit(_prom_name(name), value)
    for tenant, count in sorted(snapshot.get("tenants", {}).items()):
        emit("repro_tenant_requests", count, {"tenant": tenant})
    for outcome, hist in sorted(snapshot.get("latency", {}).items()):
        emit("repro_latency_requests", hist["count"], {"outcome": outcome})
        emit("repro_latency_seconds_sum", hist["sum_seconds"],
             {"outcome": outcome})
        for quantile in ("p50", "p90", "p99"):
            emit("repro_latency_seconds", hist[f"{quantile}_seconds"],
                 {"outcome": outcome, "quantile": quantile[1:]})
    for key, value in sorted(snapshot.get("engine", {}).items()):
        emit(_prom_name(f"engine_{key}"), value)
    for key, value in sorted(snapshot.get("data_cache", {}).items()):
        emit(_prom_name(f"data_cache_{key}"), value)
    for pair, count in sorted(snapshot.get("pairs", {}).items()):
        emit("repro_pair_conversions", count, {"pair": pair})
    return "\n".join(lines) + "\n"
