"""Metrics: histogram percentiles, snapshot schema, Prometheus rendering."""

import random

from repro.convert import ConversionEngine
from repro.formats import COO, CSR
from repro.serve.datacache import DataCache
from repro.serve.metrics import Histogram, Metrics, render_prometheus
from repro.storage.build import reference_build


def test_histogram_percentiles_bracket_the_data():
    hist = Histogram()
    for _ in range(90):
        hist.observe(0.001)
    for _ in range(10):
        hist.observe(1.0)
    assert hist.count == 100
    p50 = hist.percentile(0.50)
    assert 0.0005 <= p50 <= 0.002  # within one log bucket of 1 ms
    p99 = hist.percentile(0.99)
    assert p99 >= 0.5
    doc = hist.to_dict()
    assert doc["count"] == 100
    assert doc["max_seconds"] == 1.0
    assert doc["sum_seconds"] > 10.0


def test_histogram_empty_and_extremes():
    hist = Histogram()
    assert hist.percentile(0.99) == 0.0
    hist.observe(-5.0)  # clamped to zero
    hist.observe(1e9)   # beyond the last bound -> overflow bucket
    assert hist.count == 2
    assert hist.percentile(1.0) == 1e9  # overflow bucket reports the max


def test_counters_and_tenants():
    metrics = Metrics()
    metrics.incr("requests")
    metrics.incr("requests", 4)
    metrics.incr_tenant("acme")
    metrics.observe_latency("cached", 0.002)
    counters = metrics.counters()
    assert counters["requests"] == 5
    assert counters["errors"] == 0  # stable schema: zero-initialized
    doc = metrics.snapshot()
    assert doc["tenants"] == {"acme": 1}
    assert doc["latency"]["cached"]["count"] == 1


def test_snapshot_folds_in_engine_and_cache():
    engine = ConversionEngine()
    cache = DataCache()
    try:
        rng = random.Random(0)
        cells = sorted({
            (rng.randrange(10), rng.randrange(10)) for _ in range(30)
        })
        tensor = reference_build(
            COO, (10, 10), cells, [1.0] * len(cells)
        )
        engine.convert(tensor, CSR)
        cache.put(tensor.content_digest(), COO, tensor)
        doc = Metrics().snapshot(engine=engine, datacache=cache)
        assert doc["engine"]["conversions"] == 1
        assert doc["pairs"] == {"COO->CSR": 1}
        assert doc["data_cache"]["entries"] == 1
        assert "cost_model" not in doc
    finally:
        engine.shutdown()


def test_prometheus_rendering():
    metrics = Metrics()
    metrics.incr("requests", 3)
    metrics.incr_tenant("acme")
    metrics.observe_latency("converted", 0.01)
    cache = DataCache()
    text = render_prometheus(metrics.snapshot(datacache=cache))
    assert "repro_requests 3" in text
    assert 'repro_tenant_requests{tenant="acme"} 1' in text
    assert 'repro_latency_seconds{outcome="converted",quantile="50"}' in text
    assert "repro_data_cache_entries 0" in text
    assert text.endswith("\n")
    # every line is "name{labels} value" with a float-parseable value
    for line in text.strip().splitlines():
        name, value = line.rsplit(" ", 1)
        assert name
        float(value)
