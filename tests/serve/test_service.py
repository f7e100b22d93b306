"""ConversionService: caching, coalescing, quotas.

Driven with ``asyncio.run`` directly (no async test plugin); each test
builds its own engine so counters prove exactly what ran.
"""

import asyncio

import pytest

from repro.convert import ConversionEngine, PlanOptions
from repro.formats import COO, CSR, DIA, ELL, get_format
from repro.serve import ConversionService, QuotaError, TenantPolicy
from repro.serve.datacache import tensor_nbytes

from ..support import count_feature_samples, sorted_only_converter
from ..support.tensorgen import serve_tensor


def _tensor(fmt=COO, count=50, dims=(14, 14), seed=0):
    return serve_tensor(fmt, count=count, dims=dims, seed=seed)


def _run(coro):
    return asyncio.run(coro)


async def _with_service(body, **kwargs):
    engine = ConversionEngine()
    service = ConversionService(engine=engine, batch_window=0.0, **kwargs)
    try:
        return await body(service, engine)
    finally:
        await service.close()
        engine.shutdown()


def test_repeat_request_is_served_without_the_engine():
    """The acceptance bar: an identical repeated request touches the
    data cache only — the engine's conversion counter stays put."""

    async def body(service, engine):
        tensor = _tensor()
        first = await service.submit(tensor, CSR)
        assert first.status == "converted"
        count_after_first = engine.pair_counts()[("COO", "CSR")]
        second = await service.submit(tensor, CSR)
        assert second.status == "cached"
        assert engine.pair_counts()[("COO", "CSR")] == count_after_first == 1
        assert second.tensor.content_digest() == first.tensor.content_digest()
        # an equal-content rebuild (different arrays, same bytes) also hits
        clone = _tensor()
        third = await service.submit(clone, CSR)
        assert third.status == "cached"
        assert engine.pair_counts()[("COO", "CSR")] == 1

    _run(_with_service(body))


def test_single_flight_coalesces_concurrent_identical_requests():
    async def body(service, engine):
        tensor = _tensor(seed=11)
        results = await asyncio.gather(
            *[service.submit(tensor, DIA) for _ in range(8)]
        )
        statuses = sorted(r.status for r in results)
        assert engine.pair_counts()[("COO", "DIA")] == 1
        assert statuses.count("converted") == 1
        assert statuses.count("coalesced") == 7
        digests = {r.tensor.content_digest() for r in results}
        assert len(digests) == 1

    _run(_with_service(body))


def test_identity_request_never_converts():
    async def body(service, engine):
        tensor = _tensor()
        result = await service.submit(tensor, COO)
        assert result.status == "identity"
        assert result.tensor is tensor
        assert ("COO", "COO") not in engine.pair_counts()

    _run(_with_service(body))


def test_cached_results_are_bit_identical_to_direct_convert():
    """Acceptance sweep: serve twice per pair; both responses match a
    direct engine.convert bit for bit."""

    async def body(service, engine):
        for seed, dst in enumerate((CSR, DIA, ELL)):
            tensor = _tensor(seed=100 + seed)
            fresh = ConversionEngine()
            try:
                expected = fresh.convert(tensor, dst).content_digest()
            finally:
                fresh.shutdown()
            first = await service.submit(tensor, dst)
            second = await service.submit(tensor, dst)
            assert first.tensor.content_digest() == expected
            assert second.tensor.content_digest() == expected
            assert second.status == "cached"

    _run(_with_service(body))


def test_max_request_bytes_rejects_oversized_payloads():
    async def body(service, engine):
        service.set_policy(TenantPolicy(name="tiny", max_request_bytes=16))
        with pytest.raises(QuotaError):
            await service.submit(_tensor(), CSR, tenant="tiny")
        assert service.metrics.counters()["quota_rejections"] == 1
        assert ("COO", "CSR") not in engine.pair_counts()

    _run(_with_service(body))


def test_max_concurrent_bounds_inflight_requests():
    async def body(service, engine):
        service.set_policy(TenantPolicy(name="narrow", max_concurrent=1))
        a, b = _tensor(seed=21), _tensor(seed=22)
        first = asyncio.ensure_future(
            service.submit(a, CSR, tenant="narrow")
        )
        await asyncio.sleep(0)  # let it pass admission
        with pytest.raises(QuotaError):
            await service.submit(b, CSR, tenant="narrow")
        await first
        # with the first settled, the tenant has headroom again
        result = await service.submit(b, CSR, tenant="narrow")
        assert result.status in ("converted", "cached")

    _run(_with_service(body))


def test_max_inflight_bytes_accounts_payload_sizes():
    async def body(service, engine):
        tensor = _tensor(seed=31)
        budget = tensor_nbytes(tensor) + 1  # room for one, not two
        service.set_policy(
            TenantPolicy(name="metered", max_inflight_bytes=budget)
        )
        first = asyncio.ensure_future(
            service.submit(tensor, CSR, tenant="metered")
        )
        await asyncio.sleep(0)
        with pytest.raises(QuotaError):
            await service.submit(_tensor(seed=32), CSR, tenant="metered")
        await first

    _run(_with_service(body))


def test_tenant_options_isolate_cache_variants():
    """A tenant pinned to non-default options must not be served bytes
    cached under the default code shapes."""

    async def body(service, engine):
        custom = PlanOptions(force_counter_arrays=True)
        service.set_policy(TenantPolicy(name="strict", options=custom))
        tensor = _tensor(seed=41)
        default_result = await service.submit(tensor, CSR)
        strict_result = await service.submit(tensor, CSR, tenant="strict")
        assert default_result.status == "converted"
        assert strict_result.status == "converted"  # not a cross-variant hit
        assert engine.pair_counts()[("COO", "CSR")] == 2
        assert (strict_result.tensor.content_digest()
                == default_result.tensor.content_digest())

    _run(_with_service(body))


def test_pinned_tenant_backend_samples_no_features(monkeypatch):
    """A tenant pinned to a backend never walks the ladder, so its
    conversions sample no structural features; with a filtered
    converter out of COO, the default tenant's auto conversion samples
    once."""
    calls = count_feature_samples(monkeypatch)

    async def body(service, engine):
        service.set_policy(TenantPolicy(name="pinned", backend="scalar"))
        await service.submit(_tensor(seed=43), DIA, tenant="pinned")
        assert calls == []
        await service.submit(_tensor(seed=44), DIA)
        assert len(calls) == 1

    with sorted_only_converter():
        _run(_with_service(body))


def test_health_and_snapshot_shapes():
    async def body(service, engine):
        await service.submit(_tensor(), CSR)
        health = service.health()
        assert health["ok"] is True
        assert "data_cache" in health
        snapshot = service.snapshot()
        assert snapshot["counters"]["responses"] == 1
        assert snapshot["engine"]["conversions"] == 1
        assert snapshot["data_cache"]["entries"] >= 1
        assert "cost_model" not in snapshot  # the ladder learns nothing

    _run(_with_service(body))


def test_submit_after_close_raises():
    async def run():
        engine = ConversionEngine()
        service = ConversionService(engine=engine, batch_window=0.0)
        await service.close()
        with pytest.raises(RuntimeError):
            await service.submit(_tensor(), CSR)
        engine.shutdown()

    _run(run())


def test_close_detaches_the_hop_observer():
    async def run():
        engine = ConversionEngine()
        service = ConversionService(engine=engine, batch_window=0.0)
        await service.submit(_tensor(seed=51), CSR)
        await service.close()
        entries_after_close = len(service.cache)
        engine.convert(_tensor(seed=52), CSR)
        assert len(service.cache) == entries_after_close
        engine.shutdown()

    _run(run())


def test_get_format_spec_strings_accepted():
    async def body(service, engine):
        result = await service.submit(_tensor(seed=61), "CSR")
        assert result.tensor.format is get_format("CSR")

    _run(_with_service(body))
