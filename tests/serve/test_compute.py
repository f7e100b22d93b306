"""Serving fused pipelines: submit_compute and the /compute endpoint."""

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.convert import ConversionEngine
from repro.formats import COO, CSR
from repro.serve import (
    ConversionService,
    QuotaError,
    ServiceServer,
    TenantPolicy,
    array_from_wire,
    array_to_wire,
    tensor_from_wire,
    tensor_to_wire,
)

from ..support.tensorgen import serve_tensor


def _tensor(fmt=COO, count=50, dims=(14, 14), seed=0):
    return serve_tensor(fmt, count=count, dims=dims, seed=seed)


def _x(dims=(14, 14), seed=1):
    return np.random.default_rng(seed).uniform(0.5, 1.5, dims[1])


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


# -- service level -----------------------------------------------------


def test_compute_spmv_matches_direct_engine():
    async def body(service, engine):
        tensor, x = _tensor(), _x()
        result = await service.submit_compute(tensor, "spmv", "CSR", x=x)
        assert result.status == "computed"
        assert result.op == "spmv"
        assert result.pair == ("COO", "CSR")
        direct = ConversionEngine()
        try:
            want = direct.spmv(tensor, x, via="CSR", fuse=result.fuse)
        finally:
            direct.shutdown()
        np.testing.assert_allclose(result.result, want, rtol=1e-9)
        assert service.metrics.counters()["compute_requests"] == 1

    _run(_with_service(body))


def test_concurrent_identical_computes_single_flight():
    async def body(service, engine):
        tensor, x = _tensor(seed=3), _x(seed=4)
        results = await asyncio.gather(
            *[service.submit_compute(tensor, "spmv", "CSR", x=x)
              for _ in range(6)]
        )
        statuses = sorted(r.status for r in results)
        assert statuses.count("computed") == 1
        assert statuses.count("coalesced") == 5
        values = {np.asarray(r.result).tobytes() for r in results}
        assert len(values) == 1
        assert engine.cache_stats()["compute_runs"] == 1

    _run(_with_service(body))


def test_different_operands_do_not_coalesce():
    """The operand digest is part of the flight key: same tensor, same
    pipeline, different x must run twice and give different answers."""

    async def body(service, engine):
        tensor = _tensor(seed=5)
        a, b = await asyncio.gather(
            service.submit_compute(tensor, "spmv", "CSR", x=_x(seed=6)),
            service.submit_compute(tensor, "spmv", "CSR", x=_x(seed=7)),
        )
        # the slower request may resume from the CSR the faster one just
        # cached ("prefix"); what it must never do is share its answer
        assert {a.status, b.status} <= {"computed", "prefix"}
        assert engine.cache_stats()["compute_runs"] == 2
        assert not np.allclose(a.result, b.result)

    _run(_with_service(body))


def test_compute_resumes_from_cached_conversion_prefix():
    """/convert COO->DIA, then /compute spmv via DIA of the same payload:
    the data cache already holds the conversion hop's destination, so
    the pipeline skips that hop and runs only its op."""

    async def body(service, engine):
        tensor = _tensor(seed=8)
        converted = await service.submit(tensor, "DIA")
        assert converted.status == "converted"
        conversions = engine.cache_stats()["conversions"]
        result = await service.submit_compute(
            tensor, "spmv", "DIA", x=_x(seed=9), fuse="materialize"
        )
        assert result.status == "prefix"
        assert (result.hops_skipped, result.hops_executed) == (1, 1)
        assert engine.cache_stats()["conversions"] == conversions
        direct = ConversionEngine()
        try:
            want = direct.spmv(tensor, _x(seed=9), via="DIA",
                               fuse=result.fuse)
        finally:
            direct.shutdown()
        np.testing.assert_allclose(result.result, want, rtol=1e-9)

    _run(_with_service(body))


def test_auto_compute_resumes_from_cached_destination():
    """Under the default fuse="auto" a fusable spmv runs fused, but once
    /convert has cached the destination for this payload, the pipeline
    materializes from that entry instead of re-running from the source."""

    async def body(service, engine):
        tensor, x = _tensor(seed=11), _x(seed=12)
        fresh = await service.submit_compute(tensor, "spmv", "CSR", x=x)
        assert (fresh.status, fresh.fuse) == ("computed", "fused")
        other = _tensor(seed=13)
        converted = await service.submit(other, "CSR")
        assert converted.status == "converted"
        conversions = engine.cache_stats()["conversions"]
        result = await service.submit_compute(other, "spmv", "CSR", x=x)
        assert (result.status, result.fuse) == ("prefix", "materialize")
        assert (result.hops_skipped, result.hops_executed) == (1, 1)
        assert engine.cache_stats()["conversions"] == conversions
        assert service.metrics.counters()["prefix_hits"] == 1
        direct = ConversionEngine()
        try:
            want = direct.spmv(other, x, via="CSR", fuse=False)
        finally:
            direct.shutdown()
        np.testing.assert_allclose(result.result, want, rtol=1e-9)

    _run(_with_service(body))


def test_compute_scale_returns_tensor_and_seeds_cache():
    async def body(service, engine):
        tensor = _tensor(seed=10)
        result = await service.submit_compute(
            tensor, "scale", "CSR", alpha=2.0
        )
        assert result.status == "computed"
        out = result.result
        assert out.format.name == "CSR"
        np.testing.assert_allclose(
            np.asarray(out.vals),
            np.asarray(tensor.to("CSR").vals) * 2.0,
        )

    _run(_with_service(body))


def test_compute_respects_quotas():
    async def body(service, engine):
        service.set_policy(TenantPolicy(name="tiny", max_request_bytes=16))
        with pytest.raises(QuotaError):
            await service.submit_compute(
                _tensor(seed=12), "spmv", "CSR", x=_x(), tenant="tiny"
            )
        assert service.metrics.counters()["quota_rejections"] == 1

    _run(_with_service(body))


def test_fused_serves_counted():
    async def body(service, engine):
        tensor, x = _tensor(seed=13), _x(seed=13)
        result = await service.submit_compute(
            tensor, "spmv", "CSR", x=x, fuse="fused"
        )
        assert result.fuse == "fused"
        assert service.metrics.counters()["fused_serves"] == 1

    _run(_with_service(body))


# -- HTTP --------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    with ServiceServer(port=0, batch_window=0.0) as running:
        yield running


def _post(server, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def test_http_compute_spmv(server):
    tensor, x = _tensor(seed=20), _x(seed=20)
    body = _post(server, "/compute", {
        "op": "spmv", "to": "CSR",
        "tensor": tensor_to_wire(tensor), "x": array_to_wire(x),
    })
    assert body["op"] == "spmv"
    assert body["status"] in ("computed", "prefix")
    got = array_from_wire(body["result"])
    engine = ConversionEngine()
    try:
        want = engine.spmv(tensor, x, via="CSR", fuse=body["fuse"])
    finally:
        engine.shutdown()
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_http_compute_forced_fused_matches_materialized(server):
    tensor, x = _tensor(seed=21), _x(seed=21)
    wire = tensor_to_wire(tensor)
    fused = _post(server, "/compute", {
        "op": "spmv", "to": "CSR", "tensor": wire,
        "x": array_to_wire(x), "fuse": "fused",
    })
    mat = _post(server, "/compute", {
        "op": "spmv", "to": "CSR", "tensor": wire,
        "x": array_to_wire(x), "fuse": False,
    })
    assert fused["fuse"] == "fused" and mat["fuse"] == "materialize"
    np.testing.assert_allclose(
        array_from_wire(fused["result"]),
        array_from_wire(mat["result"]), rtol=1e-9,
    )


def test_http_compute_scale_returns_wire_tensor(server):
    tensor = _tensor(seed=22)
    body = _post(server, "/compute", {
        "op": "scale", "to": "CSR",
        "tensor": tensor_to_wire(tensor), "alpha": 4.0,
    })
    out = tensor_from_wire(body["tensor"])
    np.testing.assert_allclose(
        np.asarray(out.vals), np.asarray(tensor.to("CSR").vals) * 4.0
    )


def test_http_compute_bad_requests_are_400(server):
    for payload in (
        {"tensor": tensor_to_wire(_tensor())},              # no op
        {"op": "nonsense", "tensor": tensor_to_wire(_tensor())},
        {"op": "spmv"},                                     # no tensor
    ):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(server, "/compute", payload)
        assert info.value.code == 400
