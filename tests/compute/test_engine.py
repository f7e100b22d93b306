"""Engine execution surface: run_compute_plan, spmv sugar, stats, and the
backend pin shared with conversion plans."""

import numpy as np
import pytest

from repro.compute import scale_reference, spmv_reference
from repro.convert import ConversionEngine
from repro.formats.library import COO, CSR, DIA
from repro.storage.build import reference_build

pytest.importorskip("scipy")


@pytest.fixture()
def engine():
    eng = ConversionEngine()
    yield eng
    eng.shutdown()


@pytest.fixture()
def problem():
    rng = np.random.default_rng(11)
    dims = (20, 16)
    cells = sorted({(int(rng.integers(0, dims[0])),
                     int(rng.integers(0, dims[1]))) for _ in range(90)})
    vals = list(rng.uniform(0.5, 1.5, len(cells)))
    tensor = reference_build(COO, dims, cells, vals)
    x = rng.uniform(0.5, 1.5, dims[1])
    return tensor, x


def test_engine_spmv_matches_scipy(engine, problem):
    tensor, x = problem
    y = engine.spmv(tensor, x, via="CSR")
    want = tensor.to_scipy("csr") @ x
    np.testing.assert_allclose(y, want, rtol=1e-9, atol=1e-12)


def test_tensor_spmv_sugar(engine, problem):
    tensor, x = problem
    for fuse in ("auto", "fused", False):
        y = tensor.spmv(x, via="CSR", fuse=fuse, engine=engine)
        np.testing.assert_allclose(
            y, spmv_reference(tensor, x), rtol=1e-9, atol=1e-12
        )
    # via=None computes in the tensor's own format (no conversion hops)
    y = tensor.spmv(x, via=None, engine=engine)
    np.testing.assert_allclose(
        y, spmv_reference(tensor, x), rtol=1e-9, atol=1e-12
    )


def test_run_compute_plan_validates_source_structure(engine, problem):
    tensor, x = problem
    plan = engine.plan_compute(CSR, "spmv", DIA, fuse=True)
    with pytest.raises(ValueError, match="plan starts at CSR"):
        engine.run_compute_plan(plan, tensor, x=x)


def test_spmv_without_operand_is_loud(engine, problem):
    tensor, _ = problem
    plan = engine.plan_compute(COO, "spmv", CSR, fuse=True)
    with pytest.raises(ValueError, match="needs an operand vector x"):
        engine.run_compute_plan(plan, tensor)


def test_scale_with_alpha_matches_reference(engine, problem):
    tensor, _ = problem
    plan = engine.plan_compute(COO, "scale", CSR, fuse=False)
    out = engine.run_compute_plan(plan, tensor, alpha=3.0)
    want = scale_reference(tensor, 3.0, dst_format=CSR)
    assert out.format.name == "CSR"
    np.testing.assert_allclose(
        np.asarray(out.vals), np.asarray(want.vals), rtol=1e-12
    )
    with pytest.raises(ValueError, match="scalar alpha"):
        engine.run_compute_plan(plan, tensor)


def test_compute_stats_track_fused_runs(engine, problem):
    tensor, x = problem
    before = engine.cache_stats()
    fused = engine.plan_compute(COO, "spmv", CSR, fuse=True)
    mat = engine.plan_compute(COO, "spmv", CSR, fuse=False)
    engine.run_compute_plan(fused, tensor, x=x)
    engine.run_compute_plan(mat, tensor, x=x)
    after = engine.cache_stats()
    assert after["compute_runs"] == before["compute_runs"] + 2
    assert after["fused_runs"] == before["fused_runs"] + 1


def test_native_pin_without_compiler_degrades_every_hop(monkeypatch, problem):
    """A ``native`` pin on a host with no C compiler degrades the whole
    pipeline — conversion hops and the op kernel — with one warning,
    exactly as ``plan(COO, CSR, backend="native")`` does."""
    import warnings

    from repro.ir.native import _clear_toolchain_cache

    tensor, x = problem
    monkeypatch.setenv("CC", "/bin/false")
    _clear_toolchain_cache()
    eng = ConversionEngine()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = eng.plan_compute(COO, "spmv", CSR, backend="native")
        assert [w.category for w in caught] == [RuntimeWarning]
        assert plan.backend != "native"
        assert "native" not in plan.backend_per_hop
        y = tensor.spmv(x, backend="native", engine=eng)
        np.testing.assert_allclose(
            y, spmv_reference(tensor, x), rtol=1e-9, atol=1e-12
        )
    finally:
        eng.shutdown()
        monkeypatch.delenv("CC", raising=False)
        _clear_toolchain_cache()


def test_compile_warms_the_op_kernel(engine, problem):
    tensor, x = problem
    for fuse in (True, False):
        runner = engine.plan_compute(COO, "spmv", CSR, fuse=fuse).compile()
        before = engine.cache_stats()["compiles"]
        y = runner(tensor, x=x)
        assert engine.cache_stats()["compiles"] == before
        np.testing.assert_allclose(
            y, spmv_reference(tensor, x), rtol=1e-9, atol=1e-12
        )
