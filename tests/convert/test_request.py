"""ConversionRequest: one validated object behind convert()'s knobs."""

import pytest

import repro
from repro.convert import ConversionEngine, ConversionRequest, PlanError
from repro.convert.features import default_features
from repro.convert.request import ROUTE_MODES
from repro.convert.router import DEFAULT_ROUTE_NNZ, find_route
from repro.formats import COO, CSR


def _build(**kwargs):
    return ConversionRequest.build(COO, CSR, **kwargs)


def test_defaults_normalize():
    request = _build()
    assert request.src is COO and request.dst is CSR
    assert request.backend == "auto"
    assert request.route == "auto" and not request.route_explicit
    assert request.nnz == DEFAULT_ROUTE_NNZ


def test_specs_resolve_through_the_registry():
    request = ConversionRequest.build("coo", "CSR")
    assert request.src is COO and request.dst is CSR


# ----------------------------------------------------------------------
# the backend/route conflict


def test_explicit_backend_with_explicit_route_auto_conflicts():
    with pytest.raises(ValueError, match="conflicts with route='auto'"):
        _build(backend="scalar", route="auto")
    # the message tells the caller both ways out
    with pytest.raises(ValueError, match="route='direct'"):
        _build(backend="vector", route="auto")


def test_conflict_requires_both_knobs_to_be_explicit():
    # backend pinned, route unspecified: the auto policy quietly defers
    request = _build(backend="scalar")
    assert request.backend == "scalar" and not request.route_explicit
    # route="auto" spelled out, backend unspecified: fine
    assert _build(route="auto").route_explicit
    # backend="auto" spelled out is not a pin
    assert _build(backend="auto", route="auto").backend == "auto"
    # route="direct" keeps a pinned backend without contradiction
    assert _build(backend="scalar", route="direct").route == "direct"


def test_engine_and_module_shims_raise_the_same_conflict():
    coo = repro.build(COO, (4, 4), [(0, 1), (2, 3)], [1.0, 2.0])
    engine = ConversionEngine()
    with pytest.raises(ValueError, match="conflicts with route='auto'"):
        engine.convert(coo, CSR, backend="scalar", route="auto")
    with pytest.raises(ValueError, match="conflicts with route='auto'"):
        repro.convert(coo, CSR, backend="vector", route="auto")
    with pytest.raises(ValueError, match="conflicts with route='auto'"):
        engine.plan(COO, CSR, backend="scalar", route="auto")


# ----------------------------------------------------------------------
# per-knob validation and error types


def test_unknown_backend_raises_planerror():
    with pytest.raises(PlanError, match="unknown backend"):
        _build(backend="turbo")


def test_unknown_route_mode_raises_valueerror():
    with pytest.raises(ValueError, match="unknown route mode"):
        _build(route="scenic")
    assert ROUTE_MODES == ("auto", "direct")


def test_explicit_route_object_passes_through():
    """An explicit route mode passes through; a plan is not a mode — it
    runs with plan.run(tensor) — so route=<plan> is refused by name."""
    request = _build(route="direct")
    assert request.route == "direct" and request.route_explicit
    with pytest.raises(ValueError, match=r"plan\.run\(tensor\)"):
        _build(route=find_route(COO, CSR))


# ----------------------------------------------------------------------
# nnz and features


def test_nnz_falls_back_to_features_then_default():
    assert _build(features=default_features(777)).nnz == 777
    assert _build(nnz=42, features=default_features(777)).nnz == 42
    assert _build().nnz == DEFAULT_ROUTE_NNZ
    with pytest.raises(ValueError, match="nnz must be an integer"):
        _build(nnz="lots")


def test_engine_defaults_apply_when_knobs_are_none():
    request = _build(default_backend="vector")
    assert request.backend == "vector"
    explicit = _build(backend="scalar", default_backend="vector")
    assert explicit.backend == "scalar"
