"""Adaptive cost model: measured hop timings, provenance, persistence,
route re-planning, and robustness against malformed model files."""

import json
import random

import pytest

from repro.convert import ConversionEngine, CostModel, find_route, scipy_available
from repro.convert.router import MEASURED, SEEDED
from repro.formats import COO, CSR, HASH
from repro.storage.build import reference_build

# With scipy importable, the scipy-delegated converter wins the COO->CSR
# edge for sorted bulk streams and timings record under its own key; the
# no-scipy leg exercises the generated vector kernel instead.
COO_CSR_KEY = "external:scipy-coo-csr" if scipy_available() else "vector"


@pytest.fixture
def only_generated_kernels():
    """Temporarily unregister every registered converter so the generated
    kernels win deterministically (scipy-present and -absent legs).
    Removing only the COO->CSR competitors is not enough: the router then
    detours COO->CSC->CSR through two seeded scipy hops."""
    from repro.convert import (
        converters_for,
        register_converter,
        unregister_converter,
    )
    from repro.formats import available_formats

    formats = list(available_formats().values())
    removed = []
    for src in formats:
        for dst in formats:
            for conv in converters_for(src, dst):
                if unregister_converter(src, dst, conv.name):
                    removed.append(conv)
    yield
    for conv in removed:
        register_converter(
            conv.src, conv.dst, conv.func,
            filter=conv.filter, weight=conv.weight, name=conv.name,
        )


def _tensor(src, count=60, dims=(12, 12), seed=3):
    rng = random.Random(seed)
    cells = sorted({
        (rng.randrange(dims[0]), rng.randrange(dims[1])) for _ in range(count)
    })
    return reference_build(
        src, dims, cells, [1.0 + i for i in range(len(cells))]
    )


# ----------------------------------------------------------------------
# observe / cost_detail


def test_seeded_until_enough_observations():
    model = CostModel(min_nnz=1)
    assert model.cost_detail("vector", 100_000)[1] == SEEDED
    model.observe("vector", 100_000, 1, 0.5)
    model.observe("vector", 100_000, 1, 0.5)
    assert model.cost_detail("vector", 100_000)[1] == SEEDED  # K=3 not met
    model.observe("vector", 100_000, 1, 0.5)
    cost, provenance = model.cost_detail("vector", 100_000)
    assert provenance == MEASURED
    # ~0.5 s at 100k nnz (minus the fixed hop overhead)
    assert cost == pytest.approx(0.5, rel=0.05)


def test_measured_rates_are_ewma_smoothed():
    model = CostModel(min_nnz=1, min_observations=1)
    model.observe("scalar", 1_000_000, 1, 1.0)
    first = model.cost("scalar", 1_000_000)
    model.observe("scalar", 1_000_000, 1, 100.0)  # one outlier
    second = model.cost("scalar", 1_000_000)
    assert first < second < 30.0  # pulled up, but nowhere near 100 s


def test_tiny_observations_are_ignored():
    model = CostModel()  # default min_nnz gate
    for _ in range(10):
        model.observe("vector", 50, 1, 5.0)  # 100 ms/nnz nonsense rate
    assert model.cost_detail("vector", 100_000)[1] == SEEDED
    assert model.observation_count("vector") == 0


def test_chunked_observations_record_under_chunked():
    model = CostModel(min_nnz=1, min_observations=1)
    model.observe("vector", 100_000, 4, 0.2)  # vector hop run chunk-parallel
    assert model.observation_count("chunked") == 1
    assert model.observation_count("vector") == 0
    assert model.cost_detail("vector", 100_000, workers=4)[1] == MEASURED
    assert model.cost_detail("vector", 100_000, workers=1)[1] == SEEDED


def test_version_bumps_on_meaningful_change_only():
    model = CostModel(min_nnz=1)
    v0 = model.version
    model.observe("vector", 100_000, 1, 0.5)
    assert model.version == v0  # below K: nothing published
    model.observe("vector", 100_000, 1, 0.5)
    model.observe("vector", 100_000, 1, 0.5)
    assert model.version == v0 + 1  # first publication
    model.observe("vector", 100_000, 1, 0.5)  # same rate: no drift
    assert model.version == v0 + 1
    for _ in range(20):
        model.observe("vector", 100_000, 1, 5.0)  # 10x drift
    assert model.version > v0 + 1


# ----------------------------------------------------------------------
# routing uses measured costs


def test_injected_slow_bridge_flips_the_route():
    """The acceptance scenario: measured timings showing the bridge hop is
    slow must flip HASH->CSR from the bridge route to direct."""
    model = CostModel(min_nnz=1)
    assert not find_route(HASH, CSR, cost_model=model).is_direct
    for _ in range(model.min_observations):
        model.observe("bridge", 100_000, 1, 60.0)  # pathological bridge
    flipped = find_route(HASH, CSR, cost_model=model)
    assert flipped.is_direct
    assert flipped.hops[0].kind == "scalar"


def test_engine_route_explains_measured_after_enough_conversions(
    only_generated_kernels,
):
    """After >= K recorded conversions of a pair at bulk sizes, the
    engine's route explanation labels that pair's hop costs as measured
    (this exercises the default ``min_nnz`` gate end to end)."""
    model = CostModel()
    engine = ConversionEngine(cost_model=model)
    tensor = _tensor(COO, count=3 * model.min_nnz, dims=(256, 256), seed=1)
    assert tensor.nnz_stored >= model.min_nnz
    for _ in range(model.min_observations):
        engine.convert(tensor, CSR)
    assert model.observation_count("vector") >= model.min_observations
    text = engine.route(COO, CSR, nnz=tensor.nnz_stored).explain()
    assert "measured cost" in text


def test_engine_route_cache_invalidated_by_new_measurements():
    model = CostModel(min_nnz=1)
    engine = ConversionEngine(cost_model=model)
    before = engine.route(HASH, CSR)
    assert not before.is_direct  # seeded: bridge route wins
    for _ in range(model.min_observations):
        model.observe("bridge", 100_000, 1, 60.0)
    after = engine.route(HASH, CSR)
    assert after.is_direct  # cached route was dropped and re-planned


def test_convert_via_records_hop_timings():
    # zero both overheads so even microsecond hops register (observations
    # faster than the fixed per-kind overhead are otherwise discarded)
    model = CostModel(min_nnz=1, hop_overhead=0.0, external_overhead=0.0)
    engine = ConversionEngine(cost_model=model)
    tensor = _tensor(HASH)
    route = engine.route(HASH, CSR)
    engine.convert_via(route, tensor)
    assert model.observation_count("bridge") == 1
    assert model.observation_count(COO_CSR_KEY) == 1


# ----------------------------------------------------------------------
# persistence


def test_cost_model_save_load_roundtrip(tmp_path):
    model = CostModel(min_nnz=1)
    for _ in range(4):
        model.observe("vector", 100_000, 1, 0.75)
    path = tmp_path / "costs.json"
    model.save(path)
    loaded = CostModel.load(path)
    assert loaded.min_nnz == 1
    assert loaded.observation_count("vector") == 4
    assert loaded.cost_detail("vector", 100_000)[1] == MEASURED
    assert loaded.cost("vector", 100_000) == pytest.approx(
        model.cost("vector", 100_000)
    )


def test_engine_save_cost_model_and_path_constructor(tmp_path):
    # hop_overhead=0: tiny test conversions must register deterministically
    model = CostModel(min_nnz=1, hop_overhead=0.0)
    engine = ConversionEngine(cost_model=model)
    tensor = _tensor(COO)
    for _ in range(3):
        engine.convert(tensor, CSR)
    path = tmp_path / "costs.json"
    engine.save_cost_model(path)
    warm = ConversionEngine(cost_model=str(path))
    assert warm.cost_model.observation_count("vector") >= 3


def test_load_rejects_bench_report_with_single_warning(tmp_path):
    """``load`` reads one format; a bench-shaped JSON is not it."""
    report = {
        "coo_csr": {
            "cells": [
                {"nnz": 1000, "scalar_seconds": 1e-3, "vector_seconds": 5e-5},
            ]
        }
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    with pytest.warns(RuntimeWarning, match="not a cost-model file") as caught:
        model = CostModel.load(path)
    assert len(caught) == 1
    assert model == CostModel()


def test_load_missing_or_unparsable_file_degrades_with_warning(tmp_path):
    with pytest.warns(RuntimeWarning, match="could not read cost model"):
        model = CostModel.load(tmp_path / "nope.json")
    assert model.scalar_per_nnz == CostModel().scalar_per_nnz
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.warns(RuntimeWarning):
        assert CostModel.load(bad).vector_per_nnz == CostModel().vector_per_nnz


def test_load_malformed_saved_model_degrades_with_warning(tmp_path):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({
        "kind": "repro-cost-model",
        "schema": 1,
        "seeded": {"scalar_per_nnz": "not a number"},
    }))
    with pytest.warns(RuntimeWarning, match="malformed cost-model"):
        model = CostModel.load(path)
    assert model.scalar_per_nnz == CostModel().scalar_per_nnz


def test_sub_overhead_observations_are_discarded():
    """A hop faster than the fixed overhead carries no throughput signal;
    recording it as a zero rate would price arbitrarily large hops at the
    overhead alone."""
    model = CostModel(min_nnz=1)
    for _ in range(10):
        model.observe("bridge", 100_000, 1, model.hop_overhead / 2)
    assert model.observation_count("bridge") == 0
    assert model.cost_detail("bridge", 100_000_000)[1] == SEEDED


def test_restored_subthreshold_entries_bump_version_at_threshold(tmp_path):
    """A saved model holding fewer than K observations of a kind must
    still bump version (invalidating cached routes) when the restored
    entry crosses the threshold, even without rate drift."""
    model = CostModel(min_nnz=1)
    model.observe("vector", 100_000, 1, 0.5)
    model.observe("vector", 100_000, 1, 0.5)  # count=2 < K=3
    path = tmp_path / "costs.json"
    model.save(path)
    restored = CostModel.load(path)
    v0 = restored.version
    assert restored.cost_detail("vector", 100_000)[1] == SEEDED
    restored.observe("vector", 100_000, 1, 0.5)  # same rate, crosses K
    assert restored.cost_detail("vector", 100_000)[1] == MEASURED
    assert restored.version == v0 + 1


def test_save_creates_missing_parent_directories(tmp_path):
    """Regression: saving into a directory that doesn't exist yet must
    create it (mkdir -p semantics) instead of failing the persist."""
    model = CostModel(min_nnz=1)
    for _ in range(5):
        model.observe("vector", 100_000, 1, 0.5)
    path = tmp_path / "state" / "nested" / "costs.json"
    model.save(path)
    restored = CostModel.load(path)
    assert restored.observation_count("vector") == 5
    # a bare filename (no directory component) still saves fine
    import os

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        model.save("flat.json")
        assert CostModel.load("flat.json").observation_count("vector") == 5
    finally:
        os.chdir(cwd)
