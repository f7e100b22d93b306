"""Tests for multi-hop routing: route search, cost model, bridges, and
bit-identity of every routed pair against the direct scalar conversion."""

import random
import time
from dataclasses import replace

import numpy as np
import pytest

import repro.__main__ as cli
from repro.convert import (
    ConversionEngine,
    ConversionPlan,
    CostModel,
    PlanOptions,
    find_route,
    make_converter,
    scipy_available,
)
from repro.convert.router import DEFAULT_ROUTE_NNZ, Hop, bridge_for
from repro.formats import (
    BCSR,
    COO,
    CSC,
    CSR,
    DCSR,
    DIA,
    ELL,
    HASH,
    HICOO,
    SKY,
    make_format,
)
from repro.ir.native import detect_toolchain
from repro.levels.compressed import CompressedLevel
from repro.levels.dense import DenseLevel
from repro.levels.hashed import HashedLevel
from repro.storage.build import reference_build

# With scipy importable its registered converter wins the bulk COO->CSR /
# CSR->CSC edges; the no-scipy leg keeps the generated vector kernel.
EXT = "external" if scipy_available() else "vector"

needs_cc = pytest.mark.skipif(
    detect_toolchain() is None, reason="no C toolchain"
)


def random_cells(rng, dims, count, lower_triangular=False):
    cells = set()
    while len(cells) < count:
        i, j = rng.randrange(dims[0]), rng.randrange(dims[1])
        if lower_triangular and j > i:
            i, j = j, i
        cells.add((i, j))
    cells = sorted(cells)
    rng.shuffle(cells)
    return cells, [round(rng.uniform(0.5, 9.5), 4) for _ in cells]


def assert_identical(a, b):
    assert a.format.signature() == b.format.signature()
    assert set(a.arrays) == set(b.arrays)
    for key in a.arrays:
        assert np.array_equal(a.arrays[key], b.arrays[key]), key
    assert np.array_equal(a.vals, b.vals)
    assert a.metadata == b.metadata


# ----------------------------------------------------------------------
# route search


def test_hash_to_csr_routes_through_coo():
    route = find_route(HASH, CSR)
    assert not route.is_direct
    assert [fmt.name for fmt in route.formats] == ["HASH", "COO", "CSR"]
    assert route.backend_per_hop == ("bridge", EXT)
    assert route.routed
    direct = find_route(HASH, CSR, max_hops=1)
    assert sum(hop.cost for hop in route.hops) < direct.hops[0].cost


def test_route_accepts_spec_strings():
    route = find_route("hash", "csr")
    assert route.src is HASH and route.dst is CSR


def test_vectorizable_pairs_stay_direct():
    for src, dst in [(COO, CSR), (CSR, CSC), (COO, DIA), (BCSR(4, 4), CSR)]:
        route = find_route(src, dst)
        assert route.is_direct
        assert route.backend_per_hop[0] in ("vector", "external")
    # pairs with no registered competitor always stay on the generated kernel
    for src, dst in [(COO, DIA), (BCSR(4, 4), CSR)]:
        assert find_route(src, dst).backend_per_hop == ("vector",)


def test_hash_to_coo_is_a_direct_bridge():
    route = find_route(HASH, COO)
    assert route.is_direct
    assert route.backend_per_hop == ("bridge",)


def test_non_default_options_pin_direct_scalar():
    route = find_route(HASH, CSR, options=PlanOptions(force_unsequenced_edges=True))
    assert route.is_direct
    assert route.backend_per_hop == ("scalar",)


def test_tiny_tensors_route_direct():
    route = find_route(HASH, CSR, nnz=8)
    assert route.is_direct


def _route_explain(monkeypatch, capsys, src, dst, engine=None):
    """``repro route SRC DST --explain`` on ``engine``'s plans."""
    engine = engine or ConversionEngine()
    monkeypatch.setattr(cli, "default_engine", lambda: engine)
    cli.main(["route", src, dst, "--explain"])
    return capsys.readouterr().out


def test_route_explain_transcript(monkeypatch, capsys):
    """The plan's transcript, a competitor table per hop, and — for a
    multi-hop plan — the direct edge's table: the estimate it beat."""
    text = _route_explain(monkeypatch, capsys, "HASH", "CSR")
    assert "plan HASH -> CSR: HASH -> COO -> CSR" in text
    assert "[bridge]" in text and f"[{EXT}" in text
    direct = text.split("competitors for HASH -> CSR (direct edge, not "
                        "taken):\n")[1]
    assert direct.startswith("  generated-scalar [scalar] est 150.050 ms")
    direct_text = _route_explain(monkeypatch, capsys, "COO", "CSR")
    assert "(1 hop," in direct_text
    assert direct_text.count("competitors for COO -> CSR:") == 1
    assert "direct edge" not in direct_text


def test_route_explain_names_a_vector_direct_hop(monkeypatch, capsys):
    """A detour around a pair that lowers to vector code (the COO -> CSC
    -> CSR route cheap external hops can win) shows the direct edge's
    vector kernel and does not claim the pair only lowers to scalar
    loops."""
    engine = ConversionEngine()
    detour = ConversionPlan(
        hops=(Hop(COO, CSC, "external", 4.5e-4, converter="scipy-coo-csc"),
              Hop(CSC, CSR, "external", 4.5e-4, converter="scipy-csc-csr")),
        options=PlanOptions(), nnz=100_000, routed=True, engine=engine,
    )
    monkeypatch.setattr(engine, "route", lambda *args, **kwargs: detour)
    text = _route_explain(monkeypatch, capsys, "COO", "CSR", engine)
    direct = text.split("competitors for COO -> CSR (direct edge, not "
                        "taken):\n")[1]
    assert "generated-vector [vector] est 4.050 ms" in direct
    assert "scalar" not in text


def _pair(src, dst):
    from repro.convert.planner import structural_key

    return (structural_key(src), structural_key(dst))


def test_formats_that_drop_entries_are_never_intermediates():
    """SKY keeps only each row's band up to the diagonal, so a general
    matrix routed through it loses entries: no measured rate makes the
    router take that detour."""
    model = CostModel(min_nnz=1)
    for _ in range(model.min_observations):
        model.observe("vector", 100_000, 10.0, _pair(COO, CSR))  # slow
        model.observe("vector", 100_000, 1e-4, _pair(COO, SKY))
        model.observe("vector", 100_000, 1e-4, _pair(SKY, CSR))
    route = find_route(COO, CSR, cost_model=model)
    assert SKY not in route.formats


def test_a_seeded_detour_never_displaces_a_measured_direct_edge():
    """Rates are kept per pair, so an unexplored detour hop is priced at
    its seed: it may not displace a measured direct edge, but the same
    detour wins once its hops are measured cheaper."""
    model = CostModel(min_nnz=1)
    for _ in range(model.min_observations):
        model.observe("vector", 100_000, 0.02, _pair(CSR, ELL))
    route = find_route(CSR, ELL, cost_model=model, intermediates=[COO])
    assert route.is_direct  # the seeded detour would price at 8.1 ms
    for _ in range(model.min_observations):
        model.observe("vector", 100_000, 1e-3, _pair(CSR, COO))
        model.observe("vector", 100_000, 1e-3, _pair(COO, ELL))
    route = find_route(CSR, ELL, cost_model=model, intermediates=[COO])
    assert [f.name for f in route.formats] == ["CSR", "COO", "ELL"]


def test_explicit_intermediates_restrict_the_graph():
    route = find_route(HASH, CSR, intermediates=[DIA])
    # no COO available: DIA cannot be reached by bridge, hops stay scalar,
    # so the direct conversion wins
    assert route.is_direct


# ----------------------------------------------------------------------
# cost model


def test_cost_model_orders_backends():
    model = CostModel()
    nnz = DEFAULT_ROUTE_NNZ
    assert model.cost("bridge", nnz) < model.cost("vector", nnz)
    assert model.cost("vector", nnz) < model.cost("scalar", nnz)


# ----------------------------------------------------------------------
# bit-identity: every routed pair equals the direct scalar conversion


HASH_TARGETS = [CSR, CSC, DIA, ELL, DCSR, BCSR(4, 4), HICOO(4), COO, SKY]


@pytest.mark.parametrize("dst", HASH_TARGETS, ids=lambda fmt: fmt.name)
def test_routed_hash_pairs_bit_identical_to_direct_scalar(dst):
    rng = random.Random(7)
    dims = (32, 32)
    cells, vals = random_cells(rng, dims, 220, lower_triangular=dst is SKY)
    tensor = reference_build(HASH, dims, cells, vals)
    engine = ConversionEngine()
    route = engine.route(HASH, dst)  # bulk-size default: multi-hop/bridge
    assert "bridge" in route.backend_per_hop
    routed = route.run(tensor)
    direct = make_converter(HASH, dst, backend="scalar")(tensor)
    assert_identical(routed, direct)


def test_every_builtin_pair_routes_and_roundtrips():
    """Route search succeeds for every ordered same-order builtin pair and
    only hash sources leave the direct path."""
    formats = [COO, CSR, CSC, DIA, ELL, SKY, DCSR, HASH, BCSR(4, 4), HICOO(4)]
    for src in formats:
        for dst in formats:
            if src is dst:
                continue
            route = find_route(src, dst)
            assert route.hops[0].src is src and route.hops[-1].dst is dst
            if src is not HASH:
                assert route.is_direct
                assert "bridge" not in route.backend_per_hop


def test_structural_hash_twins_share_the_bridge():
    twin = make_format(
        "HASHTWIN_ROUTER",
        "(i,j) -> (i, j)",
        [DenseLevel(), HashedLevel()],
        inverse_text="(i,j) -> (i, j)",
    )
    assert bridge_for(twin) is not None
    route = find_route(twin, CSR)
    assert not route.is_direct
    assert route.backend_per_hop == ("bridge", EXT)
    rng = random.Random(3)
    cells, vals = random_cells(rng, (24, 24), 150)
    tensor = reference_build(HASH, (24, 24), cells, vals)
    tensor.format = twin  # same structure, different name
    engine = ConversionEngine()
    routed = replace(route, engine=engine).run(tensor)
    direct = engine.make_converter(twin, CSR, backend="scalar")(tensor)
    assert_identical(routed, direct)


# ----------------------------------------------------------------------
# engine integration


def test_engine_convert_auto_routes_large_hash_tensors():
    rng = random.Random(11)
    dims = (64, 64)
    cells, vals = random_cells(rng, dims, 900)
    tensor = reference_build(HASH, dims, cells, vals)
    engine = ConversionEngine()
    auto = engine.convert(tensor, CSR)  # hash table is large enough to route
    assert engine.cache_stats()["routed_conversions"] == 1
    direct = engine.convert(tensor, CSR, route="direct")
    assert engine.cache_stats()["routed_conversions"] == 1
    assert_identical(auto, direct)


def test_engine_convert_explicit_route_object():
    rng = random.Random(13)
    cells, vals = random_cells(rng, (16, 16), 60)
    tensor = reference_build(HASH, (16, 16), cells, vals)
    engine = ConversionEngine()
    route = engine.route(HASH, CSC)  # the routed plan, bound to engine
    assert not route.is_direct and route.engine is engine
    out = route.run(tensor)
    stats = engine.cache_stats()
    assert stats["conversions"] == stats["routed_conversions"] == 1
    assert_identical(out, engine.convert(tensor, CSC, route="direct"))
    assert engine.cache_stats()["routed_conversions"] == 1


def test_convert_via_and_route_call_count_like_convert():
    """Running the router's plan — plan.run(t) or calling the plan —
    feeds the same counters as the plan convert() builds at that size."""
    rng = random.Random(13)
    cells, vals = random_cells(rng, (16, 16), 60)
    tensor = reference_build(HASH, (16, 16), cells, vals)
    reference = ConversionEngine()
    expected = reference.run_plan(reference.plan(HASH, CSC), tensor)
    for run in (
        lambda engine: engine.route(HASH, CSC).run(tensor),
        lambda engine: engine.route(HASH, CSC)(tensor),
    ):
        engine = ConversionEngine()
        assert_identical(run(engine), expected)
        stats, want = engine.cache_stats(), reference.cache_stats()
        for counter in ("conversions", "routed_conversions",
                        "parallel_conversions"):
            assert stats[counter] == want[counter], counter
        assert stats["conversions"] == stats["routed_conversions"] == 1
        assert engine.pair_counts() == reference.pair_counts() == {
            ("HASH", "CSC"): 1
        }


def test_route_caching_by_structural_pair():
    engine = ConversionEngine()
    assert engine.route(HASH, CSR) is engine.route(HASH, CSR)
    assert engine.route(HASH, CSR, nnz=10) is not engine.route(HASH, CSR)


def test_routed_conversion_is_faster_at_bulk_sizes():
    """The acceptance bar: at 100k+ nnz the routed HASH->CSR conversion
    beats the direct scalar loop (by an order of magnitude in practice;
    asserted at 2x to stay robust on noisy CI runners)."""
    rng = random.Random(17)
    n, count = 1200, 100_000
    cells, vals = random_cells(rng, (n, n), count)
    tensor = reference_build(HASH, (n, n), cells, vals)
    engine = ConversionEngine()
    route = engine.route(HASH, CSR, nnz=tensor.nnz_stored)
    assert not route.is_direct
    direct = engine.make_converter(HASH, CSR, backend="scalar")

    def best_of(fn, reps=2):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    routed_time = best_of(lambda: route.run(tensor))
    direct_time = best_of(lambda: direct(tensor))
    assert routed_time * 2 < direct_time, (routed_time, direct_time)
    assert_identical(route.run(tensor), direct(tensor))


def test_route_cache_retags_renamed_twins():
    """Routes are cached structurally, but results must come back in the
    exact format object the caller requested (cache-order independent)."""
    twin = make_format(
        "CSRTWIN_ROUTECACHE",
        "(i,j) -> (i, j)",
        [DenseLevel(), CompressedLevel(ordered=False)],
        inverse_text="(i,j) -> (i, j)",
    )
    engine = ConversionEngine()
    first = engine.route(HASH, CSR)  # populates the structural cache entry
    assert first.dst is CSR
    retagged = engine.route(HASH, twin)  # same structure, renamed
    assert retagged.dst is twin
    assert engine.route(HASH, CSR).dst is CSR  # original still intact
    rng = random.Random(23)
    cells, vals = random_cells(rng, (20, 20), 120)
    tensor = reference_build(HASH, (20, 20), cells, vals)
    out = retagged.run(tensor)
    assert out.format is twin


def test_convert_rejects_mismatched_explicit_route():
    engine = ConversionEngine()
    rng = random.Random(29)
    cells, vals = random_cells(rng, (12, 12), 40)
    tensor = reference_build(HASH, (12, 12), cells, vals)
    route = engine.route(HASH, CSR)
    coo = engine.convert(tensor, COO, route="direct")
    before = engine.cache_stats()
    with pytest.raises(ValueError):
        route.run(coo)  # the plan starts at HASH
    with pytest.raises(ValueError, match=r"plan\.run"):
        engine.convert(tensor, CSR, route=route)  # a plan is not a mode
    # telemetry untouched by the failed calls
    assert engine.cache_stats()["conversions"] == before["conversions"] == 1
    assert engine.pair_counts() == {("HASH", "COO"): 1}


def test_rebind_endpoints_validates_structure():
    from repro.convert import rebind_endpoints

    plan = ConversionEngine().route(HASH, CSR)
    with pytest.raises(ValueError):
        rebind_endpoints(plan, HASH, DIA)
    assert rebind_endpoints(plan, HASH, CSR) is plan  # no-op fast path


def test_beats_direct_predicate():
    """One decision: under the auto policies the plan that runs is the
    router's plan — a multi-hop chain, a direct bridge, a direct
    generated kernel, a direct registered converter alike."""
    engine = ConversionEngine()
    pairs = [(HASH, CSR), (HASH, COO), (COO, DIA)]
    if scipy_available():
        pairs.append((COO, CSR))  # a registered converter wins the edge
    for src, dst in pairs:
        assert engine.plan(src, dst).hops == engine.route(src, dst).hops


@needs_cc
def test_measured_native_wins_plan_and_runs():
    """Once a pair's native kernel is measured and built the router may
    pick it, and plan() runs what the router picked (it used to
    re-resolve a generated backend); the native run is bit-identical to
    scalar."""
    from repro.convert.planner import structural_key

    engine = ConversionEngine()
    model = engine.cost_model
    pairs = [(HASH, CSR), (CSR, CSC)]
    for src, dst in pairs:
        for _ in range(model.min_observations):
            model.observe("native", 1_000_000, 0.002,
                          (structural_key(src), structural_key(dst)))
    engine.warmup(pairs)  # builds the kernels the router now prefers
    rng = random.Random(31)
    cells, vals = random_cells(rng, (40, 40), 300)
    for src, dst in pairs:
        plan = engine.plan(src, dst)
        assert plan.backend_per_hop == ("native",), (src, dst)
        assert not plan.routed
        tensor = reference_build(src, (40, 40), cells, vals)
        assert_identical(
            plan.run(tensor),
            engine.convert(tensor, dst, route="direct", backend="scalar"),
        )
