"""Tests for multi-hop routing: route search, cost model, bridges, and
bit-identity of every routed pair against the direct scalar conversion."""

import random
import time

import numpy as np
import pytest

from repro.convert import (
    ConversionEngine,
    ConversionRoute,
    CostModel,
    PlanOptions,
    find_route,
    make_converter,
    scipy_available,
)
from repro.convert.router import (
    DEFAULT_ROUTE_NNZ,
    Hop,
    bridge_for,
    check_route,
)
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
    FormatError,
    make_format,
)
from repro.levels.compressed import CompressedLevel
from repro.levels.dense import DenseLevel
from repro.levels.hashed import HashedLevel
from repro.storage.build import reference_build

# With scipy importable its registered converter wins the bulk COO->CSR /
# CSR->CSC edges; the no-scipy leg keeps the generated vector kernel.
EXT = "external" if scipy_available() else "vector"


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
    assert route.cost < route.direct_cost


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


def test_route_explain_transcript():
    text = find_route(HASH, CSR).explain()
    assert "route HASH -> CSR" in text
    assert "HASH -> COO -> CSR" in text
    assert "[bridge]" in text and f"[{EXT}" in text
    assert "direct scalar" in text
    direct_text = find_route(COO, CSR).explain()
    assert "direct conversion is the estimated optimum" in direct_text


def test_route_explain_names_a_vector_direct_hop():
    """A detour around a pair that lowers to vector code (the COO -> CSC
    -> CSR route cheap external hops can win) names the vector kind and
    does not claim the direct pair only lowers to scalar loops."""
    detour = ConversionRoute(
        hops=(Hop(COO, CSC, "external", 4.5e-4, converter="scipy-coo-csc"),
              Hop(CSC, CSR, "external", 4.5e-4, converter="scipy-csc-csr")),
        cost=9e-4,
        direct_cost=1.2e-3,
        nnz=100_000,
        options=PlanOptions(),
    )
    text = detour.explain()
    assert "chosen over the direct vector conversion (est 1.200 ms)" in text
    assert "scalar" not in text


def test_explicit_intermediates_restrict_the_graph():
    route = find_route(HASH, CSR, intermediates=[DIA])
    # no COO available: DIA cannot be reached by bridge, hops stay scalar,
    # so the direct conversion wins
    assert route.is_direct


def test_check_route_rejects_broken_chains():
    broken = ConversionRoute(
        hops=(Hop(HASH, COO, "bridge"), Hop(CSR, CSC, "vector")),
        cost=1.0,
        direct_cost=1.0,
        nnz=100,
        options=PlanOptions(),
    )
    with pytest.raises(FormatError):
        check_route(broken)


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
    routed = engine.convert_via(route, tensor)
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
    routed = engine.convert_via(route, tensor)
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
    route = engine.route(HASH, CSC)
    out = engine.convert(tensor, CSC, route=route)
    assert_identical(out, engine.convert(tensor, CSC, route="direct"))


def test_convert_via_and_route_call_count_like_convert():
    """convert_via is run_plan of the route's plan: it feeds the same
    counters as convert(..., route=route) (it used to bypass them)."""
    rng = random.Random(13)
    cells, vals = random_cells(rng, (16, 16), 60)
    tensor = reference_build(HASH, (16, 16), cells, vals)
    reference = ConversionEngine()
    route = reference.route(HASH, CSC)
    expected = reference.convert(tensor, CSC, route=route)
    for run in (
        lambda engine: engine.convert_via(route, tensor),
        lambda engine: route(tensor, engine),
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

    routed_time = best_of(lambda: engine.convert_via(route, tensor))
    direct_time = best_of(lambda: direct(tensor))
    assert routed_time * 2 < direct_time, (routed_time, direct_time)
    assert_identical(engine.convert_via(route, tensor), direct(tensor))


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
    out = engine.convert_via(retagged, tensor)
    assert out.format is twin


def test_convert_rejects_mismatched_explicit_route():
    engine = ConversionEngine()
    rng = random.Random(29)
    cells, vals = random_cells(rng, (12, 12), 40)
    tensor = reference_build(HASH, (12, 12), cells, vals)
    route = engine.route(HASH, CSR)
    with pytest.raises(ValueError):
        engine.convert(tensor, DIA, route=route)  # route ends at CSR
    # telemetry untouched by the failed call
    assert engine.cache_stats()["conversions"] == 0
    assert engine.pair_counts() == {}


def test_rebind_endpoints_validates_structure():
    from repro.convert import rebind_endpoints

    route = find_route(HASH, CSR)
    with pytest.raises(ValueError):
        rebind_endpoints(route, HASH, DIA)
    assert rebind_endpoints(route, HASH, CSR) is route  # no-op fast path


def test_beats_direct_predicate():
    assert find_route(HASH, CSR).beats_direct  # multi-hop
    assert find_route(HASH, COO).beats_direct  # direct bridge
    assert not find_route(COO, DIA).beats_direct  # direct generated kernel
    if scipy_available():
        # a registered converter winning the direct edge beats the
        # generated kernel even though the route stays single-hop
        assert find_route(COO, CSR).beats_direct
