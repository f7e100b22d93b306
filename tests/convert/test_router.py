"""Tests for routing: every plan is one edge, whose implementation a fixed
ladder picks, and every HASH pair's plan is bit-identical to the direct
scalar conversion."""

import random
import time

import numpy as np
import pytest

import repro.__main__ as cli
from repro.convert import (
    ConversionEngine,
    PlanOptions,
    converters_for,
    find_route,
    make_converter,
    resolve_backend,
    scipy_available,
)
from repro.convert.native import native_capable
from repro.convert.router import BULK_NNZ
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


def test_hash_to_csr_is_one_vector_hop():
    route = find_route(HASH, CSR)
    assert route.is_direct and not route.routed
    assert [fmt.name for fmt in route.formats] == ["HASH", "CSR"]
    assert route.backend_per_hop == ("vector",)


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


def test_hash_to_coo_is_a_direct_vector_hop():
    route = find_route(HASH, COO)
    assert route.is_direct
    assert route.backend_per_hop == ("vector",)


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
    """The plan's transcript and the competitor table of its one edge."""
    text = _route_explain(monkeypatch, capsys, "HASH", "CSR")
    assert "plan HASH -> CSR: HASH -> CSR (1 hop," in text
    assert "HASH -> CSR [vector] generated bulk-numpy routine" in text
    table = text.split("competitors for HASH -> CSR:\n")[1]
    assert "  generated-vector [vector] weight 1 (rung 3)" in table
    assert "scalar" not in text and "bridge" not in text
    direct_text = _route_explain(monkeypatch, capsys, "COO", "CSR")
    assert "(1 hop," in direct_text
    assert direct_text.count("competitors for COO -> CSR:") == 1
    assert "direct edge" not in direct_text


def test_route_explain_names_a_vector_direct_hop(monkeypatch, capsys):
    """A pair that lowers to vector code shows its vector kernel among
    the edge's competitors and never claims a scalar loop."""
    text = _route_explain(monkeypatch, capsys, "COO", "DIA")
    table = text.split("competitors for COO -> DIA:\n")[1]
    assert "generated-vector [vector] weight 1 (rung 3)" in table
    assert "scalar" not in text


# ----------------------------------------------------------------------
# the ladder


def _same_order_pairs():
    from repro.formats import available_formats

    formats = list(available_formats().values())
    return [(src, dst) for src in formats for dst in formats
            if src is not dst and src.order == dst.order]


def test_every_pair_follows_the_ladder():
    """Every registered same-order pair, at a small and a bulk size,
    with and without a toolchain, with its native kernel built or not:
    (1) at bulk sizes the lowest-weight admitted converter, (2) else a
    built native kernel, (3) else the generated kernel; an unbuilt
    native kernel is queued exactly at bulk sizes, with a toolchain, for
    a capable pair no converter takes."""
    pairs = _same_order_pairs()
    assert len(pairs) > 50
    rungs = set()
    for src, dst in pairs:
        convs = sorted(converters_for(src, dst),
                       key=lambda conv: (conv.weight, conv.name))
        generated = resolve_backend(src, dst, PlanOptions(), "auto")
        capable = native_capable(src, dst)
        for nnz in (236, 1_000_000):
            for native_ok in (False, True):
                for built in (False, True):
                    plan = find_route(
                        src, dst, nnz=nnz, native_ok=native_ok,
                        native_ready=lambda s, d, b=built: b,
                    )
                    bulk = nnz >= BULK_NNZ
                    if bulk and convs:
                        want, rung = ("external", convs[0].name), 1
                    elif native_ok and built:
                        want, rung = ("native", None), 2
                    else:
                        want, rung = (generated, None), 3
                    hop = plan.hops[0]
                    case = (src.name, dst.name, nnz, native_ok, built)
                    assert plan.is_direct, case
                    assert (hop.kind, hop.converter) == want, case
                    assert plan._rung.startswith(f"ladder rung {rung}:"), case
                    queued = (native_ok and not built and bulk and capable
                              and not convs)
                    assert [h.kind for h in plan._pending] == (
                        ["native"] if queued else []), case
                    rungs.add(rung)
    assert rungs == ({1, 2, 3} if scipy_available() else {2, 3})


def test_bulk_conversions_leave_the_plan_unchanged():
    """A ladder has nothing to learn: 20 bulk COO->CSR / COO->DIA
    conversions on one engine (native kernels built first where a
    compiler exists) leave engine.plan(...) exactly as it was."""
    rng = random.Random(41)
    cells, vals = random_cells(rng, (160, 160), BULK_NNZ + 904)
    coo = reference_build(COO, (160, 160), cells, vals)
    assert coo.nnz_stored >= BULK_NNZ
    engine = ConversionEngine()
    try:
        engine.warmup([(COO, CSR), (COO, DIA)])

        def plans():
            return [engine.plan(COO, dst, nnz=coo.nnz_stored,
                                features=engine.features_for(coo))
                    for dst in (CSR, DIA)]

        before = plans()
        for n in range(20):
            engine.convert(coo, (CSR, DIA)[n % 2])
            assert plans() == before, n
        assert engine._builds_idle.is_set()
    finally:
        engine.shutdown()


# ----------------------------------------------------------------------
# bit-identity: every HASH pair's plan equals the direct scalar conversion


HASH_TARGETS = [CSR, CSC, DIA, ELL, DCSR, BCSR(4, 4), HICOO(4), COO, SKY]


@pytest.mark.parametrize("dst", HASH_TARGETS, ids=lambda fmt: fmt.name)
def test_routed_hash_pairs_bit_identical_to_direct_scalar(dst):
    """The router's HASH plan is one vector hop (no extraction bridge);
    it, and the native kernel where a compiler exists, match scalar."""
    rng = random.Random(7)
    dims = (32, 32)
    cells, vals = random_cells(rng, dims, 220, lower_triangular=dst is SKY)
    tensor = reference_build(HASH, dims, cells, vals)
    engine = ConversionEngine()
    route = engine.route(HASH, dst)
    assert route.backend_per_hop == ("vector",)
    direct = make_converter(HASH, dst, backend="scalar")(tensor)
    assert_identical(route.run(tensor), direct)
    if detect_toolchain() is not None:
        native = engine.plan(HASH, dst, backend="native")
        assert native.backend_per_hop == ("native",)
        assert_identical(native.run(tensor), direct)


def test_every_builtin_pair_routes_and_roundtrips():
    """Route search succeeds for every ordered same-order builtin pair,
    and every plan is the direct edge."""
    formats = [COO, CSR, CSC, DIA, ELL, SKY, DCSR, HASH, BCSR(4, 4), HICOO(4)]
    for src in formats:
        for dst in formats:
            if src is dst:
                continue
            route = find_route(src, dst)
            assert route.is_direct
            assert route.hops[0].src is src and route.hops[0].dst is dst


def test_structural_hash_twins_share_one_kernel():
    twin = make_format(
        "HASHTWIN_ROUTER",
        "(i,j) -> (i, j)",
        [DenseLevel(), HashedLevel()],
        inverse_text="(i,j) -> (i, j)",
    )
    engine = ConversionEngine()
    route = engine.route(twin, CSR)
    assert route.src is twin and route.backend_per_hop == ("vector",)
    engine.route(HASH, CSR).compile()
    compiles = engine.cache_stats()["compiles"]
    rng = random.Random(3)
    cells, vals = random_cells(rng, (24, 24), 150)
    tensor = reference_build(HASH, (24, 24), cells, vals)
    tensor.format = twin  # same structure, different name
    out = route.run(tensor)
    assert engine.cache_stats()["compiles"] == compiles  # kernel shared
    direct = engine.make_converter(twin, CSR, backend="scalar")(tensor)
    assert_identical(out, direct)


# ----------------------------------------------------------------------
# engine integration


def test_engine_convert_auto_routes_large_hash_tensors():
    rng = random.Random(11)
    dims = (64, 64)
    cells, vals = random_cells(rng, dims, 900)
    tensor = reference_build(HASH, dims, cells, vals)
    engine = ConversionEngine()
    auto = engine.convert(tensor, CSR)  # the router's one-hop plan
    assert engine.cache_stats()["routed_conversions"] == 0
    direct = engine.convert(tensor, CSR, route="direct")
    assert engine.cache_stats()["conversions"] == 2
    assert_identical(auto, direct)


def test_engine_convert_explicit_route_object():
    rng = random.Random(13)
    cells, vals = random_cells(rng, (16, 16), 60)
    tensor = reference_build(HASH, (16, 16), cells, vals)
    engine = ConversionEngine()
    route = engine.route(HASH, CSC)  # the router's plan, bound to engine
    assert route.is_direct and route.engine is engine
    out = route.run(tensor)
    stats = engine.cache_stats()
    assert (stats["conversions"], stats["routed_conversions"]) == (1, 0)
    assert_identical(out, engine.convert(tensor, CSC, route="direct"))
    assert engine.cache_stats()["routed_conversions"] == 0


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
        assert (stats["conversions"], stats["routed_conversions"]) == (1, 0)
        assert engine.pair_counts() == reference.pair_counts() == {
            ("HASH", "CSC"): 1
        }


def test_route_caching_by_structural_pair():
    engine = ConversionEngine()
    assert engine.route(HASH, CSR) is engine.route(HASH, CSR)
    assert engine.route(HASH, CSR, nnz=10) is not engine.route(HASH, CSR)


def test_routed_conversion_is_faster_at_bulk_sizes():
    """The acceptance bar: at 100k+ nnz the router's HASH->CSR plan beats
    the direct scalar loop (by an order of magnitude in practice;
    asserted at 2x to stay robust on noisy CI runners)."""
    rng = random.Random(17)
    n, count = 1200, 100_000
    cells, vals = random_cells(rng, (n, n), count)
    tensor = reference_build(HASH, (n, n), cells, vals)
    engine = ConversionEngine()
    route = engine.route(HASH, CSR, nnz=tensor.nnz_stored)
    assert route.backend_per_hop == ("vector",)  # native is not built yet
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
    engine.shutdown()  # a queued native build must not outlive the test


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
    router's plan — a generated kernel or a registered converter
    alike."""
    engine = ConversionEngine()
    pairs = [(HASH, CSR), (HASH, COO), (COO, DIA)]
    if scipy_available():
        pairs.append((COO, CSR))  # a registered converter wins the edge
    for src, dst in pairs:
        assert engine.plan(src, dst).hops == engine.route(src, dst).hops


@needs_cc
def test_built_native_wins_plan_and_runs():
    """Once a pair's native kernel is built the ladder's second rung
    takes the edge wherever no registered converter does (at every size),
    and plan() runs what the router picked; the native run is
    bit-identical to scalar."""
    engine = ConversionEngine()
    pairs = [(HASH, CSR), (COO, DIA)]
    engine.warmup(pairs)  # builds the native kernels
    rng = random.Random(31)
    cells, vals = random_cells(rng, (40, 40), 300)
    for src, dst in pairs:
        assert engine.plan(src, dst, nnz=300).backend_per_hop == ("native",)
        plan = engine.plan(src, dst)
        assert plan.backend_per_hop == ("native",), (src, dst)
        assert not plan.routed
        tensor = reference_build(src, (40, 40), cells, vals)
        assert_identical(
            plan.run(tensor),
            engine.convert(tensor, dst, route="direct", backend="scalar"),
        )
