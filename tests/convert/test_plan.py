"""First-class ConversionPlans: inspection, execution, JSON roundtrip and
the persistent kernel cache.

The core contract: ``plan.to_json()`` → a fresh engine →
``ConversionPlan.from_json(...).run(t)`` is bit-identical to a direct
``convert(t, ...)`` for every vectorizable pair and every HASH pair.
The persistent cache holds native kernels only, so the warm-start half
of the contract (``compiles == 0`` with ``disk_hits > 0`` on a second
engine over the same ``cache_dir``) is asserted for a native plan.
"""

import json
import random

import pytest

from repro.convert import (
    ConversionEngine,
    ConversionPlan,
    PlanOptions,
    convert,
    scipy_available,
)
from repro.convert.context import PlanError
from repro.convert.plan import CompiledPlan, key_to_json
from repro.convert.planner import structural_key
from repro.convert.router import Hop
from repro.formats import BCSR, COO, CSC, CSR, DCSR, DIA, ELL, HASH, make_format
from repro.ir.native import detect_toolchain
from repro.levels.compressed import CompressedLevel
from repro.levels.dense import DenseLevel
from repro.storage.build import reference_build

from .test_backends import VECTOR_FORMATS, assert_tensors_bit_identical

EXTENDED = [BCSR(2, 2), DCSR]
HASH_TARGETS = [CSR, CSC, DIA, ELL, COO]

# With scipy importable its registered converter wins the bulk COO->CSR
# edge; the no-scipy leg keeps the generated vector kernel.
EXT = "external" if scipy_available() else "vector"


def _problem(src, seed=5, dims=(9, 11), count=40):
    rng = random.Random(seed)
    cells = sorted({
        (rng.randrange(dims[0]), rng.randrange(dims[1])) for _ in range(count)
    })
    vals = [round(rng.uniform(0.5, 9.5), 4) for _ in cells]
    return reference_build(src, dims, cells, vals)


def _roundtrip(src, dst, tmp_path, **knobs):
    """The acceptance roundtrip for one pair; returns the warm stats."""
    cache = str(tmp_path / "kernels")
    tensor = _problem(src)

    cold = ConversionEngine(cache_dir=cache)
    plan = cold.plan(src, dst, nnz=tensor.nnz_stored, **knobs)
    out_cold = plan.run(tensor)  # compiles (native: + writes the records)
    text = plan.to_json()

    warm = ConversionEngine(cache_dir=cache)
    replay = ConversionPlan.from_json(text, engine=warm)
    out_warm = replay.run(tensor)

    direct = convert(tensor, dst)
    assert_tensors_bit_identical(out_cold, direct)
    assert_tensors_bit_identical(out_warm, direct)
    return plan, warm.cache_stats()


@pytest.mark.parametrize("src", VECTOR_FORMATS + EXTENDED, ids=lambda f: f.name)
@pytest.mark.parametrize("dst", VECTOR_FORMATS + EXTENDED, ids=lambda f: f.name)
def test_plan_roundtrip_every_vectorizable_pair(src, dst, tmp_path):
    if src is dst:
        pytest.skip("identity pair")
    _roundtrip(src, dst, tmp_path)


@pytest.mark.parametrize("dst", HASH_TARGETS, ids=lambda f: f.name)
def test_plan_roundtrip_every_routed_pair(dst, tmp_path):
    """The router's HASH plans are one generated hop and replay too."""
    plan, _ = _roundtrip(HASH, dst, tmp_path)
    assert plan.is_direct and plan.backend_per_hop == ("vector",)


@pytest.mark.skipif(detect_toolchain() is None, reason="no C toolchain")
def test_native_plan_roundtrip_warm_start(tmp_path):
    """A replayed native plan on a warm cache_dir binds the stored .so:
    no planning, no compiler."""
    plan, stats = _roundtrip(COO, CSR, tmp_path, backend="native")
    assert plan.backend_per_hop == ("native",)
    assert stats["compiles"] == 0
    assert stats["disk_hits"] > 0


# ----------------------------------------------------------------------
# plan structure and inspection


def _two_hop_plan(engine):
    """A multi-hop plan: the router plans one hop, a document may chain
    several, and the executor runs any chain."""
    return ConversionPlan(
        hops=(Hop(HASH, COO, "vector"), Hop(COO, CSR, "vector")),
        options=PlanOptions(), nnz=1_000, engine=engine,
    )


def test_plan_exposes_hops_and_backends():
    engine = ConversionEngine()
    plan = engine.plan(HASH, CSR)
    assert plan.src is HASH and plan.dst is CSR
    assert [f.name for f in plan.formats] == ["HASH", "CSR"]
    assert plan.backend_per_hop == ("vector",)
    assert plan.is_direct and not plan.routed
    assert str(plan) == "HASH -> CSR"
    chain = _two_hop_plan(engine)
    assert [f.name for f in chain.formats] == ["HASH", "COO", "CSR"]
    assert chain.backend_per_hop == ("vector", "vector")
    assert not chain.is_direct and chain.routed
    assert str(chain) == "HASH -> COO -> CSR"


def test_plan_estimated_cost_scales_with_nnz():
    engine = ConversionEngine()
    plan = engine.plan(COO, CSR)
    assert plan.estimated_cost(10_000) < plan.estimated_cost(10_000_000)


def test_plan_sources_per_hop():
    engine = ConversionEngine()
    sources = _two_hop_plan(engine).sources()
    assert "def convert_HASH_to_COO" in sources[0]
    assert "def convert_COO_to_CSR" in sources[1]
    plan = engine.plan(COO, CSR)
    if plan.hops[0].kind == "external":
        # registered converter: no generated code
        assert plan.sources() == [None]
    # a pinned generated backend always has a source
    direct = engine.plan(COO, CSR, backend="vector")
    assert "def convert_COO_to_CSR" in direct.sources()[0]


def test_plan_explain_mentions_every_hop_and_rung():
    engine = ConversionEngine()
    text = _two_hop_plan(engine).explain()
    assert "plan HASH -> CSR: HASH -> COO -> CSR (2 hops," in text
    assert "1. HASH -> COO [vector]" in text
    assert "2. COO -> CSR [vector]" in text
    assert "ladder rung" not in text  # a hand-built plan had no router
    routed = engine.plan(COO, CSR).explain()
    hop = ("registered converter" if EXT == "external" else "bulk-numpy")
    assert hop in routed
    assert ("ladder rung 1:" if EXT == "external" else "ladder rung 3:") in routed


def test_plan_compile_returns_ready_runner():
    engine = ConversionEngine()
    runner = engine.plan(COO, CSR).compile()
    assert isinstance(runner, CompiledPlan)
    compiles = engine.cache_stats()["compiles"]
    tensor = _problem(COO)
    out = runner(tensor)
    assert out.format is CSR
    assert engine.cache_stats()["compiles"] == compiles  # nothing left to do
    assert runner.src_format is COO and runner.dst_format is CSR


def test_plan_run_rejects_wrong_source_format():
    engine = ConversionEngine()
    plan = engine.plan(COO, CSR)
    with pytest.raises(ValueError):
        plan.run(_problem(CSR))


def test_plan_counts_as_conversion_in_engine_stats():
    engine = ConversionEngine()
    engine.plan(COO, CSR).run(_problem(COO))
    stats = engine.cache_stats()
    assert stats["conversions"] == 1
    assert stats["routed_conversions"] == 0
    assert engine.pair_counts() == {("COO", "CSR"): 1}


def test_plan_options_roundtrip():
    options = PlanOptions(force_unsequenced_edges=True)
    engine = ConversionEngine()
    plan = engine.plan(COO, CSR, options=options, backend="scalar")
    replay = ConversionPlan.from_json(plan.to_json())
    assert replay.options == options
    assert replay.backend_per_hop == ("scalar",)


# ----------------------------------------------------------------------
# serialization schema


def test_plan_json_schema_fields():
    data = json.loads(ConversionEngine().plan(HASH, CSR).to_json())
    assert data["schema"] == 2
    assert data["kind"] == "repro-conversion-plan"
    assert [hop["kind"] for hop in data["hops"]] == ["vector"]
    assert data["routed"] is False
    external = json.loads(ConversionEngine().plan(COO, CSR).to_json())
    assert [hop["kind"] for hop in external["hops"]] == [EXT]
    if EXT == "external":
        assert external["hops"][0]["converter"] == "scipy-coo-csr"
    first = data["hops"][0]["src"]
    assert first["name"] == "HASH"
    assert first["structural_key"] == key_to_json(structural_key(HASH))


def test_plan_from_json_rejects_newer_schema():
    data = json.loads(ConversionEngine().plan(COO, CSR).to_json())
    data["schema"] = 999
    with pytest.raises(PlanError):
        ConversionPlan.from_dict(data)


def test_plan_from_json_rejects_unknown_format():
    data = json.loads(ConversionEngine().plan(COO, CSR).to_json())
    data["hops"][0]["src"]["name"] = "NO_SUCH_FORMAT"
    with pytest.raises(PlanError):
        ConversionPlan.from_dict(data)


def test_plan_from_json_rejects_diverged_structure():
    data = json.loads(ConversionEngine().plan(COO, CSR).to_json())
    # same name on this host, different recorded structure
    data["hops"][0]["src"]["structural_key"] = ["something", "else", [], []]
    with pytest.raises(PlanError):
        ConversionPlan.from_dict(data)


def test_plan_from_json_rejects_broken_chain_and_bad_kind():
    engine = ConversionEngine()
    data = json.loads(_two_hop_plan(engine).to_json())
    bad_kind = json.loads(json.dumps(data))
    bad_kind["hops"][0]["kind"] = "teleport"
    with pytest.raises(PlanError):
        ConversionPlan.from_dict(bad_kind)
    broken = json.loads(json.dumps(data))
    broken["hops"][1]["src"] = broken["hops"][0]["src"]  # HASH != COO
    with pytest.raises(PlanError):
        ConversionPlan.from_dict(broken)
    with pytest.raises(PlanError):
        ConversionPlan.from_json("this is not json {")
    with pytest.raises(PlanError):
        ConversionPlan.from_json("{\"not\": \"a plan\"}")


def test_plan_replays_for_renamed_structural_twin():
    """A plan made for a registered twin resolves by *name*; structural
    verification accepts it because the structure matches."""
    twin = make_format(
        "PLANTWIN_CSR",
        "(i,j) -> (i, j)",
        [DenseLevel(), CompressedLevel()],
        inverse_text="(i,j) -> (i, j)",
    )
    from repro.formats import register_format

    register_format(twin)
    engine = ConversionEngine()
    plan = engine.plan(COO, twin)
    replay = ConversionPlan.from_json(plan.to_json(), engine=engine)
    assert replay.dst.name == "PLANTWIN_CSR"
    out = replay.run(_problem(COO))
    assert out.format is twin


# ----------------------------------------------------------------------
# module-level shim


def test_module_level_plan_shim():
    from repro.convert import plan as plan_fn

    p = plan_fn("HASH", "CSR")
    assert isinstance(p, ConversionPlan)
    assert p.backend_per_hop in (("vector",), ("native",))


def test_convert_is_a_plan_shim():
    """convert() builds and runs a plan: same result, same counters."""
    engine = ConversionEngine()
    tensor = _problem(COO)
    out = engine.convert(tensor, CSR)
    plan_out = engine.plan(COO, CSR, nnz=tensor.nnz_stored).run(tensor)
    assert_tensors_bit_identical(out, plan_out)
    assert engine.cache_stats()["conversions"] == 2


def test_plan_from_dict_malformed_records_raise_planerror():
    """Hand-edited or truncated plan files must fail with PlanError (the
    CLI catches it), never a raw AttributeError/ValueError."""
    engine = ConversionEngine()
    base = json.loads(engine.plan(COO, CSR).to_json())
    for mutate in (
        lambda d: d.update(hops="not a list"),
        lambda d: d.update(hops=["not a record"]),
        lambda d: d["hops"][0].update(src="not a format record"),
        lambda d: d["hops"][0].pop("src"),
        lambda d: d.update(workers="lots"),
        lambda d: d.update(workers=-2),
        lambda d: d.update(nnz=-1),
        lambda d: d.update(nnz=[1, 2]),
        lambda d: d.update(options="not options"),
    ):
        data = json.loads(json.dumps(base))
        mutate(data)
        with pytest.raises(PlanError):
            ConversionPlan.from_dict(data)


#: A COO->CSR plan as written before the chunked executor was deleted:
#: a ``chunked`` hop, a chunk-pool size and the execution-only threshold.
_CHUNKED_PLAN_JSON = (
    '{"hops": [{"dst": {"name": "CSR", "structural_key": ["(i, j) -> (i, j)", '
    '"(i, j) -> (i, j)", ["dense", "compressed{\\u00acordered}"], []]}, '
    '"kind": "chunked", "src": {"name": "COO", "structural_key": '
    '["(i, j) -> (i, j)", "(i, j) -> (i, j)", '
    '["compressed{\\u00acunique,\\u00acordered}", "singleton{\\u00acordered}"], '
    '[]]}}], "kind": "repro-conversion-plan", "nnz": 200, "options": '
    '{"disable_width_count": false, "force_counter_arrays": false, '
    '"force_unsequenced_edges": false, "parallel_threshold": 1048576, '
    '"skip_src_zeros": null}, "routed": false, "schema": 2, "workers": 2}'
)


def test_chunked_plan_degrades_gracefully_without_chunked_form():
    """A replayed plan carrying a 'chunked' hop runs the serial vector
    kernel it rewrote — consistently across sources()/compile()/run(),
    and bit-identical to scalar."""
    from repro.convert.router import HOP_KIND_DETAIL

    assert "chunked" not in HOP_KIND_DETAIL
    engine = ConversionEngine()
    plan = ConversionPlan.from_json(_CHUNKED_PLAN_JSON, engine=engine)
    assert plan.backend_per_hop == ("vector",)
    assert plan.options == PlanOptions()
    assert "workers" not in plan.to_dict()
    assert "parallel_threshold" not in plan.to_dict()["options"]
    (source,) = plan.sources()
    assert "def convert_COO_to_CSR" in source
    tensor = _problem(COO)
    out = plan.compile()(tensor)
    assert out.format is CSR
    assert_tensors_bit_identical(
        out, engine.convert(tensor, CSR, backend="scalar")
    )


#: A HASH->DIA plan as written before the bridge hop kind was deleted: a
#: ``bridge`` extraction to COO, then a vector COO->DIA hop.
_BRIDGE_PLAN_JSON = (
    '{"hops": [{"dst": {"name": "COO", "structural_key": ["(i, j) -> (i, j)", '
    '"(i, j) -> (i, j)", ["compressed{\\u00acunique,\\u00acordered}", '
    '"singleton{\\u00acordered}"], []]}, "kind": "bridge", "src": {"name": '
    '"HASH", "structural_key": ["(i, j) -> (i, j)", "(i, j) -> (i, j)", '
    '["dense", "hashed"], []]}}, {"dst": {"name": "DIA", "structural_key": '
    '["(i, j) -> ((j - i), i, j)", "(k, i, j) -> (i, (k + i))", ["squeezed", '
    '"dense", "offset(1+0)"], []]}, "kind": "vector", "src": {"name": "COO", '
    '"structural_key": ["(i, j) -> (i, j)", "(i, j) -> (i, j)", '
    '["compressed{\\u00acunique,\\u00acordered}", '
    '"singleton{\\u00acordered}"], []]}}], "kind": "repro-conversion-plan", '
    '"nnz": 5000, "options": {"disable_width_count": false, '
    '"force_counter_arrays": false, "force_unsequenced_edges": false, '
    '"skip_src_zeros": null}, "routed": true, "schema": 2}'
)


def test_bridge_plan_loads_as_a_vector_hop_and_runs():
    """A replayed plan carrying a 'bridge' hop runs the HASH->COO vector
    kernel in its place, then its other hops: bit-identical to scalar."""
    from repro.convert.router import HOP_KIND_DETAIL

    assert "bridge" not in HOP_KIND_DETAIL
    engine = ConversionEngine()
    plan = ConversionPlan.from_json(_BRIDGE_PLAN_JSON, engine=engine)
    assert plan.backend_per_hop == ("vector", "vector")
    assert [f.name for f in plan.formats] == ["HASH", "COO", "DIA"]
    assert plan.routed
    assert "def convert_HASH_to_COO" in plan.sources()[0]
    tensor = _problem(HASH)
    out = plan.compile()(tensor)
    assert out.format is DIA
    assert engine.cache_stats()["routed_conversions"] == 1
    assert_tensors_bit_identical(
        out, engine.convert(tensor, DIA, backend="scalar")
    )
