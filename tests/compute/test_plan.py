"""ComputePlan: structure, serialization (schema 3) and the fuse gate."""

import json

import pytest

from repro.compute import COMPUTE_PLAN_SCHEMA, ComputePlan
from repro.convert import ConversionEngine
from repro.convert.context import PlanError
from repro.convert.plan import ConversionPlan
from repro.formats.library import COO, CSR


@pytest.fixture()
def engine():
    eng = ConversionEngine()
    yield eng
    eng.shutdown()


def test_plan_shape_and_terminal(engine):
    plan = engine.plan_compute(COO, "spmv", CSR, fuse=True)
    assert plan.src.name == "COO"
    assert plan.dst.name == "CSR"
    assert plan.fused
    assert plan.terminal.kind == "fused"
    assert all(h.kind not in ("fused", "compute")
               for h in plan.conversion_hops)

    mat = engine.plan_compute(COO, "spmv", CSR, fuse=False)
    assert not mat.fused
    assert mat.terminal.kind == "compute"
    # materializing keeps every conversion hop and appends the compute
    assert len(mat.hops) == len(mat.conversion_hops) + 1


def test_fused_explain_names_the_skipped_format(engine):
    plan = engine.plan_compute(COO, "spmv", CSR, fuse=True)
    text = plan.explain(engine.cost_model)
    assert "fused" in text
    assert "never materialized" in text
    assert "estimated" in text
    assert plan.estimated_cost(engine.cost_model) > 0.0


def test_sources_terminal_label_and_no_destination_arrays(engine):
    plan = engine.plan_compute(COO, "spmv", CSR, fuse=True)
    sources = plan.sources()
    terminal_label = f"{len(plan.hops) - 1}:spmv({plan.terminal.src.name})"
    assert terminal_label in sources
    for label, source in sources.items():
        if label == terminal_label:
            assert "B2_pos" not in source
            assert "B_vals" not in source


def test_json_round_trip(engine):
    plan = engine.plan_compute(COO, "spmv", CSR, fuse=True, nnz=12345)
    blob = plan.to_json()
    doc = json.loads(blob)
    assert doc["schema"] == COMPUTE_PLAN_SCHEMA == 3
    assert doc["kind"] == "repro-compute-plan"
    assert doc["op"] == "spmv"
    again = ComputePlan.from_json(blob, engine=engine)
    assert again.fused
    assert again.op.name == "spmv"
    assert again.nnz == 12345
    assert [h.kind for h in again.hops] == [h.kind for h in plan.hops]
    assert again.to_json() == blob


def test_conversion_reader_rejects_schema_3_loudly(engine):
    """An old (schema <= 2) reader must refuse a compute plan instead of
    silently replaying the conversion hops without the op."""
    blob = engine.plan_compute(COO, "spmv", CSR, fuse=True).to_json()
    with pytest.raises(PlanError, match="schema 3"):
        ConversionPlan.from_json(blob)


def test_compute_reader_rejects_conversion_plans(engine):
    blob = engine.plan(COO, CSR).to_json()
    with pytest.raises(PlanError, match="conversion plan"):
        ComputePlan.from_json(blob, engine=engine)


def test_compute_reader_rejects_newer_schema(engine):
    doc = engine.plan_compute(COO, "spmv", CSR).to_dict()
    doc["schema"] = COMPUTE_PLAN_SCHEMA + 1
    with pytest.raises(PlanError, match="newer than this reader"):
        ComputePlan.from_dict(doc, engine=engine)


def test_compute_reader_rejects_unregistered_pinned_converter(engine):
    """One codec: an ``external`` hop pinning a converter this host does
    not have fails at load, as it does for a conversion plan — not later
    at run time."""
    doc = engine.plan_compute(COO, "spmv", CSR, fuse=False).to_dict()
    doc["hops"][0]["kind"] = "external"
    doc["hops"][0]["converter"] = "no-such-converter"
    with pytest.raises(PlanError, match="not registered"):
        ComputePlan.from_dict(doc, engine=engine)
    del doc["hops"][0]["converter"]
    with pytest.raises(PlanError, match="does not name its converter"):
        ComputePlan.from_dict(doc, engine=engine)


def test_compute_reader_wraps_malformed_fields(engine):
    doc = engine.plan_compute(COO, "spmv", CSR).to_dict()
    doc["workers"] = "many"
    with pytest.raises(PlanError, match="malformed plan fields"):
        ComputePlan.from_dict(doc, engine=engine)


def test_terminal_kind_is_validated(engine):
    mat = engine.plan_compute(COO, "spmv", CSR, fuse=False)
    assert mat.conversion_hops  # COO -> CSR materializes at least one hop
    with pytest.raises(PlanError, match="must end in a compute hop"):
        ComputePlan(
            op=mat.op, hops=mat.conversion_hops, backend=mat.backend,
            options=mat.options,
        )
    with pytest.raises(PlanError, match="no hops"):
        ComputePlan(
            op=mat.op, hops=(), backend=mat.backend, options=mat.options,
        )
    with pytest.raises(PlanError, match="only terminate"):
        ComputePlan(
            op=mat.op, hops=(mat.terminal, mat.terminal),
            backend=mat.backend, options=mat.options,
        )


def test_scale_without_destination_is_a_plan_error(engine):
    with pytest.raises(PlanError, match="materializes a destination"):
        engine.plan_compute(COO, "scale")


def test_forced_fusion_unavailable_is_loud(engine):
    """When the op cannot consume the route's pivot directly (here: a
    COO twin with its inverse mapping stripped), fuse='fused' must
    refuse instead of silently materializing."""
    import dataclasses

    from repro.compute import fusable
    from repro.formats.registry import register_format

    twin = dataclasses.replace(COO, name="COO_NOINV_PLANTEST", inverse=None)
    register_format(twin)
    assert not fusable(twin, "spmv", CSR)
    with pytest.raises(PlanError, match="cannot consume"):
        engine.plan_compute(twin, "spmv", CSR, fuse="fused")
    # auto quietly falls back to materializing for the same pipeline
    assert engine.plan_compute(twin, "spmv", CSR, fuse="auto").fuse == \
        "materialize"


def test_auto_never_fuses_on_seed_rates(engine):
    """A fresh cost model has only seeded rates; fuse='auto' must pick
    materialize no matter how attractive the seeds look."""
    assert engine.cost_model.observation_count("fused") == 0
    plan = engine.plan_compute(COO, "spmv", CSR, fuse="auto", nnz=1_000_000)
    assert plan.fuse == "materialize"
    assert not plan.fused


def test_auto_fuses_only_after_measured_win(engine):
    model = engine.cost_model
    # measured fused timings that clearly beat materialize-then-compute
    for _ in range(model.min_observations):
        model.observe("fused", 1_000_000, 1, 1e-4)
        model.observe("compute", 1_000_000, 1, 1e-2)
    plan = engine.plan_compute(COO, "spmv", CSR, fuse="auto", nnz=1_000_000)
    assert plan.fuse == "fused"


def test_auto_declines_fusion_when_measured_slower(engine):
    model = engine.cost_model
    for _ in range(model.min_observations):
        model.observe("fused", 1_000_000, 1, 10.0)   # fused measured awful
        model.observe("compute", 1_000_000, 1, 1e-6)
    plan = engine.plan_compute(COO, "spmv", CSR, fuse="auto", nnz=1_000_000)
    assert plan.fuse == "materialize"


def test_bad_fuse_value_rejected(engine):
    with pytest.raises(ValueError, match="fuse must be"):
        engine.plan_compute(COO, "spmv", CSR, fuse="maybe")
