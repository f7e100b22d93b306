"""Compute plans: structure, serialization (schema 3) and the fuse gate."""

import json

import pytest

from repro.compute import COMPUTE_PLAN_SCHEMA, ComputePlan
from repro.convert import ConversionEngine
from repro.convert.context import PlanError
from repro.convert.plan import ConversionPlan
from repro.convert.planner import structural_key
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
    text = plan.explain()
    assert "fused" in text
    assert "never materialized" in text
    assert "est " in text
    assert plan.estimated_cost() > 0.0


def test_sources_terminal_label_and_no_destination_arrays(engine):
    plan = engine.plan_compute(COO, "spmv", CSR, fuse=True)
    sources = plan.sources()
    assert len(sources) == len(plan.hops)
    terminal = sources[-1]
    assert "spmv" in terminal
    assert "B2_pos" not in terminal
    assert "B_vals" not in terminal


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


def test_one_reader_loads_both_plan_families(engine):
    """A compute plan is a ConversionPlan with a terminal op: one reader
    loads both families, a compute plan comes back with its op, and
    stripping the op from a compute document fails loudly instead of
    replaying its hops without it."""
    assert ComputePlan is ConversionPlan
    conversion = engine.plan(COO, CSR)
    again = ConversionPlan.from_json(conversion.to_json(), engine=engine)
    assert again.op is None and again.terminal is None
    assert again.conversion_hops is again.hops
    assert json.loads(again.to_json())["schema"] == 2
    for fuse in (True, False):
        plan = engine.plan_compute(COO, "spmv", CSR, fuse=fuse)
        again = ConversionPlan.from_json(plan.to_json(), engine=engine)
        assert again.op is plan.op and again.op.name == "spmv"
        assert again.backend_per_hop == plan.backend_per_hop
        assert again.backend == plan.backend and again.fuse == plan.fuse
        doc = plan.to_dict()
        del doc["op"]
        with pytest.raises(PlanError, match="names none"):
            ConversionPlan.from_dict(doc, engine=engine)


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


@pytest.mark.parametrize("field, value, match", [
    ("workers", -1, "malformed plan fields"),
    ("nnz", -5, "malformed plan fields"),
    ("op", ["spmv"], "malformed plan op"),
    ("op", "transpose", "unknown"),
    ("backend", "gpu", "malformed plan backend"),
])
def test_compute_reader_rejects_bad_field_values(engine, field, value, match):
    doc = engine.plan_compute(COO, "spmv", CSR).to_dict()
    doc[field] = value
    with pytest.raises(PlanError, match=match):
        ComputePlan.from_dict(doc, engine=engine)


def test_fuse_field_is_derived_not_trusted(engine):
    """A contradicting ``fuse`` field cannot disagree with the plan: the
    decision is read off the terminal hop."""
    doc = engine.plan_compute(COO, "spmv", CSR, fuse=False).to_dict()
    doc["fuse"] = "fused"
    again = ComputePlan.from_dict(doc, engine=engine)
    assert again.fuse == "materialize" and not again.fused
    assert "never materialized" not in again.explain()


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


def test_pinned_backend_pins_the_conversion_hops(engine):
    plan = engine.plan_compute(COO, "spmv", CSR, fuse=False, backend="scalar")
    assert plan.backend == "scalar"
    assert plan.conversion_hops == engine.plan(COO, CSR, backend="scalar").hops


def test_unknown_backend_is_a_plan_error_from_both_entry_points(engine):
    from repro.convert.context import PlanError

    with pytest.raises(PlanError, match="unknown backend 'bogus'"):
        engine.plan(COO, CSR, backend="bogus")
    with pytest.raises(PlanError, match="unknown backend 'bogus'"):
        engine.plan_compute(COO, "spmv", CSR, backend="bogus")




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


def test_auto_fuses_iff_fusable(engine):
    """fuse='auto' fuses exactly where the op can consume the source and
    builds no destination, at every size, and materializes everywhere
    else: a fused scale still assembles the destination, slower at bulk
    sizes than the ladder's conversion."""
    from repro.compute import fusable
    from repro.formats import available_formats

    formats = [fmt for fmt in available_formats().values() if fmt.order == 2]
    seen = set()
    for src in formats:
        for dst in formats:
            if structural_key(src) == structural_key(dst):
                continue
            for op in ("spmv", "row_reduce", "scale"):
                for nnz in (236, 1_000_000):
                    plan = engine.plan_compute(src, op, dst, nnz=nnz)
                    can = fusable(src, op, dst)
                    want = can and op != "scale"
                    assert plan.fused == want, (src.name, dst.name, op, nnz)
                    assert plan.fuse == ("fused" if want else "materialize")
                    seen.add((op, can, want))
    # the table covers both outcomes, and a fusable scale that materializes
    assert {(op, True, True) for op in ("spmv", "row_reduce")} <= seen
    assert ("scale", True, False) in seen and ("spmv", False, False) in seen


def test_bad_fuse_value_rejected(engine):
    with pytest.raises(ValueError, match="fuse must be"):
        engine.plan_compute(COO, "spmv", CSR, fuse="maybe")
