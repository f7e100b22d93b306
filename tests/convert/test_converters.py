"""Competing converters: the registration API, the scipy-delegated
builtins, predicate admission, runtime fallback, and plan pinning."""

import random

import numpy as np
import pytest

from repro.convert import (
    ConversionEngine,
    ConversionPlan,
    PlanError,
    converter_named,
    converters_for,
    default_features,
    register_converter,
    run_converter,
    sample_features,
    scipy_available,
    unregister_converter,
)
from repro.convert import features as features_module
from repro.formats import COO, CSC, CSR, FormatError
from repro.storage.build import reference_build
from repro.storage.tensor import Tensor

from ..support import count_exact_passes, sorted_only_converter
from ..support.tensorgen import random_tensor_case

needs_scipy = pytest.mark.skipif(
    not scipy_available(), reason="scipy is not installed"
)


def _sorted_coo(count=80, dims=(24, 24), seed=5):
    rng = random.Random(seed)
    cells = sorted({
        (rng.randrange(dims[0]), rng.randrange(dims[1])) for _ in range(count)
    })
    return reference_build(
        COO, dims, cells, [1.0 + i for i in range(len(cells))]
    )


def _unsorted_coo(count=80, dims=(24, 24), seed=5):
    rng = random.Random(seed)
    cells = sorted({
        (rng.randrange(dims[0]), rng.randrange(dims[1])) for _ in range(count)
    })
    rng.shuffle(cells)  # COO keeps the given stream order
    return reference_build(
        COO, dims, cells, [1.0 + i for i in range(len(cells))]
    )


def _bulk_rows(rows=2000, per_row=60):
    """Row-major sorted coordinates with ``per_row`` entries in every
    row: far more adjacent pairs than the feature sample reads."""
    row = np.repeat(np.arange(rows, dtype=np.int64), per_row)
    col = np.tile(np.arange(0, 2 * per_row, 2, dtype=np.int64), rows)
    return (rows, 2 * per_row), row, col


def _bulk_coo(row, col, dims):
    nnz = len(row)
    return Tensor(
        COO, dims,
        {(0, "pos"): np.array([0, nnz]), (0, "crd"): row, (1, "crd"): col},
        {}, np.arange(1.0, nnz + 1.0),
    )


def _swap_past_the_sample(row, col):
    """``(row, col)`` with one adjacent in-row swap at a pair the
    strided feature sample never reads."""
    row, col = row.copy(), col.copy()
    cells = features_module._sample(len(row))
    # pair i lies strictly between the first two sampled runs
    i = int(cells[0, -1] + cells[1, 0]) // 2
    while row[i] != row[i + 1]:
        i += 1
    col[i], col[i + 1] = col[i + 1], col[i]
    return row, col


def _recorded_kinds(engine):
    """The kind of every hop ``engine`` executes from now on, as its hop
    observers see it run (``external:<name>`` for a registered
    converter)."""
    kinds = []
    engine.add_hop_observer(lambda hop, *_: kinds.append(
        f"external:{hop.converter}" if hop.converter else hop.kind))
    return kinds


def _assert_bit_identical(out, ref):
    """Same arrays, same dtypes, same values — not just the same to_coo."""
    assert out.format is ref.format and out.dims == ref.dims
    assert set(out.arrays) == set(ref.arrays)
    for key, arr in ref.arrays.items():
        assert out.arrays[key].dtype == arr.dtype, key
        assert np.array_equal(out.arrays[key], arr), key
    assert out.vals.dtype == ref.vals.dtype
    assert np.array_equal(out.vals, ref.vals)


@pytest.fixture
def engine():
    return ConversionEngine()


# ----------------------------------------------------------------------
# the scipy-delegated builtins


def test_builtin_registration_matches_scipy_availability():
    names = [c.name for c in converters_for(COO, CSR)]
    if scipy_available():
        assert "scipy-coo-csr" in names
    else:
        assert not any(n.startswith("scipy-") for n in names)


@needs_scipy
@pytest.mark.parametrize(
    "src,dst,name",
    [
        (COO, CSR, "scipy-coo-csr"),
        (COO, CSC, "scipy-coo-csc"),
        (CSR, CSC, "scipy-csr-csc"),
        (CSC, CSR, "scipy-csc-csr"),
    ],
)
def test_scipy_builtins_bit_identical_on_admitted_streams(
    engine, src, dst, name
):
    coo = _sorted_coo()
    tensor = coo if src is COO else engine.convert(
        coo, src, backend="scalar", route="direct"
    )
    converter = converter_named(src, dst, name)
    assert converter is not None
    assert converter.admits(sample_features(tensor))
    out = run_converter(converter, tensor, dst)
    ref = engine.convert(tensor, dst, backend="scalar", route="direct")
    _assert_bit_identical(out, ref)


@needs_scipy
def test_scipy_coo_compressors_bit_identical_on_unsorted_streams(engine):
    """scipy's ``coo_tocsr`` is a stable counting sort, so the COO
    delegates carry no filter: a shuffled stream is admitted and comes
    out bit-identical to the direct scalar conversion, run alone and
    through the engine."""
    unsorted = _unsorted_coo()
    features = sample_features(unsorted)
    assert features.sortedness < 1.0
    for dst, name in ((CSR, "scipy-coo-csr"), (CSC, "scipy-coo-csc")):
        converter = converter_named(COO, dst, name)
        assert converter.filter is None and converter.admits(features)
        ref = engine.convert(unsorted, dst, backend="scalar", route="direct")
        _assert_bit_identical(run_converter(converter, unsorted, dst), ref)
        _assert_bit_identical(engine.convert(unsorted, dst), ref)


def _coo_stream(seed):
    """A COO stream of one of five shapes the delegates must carry
    bit for bit: shuffled, duplicate-heavy, with explicit zeros, with
    most rows empty, and empty."""
    rng = np.random.default_rng(seed)
    shape = ("shuffled", "duplicates", "zeros", "empty_rows", "empty")[
        seed % 5]
    rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
    nnz = 0 if shape == "empty" else int(rng.integers(1, 300))
    row = rng.integers(0, rows, nnz)
    col = rng.integers(0, cols, nnz)
    if shape == "duplicates":
        pick = rng.integers(0, max(nnz // 8, 1), nnz)
        row, col = row[pick], col[pick]
    if shape == "empty_rows":
        row = rng.choice(rng.integers(0, rows, 3), nnz)
    vals = rng.uniform(-1.0, 1.0, nnz)
    if shape == "zeros":
        vals[rng.random(nnz) < 0.4] = 0.0
    return Tensor(
        COO, (rows, cols),
        {(0, "pos"): np.array([0, nnz]), (0, "crd"): row.astype(np.int64),
         (1, "crd"): col.astype(np.int64)},
        {}, vals,
    )


@needs_scipy
@pytest.mark.parametrize("seed", range(40))
def test_scipy_coo_delegates_match_scalar_on_any_stream(engine, seed):
    """Property: the unfiltered COO delegates are bit-identical to the
    scalar kernel on every stream shape, sorted or not."""
    tensor = _coo_stream(seed)
    for dst, name in ((CSR, "scipy-coo-csr"), (CSC, "scipy-coo-csc")):
        out = run_converter(converter_named(COO, dst, name), tensor, dst)
        ref = engine.convert(tensor, dst, backend="scalar", route="direct")
        _assert_bit_identical(out, ref)


@needs_scipy
def test_no_coo_delegate_without_the_compiled_kernel(monkeypatch):
    """Admission is a host fact: on a scipy whose ``_sparsetools`` lacks
    ``coo_tocsr``, registration adds no COO delegate (and keeps the
    transposes, whose kernel is there)."""
    import scipy.sparse

    from repro.convert import converters as converters_module

    builtins = [c for src, dst in ((COO, CSR), (COO, CSC), (CSR, CSC),
                                   (CSC, CSR))
                for c in converters_for(src, dst)
                if c.name.startswith("scipy-")]
    assert len(builtins) == 4
    stub = type("Tools", (), {
        "csr_tocsc": staticmethod(scipy.sparse._sparsetools.csr_tocsc)})
    monkeypatch.setattr(scipy.sparse, "_sparsetools", stub)
    for c in builtins:
        unregister_converter(c.src, c.dst, c.name)
    try:
        converters_module._register_builtin_converters()
        names = {c.name for src, dst in ((COO, CSR), (COO, CSC))
                 for c in converters_for(src, dst)}
        assert not any(n.startswith("scipy-") for n in names)
        assert converter_named(CSR, CSC, "scipy-csr-csc") is not None
        assert converter_named(CSC, CSR, "scipy-csc-csr") is not None
    finally:
        for c in builtins:
            unregister_converter(c.src, c.dst, c.name)
            register_converter(c.src, c.dst, c.func, filter=c.filter,
                               weight=c.weight, name=c.name)


@needs_scipy
def test_csr_csc_builtins_unpredicated():
    for src, dst, name in (
        (CSR, CSC, "scipy-csr-csc"),
        (CSC, CSR, "scipy-csc-csr"),
    ):
        assert converter_named(src, dst, name).filter is None


# ----------------------------------------------------------------------
# the registration API


def test_register_validates_arguments():
    with pytest.raises(TypeError, match="must be callable"):
        register_converter(COO, CSR, "not-a-function")
    with pytest.raises(TypeError, match="filter must be callable"):
        register_converter(COO, CSR, lambda t, d: t, filter="nope")
    for bad_weight in (0, -1.0, "heavy"):
        with pytest.raises(ValueError, match="weight"):
            register_converter(COO, CSR, lambda t, d: t, weight=bad_weight)


def test_register_duplicate_name_raises():
    register_converter(COO, CSR, lambda t, d: t, name="dup-test")
    try:
        with pytest.raises(ValueError, match="already"):
            register_converter(COO, CSR, lambda t, d: t, name="dup-test")
    finally:
        assert unregister_converter(COO, CSR, "dup-test")


def test_unregister_reports_whether_it_existed():
    assert not unregister_converter(COO, CSR, "never-registered")
    register_converter(COO, CSR, lambda t, d: t, name="ephemeral")
    assert unregister_converter(COO, CSR, "ephemeral")
    assert not unregister_converter(COO, CSR, "ephemeral")
    assert converter_named(COO, CSR, "ephemeral") is None


def test_registration_invalidates_cached_routes(engine):
    # an engine that already routed a pair must pick up converters
    # registered afterwards: the registry version is part of the
    # route-cache staleness check.  The tensor is large enough that the
    # external candidate's fixed overhead does not price the direct edge
    # above a multi-hop vector detour.
    coo = _sorted_coo(count=12000, dims=(128, 128))
    before = engine.plan(COO, CSR, route="auto")
    calls = []

    def fast(tensor, dst):
        calls.append(1)
        return ConversionEngine().convert(
            tensor, dst, backend="vector", route="direct"
        )

    register_converter(COO, CSR, fast, weight=1e-9, name="late-arrival")
    try:
        plan = engine.plan(COO, CSR, route="auto")
        assert plan.hops[0].converter == "late-arrival"
        out = engine.convert(coo, CSR, route="auto")
        assert calls
        ref = engine.convert(coo, CSR, backend="scalar", route="direct")
        _assert_bit_identical(out, ref)
    finally:
        unregister_converter(COO, CSR, "late-arrival")
    after = engine.plan(COO, CSR, route="auto")
    assert [h.converter for h in after.hops] == [
        h.converter for h in before.hops
    ]


def test_run_converter_rejects_bad_results(engine):
    coo = _sorted_coo()
    bad = register_converter(
        COO, CSR, lambda t, d: "oops", name="bad-return"
    )
    wrong = register_converter(
        COO, CSR, lambda t, d: t, name="wrong-format"
    )
    try:
        with pytest.raises(FormatError, match="not a Tensor"):
            run_converter(bad, coo, CSR)
        with pytest.raises(FormatError, match="not structurally"):
            run_converter(wrong, coo, CSR)  # returns the COO input
    finally:
        unregister_converter(COO, CSR, "bad-return")
        unregister_converter(COO, CSR, "wrong-format")


# ----------------------------------------------------------------------
# admission and selection


def test_predicate_rejecting_all_falls_back_to_generated(engine):
    calls = []

    def never(tensor, dst):  # pragma: no cover - must not run
        calls.append(1)
        raise AssertionError("predicate-rejected converter ran")

    register_converter(
        COO, CSR, never, filter=lambda f: False, weight=1e-9,
        name="rejects-all",
    )
    try:
        coo = _sorted_coo()
        features = sample_features(coo)
        cands = engine.converters(COO, CSR, nnz=1_000_000, features=features)
        rejected = [c for c in cands if c.name == "rejects-all"]
        assert rejected[0].verdict == "rejected by predicate"
        # rejected candidates sort after every admitted one
        assert not any(c.verdict == "rejected by predicate"
                       for c in cands[: cands.index(rejected[0])])
        out = engine.convert(coo, CSR)
        ref = engine.convert(coo, CSR, backend="scalar", route="direct")
        _assert_bit_identical(out, ref)
        assert not calls
    finally:
        unregister_converter(COO, CSR, "rejects-all")


def test_weight_ties_break_deterministically_on_name(engine):
    def ident(tensor, dst):
        return ConversionEngine().convert(
            tensor, dst, backend="vector", route="direct"
        )

    register_converter(COO, CSR, ident, weight=1e-6, name="zz-tied")
    register_converter(COO, CSR, ident, weight=1e-6, name="aa-tied")
    try:
        features = default_features(1_000_000)
        cands = engine.converters(
            COO, CSR, nnz=1_000_000, features=features
        )
        tied = [c for c in cands if c.name.endswith("-tied")]
        assert [c.name for c in tied] == ["aa-tied", "zz-tied"]
        assert tied[0].rank < tied[1].rank  # name is the final tiebreak
        plan = engine.plan(
            COO, CSR, nnz=1_000_000, features=features
        )
        assert plan.hops[0].kind == "external"
        assert plan.hops[0].converter == "aa-tied"
    finally:
        unregister_converter(COO, CSR, "zz-tied")
        unregister_converter(COO, CSR, "aa-tied")


def test_runtime_recheck_falls_back_when_predicate_refuses(engine):
    def sorted_only(tensor, dst):  # pragma: no cover - must not run
        raise AssertionError("ran on a stream its predicate refuses")

    register_converter(
        COO, CSR, sorted_only, filter=lambda f: f.sortedness >= 1.0,
        weight=1e-9, name="sorted-only",
    )
    try:
        # plan optimistically, without a tensor: default features admit
        plan = engine.plan(COO, CSR, nnz=1_000_000)
        assert plan.hops[0].converter == "sorted-only"
        unsorted = _unsorted_coo()
        out = plan.run(unsorted)  # recheck refuses -> generated kernel
        ref = engine.convert(unsorted, CSR, backend="scalar", route="direct")
        _assert_bit_identical(out, ref)
    finally:
        unregister_converter(COO, CSR, "sorted-only")


def test_inversion_the_sample_skips_is_caught_at_execution(engine):
    """Past the sample bound the planner may admit a sortedness-filtered
    converter on a stream whose only inversion the sample never read;
    the exact check where the hop runs refuses it and the generated
    kernel runs."""
    dims, row, col = _bulk_rows()
    tensor = _bulk_coo(*_swap_past_the_sample(row, col), dims)
    with sorted_only_converter() as calls:
        features = sample_features(tensor)
        assert features.nnz - 1 > features_module._SAMPLE_PAIRS
        assert features.sortedness == 1.0  # the sample saw no inversion
        plan = engine.plan(COO, CSR, nnz=tensor.nnz_stored,
                           features=features)
        assert plan.hops[0].converter == "sorted-only"
        kinds = _recorded_kinds(engine)
        ref = engine.convert(tensor, CSR, backend="scalar")
        del kinds[:]
        _assert_bit_identical(plan.run(tensor), ref)
        _assert_bit_identical(engine.convert(tensor, CSR), ref)
    assert len(kinds) == 2 and calls == []
    assert "external:sorted-only" not in kinds
    assert set(kinds) <= {"scalar", "vector", "native"}


def test_predicate_is_rechecked_exactly_past_the_sample(engine):
    def sorted_only(tensor, dst):  # pragma: no cover - must not run
        raise AssertionError("ran on a stream its predicate refuses")

    register_converter(
        COO, CSR, sorted_only, filter=lambda f: f.sortedness >= 1.0,
        weight=1e-9, name="sorted-only",
    )
    try:
        dims, row, col = _bulk_rows()
        tensor = _bulk_coo(*_swap_past_the_sample(row, col), dims)
        assert sample_features(tensor).sortedness == 1.0
        out = engine.convert(tensor, CSR)
        ref = engine.convert(tensor, CSR, backend="scalar")
        _assert_bit_identical(out, ref)
    finally:
        unregister_converter(COO, CSR, "sorted-only")


def test_exact_pass_runs_once_and_only_for_filtered_converters(
    engine, monkeypatch
):
    """Auto CSR->CSC and COO->CSR run unfiltered hops (scipy's delegates
    where present) with no exact pass; a sorted COO->CSR through a
    filtered converter takes one pass, memoized on the tensor."""
    passes = count_exact_passes(monkeypatch)
    kinds = _recorded_kinds(engine)
    dims, row, col = _bulk_rows()
    assert len(row) >= 100_000
    coo = _bulk_coo(row, col, dims)
    pos = np.arange(0, len(row) + 1, len(row) // dims[0], dtype=np.int64)
    csr = Tensor(CSR, dims, {(1, "pos"): pos, (1, "crd"): col}, {},
                 np.arange(1.0, len(row) + 1.0))
    engine.convert(csr, CSC)
    engine.convert(coo, CSR)
    if scipy_available():
        assert kinds == ["external:scipy-csr-csc", "external:scipy-coo-csr"]
    assert len(kinds) == 2 and passes == []
    with sorted_only_converter() as calls:
        engine.convert(coo, CSR)
        engine.convert(coo, CSR)
    assert kinds[2:] == ["external:sorted-only"] * 2
    assert calls == [coo, coo]
    assert passes == [coo]


@needs_scipy
def test_fuzz_auto_column_reaches_the_external_converters(tmp_path):
    """At fuzz sizes only the ``auto`` column (a bulk-sized plan run on
    the case) reaches scipy's COO compressors: an unsorted case runs
    through them itself (and its sorted-order twin too), and every run
    matches scalar."""
    from repro.verify import _run_case

    engine = ConversionEngine()
    for ordering in ("random", "sorted"):
        case = random_tensor_case(3, ordering=ordering)
        failures, ran = _run_case(
            engine, COO, CSR, case, ("auto",), str(tmp_path)
        )
        assert failures == {} and "external" in ran
        unsorted = ordering == "random"
        assert ("unsorted" in ran) == unsorted
        assert ("unsorted-external" in ran) == unsorted


def test_compile_warms_the_external_hop_fallback(engine):
    """An external hop's plan compiles the generated kernel it falls back
    to, so a stream the predicate refuses compiles nothing at run time."""
    with sorted_only_converter() as calls:
        plan = engine.plan(COO, CSR)
        assert plan.hops[0].converter == "sorted-only"
        plan.compile()
        compiles = engine.cache_stats()["compiles"]
        unsorted = _unsorted_coo()
        out = plan.run(unsorted)  # predicate refuses -> generated fallback
        engine.convert(unsorted, CSR)
    assert engine.cache_stats()["compiles"] == compiles and calls == []
    ref = engine.convert(unsorted, CSR, backend="scalar", route="direct")
    _assert_bit_identical(out, ref)


# ----------------------------------------------------------------------
# plan pinning (schema 2)


def test_replayed_plan_requires_the_pinned_converter(engine):
    def ident(tensor, dst):
        return ConversionEngine().convert(
            tensor, dst, backend="vector", route="direct"
        )

    register_converter(COO, CSR, ident, weight=1e-9, name="pin-me")
    try:
        plan = engine.plan(
            COO, CSR, nnz=1_000_000, features=default_features(1_000_000)
        )
        assert plan.hops[0].converter == "pin-me"
        payload = plan.to_json()
    finally:
        unregister_converter(COO, CSR, "pin-me")
    # the diverged host fails at load time, before anything runs
    with pytest.raises(PlanError, match="pin-me.*not registered"):
        ConversionPlan.from_json(payload, engine=engine)
