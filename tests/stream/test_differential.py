"""Property-based differential tests: streamed == in-memory, bitwise.

Two layers of coverage:

* an exhaustive deterministic sweep — every streamable pair x several
  seeded cases x at least three chunk sizes (tiny, mid-row straddling,
  single-chunk), so the full pair matrix is exercised on every run;
* a hypothesis property over random seeds/orderings/chunk bounds for the
  structurally interesting destinations, which searches the input space
  the sweep cannot enumerate.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.convert.engine import ConversionEngine
from repro.convert.streamed import plan_streamed, streamable
from repro.formats import get_format, parse_format_spec
from repro.io.stream import write_stream
from repro.stream import convert_file, load_result

from ..support.tensorgen import constrain_case, random_tensor_case
from .strategies import (
    STREAM_DSTS_2D,
    STREAM_DSTS_3D,
    assert_stream_matches_memory,
    chunk_sizes,
    coo_source,
    mid_row_chunk,
    tensor_cases,
)


@pytest.fixture(scope="module")
def engine():
    eng = ConversionEngine()
    yield eng
    eng.shutdown()


def _dst(spec):
    return parse_format_spec(spec)


# ----------------------------------------------------------------------
# exhaustive sweep: every pair, every chunk-size class


@pytest.mark.parametrize("spec", STREAM_DSTS_2D)
def test_streamed_matches_memory_all_2d_pairs(tmp_path, engine, spec):
    dst = _dst(spec)
    assert streamable(get_format("COO"), dst)
    for seed in (1, 5, 23):
        case = random_tensor_case(seed, order=2)
        for chunk_nnz in chunk_sizes(case):
            assert_stream_matches_memory(tmp_path, engine, case, dst,
                                         chunk_nnz)


@pytest.mark.parametrize("spec", STREAM_DSTS_3D)
def test_streamed_matches_memory_all_3d_pairs(tmp_path, engine, spec):
    dst = _dst(spec)
    assert streamable(get_format("COO3"), dst)
    for seed in (2, 9):
        case = random_tensor_case(seed, order=3, max_dim=9)
        for chunk_nnz in chunk_sizes(case):
            assert_stream_matches_memory(tmp_path, engine, case, dst,
                                         chunk_nnz)


def test_chunk_boundary_lands_mid_row(tmp_path, engine):
    """The computed mid-row chunk bound really does split a row."""
    case = random_tensor_case(3, order=2, ordering="rowheavy")
    chunk = mid_row_chunk(case)
    lead = case.columns()[0]
    assert 0 < chunk < case.nnz
    assert lead[chunk - 1] == lead[chunk], "bound must land inside a run"
    for spec in ("CSR", "DCSR", "HICOO2"):
        assert_stream_matches_memory(tmp_path, engine, case, _dst(spec),
                                     chunk)


# ----------------------------------------------------------------------
# hypothesis property


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=tensor_cases(order=2), spec=st.sampled_from(
    ("CSR", "DCSR", "SKY", "BCSR2x2", "ELL")), data=st.data())
def test_streamed_matches_memory_property(tmp_path, engine, case, spec,
                                          data):
    chunk_nnz = data.draw(st.sampled_from(chunk_sizes(case)))
    assert_stream_matches_memory(tmp_path, engine, case, _dst(spec),
                                 chunk_nnz)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=tensor_cases(order=3, max_dim=8), data=st.data())
def test_streamed_matches_memory_property_3d(tmp_path, engine, case, data):
    chunk_nnz = data.draw(st.sampled_from(chunk_sizes(case)))
    assert_stream_matches_memory(tmp_path, engine, case, _dst("CSF"),
                                 chunk_nnz)


# ----------------------------------------------------------------------
# matrix market sources (plain, gzip, symmetric)


def test_streamed_from_matrix_market(tmp_path, engine):
    from repro.io.matrixmarket import write_matrix_market

    case = constrain_case(_dst("CSR"), random_tensor_case(17, order=2))
    path = tmp_path / "case.mtx"
    write_matrix_market(path, case.dims, case.cells, case.vals)
    assert_stream_matches_memory(tmp_path, engine, case, _dst("CSR"),
                                 chunk_nnz=max(1, case.nnz // 4),
                                 src_path=path)


def test_streamed_from_gzipped_matrix_market(tmp_path, engine):
    from repro.io.matrixmarket import write_matrix_market

    case = random_tensor_case(19, order=2)
    path = tmp_path / "case.mtx.gz"
    write_matrix_market(path, case.dims, case.cells, case.vals)
    assert_stream_matches_memory(tmp_path, engine, case, _dst("DCSR"),
                                 chunk_nnz=5, src_path=path)


def test_streamed_symmetric_expansion_matches_in_memory(tmp_path, engine):
    """Symmetric storage expands in the exact in-memory reader order, so
    conversion of the stream is bit-identical to read_tensor + convert."""
    from repro.io import read_tensor

    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "4 4 5\n"
        "1 1 1.5\n"
        "3 1 2.5\n"
        "3 3 3.5\n"
        "4 2 4.5\n"
        "4 4 5.5\n"
    )
    tensor = read_tensor(path)
    expected = engine.convert(tensor, _dst("CSR"), backend="vector")
    result = convert_file(path, "CSR", tmp_path / "sym_csr", chunk_nnz=2)
    assert result.nnz == 7  # 5 stored + 2 mirrored off-diagonal entries
    got = result.load()
    for key, array in expected.arrays.items():
        assert np.array_equal(np.asarray(got.arrays[key]), np.asarray(array))
    assert np.array_equal(np.asarray(got.vals), np.asarray(expected.vals))


# ----------------------------------------------------------------------
# plan/result mechanics


def test_plan_streamed_pass_counts():
    coo = get_format("COO")
    assert plan_streamed(coo, get_format("COO")).passes == 1
    assert plan_streamed(coo, get_format("CSR")).passes == 2
    assert plan_streamed(coo, get_format("DCSR")).passes == 3
    assert plan_streamed(get_format("COO3"), get_format("CSF")).passes == 3


def test_plan_streamed_is_memoized():
    coo, csr = get_format("COO"), get_format("CSR")
    assert plan_streamed(coo, csr) is plan_streamed(coo, csr)


def test_unstreamable_pair_returns_none():
    assert plan_streamed(get_format("COO"), get_format("HASH")) is None
    assert not streamable(get_format("COO"), get_format("HASH"))
    assert not streamable(get_format("HASH"), get_format("CSR"))


def test_result_loads_memmap_backed(tmp_path, engine):
    case = random_tensor_case(29, order=2, ordering="sorted")
    columns = case.columns()
    src = tmp_path / "m.bin"
    write_stream(src, case.dims, list(columns[:-1]), columns[-1])
    result = convert_file(src, "CSR", tmp_path / "csr", chunk_nnz=16)
    assert result.passes == 2
    assert result.dst_format == "CSR"
    assert result.source_bytes == case.nnz * 24
    assert result.peak_rss_bytes > 0
    tensor = load_result(tmp_path / "csr")
    pos = tensor.arrays[(1, "pos")]
    assert isinstance(pos, np.memmap)
    assert tensor.dims == case.dims
    # result.load() is equivalent
    again = result.load()
    assert np.array_equal(np.asarray(again.vals), np.asarray(tensor.vals))


def test_engine_convert_file_delegates(tmp_path, engine):
    case = random_tensor_case(31, order=2)
    columns = case.columns()
    src = tmp_path / "m.bin"
    write_stream(src, case.dims, list(columns[:-1]), columns[-1])
    before = engine.cache_stats()["conversions"]
    result = engine.convert_file(src, "CSR", tmp_path / "out")
    assert result.dst_format == "CSR"
    assert engine.cache_stats()["conversions"] == before + 1
    expected = engine.convert(coo_source(case), _dst("CSR"), backend="vector")
    got = result.load()
    assert np.array_equal(np.asarray(got.vals), np.asarray(expected.vals))
