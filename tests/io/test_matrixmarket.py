"""Matrix Market IO tests."""

import pytest

from repro.formats.library import COO, CSR
from repro.io import (
    MatrixMarketError,
    read_matrix_market,
    read_tensor,
    write_matrix_market,
)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "m.mtx"
    coords = [(0, 0), (2, 1), (3, 4)]
    vals = [1.5, -2.0, 3.25]
    write_matrix_market(path, (4, 5), coords, vals)
    dims, got_coords, got_vals = read_matrix_market(path)
    assert dims == (4, 5)
    assert got_coords == coords
    assert got_vals == vals


def test_read_symmetric_expands(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment line\n"
        "3 3 2\n"
        "1 1 5.0\n"
        "3 1 2.0\n"
    )
    dims, coords, vals = read_matrix_market(path)
    assert dims == (3, 3)
    assert dict(zip(coords, vals)) == {(0, 0): 5.0, (2, 0): 2.0, (0, 2): 2.0}


def test_read_skew_symmetric_negates(tmp_path):
    path = tmp_path / "k.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 1 3.0\n"
    )
    _, coords, vals = read_matrix_market(path)
    assert dict(zip(coords, vals)) == {(1, 0): 3.0, (0, 1): -3.0}


def test_read_pattern_defaults_to_one(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n1 2\n2 1\n"
    )
    _, coords, vals = read_matrix_market(path)
    assert vals == [1.0, 1.0]
    assert coords == [(0, 1), (1, 0)]


def test_read_tensor_builds_coo(tmp_path):
    path = tmp_path / "t.mtx"
    write_matrix_market(path, (3, 3), [(1, 2)], [4.0])
    tensor = read_tensor(path)
    assert tensor.format is COO
    assert tensor.to_coo() == {(1, 2): 4.0}
    csr = read_tensor(path, CSR)
    assert csr.to_coo() == {(1, 2): 4.0}


def test_errors(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a header\n1 1 0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(bad)
    bad.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(bad)
    bad.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(bad)
    bad.write_text("%%MatrixMarket matrix coordinate real general\nnot numbers\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(bad)


@pytest.mark.parametrize(
    "entries",
    [
        "999 1 2.0\n",         # row beyond the declared 3 rows
        "0 1 2.0\n",           # Matrix Market is 1-based: row -1
        "1 1 2.0\n2 2 3.0\n",  # more entries than the header declares
        "1 2\n",               # real field with no value token
        "x 1 2.0\n",           # non-numeric coordinate
    ],
    ids=["row-too-big", "row-zero", "extra-entry", "no-value", "garbage"],
)
def test_malformed_entries_raise_typed_error_from_read_tensor(tmp_path, entries):
    """The in-memory reader drains the streaming parser, so it rejects
    what that rejects — it used to accept the first two (failing later
    inside a generated kernel), drop the third silently and raise bare
    IndexError / ValueError for the last two."""
    bad = tmp_path / "bad.mtx"
    bad.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n" + entries
    )
    with pytest.raises(MatrixMarketError):
        read_tensor(bad)
    with pytest.raises(MatrixMarketError):
        read_matrix_market(bad)


def test_gzip_roundtrip(tmp_path):
    """SuiteSparse distributes gzipped files; .mtx.gz reads and writes."""
    path = tmp_path / "m.mtx.gz"
    cells = [(0, 0), (1, 2), (3, 1)]
    write_matrix_market(path, (4, 4), cells, [1.0, 2.5, -3.0])
    import gzip

    with gzip.open(path, "rt") as handle:  # really gzipped on disk
        assert handle.readline().startswith("%%MatrixMarket")
    dims, coords, vals = read_matrix_market(path)
    assert dims == (4, 4)
    assert coords == cells
    assert vals == [1.0, 2.5, -3.0]


def test_gzip_read_tensor_matches_plain(tmp_path):
    cells = [(0, 1), (2, 2), (1, 0)]
    vals = [4.0, 5.0, 6.0]
    plain, gz = tmp_path / "t.mtx", tmp_path / "t.mtx.gz"
    write_matrix_market(plain, (3, 3), cells, vals)
    write_matrix_market(gz, (3, 3), cells, vals)
    assert read_tensor(gz).to_coo() == read_tensor(plain).to_coo()
