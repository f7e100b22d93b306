"""Unit tests for level formats' host-side iteration (the oracle side of
the coordinate hierarchy abstraction)."""

import pytest

from repro.formats.library import BCSR, COO, CSR, CSC, DIA, ELL, SKY
from repro.levels import (
    BandedLevel,
    CompressedLevel,
    DenseLevel,
    Level,
    LevelFunctionError,
    OffsetLevel,
    SingletonLevel,
    SlicedLevel,
    SqueezedLevel,
)
from repro.storage.build import reference_build

CELLS = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (2, 3),
         (3, 1), (3, 3), (3, 4)]
VALS = [5.0, 1.0, 7.0, 3.0, 8.0, 2.0, 4.0, 9.0, 6.0, 2.5]
DIMS = (4, 6)


def _tensor(fmt):
    return reference_build(fmt, DIMS, CELLS, VALS)


def test_dense_level_iterates_full_range():
    tensor = _tensor(CSR)
    entries = list(CSR.levels[0].iterate(tensor, 0, 0, ()))
    assert entries == [(i, i) for i in range(4)]


def test_dense_level_size():
    tensor = _tensor(CSR)
    assert CSR.levels[0].check(tensor, 0, 1) == 4


def test_compressed_level_iterates_row_segment():
    tensor = _tensor(CSR)
    # row 2 has columns 0, 2, 3 (positions 4..6 in Figure 2b's layout)
    entries = list(CSR.levels[1].iterate(tensor, 1, 2, (2,)))
    assert [coord for _, coord in entries] == [0, 2, 3]
    assert CSR.levels[1].check(tensor, 1, 4) == 10


def test_singleton_level_yields_one_entry():
    tensor = _tensor(COO)
    entries = list(COO.levels[1].iterate(tensor, 1, 3, (1,)))
    assert len(entries) == 1
    assert entries[0][0] == 3  # shares the parent position


def test_squeezed_level_iterates_stored_diagonals():
    tensor = _tensor(DIA)
    entries = list(DIA.levels[0].iterate(tensor, 0, 0, ()))
    assert [coord for _, coord in entries] == [-2, 0, 1]  # Figure 2c's perm
    assert DIA.levels[0].check(tensor, 0, 1) == 3


def test_offset_level_derives_column():
    tensor = _tensor(DIA)
    # diagonal k=1, row 0 -> column 1
    entries = list(DIA.levels[2].iterate(tensor, 2, 8, (1, 0)))
    assert entries == [(8, 1)]


def test_sliced_level_iterates_k_slices():
    tensor = _tensor(ELL)
    entries = list(ELL.levels[0].iterate(tensor, 0, 0, ()))
    assert [coord for _, coord in entries] == [0, 1, 2]  # K == 3


def test_banded_level_iterates_band():
    cells = [(2, 0), (2, 2), (3, 3)]
    tensor = reference_build(SKY, (4, 4), cells, [1.0, 2.0, 3.0])
    # row 2 stores columns 0..2 (first nonzero through diagonal)
    entries = list(SKY.levels[1].iterate(tensor, 1, 2, (2,)))
    assert [coord for _, coord in entries] == [0, 1, 2]
    # row 3 stores only the diagonal
    entries = list(SKY.levels[1].iterate(tensor, 1, 3, (3,)))
    assert [coord for _, coord in entries] == [3]


def test_paths_count_matches_stored_size():
    for fmt in (COO, CSR, CSC, DIA, ELL, BCSR(2, 2)):
        tensor = _tensor(fmt)
        assert len(list(tensor.paths())) == tensor.nnz_stored


def test_level_properties():
    assert DenseLevel().full and DenseLevel().ordered
    assert not CompressedLevel().full
    assert not CompressedLevel(unique=False).unique
    assert CompressedLevel().has_edges and not SingletonLevel().has_edges
    assert BandedLevel().stores_explicit_zeros
    assert SlicedLevel().introduces_padding
    assert SqueezedLevel().introduces_padding
    assert OffsetLevel(1, 0).branchless


def test_level_signatures_distinguish_variants():
    assert CompressedLevel().signature() != CompressedLevel(unique=False).signature()
    assert SingletonLevel(ordered=False).signature() != SingletonLevel().signature()
    assert OffsetLevel(1, 0).signature() == "offset(1+0)"


def test_abstract_level_raises():
    level = Level()
    with pytest.raises(LevelFunctionError):
        list(level.iterate(None, 0, 0, ()))
    with pytest.raises(LevelFunctionError):
        level.check(None, 0, 1)
    with pytest.raises(LevelFunctionError):
        level.emit_pos(None, 0, None, ())
    with pytest.raises(LevelFunctionError):
        level.emit_seq_init_edges(None, 0, None)
    assert level.queries(0, 2) == ()
    assert level.emit_init_coords(None, 0, None) == []
