"""Tests for format descriptors: validation, signatures, dimension bounds."""

import pytest

from repro.formats import (
    BCSR,
    COO,
    CSC,
    CSR,
    DIA,
    ELL,
    HICOO,
    SKY,
    Format,
    FormatError,
    dim_size_vars,
    make_format,
)
from repro.ir import print_expr
from repro.levels import CompressedLevel, DenseLevel
from repro.remap import parse_remap


def test_level_count_must_match_remap():
    with pytest.raises(FormatError):
        make_format("bad", "(i,j) -> (i, j)", [DenseLevel()])


def test_inverse_arity_must_match_order():
    with pytest.raises(FormatError):
        make_format(
            "bad", "(i,j) -> (i, j)", [DenseLevel(), CompressedLevel()],
            inverse_text="(i,j) -> (i, j, i)",
        )


def test_unbound_parameters_rejected():
    with pytest.raises(FormatError):
        make_format(
            "bad", "(i,j) -> (i/M, i%M, j)",
            [DenseLevel(), DenseLevel(), CompressedLevel()],
        )


def test_signature_distinguishes_params():
    assert BCSR(2, 2).signature() != BCSR(4, 4).signature()
    assert BCSR(2, 2).signature() == BCSR(2, 2).signature()


def test_order_and_nlevels():
    assert CSR.order == 2 and CSR.nlevels == 2
    assert DIA.order == 2 and DIA.nlevels == 3
    assert BCSR(2, 2).nlevels == 4


def test_padded_classification():
    assert DIA.padded and ELL.padded and SKY.padded
    assert BCSR(2, 2).padded and not HICOO(2).padded
    assert not COO.padded and not CSR.padded and not CSC.padded


def test_dim_intervals_dia():
    lo, hi = DIA.dim_intervals()[0].lo, DIA.dim_intervals()[0].hi
    assert print_expr(lo) == "-(N1 - 1)"
    assert print_expr(hi) == "N2 - 1"


def test_concrete_dim_extents():
    assert CSR.concrete_dim_extents((4, 6)) == (4, 6)
    assert CSC.concrete_dim_extents((4, 6)) == (6, 4)
    assert DIA.concrete_dim_extents((4, 6)) == (9, 4, 6)
    assert ELL.concrete_dim_extents((4, 6)) == (None, 4, 6)  # counter dim
    assert BCSR(2, 3).concrete_dim_extents((4, 6)) == (2, 2, 2, 3)


def test_concrete_dim_lo():
    assert DIA.concrete_dim_lo((4, 6))[0] == -3
    assert CSR.concrete_dim_lo((4, 6)) == (0, 0)


def test_param_exprs_are_constants():
    params = BCSR(2, 3).param_exprs()
    assert print_expr(params["M"]) == "2" and print_expr(params["N"]) == "3"


def test_dim_size_vars():
    assert [v.name for v in dim_size_vars(3)] == ["N1", "N2", "N3"]


def test_str_and_repr():
    assert str(CSR) == "CSR"
    assert "CSR" in repr(CSR)


def test_custom_format_via_remap_object():
    fmt = Format(
        name="T",
        remap=parse_remap("(i,j) -> (j, i)"),
        levels=(DenseLevel(), CompressedLevel()),
        inverse=parse_remap("(j,i) -> (i, j)"),
    )
    assert fmt.order == 2
    assert fmt.concrete_dim_extents((3, 7)) == (7, 3)


def test_signature_memo_matches_a_fresh_rebuild():
    """``signature()`` is memoized on the frozen format: the memo equals
    the string a fresh instance builds, and renamed structural twins keep
    distinct signatures (the name is part of it)."""
    from dataclasses import replace

    for fmt in (COO, CSR, CSC, DIA, ELL, BCSR(2, 3), HICOO(4), SKY):
        first = fmt.signature()
        assert fmt.signature() is first  # memoized, not rebuilt
        fresh = Format(fmt.name, fmt.remap, fmt.levels, fmt.inverse,
                       dict(fmt.params))
        assert "_signature_memo" not in fresh.__dict__
        assert fresh.signature() == first
        twin = replace(fmt, name=fmt.name + "_twin")
        assert twin.signature() != first
        assert twin.signature() == first.replace(fmt.name, twin.name, 1)
        assert twin == replace(fresh, name=twin.name)  # memo not compared
