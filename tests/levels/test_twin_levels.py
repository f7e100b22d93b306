"""A level is asked, never named: a subclass of a stock level that differs
only in ``name`` plans, validates and converts exactly like the stock one.

Code generation, ``Tensor.check`` and the chunked executor consult the
level objects (``emit_get_size``, ``width_step``, ``composes_widths``,
``check``) rather than switching on ``level.name``; these tests pin that
for user-named compressed and singleton levels.
"""

import dataclasses
import warnings

import pytest

from repro.convert.engine import ConversionEngine
from repro.convert.native import plan_native
from repro.formats import FormatError, available_formats, get_format
from repro.formats.library import COO, CSR, DCSR, ELL
from repro.ir.native import detect_toolchain
from repro.levels import CompressedLevel, SingletonLevel
from repro.storage.build import reference_build
from repro.storage.tensor import Tensor

from ..convert.test_backends import assert_tensors_bit_identical

HAVE_CC = detect_toolchain() is not None

CELLS = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (2, 3),
         (3, 1), (3, 3), (3, 4)]
VALS = [5.0, 1.0, 7.0, 3.0, 8.0, 2.0, 4.0, 9.0, 6.0, 2.5]
DIMS = (6, 6)  # rows 4 and 5 empty: DCSR must skip them


class TwinCompressed(CompressedLevel):
    name = "twincompressed"


class TwinSingleton(SingletonLevel):
    name = "twinsingleton"


_TWINS = {CompressedLevel: TwinCompressed, SingletonLevel: TwinSingleton}


def twin(fmt):
    """``fmt`` with every compressed / singleton level swapped for its twin."""
    levels = tuple(
        _TWINS[type(level)](unique=level.unique, ordered=level.ordered)
        if type(level) in _TWINS else level
        for level in fmt.levels
    )
    return dataclasses.replace(fmt, name="TWIN_" + fmt.name, levels=levels)


def twin_tensor(fmt):
    """A reference-built ``fmt`` tensor re-wrapped in ``twin(fmt)``."""
    stock = reference_build(fmt, DIMS, CELLS, VALS)
    return Tensor(twin(fmt), stock.dims, stock.arrays, stock.metadata, stock.vals)


def _source(engine, src, dst, backend):
    if backend == "native":
        return plan_native(src, dst).source
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # scalar fallbacks
        return engine.generated_source(src, dst, backend=backend)


FORMATS = [fmt for _, fmt in sorted(available_formats().items())] + [
    get_format(spec) for spec in ("BCSR2x2", "BCSR4x4", "HICOO4", "HICOO8")
]
TWINNED_PAIRS = [
    (src, dst)
    for src in FORMATS
    for dst in FORMATS
    if src.order == dst.order
    and any(type(level) in _TWINS for level in (*src.levels, *dst.levels))
]


@pytest.mark.parametrize("backend", ["scalar", "vector", "native"])
def test_twin_levels_generate_the_stock_source(backend):
    if backend == "native" and not HAVE_CC:
        pytest.skip("no C toolchain")
    assert len(TWINNED_PAIRS) > 90
    engine = ConversionEngine()
    differ = []
    for src, dst in TWINNED_PAIRS:
        try:
            got = _source(engine, twin(src), twin(dst), backend)
        except Exception as exc:  # a planning failure is a difference too
            got = f"{type(exc).__name__}: {exc}"
        if got.replace("TWIN_", "") != _source(engine, src, dst, backend):
            differ.append(f"{src.name}->{dst.name}")
    assert differ == []


def test_twin_csr_to_ell_keeps_the_width_count_simplification():
    """Ablation A2: a CSR-shaped source counts row widths from ``pos``."""
    source = ConversionEngine().generated_source(twin(CSR), ELL, backend="scalar")
    assert "width = A2_pos[i + 1] - A2_pos[i]" in source


@pytest.mark.parametrize("backend", ["scalar", "native"])
@pytest.mark.parametrize("fmt", [CSR, COO], ids=lambda fmt: fmt.name)
def test_twin_to_dcsr_is_bit_identical_to_scalar(fmt, backend):
    if backend == "native" and not HAVE_CC:
        pytest.skip("no C toolchain")
    converter = ConversionEngine().make_converter(twin(fmt), DCSR, backend=backend)
    assert converter.backend == backend
    expected = ConversionEngine().make_converter(fmt, DCSR, backend="scalar")(
        reference_build(fmt, DIMS, CELLS, VALS)
    )
    assert_tensors_bit_identical(converter(twin_tensor(fmt)), expected)


def test_check_validates_twin_levels():
    twin_tensor(CSR).check()
    twin_tensor(COO).check()
    broken = twin_tensor(CSR)
    pos = broken.array(1, "pos")
    pos[2] = pos[1] - 1  # decrement row 1's end below its start
    with pytest.raises(FormatError, match="pos not monotone"):
        broken.check()
