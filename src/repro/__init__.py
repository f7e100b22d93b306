"""repro — reproduction of *Automatic Generation of Efficient Sparse Tensor
Format Conversion Routines* (Chou, Kjolstad, Amarasinghe; PLDI 2020).

The library generates conversion routines between sparse tensor formats
from three per-format specifications, exactly as the paper describes:

* a **coordinate remapping** (:mod:`repro.remap`) describing how the format
  groups and orders nonzeros;
* **attribute queries** (:mod:`repro.query`) describing the statistics its
  assembly needs, compiled through concrete index notation
  (:mod:`repro.cin`) with the Table 1 optimizations;
* **level formats** (:mod:`repro.levels`) implementing the iteration and
  assembly level-function interfaces.

Quickstart::

    import repro
    from repro.formats import COO, CSR, DIA

    coo = repro.build(COO, dims=(4, 6), coords=[(0, 0), (3, 4)], vals=[5.0, 1.0])
    csr = repro.convert(coo, CSR)
    dia = repro.convert(csr, DIA)
    print(repro.generated_source(CSR, DIA))   # the generated routine
"""

from .convert import (
    CompiledConversion,
    ConversionEngine,
    ConversionPlan,
    PlanError,
    PlanOptions,
    convert,
    default_engine,
    generated_source,
    make_converter,
)
from .formats import (
    Format,
    FormatError,
    get_format,
    make_format,
    parse_format_spec,
    register_format,
)
from .query import QuerySpec, evaluate_query, parse_queries
from .remap import Remap, parse_remap
from .storage import Tensor, from_dense, reference_build
from .stream import StreamResult, convert_file, load_result

__version__ = "1.0.0"


def build(format, dims, coords, vals):
    """Build a tensor in ``format`` from coordinate/value lists.

    Uses the hand-written reference builders (:mod:`repro.storage.build`);
    equivalent tensors can also be produced by converting from COO with
    generated code.
    """
    return reference_build(format, dims, coords, vals)


__all__ = [
    "CompiledConversion",
    "ConversionEngine",
    "ConversionPlan",
    "Format",
    "FormatError",
    "PlanError",
    "PlanOptions",
    "QuerySpec",
    "Remap",
    "StreamResult",
    "Tensor",
    "build",
    "convert",
    "convert_file",
    "default_engine",
    "evaluate_query",
    "from_dense",
    "generated_source",
    "get_format",
    "load_result",
    "make_converter",
    "make_format",
    "parse_format_spec",
    "parse_remap",
    "parse_queries",
    "reference_build",
    "register_format",
]
