"""Table 3 reproduction: normalized conversion times for seven format pairs.

For every suite matrix and every source/target pair of the paper's
evaluation, times the generated routine (``taco w/ ext``) against the
baselines that exist for that pair, and reports baseline times normalized
to the generated routine — the exact layout of Table 3:

======== ==============================================================
column    implementations compared
======== ==============================================================
coo_csr   taco w/o ext (sort-based), SPARSKIT, MKL
coo_dia   SPARSKIT (via CSR), MKL (via CSR)
csr_csc   SPARSKIT, MKL                      (nonsymmetric matrices only)
csr_dia   SPARSKIT, MKL
csr_ell   SPARSKIT
csc_dia   SPARSKIT (via CSR), MKL (via CSR)  (symmetric → cast to csr_dia)
csc_ell   SPARSKIT (via CSR)                 (symmetric → cast to csr_ell)
======== ==============================================================

Matrices whose DIA/ELL representation would exceed 75 % padding are
omitted from those columns (Table 3's blank cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..baselines import mkl_like, scipy_ref, sparskit, taco_legacy
from ..convert import make_converter
from ..formats.library import BCSR, COO, CSC, CSR, DCSR, DIA, ELL, HASH
from ..matrices.suite import SuiteMatrix, suite
from .timing import format_table, geomean, time_call

COLUMNS = ["coo_csr", "coo_dia", "csr_csc", "csr_dia", "csr_ell", "csc_dia", "csc_ell"]

#: Pair-name vocabulary; wider than Table 3's columns because ``repro
#: serve-bench --pairs`` resolves its pair names here too.
_FORMATS = {
    "coo": COO,
    "csr": CSR,
    "csc": CSC,
    "dia": DIA,
    "ell": ELL,
    "bcsr": BCSR(4, 4),
    "dcsr": DCSR,
    "hash": HASH,
}


@dataclass
class CellResult:
    """One matrix × one column: our time and normalized baseline times."""

    matrix: str
    ours_seconds: float
    ratios: Dict[str, Optional[float]]


def applicable(column: str, entry: SuiteMatrix) -> bool:
    """Table 3's inclusion rules for a matrix in a column."""
    if column.endswith("dia") and entry.dia_padding_ratio() > 0.75:
        return False
    if column.endswith("ell") and entry.ell_padding_ratio() > 0.75:
        return False
    if column == "csr_csc" and entry.symmetric:
        return False
    return True


def _pair_formats(column: str, entry: SuiteMatrix):
    """The (src, dst) formats a column times for ``entry``.

    Symmetric matrices make CSC and CSR interchangeable; the paper casts
    CSC→DIA/ELL to CSR→DIA/ELL in that case.
    """
    src_name, dst_name = column.split("_")
    if src_name == "csc" and entry.symmetric:
        src_name = "csr"
    return _FORMATS[src_name], _FORMATS[dst_name]


def _ours(
    column: str, entry: SuiteMatrix, backend: str = "scalar"
) -> Callable[[], object]:
    src, dst = _pair_formats(column, entry)
    converter = make_converter(src, dst, backend=backend)
    args = converter.arguments(entry.tensor(src))
    return lambda: converter.func(*args)


def _baselines(column: str, entry: SuiteMatrix) -> Dict[str, Callable[[], object]]:
    nrow, ncol = entry.dims
    coo = entry.tensor(COO)
    rows_a, cols_a = coo.array(0, "crd"), coo.array(1, "crd")
    coo_vals = coo.vals

    def csr_args():
        csr = entry.tensor(CSR)
        return csr.array(1, "pos"), csr.array(1, "crd"), csr.vals

    def csc_args():
        csc = entry.tensor(CSC)
        return csc.array(1, "pos"), csc.array(1, "crd"), csc.vals

    have_scipy = scipy_ref.available()

    if column == "coo_csr":
        impls = {
            "taco w/o ext": lambda: taco_legacy.coocsr_sorting(nrow, rows_a, cols_a, coo_vals),
            "skit": lambda: sparskit.coocsr(nrow, rows_a, cols_a, coo_vals),
            "mkl": lambda: mkl_like.coocsr(nrow, rows_a, cols_a, coo_vals),
        }
        if have_scipy:
            impls["scipy"] = lambda: scipy_ref.coocsr(nrow, ncol, rows_a, cols_a, coo_vals)
        return impls
    if column == "coo_dia":
        impls = {
            "skit": lambda: sparskit.coodia_via_csr(nrow, ncol, rows_a, cols_a, coo_vals),
            "mkl": lambda: mkl_like.coodia_via_csr(nrow, ncol, rows_a, cols_a, coo_vals),
        }
        if have_scipy:
            impls["scipy"] = lambda: scipy_ref.coodia(nrow, ncol, rows_a, cols_a, coo_vals)
        return impls
    if column == "csr_csc":
        pos, crd, vals = csr_args()
        impls = {
            "skit": lambda: sparskit.csrcsc(nrow, ncol, pos, crd, vals),
            "mkl": lambda: mkl_like.csrcsc(nrow, ncol, pos, crd, vals),
        }
        if have_scipy:
            impls["scipy"] = lambda: scipy_ref.csrcsc(nrow, ncol, pos, crd, vals)
        return impls
    if column == "csr_dia":
        pos, crd, vals = csr_args()
        impls = {
            "skit": lambda: sparskit.csrdia(nrow, ncol, pos, crd, vals),
            "mkl": lambda: mkl_like.csrdia(nrow, ncol, pos, crd, vals),
        }
        if have_scipy:
            impls["scipy"] = lambda: scipy_ref.csrdia(nrow, ncol, pos, crd, vals)
        return impls
    if column == "csr_ell":
        pos, crd, vals = csr_args()
        return {"skit": lambda: sparskit.csrell(nrow, pos, crd, vals)}
    if column == "csc_dia":
        if entry.symmetric:
            pos, crd, vals = csr_args()
            impls = {
                "skit": lambda: sparskit.csrdia(nrow, ncol, pos, crd, vals),
                "mkl": lambda: mkl_like.csrdia(nrow, ncol, pos, crd, vals),
            }
            if have_scipy:
                impls["scipy"] = lambda: scipy_ref.csrdia(nrow, ncol, pos, crd, vals)
            return impls
        pos, crd, vals = csc_args()
        impls = {
            "skit": lambda: sparskit.cscdia_via_csr(nrow, ncol, pos, crd, vals),
            "mkl": lambda: mkl_like.cscdia_via_csr(nrow, ncol, pos, crd, vals),
        }
        if have_scipy:
            impls["scipy"] = lambda: scipy_ref.cscdia(nrow, ncol, pos, crd, vals)
        return impls
    if column == "csc_ell":
        if entry.symmetric:
            pos, crd, vals = csr_args()
            return {"skit": lambda: sparskit.csrell(nrow, pos, crd, vals)}
        pos, crd, vals = csc_args()
        return {"skit": lambda: sparskit.cscell_via_csr(nrow, ncol, pos, crd, vals)}
    raise KeyError(column)


def run_column(
    column: str, matrices: List[SuiteMatrix], repeats: int = 3
) -> List[CellResult]:
    """Time one Table 3 column over the suite."""
    results = []
    for entry in matrices:
        if not applicable(column, entry):
            continue
        ours = time_call(_ours(column, entry), repeats)
        ratios = {
            name: time_call(fn, repeats) / ours
            for name, fn in _baselines(column, entry).items()
        }
        results.append(CellResult(entry.name, ours, ratios))
    return results


def run_table3(
    matrices: Optional[List[SuiteMatrix]] = None,
    columns: Optional[List[str]] = None,
    repeats: int = 3,
) -> Dict[str, List[CellResult]]:
    """Run the full Table 3 sweep (or a subset of columns)."""
    matrices = matrices if matrices is not None else suite()
    return {
        column: run_column(column, matrices, repeats)
        for column in (columns or COLUMNS)
    }


def render_table3(results: Dict[str, List[CellResult]]) -> str:
    """Text rendering in Table 3's layout (ratios relative to ours = 1)."""
    out = []
    for column, cells in results.items():
        impl_names: List[str] = []
        for cell in cells:
            for name in cell.ratios:
                if name not in impl_names:
                    impl_names.append(name)
        headers = ["matrix", "taco w/ ext (ms)"] + impl_names
        rows = []
        for cell in cells:
            row = [cell.matrix, f"1 ({cell.ours_seconds * 1e3:.2f})"]
            row += [
                f"{cell.ratios[name]:.2f}" if name in cell.ratios else ""
                for name in impl_names
            ]
            rows.append(row)
        means = ["Geomean", "1"]
        for name in impl_names:
            mean = geomean([c.ratios.get(name) for c in cells])
            means.append(f"{mean:.2f}" if mean else "")
        rows.append(means)
        out.append(f"== {column} ==\n{format_table(headers, rows)}")
    return "\n\n".join(out)
