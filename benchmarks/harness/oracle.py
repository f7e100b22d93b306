"""Correctness oracle, independent of the generator under test.

Two checks, both on plain numpy arrays (this module imports neither
``repro`` nor any generated kernel):

* **decoders** turn the storage arrays of a result — COO / CSR / CSC /
  DIA / ELL / HASH / COO3 / CSF — back into canonical triplets
  (coordinates sorted lexicographically, values aligned) and require
  exact equality with the triplets the workload generator produced;
* where scipy has the format (CSR, CSC, DIA, COO), the result must also
  equal, array for array, what **scipy's own conversion** of the same
  triplets yields (after scipy's own ``sort_indices`` canonicalisation,
  since the generated kernels keep source order within a row).

:func:`check_result` returns a list of problems — empty means correct —
so callers count a failure without an exception crossing a timed loop.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

try:  # the scipy yardstick is optional; the decoders are not
    import scipy.sparse as _sparse
except ImportError:  # pragma: no cover - exercised on scipy-less hosts
    _sparse = None

Arrays = Dict[Tuple[int, str], np.ndarray]
Meta = Dict[Tuple[int, str], int]


class OracleError(ValueError):
    """A result's storage arrays are not even structurally decodable."""


def _segments(pos: np.ndarray, parents: int, children: int,
              what: str) -> np.ndarray:
    """Parent index of every child under a ``pos`` array, validating the
    compressed-level invariants on the way."""
    pos = np.asarray(pos)
    if len(pos) != parents + 1:
        raise OracleError(f"{what}: pos has {len(pos)} entries, "
                          f"expected {parents + 1}")
    if parents and (pos[0] != 0 or np.any(np.diff(pos) < 0)):
        raise OracleError(f"{what}: pos is not a monotone offset array")
    if int(pos[-1]) != children:
        raise OracleError(f"{what}: pos[-1] == {int(pos[-1])} but the "
                          f"level stores {children} children")
    return np.repeat(np.arange(parents, dtype=np.int64), np.diff(pos))


def decode(fmt: str, dims, arrays: Arrays, meta: Meta, vals: np.ndarray):
    """Storage arrays -> unsorted ``(coords[nnz, order], vals[nnz])``."""
    vals = np.asarray(vals)
    if fmt in ("COO", "COO3"):
        order = len(dims)
        cols = [np.asarray(arrays[(k, "crd")]) for k in range(order)]
        if any(len(c) != len(vals) for c in cols):
            raise OracleError(f"{fmt}: crd/vals lengths disagree")
        return np.stack(cols, axis=1).astype(np.int64), vals
    if fmt in ("CSR", "CSC"):
        outer_dim = dims[0] if fmt == "CSR" else dims[1]
        inner = np.asarray(arrays[(1, "crd")])
        if len(inner) != len(vals):
            raise OracleError(f"{fmt}: crd/vals lengths disagree")
        outer = _segments(arrays[(1, "pos")], outer_dim, len(vals), fmt)
        pair = (outer, inner) if fmt == "CSR" else (inner, outer)
        return np.stack(pair, axis=1).astype(np.int64), vals
    if fmt == "DIA":
        nrows = dims[0]
        offsets = np.asarray(arrays[(0, "perm")])
        count = int(meta[(0, "K")])
        if len(offsets) != count or len(vals) != count * nrows:
            raise OracleError("DIA: perm/K/vals sizes disagree")
        if np.any(np.diff(offsets) <= 0):
            raise OracleError("DIA: offsets not strictly increasing")
        rows = np.tile(np.arange(nrows, dtype=np.int64), count)
        cols = rows + np.repeat(offsets.astype(np.int64), nrows)
        stored = vals != 0.0
        if np.any((cols[stored] < 0) | (cols[stored] >= dims[1])):
            raise OracleError("DIA: stored entry outside the matrix")
        return np.stack([rows[stored], cols[stored]], axis=1), vals[stored]
    if fmt == "ELL":
        nrows = dims[0]
        count = int(meta[(0, "K")])
        crd = np.asarray(arrays[(2, "crd")])
        if len(crd) != count * nrows or len(vals) != count * nrows:
            raise OracleError("ELL: K/crd/vals sizes disagree")
        rows = np.tile(np.arange(nrows, dtype=np.int64), count)
        stored = vals != 0.0
        return (np.stack([rows[stored], crd[stored]], axis=1).astype(np.int64),
                vals[stored])
    if fmt == "HASH":
        width = int(meta[(1, "W")])
        crd = np.asarray(arrays[(1, "crd")])
        if len(crd) != dims[0] * width or len(vals) != len(crd):
            raise OracleError("HASH: W/crd/vals sizes disagree")
        stored = crd >= 0
        rows = np.repeat(np.arange(dims[0], dtype=np.int64), width)
        return (np.stack([rows[stored], crd[stored]], axis=1).astype(np.int64),
                vals[stored])
    if fmt == "CSF":
        mid = np.asarray(arrays[(1, "crd")])
        leaf = np.asarray(arrays[(2, "crd")])
        if len(leaf) != len(vals):
            raise OracleError("CSF: crd/vals lengths disagree")
        fiber_i = _segments(arrays[(1, "pos")], dims[0], len(mid), "CSF level 1")
        fiber = _segments(arrays[(2, "pos")], len(mid), len(leaf), "CSF level 2")
        return (np.stack([fiber_i[fiber], mid[fiber], leaf], axis=1)
                .astype(np.int64), vals)
    raise OracleError(f"no decoder for format {fmt!r}")


def canonical(coords: np.ndarray, vals: np.ndarray):
    """Sort triplets lexicographically by coordinate."""
    order = np.lexsort(tuple(coords[:, k] for k in reversed(range(coords.shape[1]))))
    return coords[order], vals[order]


def _scipy_reference(fmt: str, dims, coords, vals):
    coo = _sparse.coo_matrix((vals, (coords[:, 0], coords[:, 1])), shape=dims)
    return {"CSR": coo.tocsr, "CSC": coo.tocsc, "DIA": coo.todia,
            "COO": coo.tocoo}[fmt]()


def _check_scipy(fmt: str, dims, arrays: Arrays, meta: Meta, vals,
                 coords, sorted_vals) -> List[str]:
    """Exact array equality with scipy's own conversion of the expected
    triplets (matrix formats scipy implements, square DIA only)."""
    if fmt == "DIA" and (dims[0] != dims[1] or len(sorted_vals) == 0):
        return []
    ref = _scipy_reference(fmt, dims, coords, sorted_vals)
    if fmt in ("CSR", "CSC"):
        cls = _sparse.csr_matrix if fmt == "CSR" else _sparse.csc_matrix
        mine = cls((np.array(vals), np.array(arrays[(1, "crd")]),
                    np.array(arrays[(1, "pos")])), shape=dims)
        mine.sort_indices()
        ref.sort_indices()
        same = (np.array_equal(mine.indptr, ref.indptr)
                and np.array_equal(mine.indices, ref.indices)
                and np.array_equal(mine.data, ref.data))
        return [] if same else [f"{fmt} arrays differ from scipy's"]
    if fmt == "DIA":
        n = dims[0]
        offsets = np.asarray(arrays[(0, "perm")])
        if not np.array_equal(offsets, ref.offsets):
            return ["DIA offsets differ from scipy's todia()"]
        mine = np.zeros((len(offsets), n))
        by_row = np.asarray(vals).reshape(len(offsets), n)
        for p, off in enumerate(int(o) for o in offsets):
            if off >= 0:  # scipy indexes a diagonal by column, we by row
                mine[p, off:] = by_row[p, :n - off]
            else:
                mine[p, :n + off] = by_row[p, -off:]
        same = np.array_equal(mine, ref.data[:, :n])
        return [] if same else ["DIA data differs from scipy's todia()"]
    got = canonical(*decode(fmt, dims, arrays, meta, vals))
    ref.sum_duplicates()  # scipy's canonical (row-major sorted) COO
    same = (np.array_equal(got[0][:, 0], ref.row)
            and np.array_equal(got[0][:, 1], ref.col)
            and np.array_equal(got[1], ref.data))
    return [] if same else ["COO triplets differ from scipy's"]


def check_result(fmt: str, dims, arrays: Arrays, meta: Meta, vals,
                 coords: np.ndarray, sorted_vals: np.ndarray) -> List[str]:
    """Problems with a conversion result; ``[]`` means it is correct.

    ``coords`` / ``sorted_vals`` are the generator's canonical triplets.
    """
    try:
        got_coords, got_vals = canonical(*decode(fmt, dims, arrays, meta, vals))
    except (OracleError, KeyError, IndexError, ValueError) as exc:
        return [f"undecodable {fmt} result: {exc}"]
    problems = []
    if got_coords.shape != coords.shape:
        problems.append(f"{fmt}: {len(got_vals)} stored entries, "
                        f"expected {len(sorted_vals)}")
    elif not np.array_equal(got_coords, coords):
        problems.append(f"{fmt}: coordinates differ from the generator's")
    elif not np.array_equal(got_vals, sorted_vals):
        problems.append(f"{fmt}: values differ from the generator's")
    if not problems and _sparse is not None and fmt in ("CSR", "CSC", "DIA", "COO"):
        problems.extend(
            _check_scipy(fmt, tuple(dims), arrays, meta, vals, coords, sorted_vals)
        )
    return problems


def check_spmv(y, coords: np.ndarray, sorted_vals: np.ndarray, x,
               nrows: int) -> List[str]:
    """``y = A @ x`` against a numpy row-sum of the expected triplets
    (summation order differs between kernels, hence a tolerance set from
    float64 and the at-most-five terms per row)."""
    expected = np.bincount(coords[:, 0], weights=sorted_vals * x[coords[:, 1]],
                           minlength=nrows)
    y = np.asarray(y)
    if y.shape != expected.shape:
        return [f"spmv: result shape {y.shape}, expected {expected.shape}"]
    if not np.allclose(y, expected, rtol=1e-12, atol=1e-12):
        return ["spmv: result differs from the numpy row-sum"]
    return []


def scipy_available() -> bool:
    return _sparse is not None
