"""Seeded workload inputs — numpy only, nothing from the program under test.

Every generator returns *raw arrays* in the storage layout of one format
(the ``arrays`` / ``meta`` / ``vals`` triple a ``Tensor`` is built from)
plus the **canonical triplets** of the same data: coordinates sorted
lexicographically with their values.  The oracle compares decoded
results against those triplets, so the expected answer never passes
through a generated kernel.

The structure of every input is fixed by its size; the seed only draws
the values and the shuffles.  That keeps the work per operation equal
across seeds, so run-to-run spread measures the host, not the input.
Values are drawn from ``[0.5, 1.5)``: never zero, so the padding zeros
of DIA/ELL can be told from stored entries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

I64 = np.int64


@dataclass
class Raw:
    """One input in storage layout plus its canonical triplets."""

    format: str
    dims: Tuple[int, ...]
    arrays: Dict[Tuple[int, str], np.ndarray]
    meta: Dict[Tuple[int, str], int]
    vals: np.ndarray
    #: (nnz, order) int64 coordinates, lexicographically sorted
    coords: np.ndarray
    #: values aligned with ``coords``
    sorted_vals: np.ndarray

    @property
    def nnz(self) -> int:
        return int(len(self.sorted_vals))


def stencil(n: int, m: int, rng: np.random.Generator):
    """Row-major sorted 5-point stencil on ``n`` unknowns with stride
    ``m`` (offsets ``-m, -1, 0, 1, m``): ``5n - 2 - 2m`` nonzeros, five
    diagonals, at most five per row — the chem_master1 shape."""
    i = np.arange(n, dtype=I64)
    rows = np.repeat(i, 5)
    cols = rows + np.tile(np.array([-m, -1, 0, 1, m], dtype=I64), n)
    keep = (cols >= 0) & (cols < n)
    rows, cols = rows[keep], cols[keep]
    vals = rng.uniform(0.5, 1.5, len(rows))
    return rows, cols, vals


def _coo_arrays(rows, cols, nnz):
    return {
        (0, "pos"): np.array([0, nnz], dtype=I64),
        (0, "crd"): rows,
        (1, "crd"): cols,
    }


def coo_matrix(n: int, m: int, rng, shuffled: bool = False) -> Raw:
    rows, cols, vals = stencil(n, m, rng)
    coords = np.stack([rows, cols], axis=1)
    if shuffled:
        perm = rng.permutation(len(vals))
        stored = (rows[perm], cols[perm], vals[perm])
    else:
        stored = (rows, cols, vals)
    return Raw("COO", (n, n), _coo_arrays(stored[0], stored[1], len(vals)),
               {}, stored[2], coords, vals)


def empty_coo(n: int) -> Raw:
    none = np.zeros(0, dtype=I64)
    return Raw("COO", (n, n), _coo_arrays(none, none.copy(), 0), {},
               np.zeros(0), np.zeros((0, 2), dtype=I64), np.zeros(0))


def csr_matrix(n: int, m: int, rng) -> Raw:
    rows, cols, vals = stencil(n, m, rng)
    pos = np.zeros(n + 1, dtype=I64)
    np.cumsum(np.bincount(rows, minlength=n), out=pos[1:])
    return Raw("CSR", (n, n), {(1, "pos"): pos, (1, "crd"): cols}, {}, vals,
               np.stack([rows, cols], axis=1), vals)


def hash_matrix(n: int, m: int, rng) -> Raw:
    """The stencil in the HASH layout: per-row open-addressing tables of
    width ``next_pow2(2 * max row degree)``, slot ``j % W`` with linear
    probing, rows filled in column order.  One vectorised round per
    within-row rank (a round holds at most one entry per row, so its
    probes never collide with each other)."""
    rows, cols, vals = stencil(n, m, rng)
    counts = np.bincount(rows, minlength=n)
    width = 1
    while width < 2 * int(counts.max()):
        width *= 2
    starts = np.zeros(n, dtype=I64)
    np.cumsum(counts[:-1], out=starts[1:])
    rank = np.arange(len(rows), dtype=I64) - starts[rows]
    crd = np.full(n * width, -1, dtype=I64)
    table_vals = np.zeros(n * width)
    for r in range(int(counts.max())):
        idx = np.flatnonzero(rank == r)
        slot = cols[idx] % width
        while len(idx):
            at = rows[idx] * width + slot
            free = crd[at] < 0
            crd[at[free]] = cols[idx[free]]
            table_vals[at[free]] = vals[idx[free]]
            idx, slot = idx[~free], (slot[~free] + 1) % width
    return Raw("HASH", (n, n), {(1, "crd"): crd}, {(1, "W"): width},
               table_vals, np.stack([rows, cols], axis=1), vals)


def coo3_tensor(dims: Tuple[int, int, int], nnz: int, rng) -> Raw:
    """Uniform random third-order COO in drawn (unsorted) order; repeated
    draws are dropped, so ``nnz`` is a target met to within ~0.2 %."""
    d0, d1, d2 = dims
    keys = np.unique(rng.integers(0, d0 * d1 * d2, size=nnz, dtype=I64))
    vals = rng.uniform(0.5, 1.5, len(keys))
    coords = np.stack([keys // (d1 * d2), (keys // d2) % d1, keys % d2],
                      axis=1)
    perm = rng.permutation(len(keys))
    stored = coords[perm]
    arrays = {
        (0, "pos"): np.array([0, len(keys)], dtype=I64),
        (0, "crd"): np.ascontiguousarray(stored[:, 0]),
        (1, "crd"): np.ascontiguousarray(stored[:, 1]),
        (2, "crd"): np.ascontiguousarray(stored[:, 2]),
    }
    return Raw("COO3", dims, arrays, {}, vals[perm], coords, vals)


def write_reprocoo(path: str, raw: Raw) -> int:
    """Write a COO ``Raw`` as a REPROCOO v1 stream (magic, version,
    order, dims, nnz, then columnar little-endian int64 coordinates and
    float64 values); returns the file size in bytes."""
    order = len(raw.dims)
    with open(path, "wb") as handle:
        handle.write(struct.pack("<8sqq", b"REPROCOO", 1, order))
        handle.write(struct.pack(f"<{order + 1}q", *raw.dims, len(raw.vals)))
        for k in range(order):
            raw.arrays[(k, "crd")].astype("<i8", copy=False).tofile(handle)
        raw.vals.astype("<f8", copy=False).tofile(handle)
        return handle.tell()
