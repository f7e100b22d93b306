"""Compressed level format: ``pos``/``crd`` arrays (Figures 4 and 11).

Stores the coordinates of nonempty slices in ``crd``, with ``pos`` mapping
each parent position to its segment of ``crd``.  The column dimension of
CSR and the row dimension of COO both use this level (the latter with
``unique=False`` because COO stores duplicate row coordinates — one per
nonzero).
"""

from __future__ import annotations

import numpy as np

from ..ir import builder as b
from ..ir.nodes import Alloc, Assign, ExprStmt, For, Store, Var
from ..ir.simplify import simplify_expr
from ..query.spec import QuerySpec
from .base import Level


class CompressedLevel(Level):
    """Explicit level with position (``pos``) and coordinate (``crd``) arrays."""

    name = "compressed"
    full = False
    branchless = False
    compact = True
    has_edges = True
    pos_kind = "yield"
    explicit_coords = True
    vector_capable = True
    composes_widths = True

    def __init__(self, unique: bool = True, ordered: bool = True) -> None:
        self.unique = unique
        self.ordered = ordered

    def signature(self) -> str:
        flags = []
        if not self.unique:
            flags.append("¬unique")
        if not self.ordered:
            flags.append("¬ordered")
        return self.name + ("{" + ",".join(flags) + "}" if flags else "")

    # -- iteration ----------------------------------------------------------
    def emit_iteration(self, ctx, k, parent_pos, ancestors, body):
        pos_arr = ctx.array(k, "pos")
        crd_arr = ctx.array(k, "crd")
        pos = Var(ctx.ng.fresh(f"p{k + 1}"))
        coord = Var(ctx.ng.fresh(ctx.coord_name(k)))
        inner = b.block([Assign(coord, b.load(crd_arr, pos)), body(pos, coord)])
        return For(
            pos,
            b.load(pos_arr, parent_pos),
            b.load(pos_arr, simplify_expr(b.add(parent_pos, 1))),
            inner,
        )

    def iterate(self, view, k, parent_pos, ancestors):
        pos_arr = view.array(k, "pos")
        crd_arr = view.array(k, "crd")
        for pos in range(pos_arr[parent_pos], pos_arr[parent_pos + 1]):
            yield pos, int(crd_arr[pos])

    def check(self, view, k, parent_size):
        from ..formats.format import FormatError

        pos = check_pos(view, k, parent_size)
        if len(view.array(k, "crd")) < pos[-1]:
            raise FormatError(f"level {k}: crd shorter than pos[-1]")
        return int(pos[parent_size])

    # -- vector emission ------------------------------------------------------
    def vector_iterate(self, em, view, k, frontier):
        frontier.expand_segments(view.array(k, "pos").name)
        coord = em.assign(
            view.coord_name(k), frontier.slice(view.array(k, "crd").name)
        )
        frontier.coords.append(coord)

    def width_step(self, view, k, start, end):
        pos_arr = view.array(k, "pos")
        return b.load(pos_arr, start), b.load(pos_arr, end)

    def vector_edges(self, em, ctx, k, parents, parent_size):
        pos_arr = ctx.array(k, "pos")
        handle = ctx.query(k, "nir")
        if parents is None:
            total = em.atom(handle.at(()))
            em.emit(f"{pos_arr.name} = np.array([0, {total}], dtype=np.int64)")
            return
        counts = em.bind("cnt", handle.at(list(parents.coords)))
        em.emit_edges_from_counts(pos_arr, counts, parent_size)

    def vector_pos(self, em, ctx, k, parent, coords):
        """Bulk ``yield_pos``: edge offset plus the nonzero's rank among
        same-parent insertions in source order (``group_ranks`` replays
        the sequenced position bump).  Deduplicated levels (Section 6.2)
        assign positions at first occurrences only and share them through
        the lookup table, exactly like the scalar dedup path."""
        pos_arr = ctx.array(k, "pos").name
        if em.dedup:
            shifted = simplify_expr(b.sub(coords[k], ctx.dim_lo(k)))
            if parent is None:
                key = em.bind("key", shifted)
            else:
                key = em.assign(
                    "key",
                    f"{parent.name} * {em.atom(ctx.dim_size(k))}"
                    f" + {em.atom(shifted)}",
                )
            first = em.assign("first", f"unique_first({key.name})")
            table_size = simplify_expr(b.mul(em.parent_size, ctx.dim_size(k)))
            table = em.assign(
                f"B{k + 1}_lookup",
                f"np.empty({em.atom(table_size)}, dtype=np.int64)",
            )
            if parent is None:
                fpos = em.assign(
                    "fpos", f"np.arange({first.name}.shape[0], dtype=np.int64)"
                )
            else:
                pf = em.assign("pf", f"{parent.name}[{first.name}]")
                fpos = em.assign(
                    "fpos", f"{pos_arr}[{pf.name}] + group_ranks({pf.name})"
                )
            em.emit(f"{table.name}[{key.name}[{first.name}]] = {fpos.name}")
            return em.assign(f"pB{k + 1}", f"{table.name}[{key.name}]")
        if parent is None:
            return em.assign(f"pB{k + 1}", f"np.arange({em.nnz}, dtype=np.int64)")
        return em.assign(
            f"pB{k + 1}", f"{pos_arr}[{parent.name}] + group_ranks({parent.name})"
        )

    # -- assembly -------------------------------------------------------------
    def queries(self, k, ndims):
        # A unique level needs the number of *distinct* child coordinates
        # per parent; a non-unique level (COO) allocates one slot per stored
        # path, i.e. counts over all remaining dimensions.
        args = (k,) if self.unique else tuple(range(k, ndims))
        return (QuerySpec(tuple(range(k)), "count", args, "nir"),)

    def emit_get_size(self, ctx, k, parent_size):
        return [], b.load(ctx.array(k, "pos"), parent_size)

    # edge insertion -------------------------------------------------------
    def emit_seq_init_edges(self, ctx, k, parent_size):
        pos_arr = ctx.array(k, "pos")
        return [
            Alloc(pos_arr, simplify_expr(b.add(parent_size, 1)), "int64", "empty"),
            Store(pos_arr, b.const(0), b.const(0)),
        ]

    def emit_seq_insert_edges(self, ctx, k, parent_pos, coords):
        pos_arr = ctx.array(k, "pos")
        count = ctx.query(k, "nir").at(coords)
        return [
            Store(
                pos_arr,
                simplify_expr(b.add(parent_pos, 1)),
                b.add(b.load(pos_arr, parent_pos), count),
            )
        ]

    def emit_unseq_init_edges(self, ctx, k, parent_size):
        pos_arr = ctx.array(k, "pos")
        return [Alloc(pos_arr, simplify_expr(b.add(parent_size, 1)), "int64", "zeros")]

    def emit_unseq_insert_edges(self, ctx, k, parent_pos, coords):
        pos_arr = ctx.array(k, "pos")
        count = ctx.query(k, "nir").at(coords)
        return [Store(pos_arr, simplify_expr(b.add(parent_pos, 1)), count)]

    def emit_unseq_finalize_edges(self, ctx, k, parent_size):
        pos_arr = ctx.array(k, "pos")
        return [
            ExprStmt(b.call("prefix_sum", pos_arr, simplify_expr(b.add(parent_size, 1))))
        ]

    # coordinate insertion ---------------------------------------------------
    def emit_init_coords(self, ctx, k, parent_size):
        crd_arr = ctx.array(k, "crd")
        nnz = b.load(ctx.array(k, "pos"), parent_size)
        return [Alloc(crd_arr, nnz, "int64", "empty")]

    def emit_pos(self, ctx, k, parent_pos, coords):
        # yield_pos: return pos[p_{k-1}]++ (Figure 11 middle).
        pos_arr = ctx.array(k, "pos")
        pos = Var(ctx.ng.fresh(f"pB{k + 1}"))
        return (
            [
                Assign(pos, b.load(pos_arr, parent_pos)),
                b.aug_store(pos_arr, parent_pos, "+", 1),
            ],
            pos,
        )

    def emit_finalize_pos(self, ctx, k, parent_size):
        # Shift the bumped pos array back (Figure 11's finalize_yield_pos,
        # lines 22-25 of Figure 6c).
        pos_arr = ctx.array(k, "pos")
        i = Var(ctx.ng.fresh("i"))
        shift = For(
            i,
            b.const(0),
            parent_size,
            Store(
                pos_arr,
                b.sub(parent_size, i),
                b.load(pos_arr, simplify_expr(b.sub(b.sub(parent_size, i), 1))),
            ),
        )
        return [shift, Store(pos_arr, b.const(0), b.const(0))]

    def emit_insert_coord(self, ctx, k, pos, coords):
        return [Store(ctx.array(k, "crd"), pos, coords[k])]


def check_pos(view, k, parent_size):
    """Validate the ``pos`` array shared by compressed and banded levels."""
    from ..formats.format import FormatError

    pos = view.array(k, "pos")
    if len(pos) != parent_size + 1:
        raise FormatError(f"level {k}: pos length {len(pos)} != {parent_size + 1}")
    if pos[0] != 0:
        raise FormatError(f"level {k}: pos[0] == {pos[0]} != 0")
    if np.any(np.diff(pos) < 0):
        raise FormatError(f"level {k}: pos not monotone")
    return pos
