"""Banded level format: the column dimension of the skyline format.

The skyline format (Figure 11 bottom; MKL's ``sky`` [24]) stores, for every
row, all components between the row's first nonzero and the diagonal.  The
level keeps a ``pos`` array like compressed but no ``crd``: coordinates are
implicit from the segment layout, where the *last* element of row ``i``'s
segment is column ``i`` (``get_pos`` indexes backwards from
``pos[p+1]``).  Assembly needs the ``min`` attribute query (the first
nonzero of each row).
"""

from __future__ import annotations

from ..ir import builder as b
from ..ir.nodes import Alloc, Assign, ExprStmt, For, Store, Var
from ..ir.simplify import simplify_expr
from ..query.spec import QuerySpec
from .base import Level
from .compressed import check_pos


class BandedLevel(Level):
    """Implicit level storing a contiguous band ending at the diagonal."""

    name = "banded"
    full = False
    ordered = True
    unique = True
    branchless = False
    compact = True
    has_edges = True
    pos_kind = "get"
    vector_capable = True
    stores_explicit_zeros = True
    introduces_padding = True

    # -- vector emission ------------------------------------------------------
    def vector_iterate(self, em, view, k, frontier):
        pos_arr = view.array(k, "pos").name
        ends = em.assign(
            "ends", f"{pos_arr}[{frontier.lo_plus1()}:{frontier.hi_plus1()}]"
        )
        reps = em.assign(
            "ln", f"{ends.name} - {pos_arr}[{frontier.lo}:{frontier.hi}]"
        )
        end_rep = em.assign("ends_r", f"np.repeat({ends.name}, {reps.name})")
        prev = frontier.coords[k - 1]
        frontier.repeat_coords(reps.name)
        frontier.rebound(f"{pos_arr}[{frontier.lo}]", f"{pos_arr}[{frontier.hi}]")
        positions = frontier.pos_array(f"p{k + 1}")
        # column = i - (segment_end - 1 - p), like the scalar derivation
        coord = em.assign(
            view.coord_name(k),
            f"{prev.name} + {positions.name} - {end_rep.name} + 1",
        )
        frontier.coords.append(coord)

    def vector_edges(self, em, ctx, k, parents, parent_size):
        from ..ir.printer import print_expr

        width = simplify_expr(
            b.add(
                b.sub(parents.coords[k - 1], ctx.query(k, "w").at(list(parents.coords))),
                1,
            )
        )
        counts = em.assign("cnt", f"np.maximum({print_expr(width)}, 0)")
        em.emit_edges_from_counts(ctx.array(k, "pos"), counts, parent_size)

    # -- iteration ----------------------------------------------------------
    def emit_iteration(self, ctx, k, parent_pos, ancestors, body):
        pos_arr = ctx.array(k, "pos")
        pos = Var(ctx.ng.fresh(f"p{k + 1}"))
        coord = Var(ctx.ng.fresh(ctx.coord_name(k)))
        end = b.load(pos_arr, simplify_expr(b.add(parent_pos, 1)))
        # column = i - (segment_end - 1 - p)
        derived = simplify_expr(
            b.add(ancestors[k - 1], b.add(b.sub(pos, end), 1))
        )
        inner = b.block([Assign(coord, derived), body(pos, coord)])
        return For(pos, b.load(pos_arr, parent_pos), end, inner)

    def iterate(self, view, k, parent_pos, ancestors):
        pos_arr = view.array(k, "pos")
        end = int(pos_arr[parent_pos + 1])
        for pos in range(int(pos_arr[parent_pos]), end):
            yield pos, ancestors[k - 1] + pos - end + 1

    def check(self, view, k, parent_size):
        return int(check_pos(view, k, parent_size)[parent_size])

    # -- assembly -------------------------------------------------------------
    def queries(self, k, ndims):
        # First nonzero of each row (Figure 11: select [...] -> min(ik) as w).
        return (QuerySpec(tuple(range(k)), "min", (k,), "w"),)

    def emit_get_size(self, ctx, k, parent_size):
        return [], b.load(ctx.array(k, "pos"), parent_size)

    def _band_width(self, ctx, k, coords):
        # max(i_{k-1} - w + 1, 0): rows whose first nonzero lies past the
        # diagonal (or empty rows, where the min query yields N) store nothing.
        width = b.add(b.sub(coords[k - 1], ctx.query(k, "w").at(coords)), 1)
        return b.maximum(simplify_expr(width), 0)

    def emit_seq_init_edges(self, ctx, k, parent_size):
        pos_arr = ctx.array(k, "pos")
        return [
            Alloc(pos_arr, simplify_expr(b.add(parent_size, 1)), "int64", "empty"),
            Store(pos_arr, b.const(0), b.const(0)),
        ]

    def emit_seq_insert_edges(self, ctx, k, parent_pos, coords):
        pos_arr = ctx.array(k, "pos")
        return [
            Store(
                pos_arr,
                simplify_expr(b.add(parent_pos, 1)),
                b.add(b.load(pos_arr, parent_pos), self._band_width(ctx, k, coords)),
            )
        ]

    def emit_unseq_init_edges(self, ctx, k, parent_size):
        pos_arr = ctx.array(k, "pos")
        return [Alloc(pos_arr, simplify_expr(b.add(parent_size, 1)), "int64", "zeros")]

    def emit_unseq_insert_edges(self, ctx, k, parent_pos, coords):
        pos_arr = ctx.array(k, "pos")
        return [
            Store(
                pos_arr,
                simplify_expr(b.add(parent_pos, 1)),
                self._band_width(ctx, k, coords),
            )
        ]

    def emit_unseq_finalize_edges(self, ctx, k, parent_size):
        pos_arr = ctx.array(k, "pos")
        return [
            ExprStmt(b.call("prefix_sum", pos_arr, simplify_expr(b.add(parent_size, 1))))
        ]

    def emit_pos(self, ctx, k, parent_pos, coords):
        # get_pos: pos[p+1] + j - i - 1 (Figure 11 bottom).
        pos_arr = ctx.array(k, "pos")
        end = b.load(pos_arr, simplify_expr(b.add(parent_pos, 1)))
        return [], simplify_expr(
            b.sub(b.add(end, b.sub(coords[k], coords[k - 1])), 1)
        )
