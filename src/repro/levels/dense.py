"""Dense level format: implicitly encodes every coordinate in ``[0, N)``.

Stores only the dimension size ``N``.  Positions are computed as
``p_parent * N + i`` (the ``locate`` level function of Figure 4).  Used for
the row dimension of CSR/ELL/DIA and the in-block dimensions of BCSR.
"""

from __future__ import annotations


from ..ir import builder as b
from ..ir.nodes import For, Var
from ..ir.simplify import simplify_expr
from .base import Level


class DenseLevel(Level):
    """Implicit level over the full extent of its dimension."""

    name = "dense"
    full = True
    ordered = True
    unique = True
    branchless = True
    compact = True
    pos_kind = "get"
    vector_capable = True

    # -- iteration ----------------------------------------------------------
    def emit_iteration(self, ctx, k, parent_pos, ancestors, body):
        coord = Var(ctx.ng.fresh(ctx.coord_name(k)))
        size = ctx.dim_size(k)
        pos = simplify_expr(b.add(b.mul(parent_pos, size), coord))
        return For(coord, b.const(0), size, body(pos, coord))

    def iterate(self, view, k, parent_pos, ancestors):
        size = view.dim_size(k)
        for coord in range(size):
            yield parent_pos * size + coord, coord

    def check(self, view, k, parent_size):
        return parent_size * view.dim_size(k)

    # -- vector emission ------------------------------------------------------
    def vector_iterate(self, em, view, k, frontier):
        # every parent position owns `size` consecutive children 0..size-1
        slot = frontier.expand_fixed(view.dim_size(k), view.coord_name(k))
        frontier.coords.append(slot)

    # -- assembly -------------------------------------------------------------
    def emit_get_size(self, ctx, k, parent_size):
        return [], simplify_expr(b.mul(parent_size, ctx.dim_size(k)))

    def emit_pos(self, ctx, k, parent_pos, coords):
        shifted = simplify_expr(b.sub(coords[k], ctx.dim_lo(k)))
        return [], simplify_expr(b.add(b.mul(parent_pos, ctx.dim_size(k)), shifted))
