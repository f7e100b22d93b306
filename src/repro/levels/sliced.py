"""Sliced level format: ELL's outer dimension (Figure 7, first level).

Encodes slice indices ``0..K-1`` implicitly, where ``K`` (the maximum
number of nonzeros in any row) is computed from the ``max`` attribute query
during assembly and stored as level metadata.  The remapped dimension it
stores is a *counter* dimension (``#i``), so its extent is data-dependent.
"""

from __future__ import annotations

from ..ir import builder as b
from ..ir.nodes import Assign, For, Var
from ..ir.simplify import simplify_expr
from ..query.spec import QuerySpec
from .base import Level


class SlicedLevel(Level):
    """Implicit level over ``K`` slices; ``K`` is a data statistic."""

    name = "sliced"
    full = False
    ordered = True
    unique = True
    branchless = True
    compact = True
    pos_kind = "get"
    vector_capable = True
    #: slices shorter than K leave padding in every child level
    introduces_padding = True

    # -- vector emission ------------------------------------------------------
    def vector_iterate(self, em, view, k, frontier):
        slot = frontier.expand_fixed(view.meta(k, "K"), view.coord_name(k))
        frontier.coords.append(slot)

    # -- iteration ----------------------------------------------------------
    def emit_iteration(self, ctx, k, parent_pos, ancestors, body):
        coord = Var(ctx.ng.fresh(ctx.coord_name(k)))
        size = ctx.meta(k, "K")
        pos = simplify_expr(b.add(b.mul(parent_pos, size), coord))
        return For(coord, b.const(0), size, body(pos, coord))

    def iterate(self, view, k, parent_pos, ancestors):
        size = view.meta(k, "K")
        for coord in range(size):
            yield parent_pos * size + coord, coord

    def check(self, view, k, parent_size):
        return parent_size * view.meta(k, "K")

    # -- assembly -------------------------------------------------------------
    def queries(self, k, ndims):
        # K - 1 == the largest counter value == max coordinate along this
        # dimension (Figure 7: select [] -> max(i1) as max_crd).
        return (QuerySpec((), "max", (k,), "max_crd"),)

    def emit_init_coords(self, ctx, k, parent_size):
        size = ctx.meta(k, "K")
        return [Assign(size, simplify_expr(b.add(ctx.query(k, "max_crd").at(()), 1)))]

    def emit_get_size(self, ctx, k, parent_size):
        return [], simplify_expr(b.mul(parent_size, ctx.meta(k, "K")))

    def emit_pos(self, ctx, k, parent_pos, coords):
        size = ctx.meta(k, "K")
        return [], simplify_expr(b.add(b.mul(parent_pos, size), coords[k]))
