"""Offset level format: DIA's inner (column) dimension.

The column coordinate of a DIA entry is fully determined by the diagonal
offset and the row (``j = k + i``), so nothing is stored: the level derives
its coordinate from two ancestor coordinates and shares the parent's
position space.  This is the "offset" level of Chou et al.'s DIA
decomposition, extended here with the assembly facet (it needs none of the
assembly machinery beyond position pass-through).
"""

from __future__ import annotations

from ..ir import builder as b
from ..ir.nodes import Assign, Var
from ..ir.simplify import simplify_expr
from .base import Level


class OffsetLevel(Level):
    """Implicit level whose coordinate is the sum of two ancestor coords."""

    name = "offset"
    full = False
    ordered = True
    unique = True
    branchless = True
    compact = True
    pos_kind = "get"
    vector_capable = True

    def __init__(self, base_level: int, offset_level: int) -> None:
        """Coordinate = coord(base_level) + coord(offset_level)."""
        self.base_level = base_level
        self.offset_level = offset_level

    def signature(self) -> str:
        return f"{self.name}({self.base_level}+{self.offset_level})"

    # -- iteration ----------------------------------------------------------
    def emit_iteration(self, ctx, k, parent_pos, ancestors, body):
        coord = Var(ctx.ng.fresh(ctx.coord_name(k)))
        derived = simplify_expr(
            b.add(ancestors[self.base_level], ancestors[self.offset_level])
        )
        return b.block([Assign(coord, derived), body(parent_pos, coord)])

    def iterate(self, view, k, parent_pos, ancestors):
        yield parent_pos, ancestors[self.base_level] + ancestors[self.offset_level]

    def check(self, view, k, parent_size):
        return parent_size

    # -- vector emission ------------------------------------------------------
    def vector_iterate(self, em, view, k, frontier):
        derived = simplify_expr(
            b.add(
                frontier.coords[self.base_level], frontier.coords[self.offset_level]
            )
        )
        frontier.coords.append(em.bind(view.coord_name(k), derived))

    # -- assembly -------------------------------------------------------------
    def emit_get_size(self, ctx, k, parent_size):
        return [], parent_size

    def emit_pos(self, ctx, k, parent_pos, coords):
        return [], parent_pos
