"""Singleton level format: one coordinate per parent position.

Stores a ``crd`` array parallel to the parent's position space, with no
``pos`` array (each parent position has exactly one child).  Used for the
column dimension of COO and ELL (Figure 7's third level format).
"""

from __future__ import annotations

from ..ir import builder as b
from ..ir.nodes import Alloc, Assign, Store, Var
from .base import Level


class SingletonLevel(Level):
    """Explicit level storing exactly one coordinate per parent position."""

    name = "singleton"
    full = False
    branchless = True
    compact = True
    has_edges = False
    pos_kind = "get"
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
        coord = Var(ctx.ng.fresh(ctx.coord_name(k)))
        crd_arr = ctx.array(k, "crd")
        return b.block(
            [Assign(coord, b.load(crd_arr, parent_pos)), body(parent_pos, coord)]
        )

    def iterate(self, view, k, parent_pos, ancestors):
        yield parent_pos, int(view.array(k, "crd")[parent_pos])

    def check(self, view, k, parent_size):
        from ..formats.format import FormatError

        if len(view.array(k, "crd")) < parent_size:
            raise FormatError(f"level {k}: crd shorter than parent size")
        return parent_size

    # -- vector emission ------------------------------------------------------
    def vector_iterate(self, em, view, k, frontier):
        coord = em.assign(
            view.coord_name(k), frontier.slice(view.array(k, "crd").name)
        )
        frontier.coords.append(coord)

    def width_step(self, view, k, start, end):
        return start, end

    # -- assembly -------------------------------------------------------------
    def emit_get_size(self, ctx, k, parent_size):
        return [], parent_size

    def emit_init_coords(self, ctx, k, parent_size):
        crd_arr = ctx.array(k, "crd")
        # Padded targets (e.g. ELL) leave unwritten positions, which must
        # read as coordinate 0 — Figure 7 calls calloc for exactly this.
        init = "zeros" if ctx.needs_zero_init(k) else "empty"
        return [Alloc(crd_arr, parent_size, "int64", init)]

    def emit_pos(self, ctx, k, parent_pos, coords):
        # get_pos: the child shares the parent's position (Figure 7).
        return [], parent_pos

    def emit_insert_coord(self, ctx, k, pos, coords):
        return [Store(ctx.array(k, "crd"), pos, coords[k])]
