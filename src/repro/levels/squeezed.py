"""Squeezed level format: DIA's outer (diagonal-offset) dimension.

Stores the sorted set of nonempty coordinates of its dimension in a
``perm`` array of size ``K`` (Figure 2c); during assembly a reverse
permutation ``rperm`` maps coordinates back to positions (Figure 11 top,
and lines 9-19 of Figure 6a).  Coordinates may be negative (diagonal
offsets), so auxiliary arrays are indexed with a shift of ``-lo``.
"""

from __future__ import annotations

import numpy as np

from ..ir import builder as b
from ..ir.nodes import Alloc, Assign, AugAssign, For, If, Store, Var
from ..ir.simplify import simplify_expr
from ..query.spec import QuerySpec
from .base import Level


class SqueezedLevel(Level):
    """Implicit level over the ``K`` nonempty coordinates of its dimension."""

    name = "squeezed"
    full = False
    ordered = True
    unique = True
    branchless = False
    compact = True
    pos_kind = "get"
    vector_capable = True
    introduces_padding = True

    # -- vector emission ------------------------------------------------------
    def vector_iterate(self, em, view, k, frontier):
        slot = frontier.expand_fixed(view.meta(k, "K"), f"s{k + 1}")
        coord = em.assign(
            view.coord_name(k), f"{view.array(k, 'perm').name}[{slot.name}]"
        )
        frontier.coords.append(coord)

    def vector_init_coords(self, em, ctx, k, parent_size):
        """Bulk perm construction: the sorted nonempty coordinates are the
        set bits of the ``nz`` query, read off with ``flatnonzero`` —
        identical to the scalar coordinate-order scan."""
        perm = ctx.array(k, "perm")
        count = ctx.meta(k, "K")
        nz = ctx.query(k, "nz")
        lo = em.atom(ctx.dim_lo(k))
        em.emit(f"{perm.name} = np.flatnonzero({nz.var.name}) + {lo}")
        em.emit(f"{count.name} = {perm.name}.shape[0]")

    def vector_init_pos(self, em, ctx, k, parent_size):
        """Bulk reverse permutation: one scatter in place of the fill loop."""
        from ..ir.nodes import Var as IRVar

        perm = ctx.array(k, "perm")
        count = ctx.meta(k, "K")
        rperm = IRVar(ctx.ng.fresh(f"B{k + 1}_rperm"))
        ctx.scratch[(k, "rperm")] = rperm
        em.emit(
            f"{rperm.name} = np.empty({em.atom(ctx.dim_size(k))}, dtype=np.int64)"
        )
        em.emit(
            f"{rperm.name}[{perm.name} - {em.atom(ctx.dim_lo(k))}]"
            f" = np.arange({count.name}, dtype=np.int64)"
        )

    # -- iteration ----------------------------------------------------------
    def emit_iteration(self, ctx, k, parent_pos, ancestors, body):
        position = Var(ctx.ng.fresh(f"p{k + 1}"))
        coord = Var(ctx.ng.fresh(ctx.coord_name(k)))
        size = ctx.meta(k, "K")
        perm = ctx.array(k, "perm")
        pos = simplify_expr(b.add(b.mul(parent_pos, size), position))
        inner = b.block([Assign(coord, b.load(perm, position)), body(pos, coord)])
        return For(position, b.const(0), size, inner)

    def iterate(self, view, k, parent_pos, ancestors):
        size = view.meta(k, "K")
        perm = view.array(k, "perm")
        for position in range(size):
            yield parent_pos * size + position, int(perm[position])

    def check(self, view, k, parent_size):
        from ..formats.format import FormatError

        perm = view.array(k, "perm")
        count = view.meta(k, "K")
        if len(perm) != count:
            raise FormatError(f"level {k}: perm length != K")
        if np.any(np.diff(perm) <= 0):
            raise FormatError(f"level {k}: perm not strictly increasing")
        return parent_size * count

    # -- assembly -------------------------------------------------------------
    def queries(self, k, ndims):
        # Which coordinates of this dimension are nonempty (Figure 11:
        # select [ik] -> id() as nz).
        return (QuerySpec((k,), "id", (), "nz"),)

    def emit_init_coords(self, ctx, k, parent_size):
        """Scan the nz bit set in coordinate order, building ``perm``
        (Figure 6a lines 9-14)."""
        extent = ctx.dim_size(k)
        lo = ctx.dim_lo(k)
        perm = ctx.array(k, "perm")
        count = ctx.meta(k, "K")
        i = Var(ctx.ng.fresh("i"))
        nz = ctx.query(k, "nz")
        scan = For(
            i,
            b.const(0),
            extent,
            If(
                nz.at_shifted(i),
                b.block(
                    [
                        Store(perm, count, simplify_expr(b.add(i, lo))),
                        AugAssign(count, "+", b.const(1)),
                    ]
                ),
            ),
        )
        return [
            Alloc(perm, extent, "int64", "empty"),
            Assign(count, b.const(0)),
            scan,
            # shrink perm to the K entries actually used
            Assign(perm, b.call("trim", perm, count)),
        ]

    def emit_get_size(self, ctx, k, parent_size):
        return [], simplify_expr(b.mul(parent_size, ctx.meta(k, "K")))

    def emit_init_pos(self, ctx, k, parent_size):
        """Build the reverse permutation (Figure 6a lines 16-19)."""
        extent = ctx.dim_size(k)
        lo = ctx.dim_lo(k)
        perm = ctx.array(k, "perm")
        rperm = Var(ctx.ng.fresh(f"B{k + 1}_rperm"))
        ctx.scratch[(k, "rperm")] = rperm
        i = Var(ctx.ng.fresh("i"))
        fill = For(
            i,
            b.const(0),
            ctx.meta(k, "K"),
            Store(rperm, simplify_expr(b.sub(b.load(perm, i), lo)), i),
        )
        return [Alloc(rperm, extent, "int64", "empty"), fill]

    def emit_pos(self, ctx, k, parent_pos, coords):
        lo = ctx.dim_lo(k)
        shifted = simplify_expr(b.sub(coords[k], lo))
        position = b.load(ctx.scratch[(k, "rperm")], shifted)
        return [], simplify_expr(
            b.add(b.mul(parent_pos, ctx.meta(k, "K")), position)
        )
