"""Hashed level format: per-parent open-addressing coordinate tables.

Chou et al.'s level zoo includes a *hashed* level for formats that support
random inserts without order (the workhorse of DOK-style containers).
Each parent position owns a table of ``W`` slots storing coordinates
(``-1`` = empty); probing is linear from ``coord % W``.

Assembly sizes the tables from the same ``count`` attribute query a
compressed level uses: ``W`` is the maximum number of children of any
parent, rounded up to the next power of two and doubled, keeping load
factor ≤ 0.5 so probe chains stay short.  ``get_pos`` probes until it
finds the coordinate or an empty slot, making insertion idempotent
(duplicate-coordinate safe) without a separate dedup table.

Iteration visits all slots and skips empties, so the level is unordered
and not compact — the trade-offs the paper's Section 2 tables ascribe to
hash-based storage.  Both vector facets exist, so a hashed format
converts in one generated hop either way: as a source the table
compacts to its occupied slots (one ``flatnonzero`` over the parents'
slots, ancestors expanded by a ``bincount`` of the kept slots), and as
a destination it assembles through
:func:`repro.ir.runtime.hashed_bulk_insert`.
"""

from __future__ import annotations

from ..ir import builder as b
from ..ir.nodes import Alloc, Assign, AugAssign, ExprStmt, If, Load, Store, Var, While
from ..ir.simplify import simplify_expr
from ..query.spec import QuerySpec
from .base import Level


class HashedLevel(Level):
    """Explicit unordered level backed by per-parent hash tables."""

    name = "hashed"
    full = False
    ordered = False
    unique = True
    branchless = False
    compact = False
    has_edges = False
    pos_kind = "get"
    explicit_coords = True
    #: as a *destination*, probe chains vectorize through
    #: :func:`repro.ir.runtime.hashed_bulk_insert` — priority-claiming
    #: rounds that replay the sequential probe loop's placement bit for
    #: bit; as a *source*, the gather compacts (:meth:`vector_iterate`)
    vector_capable = True
    #: empty slots are materialized (values there stay zero)
    introduces_padding = True

    # -- iteration ----------------------------------------------------------
    def emit_iteration(self, ctx, k, parent_pos, ancestors, body):
        width = ctx.meta(k, "W")
        crd_arr = ctx.array(k, "crd")
        slot = Var(ctx.ng.fresh(f"s{k + 1}"))
        coord = Var(ctx.ng.fresh(ctx.coord_name(k)))
        pos = simplify_expr(b.add(b.mul(parent_pos, width), slot))
        pos_var = Var(ctx.ng.fresh(f"p{k + 1}"))
        inner = b.block(
            [
                Assign(pos_var, pos),
                Assign(coord, Load(crd_arr, pos_var)),
                If(b.ge(coord, 0), body(pos_var, coord)),
            ]
        )
        from ..ir.nodes import For

        return For(slot, b.to_expr(0), width, inner)

    def iterate(self, view, k, parent_pos, ancestors):
        width = view.meta(k, "W")
        crd = view.array(k, "crd")
        for slot in range(width):
            coord = int(crd[parent_pos * width + slot])
            if coord >= 0:
                yield parent_pos * width + slot, coord

    def check(self, view, k, parent_size):
        return parent_size * view.meta(k, "W")

    # -- vector emission ------------------------------------------------------
    def vector_iterate(self, em, view, k, frontier):
        # The parents' occupied slots in slot order (the scalar loop's
        # order and ``crd >= 0`` guard, plus its nonzero guard on the last
        # level), so no empty slot reaches a later pass; each parent's
        # width is the bincount of its kept slots.
        width = em.atom(view.meta(k, "W"))
        crd = view.array(k, "crd").name
        frontier.require_range()
        lo = frontier.lo
        first = "0" if lo == "0" else f"{lo} * {width}"
        slots = f"[{first}:{frontier.hi} * {width}]"
        test = f"{crd}{slots} >= 0"
        if frontier.drop_zeros:
            vals = em.ctx.src_vals().name
            test = f"({test}) & ({vals}{slots} != 0)"
            frontier.drop_zeros = False
        kept = em.assign(f"p{k + 1}", f"np.flatnonzero({test})")
        if frontier.coords:
            widths = em.assign(
                "ln",
                f"np.bincount({kept.name} // {width},"
                f" minlength={frontier.count()})",
            )
            frontier.repeat_coords(widths.name)
        if lo != "0":
            em.emit(f"{kept.name} += {first}")
        frontier.pos = kept
        frontier.coords.append(
            em.assign(view.coord_name(k), frontier.slice(crd))
        )

    def vector_init_coords(self, em, ctx, k, parent_size):
        width = ctx.meta(k, "W")
        crd_arr = ctx.array(k, "crd")
        handle = ctx.query(k, "nir")
        if handle.is_scalar:
            peak = em.bind("peak", handle.at(()))
        else:
            # max over the count query's table (scalar path: a fold loop)
            peak = em.assign("peak", f"{handle.var.name}.max(initial=0)")
        em.emit(f"{width.name} = next_pow2({peak.name} * 2)")
        em.emit(
            f"{crd_arr.name} = np.full({em.atom(parent_size)} * {width.name},"
            f" -1, dtype=np.int64)"
        )

    def vector_pos(self, em, ctx, k, parent, coords):
        """Bulk ``get_pos``: open-addressing insertion of every nonzero
        through :func:`repro.ir.runtime.hashed_bulk_insert`, which fills
        the table and returns positions in sequential probe order."""
        width = ctx.meta(k, "W")
        crd_arr = ctx.array(k, "crd")
        shifted = simplify_expr(b.sub(coords[k], ctx.dim_lo(k)))
        home = em.assign("home", f"{em.atom(shifted)} % {width.name}")
        if parent is None:
            base = "0"
        else:
            base = em.assign("baseB", f"{parent.name} * {width.name}").name
        return em.assign(
            f"pB{k + 1}",
            f"hashed_bulk_insert({crd_arr.name}, {base}, {home.name}, "
            f"{em.atom(coords[k])}, {width.name})",
        )

    # -- assembly -------------------------------------------------------------
    def queries(self, k, ndims):
        # table width is derived from the fullest parent, like a compressed
        # level's segment sizes
        return (QuerySpec(tuple(range(k)), "count", (k,), "nir"),)

    def emit_init_coords(self, ctx, k, parent_size):
        width = ctx.meta(k, "W")
        crd_arr = ctx.array(k, "crd")
        peak = Var(ctx.ng.fresh("peak"))
        handle = ctx.query(k, "nir")
        stmts = [Assign(peak, b.to_expr(0))]
        # max over the count query's table (its keys are the parent dims)
        if handle.is_scalar:
            stmts.append(Assign(peak, handle.at(())))
        else:
            idx = Var(ctx.ng.fresh("i"))
            total = b.to_expr(1)
            for key in handle.keys:
                total = b.mul(total, ctx.dim_size(key.dim))
            from ..ir.nodes import For

            stmts.append(
                For(
                    idx,
                    b.to_expr(0),
                    simplify_expr(total),
                    AugAssign(peak, "max", Load(handle.var, idx)),
                )
            )
        # width = 2 * next_pow2(peak), at least 2 (load factor <= 0.5)
        stmts.append(Assign(width, b.call("next_pow2", b.mul(peak, 2))))
        stmts.append(
            Alloc(crd_arr, simplify_expr(b.mul(parent_size, width)), "int64", "empty")
        )
        stmts.append(ExprStmt(b.call("fill", crd_arr, -1)))
        return stmts

    def emit_get_size(self, ctx, k, parent_size):
        return [], simplify_expr(b.mul(parent_size, ctx.meta(k, "W")))

    def emit_pos(self, ctx, k, parent_pos, coords):
        width = ctx.meta(k, "W")
        crd_arr = ctx.array(k, "crd")
        base = Var(ctx.ng.fresh("base"))
        slot = Var(ctx.ng.fresh("slot"))
        pos = Var(ctx.ng.fresh(f"pB{k + 1}"))
        shifted = simplify_expr(b.sub(coords[k], ctx.dim_lo(k)))
        probe = While(
            b.logical_and(
                b.ge(Load(crd_arr, pos), 0),
                b.ne(Load(crd_arr, pos), coords[k]),
            ),
            b.block(
                [
                    Assign(slot, b.mod(b.add(slot, 1), width)),
                    Assign(pos, b.add(base, slot)),
                ]
            ),
        )
        stmts = [
            Assign(base, simplify_expr(b.mul(parent_pos, width))),
            Assign(slot, b.mod(shifted, width)),
            Assign(pos, b.add(base, slot)),
            probe,
        ]
        return stmts, pos

    def emit_insert_coord(self, ctx, k, pos, coords):
        return [Store(ctx.array(k, "crd"), pos, coords[k])]
