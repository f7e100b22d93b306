"""Source tensor iteration and counter lowering.

``SourceLoopEmitter`` generates the loop nest that visits every stored
component of the source tensor, following Chou et al.'s recursive strategy
(Section 2): each source level contributes one loop (or straight-line
binding), innermost bodies receive the canonical coordinates recovered via
the source format's inverse mapping.  Optionally it emits only a *prefix*
of the levels with a dynamically computed width of the remainder
(the ``B'`` of simplify-width-count), and skips explicit zeros of padded
sources.

``CounterPlan`` implements Section 4.2's lowering of remapping counters:
a counter array indexed by the counter's coordinates in general, or a
single scalar register when those coordinates are iterated in order (the
optimization that distinguishes Figure 6b's ``count`` from the COO
counter-array example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ir import builder as b
from ..ir.nodes import (
    Alloc,
    Assign,
    AugAssign,
    AugStore,
    Const,
    Expr,
    If,
    Load,
    Stmt,
    Var,
)
from ..ir.simplify import simplify_expr
from ..remap.ast import RCounter, Remap
from ..remap.lower import lower_remap
from .context import ConversionContext, PlanError


class SourceLoopEmitter:
    """Generates loop nests over a conversion's source tensor."""

    def __init__(self, ctx: ConversionContext) -> None:
        self.ctx = ctx
        self.levels = ctx.src_format.levels
        self.inverse = ctx.src_format.inverse

    def canonical_exprs(self, level_coords: Sequence[Expr]) -> List[Expr]:
        """Canonical coordinates as expressions over level coordinates."""
        env = dict(zip(self.inverse.src_vars, level_coords))
        lowered = lower_remap(
            self.inverse, env, self.ctx.src_format.param_exprs(), {}, self.ctx.ng
        )
        if lowered.prelude:
            raise PlanError("inverse mappings with let bindings are not supported")
        return lowered.coord_exprs

    def emit(
        self,
        body: Callable[[List[Expr], Expr, List[Expr]], Stmt],
        level_prologue: Optional[Dict[int, Callable[[List[Expr]], List[Stmt]]]] = None,
        skip_zeros: Optional[bool] = None,
    ) -> Stmt:
        """Emit the full loop nest.

        ``body(canonical_coords, leaf_pos, level_coords)`` produces the
        innermost statement.  ``level_prologue[k]`` (if given) produces
        statements to run just before entering level ``k``'s loop — used
        for scalar counter resets.  ``skip_zeros`` wraps the body in a
        nonzero guard (defaults to whether the source stores padding).
        """
        if skip_zeros is None:
            skip_zeros = self.ctx.src_format.padded
        hooks = level_prologue or {}

        def rec(k: int, parent_pos: Expr, coords: List[Expr]) -> Stmt:
            if k == len(self.levels):
                canonical = self.canonical_exprs(coords)
                inner = body(canonical, parent_pos, coords)
                if skip_zeros:
                    vals = self.ctx.src_vals()
                    inner = If(b.ne(Load(vals, parent_pos), 0.0), inner)
                return inner

            def level_body(pos: Expr, coord: Expr) -> Stmt:
                return rec(k + 1, pos, coords + [coord])

            loop = self.levels[k].emit_iteration(
                self.ctx.src, k, parent_pos, coords, level_body
            )
            if k in hooks:
                return b.block(list(hooks[k](coords)) + [loop])
            return loop

        return rec(0, Const(0), [])

    # ------------------------------------------------------------------
    def emit_prefix(
        self,
        nlevels: int,
        body: Callable[[List[Expr], Expr], Stmt],
    ) -> Stmt:
        """Emit loops over only the first ``nlevels`` source levels.

        ``body(level_coords, last_pos)`` runs once per prefix position.
        """

        def rec(k: int, parent_pos: Expr, coords: List[Expr]) -> Stmt:
            if k == nlevels:
                return body(coords, parent_pos)

            def level_body(pos: Expr, coord: Expr) -> Stmt:
                return rec(k + 1, pos, coords + [coord])

            return self.levels[k].emit_iteration(
                self.ctx.src, k, parent_pos, coords, level_body
            )

        return rec(0, Const(0), [])

    def emit_total_paths(self) -> Expr:
        """Total number of stored paths in the source tensor.

        Every level's ``get_size`` maps its parent's position-space size
        to its own, so the leaf size is the composition from the root.
        Used to size the per-pass position memo of staged (multi-group)
        assembly.
        """
        end: Expr = Const(1)
        for k, level in enumerate(self.levels):
            stmts, end = level.emit_get_size(self.ctx.src, k, end)
            assert not stmts, "a source level's get_size must be an expression"
        return simplify_expr(end)

    def emit_width(self, nlevels: int, prefix_pos: Expr) -> Tuple[List[Stmt], Expr]:
        """Width of the remaining levels below one prefix position.

        Composes position ranges level by level: a position range
        ``[s, e)`` of a parent maps to ``[pos[s], pos[e])`` through a
        compressed child and stays ``[s, e)`` through a singleton — so the
        stored-path count is reachable with two loads per compressed level
        (``pos[i+1] - pos[i]`` for CSR's single compressed level).
        """
        start: Expr = prefix_pos
        end: Expr = simplify_expr(b.add(prefix_pos, 1))
        for k in range(nlevels, len(self.levels)):
            if not self.levels[k].composes_widths:
                raise PlanError(f"source level {k} cannot compose widths")
            start, end = self.levels[k].width_step(self.ctx.src, k, start, end)
        return [], simplify_expr(b.sub(end, start))


@dataclass
class _CounterImpl:
    counter: RCounter
    mode: str  # "scalar" | "array"
    storage: Var
    reset_level: int  # scalar: level index before which the register resets
    value_var: Var = None


class CounterPlan:
    """Storage and update code for the counters of one iteration pass."""

    def __init__(
        self, ctx: ConversionContext, remap: Remap, force_arrays: bool = False
    ) -> None:
        self.ctx = ctx
        self.force_arrays = force_arrays
        self.impls: List[_CounterImpl] = []
        for counter in remap.counters():
            self.impls.append(self._plan_counter(counter))

    def _plan_counter(self, counter: RCounter) -> _CounterImpl:
        ctx = self.ctx
        # The scalar-register optimization applies when the counter's key
        # variables are exactly the coordinates of an ordered, unique
        # prefix of the source's levels (Section 4.2).
        key_levels = []
        for var in counter.over:
            try:
                key_levels.append(ctx.src_level_var.index(var))
            except ValueError:
                key_levels.append(None)
        prefix_ok = (
            not self.force_arrays
            and None not in key_levels
            and sorted(key_levels) == list(range(len(key_levels)))
            and all(
                ctx.src_format.levels[lvl].ordered and ctx.src_format.levels[lvl].unique
                for lvl in key_levels
            )
        )
        if prefix_ok:
            storage = Var(ctx.ng.fresh("count"))
            return _CounterImpl(counter, "scalar", storage, len(key_levels))
        storage = Var(ctx.ng.fresh("counter"))
        return _CounterImpl(counter, "array", storage, -1)

    # -- emission hooks ------------------------------------------------------
    def init_stmts(self) -> List[Stmt]:
        """Allocations before the loop nest (counter arrays)."""
        out: List[Stmt] = []
        for impl in self.impls:
            if impl.mode == "array":
                size: Expr = Const(1)
                for var in impl.counter.over:
                    size = b.mul(size, self.ctx.canonical_dim_size(var))
                out.append(Alloc(impl.storage, simplify_expr(size), "int64", "zeros"))
        return out

    def level_prologues(self) -> Dict[int, Callable[[List[Expr]], List[Stmt]]]:
        """Scalar counter resets, keyed by the level they precede."""
        hooks: Dict[int, Callable] = {}
        resets: Dict[int, List[_CounterImpl]] = {}
        for impl in self.impls:
            if impl.mode == "scalar":
                resets.setdefault(impl.reset_level, []).append(impl)
        for level, impls in resets.items():
            hooks[level] = lambda coords, impls=impls: [
                Assign(impl.storage, Const(0)) for impl in impls
            ]
        return hooks

    def fetch(self, canonical: Sequence[Expr]) -> Tuple[List[Stmt], Dict[RCounter, Expr]]:
        """Per-nonzero fetch-and-increment; returns counter value vars."""
        stmts: List[Stmt] = []
        env: Dict[RCounter, Expr] = {}
        names = self.ctx.canonical_names
        for impl in self.impls:
            value = Var(self.ctx.ng.fresh("k"))
            if impl.mode == "scalar":
                stmts.append(Assign(value, impl.storage))
                stmts.append(AugAssign(impl.storage, "+", Const(1)))
            else:
                index: Expr = Const(0)
                for var in impl.counter.over:
                    coord = canonical[names.index(var)]
                    index = b.add(
                        b.mul(index, self.ctx.canonical_dim_size(var)), coord
                    )
                index = simplify_expr(index)
                stmts.append(Assign(value, Load(impl.storage, index)))
                stmts.append(AugStore(impl.storage, index, "+", Const(1)))
            env[impl.counter] = value
        return stmts, env
