"""The attribute query optimizations of Table 1.

Each transformation rewrites :class:`~repro.cin.lower.QueryPlan` statements
in place, checking the preconditions Table 1 states:

* **reduction-to-assign** — a reduction whose result cell is written at
  most once becomes a plain assignment.  Two instances arise here:
  idempotent ``or= const``, and ``+=`` whose keys cover every iterated
  index variable injectively.
* **inline-temporary** — a temporary defined by an assignment is inlined
  into its (single) consumer.
* **simplify-width-count** — counting stored paths below a level prefix is
  replaced by dynamically computed level widths (``pos[i+1] - pos[i]``),
  valid only when the remaining levels store no explicit zeros.
* **counter-to-histogram** — extrema of counter coordinates become a
  histogram over the counter's key followed by a dense max-reduction.

The driver (:func:`optimize_plan`) applies the rules eagerly to a fixed
point, mirroring Section 5.2's "iteratively and eagerly apply".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..formats.format import Format
from ..ir.builder import NameGenerator
from ..remap.ast import RCounter, Remap, RVar
from .lower import QueryPlan
from .nodes import (
    CinStatement,
    DenseSpace,
    Key,
    KeySrc,
    SrcNonzeros,
    SrcPrefix,
    VConst,
    VCoordMax,
    VCoordMin,
    VLoad,
    VWidth,
)


class QueryCompileError(ValueError):
    """Raised when a query cannot be compiled for the given conversion."""


@dataclass
class ConversionInfo:
    """Static facts about a (source format, destination remap) pair that
    the transformation preconditions consult."""

    src_format: Format
    dst_remap: Remap
    #: ablation switch: disable the simplify-width-count rule (A2)
    disable_width_count: bool = False

    def __post_init__(self) -> None:
        inverse = self.src_format.inverse
        if inverse is None:
            raise QueryCompileError(
                f"{self.src_format.name} cannot be a conversion source "
                "(no inverse mapping)"
            )
        # canonical var -> source level index whose coordinate it is, when
        # the inverse mapping is a bare variable (identity-like dims).
        self.canonical_level: Dict[str, int] = {}
        level_vars = inverse.src_vars
        for d, coord in enumerate(inverse.dst_coords):
            if not coord.lets and isinstance(coord.expr, RVar):
                level = level_vars.index(coord.expr.name)
                self.canonical_level[self.dst_remap.src_vars[d]] = level

    # -- helpers -------------------------------------------------------------
    def dim_bare_var(self, dim: int) -> Optional[str]:
        """Canonical variable if destination dim ``dim`` maps it directly."""
        coord = self.dst_remap.dst_coords[dim]
        if not coord.lets and isinstance(coord.expr, RVar):
            return coord.expr.name
        return None

    def dim_counter(self, dim: int) -> Optional[RCounter]:
        """The counter if destination dim ``dim`` is a counter coordinate."""
        coord = self.dst_remap.dst_coords[dim]
        expr = coord.expr
        env = {binding.name: binding.value for binding in coord.lets}
        while isinstance(expr, RVar) and expr.name in env:
            expr = env[expr.name]
        return expr if isinstance(expr, RCounter) else None

    def key_var(self, key: Key) -> Optional[str]:
        """Canonical variable a result key denotes (None if computed)."""
        if isinstance(key, KeySrc):
            return key.var
        return self.dim_bare_var(key.dim)

    def keys_cover_sources(self, keys: Tuple[Key, ...]) -> bool:
        """True if the key expressions jointly determine every canonical
        source variable, so distinct nonzeros occupy distinct result cells.

        Recognizes bare variables and div/mod decompositions
        (``v/C`` together with ``v%C`` recover ``v``), which covers the
        blocked formats' remappings."""
        exprs = []
        for key in keys:
            if isinstance(key, KeySrc):
                exprs.append(RVar(key.var))
            else:
                coord = self.dst_remap.dst_coords[key.dim]
                env = {b.name: b.value for b in coord.lets}
                expr = coord.expr
                while isinstance(expr, RVar) and expr.name in env:
                    expr = env[expr.name]
                exprs.append(expr)
        from ..remap.ast import RBinOp

        for var in self.dst_remap.src_vars:
            if RVar(var) in exprs:
                continue
            divisors = {
                e.rhs for e in exprs
                if isinstance(e, RBinOp) and e.op == "/" and e.lhs == RVar(var)
            }
            moduli = {
                e.rhs for e in exprs
                if isinstance(e, RBinOp) and e.op == "%" and e.lhs == RVar(var)
            }
            if not divisors & moduli:
                return False
        return True

    def prefix_of_levels(self, vars_needed) -> Optional[int]:
        """Smallest m such that source levels 0..m-1 produce exactly
        ``vars_needed`` as their coordinates, or None."""
        needed = set(vars_needed)
        have = set()
        levels = self.src_format.levels
        by_level = {lvl: var for var, lvl in self.canonical_level.items()}
        for m in range(len(levels) + 1):
            if have == needed:
                return m
            if m == len(levels) or m not in by_level:
                return None
            have.add(by_level[m])
        return None

    def remaining_levels_pure(self, m: int) -> bool:
        """True if levels m.. store only nonzeros in position-contiguous
        ranges (the simplify-width-count precondition)."""
        if self.src_format.padded:
            return False
        for level in self.src_format.levels[m:]:
            if not level.composes_widths or level.stores_explicit_zeros:
                return False
        return True

    def prefix_unique(self, m: int) -> bool:
        """True if every position of the level-m prefix is visited once."""
        return all(level.unique for level in self.src_format.levels[:m])


# ---------------------------------------------------------------------------
# individual rules — each returns True if it changed the plan
# ---------------------------------------------------------------------------


def apply_counter_to_histogram(
    plan: QueryPlan, info: ConversionInfo, ng: NameGenerator
) -> bool:
    for idx, stmt in enumerate(plan.statements):
        if not isinstance(stmt.value, (VCoordMax, VCoordMin)):
            continue
        counter = info.dim_counter(stmt.value.dim)
        if counter is None:
            continue
        if isinstance(stmt.value, VCoordMin):
            raise QueryCompileError("min over a counter dimension is not supported")
        if stmt.keys:
            raise QueryCompileError(
                "grouped extrema over counter dimensions are not supported"
            )
        temp = ng.fresh("W")
        keys = tuple(KeySrc(var) for var in counter.over)
        producer = CinStatement(temp, keys, "+=", SrcNonzeros(), VConst(1))
        consumer = CinStatement(
            stmt.result, stmt.keys, "max=", DenseSpace(keys), VLoad(temp)
        )
        plan.statements[idx:idx + 1] = [producer, consumer]
        return True
    return False


def apply_reduction_to_assign(plan: QueryPlan, info: ConversionInfo) -> bool:
    changed = False
    for idx, stmt in enumerate(plan.statements):
        if stmt.op == "or=" and isinstance(stmt.value, VConst):
            # Boolean OR of a constant is idempotent: assignment is safe
            # regardless of how many times a cell is visited.
            plan.statements[idx] = replace(stmt, op="=")
            changed = True
        elif (
            stmt.op == "+="
            and isinstance(stmt.domain, SrcNonzeros)
            and isinstance(stmt.value, VConst)
        ):
            if info.keys_cover_sources(stmt.keys):
                plan.statements[idx] = replace(stmt, op="=")
                changed = True
        elif (
            stmt.op == "+="
            and isinstance(stmt.domain, SrcPrefix)
            and isinstance(stmt.value, VWidth)
            and info.prefix_unique(stmt.domain.nlevels)
        ):
            plan.statements[idx] = replace(stmt, op="=")
            changed = True
    return changed


def apply_simplify_width_count(plan: QueryPlan, info: ConversionInfo) -> bool:
    if info.disable_width_count:
        return False
    for idx, stmt in enumerate(plan.statements):
        if not (
            isinstance(stmt.domain, SrcNonzeros)
            and isinstance(stmt.value, VConst)
            and stmt.op in ("+=", "=")
        ):
            continue
        key_vars = [info.key_var(k) for k in stmt.keys]
        if None in key_vars or len(set(key_vars)) != len(key_vars):
            continue
        prefix = info.prefix_of_levels(key_vars)
        if prefix is None or prefix >= len(info.src_format.levels):
            continue
        if not info.remaining_levels_pure(prefix):
            continue
        # "=" over full nonzeros is only reachable when keys cover all
        # vars, in which case nothing remains to sum; require "+=".
        if stmt.op == "=":
            continue
        plan.statements[idx] = replace(
            stmt, domain=SrcPrefix(prefix), value=VWidth(stmt.value.value)
        )
        return True
    return False


def apply_inline_temporary(plan: QueryPlan, info: ConversionInfo) -> bool:
    for pidx, producer in enumerate(plan.statements):
        if producer.op != "=":
            continue
        readers = [
            (cidx, stmt)
            for cidx, stmt in enumerate(plan.statements)
            if isinstance(stmt.value, VLoad) and stmt.value.temp == producer.result
        ]
        writers = [
            stmt
            for stmt in plan.statements
            if stmt.result == producer.result and stmt is not producer
        ]
        if len(readers) != 1 or writers:
            continue
        cidx, consumer = readers[0]
        if consumer.domain != DenseSpace(producer.keys):
            continue
        # Inlining replaces the consumer's dense iteration over W's index
        # space with the producer's iteration, so every W cell must be
        # written at most once there — otherwise multiply-written cells
        # (e.g. BCSR blocks holding several nonzeros) would be counted
        # repeatedly.
        if isinstance(producer.domain, SrcNonzeros):
            if not info.keys_cover_sources(producer.keys):
                continue
        elif isinstance(producer.domain, SrcPrefix):
            if not info.prefix_unique(producer.domain.nlevels):
                continue
        if consumer.value.bool_map:
            if not isinstance(producer.value, VConst):
                continue
            value = VConst(1 if producer.value.value else 0)
        else:
            value = producer.value
        plan.statements[cidx] = replace(consumer, domain=producer.domain, value=value)
        del plan.statements[pidx]
        return True
    return False


def optimize_plan(
    plan: QueryPlan, info: ConversionInfo, ng: NameGenerator
) -> QueryPlan:
    """Eagerly apply all Table 1 rules to a fixed point (Section 5.2)."""
    # Counter coordinates cannot be evaluated pointwise, so histogram
    # rewriting must succeed first when one is present.
    while apply_counter_to_histogram(plan, info, ng):
        pass
    for _ in range(20):
        changed = apply_reduction_to_assign(plan, info)
        changed |= apply_inline_temporary(plan, info)
        changed |= apply_simplify_width_count(plan, info)
        if not changed:
            return plan
    return plan
