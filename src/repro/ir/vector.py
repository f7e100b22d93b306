"""Vectorized numpy lowering backend: per-level IR lowering to bulk ops.

The scalar backend (:mod:`repro.convert.planner`) lowers the conversion IR
to per-nonzero Python loops — faithful to the paper's generated C, but
orders of magnitude slower than numpy's bulk operations on this substrate.
This module is a *second* lowering of the very same plan: instead of
pattern-matching whole formats, it walks the identical structure the
scalar planner walks — source iteration, attribute queries, coordinate
remapping, per-level destination assembly — and asks each *level format*
for the bulk-numpy mirror of its scalar level functions
(:class:`repro.levels.base.Level`'s ``vector_*`` facet):

* **gather** — every source level expands a frontier of enumerated paths
  by its children (``np.repeat`` ragged expansion for compressed/banded
  segments, ``arange``/``tile`` products for dense/sliced/squeezed,
  plain loads for singleton/offset), reproducing the scalar loop nest's
  depth-first order exactly; padded sources drop explicit zeros with one
  mask, like the scalar nonzero guard;
* **analysis** — the optimized attribute-query plans
  (:class:`repro.cin.lower.QueryPlan`) compile to bulk ``np.bincount`` /
  ``np.add.at`` / ``np.maximum.at`` / reshape-reduction passes
  (:class:`repro.cin.compile.VectorQueryCompiler`) over the gathered
  coordinate streams;
* **remap** — destination coordinates evaluate elementwise over the
  canonical coordinate arrays; remapping counters (Section 4.2) become
  :func:`repro.ir.runtime.group_ranks` over their key streams;
* **scatter** — each destination level assembles itself top-down:
  ``cumsum`` edge insertion over query counts, ``locate``-style levels
  reuse their scalar ``get_pos`` arithmetic elementwise, and ``yield``
  levels replace the sequenced position bump with a stable group-rank
  (plus :func:`repro.ir.runtime.unique_first` for deduplicated levels
  like BCSR's block map), replaying the scalar routine's insertion order
  bit for bit.

Because every per-level emitter reproduces its scalar counterpart's
effect exactly, both backends produce **bit-identical output arrays** for
every vectorizable pair — including BCSR, DCSR, CSF/COO3, HiCOO and
skyline, none of which the old format-recognition backend handled;
``tests/convert/test_backends.py`` asserts this.  Formats containing a
level without the vector facet, hashed *sources* (slot gathers stay
scalar; hashed destinations assemble in bulk via
:func:`repro.ir.runtime.hashed_bulk_insert`), and non-default
:class:`~repro.convert.planner.PlanOptions` report as not vectorizable,
and the planner falls back to the scalar backend.

Like the scalar backend, the emitted routine is plain Python source
(inspectable via ``.source``) compiled by
:func:`repro.ir.runtime.compile_source`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import builder as b
from .nodes import Block, Const, Expr, For, If, Load, Stmt, Var, While
from .printer import print_expr, print_stmt
from .simplify import simplify_expr

# NOTE: imports from repro.convert / repro.cin live inside functions:
# repro.convert imports this module at package-init time, so module-level
# imports here would be circular.

#: Backend identifiers used in cache keys and the public ``backend=`` option.
SCALAR = "scalar"
VECTOR = "vector"


class VectorLoweringError(ValueError):
    """Raised when a nominally capable pair fails to vector-lower; the
    planner catches it and falls back to the scalar backend."""


def vectorizable(src_format, dst_format, options=None) -> bool:
    """True if the (src, dst) pair lowers through the vector backend.

    The decision is delegated to the level formats: every level of both
    formats must implement the vector-emission protocol
    (``Level.vector_capable``).  There is no per-format allowlist — a
    user-defined format vectorizes iff its levels do.  Non-default
    :class:`~repro.convert.planner.PlanOptions` force the scalar backend:
    the options select *scalar code shapes* (unsequenced edges, counter
    arrays, ...) that have no bulk-operation counterpart.
    """
    from ..convert.planner import PlanOptions

    options = options or PlanOptions()
    if options.key() != PlanOptions().key():
        return False
    if src_format.inverse is None:
        return False
    return all(
        level.vector_gather_capable for level in src_format.levels
    ) and all(level.vector_capable for level in dst_format.levels)


# ----------------------------------------------------------------------
# emission context


def _has_control_flow(stmt: Stmt) -> bool:
    if isinstance(stmt, (For, While, If)):
        return True
    if isinstance(stmt, Block):
        return any(_has_control_flow(child) for child in stmt.stmts)
    return False


class VectorEmitter:
    """Accumulates the generated numpy source, one line per bulk op.

    Also carries the per-nonzero context the destination levels need while
    scattering: ``nnz`` (source-order nonzero count expression),
    ``parent_size`` (assembled size of the parent level) and ``dedup``
    (whether the current level requires Section 6.2 deduplication).
    """

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.ng = ctx.ng
        self.lines: List[str] = []
        #: expression (source text) for the number of gathered nonzeros
        self.nnz: str = "0"
        #: assembled size of the parent level during scattering
        self.parent_size: Expr = Const(1)
        #: True while emitting positions of a level that needs dedup
        self.dedup: bool = False

    # -- lines ---------------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append(line)

    def comment(self, text: str) -> None:
        self.lines.append(f"# {text}")

    def fresh(self, prefix: str) -> str:
        return self.ng.fresh(prefix)

    def assign(self, prefix: str, rhs: str) -> Var:
        """Emit ``<fresh name> = rhs`` and return the new variable."""
        var = Var(self.ng.fresh(prefix))
        self.emit(f"{var.name} = {rhs}")
        return var

    def bind(self, prefix: str, expr: Expr) -> Var:
        """Materialize ``expr`` as a variable (no-op for plain variables)."""
        expr = simplify_expr(expr)
        if isinstance(expr, Var):
            return expr
        return self.assign(prefix, print_expr(expr))

    def atom(self, expr) -> str:
        """Print an expression, parenthesized unless atomic (for safe
        embedding inside larger generated expressions)."""
        if isinstance(expr, str):
            return expr
        expr = simplify_expr(expr)
        text = print_expr(expr)
        if isinstance(expr, (Var, Const, Load)):
            return text
        return f"({text})"

    def emit_straightline(self, stmts) -> None:
        """Print scalar-IR statements verbatim; they vectorize elementwise
        as long as they are straight-line code (no loops/branches)."""
        from ..levels.base import LevelFunctionError

        for stmt in stmts:
            if _has_control_flow(stmt):
                raise LevelFunctionError(
                    "scalar emission contains control flow; the level must "
                    "override its vector emitter"
                )
            for line in print_stmt(stmt).splitlines():
                self.emit(line)

    # -- shared assembly helper ----------------------------------------------
    def emit_edges_from_counts(self, pos_arr: Var, counts: Var, parent_size: Expr) -> None:
        """``pos = [0, cumsum(counts)...]`` — bulk sequenced edge insertion."""
        size = simplify_expr(b.add(parent_size, 1))
        self.emit(f"{pos_arr.name} = np.zeros({self.atom(size)}, dtype=np.int64)")
        self.emit(f"np.cumsum({counts.name}, out={pos_arr.name}[1:])")


class Frontier:
    """Bulk iteration state over a coordinate hierarchy.

    One entry per enumerated path through the visited levels, in the
    exact depth-first order of the scalar loop nest.  ``coords`` holds
    one coordinate array per visited level.  Positions are *not*
    materialized: every level visits its full position space in order,
    so the frontier's positions are always the contiguous range
    ``[lo, hi)`` — position gathers degrade to slices (``crd[lo:hi]``,
    ``vals[lo:hi]``) and only consumers that need explicit position
    values (banded's derived coordinate, prefix width passes) call
    :meth:`pos_array`.
    """

    def __init__(self, em: VectorEmitter) -> None:
        self.em = em
        #: position range bounds, as printable scalar expressions
        self.lo: str = "0"
        self.hi: str = "1"
        self.coords: List[Var] = []

    # -- position range ------------------------------------------------------
    def count(self) -> str:
        """Number of paths, as a printable scalar expression."""
        if self.lo == "0":
            return self.hi
        return f"({self.hi} - {self.lo})"

    def at_root(self) -> bool:
        return self.lo == "0" and self.hi == "1"

    def lo_plus1(self) -> str:
        return "1" if self.lo == "0" else f"{self.lo} + 1"

    def hi_plus1(self) -> str:
        return f"{self.hi} + 1"

    def pos_array(self, name: str = "p") -> Var:
        """Materialize the positions as an explicit int64 array."""
        return self.em.assign(
            name, f"np.arange({self.lo}, {self.hi}, dtype=np.int64)"
        )

    def slice(self, array: str) -> str:
        """Gather ``array`` at the frontier's positions (a slice)."""
        return f"{array}[{self.lo}:{self.hi}]"

    def rebound(self, lo: str, hi: str, prefix: str = "lo") -> None:
        """Set new position bounds, binding non-atomic expressions to
        scalar variables so downstream slices stay readable."""
        self.lo = "0" if lo == "0" else self.em.assign(prefix, lo).name
        self.hi = self.em.assign("hi" if prefix == "lo" else prefix, hi).name

    # -- expansion -----------------------------------------------------------
    def repeat_coords(self, factor: str) -> None:
        """Expand ancestor coordinate arrays (``factor``: int or reps
        array); duplicate names (derived-coordinate aliases) expand once."""
        seen = set()
        for coord in self.coords:
            if coord.name in seen:
                continue
            seen.add(coord.name)
            self.em.emit(f"{coord.name} = np.repeat({coord.name}, {factor})")

    def expand_fixed(self, size: Expr, slot_name: str) -> Var:
        """Expand every path by ``size`` consecutive children; returns the
        child-slot array (``0..size-1`` per parent, parent-major)."""
        em = self.em
        size_s = em.atom(size)
        if self.at_root():
            slot = em.assign(slot_name, f"np.arange({size_s}, dtype=np.int64)")
            self.lo, self.hi = "0", size_s
            return slot
        slot = em.assign(
            slot_name,
            f"np.tile(np.arange({size_s}, dtype=np.int64), {self.count()})",
        )
        self.repeat_coords(size_s)
        lo = "0" if self.lo == "0" else f"{self.lo} * {size_s}"
        self.rebound(lo, f"{self.hi} * {size_s}")
        return slot

    def expand_segments(self, pos_arr: str) -> None:
        """Expand each path by its ``pos`` segment (compressed/banded):
        children of the contiguous parent range ``[lo, hi)`` tile the
        contiguous child range ``[pos[lo], pos[hi])``."""
        if self.coords:
            reps = self.em.assign(
                "ln",
                f"{pos_arr}[{self.lo_plus1()}:{self.hi_plus1()}]"
                f" - {pos_arr}[{self.lo}:{self.hi}]",
            )
            self.repeat_coords(reps.name)
        self.rebound(f"{pos_arr}[{self.lo}]", f"{pos_arr}[{self.hi}]")


# ----------------------------------------------------------------------
# gather: source (or assembled-destination-prefix) levels -> streams


def _gather_src(em: VectorEmitter, nlevels: int) -> Frontier:
    """Enumerate stored paths of the first ``nlevels`` source levels."""
    frontier = Frontier(em)
    for k in range(nlevels):
        em.ctx.src_format.levels[k].vector_iterate(em, em.ctx.src, k, frontier)
    return frontier


def _gather_dst_parents(em: VectorEmitter, nlevels: int) -> Frontier:
    """Enumerate positions/coordinates of assembled destination levels
    ``0..nlevels-1`` (the edge-insertion parent loop, Section 6)."""
    ctx = em.ctx
    frontier = Frontier(em)
    for k in range(nlevels):
        ctx.dst_format.levels[k].vector_iterate(em, ctx.dst, k, frontier)
        # Implicit levels iterate shifted coordinates [0, extent); unshift
        # so query handles see true coordinates (mirrors the scalar
        # parent loop).
        lo = simplify_expr(ctx.dst_dim_lo(k))
        if not (isinstance(lo, Const) and lo.value == 0):
            coord = frontier.coords[k]
            em.emit(f"{coord.name} = {coord.name} + {em.atom(lo)}")
    return frontier


def _prefix_pass(em: VectorEmitter, nlevels: int):
    """Source-prefix iteration plus composed widths (simplify-width-count):
    returns the prefix frontier and the per-path width expression."""
    ctx = em.ctx
    frontier = _gather_src(em, nlevels)
    start: Expr = Const(0) if frontier.at_root() else frontier.pos_array()
    end: Expr = simplify_expr(b.add(start, 1))
    for k in range(nlevels, len(ctx.src_format.levels)):
        start, end = ctx.src_format.levels[k].width_step(ctx.src, k, start, end)
    return frontier, simplify_expr(b.sub(end, start))


def _gather_nonzeros(em: VectorEmitter):
    """Gather the full source: canonical coordinate arrays plus the value
    stream, in scalar iteration order, explicit zeros dropped."""
    from ..remap.lower import lower_remap

    ctx = em.ctx
    frontier = _gather_src(em, ctx.src_format.nlevels)
    vals = ctx.src_vals()
    val = em.assign("val", frontier.slice(vals.name))

    inverse = ctx.src_format.inverse
    env = dict(zip(inverse.src_vars, frontier.coords))
    lowered = lower_remap(inverse, env, ctx.src_format.param_exprs(), {}, ctx.ng)
    em.emit_straightline(lowered.prelude)
    canonical: List[Var] = []
    for name, expr in zip(ctx.canonical_names, lowered.coord_exprs):
        canonical.append(em.bind(name, expr))

    skip_zeros = ctx.src_format.padded
    if skip_zeros:
        keep = em.assign("keep", f"np.flatnonzero({val.name})")
        filtered = []
        for var in canonical + [val]:
            if var.name not in filtered:
                filtered.append(var.name)
        for name in filtered:
            em.emit(f"{name} = {name}[{keep.name}]")
    em.nnz = f"{val.name}.shape[0]"
    return canonical, val


# ----------------------------------------------------------------------
# remap: destination coordinates + vectorized counters


def _counter_env(em: VectorEmitter, canonical: List[Var]) -> Dict:
    """Counter value streams: a nonzero's counter equals its rank among
    same-key nonzeros in iteration order (Section 4.2), which is
    ``group_ranks`` over the linearized key stream — one semantics
    covering both the scalar backend's array and register realizations."""
    ctx = em.ctx
    env: Dict = {}
    for counter in ctx.dst_format.remap.counters():
        if counter.over:
            index: Expr = Const(0)
            for var in counter.over:
                coord = canonical[ctx.canonical_names.index(var)]
                index = b.add(b.mul(index, ctx.canonical_dim_size(var)), coord)
            key = em.bind("ckey", index)
            env[counter] = em.assign("k", f"group_ranks({key.name})")
        else:
            env[counter] = em.assign("k", f"np.arange({em.nnz}, dtype=np.int64)")
    return env


def _dst_coords(em: VectorEmitter, canonical: List[Var], counter_env) -> List[Var]:
    from ..remap.lower import lower_remap

    ctx = em.ctx
    env = dict(zip(ctx.canonical_names, canonical))
    lowered = lower_remap(
        ctx.dst_format.remap, env, ctx.dst_format.param_exprs(), counter_env, ctx.ng
    )
    em.emit_straightline(lowered.prelude)
    coords: List[Var] = []
    for d, expr in enumerate(lowered.coord_exprs):
        coords.append(em.bind(em.ctx.dst.coord_name(d), expr))
    return coords


# ----------------------------------------------------------------------
# scatter: per-level destination assembly


def _scatter(em: VectorEmitter, coords: List[Var], val: Var) -> None:
    from ..convert.planner import needs_dedup

    ctx = em.ctx
    parent: Optional[Var] = None
    parent_size: Expr = Const(1)
    for k, level in enumerate(ctx.dst_format.levels):
        em.parent_size = parent_size
        if level.has_edges:
            parents = _gather_dst_parents(em, k) if k else None
            level.vector_edges(em, ctx.dst, k, parents, parent_size)
        level.vector_init_coords(em, ctx.dst, k, parent_size)
        level.vector_init_pos(em, ctx.dst, k, parent_size)
        stmts, size_expr = level.emit_get_size(ctx.dst, k, parent_size)
        if stmts:
            raise VectorLoweringError(
                f"level {k} get_size does not vectorize"
            )
        size_var = em.bind(f"szB{k + 1}", size_expr)
        em.dedup = needs_dedup(ctx.dst_format, ctx.canonical_names, k)
        parent = level.vector_pos(em, ctx.dst, k, parent, coords)
        em.dedup = False
        level.vector_insert_coord(em, ctx.dst, k, parent, coords)
        parent_size = size_var
    if parent is None:
        raise VectorLoweringError("destination stores no positions")
    vals = ctx.dst_vals()
    init = "zeros" if ctx.dst_format.padded else "empty"
    em.emit(f"{vals.name} = np.{init}({em.atom(parent_size)}, dtype=np.float64)")
    em.emit(f"{vals.name}[{parent.name}] = {val.name}")


# ----------------------------------------------------------------------
# driver


def plan_vector(src_format, dst_format, options=None):
    """Plan a conversion through the vector backend.

    Returns a :class:`~repro.convert.planner.GeneratedConversion` with
    ``backend == "vector"``, or ``None`` when the pair is not
    vectorizable (the planner then falls back to the scalar backend).
    """
    from ..cin.compile import VectorQueryCompiler
    from ..cin.transforms import QueryCompileError
    from ..convert.context import ConversionContext
    from ..convert.planner import GeneratedConversion, PlanOptions, _sanitize
    from ..levels.base import LevelFunctionError

    options = options or PlanOptions()
    if not vectorizable(src_format, dst_format, options):
        return None

    ctx = ConversionContext(src_format, dst_format)
    em = VectorEmitter(ctx)
    try:
        em.comment("gather: source nonzeros in scalar iteration order")
        canonical, val = _gather_nonzeros(em)

        nlevels = dst_format.nlevels
        level_specs = [
            (k, spec)
            for k, level in enumerate(dst_format.levels)
            for spec in level.queries(k, nlevels)
        ]
        if level_specs:
            em.comment("analysis: attribute queries (Section 5, bulk passes)")
            compiler = VectorQueryCompiler(
                ctx, em, canonical, lambda n: _prefix_pass(em, n)
            )
            compiler.compile(level_specs)

        em.comment(f"remap: destination coordinates ({dst_format.remap})")
        counter_env = _counter_env(em, canonical)
        coords = _dst_coords(em, canonical, counter_env)

        em.comment("assembly: per-level edge insertion and bulk coordinate insertion")
        _scatter(em, coords, val)
    except (LevelFunctionError, QueryCompileError, VectorLoweringError):
        return None

    name = f"convert_{_sanitize(src_format.name)}_to_{_sanitize(dst_format.name)}__vector"
    outputs = ctx.output_list()
    params = [var.name for _, var in ctx.param_list()]
    lines = [
        f"def {name}({', '.join(params)}):",
        f'    """Convert a {src_format.name} tensor to {dst_format.name} '
        "with bulk numpy operations",
        "",
        "    Generated by repro.ir.vector (per-level lowering; coordinate "
        f"remapping: {dst_format.remap}).",
        '    """',
    ]
    lines += [f"    {line}" for line in em.lines]
    lines.append(f"    return {', '.join(var.name for _, var in outputs)}")
    source = "\n".join(lines)

    return GeneratedConversion(
        func=None,
        source=source,
        func_name=name,
        params=[key for key, _ in ctx.param_list()],
        outputs=[key for key, _ in outputs],
        src_format=src_format,
        dst_format=dst_format,
        backend=VECTOR,
    )
