"""The conversion planner / code generator (Sections 3 and 6.2).

Given a source and a destination format, the planner emits one Python
function that performs the conversion in the paper's three logical phases:

1. **analysis** — the destination levels' attribute queries, compiled by
   :class:`~repro.cin.compile.QueryCompiler` (coordinate remapping is
   *fused* into this pass: remapped coordinates are recomputed rather than
   materialized, like Figure 6a);
2. **edge insertion + initialization** — per level, top-down: sequenced
   edge insertion when the result's parent levels are iterated in order
   (the default — unsequenced insertion plus a parallel-friendly
   ``prefix_sum`` finalize is available as an option and ablation),
   then ``init_coords``/``init_{get|yield}_pos`` and the ``get_size``
   chain;
3. **coordinate insertion** — one pass over the source applying the
   destination's coordinate remapping (with counter arrays or scalar
   counter registers per Section 4.2) and chaining
   ``get_pos``/``yield_pos`` through the levels, storing coordinates and
   values; followed by ``finalize_yield_pos`` fix-ups.

On-the-fly deduplication (Section 6.2's "emits logic to perform
deduplication") is generated for unique ``yield_pos`` levels whose
destination prefix does not injectively determine a nonzero — e.g. BCSR's
block-column level, where many nonzeros share one block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cin.compile import QueryCompiler
from ..formats.format import Format
from ..ir import builder as b
from ..ir.nodes import (
    Alloc,
    Assign,
    AugAssign,
    Block,
    Comment,
    Const,
    Expr,
    ExprStmt,
    FuncDef,
    If,
    Load,
    Return,
    Stmt,
    Store,
    Var,
)
from ..ir.printer import print_func
from ..ir.simplify import simplify_expr, simplify_stmt
from ..remap.ast import RVar
from ..remap.lower import lower_remap
from .context import ConversionContext, PlanError
from .iterate import CounterPlan, SourceLoopEmitter


@dataclass
class PlanOptions:
    """Code-generation options (defaults match the paper's generated code).

    ``force_unsequenced_edges`` switches edge insertion to the
    unsequenced variant (``calloc`` + per-parent counts + ``prefix_sum``)
    even where sequenced insertion applies — used by the ablation bench.
    ``skip_src_zeros`` overrides the explicit-zero guard on the source
    (defaults to guarding padded sources only).
    ``force_counter_arrays`` disables the scalar-counter-register
    optimization of Section 4.2 (ablation A1).
    ``disable_width_count`` turns off the simplify-width-count rewrite of
    Table 1, forcing analyses back to nonzero passes (ablation A2).
    """

    force_unsequenced_edges: bool = False
    skip_src_zeros: Optional[bool] = None
    force_counter_arrays: bool = False
    disable_width_count: bool = False

    def key(self) -> Tuple:
        """Cache-key tuple of the options."""
        return (
            self.force_unsequenced_edges,
            self.skip_src_zeros,
            self.force_counter_arrays,
            self.disable_width_count,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every option."""
        return {
            "force_unsequenced_edges": self.force_unsequenced_edges,
            "skip_src_zeros": self.skip_src_zeros,
            "force_counter_arrays": self.force_counter_arrays,
            "disable_width_count": self.disable_width_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlanOptions":
        """Inverse of :meth:`to_dict`; unknown keys (from a newer schema,
        or options an older writer recorded) are ignored, so plans replay
        across versions."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in dict(data).items() if k in known})


@dataclass
class GeneratedConversion:
    """A generated conversion routine plus its calling convention.

    ``func`` is the routine's IR (scalar backend only; the vector backend
    emits numpy source directly and leaves it ``None``).  ``backend``
    names the lowering that produced the routine — ``"scalar"`` for the
    per-nonzero loop nests of this module, ``"vector"`` for the bulk
    numpy lowering of :mod:`repro.ir.vector`.
    """

    func: Optional[FuncDef]
    source: str
    func_name: str
    params: List[Tuple[str, int, str]]
    outputs: List[Tuple[str, int, str]]
    src_format: Format
    dst_format: Format
    backend: str = "scalar"


#: Valid values of the public ``backend=`` option.
BACKENDS = ("auto", "scalar", "vector", "native")


def _validate_backend(backend: str) -> str:
    backend = backend or "auto"
    if backend not in BACKENDS:
        raise PlanError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def structural_key(fmt: Format) -> Tuple:
    """Structural identity of a format, ignoring its display name.

    This is the kernel-cache key component: two formats with the same
    remapping, inverse, level signatures and parameters share one
    generated routine regardless of how they are named.  Memoized on the
    (immutable) format instance: backend resolution runs on every
    ``convert()`` call, including kernel-cache hits, and the key
    derivation would otherwise dominate the hot-path lookup.
    """
    key = getattr(fmt, "_structural_key_memo", None)
    if key is None:
        key = (
            str(fmt.remap),
            str(fmt.inverse),
            tuple(level.signature() for level in fmt.levels),
            tuple(sorted(fmt.params.items())),
        )
        object.__setattr__(fmt, "_structural_key_memo", key)  # frozen dataclass
    return key


def needs_dedup(dst_format: Format, canonical_names: Sequence[str], k: int) -> bool:
    """True if destination level ``k`` requires on-the-fly deduplication
    (Section 6.2): a unique ``yield_pos`` level whose destination prefix
    does not injectively determine a nonzero — e.g. BCSR's block-column
    level, where many nonzeros share one block.  Shared by both lowering
    backends."""
    level = dst_format.levels[k]
    if level.pos_kind != "yield" or not level.unique:
        return False
    bare = set()
    for coord in dst_format.remap.dst_coords[: k + 1]:
        if not coord.lets and isinstance(coord.expr, RVar):
            bare.add(coord.expr.name)
    return not bare >= set(canonical_names)


#: Memoized vector-capability per (structural pair, options) — consulted on
#: every convert() call.
_CAPABLE_CACHE: Dict[Tuple, bool] = {}

#: Pairs an explicit ``backend="vector"`` request already warned about.
_FALLBACK_WARNED: Set[Tuple] = set()


def resolve_backend(
    src_format: Format,
    dst_format: Format,
    options: Optional[PlanOptions] = None,
    backend: str = "auto",
) -> str:
    """Pick the lowering backend for a (src, dst) format pair.

    ``"auto"`` (and ``None``) selects the vector backend whenever every
    level of both formats implements the vector-emission protocol
    (``Level.vector_capable``) under default plan options, and falls back
    to ``"scalar"`` otherwise — there is no per-format allowlist.  An
    explicit ``"vector"`` request also falls back for non-vectorizable
    pairs (every pair stays convertible), warning once per pair;
    ``"scalar"`` always lowers to loops.  ``"native"`` resolves to the
    compiled C backend when the pair's scalar plan lowers to C
    (:func:`repro.convert.native.native_capable`) and falls back to the
    auto resolution otherwise, warning once per pair.  (Toolchain
    availability is the *engine's* concern — resolution here is pure so
    ``codegen --backend native`` works on compiler-less hosts.)
    """
    if _validate_backend(backend) == "scalar":
        return "scalar"
    options = options or PlanOptions()
    key = (structural_key(src_format), structural_key(dst_format), options.key())
    if backend == "native":
        from .native import native_capable

        if native_capable(src_format, dst_format, options):
            return "native"
        native_key = key + ("native",)
        if native_key not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(native_key)
            warnings.warn(
                f"native backend unavailable for {src_format.name}->"
                f"{dst_format.name} (the scalar plan uses a construct the "
                "C emitter cannot translate); falling back to "
                "auto resolution",
                RuntimeWarning,
                stacklevel=3,
            )
        backend = "auto"
    if key not in _CAPABLE_CACHE:
        from ..ir.vector import vectorizable

        _CAPABLE_CACHE[key] = vectorizable(src_format, dst_format, options)
    if _CAPABLE_CACHE[key]:
        return "vector"
    if backend == "vector" and key not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(key)
        if options.key() != PlanOptions().key():
            reason = "non-default plan options select scalar code shapes"
        else:
            reason = "a level format does not implement the vector-emission protocol"
        warnings.warn(
            f"vector backend unavailable for {src_format.name}->"
            f"{dst_format.name} ({reason}); falling back to scalar",
            RuntimeWarning,
            stacklevel=3,
        )
    return "scalar"


def plan_conversion(
    src_format: Format,
    dst_format: Format,
    options: Optional[PlanOptions] = None,
    backend: str = "auto",
) -> GeneratedConversion:
    """Plan one conversion routine through the resolved backend.

    ``plan_vector`` itself reports non-vectorizable pairs by returning
    ``None``, so resolution is not repeated here — callers that already
    ran :func:`resolve_backend` (the kernel cache) pay for it once.
    ``"native"`` requests must already be resolved (the engine resolves
    before planning); an incapable pair raises ``NativeUnsupported``
    rather than silently changing backend.
    """
    backend = _validate_backend(backend)
    if backend == "native":
        from .native import plan_native

        return plan_native(src_format, dst_format, options)
    if backend != "scalar":
        from ..ir.vector import plan_vector

        generated = plan_vector(src_format, dst_format, options)
        if generated is not None:
            return generated
    return ConversionPlanner(src_format, dst_format, options).plan()


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)


class ConversionPlanner:
    """Plans and emits one conversion routine."""

    def __init__(
        self,
        src_format: Format,
        dst_format: Format,
        options: Optional[PlanOptions] = None,
    ) -> None:
        self.options = options or PlanOptions()
        self.ctx = ConversionContext(src_format, dst_format)
        self.src_format = src_format
        self.dst_format = dst_format
        self._check_supported()

    def _check_supported(self) -> None:
        # Staged (multi-group) assembly handles edge insertion below
        # explicitly stored parent coordinates; nothing further to check
        # here — unsupported sources fail in the emitters with clear errors.
        pass

    def _groups(self) -> List[List[int]]:
        """Partition destination levels into assembly groups.

        A new group starts before level ``k`` when ``k`` needs edge
        insertion and some earlier level stores coordinates explicitly:
        the edge-insertion parent loop then traverses those stored
        coordinates, so they must be inserted by an earlier pass
        (Section 6.2's "adjacent levels can be assembled together as long
        as only the parent level requires a separate edge insertion
        phase").  All the paper's evaluated formats form a single group;
        CSF-style targets split (e.g. [dense, compressed | compressed]).
        """
        levels = self.dst_format.levels
        groups: List[List[int]] = [[]]
        for k, level in enumerate(levels):
            if level.has_edges and any(
                levels[j].explicit_coords for j in range(k)
            ) and groups[-1]:
                groups.append([])
            groups[-1].append(k)
        return groups

    def _value_expr(self, src_vals: Var, leaf_pos: Expr) -> Expr:
        """The value stored for each nonzero during coordinate insertion.

        Fused compute kernels (:mod:`repro.compute`) override this to
        rewrite the value stream in flight — e.g. ``scale`` stores
        ``alpha * val`` — without duplicating the assembly emitters.
        """
        return Load(src_vals, leaf_pos)

    # ------------------------------------------------------------------
    def plan(self) -> GeneratedConversion:
        ctx = self.ctx
        stmts: List[Stmt] = []

        # Phase 1: analysis ------------------------------------------------
        nlevels = self.dst_format.nlevels
        level_specs = [
            (k, spec)
            for k, level in enumerate(self.dst_format.levels)
            for spec in level.queries(k, nlevels)
        ]
        if level_specs:
            stmts.append(Comment("analysis: attribute queries (Section 5)"))
            compiler = QueryCompiler(ctx, self.options.disable_width_count)
            stmts.extend(compiler.compile(level_specs))

        # Phases 2+3: per assembly group, edge insertion & initialization
        # followed by a coordinate-insertion pass over the source.  The
        # paper's evaluated formats always form one group; CSF-style
        # targets run one staged pass per group, carrying each nonzero's
        # group-boundary position in a memo array.
        groups = self._groups()
        memo_in: Optional[Var] = None
        sizes: List[Expr] = []
        size: Expr = Const(1)
        for group_index, group in enumerate(groups):
            last_group = group_index == len(groups) - 1
            stmts.append(
                Comment(
                    "assembly: edge insertion and initialization (Section 6)"
                    if len(groups) == 1
                    else f"assembly group {group_index + 1}: levels "
                    f"{group[0] + 1}..{group[-1] + 1}"
                )
            )
            for k in group:
                level = self.dst_format.levels[k]
                if level.has_edges:
                    stmts.extend(self._emit_edges(k, level, size))
                stmts.extend(level.emit_init_coords(ctx.dst, k, size))
                stmts.extend(level.emit_init_pos(ctx.dst, k, size))
                get_stmts, size_expr = level.emit_get_size(ctx.dst, k, size)
                stmts.extend(get_stmts)
                size_var = Var(ctx.ng.fresh(f"szB{k + 1}"))
                stmts.append(Assign(size_var, simplify_expr(size_expr)))
                sizes.append(size_var)
                size = size_var
            memo_out: Optional[Var] = None
            if last_group:
                vals = ctx.dst_vals()
                init = "zeros" if self.dst_format.padded else "empty"
                stmts.append(Alloc(vals, size, "float64", init))
            else:
                memo_out = Var(ctx.ng.fresh(f"memo{group_index + 1}"))
                emitter = SourceLoopEmitter(ctx)
                stmts.append(
                    Alloc(memo_out, emitter.emit_total_paths(), "int64", "empty")
                )
            stmts.append(Comment("assembly: coordinate insertion"))
            stmts.extend(
                self._emit_insertion(
                    sizes, group, memo_in=memo_in, memo_out=memo_out
                )
            )
            for k in group:
                parent_size = sizes[k - 1] if k > 0 else Const(1)
                stmts.extend(
                    self.dst_format.levels[k].emit_finalize_pos(
                        ctx.dst, k, parent_size
                    )
                )
            memo_in = memo_out

        stmts.append(Return([var for _, var in ctx.output_list()]))

        body = simplify_stmt(Block(tuple(stmts)))
        name = f"convert_{_sanitize(self.src_format.name)}_to_{_sanitize(self.dst_format.name)}"
        params = [var.name for _, var in ctx.param_list()]
        func = FuncDef(
            name,
            tuple(params),
            body if isinstance(body, Block) else Block((body,)),
            docstring=(
                f"Convert a {self.src_format.name} tensor to "
                f"{self.dst_format.name}.  Generated by repro.convert "
                "(coordinate remapping: "
                f"{self.dst_format.remap})."
            ),
        )
        return GeneratedConversion(
            func=func,
            source=print_func(func),
            func_name=name,
            params=[key for key, _ in ctx.param_list()],
            outputs=[key for key, _ in ctx.output_list()],
            src_format=self.src_format,
            dst_format=self.dst_format,
        )

    # ------------------------------------------------------------------
    def _emit_edges(self, k: int, level, parent_size: Expr) -> List[Stmt]:
        ctx = self.ctx
        # Sequenced insertion requires visiting parent positions in order;
        # the parent loop below enumerates the (implicit) parent levels in
        # order, so sequenced insertion always applies unless the ablation
        # option forces the unsequenced variant.
        sequenced = not self.options.force_unsequenced_edges
        out: List[Stmt] = []
        if sequenced:
            out.extend(level.emit_seq_init_edges(ctx.dst, k, parent_size))
            insert = level.emit_seq_insert_edges
        else:
            out.extend(level.emit_unseq_init_edges(ctx.dst, k, parent_size))
            insert = level.emit_unseq_insert_edges

        def body(parent_pos: Expr, coords: List[Expr]) -> Stmt:
            return b.block(insert(ctx.dst, k, parent_pos, coords))

        out.append(self._emit_parent_loop(k, body))
        if not sequenced:
            out.extend(level.emit_unseq_finalize_edges(ctx.dst, k, parent_size))
        return out

    def _emit_parent_loop(self, k: int, body) -> Stmt:
        """Iterate positions/coordinates of result levels ``0..k-1``."""
        ctx = self.ctx
        levels = self.dst_format.levels

        def rec(j: int, parent_pos: Expr, coords: List[Expr]) -> Stmt:
            if j == k:
                return body(parent_pos, coords)

            def level_body(pos: Expr, coord: Expr) -> Stmt:
                # Implicit levels iterate shifted coordinates [0, extent);
                # unshift so query handles see true coordinates.
                unshifted = simplify_expr(b.add(coord, ctx.dst_dim_lo(j)))
                return rec(j + 1, pos, coords + [unshifted])

            return levels[j].emit_iteration(ctx.dst, j, parent_pos, coords, level_body)

        return rec(0, Const(0), [])

    # ------------------------------------------------------------------
    def _needs_dedup(self, k: int) -> bool:
        return needs_dedup(self.dst_format, self.ctx.canonical_names, k)

    def _emit_insertion(
        self,
        sizes: Sequence[Expr],
        group: Sequence[int],
        memo_in: Optional[Var] = None,
        memo_out: Optional[Var] = None,
    ) -> List[Stmt]:
        """One coordinate-insertion pass over the source for ``group``.

        ``memo_in`` (for groups after the first) supplies each nonzero's
        position in the previous group's last level; ``memo_out`` (for
        non-final groups) records this group's last-level positions for
        the next pass.  Both passes iterate the source identically, so a
        running source index keeps the memo entries aligned.
        """
        ctx = self.ctx
        emitter = SourceLoopEmitter(ctx)
        counters = CounterPlan(
            ctx, self.dst_format.remap, self.options.force_counter_arrays
        )
        out: List[Stmt] = list(counters.init_stmts())

        # dedup lookup tables (Section 6.2): BCSR's block map, or the
        # fiber map of CSF's middle level
        dedup_tables: Dict[int, Var] = {}
        for k in group:
            if self._needs_dedup(k):
                table = Var(ctx.ng.fresh(f"B{k + 1}_lookup"))
                parent_size = sizes[k - 1] if k > 0 else Const(1)
                table_size = simplify_expr(
                    b.mul(parent_size, ctx.dst_dim_extent(k))
                )
                out.append(Alloc(table, table_size, "int64", "empty"))
                out.append(ExprStmt(b.call("fill", table, -1)))
                dedup_tables[k] = table

        src_index: Optional[Var] = None
        if memo_in is not None or memo_out is not None:
            src_index = Var(ctx.ng.fresh("src_idx"))
            out.append(Assign(src_index, Const(0)))

        is_final = group[-1] == self.dst_format.nlevels - 1
        vals_out = ctx.dst_vals() if is_final else None
        src_vals = ctx.src_vals() if is_final else None

        def body(canonical: List[Expr], leaf_pos: Expr, level_coords) -> Stmt:
            fetch_stmts, counter_env = counters.fetch(canonical)
            lowered = lower_remap(
                self.dst_format.remap,
                dict(zip(ctx.canonical_names, canonical)),
                self.dst_format.param_exprs(),
                counter_env,
                ctx.ng,
            )
            inner: List[Stmt] = fetch_stmts + lowered.prelude
            coords = lowered.coord_exprs
            parent_pos: Expr = (
                Const(0) if memo_in is None else Load(memo_in, src_index)
            )
            for k in group:
                level = self.dst_format.levels[k]
                pos_stmts, pos = level.emit_pos(ctx.dst, k, parent_pos, coords)
                if not isinstance(pos, (Var, Const)):
                    # bind computed positions once (Figure 6b's pB2)
                    pos_var = Var(ctx.ng.fresh(f"pB{k + 1}"))
                    pos_stmts = list(pos_stmts) + [Assign(pos_var, pos)]
                    pos = pos_var
                if k in dedup_tables:
                    index = simplify_expr(
                        b.add(
                            b.mul(parent_pos, ctx.dst_dim_extent(k)),
                            b.sub(coords[k], ctx.dst_dim_lo(k)),
                        )
                    )
                    if not (pos_stmts and isinstance(pos, Var)):
                        raise PlanError(
                            f"level {k} cannot combine dedup with computed positions"
                        )
                    inner.append(Assign(pos, Load(dedup_tables[k], index)))
                    first_insert = pos_stmts + [
                        Store(dedup_tables[k], index, pos)
                    ] + level.emit_insert_coord(ctx.dst, k, pos, coords)
                    inner.append(If(b.lt(pos, 0), b.block(first_insert)))
                else:
                    inner.extend(pos_stmts)
                    inner.extend(level.emit_insert_coord(ctx.dst, k, pos, coords))
                parent_pos = pos
            if vals_out is not None:
                inner.append(
                    Store(vals_out, parent_pos, self._value_expr(src_vals, leaf_pos))
                )
            if memo_out is not None:
                inner.append(Store(memo_out, src_index, parent_pos))
            if src_index is not None:
                inner.append(AugAssign(src_index, "+", Const(1)))
            return b.block(inner)

        out.append(
            emitter.emit(
                body,
                level_prologue=counters.level_prologues(),
                skip_zeros=self.options.skip_src_zeros,
            )
        )
        return out
