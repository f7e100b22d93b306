"""The streaming conversion executor: out-of-core lowering of vector plans.

Every statement of a generated vector kernel is chunk-decomposable: the
attribute queries of Section 5 fold over stream chunks (histograms are
additive, presence masks idempotent, ``maximum.at`` a max-fold), remap
expressions are elementwise, and the assembly scatters touch disjoint
destination slots.  This module points that decomposition at a **file**
instead of an in-memory array: the streaming executor *schedules the
kernel itself* into alternating phases:

* **stream sections** — maximal runs of fold/scatter statements, each
  executed as one sequential pass over the source's chunks with carried
  per-key state (:class:`~repro.ir.runtime.StreamState`);
* **bridge steps** — the O(dimensions) statements between them
  (``cumsum`` edge arrays, permutation tables, destination allocation),
  executed once, with destination arrays allocated through a
  :class:`~repro.storage.memmap.MemmapStore` instead of RAM.

For the common two-level destinations this is exactly the two-pass
shape: pass 1 folds the attribute-query counts chunk by chunk, pass 2
recomputes the remap streams per chunk and scatters into memmap-backed
level arrays.  Hierarchical destinations (CSF, DCSR) get one extra pass
per dependent level — their bridge reads back a coordinate array the
previous pass produced.  Pure stream statements (remaps, position
streams) are not pinned to a pass: each section replays the slice it
needs, with fresh per-site state, so no nnz-sized intermediate is ever
materialized.  Peak memory is O(dimensions + chunk), never O(nnz).

The scheduler is an :mod:`ast` pass over the generated vector source, so
every :func:`chunkable` pair with a coordinate-stream source streams
unchanged; ``tests/stream`` asserts bit-identity against the in-memory
backends over the full pair matrix.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..formats.format import Format
from ..levels.hashed import HashedLevel
from ..ir.runtime import StreamState, group_ranks, unique_first
from .planner import GeneratedConversion, PlanOptions, structural_key

__all__ = [
    "STREAMED",
    "StreamPlanError",
    "StreamedConversion",
    "chunkable",
    "plan_streamed",
    "streamable",
]

#: Backend tag of streamed plans.
STREAMED = "streamed"


class StreamPlanError(ValueError):
    """A vector kernel could not be scheduled into streaming passes."""


def chunkable(src_format: Format, dst_format: Format,
              options: Optional[PlanOptions] = None) -> bool:
    """True if the pair's vector kernel can run chunk by chunk.

    The vector backend's capability, minus hashed levels:
    ``hashed_bulk_insert`` placement depends on the *global* nonzero
    order, which chunk-local replays cannot reproduce.  This is the
    destination half of :func:`streamable`.
    """
    from ..ir.vector import vectorizable

    if any(
        isinstance(level, HashedLevel)
        for level in (*src_format.levels, *dst_format.levels)
    ):
        return False
    return vectorizable(src_format, dst_format, options)


def streamable(src_format: Format, dst_format: Format,
               options: Optional[PlanOptions] = None) -> bool:
    """True if the pair lowers through the streaming executor.

    Streaming sources are coordinate streams, so the source must be
    COO-shaped (a single top-level position range over per-level
    coordinate arrays — what :func:`repro.io.stream.open_stream`
    yields); the destination must be :func:`chunkable`.
    """
    if not chunkable(src_format, dst_format, options):
        return False
    try:
        _source_layout(src_format)
    except StreamPlanError:
        return False
    return True


# ----------------------------------------------------------------------
# statement records


@dataclass
class _Stmt:
    index: int
    node: ast.stmt
    kind: str                      # 'dim' | 'def' | 'fold' | 'mutate'
    reads: Set[str]
    writes: Set[str]
    mutates: Optional[str] = None
    fold_site: Optional[int] = None
    is_expr: bool = False


@dataclass
class _Section:
    """One sequential pass over the source chunks."""

    body: List[_Stmt]
    code: object = None
    fold_sites: Dict[int, str] = field(default_factory=dict)
    writes_outputs: bool = False

    @property
    def source(self) -> str:
        module = ast.Module(body=[s.node for s in self.body],
                            type_ignores=[])
        return ast.unparse(ast.fix_missing_locations(module))


def _loaded_names(node: ast.AST) -> Set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _is_np_call(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    )


def _ufunc_at(node: ast.AST) -> Optional[str]:
    """The ufunc name of an ``np.<ufunc>.at(...)`` call, if any."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "at"
        and isinstance(node.func.value, ast.Attribute)
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "np"
    ):
        return node.func.value.attr
    return None


def _source_layout(src_format: Format):
    """Map the source params of a COO-shaped format onto stream columns.

    Returns ``(order,)`` — validation only; the actual mapping happens
    positionally in :class:`_KernelScheduler` from ``generated.params``.
    """
    order = src_format.order
    if src_format.inverse is None:
        raise StreamPlanError(f"{src_format.name}: source is not invertible")
    return order


class _StreamRewriter(ast.NodeTransformer):
    """Expression rewriter: gathers to chunk columns, stateful sites to
    :class:`StreamState` calls.  One instance per kernel; site ids are
    global to the kernel and states are per-pass, so replays of the same
    site in different passes are independent."""

    def __init__(self, scheduler: "_KernelScheduler") -> None:
        self.sched = scheduler

    def _site(self) -> int:
        self.sched.site_counter += 1
        return self.sched.site_counter

    def _state_call(self, method: str, args: List[ast.expr],
                    keywords=()) -> ast.Call:
        return ast.Call(
            func=ast.Attribute(
                value=ast.Name(id="_state", ctx=ast.Load()),
                attr=method, ctx=ast.Load(),
            ),
            args=[ast.Constant(value=self._site())] + args,
            keywords=list(keywords),
        )

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        # gather: A1_crd[lo:hi] -> the chunk column
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in self.sched.stream_cols
            and isinstance(node.ctx, ast.Load)
        ):
            sl = node.slice
            if not (
                isinstance(sl, ast.Slice)
                and sl.step is None
                and isinstance(sl.lower, ast.Name)
                and isinstance(sl.upper, ast.Name)
                and self.sched.posbound.get(sl.lower.id) == 0
                and self.sched.posbound.get(sl.upper.id) == 1
            ):
                raise StreamPlanError(
                    f"unsupported source access {ast.unparse(node)!r}: "
                    "streaming requires whole-stream gathers"
                )
            col = self.sched.stream_cols[node.value.id]
            return ast.Name(id=f"_c{col}", ctx=ast.Load())
        return self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id in self.sched.stream_cols:
            raise StreamPlanError(
                f"unsupported bare use of source array {node.id!r}"
            )
        return node

    def visit_Call(self, node: ast.Call) -> ast.AST:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("group_ranks", "unique_first")
            and len(node.args) == 1
            and self.sched.is_stream_expr(node.args[0])
        ):
            return self._state_call(node.func.id,
                                    [self.visit(node.args[0])])
        if _is_np_call(node, "arange"):
            args, kws = node.args, node.keywords
            # np.arange(x.shape[0]) over a stream -> global positions
            if (
                len(args) == 1
                and isinstance(args[0], ast.Subscript)
                and isinstance(args[0].value, ast.Attribute)
                and args[0].value.attr == "shape"
                and isinstance(args[0].value.value, ast.Name)
                and self.sched.var_class.get(args[0].value.value.id)
                == "stream"
            ):
                return self._state_call(
                    "arange_like",
                    [ast.Name(id=args[0].value.value.id, ctx=ast.Load())],
                    kws,
                )
            # np.arange(lo, hi) over the gathered positions
            if (
                len(args) == 2
                and isinstance(args[0], ast.Name)
                and isinstance(args[1], ast.Name)
                and self.sched.posbound.get(args[0].id) == 0
                and self.sched.posbound.get(args[1].id) == 1
            ):
                length = ast.Subscript(
                    value=ast.Attribute(
                        value=ast.Name(id=f"_c{self.sched.order}",
                                       ctx=ast.Load()),
                        attr="shape", ctx=ast.Load(),
                    ),
                    slice=ast.Constant(value=0), ctx=ast.Load(),
                )
                return self._state_call("arange_span", [length], kws)
        return self.generic_visit(node)


class _KernelScheduler:
    """Classifies and schedules one vector kernel into streaming phases."""

    def __init__(self, generated: GeneratedConversion) -> None:
        self.generated = generated
        tree = ast.parse(generated.source)
        func = tree.body[0]
        if not isinstance(func, ast.FunctionDef):
            raise StreamPlanError("expected a single kernel function")
        self.func = func
        self.site_counter = 0
        self.var_class: Dict[str, str] = {}
        self.posbound: Dict[str, int] = {}
        self.stream_cols: Dict[str, int] = {}
        self.pos_param: Optional[str] = None
        self.dim_params: List[Tuple[str, int]] = []
        self._bind_params()
        self.order = max(self.stream_cols.values())
        self.rewriter = _StreamRewriter(self)
        self.output_names: List[str] = []
        self.phases: List[Tuple[str, object]] = []
        self._schedule()

    # ------------------------------------------------------------------
    def _bind_params(self) -> None:
        params = self.generated.params
        args = self.func.args.args
        if len(params) != len(args):
            raise StreamPlanError("kernel signature/params mismatch")
        for arg, (side, k, name) in zip(args, params):
            if side == "src_array" and k == -1:
                self.stream_cols[arg.arg] = None  # patched below
            elif side == "src_array" and name == "crd":
                self.stream_cols[arg.arg] = k
            elif side == "src_array" and name == "pos" and k == 0:
                if self.pos_param is not None:
                    raise StreamPlanError("multiple source pos arrays")
                self.pos_param = arg.arg
                self.var_class[arg.arg] = "dim"
            elif side == "src_array" or side == "src_meta":
                raise StreamPlanError(
                    f"source is not a coordinate stream (needs {name}@{k})"
                )
            else:
                self.dim_params.append((arg.arg, k))
                self.var_class[arg.arg] = "dim"
        if self.pos_param is None:
            raise StreamPlanError("source has no top-level position range")
        order = sum(1 for c in self.stream_cols.values() if c is not None)
        for name, col in self.stream_cols.items():
            if col is None:
                self.stream_cols[name] = order  # the values column

    # ------------------------------------------------------------------
    def is_stream_expr(self, node: ast.AST) -> bool:
        for name in _loaded_names(node):
            if name in self.stream_cols:
                return True
            if self.var_class.get(name) == "stream":
                return True
        return False

    def _classify(self, index: int, node: ast.stmt) -> _Stmt:
        reads = _loaded_names(node)
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                name = target.id
                value = node.value
                if (
                    _is_np_call(value, "arange")
                    and len(value.args) == 2
                    and all(isinstance(a, ast.Name) for a in value.args)
                    and self.posbound.get(value.args[0].id) == 0
                    and self.posbound.get(value.args[1].id) == 1
                ):
                    # positions of the gathered stream: a stream def
                    self.var_class[name] = "stream"
                    return _Stmt(index, node, "def", reads, {name})
                if _is_np_call(value, "bincount") and self.is_stream_expr(value):
                    self.var_class[name] = "dim"
                    return _Stmt(index, node, "fold", reads, {name})
                if self.is_stream_expr(value):
                    if self.var_class.get(name) == "stream":
                        raise StreamPlanError(f"stream var {name!r} rebound")
                    self.var_class[name] = "stream"
                    return _Stmt(index, node, "def", reads, {name})
                self.var_class[name] = "dim"
                if (
                    isinstance(value, ast.Subscript)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == self.pos_param
                    and isinstance(value.slice, ast.Constant)
                    and value.slice.value in (0, 1)
                ):
                    self.posbound[name] = value.slice.value
                return _Stmt(index, node, "dim", reads, {name})
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                array = target.value.id
                if self.is_stream_expr(target.slice) or self.is_stream_expr(
                    node.value
                ):
                    return _Stmt(index, node, "mutate", reads, set(),
                                 mutates=array)
                return _Stmt(index, node, "dim", reads, set(), mutates=array,
                             is_expr=True)  # effectful: never pruned
        if isinstance(node, ast.Expr):
            call = node.value
            ufunc = _ufunc_at(call)
            if ufunc is not None and self.is_stream_expr(call):
                if not (call.args and isinstance(call.args[0], ast.Name)):
                    raise StreamPlanError(
                        f"unsupported ufunc.at target {ast.unparse(call)!r}"
                    )
                return _Stmt(index, node, "mutate", reads, set(),
                             mutates=call.args[0].id)
            if self.is_stream_expr(node):
                raise StreamPlanError(
                    f"unsupported stream statement {ast.unparse(node)!r}"
                )
            return _Stmt(index, node, "dim", reads, set(), is_expr=True)
        raise StreamPlanError(
            f"unsupported statement {ast.unparse(node)!r}"
        )

    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        body = list(self.func.body)
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]
        if not body or not isinstance(body[-1], ast.Return):
            raise StreamPlanError("kernel has no return statement")
        ret = body.pop()
        elts = (
            ret.value.elts
            if isinstance(ret.value, ast.Tuple)
            else [ret.value]
        )
        for elt in elts:
            if not isinstance(elt, ast.Name):
                raise StreamPlanError("kernel returns a non-name value")
            self.output_names.append(elt.id)
        if len(self.output_names) != len(self.generated.outputs):
            raise StreamPlanError("return arity/outputs mismatch")

        defs: Dict[str, _Stmt] = {}
        all_def_reads: Set[str] = set()
        open_section: List[_Stmt] = []
        pending: Set[str] = set()
        open_reads: Set[str] = set()

        def close() -> None:
            if not open_section:
                return
            section = self._close_section(open_section, defs)
            self.phases.append(("section", section))
            open_section.clear()
            pending.clear()
            open_reads.clear()

        for index, raw in enumerate(body):
            stmt = self._classify(index, raw)
            if stmt.kind == "def":
                stmt.node = self._rewrite(stmt)
                defs[next(iter(stmt.writes))] = stmt
                all_def_reads.update(stmt.reads)
                continue
            if stmt.kind in ("fold", "mutate"):
                stmt.node = self._rewrite(stmt)
                if stmt.kind == "fold":
                    stmt.fold_site = self._fold_site(stmt)
                open_section.append(stmt)
                pending.update(stmt.writes)
                if stmt.mutates:
                    pending.add(stmt.mutates)
                open_reads.update(stmt.reads)
                continue
            # dim statement: hoist past the open section unless it reads
            # a pending fold/mutation output or rebinds something the
            # section (or any stream def) reads.
            conflict = bool(
                (stmt.reads & pending)
                or (stmt.writes & open_reads)
                or (open_section and stmt.writes & all_def_reads)
            )
            if conflict:
                close()
            for name in stmt.reads:
                if self.var_class.get(name) == "stream":
                    raise StreamPlanError(
                        f"O(dim) statement reads stream value {name!r}: "
                        f"{ast.unparse(stmt.node)!r}"
                    )
            stmt.node = self._rewrite_dim(stmt)
            self.phases.append(("dim", stmt))
        close()
        self._prune()
        for phase, item in self.phases:
            if phase == "dim":
                item.code = compile(
                    ast.fix_missing_locations(
                        ast.Module(body=[item.node], type_ignores=[])
                    ),
                    f"<repro-streamed-dim-{item.index}>", "exec",
                )
            else:
                item.code = compile(
                    ast.fix_missing_locations(
                        ast.Module(body=[s.node for s in item.body],
                                   type_ignores=[])
                    ),
                    "<repro-streamed-pass>", "exec",
                )

    def _rewrite(self, stmt: _Stmt) -> ast.stmt:
        return self.rewriter.visit(stmt.node)

    def _fold_site(self, stmt: _Stmt) -> int:
        """Wrap a fold statement's value in ``_state.fold_sum`` and
        return the site id."""
        assert isinstance(stmt.node, ast.Assign)
        self.site_counter += 1
        site = self.site_counter
        stmt.node.value = ast.Call(
            func=ast.Attribute(
                value=ast.Name(id="_state", ctx=ast.Load()),
                attr="fold_sum", ctx=ast.Load(),
            ),
            args=[ast.Constant(value=site), stmt.node.value],
            keywords=[],
        )
        return site

    def _rewrite_dim(self, stmt: _Stmt) -> ast.stmt:
        """Redirect output-array allocation/binding into the store."""
        node = stmt.node
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in self.output_names
        ):
            return node
        name = node.targets[0].id
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("empty", "zeros")
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id == "np"
            and len(value.args) == 1
        ):
            node.value = ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id="_out", ctx=ast.Load()),
                    attr="empty", ctx=ast.Load(),
                ),
                args=[ast.Constant(value=name), value.args[0]],
                keywords=value.keywords,
            )
        else:
            node.value = ast.Call(
                func=ast.Attribute(
                    value=ast.Name(id="_out", ctx=ast.Load()),
                    attr="adopt", ctx=ast.Load(),
                ),
                args=[ast.Constant(value=name), value],
                keywords=[],
            )
        return node

    def _close_section(self, pinned: List[_Stmt],
                       defs: Dict[str, _Stmt]) -> _Section:
        needed: Set[str] = set()
        for stmt in pinned:
            needed.update(stmt.reads)
        included: Dict[str, _Stmt] = {}
        changed = True
        while changed:
            changed = False
            for name, stmt in defs.items():
                if name in needed and name not in included:
                    included[name] = stmt
                    needed.update(stmt.reads)
                    changed = True
        body = sorted(list(included.values()) + pinned, key=lambda s: s.index)
        section = _Section(body=body)
        for stmt in pinned:
            if stmt.fold_site is not None:
                section.fold_sites[stmt.fold_site] = next(iter(stmt.writes))
            if stmt.mutates in self.output_names:
                section.writes_outputs = True
        return section

    def _prune(self) -> None:
        """Drop dead bridge statements (e.g. unused position streams that
        classified as O(dim) via their bounds)."""
        live: Set[str] = set(self.output_names)
        kept: List[Tuple[str, object]] = []
        for phase, item in reversed(self.phases):
            if phase == "section":
                for stmt in item.body:
                    live.update(stmt.reads)
                kept.append((phase, item))
                continue
            stmt = item
            needed = (
                stmt.is_expr
                or bool(stmt.writes & live)
                or (stmt.mutates is not None and stmt.mutates in live)
            )
            if needed:
                live.update(stmt.reads)
                kept.append((phase, item))
        self.phases = list(reversed(kept))


class StreamedConversion:
    """A scheduled out-of-core conversion for one destination format.

    ``passes`` is the number of sequential passes over the source the
    plan makes (two for flat destinations, one more per dependent
    hierarchy level); ``phase_sources`` exposes the scheduled code of
    every phase for inspection, like the other backends' ``.source``.
    Obtain instances from :func:`plan_streamed`; execute with a
    :class:`~repro.io.stream.CoordinateStream` and a
    :class:`~repro.storage.memmap.MemmapStore` via
    :func:`repro.stream.convert_file`.
    """

    def __init__(self, generated: GeneratedConversion,
                 scheduler: _KernelScheduler) -> None:
        self.generated = generated
        self.dst_format = generated.dst_format
        self.src_format = generated.src_format
        self._scheduler = scheduler
        self.order = scheduler.order
        self.passes = sum(
            1 for phase, _ in scheduler.phases if phase == "section"
        )

    @property
    def phase_sources(self) -> List[Tuple[str, str]]:
        out = []
        for phase, item in self._scheduler.phases:
            if phase == "dim":
                out.append(("bridge", ast.unparse(item.node)))
            else:
                out.append(("pass", item.source))
        return out

    # ------------------------------------------------------------------
    def execute(self, reader, out) -> Tuple:
        """Run the streaming phases; returns the kernel's output tuple."""
        sched = self._scheduler
        if len(reader.dims) != self.order:
            raise StreamPlanError(
                f"source order {len(reader.dims)} does not match "
                f"{self.dst_format.name} (order {self.order})"
            )
        env: Dict[str, object] = {}
        env[sched.pos_param] = np.array([0, reader.nnz], dtype=np.int64)
        for name, k in sched.dim_params:
            env[name] = int(reader.dims[k])
        g = {
            "np": np,
            "_out": out,
            "group_ranks": group_ranks,
            "unique_first": unique_first,
        }
        for phase, item in sched.phases:
            if phase == "dim":
                exec(item.code, g, env)
                name = next(iter(item.writes), None)
                if name in sched.output_names and name in out.arrays:
                    env[name] = out.arrays[name]
                continue
            state = StreamState()
            for chunk in reader.chunks():
                ns = dict(env)
                ns["_state"] = state
                for col, column in enumerate(chunk):
                    ns[f"_c{col}"] = column
                exec(item.code, g, ns)
                if item.writes_outputs:
                    out.release()
            for site, target in item.fold_sites.items():
                env[target] = state.fold_result(site)
        values = []
        for name in sched.output_names:
            if name not in env:
                raise StreamPlanError(
                    f"output {name!r} was never bound by the schedule"
                )
            values.append(env[name])
        for name, (side, k, part) in zip(sched.output_names,
                                         self.generated.outputs):
            out.set_role(name, side, k, part)
        return tuple(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamedConversion -> {self.dst_format.name} "
            f"({self.passes} passes)>"
        )


_PLAN_CACHE: Dict[Tuple, StreamedConversion] = {}


def plan_streamed(src_format: Format, dst_format: Format,
                  options: Optional[PlanOptions] = None
                  ) -> Optional[StreamedConversion]:
    """Schedule a streaming conversion, or ``None`` when not streamable.

    Plans the vector kernel for the pair and schedules it into streaming
    passes (see the module docstring); results are memoized per
    structural pair and options, like the engine's kernel cache.
    """
    from ..ir.vector import plan_vector

    options = options or PlanOptions()
    key = (structural_key(src_format), structural_key(dst_format),
           options.key())
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    if not chunkable(src_format, dst_format, options):
        return None
    generated = plan_vector(src_format, dst_format, options)
    if generated is None:
        return None
    plan = StreamedConversion(generated, _KernelScheduler(generated))
    _PLAN_CACHE[key] = plan
    return plan
