"""The chunked conversion executor: chunk-parallel lowering of vector plans.

The vector backend (:mod:`repro.ir.vector`) lowers a conversion plan to a
straight line of bulk numpy passes over the gathered nonzero streams.
Those passes are *segment-local*: a histogram is additive over stream
chunks, a sequenced ``yield_pos`` rank is a chunk-local rank plus the
per-key counts of earlier chunks, and the payload gather/scatter touches
disjoint destination slots per nonzero.  This module exploits that by
**rewriting the generated vector kernel** into a chunk-parallel form:

* ``np.bincount(x, minlength=m)`` → ``chunked_bincount(x, m, _pool)`` —
  one histogram per chunk, summed (the count queries of Section 5);
* ``pos[p] + group_ranks(p)`` → ``chunked_yield_positions(pos, p, _pool)``
  — the bulk sequenced ``yield_pos``: chunk-local ranks offset by earlier
  chunks' per-key counts, merged against the *global* ``cumsum`` edge
  array (which stays serial: it is the O(dimension) merge step);
* ``group_ranks(x)`` / ``unique_first(x)`` → their ``chunked_*`` mirrors
  (remapping counters, Section 6.2 dedup tables);
* ``crd[pB] = x`` / ``vals[pB] = x`` → ``chunked_scatter(...)`` — the
  payload scatter, one chunk of the position stream at a time.  Only
  ``pB*`` position streams are rewritten: their duplicate indices (if
  any: dedup-shared slots) carry equal values by construction, so chunk
  order cannot change the result.

Every replacement computes the exact same arrays (see the helper
docstrings in :mod:`repro.ir.runtime` for the per-helper argument), so a
chunked kernel is **bit-identical to the serial vector backend for every
vectorizable pair** — ``tests/convert/test_chunked.py`` asserts this over
the full pair matrix.  Chunks execute on an engine-owned
:class:`~repro.ir.runtime.WorkerPool` (numpy releases the GIL in the bulk
kernels, so chunks overlap on multi-core hosts); on top of thread
parallelism, the chunk runtime recognizes sorted parent runs — contiguous
chunks of a lexicographic gather — and replaces global sorts with run
arithmetic.

The rewrite is an :mod:`ast` source-to-source pass over the generated
kernel, so the chunked source stays inspectable::

    from repro.convert.chunked import plan_chunked
    print(plan_chunked(COO, CSR).source)   # ...chunked_yield_positions(...)

(Comments of the serial source are dropped by the ast round-trip.)
"""

from __future__ import annotations

import ast
import re
from dataclasses import replace
from typing import Dict, Optional

from ..formats.format import Format
from ..storage.tensor import Tensor
from .engine import CompiledConversion
from .planner import GeneratedConversion, PlanOptions

#: Backend tag of chunked kernels in cache keys and ``GeneratedConversion``.
CHUNKED = "chunked"

#: Position-stream variables (``pB2``, ``pB3_2``...) — the only scatter
#: indices the rewriter parallelizes; see the module docstring.
_POSITION_STREAM = re.compile(r"pB\d+(_\d+)?$")


def chunkable(src_format: Format, dst_format: Format,
              options: Optional[PlanOptions] = None) -> bool:
    """True if the pair lowers through the chunked executor.

    The vector backend's capability, minus hashed levels: the chunked
    kernel is a rewrite of the vector kernel, so every other vectorizable
    pair has one (a kernel with no rewritable site still runs correctly —
    it just has no parallel section).  Hashed pairs are excluded even
    though they vectorize: ``hashed_bulk_insert`` placement depends on
    the *global* nonzero order, which chunk-local replays cannot
    reproduce.  Excluded pairs (and non-default plan options) fall back
    to the standard conversion paths.
    """
    from ..ir.vector import vectorizable

    if any(
        level.name == "hashed"
        for level in (*src_format.levels, *dst_format.levels)
    ):
        return False
    return vectorizable(src_format, dst_format, options)


class _ChunkRewriter(ast.NodeTransformer):
    """AST pass turning a serial vector kernel into a chunked kernel.

    Counts the rewritten sites per kind in ``sites`` so tests can see
    whether a kernel actually has a parallel section.
    """

    def __init__(self) -> None:
        self.sites: Dict[str, int] = {
            "bincount": 0, "yield": 0, "ranks": 0, "dedup": 0, "scatter": 0,
            "add_at": 0, "maximum_at": 0,
        }

    # -- small matchers -------------------------------------------------
    @staticmethod
    def _is_call_to(node: ast.AST, name: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    @staticmethod
    def _pool_arg() -> ast.expr:
        return ast.Name(id="_pool", ctx=ast.Load())

    # -- rewrites -------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> ast.AST:
        node = self.generic_visit(node)  # rewrite calls inside first
        # payload scatter: crd[pB] = x  ->  chunked_scatter(crd, pB, x, _pool)
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.targets[0].value, ast.Name)
            and isinstance(node.targets[0].slice, ast.Name)
            and _POSITION_STREAM.match(node.targets[0].slice.id)
        ):
            self.sites["scatter"] += 1
            call = ast.Call(
                func=ast.Name(id="chunked_scatter", ctx=ast.Load()),
                args=[
                    ast.Name(id=node.targets[0].value.id, ctx=ast.Load()),
                    ast.Name(id=node.targets[0].slice.id, ctx=ast.Load()),
                    node.value,
                    self._pool_arg(),
                ],
                keywords=[],
            )
            return ast.Expr(value=call)
        return node

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        # yield positions: pos[p] + group_ranks(p)
        #   -> chunked_yield_positions(pos, p, _pool)
        if (
            isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Subscript)
            and isinstance(node.left.value, ast.Name)
            and isinstance(node.left.slice, ast.Name)
            and self._is_call_to(node.right, "group_ranks")
            and isinstance(node.right.args[0], ast.Name)
            and node.right.args[0].id == node.left.slice.id
        ):
            self.sites["yield"] += 1
            return ast.Call(
                func=ast.Name(id="chunked_yield_positions", ctx=ast.Load()),
                args=[
                    ast.Name(id=node.left.value.id, ctx=ast.Load()),
                    ast.Name(id=node.left.slice.id, ctx=ast.Load()),
                    self._pool_arg(),
                ],
                keywords=[],
            )
        return self.generic_visit(node)

    @staticmethod
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

    def visit_Call(self, node: ast.Call) -> ast.AST:
        node = self.generic_visit(node)
        # prefix passes: np.add.at / np.maximum.at over the gathered
        # streams -> per-chunk partial reductions merged by key
        ufunc = self._ufunc_at(node)
        if ufunc in ("add", "maximum"):
            self.sites[f"{ufunc}_at"] += 1
            return ast.Call(
                func=ast.Name(id=f"chunked_{ufunc}_at", ctx=ast.Load()),
                args=list(node.args) + [self._pool_arg()],
                keywords=list(node.keywords),
            )
        if self._is_call_to(node, "group_ranks"):
            self.sites["ranks"] += 1
            return ast.Call(
                func=ast.Name(id="chunked_group_ranks", ctx=ast.Load()),
                args=list(node.args) + [self._pool_arg()],
                keywords=[],
            )
        if self._is_call_to(node, "unique_first"):
            self.sites["dedup"] += 1
            return ast.Call(
                func=ast.Name(id="chunked_unique_first", ctx=ast.Load()),
                args=list(node.args) + [self._pool_arg()],
                keywords=[],
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "bincount"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        ):
            self.sites["bincount"] += 1
            return ast.Call(
                func=ast.Name(id="chunked_bincount", ctx=ast.Load()),
                args=list(node.args),
                keywords=list(node.keywords)
                + [ast.keyword(arg="pool", value=self._pool_arg())],
            )
        return node


def rewrite_chunked(source: str, func_name: str):
    """Rewrite a serial vector kernel's source into its chunked form.

    Returns ``(chunked source, chunked function name, sites)`` where
    ``sites`` counts the rewritten sites per kind.  The chunked function
    takes one extra trailing parameter ``_pool`` (default ``None``: the
    chunk helpers then run their single-chunk serial paths, so the kernel
    is callable exactly like the serial one).
    """
    tree = ast.parse(source)
    func = tree.body[0]
    if not isinstance(func, ast.FunctionDef) or func.name != func_name:
        raise ValueError(f"expected a single function {func_name!r}")
    rewriter = _ChunkRewriter()
    rewriter.visit(func)
    new_name = func_name.replace("__vector", "") + f"__{CHUNKED}"
    func.name = new_name
    func.args.args.append(ast.arg(arg="_pool"))
    func.args.defaults.append(ast.Constant(value=None))
    doc = ast.get_docstring(func)
    if doc is not None:
        func.body[0] = ast.Expr(
            value=ast.Constant(
                value=doc.replace(
                    "with bulk numpy operations",
                    "with chunk-parallel numpy operations",
                )
                + "\n\nChunked rewrite of the vector kernel "
                "(repro.convert.chunked); _pool is a repro.ir.runtime."
                "WorkerPool (None runs single-chunk).\n"
            )
        )
    ast.fix_missing_locations(tree)
    return ast.unparse(tree), new_name, rewriter.sites


def plan_chunked(src_format: Format, dst_format: Format,
                 options: Optional[PlanOptions] = None
                 ) -> Optional[GeneratedConversion]:
    """Plan a conversion through the chunked executor.

    Plans the vector kernel and rewrites it (see :func:`rewrite_chunked`);
    returns a :class:`~repro.convert.planner.GeneratedConversion` with
    ``backend == "chunked"``, or ``None`` when the pair is not
    :func:`chunkable` (callers then fall back to the standard paths).
    """
    from ..ir.vector import plan_vector

    if not chunkable(src_format, dst_format, options):
        return None
    generated = plan_vector(src_format, dst_format, options)
    if generated is None:
        return None
    source, name, _ = rewrite_chunked(generated.source, generated.func_name)
    return replace(
        generated, source=source, func_name=name, backend=CHUNKED
    )


class ChunkedConversion(CompiledConversion):
    """A compiled chunked routine for a (source, target) format pair.

    Calling convention matches
    :class:`~repro.convert.engine.CompiledConversion` plus an optional
    ``pool`` (a :class:`~repro.ir.runtime.WorkerPool`); with ``pool=None``
    the kernel runs its single-chunk serial paths.  Obtain instances from
    :meth:`ConversionEngine.make_chunked
    <repro.convert.engine.ConversionEngine.make_chunked>` — the engine
    caches them alongside the serial kernels::

        conv = engine.make_chunked("COO", "CSR")
        out = conv(tensor, engine.worker_pool(4))
    """

    def __call__(self, tensor: Tensor, pool=None) -> Tensor:
        """Convert ``tensor`` with chunks executed on ``pool``."""
        self._check_source(tensor)
        results = self.func(*self.arguments(tensor), _pool=pool)
        return self._build_result(tensor, results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ChunkedConversion {self.src_format.name} -> "
            f"{self.dst_format.name}>"
        )
