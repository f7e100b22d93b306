"""Shared code-generation context for one conversion routine.

The :class:`ConversionContext` owns naming, the parameter/output
registries, destination dimension bounds, and attribute query results.  It
exposes two facades matching the interfaces level formats expect:
:class:`SrcView` (iteration context over the source tensor, prefix ``A``)
and :class:`DstView` (assembly context for the result, prefix ``B``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cin.nodes import Key, KeyDim
from ..formats.format import Format, FormatError
from ..ir import builder as b
from ..ir.builder import NameGenerator
from ..ir.nodes import Const, Expr, Load, Var
from ..ir.simplify import simplify_expr


class PlanError(FormatError):
    """Raised when a conversion cannot be planned for the given formats."""


@dataclass
class QueryResultHandle:
    """Access to one computed attribute query result.

    Levels index results with destination coordinates via :meth:`at`
    (which shifts by each key dimension's lower bound and applies the
    ``max``/``min`` decoding of Section 5.2), or with a pre-shifted linear
    coordinate via :meth:`at_shifted` (used by the squeezed level's
    coordinate-order scan).
    """

    ctx: "ConversionContext"
    keys: Tuple[Key, ...]
    var: Var
    is_scalar: bool
    decode: Optional[Tuple[str, int]] = None

    def _decode(self, expr: Expr) -> Expr:
        if self.decode is None:
            return expr
        kind, dim = self.decode
        if kind == "max":
            # Q == Q' + s - 1 where s is the smallest coordinate.
            return simplify_expr(b.sub(b.add(expr, self.ctx.dst_dim_lo(dim)), 1))
        # Q == -Q' + t + 1 where t is the largest coordinate.
        return simplify_expr(b.add(b.sub(self.ctx.dst_dim_hi(dim), expr), 1))

    def raw_index(self, env: Dict[Key, Expr]) -> Expr:
        """Linearized (already shifted) index for the given key values."""
        index: Expr = Const(0)
        for key in self.keys:
            index = b.add(b.mul(index, self.ctx.key_extent(key)), env[key])
        return simplify_expr(index)

    def at(self, dst_coords: Sequence[Expr]) -> Expr:
        """Value for the subtensor at the given destination coordinates."""
        if self.is_scalar:
            return self._decode(self.var)
        env = {}
        for key in self.keys:
            if not isinstance(key, KeyDim):
                raise PlanError("level queries must be keyed by destination dims")
            env[key] = simplify_expr(
                b.sub(dst_coords[key.dim], self.ctx.dst_dim_lo(key.dim))
            )
        return self._decode(Load(self.var, self.raw_index(env)))

    def at_shifted(self, linear: Expr) -> Expr:
        """Value at a pre-shifted linear index (single-key results)."""
        if self.is_scalar or len(self.keys) != 1:
            raise PlanError("at_shifted requires a single-key array result")
        return self._decode(Load(self.var, linear))


class ConversionContext:
    """State shared by all code generators of one conversion."""

    def __init__(self, src_format: Format, dst_format: Format) -> None:
        if src_format.order != dst_format.order:
            raise PlanError(
                f"cannot convert order-{src_format.order} {src_format.name} "
                f"to order-{dst_format.order} {dst_format.name}"
            )
        if src_format.inverse is None:
            raise PlanError(f"{src_format.name} has no inverse mapping (not a source)")
        self.src_format = src_format
        self.dst_format = dst_format
        self.ng = NameGenerator()
        #: canonical index-variable names (the destination remap's source side)
        self.canonical_names: Tuple[str, ...] = dst_format.remap.src_vars
        self.order = src_format.order

        # symbolic canonical dimension sizes N1..Nr — always parameters
        self.dim_params: List[Var] = [Var(f"N{d + 1}") for d in range(self.order)]
        for var in self.dim_params:
            self.ng.reserve(var.name)

        # parameter/output registries: insertion-ordered
        self.src_params: Dict[Tuple[str, int, str], Var] = {}
        self.outputs: Dict[Tuple[str, int, str], Var] = {}

        self._src_intervals = src_format.dim_intervals()
        self._dst_intervals = dst_format.dim_intervals()

        self.queries: Dict[Tuple[int, str], QueryResultHandle] = {}
        self.scratch: Dict[object, Var] = {}

        self.src = SrcView(self)
        self.dst = DstView(self)

        # canonical var name of each source level coordinate (or None)
        from ..remap.ast import RVar

        inverse = src_format.inverse
        self.src_level_var: List[Optional[str]] = [None] * src_format.nlevels
        for d, coord in enumerate(inverse.dst_coords):
            if not coord.lets and isinstance(coord.expr, RVar):
                level = inverse.src_vars.index(coord.expr.name)
                self.src_level_var[level] = self.canonical_names[d]

    # -- parameters & outputs ------------------------------------------------
    def _register(self, registry, side: str, k: int, name: str) -> Var:
        key = (side, k, name)
        if key not in registry:
            prefix = "A" if side.startswith("src") else "B"
            suffix = name if name == "vals" else f"{k + 1}_{name}"
            var = Var(f"{prefix}_{suffix}" if name == "vals" else f"{prefix}{suffix}")
            self.ng.reserve(var.name)
            registry[key] = var
        return registry[key]

    def src_array(self, k: int, name: str) -> Var:
        return self._register(self.src_params, "src_array", k, name)

    def src_meta(self, k: int, name: str) -> Var:
        return self._register(self.src_params, "src_meta", k, name)

    def src_vals(self) -> Var:
        return self._register(self.src_params, "src_array", -1, "vals")

    def dst_array(self, k: int, name: str) -> Var:
        return self._register(self.outputs, "dst_array", k, name)

    def dst_meta(self, k: int, name: str) -> Var:
        return self._register(self.outputs, "dst_meta", k, name)

    def dst_vals(self) -> Var:
        return self._register(self.outputs, "dst_array", -1, "vals")

    def param_list(self) -> List[Tuple[Tuple[str, int, str], Var]]:
        """Function parameters: source arrays/meta then dimension sizes."""
        params = list(self.src_params.items())
        params += [
            (("dim", d, ""), var) for d, var in enumerate(self.dim_params)
        ]
        return params

    def output_list(self) -> List[Tuple[Tuple[str, int, str], Var]]:
        return list(self.outputs.items())

    # -- dimension bounds -----------------------------------------------------
    def canonical_dim_size(self, var_name: str) -> Var:
        """Size of the canonical dimension indexed by ``var_name``."""
        return self.dim_params[self.canonical_names.index(var_name)]

    def _interval(self, intervals, k: int, what: str, side: str):
        interval = intervals[k]
        value = getattr(interval, what) if what != "extent" else interval.extent()
        if value is None:
            raise PlanError(
                f"{side} dimension {k} has no static {what} (data-dependent); "
                "only levels that size themselves from attribute queries may "
                "store it"
            )
        return value

    def dst_dim_lo(self, k: int) -> Expr:
        return self._interval(self._dst_intervals, k, "lo", "destination")

    def dst_dim_hi(self, k: int) -> Expr:
        return self._interval(self._dst_intervals, k, "hi", "destination")

    def dst_dim_extent(self, k: int) -> Expr:
        return self._interval(self._dst_intervals, k, "extent", "destination")

    def src_dim_extent(self, k: int) -> Expr:
        return self._interval(self._src_intervals, k, "extent", "source")

    def key_extent(self, key: Key) -> Expr:
        """Extent of a query result key (dst dim or canonical src var)."""
        if isinstance(key, KeyDim):
            return self.dst_dim_extent(key.dim)
        return self.canonical_dim_size(key.var)

    def key_lo(self, key: Key) -> Expr:
        if isinstance(key, KeyDim):
            return self.dst_dim_lo(key.dim)
        return Const(0)

    # -- query registry ---------------------------------------------------------
    def register_query(
        self, level: int, label: str, handle: QueryResultHandle
    ) -> None:
        self.queries[(level, label)] = handle

    def query(self, level: int, label: str) -> QueryResultHandle:
        if (level, label) not in self.queries:
            raise PlanError(f"query {label!r} for level {level} was not computed")
        return self.queries[(level, label)]


class SrcView:
    """Iteration-context facade over the source tensor (prefix ``A``)."""

    def __init__(self, ctx: ConversionContext) -> None:
        self._ctx = ctx
        self.ng = ctx.ng

    def array(self, k: int, name: str) -> Var:
        return self._ctx.src_array(k, name)

    def meta(self, k: int, name: str) -> Var:
        return self._ctx.src_meta(k, name)

    def dim_size(self, k: int) -> Expr:
        return self._ctx.src_dim_extent(k)

    def coord_name(self, k: int) -> str:
        var = self._ctx.src_level_var[k]
        return var if var is not None else f"c{k + 1}"


class DstView:
    """Assembly-context facade for the result tensor (prefix ``B``).

    Also implements the iteration-context interface so already-assembled
    result levels can be traversed (edge-insertion parent loops).
    """

    def __init__(self, ctx: ConversionContext) -> None:
        self._ctx = ctx
        self.ng = ctx.ng
        self.scratch = ctx.scratch
        self._zero_init = ctx.dst_format.padded

    def array(self, k: int, name: str) -> Var:
        return self._ctx.dst_array(k, name)

    def meta(self, k: int, name: str) -> Var:
        return self._ctx.dst_meta(k, name)

    def dim_lo(self, k: int) -> Expr:
        return self._ctx.dst_dim_lo(k)

    def dim_size(self, k: int) -> Expr:
        return self._ctx.dst_dim_extent(k)

    def coord_name(self, k: int) -> str:
        return f"i{k + 1}"

    def needs_zero_init(self, k: int) -> bool:
        return self._zero_init

    def query(self, k: int, label: str) -> QueryResultHandle:
        return self._ctx.query(k, label)
