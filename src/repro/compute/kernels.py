"""Compute-kernel code generation over the per-level iteration protocol.

This is the compute side of the fusion subsystem: one generator that
lowers a :class:`~repro.compute.ops.ComputeOp` *directly over a source
format's iteration protocol* — the same per-level walk
(``Level.emit_iteration`` / ``Level.vector_iterate``) and inverse
coordinate remapping the conversion planner uses — through the same
three backends as conversions:

* **scalar** — a per-nonzero Python loop nest from
  :class:`~repro.convert.iterate.SourceLoopEmitter`, faithful to the
  paper's generated C and golden-pinned;
* **vector** — the gather pass of :mod:`repro.ir.vector`
  (``_gather_nonzeros``) followed by a bulk reduction
  (``np.bincount`` over the canonical row stream);
* **native** — the scalar IR printed as C by
  :func:`repro.ir.native.emit_c` and built/bound by the engine's native
  kernel flow (one serial C loop nest).

Because the kernel consumes the *source* format directly, running it on
a conversion's input **is** the fused convert-and-compute pipeline: the
attribute-query / edge-insertion / coordinate-scatter passes that exist
only to build the intermediate are never emitted, so the intermediate's
``pos``/``crd``/``vals`` arrays are never allocated.  Running the same
generator on the conversion's *output* format gives the
materialize-then-compute path; the two are validated against each other
(1e-9 relative tolerance — the adds reassociate) by the differential
tests.

The ``scale`` op is the exception that proves the design: it assembles
the destination, so its fused kernel really is the conversion kernel
with the value store rewritten in flight
(:meth:`~repro.convert.planner.ConversionPlanner._value_expr`).

Generated kernels reuse :class:`~repro.convert.planner.GeneratedConversion`
as their record type (same fields, same disk-cache schema); the op name
lives in the engine's kernel key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..convert.context import ConversionContext, PlanError
from ..convert.engine import CompiledConversion
from ..convert.iterate import SourceLoopEmitter
from ..convert.planner import (
    ConversionPlanner,
    GeneratedConversion,
    PlanOptions,
    _sanitize,
)
from ..formats.format import Format
from ..ir import builder as b
from ..ir.nodes import (
    Alloc,
    AugStore,
    Block,
    Comment,
    Expr,
    FuncDef,
    Load,
    Return,
    Var,
)
from ..ir.printer import print_func
from ..ir.simplify import simplify_stmt
from ..storage.tensor import Tensor
from .ops import ComputeOp, ComputeOpError, get_op

#: Operand parameter triples (see ``CompiledCompute.arguments``): the
#: dense vector rides as a float64 array (``level == -1`` marks float in
#: the native ABI), the scalar as a non-native metadata parameter.
_X_PARAM = ("src_array", -1, "x")
_ALPHA_PARAM = ("src_meta", -1, "alpha")
_Y_OUTPUT = ("dst_array", -1, "y")


class ComputeLoweringError(ValueError):
    """Raised when an op cannot be lowered for a format/backend pair."""


def _require_inverse(src_format: Format) -> None:
    if src_format.inverse is None:
        raise ComputeLoweringError(
            f"format {src_format.name} has no inverse mapping; compute "
            "kernels recover canonical coordinates through the inverse"
        )


# ----------------------------------------------------------------------
# scalar lowering


def _reduce_name(op: ComputeOp, src_format: Format, tag: str) -> str:
    return f"compute_{op.name}_{_sanitize(src_format.name)}__{tag}"


def _plan_scalar_reduce(
    src_format: Format,
    op: ComputeOp,
    options: PlanOptions,
    tag: str = "scalar",
) -> GeneratedConversion:
    """Scalar loop nest for a reduction op (spmv / row_reduce).

    The kernel iterates the source's stored components in scalar order,
    recovers canonical coordinates through the inverse mapping, and folds
    each value into the dense result — no destination assembly at all.
    """
    ctx = ConversionContext(src_format, src_format)
    y = Var(ctx.ng.reserve("y"))
    x = Var(ctx.ng.reserve("x")) if op.operand == "vector" else None
    emitter = SourceLoopEmitter(ctx)
    vals = ctx.src_vals()

    def body(canonical: List[Expr], leaf_pos: Expr, level_coords) -> AugStore:
        value: Expr = Load(vals, leaf_pos)
        if x is not None:
            value = b.mul(value, Load(x, canonical[1]))
        return AugStore(y, canonical[0], "+", value)

    update = (
        "y[i] += A(i, j) * x[j]"
        if op.operand == "vector"
        else "y[i] += A(i, ...)"
    )
    stmts = [
        Comment(
            f"compute: {update} over the source iteration "
            "(fused; no intermediate assembly)"
        ),
        Alloc(y, ctx.dim_params[0], "float64", "zeros"),
        emitter.emit(body),
        Return((y,)),
    ]
    body_block = simplify_stmt(Block(tuple(stmts)))
    if not isinstance(body_block, Block):
        body_block = Block((body_block,))
    params = ctx.param_list()
    if x is not None:
        params = params + [(_X_PARAM, x)]
    name = _reduce_name(op, src_format, tag)
    func = FuncDef(
        name,
        tuple(var.name for _, var in params),
        body_block,
        docstring=(
            f"Compute {op.name} directly over a {src_format.name} tensor.  "
            "Generated by repro.compute (per-level iteration protocol; "
            f"inverse remapping: {src_format.inverse})."
        ),
    )
    return GeneratedConversion(
        func=func,
        source=print_func(func),
        func_name=name,
        params=[key for key, _ in params],
        outputs=[_Y_OUTPUT],
        src_format=src_format,
        dst_format=src_format,
        backend="scalar" if tag == "scalar" else tag,
    )


class _ScaledPlanner(ConversionPlanner):
    """The conversion planner with the value stream scaled in flight."""

    def __init__(self, src_format, dst_format, options=None) -> None:
        super().__init__(src_format, dst_format, options)
        self.alpha = Var(self.ctx.ng.reserve("alpha"))

    def _value_expr(self, src_vals: Var, leaf_pos: Expr) -> Expr:
        return b.mul(Load(src_vals, leaf_pos), self.alpha)


def _scale_name(src_format: Format, dst_format: Format, tag: str) -> str:
    return (
        f"compute_scale_{_sanitize(src_format.name)}"
        f"_to_{_sanitize(dst_format.name)}__{tag}"
    )


def _plan_scalar_scale(
    src_format: Format, dst_format: Format, options: PlanOptions
) -> GeneratedConversion:
    """``B = alpha * A`` materialized in ``dst_format`` — the conversion
    plan with the value store rewritten, plus an ``alpha`` parameter."""
    generated = _ScaledPlanner(src_format, dst_format, options).plan()
    name = _scale_name(src_format, dst_format, "scalar")
    func = FuncDef(
        name,
        generated.func.params + ("alpha",),
        generated.func.body,
        docstring=(
            f"Convert a {src_format.name} tensor to {dst_format.name} with "
            "every value scaled by alpha in flight.  Generated by "
            "repro.compute over the conversion planner."
        ),
    )
    return replace(
        generated,
        func=func,
        source=print_func(func),
        func_name=name,
        params=list(generated.params) + [_ALPHA_PARAM],
        backend="scalar",
    )


# ----------------------------------------------------------------------
# vector lowering


def compute_vector_capable(
    src_format: Format,
    op,
    dst_format: Optional[Format] = None,
    options: Optional[PlanOptions] = None,
) -> bool:
    """True when the op lowers through the vector backend for this pair.

    Reductions need only the *gather* half of the vector protocol (every
    source level vector-capable, default options, an inverse mapping);
    ``scale`` assembles the destination and therefore needs the full
    :func:`repro.ir.vector.vectorizable` verdict.
    """
    from ..ir.vector import vectorizable

    if not get_op(op).needs_destination:
        dst_format = src_format  # the gather half: the source's levels
    return dst_format is not None and vectorizable(
        src_format, dst_format, options
    )


def _plan_vector_reduce(
    src_format: Format, op: ComputeOp, options: PlanOptions
) -> Optional[GeneratedConversion]:
    from ..cin.transforms import QueryCompileError
    from ..ir.vector import VectorEmitter, VectorLoweringError, _gather_nonzeros
    from ..levels.base import LevelFunctionError

    if not compute_vector_capable(src_format, op, None, options):
        return None
    ctx = ConversionContext(src_format, src_format)
    ctx.ng.reserve("y")
    if op.operand == "vector":
        ctx.ng.reserve("x")
    em = VectorEmitter(ctx)
    try:
        em.comment("gather: source nonzeros in scalar iteration order")
        canonical, val = _gather_nonzeros(em)
    except (LevelFunctionError, QueryCompileError, VectorLoweringError):
        return None
    rows = canonical[0].name
    n_rows = ctx.dim_params[0].name
    em.comment(f"compute: {op.name} folded over the gathered stream")
    if op.operand == "vector":
        contrib = em.assign("t", f"{val.name} * x[{canonical[1].name}]")
        weights = contrib.name
    else:
        weights = val.name
    em.emit(f"y = np.bincount({rows}, weights={weights}, minlength={n_rows})")

    name = _reduce_name(op, src_format, "vector")
    params = ctx.param_list()
    if op.operand == "vector":
        params = params + [(_X_PARAM, Var("x"))]
    lines = [
        f"def {name}({', '.join(var.name for _, var in params)}):",
        f'    """Compute {op.name} directly over a {src_format.name} tensor '
        "with bulk numpy operations",
        "",
        "    Generated by repro.compute (vector gather + bincount "
        "reduction; no intermediate assembly).",
        '    """',
    ]
    lines += [f"    {line}" for line in em.lines]
    lines.append("    return y")
    return GeneratedConversion(
        func=None,
        source="\n".join(lines),
        func_name=name,
        params=[key for key, _ in params],
        outputs=[_Y_OUTPUT],
        src_format=src_format,
        dst_format=src_format,
        backend="vector",
    )


def _plan_vector_scale(
    src_format: Format, dst_format: Format, options: PlanOptions
) -> Optional[GeneratedConversion]:
    from ..cin.compile import VectorQueryCompiler
    from ..cin.transforms import QueryCompileError
    from ..ir.vector import (
        VectorEmitter,
        VectorLoweringError,
        _counter_env,
        _dst_coords,
        _gather_nonzeros,
        _prefix_pass,
        _scatter,
        vectorizable,
    )
    from ..levels.base import LevelFunctionError

    if not vectorizable(src_format, dst_format, options):
        return None
    ctx = ConversionContext(src_format, dst_format)
    ctx.ng.reserve("alpha")
    em = VectorEmitter(ctx)
    try:
        em.comment("gather: source nonzeros in scalar iteration order")
        canonical, val = _gather_nonzeros(em)
        em.comment("compute: scale the value stream in flight")
        scaled = em.assign("sval", f"{val.name} * alpha")

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
        _scatter(em, coords, scaled)
    except (LevelFunctionError, QueryCompileError, VectorLoweringError):
        return None

    name = _scale_name(src_format, dst_format, "vector")
    outputs = ctx.output_list()
    params = ctx.param_list() + [(_ALPHA_PARAM, Var("alpha"))]
    lines = [
        f"def {name}({', '.join(var.name for _, var in params)}):",
        f'    """Convert a {src_format.name} tensor to {dst_format.name} '
        "with every value scaled by alpha in flight",
        "",
        "    Generated by repro.compute over the vector conversion "
        "lowering.",
        '    """',
    ]
    lines += [f"    {line}" for line in em.lines]
    lines.append(f"    return {', '.join(var.name for _, var in outputs)}")
    return GeneratedConversion(
        func=None,
        source="\n".join(lines),
        func_name=name,
        params=[key for key, _ in params],
        outputs=[key for key, _ in outputs],
        src_format=src_format,
        dst_format=dst_format,
        backend="vector",
    )


# ----------------------------------------------------------------------
# native lowering


def _plan_native_compute(
    src_format: Format,
    op: ComputeOp,
    dst_format: Optional[Format],
    options: PlanOptions,
) -> GeneratedConversion:
    """Lower a reduction op to C.  Raises ``NativeUnsupported`` for
    constructs the C emitter cannot translate — including ``scale``,
    whose float operand has no slot in the integer scalar ABI."""
    from ..ir.native import NativeUnsupported, emit_c

    if op.needs_destination:
        raise NativeUnsupported(
            "scale has no native lowering (the float operand does not fit "
            "the integer scalar ABI); the vector backend covers it"
        )
    scalar = _plan_scalar_reduce(src_format, op, options, tag="native")
    source = emit_c(scalar.func, scalar.params, scalar.outputs)
    return replace(scalar, func=None, source=source, backend="native")


def compute_native_capable(
    src_format: Format,
    op,
    dst_format: Optional[Format] = None,
    options: Optional[PlanOptions] = None,
) -> bool:
    """True when the op's scalar plan lowers to C for this format."""
    from ..ir.native import NativeUnsupported

    try:
        _plan_native_compute(
            src_format, get_op(op), dst_format, options or PlanOptions()
        )
    except (NativeUnsupported, ComputeOpError, ComputeLoweringError, PlanError):
        return False
    return True


# ----------------------------------------------------------------------
# driver


def resolve_compute_backend(
    src_format: Format,
    op,
    dst_format: Optional[Format] = None,
    options: Optional[PlanOptions] = None,
    backend: str = "auto",
) -> str:
    """Resolve ``"auto"`` to the best available compute backend.

    Mirrors :func:`repro.convert.planner.resolve_backend` for a backend
    the engine's :class:`~repro.convert.request.ConversionRequest` has
    validated: explicit requests are honored (an incapable one falls
    back to the scalar kernel at run time), ``"auto"`` picks vector when
    the pair gathers in bulk, scalar otherwise.
    """
    if backend != "auto":
        return backend
    op = get_op(op)
    options = options or PlanOptions()
    if compute_vector_capable(src_format, op, dst_format, options):
        return "vector"
    return "scalar"


def plan_compute_kernel(
    src_format: Format,
    op,
    dst_format: Optional[Format] = None,
    options: Optional[PlanOptions] = None,
    backend: str = "scalar",
) -> GeneratedConversion:
    """Plan one compute kernel through the requested (resolved) backend.

    For reductions the kernel consumes ``src_format`` directly and
    ``dst_format`` is ignored; for ``scale`` it assembles ``dst_format``.
    Raises :class:`ComputeLoweringError` when the backend cannot express
    the op for this format, ``NativeUnsupported`` for incapable native
    requests.
    """
    op = get_op(op)
    options = options or PlanOptions()
    op.validate_order(src_format.order)
    _require_inverse(src_format)
    if op.needs_destination and dst_format is None:
        raise ComputeLoweringError(
            f"op {op.name!r} materializes the destination; pass dst_format"
        )
    if backend == "native":
        return _plan_native_compute(src_format, op, dst_format, options)
    if backend == "vector":
        if op.needs_destination:
            generated = _plan_vector_scale(src_format, dst_format, options)
        else:
            generated = _plan_vector_reduce(src_format, op, options)
        if generated is None:
            raise ComputeLoweringError(
                f"op {op.name!r} over {src_format.name} has no vector lowering"
            )
        return generated
    if backend != "scalar":
        raise ComputeLoweringError(
            f"backend {backend!r} must be resolved before planning"
        )
    if op.needs_destination:
        return _plan_scalar_scale(src_format, dst_format, options)
    return _plan_scalar_reduce(src_format, op, options)


def fusable(
    src_format: Format,
    op,
    dst_format: Optional[Format] = None,
    options: Optional[PlanOptions] = None,
) -> bool:
    """True when the op can consume ``src_format`` directly (a fused hop).

    Light structural check — order bounds, an inverse mapping, and a
    destination for materializing ops; actual planning may still raise
    for exotic pairs, which callers treat as not fusable.
    """
    try:
        op = get_op(op)
        op.validate_order(src_format.order)
    except ComputeOpError:
        return False
    if src_format.inverse is None:
        return False
    if op.needs_destination and dst_format is None:
        return False
    return True


# ----------------------------------------------------------------------
# the runnable wrapper


@dataclass
class CompiledCompute(CompiledConversion):
    """A ready-to-run compute kernel for one (format, op) pair: a
    :class:`~repro.convert.engine.CompiledConversion` whose routine also
    takes the op's dense operand."""

    op: ComputeOp

    def arguments(
        self, tensor: Tensor, x=None, alpha: Optional[float] = None
    ) -> List:
        """Marshal the tensor and operand into kernel arguments."""
        operands = {_X_PARAM: x, _ALPHA_PARAM: alpha}
        return [
            operands[param] if param in operands
            else self._argument(tensor, *param)
            for param in self.generated.params
        ]

    def _check_operands(self, tensor: Tensor, x, alpha):
        self._check_source(tensor)
        if self.op.operand == "vector":
            if x is None:
                raise ValueError(f"op {self.op.name!r} needs an operand vector x")
            x = np.ascontiguousarray(x, dtype=np.float64)
            if x.shape != (tensor.dims[1],):
                raise ValueError(
                    f"operand x has shape {x.shape}, expected "
                    f"({tensor.dims[1]},)"
                )
        elif self.op.operand == "scalar":
            if alpha is None:
                raise ValueError(f"op {self.op.name!r} needs a scalar alpha")
            alpha = float(alpha)
        return x, alpha

    def __call__(self, tensor: Tensor, x=None, alpha: Optional[float] = None):
        """Run the kernel; returns a dense float64 vector (reductions) or
        a :class:`Tensor` in the destination format (``scale``)."""
        x, alpha = self._check_operands(tensor, x, alpha)
        results = self.func(*self.arguments(tensor, x=x, alpha=alpha))
        if self.op.produces == "dense":
            out = results if not isinstance(results, tuple) else results[0]
            return np.asarray(out, dtype=np.float64)
        return self._build_result(tensor, results)
