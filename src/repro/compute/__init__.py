"""Fused convert-and-compute pipelines.

The compute subsystem expresses a small set of compute kernels — SpMV,
row-reduce, scale — over the *same per-level iteration protocol* the
conversion planner walks (:mod:`repro.ir.levels`), so a compute op can be
lowered two ways from one description:

* **materialize-then-compute**: run the conversion plan, then a
  generated compute kernel over the destination format;
* **fused**: interleave the conversion's attribute-query / coordinate
  -remap passes with the consuming op so the intermediate format's
  ``pos``/``crd``/``vals`` arrays are never allocated.

``engine.plan_compute(src, op, dst)`` returns a compute plan — a
:class:`~repro.convert.plan.ConversionPlan` whose last hop runs the op —
fusing whenever the op can consume the source directly and builds no
destination (``fuse="auto"``; ``scale`` materializes, and ``fuse=False``
pins materialize-then-compute).  ``Tensor.spmv(x,
via="CSR")`` is the one-line entry point.  See ``docs/fusion.md``.  ``ComputePlan`` and
``COMPUTE_PLAN_SCHEMA`` remain importable as plain aliases of
``ConversionPlan`` and ``PLAN_SCHEMA``.
"""

from ..convert.plan import PLAN_SCHEMA as COMPUTE_PLAN_SCHEMA
from ..convert.plan import ConversionPlan as ComputePlan
from .kernels import (
    CompiledCompute,
    ComputeLoweringError,
    compute_native_capable,
    compute_vector_capable,
    fusable,
    plan_compute_kernel,
    resolve_compute_backend,
)
from .ops import (
    COMPUTE_OPS,
    ROW_REDUCE,
    SCALE,
    SPMV,
    ComputeOp,
    ComputeOpError,
    get_op,
)
from .reference import (
    row_reduce_reference,
    scale_reference,
    spmv_reference,
)

__all__ = [
    "COMPUTE_OPS",
    "COMPUTE_PLAN_SCHEMA",
    "CompiledCompute",
    "ComputeLoweringError",
    "ComputeOp",
    "ComputeOpError",
    "ComputePlan",
    "ROW_REDUCE",
    "SCALE",
    "SPMV",
    "compute_native_capable",
    "compute_vector_capable",
    "fusable",
    "get_op",
    "plan_compute_kernel",
    "resolve_compute_backend",
    "row_reduce_reference",
    "scale_reference",
    "spmv_reference",
]
