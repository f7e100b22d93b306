"""Conversion engine: planner, code generation, public API (Sections 3, 6)."""

from .api import CompiledConversion, convert, generated_source, make_converter, plan
from .context import ConversionContext, PlanError, QueryResultHandle
from .converters import (
    Converter,
    converter_named,
    converters_for,
    register_converter,
    run_converter,
    scipy_available,
    unregister_converter,
)
from .engine import ConversionEngine, default_engine, set_default_engine
from .features import StructuralFeatures, default_features, sample_features
from .plan import PLAN_SCHEMA, CompiledPlan, ConversionPlan
from .planner import (
    BACKENDS,
    ConversionPlanner,
    GeneratedConversion,
    PlanOptions,
    plan_conversion,
    resolve_backend,
)
from .request import ConversionRequest
from .router import (
    EdgeCandidate,
    Hop,
    bridge_for,
    edge_candidates,
    find_route,
    rebind_endpoints,
)
from .streamed import (
    StreamedConversion,
    StreamPlanError,
    chunkable,
    plan_streamed,
    streamable,
)
from .verify import VerificationError, verify_all_pairs, verify_conversion

__all__ = [
    "BACKENDS",
    "PLAN_SCHEMA",
    "CompiledConversion",
    "CompiledPlan",
    "ConversionContext",
    "ConversionEngine",
    "ConversionPlan",
    "ConversionPlanner",
    "ConversionRequest",
    "Converter",
    "EdgeCandidate",
    "GeneratedConversion",
    "Hop",
    "PlanError",
    "PlanOptions",
    "QueryResultHandle",
    "StreamPlanError",
    "StreamedConversion",
    "StructuralFeatures",
    "VerificationError",
    "bridge_for",
    "chunkable",
    "convert",
    "converter_named",
    "converters_for",
    "default_engine",
    "default_features",
    "edge_candidates",
    "find_route",
    "generated_source",
    "make_converter",
    "plan",
    "plan_conversion",
    "plan_streamed",
    "rebind_endpoints",
    "register_converter",
    "resolve_backend",
    "streamable",
    "run_converter",
    "sample_features",
    "scipy_available",
    "set_default_engine",
    "unregister_converter",
    "verify_all_pairs",
    "verify_conversion",
]
