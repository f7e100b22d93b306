"""Shared test support: generators and helpers reused across suites."""

import contextlib


def count_feature_samples(monkeypatch):
    """Record every structural-feature sample the engine takes; returns
    the list each sampled tensor is appended to."""
    from repro.convert import engine as engine_module

    calls = []
    real = engine_module.sample_features
    monkeypatch.setattr(engine_module, "sample_features",
                        lambda tensor: calls.append(tensor) or real(tensor))
    return calls


def count_exact_passes(monkeypatch):
    """Record every exact sortedness pass over a stream (the
    execution-time check behind a filtered converter); returns the list
    each checked tensor is appended to."""
    from repro.convert import features as features_module

    calls = []
    real = features_module._stream_sorted
    monkeypatch.setattr(
        features_module, "_stream_sorted",
        lambda tensor, nnz: calls.append(tensor) or real(tensor, nnz),
    )
    return calls


@contextlib.contextmanager
def sorted_only_converter(src="COO", dst="CSR", name="sorted-only"):
    """Register, for the block's duration, a converter with a ``filter``
    (``sortedness >= 1.0``) that heads the ladder's first rung
    (weight 1e-9) and runs the generated vector kernel; yields the list
    each tensor it converts is appended to.  The builtins carry no
    filter, so this is what puts feature sampling and the
    execution-time exact pass back on the path."""
    from repro.convert import (
        ConversionEngine,
        register_converter,
        unregister_converter,
    )

    calls = []
    runner = ConversionEngine()

    def sorted_only(tensor, fmt):
        calls.append(tensor)
        return runner.convert(tensor, fmt, backend="vector", route="direct")

    register_converter(src, dst, sorted_only,
                       filter=lambda f: f.sortedness >= 1.0,
                       weight=1e-9, name=name)
    try:
        yield calls
    finally:
        unregister_converter(src, dst, name)
