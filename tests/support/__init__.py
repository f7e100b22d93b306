"""Shared test support: generators and helpers reused across suites."""


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
