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
