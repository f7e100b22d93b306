"""Shared test support: generators and helpers reused across suites."""

import contextlib


@contextlib.contextmanager
def leading_converter(src="COO", dst="CSR", name="test-converter"):
    """Register, for the block's duration, a converter that heads the
    ladder's first rung (weight 1e-9) and runs the generated vector
    kernel; yields the list each tensor it converts is appended to."""
    from repro.convert import (
        ConversionEngine,
        register_converter,
        unregister_converter,
    )

    calls = []
    runner = ConversionEngine()

    def convert(tensor, fmt):
        calls.append(tensor)
        return runner.convert(tensor, fmt, backend="vector", route="direct")

    register_converter(src, dst, convert, weight=1e-9, name=name)
    try:
        yield calls
    finally:
        unregister_converter(src, dst, name)
