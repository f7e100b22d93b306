"""Tests for the generated-code runtime helpers and source compilation."""

import numpy as np
import pytest

from repro.ir.runtime import (
    compile_source,
    fill,
    group_ranks,
    prefix_sum,
    trim,
    unique_first,
)


def test_prefix_sum_matches_figure_11_semantics():
    # pos[0]=0, pos[k] = count of position k-1 -> offsets after finalize
    pos = np.array([0, 3, 1, 2, 0], dtype=np.int64)
    prefix_sum(pos, 5)
    np.testing.assert_array_equal(pos, [0, 3, 4, 6, 6])


def test_prefix_sum_partial_length():
    arr = np.array([0, 1, 1, 99], dtype=np.int64)
    prefix_sum(arr, 3)
    np.testing.assert_array_equal(arr, [0, 1, 2, 99])


def test_trim_returns_prefix_view():
    arr = np.arange(10, dtype=np.int64)
    out = trim(arr, 4)
    np.testing.assert_array_equal(out, [0, 1, 2, 3])
    out[0] = 7  # view, not copy — matches realloc-shrink semantics
    assert arr[0] == 7


def test_fill():
    arr = np.empty(5, dtype=np.int64)
    fill(arr, -1)
    assert np.all(arr == -1)


def test_compile_source_exposes_runtime():
    src = (
        "def f(n):\n"
        "    pos = np.zeros(n + 1, dtype=np.int64)\n"
        "    for i in range(n):\n"
        "        pos[i + 1] = 2\n"
        "    prefix_sum(pos, n + 1)\n"
        "    return trim(pos, n + 1), min(1, 2), max(1, 2)\n"
    )
    f = compile_source(src, "f")
    pos, lo, hi = f(3)
    np.testing.assert_array_equal(pos, [0, 2, 4, 6])
    assert (lo, hi) == (1, 2)
    assert f.__source__ == src


def test_compile_source_tracebacks_show_generated_lines():
    src = "def boom():\n    return undefined_name\n"
    boom = compile_source(src, "boom")
    try:
        boom()
    except NameError:
        import traceback

        text = traceback.format_exc()
        assert "return undefined_name" in text
    else:  # pragma: no cover
        pytest.fail("expected NameError")


def test_compile_source_extra_globals():
    f = compile_source("def g():\n    return MAGIC\n", "g", {"MAGIC": 42})
    assert f() == 42


def test_compiled_functions_are_isolated():
    f1 = compile_source("def h():\n    return 1\n", "h")
    f2 = compile_source("def h():\n    return 2\n", "h")
    assert f1() == 1 and f2() == 2


# ----------------------------------------------------------------------
# group_ranks / unique_first against a per-key counter (the scalar
# ``pos[p]++`` and dedup table they replace), sorted fast path included


def _key_cases():
    rng = np.random.default_rng(0)
    return [
        np.zeros(0, dtype=np.int64),
        np.array([5], dtype=np.int64),
        rng.integers(0, 7, 100).astype(np.int64),
        np.sort(rng.integers(0, 7, 100)).astype(np.int64),
        rng.integers(0, 10**12, 100).astype(np.int64),     # sparse key space
        np.sort(rng.integers(0, 10**12, 57)).astype(np.int64),
        np.concatenate(
            [np.sort(rng.integers(0, 9, 50)), rng.integers(0, 9, 50)]
        ).astype(np.int64),                                 # sorted prefix only
    ]


def _counted(keys):
    """Per-key running counts and first occurrences, one key at a time."""
    seen, ranks, firsts = {}, [], []
    for index, key in enumerate(keys.tolist()):
        if key not in seen:
            seen[key] = 0
            firsts.append(index)
        ranks.append(seen[key])
        seen[key] += 1
    return ranks, firsts


@pytest.mark.parametrize("case", range(len(_key_cases())))
def test_group_ranks_and_unique_first_match_a_per_key_counter(case):
    keys = _key_cases()[case]
    ranks, firsts = _counted(keys)
    got = group_ranks(keys)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.array(ranks, dtype=np.int64))
    np.testing.assert_array_equal(
        unique_first(keys), np.array(firsts, dtype=np.int64)
    )


def test_sorted_parent_yield_positions_match_the_scalar_bump():
    """``pos[p] + group_ranks(p)`` on a sorted parent (the run-arithmetic
    path) equals the scalar sequenced insertion ``pos[p]++``."""
    rng = np.random.default_rng(1)
    for trial in range(12):
        space = int(rng.integers(1, 9))
        parent = np.sort(rng.integers(0, space, int(rng.integers(0, 200))))
        pos = np.zeros(space + 1, dtype=np.int64)
        np.cumsum(np.bincount(parent, minlength=space), out=pos[1:])
        bump = pos.copy()
        want = []
        for p in parent.tolist():
            want.append(bump[p])
            bump[p] += 1
        np.testing.assert_array_equal(
            pos[parent] + group_ranks(parent), np.array(want, dtype=np.int64)
        )
