"""Structural feature sampling: exactness, degenerate streams, memoing."""


import numpy as np
import pytest

from repro.convert import StructuralFeatures, default_features, sample_features
from repro.convert.features import _CACHE_ATTR
from repro.formats import COO, CSR, HASH, get_format
from repro.storage.build import reference_build
from repro.storage.tensor import Tensor

from ..support.tensorgen import random_tensor_case


def _coo(cells, dims=(8, 8)):
    return reference_build(
        COO, dims, cells, [1.0 + i for i in range(len(cells))]
    )


# ----------------------------------------------------------------------
# degenerate streams


def test_empty_tensor_samples_cleanly():
    features = sample_features(_coo([]))
    assert features.nnz == 0
    assert features.sortedness == 1.0  # vacuously sorted
    assert features.density == 0.0


def test_single_nonzero_samples_cleanly():
    features = sample_features(_coo([(3, 4)]))
    assert features.nnz == 1
    assert features.sortedness == 1.0  # no adjacent pair to disagree
    assert features.density == 1.0 / 64


# ----------------------------------------------------------------------
# exact sortedness


def test_sortedness_is_exact_not_sampled():
    assert sample_features(_coo([(0, 0), (0, 1), (2, 3)])).sortedness == 1.0
    # pairs: (0,2) up, (2,1) down, (1,3) up -> exactly 2/3
    features = sample_features(_coo([(0, 0), (2, 0), (1, 0), (3, 0)]))
    assert features.sortedness == 2.0 / 3.0
    # one out-of-order element in a long stream still registers
    cells = [(0, j) for j in range(100)]
    cells[50], cells[51] = cells[51], cells[50]
    assert sample_features(_coo(cells, dims=(8, 128))).sortedness < 1.0


def test_sortedness_ties_break_on_inner_level():
    # equal rows: the column stream decides the pair's order
    assert sample_features(_coo([(1, 5), (1, 2)])).sortedness == 0.0
    assert sample_features(_coo([(1, 2), (1, 5)])).sortedness == 1.0


def test_pos_segment_boundaries_reset_the_comparison():
    # CSR rows restart the column stream: (0,7) -> (1,0) is not disorder
    csr = reference_build(
        CSR, (2, 8), [(0, 3), (0, 7), (1, 0), (1, 4)], [1.0, 2.0, 3.0, 4.0]
    )
    assert sample_features(csr).sortedness == 1.0


def test_hash_sentinels_count_as_unsorted():
    tensor = reference_build(
        HASH, (8, 8), [(0, 1), (2, 3), (5, 5)], [1.0, 2.0, 3.0]
    )
    crd = np.asarray(tensor.arrays[(1, "crd")])
    assert (crd < 0).any()  # hashed layouts keep -1 empty slots
    # pairs touching an empty slot are conservatively counted unsorted
    assert sample_features(tensor).sortedness < 1.0


# ----------------------------------------------------------------------
# density and skew


def test_density_and_row_skew():
    # row 0 holds 3 of 4 components: skew = 3 / (4/2) = 1.5
    features = sample_features(_coo([(0, 0), (0, 1), (0, 2), (1, 0)]))
    assert features.density == 4 / 64
    assert features.row_skew == 1.5


def test_skew_costs_nothing_proportional_to_the_dims():
    # an unordered stream with coordinates far beyond its size: counting
    # rows must not allocate one counter per possible row
    huge = 10**15
    rows = np.array([huge - 1, 0, huge - 1], dtype=np.int64)
    tensor = Tensor(
        COO, (huge, 4),
        {(0, "pos"): np.array([0, 3]), (0, "crd"): rows,
         (1, "crd"): np.array([0, 1, 2], dtype=np.int64)},
        {}, np.ones(3),
    )
    # two of three components share the last of 10**15 rows
    assert sample_features(tensor).row_skew == 2 / (3 / huge)


# ----------------------------------------------------------------------
# memoization


def test_features_memoized_on_the_tensor_instance():
    tensor = _coo([(0, 1), (2, 3)])
    first = sample_features(tensor)
    assert sample_features(tensor) is first
    assert getattr(tensor, _CACHE_ATTR)[1] is first
    # rebinding a component array invalidates the memo
    rebound = Tensor(
        tensor.format, tensor.dims,
        {key: np.array(arr) for key, arr in tensor.arrays.items()},
        dict(tensor.metadata), np.array(tensor.vals),
    )
    assert sample_features(rebound) is not first
    assert sample_features(rebound) == first  # same facts, fresh sample


# ----------------------------------------------------------------------
# route-cache keys and planning defaults


def test_key_quantizes_into_coarse_buckets():
    exact = StructuralFeatures(100, 1.0, 0.1, 1.0)
    near = StructuralFeatures(100, 0.999, 0.1, 1.0)
    assert exact.key() != near.key()  # the bit-identity guard is exact
    jitter_a = StructuralFeatures(100, 0.51, 0.10, 2.0)
    jitter_b = StructuralFeatures(100, 0.52, 0.99, 3.0)
    assert jitter_a.key() == jitter_b.key()  # jitter cannot fragment
    skewed = StructuralFeatures(100, 0.51, 0.10, 1000.0)
    assert jitter_a.key() != skewed.key()


def test_default_features_are_optimistic():
    features = default_features(12_345)
    assert features.nnz == 12_345
    assert features.sortedness == 1.0
    assert features.row_skew == 1.0


def test_roundtrip_dict():
    features = sample_features(_coo([(0, 0), (2, 1), (1, 7)]))
    assert StructuralFeatures.from_dict(features.to_dict()) == features
    assert "sortedness" in features.describe()


# ----------------------------------------------------------------------
# the execution-time exact check, against the full-scan oracle


def _oracle_sortedness(tensor, nnz):
    """The full O(nnz) scan ``sample_features`` ran before it sampled:
    kept verbatim as the oracle for the exact check."""
    streams = [arr for (level, name), arr in sorted(tensor.arrays.items())
               if name == "crd" and len(arr) == nnz]
    if nnz < 2 or not streams:
        return 1.0
    decided = np.zeros(nnz - 1, dtype=bool)
    in_order = np.ones(nnz - 1, dtype=bool)
    invalid = np.zeros(nnz, dtype=bool)
    for crd in streams:
        crd = np.asarray(crd)
        delta = np.diff(crd)
        fresh = (~decided) & (delta != 0)
        in_order[fresh] = delta[fresh] > 0
        decided |= fresh
        invalid |= crd < 0
    if invalid.any():
        in_order &= ~(invalid[1:] | invalid[:-1])
    best = None
    for (level, name), arr in sorted(tensor.arrays.items()):
        if name == "pos" and len(arr) >= 2 and int(arr[-1]) == nnz:
            best = arr
    if best is not None:
        interior = np.asarray(best[1:-1], dtype=np.int64)
        interior = interior[(interior > 0) & (interior < nnz)]
        if len(interior):
            in_order[interior - 1] = True
    return float(np.count_nonzero(in_order)) / (nnz - 1)


def _with_swap(tensor, i):
    """``tensor`` with stored components ``i`` and ``i + 1`` swapped in
    every coordinate stream (pos partitions left as they are)."""
    nnz = tensor.nnz_stored
    arrays = {}
    for key, arr in tensor.arrays.items():
        arr = np.array(arr)
        if key[1] == "crd" and len(arr) == nnz:
            arr[[i, i + 1]] = arr[[i + 1, i]]
        arrays[key] = arr
    vals = np.array(tensor.vals)
    return Tensor(tensor.format, tensor.dims, arrays,
                  dict(tensor.metadata), vals)


def _assert_exact_check_matches_oracle(tensor):
    from repro.convert.features import _exact_features, _stream_sorted

    nnz = tensor.nnz_stored
    want = _oracle_sortedness(tensor, nnz) >= 1.0
    assert _stream_sorted(tensor, nnz) == want
    assert (_exact_features(tensor).sortedness >= 1.0) == want
    return want


@pytest.mark.parametrize("spec", ["COO", "CSR", "CSC", "COO3", "CSF", "HASH"])
def test_exact_check_matches_full_scan_on_generated_tensors(spec):
    fmt = get_format(spec)
    verdicts = set()
    for seed in range(40):
        ordering = "sorted" if seed % 3 == 0 else None
        case = random_tensor_case(
            seed, order=fmt.order, max_dim=12 if fmt.order == 3 else 24,
            ordering=ordering,
        )
        tensor = reference_build(fmt, case.dims, case.cells, case.vals)
        # within the bound the sample is the whole stream: exact too
        assert sample_features(tensor).sortedness == _oracle_sortedness(
            tensor, tensor.nnz_stored
        )
        verdicts.add(_assert_exact_check_matches_oracle(tensor))
        nnz = tensor.nnz_stored
        rng = np.random.default_rng(seed)
        for i in rng.integers(0, max(nnz - 1, 1), size=3 if nnz > 1 else 0):
            verdicts.add(_assert_exact_check_matches_oracle(
                _with_swap(tensor, int(i))
            ))
    assert verdicts == {True, False} or spec == "HASH"


def test_exact_check_matches_full_scan_past_the_sample_bound():
    from repro.convert.features import _EXACT_CHUNK, _SAMPLE_PAIRS

    rows = np.repeat(np.arange(3000, dtype=np.int64), 50)
    cols = np.tile(np.arange(50, dtype=np.int64), 3000)
    nnz = len(rows)
    assert nnz - 1 > max(_SAMPLE_PAIRS, 2 * _EXACT_CHUNK)
    coo = Tensor(COO, (3000, 50),
                 {(0, "pos"): np.array([0, nnz]), (0, "crd"): rows,
                  (1, "crd"): cols}, {}, np.ones(nnz))
    csr = Tensor(CSR, (3000, 50),
                 {(1, "pos"): np.arange(0, nnz + 1, 50), (1, "crd"): cols},
                 {}, np.ones(nnz))
    for tensor in (coo, csr):
        assert _assert_exact_check_matches_oracle(tensor)
        # inversions at chunk edges, inside a row, and across a row
        # boundary (a CSR reset, so still sorted there)
        for i in (0, 49, 1234, _EXACT_CHUNK - 1, _EXACT_CHUNK,
                  2 * _EXACT_CHUNK + 7, nnz - 2):
            _assert_exact_check_matches_oracle(_with_swap(tensor, i))
    # equal coordinates tie in order; a -1 sentinel anywhere does not
    tied = coo.arrays[(1, "crd")].copy()
    tied[101] = tied[100]  # two (2, 0) components back to back
    assert _assert_exact_check_matches_oracle(Tensor(
        COO, (3000, 50), {**coo.arrays, (1, "crd"): tied}, {}, np.ones(nnz)))
    hole = cols.copy()
    hole[nnz // 2] = -1
    assert not _assert_exact_check_matches_oracle(Tensor(
        CSR, (3000, 50), {**csr.arrays, (1, "crd"): hole}, {}, np.ones(nnz)))
