"""Cheap structural features of a stored tensor, used by the router.

The cost of a conversion is data-dependent: ``group_ranks`` has a
sorted-run fast path, and scipy's COO compressors canonicalize (sort
within rows) so they are only bit-identical to the generated kernels
when the coordinate stream is already sorted.  :func:`sample_features`
computes a tiny vector of such facts with vectorized numpy passes —
O(nnz) but a few milliseconds even at 10M entries — and memoizes it on
the tensor instance so planning, runtime predicate rechecks, and
repeated conversions of the same tensor pay the cost once.

``sortedness`` is exact, not sampled: a converter predicate like
``features.sortedness >= 1.0`` guards *bit-identity*, and a sampled
check could admit a converter on a stream whose unsampled tail is out
of order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "StructuralFeatures",
    "default_features",
    "sample_features",
]

_CACHE_ATTR = "_repro_feature_cache"


@dataclass(frozen=True)
class StructuralFeatures:
    """Structural facts about one stored tensor.

    ``nnz`` — stored components (including padding zeros).
    ``sortedness`` — exact fraction of adjacent stored components that
    are in nondecreasing lexicographic coordinate order (pos-array
    segment boundaries reset the comparison, so a CSR tensor with
    ordered rows scores 1.0).  1.0 for empty/singleton streams.
    ``density`` — nnz over the product of the canonical dimensions.
    ``row_skew`` — max-over-mean of per-slice component counts under
    the outermost partition (1.0 when perfectly balanced or unknown).
    """

    nnz: int
    sortedness: float
    density: float
    row_skew: float

    def key(self) -> Tuple:
        """Quantized form for route-cache keys: coarse buckets so jitter
        in the raw numbers cannot fragment the cache, but the facts that
        change converter admission/cost (is the stream fully sorted, how
        sorted, how skewed) still distinguish entries."""
        skew = max(self.row_skew, 1.0)
        return (
            self.sortedness >= 1.0,
            int(self.sortedness * 8),
            min(int(skew).bit_length(), 8),
        )

    def to_dict(self) -> dict:
        return {
            "nnz": int(self.nnz),
            "sortedness": float(self.sortedness),
            "density": float(self.density),
            "row_skew": float(self.row_skew),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StructuralFeatures":
        return cls(
            nnz=int(data["nnz"]),
            sortedness=float(data["sortedness"]),
            density=float(data["density"]),
            row_skew=float(data["row_skew"]),
        )

    def describe(self) -> str:
        return (
            f"nnz={self.nnz} sortedness={self.sortedness:.3f} "
            f"density={self.density:.2e} row_skew={self.row_skew:.2f}"
        )


def default_features(nnz: int) -> StructuralFeatures:
    """Optimistic features for planning without a tensor in hand
    (``engine.plan(src, dst, nnz=...)``): a sorted, balanced stream.
    Predicated converters admitted on this basis are re-checked against
    the actual tensor at execution time and fall back to the generated
    kernel when the real stream disagrees."""
    return StructuralFeatures(
        nnz=int(nnz), sortedness=1.0, density=0.0, row_skew=1.0
    )


def _leaf_streams(tensor) -> list:
    """Coordinate arrays aligned with the stored-component stream, in
    level order — together they spell each component's coordinates."""
    nnz = tensor.nnz_stored
    streams = []
    for (level, name), arr in sorted(tensor.arrays.items()):
        if name == "crd" and len(arr) == nnz:
            streams.append(arr)
    return streams


def _segment_resets(tensor, nnz: int) -> Optional[np.ndarray]:
    """Interior boundaries of the finest pos partition of the stream.

    Adjacent components on either side of a boundary belong to
    different parent slices, so their coordinate comparison resets.
    """
    best = None
    for (level, name), arr in sorted(tensor.arrays.items()):
        if name == "pos" and len(arr) >= 2 and int(arr[-1]) == nnz:
            best = arr  # keep the innermost (deepest level) partition
    if best is None:
        return None
    interior = np.asarray(best[1:-1], dtype=np.int64)
    interior = interior[(interior > 0) & (interior < nnz)]
    return interior if len(interior) else None


def _sortedness(tensor, nnz: int) -> float:
    streams = _leaf_streams(tensor)
    if nnz < 2 or not streams:
        return 1.0
    # Lexicographic adjacent-pair comparison across the streams: the
    # first stream where a pair differs decides its order.
    decided = np.zeros(nnz - 1, dtype=bool)
    in_order = np.ones(nnz - 1, dtype=bool)
    invalid = np.zeros(nnz, dtype=bool)
    for crd in streams:
        crd = np.asarray(crd)
        delta = np.diff(crd)
        fresh = (~decided) & (delta != 0)
        in_order[fresh] = delta[fresh] > 0
        decided |= fresh
        invalid |= crd < 0  # hashed empty slots carry -1 sentinels
    if invalid.any():
        # Pairs touching an empty slot are not a meaningful ordering
        # signal; count them as unsorted so predicates stay conservative.
        in_order &= ~(invalid[1:] | invalid[:-1])
    resets = _segment_resets(tensor, nnz)
    if resets is not None:
        in_order[resets - 1] = True
    return float(np.count_nonzero(in_order)) / (nnz - 1)


def _row_skew(tensor, nnz: int) -> float:
    if nnz == 0:
        return 0.0
    counts = None
    for (level, name), arr in sorted(tensor.arrays.items()):
        if name == "pos" and len(arr) > 2 and int(arr[-1]) == nnz:
            counts = np.diff(np.asarray(arr, dtype=np.int64))
            break
    if counts is None:
        streams = _leaf_streams(tensor)
        if streams:
            top = np.asarray(streams[0])
            top = top[top >= 0]
            if len(top):
                counts = np.bincount(top)
    if counts is None or not len(counts):
        return 1.0
    mean = counts.mean()
    if mean <= 0:
        return 1.0
    return float(counts.max() / mean)


def sample_features(tensor) -> StructuralFeatures:
    """Measure :class:`StructuralFeatures` for ``tensor``, memoized on
    the instance.  The memo is keyed by the identities of the tensor's
    component arrays, so rebinding different arrays invalidates it —
    but mutating an array *in place* does not; callers that rewrite
    coordinate arrays in place should drop ``_repro_feature_cache``.
    """
    token = (
        tuple(id(arr) for _, arr in sorted(tensor.arrays.items())),
        id(tensor.vals),
    )
    cached = getattr(tensor, _CACHE_ATTR, None)
    if cached is not None and cached[0] == token:
        return cached[1]
    nnz = tensor.nnz_stored
    size = 1
    for dim in tensor.dims:
        size *= int(dim)
    features = StructuralFeatures(
        nnz=nnz,
        sortedness=_sortedness(tensor, nnz),
        density=(nnz / size) if size else 0.0,
        row_skew=_row_skew(tensor, nnz),
    )
    try:
        setattr(tensor, _CACHE_ATTR, (token, features))
    except AttributeError:  # pragma: no cover - exotic tensor subclasses
        pass
    return features
