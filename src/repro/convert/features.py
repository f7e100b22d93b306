"""Cheap structural features of a stored tensor, read by converter filters.

A converter registered with a ``filter`` (``register_converter(...,
filter=lambda f: f.sortedness >= 1.0)``) is admitted on these facts;
no builtin converter has one, and nothing else decides on them, so the
engine samples only for a source some filtered converter leaves.  The
two phases that read these facts get them at different prices:

* **Planning** samples.  :func:`sample_features` reads a deterministic
  strided sample of at most ``_SAMPLE_PAIRS`` adjacent component pairs,
  so it costs about the same at a thousand entries and at ten million.
  Its facts are exact whenever every adjacent pair fits in the sample;
  above that bound ``sortedness`` and ``row_skew`` are estimates
  (``density`` is O(1) and always exact).  A sample that sees one
  inversion proves the stream unsorted; one that sees none only
  suggests it is sorted.
* **Execution** checks exactly.  A predicate like
  ``features.sortedness >= 1.0`` guards *bit-identity*, and a sampled
  check could admit a converter on a stream whose unsampled pairs are
  out of order.  :func:`_exact_features` settles "is the whole stream
  sorted" with one fused pass that stops at the first inversion or
  sentinel.  The engine asks for it only when an ``external`` hop's
  converter carries a ``filter``, so unfiltered converters and the
  generated kernels never pay for it.

Both results are memoized on the tensor instance, so planning, the
execution-time recheck and repeated conversions of the same tensor pay
each cost once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "StructuralFeatures",
    "default_features",
    "sample_features",
]

_CACHE_ATTR = "_repro_feature_cache"

#: Adjacent component pairs :func:`sample_features` reads at most, in
#: ``_SAMPLE_RUNS`` evenly spaced runs once a stream has more.
_SAMPLE_PAIRS = 4096
_SAMPLE_RUNS = 16

#: Pairs per step of the exact pass: an unsorted stream usually exits
#: after the first step, and each step is large enough to amortize the
#: numpy calls.
_EXACT_CHUNK = 1 << 16


@dataclass(frozen=True)
class StructuralFeatures:
    """Structural facts about one stored tensor.

    ``nnz`` — stored components (including padding zeros).
    ``sortedness`` — fraction of adjacent stored components that are in
    nondecreasing lexicographic coordinate order (pos-array segment
    boundaries reset the comparison, so a CSR tensor with ordered rows
    scores 1.0), over a bounded strided sample of the pairs — exact
    when every pair fits in it.  1.0 for empty/singleton streams.
    ``density`` — nnz over the product of the canonical dimensions.
    ``row_skew`` — max-over-mean of per-slice component counts under
    the outermost partition, from the slices the same sample lands in
    (1.0 when perfectly balanced or unknown).
    """

    nnz: int
    sortedness: float
    density: float
    row_skew: float

    def key(self) -> Tuple:
        """Quantized form for route-cache keys: coarse buckets so jitter
        in the raw numbers cannot fragment the cache, but the facts that
        change converter admission (is the stream fully sorted, how
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


def _layout(tensor, nnz: int) -> Tuple[list, list]:
    """``(streams, partitions)``, each in level order: the coordinate
    arrays aligned with the stored-component stream (together they
    spell each component's coordinates), and the pos arrays that
    partition it."""
    streams, partitions = [], []
    for (level, name), arr in sorted(tensor.arrays.items()):
        if name == "crd" and len(arr) == nnz:
            streams.append(np.asarray(arr))
        elif name == "pos" and len(arr) >= 2 and int(arr[-1]) == nnz:
            partitions.append(np.asarray(arr))
    return streams, partitions


@functools.lru_cache(maxsize=32)
def _sample(nnz: int) -> np.ndarray:
    """The deterministic strided sample, as a ``(runs, width)`` array of
    stored-component indices.  One run spans the whole stream when its
    ``nnz - 1`` adjacent pairs fit in ``_SAMPLE_PAIRS``; otherwise
    ``_SAMPLE_RUNS`` evenly spaced runs of consecutive components hold
    ``_SAMPLE_PAIRS`` pairs between them.  Runs, not scattered single
    components, keep the gathers and binary searches on a few cache
    lines each.  Memoized per ``nnz``: repeated conversions of
    same-sized tensors reuse it."""
    if nnz - 1 <= _SAMPLE_PAIRS:
        cells = np.arange(nnz, dtype=np.int64)[None, :]
    else:
        width = _SAMPLE_PAIRS // _SAMPLE_RUNS + 1
        starts = np.arange(_SAMPLE_RUNS, dtype=np.int64) * (nnz - width)
        cells = (starts // (_SAMPLE_RUNS - 1))[:, None] + np.arange(width)
    cells.setflags(write=False)  # shared by every caller with this nnz
    return cells


def _disorder(pairs, sentinels: bool) -> np.ndarray:
    """Mask of adjacent component pairs out of lexicographic order.

    ``pairs`` holds one ``(left, right)`` coordinate array couple per
    stream, in level order: the first stream where a pair differs
    decides its order.  With ``sentinels`` (the caller saw a negative
    coordinate), a pair touching a -1 hash sentinel (an empty slot)
    counts as out of order too: it is no ordering signal, and predicates
    stay conservative.
    """
    bad = tie = None
    for index, (left, right) in enumerate(pairs):
        down = right < left
        bad = down if bad is None else bad | (tie & down)
        if sentinels:
            bad |= (left < 0) | (right < 0)
        if index < len(pairs) - 1:
            same = left == right
            tie = same if tie is None else tie & same
    return bad


def _sortedness(nnz: int, runs: list, slot: Optional[np.ndarray]) -> float:
    """Fraction of the sampled adjacent pairs in order (every pair, and
    so exact, when they all fit in the sample).  ``runs`` holds each
    stream's coordinates at the sampled components, ``slot`` their
    slices under the innermost partition (``None``: one slice)."""
    if nnz < 2 or not runs:
        return 1.0
    bad = _disorder(
        [(run[:, :-1], run[:, 1:]) for run in runs],
        sentinels=any(run.min() < 0 for run in runs),
    )
    if slot is not None:
        # a pair straddling a slice boundary is in order by definition
        bad &= slot[:, 1:] == slot[:, :-1]
    return float(bad.size - np.count_nonzero(bad)) / bad.size


def _stream_sorted(tensor, nnz: int) -> bool:
    """Whether every adjacent pair of the stream is in order: the exact
    form of ``sortedness >= 1.0``.  One fused pass over the streams in
    chunks, stopping at the first chunk that holds an inversion or a
    sentinel; the sentinel masks run only where a chunk has one."""
    streams, partitions = _layout(tensor, nnz)
    if nnz < 2 or not streams:
        return True
    # the innermost partition's interior boundaries reset the comparison
    pos = partitions[-1] if partitions and len(partitions[-1]) > 2 else None
    for start in range(0, nnz - 1, _EXACT_CHUNK):
        stop = min(start + _EXACT_CHUNK, nnz - 1)
        chunk = [crd[start:stop + 1] for crd in streams]
        bad = _disorder(
            [(seg[:-1], seg[1:]) for seg in chunk],
            sentinels=any(seg.min() < 0 for seg in chunk),
        )
        if pos is not None:
            lo = np.searchsorted(pos, start + 1, side="left")
            hi = np.searchsorted(pos, stop, side="right")
            bad[pos[lo:hi] - (start + 1)] = False
        if bad.any():
            return False
    return True


def _row_skew(nnz: int, streams: list, runs: list, partitions: list,
              slots: list) -> float:
    """Max-over-mean slice length under the outermost partition, over
    the slices holding sampled components (every non-empty slice, and
    so exact, when the sample is the whole stream).  Sampling
    components favours the long slices the max needs."""
    if nnz == 0:
        return 0.0
    for pos, slot in zip(partitions, slots):
        if slot is not None:
            longest = int((pos[slot] - pos[slot - 1]).max())
            return longest / (nnz / (len(pos) - 1))
    if not streams:
        return 1.0
    top = runs[0]
    flat = top.ravel()
    if flat.min() >= 0 and not (flat[1:] < flat[:-1]).any():
        # a row-ordered stream: a row's components are consecutive, so
        # its count is its run of equal coordinates (cut at the sample's
        # run edges: exact for the whole stream, a lower bound above
        # it), and the last component holds the largest row
        first = np.ones(top.shape, dtype=bool)
        first[:, 1:] = top[:, 1:] != top[:, :-1]
        starts = np.append(np.flatnonzero(first), flat.size)
        extent = max(int(streams[0][-1]), int(flat[-1])) + 1
        return int(np.diff(starts).max()) / (nnz / extent)
    if flat.size < nnz:
        return 1.0  # hashed or unordered, and sampled: lengths unknown
    values = flat[flat >= 0]
    if not len(values):
        return 1.0
    extent = int(values.max()) + 1
    # bincount is the fast count but costs O(extent), which the
    # dimensions can make far larger than the stream
    counts = (np.bincount(values) if extent <= 16 * len(values)
              else np.unique(values, return_counts=True)[1])
    return int(counts.max()) / (len(values) / extent)


def _cached(tensor) -> Tuple[Tuple, Optional[tuple]]:
    """``(token, memo)``: the identity token of ``tensor``'s component
    arrays, and its ``(token, features, stream_sorted)`` memo if that
    memo is still valid for them."""
    token = (
        tuple(id(arr) for _, arr in sorted(tensor.arrays.items())),
        id(tensor.vals),
    )
    cached = getattr(tensor, _CACHE_ATTR, None)
    return token, (cached if cached is not None and cached[0] == token
                   else None)


def _remember(tensor, memo: tuple) -> None:
    try:
        setattr(tensor, _CACHE_ATTR, memo)
    except AttributeError:  # pragma: no cover - exotic tensor subclasses
        pass


def sample_features(tensor) -> StructuralFeatures:
    """Measure :class:`StructuralFeatures` for ``tensor`` from a bounded
    strided sample (exact up to ``_SAMPLE_PAIRS + 1`` components),
    memoized on the instance.  The memo is keyed by the identities of
    the tensor's component arrays, so rebinding different arrays
    invalidates it — but mutating an array *in place* does not; callers
    that rewrite coordinate arrays in place should drop
    ``_repro_feature_cache``.
    """
    token, cached = _cached(tensor)
    if cached is not None:
        return cached[1]
    nnz = tensor.nnz_stored
    size = 1
    for dim in tensor.dims:
        size *= int(dim)
    streams, partitions = _layout(tensor, nnz)
    cells = _sample(nnz)
    runs = [crd[cells] for crd in streams]
    # each sampled component's slice under every partition that has
    # interior boundaries (pos[slot - 1] <= component < pos[slot])
    slots = [np.searchsorted(pos, cells, side="right") if len(pos) > 2
             else None for pos in partitions]
    features = StructuralFeatures(
        nnz=nnz,
        sortedness=_sortedness(nnz, runs, slots[-1] if slots else None),
        density=(nnz / size) if size else 0.0,
        row_skew=_row_skew(nnz, streams, runs, partitions, slots),
    )
    _remember(tensor, (token, features, None))
    return features


def _exact_features(tensor) -> StructuralFeatures:
    """:func:`sample_features` with ``sortedness >= 1.0`` made exact —
    the facts a converter predicate is checked against at execution.

    No pass runs when the sample already decides: it saw an inversion
    (the stream is unsorted) or it saw every pair.  Otherwise one
    :func:`_stream_sorted` pass settles it, memoized beside the sample;
    a stream it finds unsorted reports ``(nnz - 2) / (nnz - 1)``, the
    most sortedness one inversion allows (the true fraction stays an
    estimate).
    """
    features = sample_features(tensor)
    nnz = features.nnz
    if features.sortedness < 1.0 or nnz - 1 <= _SAMPLE_PAIRS:
        return features
    token, cached = _cached(tensor)
    in_order = cached[2] if cached is not None else None
    if in_order is None:
        in_order = _stream_sorted(tensor, nnz)
        _remember(tensor, (token, features, in_order))
    if in_order:
        return features
    return replace(features, sortedness=(nnz - 2) / (nnz - 1))
