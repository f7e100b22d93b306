"""Runtime support for generated conversion code.

Generated routines are plain Python functions over numpy arrays.  They may
call the small set of helpers defined here (the paper's generated C likewise
calls a tiny runtime, e.g. ``prefix_sum`` in Figure 11).  ``compile_source``
turns printed IR into a callable with the helpers in scope.

The second half of this module is the stream runtime behind the streaming
executor (:mod:`repro.convert.streamed`): :class:`StreamState` carries the
bulk helpers' merge state across the chunks of an out-of-core pass.
"""

from __future__ import annotations

import itertools
import linecache
from typing import Callable, Dict, Optional

import numpy as np


def prefix_sum(array: np.ndarray, n: int) -> None:
    """In-place exclusive-to-inclusive prefix sum over ``array[:n]``.

    On entry ``array[0] == 0`` and ``array[k]`` for ``1 <= k < n`` holds the
    number of entries allocated to position ``k - 1``; on exit ``array[k]``
    is the offset of position ``k``'s segment.  This is the finalize step of
    unsequenced edge insertion (Figure 11, ``unseq_finalize_edges``).
    """
    np.cumsum(array[:n], out=array[:n])


def trim(array: np.ndarray, n: int) -> np.ndarray:
    """Shrink an over-allocated array to its used prefix (e.g. DIA's perm,
    allocated for every possible diagonal but holding only K entries)."""
    return array[:n]


def fill(array: np.ndarray, value) -> None:
    """Fill an array with a constant (the -1 init of dedup lookup tables)."""
    array.fill(value)


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 2) (hash table widths)."""
    width = 2
    while width < n:
        width *= 2
    return width


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Permutation sorting ``keys`` ascending, ties in original order.

    The vector backend's replacement for sequenced coordinate insertion:
    applying the returned permutation to the gathered nonzero streams
    replays the scalar routine's insertion order exactly.  Small
    non-negative keys (the common case — level coordinates) take a fast
    path that packs ``(key, index)`` into one int64 and sorts with
    numpy's unstable introsort, which beats ``np.argsort(kind="stable")``
    by ~8x; anything else falls back to the stable argsort.
    """
    n = keys.shape[0]
    if n and n < (1 << 32) and keys.min() >= 0 and keys.max() < (1 << 31):
        packed = (keys.astype(np.int64) << np.int64(32)) | np.arange(n, dtype=np.int64)
        packed.sort()
        return packed & np.int64(0xFFFFFFFF)
    return np.argsort(keys, kind="stable")


def _sorted_boundary(keys: np.ndarray):
    """Stable sort of ``keys`` plus the group-start mask of the sorted run:
    ``boundary[t]`` is True where ``keys[order][t]`` starts a new key group."""
    n = keys.shape[0]
    order = stable_order(keys)
    sorted_keys = keys[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return order, boundary


def _is_monotone(keys: np.ndarray) -> bool:
    """True if ``keys`` is nondecreasing (comparison, not diff: no overflow)."""
    return keys.shape[0] <= 1 or bool((keys[1:] >= keys[:-1]).all())


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every equal-key run of a *sorted* key stream."""
    boundary = np.empty(keys.shape[0], dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def group_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each element within its equal-key group, in original order.

    ``group_ranks([3, 1, 3, 1, 1]) == [0, 0, 1, 1, 2]``.  This is the bulk
    form of the sequenced ``yield_pos`` bump (``pos[p]++``) and of the
    remapping counters of Section 4.2: a nonzero's rank equals the number
    of previously iterated nonzeros sharing its key, regardless of whether
    the scalar backend realizes the counter as an array or a register.
    A source already grouped by key (a row-sorted COO or CSR going to CSR
    or ELL) skips the sort: its ranks are offsets within runs.
    """
    n = keys.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if _is_monotone(keys):
        starts = _run_starts(keys)
        ranks = np.arange(n, dtype=np.int64)
        ranks -= np.repeat(starts, np.diff(starts, append=n))
        return ranks
    order, boundary = _sorted_boundary(keys)
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, n))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    return ranks


def unique_first(keys: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct key, ascending.

    The bulk form of the deduplication lookup table of Section 6.2: the
    returned indices select, in iteration order, the nonzeros that trigger
    a fresh ``yield_pos`` insertion (e.g. the first nonzero of each BCSR
    block); later duplicates reuse the first occurrence's position.  A
    sorted key stream skips the sort: the first occurrences are its run
    starts.
    """
    if keys.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if _is_monotone(keys):
        return _run_starts(keys)
    order, boundary = _sorted_boundary(keys)
    return np.sort(order[boundary])


def hashed_bulk_insert(table, base, home, coord, width) -> np.ndarray:
    """Bulk open-addressing insertion, replaying sequential probe order.

    The bulk form of the hashed level's ``get_pos`` probe loop.  ``table``
    is a freshly initialized ``crd`` array (every slot ``-1``); ``base``,
    ``home`` and ``coord`` are aligned per-nonzero streams — the parent's
    table offset (``parent_pos * width``; a scalar ``0`` at the root), the
    starting slot ``(coord - lo) % width``, and the coordinate to insert.
    Fills ``table`` and returns each nonzero's position, **bit-identically
    to the scalar loop** inserting one nonzero at a time in stream order.

    Rounds of priority claiming: every unplaced nonzero probes its
    current slot simultaneously; a contested slot goes to the earliest
    nonzero in stream order, which may *steal* the slot from an
    already-placed later nonzero (the evictee re-enters probing at that
    same slot, exactly where the sequential loop would have found it
    occupied).  A nonzero finding its own coordinate owned by an earlier
    nonzero takes that position — the idempotent duplicate insert of the
    scalar probe.  Losers advance one slot only when blocked by an
    earlier-priority owner with a different coordinate.  Because
    priorities are total and a settled earlier nonzero is never evicted
    by a later one, the fixpoint is the sequential first-come-first-
    served placement; a safety cap (pathological probe chains) replays
    the scalar loop directly.
    """
    width = int(width)
    coord = np.asarray(coord, dtype=np.int64)
    n = int(coord.shape[0])
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    base = np.broadcast_to(np.asarray(base, dtype=np.int64), (n,))
    home = np.asarray(home, dtype=np.int64)
    slot = home.copy()
    owner = np.full(table.shape[0], -1, dtype=np.int64)
    # 0 = probing, 1 = placed (may be evicted), 2 = done (duplicate)
    state = np.zeros(n, dtype=np.int8)
    items = np.arange(n, dtype=np.int64)
    for _ in range(2 * width + 64):
        active = items[state == 0]
        if active.size == 0:
            break
        pos = base[active] + slot[active]
        occ = owner[pos]
        dup = (table[pos] == coord[active]) & (occ >= 0) & (occ < active)
        done = active[dup]
        out[done] = pos[dup]
        state[done] = 2
        rest = active[~dup]
        if rest.size:
            rpos = pos[~dup]
            claim = np.full(table.shape[0], n, dtype=np.int64)
            np.minimum.at(claim, rpos, rest)
            occ_r = owner[rpos]
            take = (claim[rpos] == rest) & ((occ_r < 0) | (occ_r > rest))
            tpos = rpos[take]
            titem = rest[take]
            evicted = owner[tpos]
            owner[tpos] = titem
            table[tpos] = coord[titem]
            out[titem] = tpos
            state[titem] = 1
            state[evicted[evicted >= 0]] = 0
            # a stolen slot also invalidates duplicates that settled on
            # its previous owner: they re-probe from that same slot
            if tpos.size:
                undone = (state == 2) & np.isin(out, tpos)
                state[undone] = 0
            lose = rest[~take]
            if lose.size:
                lpos = base[lose] + slot[lose]
                blocker = owner[lpos]
                step = (
                    (blocker >= 0)
                    & (blocker < lose)
                    & (table[lpos] != coord[lose])
                )
                stepped = lose[step]
                slot[stepped] = (slot[stepped] + 1) % width
    else:
        table[:] = -1
        for i in range(n):
            s = int(home[i])
            p = int(base[i]) + s
            while table[p] >= 0 and table[p] != coord[i]:
                s = (s + 1) % width
                p = int(base[i]) + s
            table[p] = coord[i]
            out[i] = p
    return out


_counter = itertools.count()


def compile_source(
    source: str,
    func_name: str,
    extra_globals: Optional[Dict[str, object]] = None,
) -> Callable:
    """Compile generated Python ``source`` and return the named function.

    The source is registered with :mod:`linecache` under a synthetic file
    name so tracebacks raised from generated code show the generated lines.
    The returned callable carries the source on a ``__source__`` attribute,
    which the examples print to show the generated routines.
    """
    filename = f"<repro-generated-{next(_counter)}>"
    namespace: Dict[str, object] = {
        "np": np,
        "prefix_sum": prefix_sum,
        "min": min,
        "max": max,
        "trim": trim,
        "fill": fill,
        "next_pow2": next_pow2,
        "stable_order": stable_order,
        "group_ranks": group_ranks,
        "unique_first": unique_first,
        "hashed_bulk_insert": hashed_bulk_insert,
    }
    if extra_globals:
        namespace.update(extra_globals)
    linecache.cache[filename] = (
        len(source),
        None,
        [line + "\n" for line in source.splitlines()],
        filename,
    )
    code = compile(source, filename, "exec")
    exec(code, namespace)
    func = namespace[func_name]
    func.__source__ = source  # type: ignore[attr-defined]
    return func


# ----------------------------------------------------------------------
# stream runtime (repro.convert.streamed)
#
# The streaming executor replays a vector kernel *sequentially* over the
# chunks of a file that is never materialized, so its helpers carry their
# merge state across chunks: a per-key count table stands in for "ranks
# of earlier chunks", a seen table for "first chunk wins".  Each helper is
# exact, so a streamed kernel stays bit-identical to the serial vector
# backend.  Carried tables are dense over the key space actually seen
# (attribute-query keys are dimension products), so state stays
# O(dimensions), never O(nnz).


class _GrowableTable:
    """A dense int64 table over non-negative keys, grown on demand."""

    def __init__(self, fill_value: int = 0) -> None:
        self._fill = fill_value
        self._table = np.full(0, fill_value, dtype=np.int64)

    def reserve(self, upper: int) -> np.ndarray:
        if upper > self._table.shape[0]:
            grown = np.full(max(upper, 2 * self._table.shape[0], 1024),
                            self._fill, dtype=np.int64)
            grown[: self._table.shape[0]] = self._table
            self._table = grown
        return self._table


class StreamState:
    """Carried per-site state of one streaming pass over a source.

    The streaming executor rewrites stateful kernel sites (``group_ranks``,
    ``unique_first``, stream-positional ``np.arange`` and attribute-query
    folds) into calls on one ``StreamState`` per pass; a site id keys the
    state so a pass may replay several independent sites.  A fresh state
    per pass is what makes replayed remap statements deterministic.
    """

    def __init__(self) -> None:
        self._sites: Dict[int, object] = {}

    # -- stateful mirrors of the bulk helpers ---------------------------
    def group_ranks(self, site: int, keys: np.ndarray) -> np.ndarray:
        """``group_ranks`` over the whole stream: chunk-local ranks plus
        the carried per-key count of earlier chunks."""
        counts = self._sites.setdefault(site, _GrowableTable())
        if keys.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        upper = int(keys.max()) + 1
        table = counts.reserve(upper)
        ranks = group_ranks(keys) + table[keys]
        table[:upper] += np.bincount(keys, minlength=upper)[:upper]
        return ranks

    def unique_first(self, site: int, keys: np.ndarray) -> np.ndarray:
        """``unique_first`` over the whole stream, as chunk-local indices:
        the ascending in-chunk indices of keys no earlier chunk saw.
        Chunk concatenation of ``x[first]`` gathers therefore equals the
        global gather, because global first occurrences are ascending."""
        seen = self._sites.setdefault(site, _GrowableTable())
        if keys.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        table = seen.reserve(int(keys.max()) + 1)
        local = unique_first(keys)
        fresh = local[table[keys[local]] == 0]
        table[keys[fresh]] = 1
        return fresh

    def arange_like(self, site: int, stream: np.ndarray,
                    dtype=np.int64) -> np.ndarray:
        """``np.arange(stream.shape[0])`` with global stream positions."""
        base = self._sites.get(site, 0)
        self._sites[site] = base + stream.shape[0]
        return np.arange(base, base + stream.shape[0], dtype=dtype)

    def arange_span(self, site: int, length: int,
                    dtype=np.int64) -> np.ndarray:
        """``np.arange(lo, hi)`` over the gathered stream positions."""
        base = self._sites.get(site, 0)
        self._sites[site] = base + int(length)
        return np.arange(base, base + int(length), dtype=dtype)

    # -- attribute-query folds ------------------------------------------
    def fold_sum(self, site: int, partial: np.ndarray) -> np.ndarray:
        """Fold an additive per-chunk histogram (``np.bincount``)."""
        total = self._sites.get(site)
        if total is None:
            total = np.zeros(0, dtype=partial.dtype)
        if partial.shape[0] > total.shape[0]:
            grown = np.zeros(partial.shape[0], dtype=partial.dtype)
            grown[: total.shape[0]] = total
            total = grown
        total[: partial.shape[0]] += partial
        self._sites[site] = total
        return total

    def fold_result(self, site: int) -> np.ndarray:
        """The accumulated fold of ``site`` (zeros-length if never fed)."""
        total = self._sites.get(site)
        return total if total is not None else np.zeros(0, dtype=np.int64)
