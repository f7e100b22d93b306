"""Content-hash tensor cache: converted *data*, not kernels.

The engine's caches (:mod:`repro.convert.engine`) hold compiled kernels;
a serving process additionally sees the **same payloads over and over**
— dashboards re-requesting the same matrix, pipelines fanning one upload
out to several formats.  :class:`DataCache` is a thread-safe,
byte-budgeted LRU over converted tensors, keyed by

``(content digest, structural format key, options variant)``

— the sha256 of the *source* tensor's stored bytes
(:meth:`Tensor.content_digest <repro.storage.tensor.Tensor.content_digest>`),
the structural key of the format the cached tensor is materialized in,
and the plan-options key when it differs from the defaults (different
code-shape options may not share entries).

Because conversions in this library are **bit-identical across
backends and routes**, one cached entry serves every way of producing it.

Every executed hop's output is inserted under the original payload's
digest (the origin digest rides along on the output tensor), so a
``/convert`` result also serves a later ``/compute`` that consumes the
same format, and vice versa.  The insertion happens through the
engine's hop-observation hook (:meth:`ConversionEngine.add_hop_observer
<repro.convert.engine.ConversionEngine.add_hop_observer>`) — see
:meth:`DataCache.hop_observer`.

Entries are returned by reference (tensors are treated as immutable, as
everywhere else in the library); callers that mutate arrays in place
get what they deserve.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..convert.planner import PlanOptions, structural_key
from ..convert.router import Hop
from ..formats.format import Format
from ..storage.tensor import Tensor

__all__ = [
    "DataCache",
    "origin_digest",
    "stamp_origin",
    "tensor_nbytes",
]

#: Instance attribute carrying a tensor's *origin* content digest: the
#: digest of the payload it was converted from.  Hop outputs inherit it,
#: which is what makes intermediate cache entries findable under the
#: original request's key.
_ORIGIN_ATTR = "_repro_origin_digest"

#: Default cache budget: 256 MiB of tensor payload.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_DEFAULT_OPTIONS_KEY = PlanOptions().key()


def tensor_nbytes(tensor: Tensor) -> int:
    """The payload size of a tensor: every level array plus ``vals``."""
    total = int(tensor.vals.nbytes)
    for arr in tensor.arrays.values():
        total += int(arr.nbytes)
    return total


def stamp_origin(tensor: Tensor, digest: str) -> None:
    """Mark ``tensor`` as derived from the payload hashed by ``digest``."""
    try:
        setattr(tensor, _ORIGIN_ATTR, digest)
    except AttributeError:  # pragma: no cover - exotic subclasses
        pass


def origin_digest(tensor: Tensor) -> str:
    """The content digest of the payload ``tensor`` derives from.

    A converted tensor carries its source's digest (stamped when it was
    produced under a hop observer); an unstamped tensor is its own
    origin, so this falls back to :meth:`Tensor.content_digest`.
    """
    stamped = getattr(tensor, _ORIGIN_ATTR, None)
    if isinstance(stamped, str):
        return stamped
    digest = tensor.content_digest()
    stamp_origin(tensor, digest)
    return digest


def _variant(options: Optional[PlanOptions]) -> Optional[Tuple]:
    """The cache-key component of the plan options: ``None`` for the
    default code shapes (the overwhelmingly common case), the options
    key otherwise — non-default options select different generated code
    whose outputs are not guaranteed byte-equal to the defaults."""
    if options is None:
        return None
    key = options.key()
    return None if key == _DEFAULT_OPTIONS_KEY else key


class DataCache:
    """Thread-safe, byte-budgeted LRU over converted tensors.

    Parameters
    ----------
    max_bytes:
        Total payload budget.  Inserting past it evicts least recently
        used entries until the new entry fits; an entry larger than the
        whole budget is refused outright (``put`` returns ``False``).

    Example::

        cache = DataCache(max_bytes=64 << 20)
        engine.add_hop_observer(cache.hop_observer())
        engine.convert(tensor, "CSR")          # inserts every hop output
        hit = cache.get(tensor.content_digest(), CSR)
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Tuple, Tuple[Tensor, int]]" = OrderedDict()
        self._bytes = 0
        self._stats = {
            "hits": 0,
            "misses": 0,
            "insertions": 0,
            "replacements": 0,
            "evictions": 0,
            "rejected_oversize": 0,
        }

    @staticmethod
    def key(digest: str, fmt: Format,
            options: Optional[PlanOptions] = None) -> Tuple:
        """The cache key of (payload digest, format, options variant)."""
        return (digest, structural_key(fmt), _variant(options))

    # -- lookup ----------------------------------------------------------
    def get(self, digest: str, fmt: Format,
            options: Optional[PlanOptions] = None) -> Optional[Tensor]:
        """The cached tensor for this payload in ``fmt``, or ``None``."""
        key = self.key(digest, fmt, options)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self._stats["hits"] += 1
            return entry[0]

    # -- insertion -------------------------------------------------------
    def put(self, digest: str, fmt: Format, tensor: Tensor,
            options: Optional[PlanOptions] = None) -> bool:
        """Insert (or refresh) an entry; returns whether it is cached.

        The tensor is stamped with the origin digest so conversions
        run *from* this entry keep inserting under the same payload
        key.  Entries larger than the whole budget are refused.
        """
        size = tensor_nbytes(tensor)
        stamp_origin(tensor, digest)
        key = self.key(digest, fmt, options)
        with self._lock:
            if size > self.max_bytes:
                self._stats["rejected_oversize"] += 1
                stale = self._entries.pop(key, None)
                if stale is not None:
                    self._bytes -= stale[1]
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
                self._stats["replacements"] += 1
            else:
                self._stats["insertions"] += 1
            while self._bytes + size > self.max_bytes and self._entries:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._bytes -= evicted_size
                self._stats["evictions"] += 1
            self._entries[key] = (tensor, size)
            self._bytes += size
            return True

    def discard(self, digest: str, fmt: Format,
                options: Optional[PlanOptions] = None) -> bool:
        """Drop one entry; returns whether it existed."""
        key = self.key(digest, fmt, options)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            return True

    def clear(self) -> None:
        """Drop every entry (stats remain)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # -- the engine seam -------------------------------------------------
    def hop_observer(self) -> Callable:
        """An engine hop observer that feeds this cache.

        Register it with :meth:`ConversionEngine.add_hop_observer
        <repro.convert.engine.ConversionEngine.add_hop_observer>`: every
        executed hop's output is inserted under the *origin* payload's
        digest, which the output tensor inherits from the hop's input,
        so later requests for the same payload in that format hit.
        """

        def observe(hop: Hop, source: Tensor, result: Tensor,
                    options: PlanOptions, seconds: float) -> None:
            digest = origin_digest(source)
            self.put(digest, hop.dst, result, options)

        return observe

    # -- telemetry -------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot plus current occupancy."""
        with self._lock:
            stats = dict(self._stats)
            stats["entries"] = len(self._entries)
            stats["bytes"] = self._bytes
            stats["max_bytes"] = self.max_bytes
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"<DataCache {stats['entries']} entries "
            f"{stats['bytes']}/{self.max_bytes} bytes "
            f"hits={stats['hits']} misses={stats['misses']}>"
        )
