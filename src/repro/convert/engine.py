"""The conversion engine: caching, policy, routing and telemetry.

:class:`ConversionEngine` is the production entry point of the library.
It owns everything the old module-level functions kept in hidden globals:

* a **thread-safe, LRU-bounded kernel cache** (generated + compiled
  routines, keyed structurally so renamed format twins share kernels) and
  a converter cache (keyed by exact format signatures), with exact
  telemetry via :meth:`cache_stats`; with ``cache_dir`` set, native
  (compiled C) kernels also persist **on disk** so a warm process start
  invokes no compiler;
* **first-class plans** (:meth:`plan` → :class:`~repro.convert.plan.
  ConversionPlan`): every conversion is decided by a plan — ``convert``
  builds and runs one — and plans can be inspected, compiled ahead of
  time, serialized and replayed;
* the **default policy** — :class:`~repro.convert.planner.PlanOptions`
  and lowering backend — applied when callers do not specify one;
* **routing** (:mod:`repro.convert.router`): a ``route="auto"``
  conversion is one edge, run by the implementation a fixed ladder picks
  (a registered converter at bulk sizes, else a built native kernel,
  else the generated vector or scalar kernel), bit-identically;
* **background native builds**: an auto plan whose pair has no built
  native kernel runs the generated kernel and, at bulk sizes, queues
  the build on the engine's one builder thread (see :meth:`shutdown`);
* **per-pair conversion counters** and :meth:`warmup` precompilation.

The module-level :func:`repro.convert.convert` / ``make_converter`` /
``generated_source`` remain stable shims over a process-wide default
engine (:func:`default_engine`), so existing callers see no change.

Typical use::

    engine = ConversionEngine(capacity=256)
    engine.warmup([("COO", "CSR"), ("CSR", "CSC")])
    csr = engine.convert(tensor, "CSR")
    print(engine.plan("HASH", "CSR").explain())
    print(engine.cache_stats())
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
import warnings
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..formats.format import Format
from ..formats.registry import FormatSpec, get_format
from ..ir.runtime import compile_source
from ..storage.tensor import Tensor
# Import order matters: .planner pulls in repro.cin, whose compiler module
# in turn imports .context — importing .context first would hit it
# partially initialized (the long-standing cin <-> convert import cycle).
from .planner import (
    BACKENDS,
    GeneratedConversion,
    PlanOptions,
    plan_conversion,
    resolve_backend,
    structural_key,
)
from .context import PlanError
from .converters import converter_named, registry_version, run_converter
from .plan import ConversionPlan, key_to_json
from .request import ConversionRequest
from .router import (
    DEFAULT_ROUTE_NNZ,
    BULK_NNZ,
    EdgeCandidate,
    Hop,
    edge_candidates,
    find_route,
    rebind_endpoints,
)

#: Schema version of on-disk native-kernel records; part of the disk key,
#: so a layout change simply stops hitting old records instead of
#: misreading them.
KERNEL_CACHE_SCHEMA = 1

#: Set once the interpreter starts exiting: no native builder starts after.
_EXITING = False


def _release_native_dir(engine_ref, path: str) -> None:
    """At interpreter exit: stop the engine's background native builds
    (so no ``cc`` is left writing into ``path``), then remove ``path``."""
    global _EXITING
    _EXITING = True
    engine = engine_ref()
    if engine is not None:
        engine.shutdown()
    shutil.rmtree(path, ignore_errors=True)

_CODEGEN_FINGERPRINT: Optional[str] = None
_FINGERPRINT_LOCK = threading.Lock()


def _codegen_fingerprint() -> str:
    """Digest of the installed package's Python sources, part of every
    native-kernel disk key.

    A kernel record is only valid for the exact code generator that
    produced it; keying on the package sources means a cache directory
    carried across commits (CI's workflow cache, a service image upgrade)
    *misses* instead of serving kernels generated by old code.  Hashing
    the whole package over-invalidates slightly (an engine-only change
    also misses), which is the safe direction; the walk runs once per
    process (~60 small files).
    """
    global _CODEGEN_FINGERPRINT
    with _FINGERPRINT_LOCK:
        if _CODEGEN_FINGERPRINT is None:
            import repro

            digest = hashlib.sha256()
            root = os.path.dirname(os.path.abspath(repro.__file__))
            for dirpath, dirnames, filenames in sorted(os.walk(root)):
                dirnames.sort()
                for name in sorted(filenames):
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    try:
                        with open(path, "rb") as handle:
                            digest.update(handle.read())
                    except OSError:
                        digest.update(b"?")
            _CODEGEN_FINGERPRINT = digest.hexdigest()
    return _CODEGEN_FINGERPRINT


@dataclass
class CompiledConversion:
    """A ready-to-run conversion routine for a (source, target) format pair."""

    generated: GeneratedConversion
    func: Callable

    @property
    def source(self) -> str:
        """The generated Python source code of the routine."""
        return self.generated.source

    @property
    def backend(self) -> str:
        """The lowering backend that produced the routine."""
        return self.generated.backend

    @property
    def src_format(self) -> Format:
        return self.generated.src_format

    @property
    def dst_format(self) -> Format:
        return self.generated.dst_format

    # ------------------------------------------------------------------
    def arguments(self, tensor: Tensor) -> List:
        """Marshal a source tensor into the generated function's arguments."""
        return [
            self._argument(tensor, side, k, name)
            for side, k, name in self.generated.params
        ]

    @staticmethod
    def _argument(tensor: Tensor, side: str, k: int, name: str):
        if side == "src_array":
            return tensor.vals if k == -1 else tensor.array(k, name)
        if side == "src_meta":
            return tensor.meta(k, name)
        return tensor.dims[k]  # dimension size

    def _check_source(self, tensor: Tensor) -> None:
        if structural_key(tensor.format) != structural_key(self.src_format):
            raise ValueError(
                f"converter expects {self.src_format.name}, got {tensor.format.name}"
            )

    def _build_result(self, tensor: Tensor, results) -> Tensor:
        """Assemble the destination tensor from the routine's return tuple."""
        if not isinstance(results, tuple):
            results = (results,)
        arrays: Dict[Tuple[int, str], np.ndarray] = {}
        meta: Dict[Tuple[int, str], int] = {}
        vals = None
        for (side, k, name), value in zip(self.generated.outputs, results):
            if side == "dst_array" and k == -1:
                vals = value
            elif side == "dst_array":
                arrays[(k, name)] = value
            else:
                meta[(k, name)] = int(value)
        if vals is None:
            raise RuntimeError("generated routine returned no values array")
        return Tensor(self.dst_format, tensor.dims, arrays, meta, vals)

    def __call__(self, tensor: Tensor) -> Tensor:
        """Convert ``tensor`` (must be structurally in the source format)."""
        self._check_source(tensor)
        return self._build_result(tensor, self.func(*self.arguments(tensor)))


class ConversionEngine:
    """Owns conversion caches, policy, routing and telemetry.

    Parameters
    ----------
    capacity:
        LRU bound for the kernel cache *and* the converter cache (each
        holds at most ``capacity`` entries; least recently used entries
        are evicted and transparently recompiled on re-request).
    options:
        Default :class:`PlanOptions` applied when a call passes none.
    backend:
        Default lowering backend policy (``"auto"``, ``"scalar"``,
        ``"vector"``).
    cache_dir:
        Directory of the **persistent kernel cache**.  When set, every
        native (compiled C) kernel's record (C source + calling
        convention) and its built ``.so`` are written there, keyed by
        structural pair, plan options, :data:`KERNEL_CACHE_SCHEMA` and
        the codegen + compiler fingerprints, and native kernel-cache
        misses try a disk load *before* planning or compiling — a warm
        process start invokes no compiler
        (``cache_stats()['native_disk_hits']``).  Python kernels are not
        persisted: regenerating one costs about what reading it back
        did.  The directory is shared safely between processes (atomic
        writes; records are content-addressed by key).
    """

    def __init__(
        self,
        capacity: int = 512,
        options: Optional[PlanOptions] = None,
        backend: str = "auto",
        cache_dir: Union[str, os.PathLike, None] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if backend not in BACKENDS:
            raise PlanError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.capacity = capacity
        self.options = options or PlanOptions()
        self.backend = backend
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
        self._lock = threading.RLock()
        #: kernel keys currently compiling (kernel_key -> done event):
        #: concurrent requests for the same pair wait on the event instead
        #: of compiling twice, and cache hits never wait behind a compile.
        self._inflight: Dict[Tuple, threading.Event] = {}
        self._kernels: "OrderedDict[Tuple, Tuple[GeneratedConversion, Callable]]" = (
            OrderedDict()
        )
        self._converters: "OrderedDict[Tuple, CompiledConversion]" = OrderedDict()
        self._routes: Dict[Tuple, ConversionPlan] = {}
        #: bumped whenever a native conversion kernel enters or leaves
        #: the kernel cache: the ladder offers only built native kernels
        self._native_generation = 0
        #: (converter-registry version, native generation) the cached
        #: routes were planned at; a bump in either — a converter was
        #: (un)registered, a native kernel landed — drops them all
        self._routes_version = (registry_version(), 0)
        #: background native builds: the FIFO of queued kernels, every
        #: key queued or building (so a kernel is queued once), keys
        #: whose build failed (those pairs stay on their Python kernels),
        #: the builder thread (None while idle), and an event set while
        #: nothing is queued or building
        self._build_queue: deque = deque()
        self._native_pending: set = set()
        self._native_failed: set = set()
        self._builder: Optional[threading.Thread] = None
        self._builds_idle = threading.Event()
        self._builds_idle.set()
        self._pair_counts: Dict[Tuple[str, str], int] = {}
        self._stats = {
            "requests": 0,
            "hits": 0,
            "misses": 0,
            "kernel_hits": 0,
            "compiles": 0,
            "compile_seconds": 0.0,
            "evictions": 0,
            "converter_evictions": 0,
            "conversions": 0,
            "routed_conversions": 0,
            "parallel_conversions": 0,
            "disk_hits": 0,
            "disk_writes": 0,
            "native_compiles": 0,
            "native_disk_hits": 0,
            "compute_runs": 0,
            "fused_runs": 0,
        }
        #: hop-output observers (:meth:`add_hop_observer`): called after
        #: every executed hop with its input and output tensors, so a
        #: serving layer can cache intermediate results
        self._hop_observers: List[Callable] = []
        self._observer_warned = False
        #: one warning per engine when a native request degrades because
        #: the host has no C compiler
        self._native_warned = False
        #: scratch directory for native ``.so`` builds of cache-less
        #: engines (created lazily, removed at interpreter exit)
        self._native_dir: Optional[str] = None
        #: ``($CC, detected toolchain)`` of the last :meth:`toolchain` call
        self._toolchain: Optional[Tuple] = None

    # -- policy helpers -------------------------------------------------
    def _effective(
        self, options: Optional[PlanOptions], backend: Optional[str]
    ) -> Tuple[PlanOptions, str]:
        return options or self.options, backend or self.backend

    def toolchain(self):
        """The detected host C toolchain for the native backend, or
        ``None`` when no working compiler was found (probed once per
        process and ``$CC`` value by :func:`repro.ir.native.
        detect_toolchain`, memoized here per ``$CC`` value)."""
        cc = os.environ.get("CC")
        memo = self._toolchain
        if memo is None or memo[0] != cc:
            from ..ir.native import detect_toolchain

            memo = self._toolchain = (cc, detect_toolchain())
        return memo[1]

    def _resolve_backend(
        self,
        src_format: Format,
        dst_format: Format,
        options: PlanOptions,
        backend: str,
        resolve: Callable[..., str] = resolve_backend,
    ) -> str:
        """Engine-level backend resolution: the pure ``resolve`` (the
        planner's :func:`resolve_backend`, or a compute op's) plus the
        toolchain reality check — a ``native`` verdict on a host with no
        compiler degrades to the auto resolution (warning once per
        engine) instead of failing."""
        resolved = resolve(src_format, dst_format, options, backend)
        if resolved == "native" and self.toolchain() is None:
            with self._lock:
                warned, self._native_warned = self._native_warned, True
            if not warned:
                warnings.warn(
                    "native backend requested but no working C compiler "
                    "was found (set $CC or install gcc); falling back to "
                    "the Python backends",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return resolve(src_format, dst_format, options, "auto")
        return resolved

    # -- compilation & caching ------------------------------------------
    def make_converter(
        self,
        src_format: FormatSpec,
        dst_format: FormatSpec,
        options: Optional[PlanOptions] = None,
        backend: Optional[str] = None,
    ) -> CompiledConversion:
        """Generate (or fetch from cache) the routine for a format pair.

        Formats may be given as objects or registry spec strings.  Kernels
        are cached per (structural format key, plan options, resolved
        backend) — renamed structural twins share one routine — and both
        caches are LRU-bounded at the engine's ``capacity``.  Compilation
        happens *outside* the engine lock behind a per-kernel in-flight
        event: concurrent requests for the same pair never compile twice,
        and cache hits for other pairs never stall behind a compile.

        Example::

            conv = engine.make_converter("COO", "CSR")
            csr = conv(coo_tensor)
        """
        src_format = get_format(src_format)
        dst_format = get_format(dst_format)
        options, backend = self._effective(options, backend)
        resolved = self._resolve_backend(src_format, dst_format, options, backend)
        return self._lookup_or_build(src_format, dst_format, options, resolved)

    def _lookup_or_build(
        self,
        src_format: Format,
        dst_format: Format,
        options: PlanOptions,
        resolved: str,
    ) -> CompiledConversion:
        key = (
            src_format.signature(),
            dst_format.signature(),
            options.key(),
            resolved,
        )
        with self._lock:
            self._stats["requests"] += 1
            converter = self._converters.get(key)
            if converter is not None:
                self._stats["hits"] += 1
                self._converters.move_to_end(key)
                return converter
            self._stats["misses"] += 1
        kernel_key = (
            structural_key(src_format),
            structural_key(dst_format),
            options.key(),
            resolved,
        )
        entry = self._obtain_kernel(kernel_key, src_format, dst_format,
                                    options, resolved)
        generated, func = entry
        if (
            generated.src_format is not src_format
            or generated.dst_format is not dst_format
        ):
            generated = replace(
                generated, src_format=src_format, dst_format=dst_format
            )
        converter = CompiledConversion(generated, func)
        with self._lock:
            # another thread may have built the same converter while we
            # compiled; keep the first one so callers share the object
            existing = self._converters.get(key)
            if existing is not None:
                self._converters.move_to_end(key)
                return existing
            self._converters[key] = converter
            while len(self._converters) > self.capacity:
                self._converters.popitem(last=False)
                self._stats["converter_evictions"] += 1
        return converter

    def _obtain_kernel(
        self,
        kernel_key: Tuple,
        src_format: Format,
        dst_format: Format,
        options: PlanOptions,
        resolved: str,
        plan_fn: Optional[Callable] = None,
    ) -> Tuple[GeneratedConversion, Callable]:
        """Fetch or compile the kernel for ``kernel_key``, compiling at
        most once across concurrent callers (in-flight event pattern).

        ``plan_fn`` overrides the code generator for non-conversion
        kernels (the compute kernels of :mod:`repro.compute`): it must
        return a :class:`GeneratedConversion`-shaped record whose source
        matches ``resolved`` (C for ``"native"``, Python otherwise).
        The cache layers — in-memory LRU, the native ``.so`` flow and
        its disk records — are shared unchanged."""
        while True:
            with self._lock:
                entry = self._kernels.get(kernel_key)
                if entry is not None:
                    self._stats["kernel_hits"] += 1
                    self._kernels.move_to_end(kernel_key)
                    return entry
                event = self._inflight.get(kernel_key)
                if event is None:
                    event = threading.Event()
                    self._inflight[kernel_key] = event
                    compiling = True
                else:
                    compiling = False
            if not compiling:
                # someone else is compiling this kernel: wait without
                # holding the lock, then re-check (it may also have been
                # evicted again under a tiny capacity — then we compile)
                event.wait()
                continue
            try:
                if resolved == "native":
                    # native kernels persist under cache_dir: the record
                    # carries the C source, the built .so sits beside it,
                    # and both are keyed by the compiler fingerprint
                    entry = self._native_obtain(
                        kernel_key, src_format, dst_format, options,
                        plan_fn=plan_fn,
                    )
                else:
                    started = time.perf_counter()
                    if plan_fn is not None:
                        generated = plan_fn()
                    else:
                        generated = plan_conversion(
                            src_format, dst_format, options, resolved
                        )
                    func = compile_source(generated.source, generated.func_name)
                    elapsed = time.perf_counter() - started
                    entry = (generated, func)
                    with self._lock:
                        self._stats["compile_seconds"] += elapsed
                        self._stats["compiles"] += 1
                with self._lock:
                    self._kernels[kernel_key] = entry
                    self._kernels.move_to_end(kernel_key)
                    if resolved == "native" and plan_fn is None:
                        self._native_generation += 1
                    while len(self._kernels) > self.capacity:
                        evicted, _ = self._kernels.popitem(last=False)
                        self._stats["evictions"] += 1
                        if evicted[-1] == "native" and evicted[0] != "compute":
                            self._native_generation += 1
                return entry
            finally:
                with self._lock:
                    self._inflight.pop(kernel_key, None)
                event.set()

    # -- the native (compiled C) kernel flow -----------------------------
    def _native_build_dir(self) -> str:
        """Scratch directory for ``.so`` builds when the engine has no
        ``cache_dir`` (removed at interpreter exit; the dlopen handles
        keep already-loaded kernels alive regardless)."""
        with self._lock:
            if self._native_dir is None:
                self._native_dir = tempfile.mkdtemp(prefix="repro-native-")
                atexit.register(
                    _release_native_dir, weakref.ref(self), self._native_dir
                )
            return self._native_dir

    @staticmethod
    def _native_key(src: Format, dst: Format, options: PlanOptions) -> Tuple:
        """The kernel-cache key of a pair's native conversion kernel."""
        return (structural_key(src), structural_key(dst), options.key(),
                "native")

    def _build_native(self, hop: Hop, options: PlanOptions) -> None:
        """Build (or disk-load) ``hop``'s native kernel into the kernel
        cache — its landing bumps the route-cache version — or remember
        the failure (with one warning), which keeps the pair on its
        Python kernel."""
        key = self._native_key(hop.src, hop.dst, options)
        try:
            self._obtain_kernel(key, hop.src, hop.dst, options, "native")
        except Exception as exc:  # the builder must outlive any one kernel
            with self._lock:
                self._native_failed.add(key)
            warnings.warn(
                f"building the native {hop.src.name} -> {hop.dst.name} "
                f"kernel failed ({exc!r}); the pair stays on its Python "
                "kernel",
                RuntimeWarning,
                stacklevel=2,
            )

    def _queue_native(self, hops: Sequence[Hop], options: PlanOptions) -> None:
        """Queue background builds of ``hops``' native kernels (skipping
        built, queued and failed ones) and start the builder if idle.
        The request that asks returns without waiting for any of them."""
        if _EXITING:
            return
        with self._lock:
            for hop in hops:
                key = self._native_key(hop.src, hop.dst, options)
                if (
                    key in self._kernels
                    or key in self._native_pending
                    or key in self._native_failed
                ):
                    continue
                self._native_pending.add(key)
                self._build_queue.append((key, hop, options))
                self._builds_idle.clear()
            if self._build_queue and self._builder is None:
                # the scratch directory's exit hook stops this builder
                # before it removes the directory, so create it first
                self._native_build_dir()
                self._builder = threading.Thread(
                    target=self._run_builder, name="repro-native-builder",
                    daemon=True,
                )
                self._builder.start()

    def _run_builder(self) -> None:
        """The builder thread: one queued kernel at a time, then exit."""
        while True:
            with self._lock:
                if not self._build_queue:
                    self._builder = None
                    self._builds_idle.set()
                    return
                key, hop, options = self._build_queue.popleft()
            try:
                self._build_native(hop, options)
            finally:
                with self._lock:
                    self._native_pending.discard(key)

    def _native_load(self, so_path: str, generated: "GeneratedConversion"):
        """dlopen ``so_path`` through a unique private copy.

        The dynamic loader caches shared objects by pathname (and inode)
        process-wide, so loading a rebuilt kernel from the same cache
        path would silently resolve to the previously mapped image —
        stale code after a rebuild, or SIGBUS if the on-disk file was
        truncated under an existing mapping.  Copying to a fresh name
        in the scratch directory guarantees every load maps the bytes
        currently on disk.
        """
        from ..ir.native import load_kernel

        fd, unique = tempfile.mkstemp(
            suffix=".so", dir=self._native_build_dir()
        )
        with os.fdopen(fd, "wb") as out, open(so_path, "rb") as src:
            shutil.copyfileobj(src, out)
        return load_kernel(
            unique, generated.func_name, generated.params, generated.outputs
        )

    def _native_obtain(
        self,
        kernel_key: Tuple,
        src_format: Format,
        dst_format: Format,
        options: PlanOptions,
        plan_fn: Optional[Callable] = None,
    ) -> Tuple[GeneratedConversion, Callable]:
        """Fetch or build the native kernel for ``kernel_key``.

        With ``cache_dir`` set, both the C source (in the JSON record)
        and the built ``.so`` persist, keyed by structural pair + options
        + :data:`KERNEL_CACHE_SCHEMA` + the codegen fingerprint + the
        **compiler fingerprint** — so a warm start binds the existing
        ``.so`` and invokes the compiler zero times
        (``native_disk_hits``), while a record built by a different
        compiler or code generator simply misses.  A valid record whose
        ``.so`` is corrupt or truncated is rebuilt from the record's
        stored C source (no re-planning) instead of crashing.
        """
        from ..ir.native import build_shared, detect_toolchain, load_kernel

        toolchain = detect_toolchain()
        if toolchain is None:
            raise PlanError(
                "native kernels need a C compiler, but none was found on "
                "this host (set $CC or install gcc)"
            )
        digest = hashlib.sha256(
            repr(
                (
                    KERNEL_CACHE_SCHEMA,
                    _codegen_fingerprint(),
                    toolchain.fingerprint,
                    kernel_key,
                )
            ).encode()
        ).hexdigest()[:32]
        if self.cache_dir is not None:
            record_path = os.path.join(self.cache_dir, f"kernel-{digest}.json")
            so_path = os.path.join(self.cache_dir, f"kernel-{digest}.so")
        else:
            record_path = None
            so_path = os.path.join(
                self._native_build_dir(), f"kernel-{digest}.so"
            )
        generated: Optional[GeneratedConversion] = None
        if record_path is not None:
            try:
                with open(record_path) as handle:
                    record = json.load(handle)
                if (
                    record.get("schema") == KERNEL_CACHE_SCHEMA
                    and record.get("key") == key_to_json(kernel_key)
                    and record.get("language") == "c"
                    and record.get("compiler") == toolchain.fingerprint
                ):
                    generated = GeneratedConversion(
                        func=None,
                        source=record["source"],
                        func_name=record["func_name"],
                        params=[tuple(p) for p in record["params"]],
                        outputs=[tuple(o) for o in record["outputs"]],
                        src_format=src_format,
                        dst_format=dst_format,
                        backend="native",
                    )
            except (OSError, ValueError, KeyError, TypeError):
                generated = None
            if generated is not None:
                func = None
                try:
                    # checksum the .so against the record before dlopen:
                    # loading a truncated/corrupt shared object can kill
                    # the process (SIGBUS) rather than raise
                    with open(so_path, "rb") as handle:
                        so_digest = hashlib.sha256(handle.read()).hexdigest()
                    if so_digest == record.get("so_sha256"):
                        func = self._native_load(so_path, generated)
                except (OSError, AttributeError):
                    func = None  # unreadable .so: rebuild from the record's C
                if func is not None:
                    with self._lock:
                        self._stats["native_disk_hits"] += 1
                        self._stats["disk_hits"] += 1
                    return generated, func
        started = time.perf_counter()
        fresh = generated is None
        if fresh:
            if plan_fn is not None:
                generated = plan_fn()
            else:
                generated = plan_conversion(
                    src_format, dst_format, options, "native"
                )
        build_shared(generated.source, so_path, toolchain)
        func = self._native_load(so_path, generated)
        elapsed = time.perf_counter() - started
        if record_path is not None:
            # (re)write the record even when rebuilding from a stored
            # source, so the so_sha256 matches the fresh .so
            self._native_store(
                record_path, kernel_key, generated, toolchain, so_path
            )
        with self._lock:
            self._stats["compiles"] += 1
            self._stats["native_compiles"] += 1
            self._stats["compile_seconds"] += elapsed
        return generated, func

    def _native_store(self, record_path: str, kernel_key: Tuple,
                      generated: GeneratedConversion, toolchain,
                      so_path: str) -> None:
        """Persist a native kernel record (atomic rename, so a
        concurrent process never reads a half-written record; the
        ``.so`` was already placed atomically by
        :func:`~repro.ir.native.build_shared`).  The record carries the
        checksum of the built ``.so`` — warm loads verify it before
        dlopen, because loading a corrupt shared object can crash the
        process instead of raising."""
        try:
            with open(so_path, "rb") as handle:
                so_sha256 = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            return
        record = {
            "schema": KERNEL_CACHE_SCHEMA,
            "key": key_to_json(kernel_key),
            "pair": [generated.src_format.name, generated.dst_format.name],
            "backend": generated.backend,
            "language": "c",
            "compiler": toolchain.fingerprint,
            "func_name": generated.func_name,
            "params": [list(p) for p in generated.params],
            "outputs": [list(o) for o in generated.outputs],
            "source": generated.source,
            "so_sha256": so_sha256,
        }
        tmp = f"{record_path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp, "w") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
            os.replace(tmp, record_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        with self._lock:
            self._stats["disk_writes"] += 1

    def generated_source(
        self,
        src_format: FormatSpec,
        dst_format: FormatSpec,
        backend: str = "scalar",
        options: Optional[PlanOptions] = None,
    ) -> str:
        """The Python source of the generated conversion routine."""
        return self.make_converter(src_format, dst_format, options, backend).source

    def warmup(
        self,
        pairs: Iterable[Tuple[FormatSpec, FormatSpec]],
        options: Optional[PlanOptions] = None,
        backend: Optional[str] = None,
        routes: bool = True,
    ) -> int:
        """Precompile the converters for ``pairs``.

        Each pair is ``(src, dst)`` where either side is a
        :class:`~repro.formats.format.Format` **or a registry spec
        string** — ``warmup([("COO", "CSR"), ("BCSR8x8", "CSR")])`` works
        like every other entry point; specs are resolved once up front so
        an unknown name fails fast, before anything compiles.

        Each pair's :meth:`plan` is compiled (:meth:`ConversionPlan.
        compile`): with ``routes=True`` (default) the plan ``convert``
        would run at bulk size, so the first conversion pays no compile
        either; ``routes=False`` compiles the generated kernel the
        pinned backend resolves to.  A native kernel the router would
        rather run at bulk size is built here, synchronously, and the
        plan it then wins is compiled too, so a warmed engine runs it
        from its first request (a conversion on a cold engine builds it
        in the background instead).  Returns the number of pairs
        warmed.

        Example::

            engine.warmup([("COO", "CSR"), ("HASH", "CSR")])
        """
        resolved = [(get_format(src), get_format(dst)) for src, dst in pairs]
        for src, dst in resolved:
            route = None if routes else "direct"
            plan = self.plan(src, dst, options=options, backend=backend,
                             route=route)
            if plan._pending:
                self._build_native(plan._pending[0], plan.options)
                # the plan the built kernel wins
                plan = self.plan(src, dst, options=options,
                                 backend=backend, route=route)
            plan.compile()
        return len(resolved)

    def shutdown(self) -> None:
        """Stop background native builds: drop the queued ones and wait
        for the one in progress.  The engine stays usable (a later bulk
        conversion queues builds again).  Idempotent and thread-safe; it
        also runs at interpreter exit."""
        with self._lock:
            for key, _, _ in self._build_queue:
                self._native_pending.discard(key)
            self._build_queue.clear()
            builder = self._builder
        if builder is not None and builder is not threading.current_thread():
            builder.join()

    # -- routing --------------------------------------------------------
    def route(
        self,
        src_format: FormatSpec,
        dst_format: FormatSpec,
        options: Optional[PlanOptions] = None,
        nnz: Optional[int] = None,
        features: None = None,  # inert; see Converter.admits
    ) -> ConversionPlan:
        """The conversion plan for a pair — its one edge, taken by the
        implementation the router's ladder picks
        (:func:`~repro.convert.router.find_route`), bound to this
        engine.  It is the plan :meth:`plan` returns under the auto
        policies, with that call's exact ``nnz``.

        ``nnz`` is the expected stored-component count (defaults to
        ``DEFAULT_ROUTE_NNZ``); below ``BULK_NNZ`` registered converters
        do not take the edge.  Plans are cached per (structural pair,
        options, nnz magnitude, toolchain, bulk or not); a converter
        (un)registered or a native kernel landing re-plans them, so
        decisions track the live
        registry and kernel cache; a cache entry produced for a renamed
        structural twin is re-tagged with the requested formats.

        Example::

            csr = engine.route("HASH", "CSR").run(tensor)
        """
        src_format = get_format(src_format)
        dst_format = get_format(dst_format)
        options = options or self.options
        nnz = DEFAULT_ROUTE_NNZ if nnz is None else int(nnz)
        native_ok = self.toolchain() is not None
        key = (
            structural_key(src_format),
            structural_key(dst_format),
            options.key(),
            max(nnz, 1).bit_length(),
            native_ok,
            nnz >= BULK_NNZ,
        )
        version = (registry_version(), self._native_generation)
        with self._lock:
            if version != self._routes_version:
                self._routes.clear()
                self._routes_version = version
            route = self._routes.get(key)
        if route is None:
            route = replace(find_route(
                src_format,
                dst_format,
                options=options,
                nnz=nnz,
                native_ok=native_ok,
                native_ready=self._native_ready(options),
            ), engine=self)
            with self._lock:
                self._routes[key] = route
        if not (route.src is src_format and route.dst is dst_format) and (
            route.src.signature() != src_format.signature()
            or route.dst.signature() != dst_format.signature()
        ):
            route = rebind_endpoints(route, src_format, dst_format)
        return route

    def converters(
        self,
        src_format: FormatSpec,
        dst_format: FormatSpec,
        options: Optional[PlanOptions] = None,
        nnz: Optional[int] = None,
    ) -> List[EdgeCandidate]:
        """Every implementation of the direct edge ``src -> dst``, in
        the router's ladder order (the first one takes the edge).

        The list always contains the generated kernel; registered
        converters (``repro.convert.register_converter``) and this
        engine's native kernel appear with their rung and, when the
        ladder passes them over, the reason.  This is the introspection
        face of the competing-converter machinery — the same candidates
        and ordering the router uses::

            for cand in engine.converters("COO", "CSR"):
                print(cand.describe())
        """
        options = options or self.options
        return edge_candidates(
            get_format(src_format),
            get_format(dst_format),
            options,
            nnz,
            native_ok=self.toolchain() is not None,
            native_ready=self._native_ready(options),
        )

    def _native_ready(self, options: PlanOptions) -> Callable[[Format, Format], bool]:
        """The router's "is this pair's native kernel built?" predicate."""
        return lambda src, dst: (
            self._native_key(src, dst, options) in self._kernels
        )

    # -- hop observation -------------------------------------------------
    def add_hop_observer(
        self,
        observer: Callable[[Hop, Tensor, Tensor, PlanOptions, float], None],
    ) -> None:
        """Register a callback fired after **every executed hop**.

        ``observer(hop, source, result, options, seconds)`` sees each
        hop's input tensor, output tensor, the plan options it honoured
        and its wall time — every hop of a loaded multi-hop plan too.
        This is the seam the serving layer's data cache hangs off
        (:mod:`repro.serve.datacache`): every converted result lands in
        the cache without the caller storing it.  Observers
        must be fast and must not raise; an observer exception is
        swallowed with a once-per-engine warning so telemetry bugs never
        break conversions.
        """
        with self._lock:
            self._hop_observers.append(observer)

    def remove_hop_observer(self, observer: Callable) -> None:
        """Unregister a hop observer (a no-op when it is not registered)."""
        with self._lock:
            try:
                self._hop_observers.remove(observer)
            except ValueError:
                pass

    def _notify_hop(self, hop: Hop, source: Tensor, result: Tensor,
                    options: PlanOptions, seconds: float) -> None:
        if not self._hop_observers:
            return
        with self._lock:
            observers = list(self._hop_observers)
        for observer in observers:
            try:
                observer(hop, source, result, options, seconds)
            except Exception as exc:
                with self._lock:
                    warned, self._observer_warned = self._observer_warned, True
                if not warned:
                    warnings.warn(
                        f"hop observer {observer!r} raised {exc!r}; "
                        "observer exceptions are ignored (fix the observer "
                        "— this warns once per engine)",
                        RuntimeWarning,
                        stacklevel=3,
                    )

    def _execute_hops(self, hops: Sequence[Hop], tensor: Tensor,
                      options: PlanOptions) -> Tensor:
        """Count one executed conversion and run its hop sequence — the
        one executor body behind :meth:`run_plan`.

        Hop observers see each hop as it executed (a native hop whose
        pair lost its compiled kernel reports the kernel that ran
        instead), timed only while one is registered.  The hop
        executable is resolved (and, on a cold cache, compiled)
        *before* the timer starts, so the timing
        is conversion throughput, never codegen."""
        self._record_conversion(
            (hops[0].src.name, hops[-1].dst.name), routed=len(hops) > 1,
        )
        for hop in hops:
            run, ran = self._hop_executable(hop, options)
            if not self._hop_observers:
                tensor = run(tensor)
                continue
            started = time.perf_counter()
            source, tensor = tensor, run(tensor)
            elapsed = time.perf_counter() - started
            self._notify_hop(ran, source, tensor, options, elapsed)
        return tensor

    def _hop_executable(
        self, hop: Hop, options: PlanOptions,
    ) -> Tuple[Callable[[Tensor], Tensor], Hop]:
        """Resolve one hop to a ready callable plus the hop that will
        actually execute.  An ``external`` hop always runs its pinned
        converter: a registered converter takes every tensor of its
        source format."""
        if hop.kind == "external":
            converter = converter_named(hop.src, hop.dst, hop.converter or "")
            if converter is None:
                raise PlanError(
                    f"hop {hop} pins converter {hop.converter!r}, which is "
                    "not registered on this host; register it "
                    "(repro.convert.register_converter) or re-plan"
                )
            dst = hop.dst
            return lambda t: run_converter(converter, t, dst), hop
        if hop.kind == "native" and self.toolchain() is None:
            # a replayed plan pinned the compiled backend; degrading
            # silently would violate the plan, so fail loudly
            raise PlanError(
                f"hop {hop} pins the native (compiled C) backend, but "
                "no working C compiler was found on this host; install "
                "one (or set $CC) to replay this plan, or re-plan with "
                "backend='auto'"
            )
        conv = self.make_converter(hop.src, hop.dst, options, hop.kind)
        if conv.backend != hop.kind:  # a native pair that lost capability
            hop = Hop(hop.src, hop.dst, conv.backend)
        return conv, hop

    # -- planning & conversion ------------------------------------------
    def plan(
        self,
        src_format: FormatSpec,
        dst_format: FormatSpec,
        *,
        options: Optional[PlanOptions] = None,
        backend: Optional[str] = None,
        route: Optional[str] = None,
        parallel: Optional[object] = None,
        nnz: Optional[int] = None,
        features: None = None,  # inert; see Converter.admits
    ) -> ConversionPlan:
        """The full conversion decision for a pair, as a first-class
        :class:`~repro.convert.plan.ConversionPlan`.

        This is exactly the decision :meth:`convert` makes — the
        implementation the router's ladder picks under the auto
        policies, the resolved lowering backend otherwise — reified into
        an object that can be inspected (``explain()``, ``sources()``),
        compiled ahead of time (``compile()``), executed
        (``run(tensor)``) and serialized (``to_json()`` /
        ``ConversionPlan.from_json``) for replay in another process or
        on another host.  Under the auto policies (``backend`` and
        ``route`` both auto) it is :meth:`route`'s plan — the router's
        winner is the plan that runs, never second-guessed here;
        ``route="direct"`` or a pinned backend resolves one generated
        hop.  The knobs are validated through
        :class:`~repro.convert.request.ConversionRequest`.

        ``parallel`` is ignored: it selected the deleted chunked
        executor, and a non-``None`` value raises a
        ``DeprecationWarning``.  It stays only until the benchmark
        harness stops passing it (ROADMAP item 2).

        Example::

            plan = engine.plan("HASH", "CSR", nnz=1_000_000)
            print(plan.explain())
            csr = plan.run(tensor)
        """
        if parallel is not None:
            warnings.warn(
                "plan(parallel=...) is ignored: the chunked executor was "
                "deleted (the sorted-run fast path now runs in every "
                "vector kernel); the keyword goes with ROADMAP item 2",
                DeprecationWarning,
                stacklevel=2,
            )
        request = ConversionRequest.build(
            src_format, dst_format,
            options=options, backend=backend, route=route, nnz=nnz,
            default_options=self.options, default_backend=self.backend,
        )
        src_format, dst_format = request.src, request.dst
        options, backend, nnz = request.options, request.backend, request.nnz
        if request.route == "auto" and backend == "auto":
            found = self.route(src_format, dst_format, options=options,
                               nnz=nnz)
            if found.nnz == nnz:
                return found  # a same-sized repeat: nothing to replace
            return replace(found, nnz=nnz)
        resolved = self._resolve_backend(src_format, dst_format, options,
                                         backend)
        return ConversionPlan(
            hops=(Hop(src_format, dst_format, resolved),),
            options=options, nnz=nnz, engine=self,
        )

    def run_plan(self, plan: ConversionPlan, tensor: Tensor, x=None,
                 alpha: Optional[float] = None):
        """Execute a :class:`ConversionPlan` on ``tensor``.

        The executed-conversion counters and hop observers are fed here,
        so ``plan.run(t)`` and ``convert(t, ...)`` (which builds and runs
        a plan) feed the same telemetry.  The tensor must be structurally
        in the plan's source format; results are bit-identical to the
        direct scalar conversion for every plan shape (every hop kind
        preserves bit-identity by construction).

        A compute plan (see :meth:`plan_compute`) then runs its op over
        the converted tensor with the operand ``x`` or ``alpha``, and
        returns a dense float64 vector for reductions, a :class:`Tensor`
        for materializing ops.
        """
        if structural_key(tensor.format) != structural_key(plan.src):
            raise ValueError(
                f"plan starts at {plan.src.name}, got {tensor.format.name}"
            )
        if plan._pending and tensor.nnz_stored >= BULK_NNZ:
            self._queue_native(plan._pending, plan.options)
        if plan.conversion_hops:
            tensor = self._execute_hops(
                plan.conversion_hops, tensor, plan.options,
            )
        if plan.op is None:
            return tensor
        kernel = self._op_kernel(plan)
        if kernel is None:
            if alpha is None:
                raise ValueError("op 'scale' needs a scalar alpha")
            result = Tensor(
                tensor.format, tensor.dims, dict(tensor.arrays),
                dict(tensor.metadata),
                np.asarray(tensor.vals, dtype=np.float64) * float(alpha),
            )
        else:
            result = kernel(tensor, x=x, alpha=alpha)
        with self._lock:
            self._stats["compute_runs"] += 1
            if plan.fused:
                self._stats["fused_runs"] += 1
        return result

    #: the name the compute callers (serve, the CLI, ``repro.verify``)
    #: use for :meth:`run_plan`
    run_compute_plan = run_plan

    def convert(
        self,
        tensor: Tensor,
        dst_format: FormatSpec,
        options: Optional[PlanOptions] = None,
        backend: Optional[str] = None,
        route: Optional[str] = None,
    ) -> Tensor:
        """Convert ``tensor`` to ``dst_format`` (object or spec string).

        This is a thin shim over the plan API: it builds the
        :class:`~repro.convert.plan.ConversionPlan` for the pair at the
        tensor's actual stored size and runs it (see :meth:`plan` /
        :meth:`run_plan`).  The ``backend``/``route`` knobs are
        validated together through
        :class:`~repro.convert.request.ConversionRequest`.

        ``route=None`` (default) applies the auto policy: when the
        backend policy is also ``"auto"``, the router's ladder picks the
        edge's implementation; the result is bit-identical to the direct
        scalar conversion.
        ``route="direct"`` always converts directly; an **explicit**
        ``route="auto"`` combined with an explicit non-auto backend
        raises ``ValueError`` (the backend pins the direct conversion, so
        there is nothing for routing to decide).  To execute a plan
        already in hand, call ``plan.run(tensor)``.
        """
        plan = self.plan(
            tensor.format, get_format(dst_format),
            options=options, backend=backend, route=route,
            nnz=tensor.nnz_stored,
        )
        return self.run_plan(plan, tensor)

    def convert_file(self, src_path, dst_format: FormatSpec, out_dir, *,
                     chunk_nnz: Optional[int] = None,
                     overwrite: bool = False):
        """Out-of-core conversion of a file (see :func:`repro.stream.convert_file`).

        Streams the coordinate file at ``src_path`` into memmap-backed
        destination arrays under ``out_dir`` without materializing
        either side; the result is bit-identical to :meth:`convert` of
        the same source.  Returns a
        :class:`~repro.stream.StreamResult`.
        """
        from ..io.stream import DEFAULT_CHUNK_NNZ
        from ..stream import convert_file as _convert_file

        return _convert_file(
            src_path, dst_format, out_dir,
            chunk_nnz=DEFAULT_CHUNK_NNZ if chunk_nnz is None else chunk_nnz,
            engine=self, overwrite=overwrite,
        )

    # -- fused convert-and-compute (repro.compute) ----------------------
    def _op_kernel(self, plan: ConversionPlan):
        """The compiled kernel of a compute plan's terminal op, or
        ``None`` for a materialized ``scale`` (a value-stream multiply:
        no codegen) — what :meth:`run_plan` executes and
        :meth:`ConversionPlan.compile` warms.

        Shares the conversion kernel caches (in-flight events, LRU, the
        native ``.so`` flow and its disk records) through
        :meth:`_obtain_kernel`'s ``plan_fn`` seam; the kernel key leads
        with a ``"compute"`` tag plus the op name, so compute and
        conversion records never collide.  When the plan's backend
        cannot lower the op for this format (e.g. a vector gather that
        fails to lower), the always-available scalar kernel runs.
        """
        from ..compute.kernels import (
            CompiledCompute,
            ComputeLoweringError,
            plan_compute_kernel,
        )
        from ..ir.native import NativeUnsupported

        op, terminal, options = plan.op, plan.terminal, plan.options
        if op.name == "scale" and terminal.kind == "compute":
            return None
        src = terminal.src
        dst = terminal.dst if op.needs_destination else None

        def obtain(backend: str):
            kernel_key = (
                "compute",
                op.name,
                structural_key(src),
                structural_key(dst) if dst is not None else (),
                options.key(),
                backend,
            )
            generated, func = self._obtain_kernel(
                kernel_key, src, dst if dst is not None else src,
                options, backend,
                plan_fn=lambda: plan_compute_kernel(
                    src, op, dst, options, backend
                ),
            )
            return CompiledCompute(generated, func, op)

        try:
            return obtain(plan.backend)
        except (ComputeLoweringError, NativeUnsupported):
            if plan.backend == "scalar":
                raise
            return obtain("scalar")

    def plan_compute(
        self,
        src_format: FormatSpec,
        op,
        dst_format: Optional[FormatSpec] = None,
        *,
        fuse: Union[str, bool] = "auto",
        options: Optional[PlanOptions] = None,
        backend: Optional[str] = None,
        nnz: Optional[int] = None,
        features: None = None,  # inert; see Converter.admits
    ) -> ConversionPlan:
        """The full fused-pipeline decision for ``op`` over a format: a
        :class:`ConversionPlan` whose last hop runs the op.

        With ``dst_format`` given, the pipeline the engine would run for
        ``tensor.to(dst).op(...)`` is planned end to end — the
        conversion's one hop with the consuming op appended — and the
        **fusion decision** chooses the terminal hop:

        * ``fused``: the op consumes the last hop's source directly
          through a generated compute kernel; the destination's
          ``pos``/``crd``/``vals`` arrays are never allocated;
        * ``compute``: the conversion materializes the destination and
          the op runs over it (materialize-then-compute).

        ``fuse="auto"`` fuses whenever the op can consume the source
        (:func:`~repro.compute.kernels.fusable`) and builds no
        destination: one pass that skips the destination's assembly,
        agreeing with materializing to float tolerance (a fused kernel
        may reassociate row sums).  An op that materializes a
        destination (``scale``) gains nothing from fusing, and its fused
        kernel is slower at bulk sizes than the ladder's conversion, so
        auto materializes it.
        ``fuse=True`` pins the fused hop (raising when the op cannot
        consume the source), ``fuse=False`` pins
        materialize-then-compute.  Without ``dst_format`` the op consumes
        the source format directly (a single ``compute`` hop).

        The knobs are validated as for :meth:`plan`; a pinned
        ``backend`` pins every hop, the conversion's and the op's.
        """
        from ..compute.kernels import fusable, resolve_compute_backend
        from ..compute.ops import get_op

        op = get_op(op)
        request = ConversionRequest.build(
            src_format, dst_format if dst_format is not None else src_format,
            options=options, backend=backend, nnz=nnz,
            default_options=self.options, default_backend=self.backend,
        )
        src, dst, options = request.src, request.dst, request.options
        op.validate_order(src.order)
        if isinstance(fuse, bool):
            fuse = "fused" if fuse else "materialize"
        if fuse not in ("auto", "fused", "materialize"):
            raise ValueError(
                f"fuse must be 'auto', 'fused', 'materialize' or a bool, "
                f"got {fuse!r}"
            )
        if dst_format is None or structural_key(dst) == structural_key(src):
            if op.needs_destination and dst_format is None:
                raise PlanError(
                    f"op {op.name!r} materializes a destination; pass "
                    "dst_format"
                )
            plan = ConversionPlan(
                hops=(Hop(src, dst, "compute"),), options=options,
                nnz=request.nnz, op=op, engine=self,
            )
        else:
            conversion = self.plan(
                src, dst, options=options, backend=backend, nnz=request.nnz,
            )
            can_fuse = fusable(src, op, dst, options)
            if fuse == "fused" and not can_fuse:
                raise PlanError(
                    f"op {op.name!r} cannot consume {src.name} directly "
                    "(no inverse mapping or incompatible order); fusion "
                    "is not available for this pipeline"
                )
            if fuse == "materialize" or not can_fuse or (
                fuse == "auto" and op.needs_destination
            ):
                plan = replace(
                    conversion, op=op,
                    hops=conversion.hops + (Hop(dst, dst, "compute"),),
                )
            else:
                # the fused hop runs no conversion kernel: nothing to
                # build, and no ladder rung to report
                plan = replace(
                    conversion, op=op, hops=(Hop(src, dst, "fused"),),
                    _pending=(), _rung="",
                )
        terminal = plan.terminal
        resolved = self._resolve_backend(
            terminal.src, terminal.dst if op.needs_destination else None,
            options, request.backend,
            resolve=lambda s, d, o, b: resolve_compute_backend(s, op, d, o, b),
        )
        return replace(plan, backend=resolved)

    def spmv(
        self,
        tensor: Tensor,
        x,
        via: Optional[FormatSpec] = "CSR",
        fuse: Union[str, bool] = "auto",
        backend: Optional[str] = None,
    ):
        """``y = A @ x`` through the fusion planner (see :meth:`plan_compute`).

        ``via`` names the compute format the pipeline targets (default
        CSR, the paper's motivating consumer); ``via=None`` computes
        directly in the tensor's own format.  A pinned ``backend`` pins
        every hop of the pipeline, the conversion's and the op's.
        """
        plan = self.plan_compute(
            tensor.format, "spmv",
            get_format(via) if via is not None else None,
            fuse=fuse, backend=backend, nnz=tensor.nnz_stored,
        )
        return self.run_plan(plan, tensor, x=x)

    def _record_conversion(self, pair: Tuple[str, str], routed: bool) -> None:
        with self._lock:
            self._stats["conversions"] += 1
            if routed:
                self._stats["routed_conversions"] += 1
            self._pair_counts[pair] = self._pair_counts.get(pair, 0) + 1

    # -- telemetry ------------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        """Exact cache/telemetry counters (a snapshot copy).

        ``requests`` counts converter lookups; ``hits``/``misses`` split
        them at the converter cache; ``kernel_hits`` are misses served by
        a structurally-shared kernel; ``compiles`` are actual plan+compile
        runs with their total ``compile_seconds``; ``evictions`` /
        ``converter_evictions`` count LRU drops; ``conversions`` /
        ``routed_conversions`` count executed conversions (and how many
        ran a loaded multi-hop plan: the router plans one hop, so only a
        replayed document can); ``parallel_conversions`` always reads 0 (the chunked
        executor it counted was deleted; the key goes with ROADMAP item
        2);
        ``disk_hits`` / ``disk_writes`` count persistent-cache records
        loaded / written under ``cache_dir`` (a disk hit skips codegen,
        so a fully warm start shows ``compiles == 0``).
        """
        with self._lock:
            stats = dict(self._stats)
            stats["size"] = len(self._kernels)
            stats["converter_size"] = len(self._converters)
            stats["capacity"] = self.capacity
        return stats

    def pair_counts(self) -> Dict[Tuple[str, str], int]:
        """Executed conversions per (source name, destination name)."""
        with self._lock:
            return dict(self._pair_counts)

    def clear_cache(self) -> None:
        """Drop all cached kernels, converters and routes (stats remain)."""
        with self._lock:
            self._kernels.clear()
            self._converters.clear()
            self._routes.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.cache_stats()
        return (
            f"<ConversionEngine kernels={stats['size']}/{self.capacity} "
            f"hits={stats['hits']} misses={stats['misses']} "
            f"conversions={stats['conversions']}>"
        )


# ----------------------------------------------------------------------
# the process-wide default engine (behind the module-level shims)

_DEFAULT_ENGINE: Optional[ConversionEngine] = None
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> ConversionEngine:
    """The process-wide engine behind ``repro.convert.convert`` et al."""
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = ConversionEngine()
        return _DEFAULT_ENGINE


def set_default_engine(engine: ConversionEngine) -> Optional[ConversionEngine]:
    """Replace the default engine; returns the previous one (if any)."""
    global _DEFAULT_ENGINE
    with _DEFAULT_LOCK:
        previous, _DEFAULT_ENGINE = _DEFAULT_ENGINE, engine
    return previous
