"""The conversion service: admission, coalescing, batching, caching.

:class:`ConversionService` is an asyncio front end over one
:class:`~repro.convert.engine.ConversionEngine`.  A request travels::

    submit(tensor, dst, tenant)
      -> admission   (per-tenant concurrency / byte quotas, TenantPolicy)
      -> data cache  (full hit: answer with ZERO engine work)
      -> single-flight (identical in-flight conversion: await its future)
      -> batching    (same-pair requests grouped, run on the executor)
      -> engine      (the plan runs; its result lands in the data cache
                      through the engine's hop observer)

The event loop owns all coordination state (quota counters, in-flight
futures, batch buckets) — only the loop thread mutates it — while the
actual conversions run on a thread pool so the loop stays responsive.
Conversions in this library are bit-identical across backends, so
serving from the data cache returns exactly the bytes a direct
:meth:`engine.convert <repro.convert.engine.ConversionEngine.convert>`
would.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..convert.engine import ConversionEngine, default_engine
from ..convert.plan import ConversionPlan
from ..convert.planner import PlanOptions, structural_key
from ..formats.registry import FormatSpec, get_format
from ..storage.tensor import Tensor
from .datacache import DataCache, origin_digest, tensor_nbytes
from .metrics import Metrics

__all__ = [
    "ComputeResult",
    "ConversionService",
    "QuotaError",
    "ServeResult",
    "TenantPolicy",
]


class QuotaError(RuntimeError):
    """A request was rejected by its tenant's admission policy."""


@dataclass(frozen=True)
class TenantPolicy:
    """Admission and execution policy for one tenant.

    ``max_concurrent`` bounds the tenant's in-flight requests and
    ``max_inflight_bytes`` their summed payload bytes (``None``:
    unlimited); a request larger than ``max_request_bytes`` is rejected
    outright.  ``options``/``backend`` are the tenant's
    default conversion knobs — a tenant pinned to ``backend="vector"``
    or custom :class:`~repro.convert.planner.PlanOptions` gets them on
    every request without the client saying so.
    """

    name: str = "default"
    max_concurrent: int = 8
    max_request_bytes: Optional[int] = None
    max_inflight_bytes: Optional[int] = None
    options: Optional[PlanOptions] = None
    backend: Optional[str] = None


@dataclass(frozen=True)
class ServeResult:
    """One served conversion.

    ``status`` says how it was satisfied: ``identity`` (already in the
    requested structure), ``cached`` (data-cache hit, zero engine work),
    ``coalesced`` (shared an identical in-flight conversion), or
    ``converted`` (the plan executed).
    """

    tensor: Tensor
    status: str
    pair: Tuple[str, str]
    tenant: str
    digest: str
    seconds: float = 0.0
    hops_executed: int = 0


@dataclass(frozen=True)
class ComputeResult:
    """One served compute pipeline (the ``/compute`` endpoint).

    ``result`` is a dense float64 vector for reductions (``spmv``,
    ``row_reduce``) or a :class:`Tensor` for materializing ops
    (``scale``).  ``status`` says how the pipeline was satisfied:
    ``coalesced`` (shared an identical in-flight pipeline), ``prefix``
    (the data cache already held the conversion hop's destination for
    this payload, so that hop was skipped) or ``computed`` (full
    pipeline executed).  ``fuse`` records the planner's terminal
    decision — ``fused`` means the destination format was never
    materialized.
    """

    result: object
    status: str
    op: str
    fuse: str
    pair: Tuple[str, str]
    tenant: str
    digest: str
    seconds: float = 0.0
    hops_executed: int = 0
    hops_skipped: int = 0


def _operand_digest(x=None, alpha=None) -> str:
    """Content digest of the dense compute operands (single-flight key)."""
    h = hashlib.sha256()
    if x is not None:
        arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        h.update(b"x")
        h.update(arr.tobytes())
    if alpha is not None:
        h.update(b"a")
        h.update(repr(float(alpha)).encode())
    return h.hexdigest()


@dataclass
class _Tenant:
    policy: TenantPolicy
    inflight: int = 0
    inflight_bytes: int = 0


@dataclass
class _Job:
    """One engine-side execution: ``execute()`` runs on a worker thread
    and its outcome resolves ``future`` back on the loop."""

    future: "asyncio.Future"
    execute: Callable[[], object]


@dataclass
class _Batch:
    jobs: List[_Job] = field(default_factory=list)
    flusher: Optional["asyncio.Task"] = None


class ConversionService:
    """Multi-tenant conversion front end over one engine.

    Construct it inside a running event loop (it needs
    ``asyncio.get_running_loop()``), submit with :meth:`submit`, and
    :meth:`close` when done::

        async def main():
            service = ConversionService()
            result = await service.submit(tensor, "CSR")
            await service.close()

    ``batch_window`` is how long a batch bucket waits for same-pair
    company before flushing; ``max_batch`` flushes a bucket early.
    """

    def __init__(
        self,
        engine: Optional[ConversionEngine] = None,
        cache: Optional[DataCache] = None,
        cache_bytes: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        batch_window: float = 0.002,
        max_batch: int = 16,
        executor_workers: int = 4,
    ) -> None:
        self.engine = engine if engine is not None else default_engine()
        if cache is None:
            cache = DataCache(**({} if cache_bytes is None
                                 else {"max_bytes": cache_bytes}))
        elif cache_bytes is not None:
            raise ValueError("pass cache or cache_bytes, not both")
        self.cache = cache
        self.metrics = metrics if metrics is not None else Metrics()
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-serve"
        )
        self._tenants: Dict[str, _Tenant] = {}
        self._inflight: Dict[Tuple, "asyncio.Future[ServeResult]"] = {}
        self._batches: Dict[Tuple, _Batch] = {}
        self._closed = False
        self._started = time.time()
        self._observer = self.cache.hop_observer()
        self.engine.add_hop_observer(self._observer)

    # -- tenancy ---------------------------------------------------------
    def set_policy(self, policy: TenantPolicy) -> None:
        """Install (or replace) a tenant's policy; safe from any thread."""
        def install() -> None:
            tenant = self._tenants.get(policy.name)
            if tenant is None:
                self._tenants[policy.name] = _Tenant(policy)
            else:
                tenant.policy = policy

        if self._loop.is_running() and not self._on_loop():
            self._loop.call_soon_threadsafe(install)
        else:
            install()

    def _on_loop(self) -> bool:
        try:
            return asyncio.get_running_loop() is self._loop
        except RuntimeError:
            return False

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = _Tenant(TenantPolicy(name=name))
        return tenant

    def _admit(self, tenant: _Tenant, nbytes: int) -> None:
        policy = tenant.policy
        if (policy.max_request_bytes is not None
                and nbytes > policy.max_request_bytes):
            raise QuotaError(
                f"tenant {policy.name!r}: request of {nbytes} bytes exceeds "
                f"the {policy.max_request_bytes}-byte request limit"
            )
        if tenant.inflight >= policy.max_concurrent:
            raise QuotaError(
                f"tenant {policy.name!r}: {tenant.inflight} requests already "
                f"in flight (limit {policy.max_concurrent})"
            )
        if (policy.max_inflight_bytes is not None
                and tenant.inflight_bytes + nbytes > policy.max_inflight_bytes):
            raise QuotaError(
                f"tenant {policy.name!r}: {nbytes} more bytes would exceed "
                f"the {policy.max_inflight_bytes}-byte in-flight limit"
            )

    # -- the request path ------------------------------------------------
    async def submit(self, tensor: Tensor, dst_format: FormatSpec,
                     tenant: str = "default") -> ServeResult:
        """Serve one conversion request (must run on the service loop).

        Raises :class:`QuotaError` when the tenant's policy rejects the
        request; any conversion failure propagates to the caller.
        """
        dst = get_format(dst_format)
        return await self._request(
            tensor, tenant,
            lambda policy: self._serve(tensor, dst, policy, tenant),
        )

    async def _request(self, tensor: Tensor, tenant: str, serve,
                       family: str = ""):
        """The one request path behind ``/convert`` and ``/compute``:
        tenant admission, in-flight accounting around ``serve(policy)``,
        and the request / error / latency metrics (labelled
        ``<family>_<status>`` for a non-conversion family)."""
        if self._closed:
            raise RuntimeError("service is closed")
        started = time.perf_counter()
        record = self._tenant(tenant)
        nbytes = tensor_nbytes(tensor)
        try:
            self._admit(record, nbytes)
        except QuotaError:
            self.metrics.incr("quota_rejections")
            raise
        self.metrics.incr("requests")
        if family:
            self.metrics.incr(f"{family}_requests")
        self.metrics.incr_tenant(tenant)
        record.inflight += 1
        record.inflight_bytes += nbytes
        try:
            result = await serve(record.policy)
        except Exception:
            self.metrics.incr("errors")
            raise
        finally:
            record.inflight -= 1
            record.inflight_bytes -= nbytes
        elapsed = time.perf_counter() - started
        result = dataclasses.replace(result, seconds=elapsed)
        self.metrics.incr("responses")
        self.metrics.observe_latency(
            f"{family}_{result.status}" if family else result.status, elapsed
        )
        return result

    async def _serve(self, tensor: Tensor, dst, policy: TenantPolicy,
                     tenant: str) -> ServeResult:
        digest = origin_digest(tensor)
        pair = (tensor.format.name, dst.name)
        options = policy.options
        # Seed the cache with the payload itself: a later request for
        # this payload in its *source* structure is also a hit.
        self.cache.put(digest, tensor.format, tensor, options)
        if structural_key(tensor.format) == structural_key(dst):
            return ServeResult(tensor, "identity", pair, tenant, digest)
        cached = self.cache.get(digest, dst, options)
        if cached is not None:
            self.metrics.incr("data_hits")
            return ServeResult(cached, "cached", pair, tenant, digest)
        knobs = (
            options.key() if options is not None else None,
            policy.backend,
        )
        bucket_key = (structural_key(tensor.format), structural_key(dst)) + knobs
        return await self._single_flight(
            (digest, structural_key(dst)) + knobs, tenant,
            lambda future: self._enqueue(bucket_key, _Job(
                future,
                lambda: self._execute_job(tensor, dst, digest, policy, tenant),
            )),
        )

    async def _single_flight(self, flight_key: Tuple, tenant: str, launch):
        """Await the in-flight execution registered under ``flight_key``,
        or register a future, ``launch(future)`` its execution and await
        that — identical concurrent requests share one execution."""
        inflight = self._inflight.get(flight_key)
        if inflight is not None:
            self.metrics.incr("coalesced")
            result = await asyncio.shield(inflight)
            return dataclasses.replace(
                result, status="coalesced", tenant=tenant
            )
        future: "asyncio.Future" = self._loop.create_future()
        self._inflight[flight_key] = future
        launch(future)
        try:
            return await asyncio.shield(future)
        finally:
            if self._inflight.get(flight_key) is future:
                del self._inflight[flight_key]

    # -- batching --------------------------------------------------------
    def _enqueue(self, bucket_key: Tuple, job: _Job) -> None:
        batch = self._batches.get(bucket_key)
        if batch is None:
            batch = self._batches[bucket_key] = _Batch()
        batch.jobs.append(job)
        if len(batch.jobs) >= self.max_batch:
            self._flush(bucket_key)
        elif batch.flusher is None:
            batch.flusher = self._loop.create_task(
                self._flush_later(bucket_key)
            )

    async def _flush_later(self, bucket_key: Tuple) -> None:
        await asyncio.sleep(self.batch_window)
        self._flush(bucket_key)

    def _flush(self, bucket_key: Tuple) -> None:
        batch = self._batches.pop(bucket_key, None)
        if batch is None or not batch.jobs:
            return
        flusher = batch.flusher
        if (flusher is not None and not flusher.done()
                and flusher is not asyncio.current_task()):
            flusher.cancel()
        self.metrics.incr("batches")
        self.metrics.incr("batched_requests", len(batch.jobs))
        self._loop.create_task(self._run_batch(batch.jobs))

    async def _run_batch(self, jobs: List[_Job]) -> None:
        outcomes = await self._loop.run_in_executor(
            self._executor, self._execute_batch, jobs
        )
        for job, result, error in outcomes:
            if job.future.cancelled():
                continue
            if error is not None:
                job.future.set_exception(error)
            else:
                job.future.set_result(result)

    # -- engine-side execution (worker threads) --------------------------
    def _execute_batch(self, jobs: List[_Job]):
        # One batch runs its jobs back to back on a single worker: the
        # first job warms the pair's kernels, the rest reuse them.
        outcomes = []
        for job in jobs:
            try:
                outcomes.append((job, job.execute(), None))
            except Exception as exc:  # delivered to the awaiting caller
                outcomes.append((job, None, exc))
        return outcomes

    def _execute_job(self, tensor: Tensor, dst, digest: str,
                     policy: TenantPolicy, tenant: str) -> ServeResult:
        pair = (tensor.format.name, dst.name)
        cached = self.cache.get(digest, dst, policy.options)
        if cached is not None:  # raced in since the loop-side probe
            self.metrics.incr("data_hits")
            return ServeResult(cached, "cached", pair, tenant, digest)
        plan = self.engine.plan(
            tensor.format, dst,
            options=policy.options, backend=policy.backend,
            nnz=tensor.nnz_stored,
            features=self.engine.features_for(tensor, policy.backend),
        )
        result = self.engine.run_plan(plan, tensor)
        self.metrics.incr("full_conversions")
        return ServeResult(result, "converted", pair, tenant, digest,
                           hops_executed=len(plan.hops))

    # -- fused convert-and-compute (the /compute endpoint) ---------------
    async def submit_compute(
        self,
        tensor: Tensor,
        op: str,
        dst_format: Optional[FormatSpec] = None,
        tenant: str = "default",
        x=None,
        alpha: Optional[float] = None,
        fuse: Union[str, bool] = "auto",
    ) -> ComputeResult:
        """Serve one convert-and-compute pipeline (service loop only).

        This is the conversion request path end to end: admission runs
        the same tenant quotas, the payload seeds the data cache,
        identical in-flight pipelines coalesce on one execution, and the
        conversion hop is skipped when the cache already holds its
        destination for this payload (an auto-fused pipeline then
        materializes from that entry).  Hop outputs land in the cache
        through the engine's hop observer exactly like ``/convert``
        traffic, so a ``/compute`` request warms the cache
        for a later ``/convert`` and vice versa.  The fusion decision
        itself is the engine's (:meth:`ConversionEngine.plan_compute
        <repro.convert.engine.ConversionEngine.plan_compute>`).
        """
        dst = get_format(dst_format) if dst_format is not None else None
        return await self._request(
            tensor, tenant,
            lambda policy: self._serve_compute(
                tensor, op, dst, policy, tenant, x, alpha, fuse
            ),
            family="compute",
        )

    async def _serve_compute(self, tensor: Tensor, op: str, dst,
                             policy: TenantPolicy, tenant: str,
                             x, alpha, fuse) -> ComputeResult:
        digest = origin_digest(tensor)
        options = policy.options
        # Seed the cache with the payload: a later /convert or /compute
        # of the same bytes in their source structure is a hit.
        self.cache.put(digest, tensor.format, tensor, options)
        flight_key = (
            "compute", digest, str(op),
            structural_key(dst) if dst is not None else None,
            _operand_digest(x, alpha), str(fuse),
            options.key() if options is not None else None,
            policy.backend,
        )
        # pipelines skip the same-pair batcher: a batch of one
        return await self._single_flight(
            flight_key, tenant,
            lambda future: self._loop.create_task(self._run_batch([_Job(
                future,
                lambda: self._execute_compute(
                    tensor, op, dst, digest, policy, tenant, x, alpha, fuse
                ),
            )])),
        )

    def _execute_compute(self, tensor, op, dst, digest,
                         policy: TenantPolicy, tenant: str,
                         x, alpha, fuse) -> ComputeResult:
        # Worker thread: plan the pipeline under the tenant's knobs, skip
        # its conversion hop when the data cache already holds that hop's
        # destination for this payload, run the rest.  A cached
        # destination beats any kernel, so an auto-fused plan whose
        # destination is cached materializes from that entry instead.
        pair = (
            tensor.format.name,
            dst.name if dst is not None else tensor.format.name,
        )
        features = self.engine.features_for(tensor, policy.backend)

        def planned(fuse):
            return self.engine.plan_compute(
                tensor.format, op, dst, fuse=fuse,
                options=policy.options, backend=policy.backend,
                nnz=tensor.nnz_stored, features=features,
            )

        plan = planned(fuse)
        skipped, current = 0, tensor
        # a fused plan's one hop ends at the destination it never builds
        hops = plan.hops if plan.fused and fuse == "auto" else (
            plan.conversion_hops
        )
        cached = (self.cache.get(digest, hops[-1].dst, policy.options)
                  if hops else None)
        if cached is not None:
            if plan.fused:
                plan = planned("materialize")
            skipped, current = len(plan.conversion_hops), cached
            plan = dataclasses.replace(plan, hops=plan.hops[skipped:])
            self.metrics.incr("prefix_hits")
        value = self.engine.run_compute_plan(plan, current, x=x, alpha=alpha)
        if plan.fused:
            self.metrics.incr("fused_serves")
        self.metrics.incr("computations")
        return ComputeResult(
            value, "prefix" if skipped else "computed", plan.op.name,
            plan.fuse, pair, tenant, digest,
            hops_executed=len(plan.hops), hops_skipped=skipped,
        )

    # -- plan / health / teardown ---------------------------------------
    async def plan(self, src_format: FormatSpec, dst_format: FormatSpec,
                   tenant: str = "default",
                   nnz: Optional[int] = None) -> ConversionPlan:
        """The plan a request for this pair would execute (tenant knobs
        applied) — the ``/plan`` endpoint's backing call."""
        policy = self._tenant(tenant).policy
        return await self._loop.run_in_executor(
            self._executor,
            lambda: self.engine.plan(
                src_format, dst_format, options=policy.options,
                backend=policy.backend, nnz=nnz,
            ),
        )

    def health(self) -> Dict:
        """Liveness document for ``/healthz``."""
        return {
            "ok": not self._closed,
            "uptime_seconds": max(time.time() - self._started, 0.0),
            "inflight": {
                name: {
                    "requests": tenant.inflight,
                    "bytes": tenant.inflight_bytes,
                }
                for name, tenant in sorted(self._tenants.items())
                if tenant.inflight
            },
            "pending_batches": len(self._batches),
            "data_cache": self.cache.stats(),
        }

    def snapshot(self) -> Dict:
        """The aggregated metrics document (see :meth:`Metrics.snapshot`)."""
        return self.metrics.snapshot(engine=self.engine,
                                     datacache=self.cache)

    async def close(self) -> None:
        """Flush pending work, detach from the engine, stop the pool."""
        if self._closed:
            return
        self._closed = True
        for bucket_key in list(self._batches):
            self._flush(bucket_key)
        pending = [
            future for future in self._inflight.values() if not future.done()
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self.engine.remove_hop_observer(self._observer)
        self._executor.shutdown(wait=True)
