"""Shape-keyed dynamic batching for the serving front-end.

The paper's runtime amortizes transform and bandwidth costs across a
*batch* of tiles per fork-join round; per-request dispatch throws that
amortization away at the serving layer.  This module restores it: every
incoming request lands in a queue keyed by ``(tenant, model, per-request
image signature)``, and a per-key drain task coalesces whatever arrives
within a small batching window (or is already waiting) into one
:meth:`~repro.core.engine.ConvolutionEngine.run_many` call -- one plan
lookup, one kernel fingerprint and one arena lease for the whole
batch.

Batch sizes are padded up to power-of-two buckets (``1, 2, 4, ...,
max_batch``) so a queue draining at arbitrary depths exercises a bounded
set of plan-cache keys; the padded samples are zeros whose outputs are
discarded (sample independence makes the real outputs bitwise identical
either way -- the differential suite asserts this).

Admission control is two-layered and fails fast with retry hints:

* a **global** pending cap and a **per-key** queue cap reject with
  ``over_capacity`` before anything is enqueued (bounded queues -- the
  server can never buffer unbounded work);
* per-tenant caps (pending count, arena bytes, plan-cache bytes) are
  delegated to :class:`~repro.serve.tenants.TenantManager`.

Engine execution is blocking, so batches run on a small thread pool via
``run_in_executor``; the asyncio side only ever moves queue entries and
futures.  A batch that fails with an unexpected error fails *those*
requests with ``internal`` -- a failed codelet build inside the engine
is absorbed by its compiled->fused fallback chain and the requests
still succeed (the soak tests break the build to prove it).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import MetricsRegistry, labeled
from repro.serve.protocol import ProtocolError
from repro.serve.tenants import TenantManager


def batch_bucket(n: int, max_batch: int) -> int:
    """Smallest power of two >= ``n``, capped at ``max_batch``."""
    if n < 1:
        raise ValueError(f"batch must be >= 1, got {n}")
    if n >= max_batch:
        return max_batch
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class BatchKey:
    """Coalescing signature: requests sharing it may share a dispatch.

    The per-request batch dimension is deliberately *excluded* --
    requests with different leading ``B`` still stack along the batch
    axis -- while the kernel tensor is pinned through ``(tenant,
    model)`` and the image signature through ``(C, *spatial)``/dtype.
    """

    tenant: str
    model: str
    signature: tuple[int, ...]  # per-request image shape minus batch dim
    dtype: str


@dataclass
class _Pending:
    """One enqueued request: its tensor, its future, its arrival time."""

    images: np.ndarray
    future: asyncio.Future
    enqueued: float = field(default_factory=time.perf_counter)


@dataclass
class BatchResult:
    """What the drain loop resolves each request's future with."""

    output: np.ndarray
    batch_size: int       # how many requests shared the dispatch
    padded_to: int        # stacked batch size after bucket padding
    queue_seconds: float  # time the request spent waiting to coalesce


class DynamicBatcher:
    """Per-shape request queues + drain tasks in front of one engine."""

    def __init__(
        self,
        engine,
        models,
        *,
        max_batch: int = 8,
        window_ms: float = 2.0,
        max_pending: int = 1024,
        max_queue_per_key: int = 256,
        bucket_pad: bool = True,
        dispatch_threads: int = 2,
        idle_key_seconds: float = 30.0,
        tenants: TenantManager | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1 or max_queue_per_key < 1:
            raise ValueError("pending caps must be >= 1")
        self.engine = engine
        self.models = models
        self.max_batch = max_batch
        self.window_s = max(0.0, window_ms) / 1e3
        self.max_pending = max_pending
        self.max_queue_per_key = max_queue_per_key
        self.bucket_pad = bucket_pad
        self.idle_key_seconds = idle_key_seconds
        self.tenants = tenants if tenants is not None else TenantManager()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queues: dict[BatchKey, asyncio.Queue[_Pending]] = {}
        self._tasks: dict[BatchKey, asyncio.Task] = {}
        self._pending_total = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, dispatch_threads), thread_name_prefix="serve-batch"
        )
        self._stopped = False
        self.metrics.gauge("serve.queue_depth", lambda: self._pending_total)

    # ------------------------------------------------------------------
    async def submit(self, key: BatchKey, images: np.ndarray) -> BatchResult:
        """Enqueue one request and await its batched result.

        Raises :class:`ProtocolError` (``over_capacity`` /
        ``quota_exceeded``) *before* enqueueing when admission fails --
        a rejected request consumes no queue space and no engine time.
        """
        if self._stopped:
            raise ProtocolError("internal", "server is shutting down")
        if self._pending_total >= self.max_pending:
            self.metrics.counter(
                labeled("serve.rejects", reason="over_capacity")
            ).inc()
            raise ProtocolError(
                "over_capacity",
                f"server has {self._pending_total} pending requests "
                f"(cap {self.max_pending})",
                retry_after_ms=self._retry_hint_ms(),
            )
        queue = self._queues.get(key)
        if queue is not None and queue.qsize() >= self.max_queue_per_key:
            self.metrics.counter(
                labeled("serve.rejects", reason="queue_full")
            ).inc()
            raise ProtocolError(
                "over_capacity",
                f"queue for {key.model!r}@{key.signature} is full "
                f"({self.max_queue_per_key})",
                retry_after_ms=self._retry_hint_ms(),
            )
        # Per-tenant pending cap (raises QuotaExceeded).
        self.tenants.admit(key.tenant)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _Pending(images=images, future=fut)
        self._pending_total += 1

        def _done(_f, tenant=key.tenant):
            self._pending_total -= 1
            self.tenants.release(tenant)

        fut.add_done_callback(_done)
        if queue is None:
            queue = self._queues[key] = asyncio.Queue()
        queue.put_nowait(pending)
        task = self._tasks.get(key)
        if task is None or task.done():
            self._tasks[key] = asyncio.get_running_loop().create_task(
                self._drain(key)
            )
        return await fut

    def _retry_hint_ms(self) -> float:
        """Backpressure hint: roughly one batch's worth of service time."""
        mean_s = self.metrics.histogram("serve.dispatch_seconds").mean
        return max(1.0, 1e3 * mean_s)

    # ------------------------------------------------------------------
    async def _drain(self, key: BatchKey) -> None:
        """Coalesce ``key``'s queue into batches until it goes idle."""
        queue = self._queues[key]
        loop = asyncio.get_running_loop()
        while not self._stopped:
            try:
                first = await asyncio.wait_for(
                    queue.get(), timeout=self.idle_key_seconds
                )
            except asyncio.TimeoutError:
                if queue.empty():
                    # Idle key: drop the queue/task so adversarial
                    # shape-churn cannot grow server state unboundedly.
                    self._queues.pop(key, None)
                    self._tasks.pop(key, None)
                    return
                continue
            batch = [first]
            if self.max_batch > 1:
                deadline = loop.time() + self.window_s
                while len(batch) < self.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0 or queue.qsize() >= (
                        self.max_batch - len(batch)
                    ):
                        # Window over, or enough waiting to fill up:
                        # take what is immediately available.
                        while len(batch) < self.max_batch and not queue.empty():
                            batch.append(queue.get_nowait())
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(queue.get(), timeout=remaining)
                        )
                    except asyncio.TimeoutError:
                        continue
            await self._dispatch(key, batch)

    async def _dispatch(self, key: BatchKey, batch: list[_Pending]) -> None:
        """Run one coalesced batch on the dispatch pool, resolve futures."""
        loop = asyncio.get_running_loop()
        waiters = [p for p in batch if not p.future.done()]
        if not waiters:
            return
        t0 = time.perf_counter()
        try:
            outputs, padded_to = await loop.run_in_executor(
                self._pool, self._run_batch, key, [p.images for p in waiters]
            )
        except ProtocolError as exc:
            for p in waiters:
                if not p.future.done():
                    p.future.set_exception(
                        ProtocolError(exc.code, str(exc), exc.retry_after_ms)
                    )
            return
        except Exception as exc:  # noqa: BLE001 - fault boundary
            self.metrics.counter(
                labeled("serve.batch_failures", tenant=key.tenant)
            ).inc()
            for p in waiters:
                if not p.future.done():
                    p.future.set_exception(
                        ProtocolError("internal", f"batch execution failed: {exc}")
                    )
            return
        dispatch_s = time.perf_counter() - t0
        self.metrics.histogram("serve.dispatch_seconds").observe(dispatch_s)
        self.metrics.histogram("serve.batch_size").observe(len(waiters))
        now = time.perf_counter()
        for p, out in zip(waiters, outputs):
            if not p.future.done():
                p.future.set_result(
                    BatchResult(
                        output=out,
                        batch_size=len(waiters),
                        padded_to=padded_to,
                        queue_seconds=now - dispatch_s - p.enqueued,
                    )
                )

    # -- dispatch-thread side ------------------------------------------
    def _run_batch(self, key: BatchKey, images_list: list[np.ndarray]):
        """Blocking half of one dispatch (runs on the thread pool)."""
        model = self.models.get(key.tenant, key.model)
        total = sum(im.shape[0] for im in images_list)
        pad_to = (
            batch_bucket(total, max(self.max_batch, total))
            if self.bucket_pad and self.max_batch > 1
            else None
        )
        stacked_b = pad_to if pad_to is not None else total
        # Arena quota: reserve the batch's exact workspace demand before
        # executing; rejected batches never touch the arena.
        lease_bytes = self.engine.workspace_bytes(
            (stacked_b,) + key.signature,
            model.kernels.shape,
            padding=model.padding,
            dtype=key.dtype,
        )
        self.tenants.lease_arena(key.tenant, lease_bytes)
        try:
            outputs = self.engine.run_many(
                images_list,
                model.kernels,
                padding=model.padding,
                dtype=key.dtype,
                tenant=key.tenant,
                pad_to=pad_to,
            )
        finally:
            self.tenants.release_arena(key.tenant, lease_bytes)
        # Plan bytes only grow inside a batch; sweep the tenant's LRU
        # plans back under quota now, while its own request pays.
        self.tenants.enforce_plan_quota(key.tenant, self.engine.plans)
        return outputs, stacked_b

    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Fail queued work, stop drain tasks, release the thread pool."""
        self._stopped = True
        for task in list(self._tasks.values()):
            task.cancel()
        for task in list(self._tasks.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        for queue in self._queues.values():
            while not queue.empty():
                p = queue.get_nowait()
                if not p.future.done():
                    p.future.set_exception(
                        ProtocolError("internal", "server is shutting down")
                    )
        self._queues.clear()
        self._tasks.clear()
        self._pool.shutdown(wait=True)
