"""Load/soak lane for the serving front-end: concurrency, faults, quotas.

Three escalating scenarios, all against a real in-process TCP server:

* **soak** -- several concurrent pipelined clients issue interleaved
  requests over multiple models/shapes; every response's digest must
  match a per-request oracle computed out-of-band.  Zero dropped, zero
  corrupted, and the batcher must actually have coalesced (otherwise
  the lane is not testing the batched path at all).
* **fault soak** -- the same traffic against the compiled backend with
  every codelet build failing: each batch must degrade down the fallback
  chain to the fused path (so digests still match the fused oracle),
  never drop or corrupt a response.
* **quota storm** -- a burst far beyond a tight tenant quota: the
  overflow is rejected with retryable ``quota_exceeded`` errors, every
  accepted request completes correctly, and the tenant's accounting
  drains back to zero afterwards (no leaked pending slots).
"""

from __future__ import annotations

import asyncio
import random

import numpy as np
import pytest

from repro.core.engine import ConvolutionEngine
from repro.serve import (
    ConvServer,
    ProtocolError,
    ServeClient,
    TenantQuota,
    tensor_digest,
)

#: (model name, padding, images list) -- two shapes so the batcher keys split.
def _request_pool(seed=0):
    rng = np.random.default_rng(seed)
    kernels = {
        "small": (rng.standard_normal((8, 8, 3, 3)) * 0.2).astype(np.float32),
        "wide": (rng.standard_normal((16, 16, 3, 3)) * 0.2).astype(np.float32),
    }
    shapes = {"small": (8, 8, 8), "wide": (16, 10, 10)}
    payloads = {
        name: [
            rng.standard_normal((rng.integers(1, 3),) + shapes[name])
            .astype(np.float32)
            for _ in range(4)
        ]
        for name in kernels
    }
    return kernels, payloads


def _oracle_digests(kernels, payloads):
    """Per-request expected digests from lone fused runs (no batching)."""
    digests = {}
    with ConvolutionEngine() as eng:
        for name, imgs in payloads.items():
            for i, img in enumerate(imgs):
                out = eng.run(img, kernels[name], padding=(1, 1))
                digests[(name, i)] = tensor_digest(out)
    return digests


async def _infer_retry(cli, model, img, attempts=60):
    """Retry backpressure rejects the way a well-behaved client would."""
    for _ in range(attempts):
        try:
            return await cli.infer(model, img, respond="checksum")
        except ProtocolError as exc:
            if exc.code in ("over_capacity", "quota_exceeded"):
                await asyncio.sleep(min(0.1, (exc.retry_after_ms or 10) / 1e3))
                continue
            raise
    raise AssertionError(f"request to {model!r} starved after {attempts} retries")


async def _client_task(port, tenant, kernels, payloads, digests, seed, n_requests):
    """One soak client: issue shuffled requests, verify every digest."""
    r = random.Random(seed)
    mismatches, batched = [], []
    async with ServeClient("127.0.0.1", port, tenant=tenant) as cli:
        for _ in range(n_requests):
            name = r.choice(sorted(payloads))
            i = r.randrange(len(payloads[name]))
            rep = await _infer_retry(cli, name, payloads[name][i])
            batched.append(rep["batched"])
            if rep["digest"] != digests[(name, i)]:
                mismatches.append((name, i, rep["digest"]))
    return mismatches, batched


def _register_all(port, tenant, kernels):
    async def _do():
        async with ServeClient("127.0.0.1", port, tenant=tenant) as cli:
            for name, ker in kernels.items():
                await cli.register(name, ker, [1, 1])
    return _do()


def test_soak_concurrent_clients_zero_loss():
    """4 pipelined clients x 10 requests, mixed shapes: every response
    arrives, every digest matches its per-request oracle, and same-shape
    requests from different clients actually coalesced."""
    kernels, payloads = _request_pool()
    digests = _oracle_digests(kernels, payloads)

    async def main():
        async with ConvServer(
            host="127.0.0.1", max_batch=4, window_ms=20.0
        ) as server:
            await _register_all(server.port, "soak", kernels)
            results = await asyncio.gather(*[
                _client_task(server.port, "soak", kernels, payloads, digests,
                             seed=100 + c, n_requests=10)
                for c in range(4)
            ])
            async with ServeClient("127.0.0.1", server.port) as cli:
                stats = await cli.stats()
            return results, stats

    results, stats = asyncio.run(main())
    mismatches = [m for ms, _ in results for m in ms]
    assert not mismatches, f"corrupted responses: {mismatches}"
    assert sum(len(b) for _, b in results) == 40  # zero dropped
    batch_sizes = [s for _, sizes in results for s in sizes]
    assert max(batch_sizes) > 1, "soak never exercised a coalesced batch"
    hist = stats["metrics"]["histograms"]["serve.batch_size"]
    assert hist["count"] >= 1 and hist["max"] > 1


def test_soak_with_build_failures_degrades_not_drops(failing_codelet_build):
    """Codelet builds failing mid-batch must reroute each batch down the
    fallback chain to the fused path, not drop or corrupt responses.

    The oracle digests come from lone *fused* runs: the fallback target
    is the fused path, whose batched results are bitwise equal to
    per-request ones, so every response must match."""
    kernels, payloads = _request_pool(seed=1)
    digests = _oracle_digests(kernels, payloads)

    engine = ConvolutionEngine(backend="compiled")

    async def main():
        server = ConvServer(
            engine, host="127.0.0.1", max_batch=4, window_ms=20.0
        )
        await server.start()
        try:
            await _register_all(server.port, "faulty", kernels)
            return await asyncio.gather(*[
                _client_task(server.port, "faulty", kernels, payloads, digests,
                             seed=200 + c, n_requests=8)
                for c in range(3)
            ])
        finally:
            await server.stop()

    try:
        results = asyncio.run(main())
    finally:
        engine.close()
    mismatches = [m for ms, _ in results for m in ms]
    assert not mismatches, f"corrupted responses across build failures: {mismatches}"
    assert sum(len(b) for _, b in results) == 24  # zero dropped
    assert failing_codelet_build, "no build was attempted; the lane tested nothing"
    assert engine.metrics.counter_value("engine.fallbacks.compiled_to_fused") >= 1, \
        "build failure did not surface as a fallback"


def test_quota_storm_rejects_cleanly_and_recovers():
    """A 16-request burst against a 3-deep tenant quota: overflow is
    rejected with retryable errors, accepted work completes correctly,
    and the pending accounting drains to zero."""
    rng = np.random.default_rng(3)
    ker = (rng.standard_normal((8, 8, 3, 3)) * 0.2).astype(np.float32)
    img = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
    with ConvolutionEngine() as eng:
        expect = tensor_digest(eng.run(img, ker, padding=(1, 1)))

    async def main():
        async with ConvServer(
            host="127.0.0.1", max_batch=2, window_ms=100.0,
            default_quota=TenantQuota(max_pending=3),
        ) as server:
            async with ServeClient("127.0.0.1", server.port, tenant="stormy") as cli:
                await cli.register("m", ker, [1, 1])
                futs = [await cli.submit("m", img, respond="checksum")
                        for _ in range(16)]
                settled = await asyncio.gather(*futs, return_exceptions=True)
                # After the storm the tenant's slots must all be free
                # and a fresh request must be admitted again.
                rep = await _infer_retry(cli, "m", img)
                stats = await cli.stats()
                return settled, rep, stats

    settled, rep, stats = asyncio.run(main())
    oks = [r for r in settled if isinstance(r, dict)]
    rejects = [r for r in settled if isinstance(r, ProtocolError)]
    unexpected = [r for r in settled
                  if not isinstance(r, (dict, ProtocolError))]
    assert not unexpected, f"non-protocol failures: {unexpected}"
    assert rejects, "storm never tripped the quota"
    assert all(r.code == "quota_exceeded" for r in rejects)
    assert all(r.retry_after_ms is not None for r in rejects)
    assert oks, "quota rejected everything, including admissible work"
    assert all(r["digest"] == expect for r in oks), "accepted work corrupted"
    assert rep["digest"] == expect
    assert stats["tenants"]["stormy"]["pending"] == 0
    reject_total = sum(
        v for k, v in stats["metrics"]["counters"].items()
        if k.startswith("serve.rejects") and "stormy" in k
    )
    assert reject_total == len(rejects)
