"""Unit tests for the serving front-end: protocol, quotas, batching.

The network-facing contract lives here -- wire encoding round-trips,
error codes with retry hints, tenant quota arithmetic, batch bucketing,
coalescing behavior, and full in-process server round-trips (including
across-connection coalescing and multi-tenant isolation).  The heavier
concurrency/soak/fault lanes live in ``tests/test_serve_load.py``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.engine import ConvolutionEngine
from repro.nets.reference import direct_convolution
from repro.obs.metrics import MetricsRegistry, labeled
from repro.serve import (
    ConvServer,
    ModelRegistry,
    ProtocolError,
    QuotaExceeded,
    ServeClient,
    TenantManager,
    TenantQuota,
    batch_bucket,
    decode_message,
    decode_tensor,
    encode_message,
    encode_tensor,
    tensor_digest,
)

RNG = np.random.default_rng(7)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_tensor_roundtrip(self):
        for dtype in ("float32", "float64"):
            arr = RNG.standard_normal((2, 3, 4, 5)).astype(dtype)
            back = decode_tensor(encode_tensor(arr))
            assert back.dtype == arr.dtype
            np.testing.assert_array_equal(back, arr)

    def test_message_roundtrip(self):
        msg = {"op": "infer", "id": 3, "nested": {"a": [1, 2]}}
        assert decode_message(encode_message(msg)) == msg

    def test_bad_payloads_are_bad_request(self):
        with pytest.raises(ProtocolError) as exc:
            decode_message(b"not json\n")
        assert exc.value.code == "bad_request"
        with pytest.raises(ProtocolError):
            decode_message(b"[1,2]\n")  # not an object
        with pytest.raises(ProtocolError):
            decode_tensor("not a dict")
        with pytest.raises(ProtocolError):
            decode_tensor({"shape": [2], "dtype": "int64", "data_b64": ""})
        good = encode_tensor(np.zeros((2, 2), np.float32))
        bad = dict(good, shape=[3, 3])  # length mismatch
        with pytest.raises(ProtocolError, match="bytes"):
            decode_tensor(bad)

    def test_digest_is_bitwise_sensitive(self):
        arr = RNG.standard_normal((3, 4)).astype(np.float32)
        d = tensor_digest(arr)
        assert d == tensor_digest(arr.copy())
        flipped = arr.copy()
        flipped[0, 0] = np.nextafter(flipped[0, 0], np.float32(np.inf))
        assert tensor_digest(flipped) != d
        # Shape and dtype are part of the digest, not just the bytes.
        assert tensor_digest(arr.reshape(4, 3)) != d
        assert tensor_digest(arr.astype(np.float64)) != d

    def test_error_reply_shape(self):
        err = ProtocolError("over_capacity", "busy", retry_after_ms=12.5)
        reply = err.as_reply(7)
        assert reply == {
            "ok": False, "error": "over_capacity", "message": "busy",
            "id": 7, "retry_after_ms": 12.5,
        }
        with pytest.raises(ValueError):
            ProtocolError("no-such-code", "x")


# ----------------------------------------------------------------------
# Tenant quotas
# ----------------------------------------------------------------------
class TestTenants:
    def test_pending_cap(self):
        metrics = MetricsRegistry()
        tm = TenantManager(TenantQuota(max_pending=2), metrics=metrics)
        tm.admit("a")
        tm.admit("a")
        with pytest.raises(QuotaExceeded) as exc:
            tm.admit("a")
        assert exc.value.code == "quota_exceeded"
        assert exc.value.retry_after_ms is not None
        # Other tenants are unaffected (isolation).
        tm.admit("b")
        tm.release("a")
        tm.admit("a")  # slot freed
        assert tm.pending("a") == 2
        assert metrics.counter_value(
            labeled("serve.rejects", reason="quota_pending", tenant="a")
        ) == 1

    def test_arena_lease_cap(self):
        tm = TenantManager(TenantQuota(max_arena_bytes=100))
        tm.lease_arena("a", 60)
        with pytest.raises(QuotaExceeded):
            tm.lease_arena("a", 50)
        tm.release_arena("a", 60)
        tm.lease_arena("a", 50)  # fits after release
        tm.release_arena("a", 50)

    def test_per_tenant_quota_override(self):
        tm = TenantManager(TenantQuota(max_pending=1))
        tm.set_quota("big", TenantQuota(max_pending=8))
        for _ in range(8):
            tm.admit("big")
        tm.admit("small")
        with pytest.raises(QuotaExceeded):
            tm.admit("small")  # default quota is still 1

    def test_plan_quota_fair_share_eviction(self):
        """A tenant blowing its plan quota loses only its own plans."""
        metrics = MetricsRegistry()
        tm = TenantManager(TenantQuota(max_plan_bytes=1), metrics=metrics)
        rng = np.random.default_rng(0)
        ker = (rng.standard_normal((8, 8, 3, 3)) * 0.2).astype(np.float32)
        with ConvolutionEngine() as engine:
            engine.run(
                rng.standard_normal((1, 8, 8, 8)).astype(np.float32),
                ker, padding=(1, 1), tenant="greedy",
            )
            engine.run(
                rng.standard_normal((1, 8, 10, 10)).astype(np.float32),
                ker, padding=(1, 1), tenant="modest",
            )
            assert engine.plans.tenant_bytes("greedy") > 0
            modest_before = engine.plans.tenant_bytes("modest")
            evicted = tm.enforce_plan_quota("greedy", engine.plans)
            assert evicted >= 1
            assert engine.plans.tenant_bytes("greedy") == 0
            # The other tenant's plans survived.
            assert engine.plans.tenant_bytes("modest") == modest_before
        assert metrics.counter_value(
            labeled("serve.plan_evictions", tenant="greedy")
        ) >= 1


# ----------------------------------------------------------------------
# Batching building blocks
# ----------------------------------------------------------------------
def test_batch_bucket():
    assert [batch_bucket(n, 8) for n in (1, 2, 3, 4, 5, 7, 8, 9)] == \
        [1, 2, 4, 4, 8, 8, 8, 8]
    with pytest.raises(ValueError):
        batch_bucket(0, 8)


def test_model_registry_is_tenant_namespaced():
    reg = ModelRegistry()
    k_a = RNG.standard_normal((3, 4, 3, 3)).astype(np.float32)
    k_b = RNG.standard_normal((3, 4, 3, 3)).astype(np.float32)
    reg.register("a", "m", k_a, (1, 1))
    reg.register("b", "m", k_b, (0, 0))
    assert reg.get("a", "m").kernels is k_a
    assert reg.get("b", "m").padding == (0, 0)
    with pytest.raises(ProtocolError) as exc:
        reg.get("c", "m")
    assert exc.value.code == "unknown_model"
    with pytest.raises(ProtocolError):  # rank-2 kernels are not convs
        reg.register("a", "bad", np.zeros((3, 4), np.float32), ())
    with pytest.raises(ProtocolError):  # padding rank mismatch
        reg.register("a", "bad", k_a, (1,))


# ----------------------------------------------------------------------
# Server round-trips (in-process, real sockets)
# ----------------------------------------------------------------------
def _serve(coro_fn, **server_kw):
    """Run ``coro_fn(server)`` against a fresh in-process server."""
    async def main():
        async with ConvServer(host="127.0.0.1", **server_kw) as server:
            return await coro_fn(server)
    return asyncio.run(main())


class TestServer:
    def test_register_infer_roundtrip_and_digest(self):
        ker = RNG.standard_normal((3, 4, 3, 3)).astype(np.float32)
        img = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)

        async def scenario(server):
            async with ServeClient("127.0.0.1", server.port, tenant="t") as cli:
                reg = await cli.register("m", ker, [1, 1])
                assert reg["c_in"] == 3 and reg["c_out"] == 4
                full = await cli.infer("m", img, respond="full")
                ck = await cli.infer("m", img, respond="checksum")
                return full, ck

        full, ck = _serve(scenario)
        with ConvolutionEngine() as eng:
            ref = eng.run(img, ker, padding=(1, 1))
        np.testing.assert_array_equal(full["output"], ref)
        assert full["digest"] == tensor_digest(ref) == ck["digest"]
        assert "output" not in ck

    def test_same_shape_requests_coalesce_across_connections(self):
        """Two *different* clients' same-shape requests share a dispatch."""
        ker = RNG.standard_normal((3, 4, 3, 3)).astype(np.float32)

        async def scenario(server):
            a = ServeClient("127.0.0.1", server.port)
            b = ServeClient("127.0.0.1", server.port)
            async with a, b:
                await a.register("m", ker, [1, 1])
                futs = []
                for cli in (a, b, a, b):
                    img = RNG.standard_normal((1, 3, 8, 8)).astype(np.float32)
                    futs.append(await cli.submit("m", img, respond="checksum"))
                return await asyncio.gather(*futs)

        replies = _serve(scenario, max_batch=4, window_ms=50.0)
        sizes = [r["batched"] for r in replies]
        assert max(sizes) > 1, f"no coalescing happened: {sizes}"
        assert all(r["padded_to"] in (1, 2, 4) for r in replies)

    def test_error_codes_over_the_wire(self):
        ker = RNG.standard_normal((3, 4, 3, 3)).astype(np.float32)

        async def scenario(server):
            codes = {}
            async with ServeClient("127.0.0.1", server.port) as cli:
                await cli.register("m", ker, [1, 1])
                for name, coro in [
                    ("unknown_model",
                     cli.infer("ghost", np.zeros((1, 3, 8, 8), np.float32))),
                    ("bad_request",  # channel mismatch
                     cli.infer("m", np.zeros((1, 5, 8, 8), np.float32))),
                    ("bad_request2",  # rank mismatch
                     cli.infer("m", np.zeros((1, 3, 8), np.float32))),
                ]:
                    try:
                        await coro
                        codes[name] = None
                    except ProtocolError as exc:
                        codes[name] = exc.code
            return codes

        codes = _serve(scenario)
        assert codes == {
            "unknown_model": "unknown_model",
            "bad_request": "bad_request",
            "bad_request2": "bad_request",
        }

    def test_tenant_isolation_of_models(self):
        ker = RNG.standard_normal((3, 4, 3, 3)).astype(np.float32)

        async def scenario(server):
            async with ServeClient("127.0.0.1", server.port, tenant="a") as a, \
                       ServeClient("127.0.0.1", server.port, tenant="b") as b:
                await a.register("m", ker, [1, 1])
                with pytest.raises(ProtocolError) as exc:
                    await b.infer("m", np.zeros((1, 3, 8, 8), np.float32))
                assert exc.value.code == "unknown_model"

        _serve(scenario)

    def test_tenant_pending_quota_rejects_with_retry_hint(self):
        ker = RNG.standard_normal((3, 4, 3, 3)).astype(np.float32)

        async def scenario(server):
            async with ServeClient("127.0.0.1", server.port, tenant="q") as cli:
                await cli.register("m", ker, [1, 1])
                img = RNG.standard_normal((1, 3, 8, 8)).astype(np.float32)
                # A long window keeps the first requests queued while the
                # overflow request arrives.
                futs = [await cli.submit("m", img, respond="checksum")
                        for _ in range(2)]
                with pytest.raises(ProtocolError) as exc:
                    await cli.infer("m", img, respond="checksum")
                assert exc.value.code == "quota_exceeded"
                assert exc.value.retry_after_ms is not None
                # The queued requests still complete correctly.
                replies = await asyncio.gather(*futs)
                assert all(r["ok"] for r in replies)

        _serve(
            scenario,
            max_batch=2, window_ms=500.0,
            default_quota=TenantQuota(max_pending=2),
        )

    def test_global_admission_cap_rejects_over_capacity(self):
        ker = RNG.standard_normal((3, 4, 3, 3)).astype(np.float32)

        async def scenario(server):
            async with ServeClient("127.0.0.1", server.port) as cli:
                await cli.register("m", ker, [1, 1])
                img = RNG.standard_normal((1, 3, 8, 8)).astype(np.float32)
                futs = [await cli.submit("m", img, respond="checksum")
                        for _ in range(2)]
                with pytest.raises(ProtocolError) as exc:
                    await cli.infer("m", img, respond="checksum")
                assert exc.value.code == "over_capacity"
                await asyncio.gather(*futs)
                st = await cli.stats()
                rejects = {
                    k: v for k, v in st["metrics"]["counters"].items()
                    if k.startswith("serve.rejects")
                }
                assert sum(rejects.values()) >= 1
                return st

        st = _serve(scenario, max_batch=2, window_ms=500.0, max_pending=2)
        assert "serve.batch_size" in st["metrics"]["histograms"]

    def test_admission_sizes_the_models_own_kernel(self):
        """Arena admission plans the served model's real kernel size:
        a 1x1 model is served on an image smaller than 3x3, a 5x5 model
        is served too, and no plan for a 3x3 kernel is left cached."""
        k1 = RNG.standard_normal((4, 4, 1, 1)).astype(np.float32)
        k5 = (RNG.standard_normal((4, 4, 5, 5)) * 0.2).astype(np.float32)
        img1 = RNG.standard_normal((1, 4, 2, 2)).astype(np.float32)
        img5 = RNG.standard_normal((1, 4, 16, 16)).astype(np.float32)

        async def scenario(server):
            async with ServeClient("127.0.0.1", server.port) as cli:
                await cli.register("one", k1, [0, 0])
                await cli.register("five", k5, [2, 2])
                r1 = await cli.infer("one", img1)
                r5 = await cli.infer("five", img5)
            return r1, r5, server.engine.plans.keys()

        r1, r5, keys = _serve(scenario)
        for rep, img, ker, pad in ((r1, img1, k1, (0, 0)), (r5, img5, k5, (2, 2))):
            ref = direct_convolution(
                img.astype(np.float64), ker.astype(np.float64), pad
            )
            scale = float(np.abs(ref).max())
            np.testing.assert_allclose(
                rep["output"].astype(np.float64), ref, atol=1e-3 * scale, rtol=0
            )
        assert {k.spec.r for k in keys} == {(1, 1), (5, 5)}

    def test_stats_reports_queue_and_tenants(self):
        async def scenario(server):
            async with ServeClient("127.0.0.1", server.port, tenant="s") as cli:
                st = await cli.stats()
                assert st["metrics"]["gauges"]["serve.queue_depth"] == 0
                assert "plan_cache" in st
                assert st["tenants"] == {}  # nothing admitted yet

        _serve(scenario)

    def test_unknown_op_and_malformed_line(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"op":"launch-missiles"}\n')
            writer.write(b"this is not json\n")
            await writer.drain()
            r1 = decode_message(await reader.readline())
            r2 = decode_message(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return r1, r2

        r1, r2 = _serve(scenario)
        assert r1 == {"ok": False, "error": "bad_request",
                      "message": r1["message"]}
        assert r2["error"] == "bad_request"

    def test_batched_responses_bitwise_equal_per_request_oracle(self):
        """The serving contract end to end: responses from a coalesced
        batch are bitwise identical to lone engine runs."""
        ker = RNG.standard_normal((5, 3, 3, 3)).astype(np.float32)
        imgs = [RNG.standard_normal((b, 5, 9, 9)).astype(np.float32)
                for b in (1, 2, 1, 1, 2)]

        async def scenario(server):
            async with ServeClient("127.0.0.1", server.port) as cli:
                await cli.register("m", ker, [1, 1])
                futs = [await cli.submit("m", im) for im in imgs]
                return await asyncio.gather(*futs)

        replies = _serve(scenario, max_batch=8, window_ms=50.0)
        assert max(r["batched"] for r in replies) > 1
        with ConvolutionEngine() as eng:
            for im, rep in zip(imgs, replies):
                ref = eng.run(im, ker, padding=(1, 1))
                np.testing.assert_array_equal(rep["output"], ref)
                assert rep["digest"] == tensor_digest(ref)
