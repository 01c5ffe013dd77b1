"""Tests for the serving-path execution engine (plan cache, arena, façade).

Covers the cache's hit/miss/eviction semantics (count and byte budgets),
arena reuse and alignment, correctness of the fused fast path against
the reference pipeline and direct convolution (2D/3D, crop and no-crop),
and wisdom persistence.
"""

import hashlib

import numpy as np
import pytest

from repro.core.convolution import winograd_convolution
from repro.core.engine import (
    ConvolutionEngine,
    PlanCache,
    PlanKey,
    WorkspaceArena,
    kernel_fingerprint,
)
from repro.core.fmr import FmrSpec
from repro.nets.reference import direct_convolution

RNG = np.random.default_rng(42)


def _key(size=10, c=16, cp=16, spec=None, dtype="float32", blocking=None):
    return PlanKey(
        spec=spec or FmrSpec(m=(2, 2), r=(3, 3)),
        input_shape=(1, c, size, size),
        c_out=cp,
        padding=(1, 1),
        dtype=dtype,
        blocking=blocking,
    )


class TestPlanCache:
    def test_hit_miss_counting(self):
        cache = PlanCache()
        k = _key()
        e1 = cache.get_or_create(k)
        e2 = cache.get_or_create(k)
        assert e1 is e2
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_distinct_keys_are_distinct_plans(self):
        cache = PlanCache()
        e1 = cache.get_or_create(_key(size=10))
        e2 = cache.get_or_create(_key(size=12))
        assert e1 is not e2
        assert cache.stats.misses == 2

    def test_lru_eviction_by_count(self):
        cache = PlanCache(max_plans=2)
        k1, k2, k3 = _key(size=8), _key(size=10), _key(size=12)
        cache.get_or_create(k1)
        cache.get_or_create(k2)
        cache.get_or_create(k1)  # touch k1: k2 becomes LRU
        cache.get_or_create(k3)
        assert cache.stats.evictions == 1
        assert k1 in cache and k3 in cache
        assert k2 not in cache

    def test_eviction_under_byte_budget(self):
        cache = PlanCache(max_plans=100, max_bytes=1)
        cache.get_or_create(_key(size=8))
        cache.get_or_create(_key(size=10))
        # The sole most-recent resident is never evicted, so exactly one
        # plan survives a 1-byte budget.
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        assert cache.stats.bytes_cached > 0

    def test_kernel_transform_memoized_by_fingerprint(self):
        cache = PlanCache()
        entry = cache.get_or_create(_key())
        ker = RNG.standard_normal((16, 16, 3, 3)).astype(np.float32)
        w1 = cache.prepare(entry, ker)
        w2 = cache.prepare(entry, ker.copy())  # equal content
        assert w1 is w2
        assert cache.stats.kernel_hits == 1
        w3 = cache.prepare(entry, ker * 2.0)
        assert w3 is not w1
        assert cache.stats.kernel_misses == 2

    def test_fingerprint_sensitivity(self):
        a = RNG.standard_normal((4, 4, 3, 3)).astype(np.float32)
        assert kernel_fingerprint(a) == kernel_fingerprint(a.copy())
        assert kernel_fingerprint(a) != kernel_fingerprint(a.astype(np.float64))
        b = a.copy()
        b[0, 0, 0, 0] += 1
        assert kernel_fingerprint(a) != kernel_fingerprint(b)

    def test_kernel_mutated_in_place_is_prepared_again(self):
        cache = PlanCache()
        entry = cache.get_or_create(_key())
        ker = RNG.standard_normal((16, 16, 3, 3)).astype(np.float32)
        w1 = cache.prepare(entry, ker)
        assert cache.prepare(entry, ker) is w1  # same array, unchanged
        ker[3, 5, 1, 2] += 1.0
        w2 = cache.prepare(entry, ker)
        assert w2 is not w1
        assert cache.stats.kernel_hits == 1 and cache.stats.kernel_misses == 2
        np.testing.assert_array_equal(
            w2.data, cache.get_or_create(_key()).prepare_kernels(ker).data
        )

    def test_preparation_does_not_alias_caller_kernels(self):
        """A memoized preparation is computed from the cache's own copy:
        mutating the caller's array afterwards cannot change what a later
        request with the original content gets (direct convolution's
        preparation is the kernel tensor itself)."""
        engine = ConvolutionEngine(algorithm="direct")
        img = RNG.standard_normal((1, 4, 6, 6)).astype(np.float32)
        ker = RNG.standard_normal((4, 4, 3, 3)).astype(np.float32)
        original = ker.copy()
        y1 = engine.run(img, ker, padding=(1, 1))
        ker[...] = 0.0
        engine.run(img, ker, padding=(1, 1))
        np.testing.assert_array_equal(engine.run(img, original, padding=(1, 1)), y1)

    def test_forged_checksum_collision_gets_its_own_preparation(self):
        """Kernels above 256 KB were once fingerprinted by their head,
        tail and a position-weighted 64-bit checksum.  Moving two adjacent
        mid-array words by plus and minus each other's weight leaves that
        checksum unchanged, so the forged kernel below used to be served
        the first kernel's transform.  Every byte now decides identity."""
        weights = np.frombuffer(
            b"".join(
                hashlib.blake2b(
                    b"repro-kernel-fp" + i.to_bytes(4, "little"), digest_size=64
                ).digest()
                for i in range(1024)
            ),
            dtype="<u8",
        ) | np.uint64(1)
        rng = np.random.default_rng(7)
        k1 = (rng.standard_normal((128, 128, 3, 3)) * 0.05).astype(np.float32)
        words = k1.reshape(-1).view("<u8")
        # Mid-array (the first and last 64 KB were hashed exactly), and
        # both words in one 8192-word checksum block.
        for j in range(words.size // 2, words.size - 8192 - 2):
            if j % 8192 == 8191:
                continue
            pair = words[j:j + 2].copy()
            with np.errstate(over="ignore"):
                pair[0] += weights[(j + 1) % 8192]
                pair[1] -= weights[j % 8192]
            vals = pair.view(np.float32)
            if np.all(np.isfinite(vals)) and np.all(np.abs(vals) < 4.0):
                break
        else:
            pytest.fail("no finite forgery found")
        k2 = k1.copy()
        k2.reshape(-1).view("<u8")[j:j + 2] = pair
        assert not np.array_equal(k1, k2)
        with np.errstate(over="ignore"):
            checksum = [
                int((w[j - j % 8192:][:8192] * weights).sum(dtype=np.uint64))
                for w in (k1.reshape(-1).view("<u8"), k2.reshape(-1).view("<u8"))
            ]
        assert checksum[0] == checksum[1]  # the old scheme's collision

        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 128, 6, 6)).astype(np.float32)
        y1 = engine.run(img, k1, padding=(1, 1))
        y2 = engine.run(img, k2, padding=(1, 1))
        assert engine.plans.stats.kernel_misses == 2
        ref = direct_convolution(
            img.astype(np.float64), k2.astype(np.float64), (1, 1)
        )
        assert np.abs(y2 - ref).max() / np.abs(ref).max() < 1e-3
        assert not np.array_equal(y1, y2)
        assert kernel_fingerprint(k1) != kernel_fingerprint(k2)

    def test_clear(self):
        cache = PlanCache()
        cache.get_or_create(_key())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.bytes_cached == 0

    def test_discard_is_not_an_eviction(self):
        """``discard`` drops the entry and its tenant attribution; the
        LRU counters stay as they are, and a second discard is a no-op."""
        cache = PlanCache()
        kept, dropped = _key(size=8), _key(size=10)
        cache.get_or_create(kept, tenant="a")
        cache.get_or_create(dropped, tenant="a")
        before = cache.tenant_bytes("a")
        assert cache.discard(dropped)
        assert dropped not in cache and kept in cache
        assert cache.tenant_of(dropped) is None
        assert 0 < cache.tenant_bytes("a") < before
        assert cache.stats.bytes_cached == cache.tenant_bytes("a")
        assert cache.stats.evictions == 0
        assert not cache.discard(dropped)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanCache(max_plans=0)
        with pytest.raises(ValueError):
            PlanCache(max_bytes=0)


class TestWorkspaceArena:
    def test_lease_views_are_aligned_and_disjoint(self):
        arena = WorkspaceArena(alignment=64)
        with arena.lease(1 << 16) as lease:
            a = lease.take((100,), np.float32)
            b = lease.take((7, 11), np.float64)
            assert a.ctypes.data % 64 == 0
            assert b.ctypes.data % 64 == 0
            a[:] = 1.0
            b[:] = 2.0
            assert np.all(a == 1.0) and np.all(b == 2.0)  # no overlap

    def test_buffer_reused_across_leases(self):
        arena = WorkspaceArena()
        with arena.lease(4096) as lease:
            addr1 = lease.take((16,), np.float32).ctypes.data
        with arena.lease(4096) as lease:
            addr2 = lease.take((16,), np.float32).ctypes.data
        assert addr1 == addr2
        assert arena.grows == 1
        assert arena.leases == 2

    def test_arena_grows_monotonically(self):
        arena = WorkspaceArena()
        with arena.lease(1024):
            pass
        small = arena.capacity_bytes
        with arena.lease(1 << 20):
            pass
        assert arena.capacity_bytes >= 1 << 20 > small
        # A later small lease does not shrink capacity.
        with arena.lease(256):
            pass
        assert arena.capacity_bytes >= 1 << 20

    def test_overcommit_raises(self):
        arena = WorkspaceArena()
        with arena.lease(1024) as lease:
            with pytest.raises(MemoryError):
                lease.take((1 << 22,), np.float64)

    def test_concurrent_leases_are_isolated(self):
        arena = WorkspaceArena()
        with arena.lease(4096) as l1, arena.lease(4096) as l2:
            a = l1.take((64,), np.float32)
            b = l2.take((64,), np.float32)
            a[:] = 1.0
            b[:] = 2.0
            assert np.all(a == 1.0)

    def test_mixed_size_pool_reacquire(self):
        """Regression: acquiring from a pool holding buffers of
        *different* sizes must not compare ndarrays by value (the old
        ``list.remove`` path broadcast-compared a stale pre-growth
        buffer against the grown one and raised ValueError)."""
        arena = WorkspaceArena()
        with arena.lease(1000):          # allocates the small buffer
            with arena.lease(50000):     # concurrent -> second, larger buffer
                pass
        # Pool now holds [small, large]; the next acquire must pick and
        # pop the large one without touching the small one.
        with arena.lease(50000) as lease:
            lease.take((50000,), np.uint8)
        assert arena.grows == 2  # no fresh allocation on the reacquire

    def test_small_lease_around_large_one_keeps_both_buffers(self):
        """A lease takes the smallest pooled buffer that fits: a small
        lease nested around a large one -- the graph's activation lease
        around each conv's workspace -- leaves the large buffer to the
        inner lease, so repeated rounds allocate nothing new."""
        arena = WorkspaceArena()
        for _ in range(4):
            with arena.lease(1000):
                with arena.lease(50000):
                    pass
        assert arena.grows == 2
        sizes = sorted(buf.nbytes for buf in arena._free)
        assert len(sizes) == 2 and sizes[0] < 50000 <= sizes[1]


class TestEngineCorrectness:
    def _compare(self, engine, img, ker, padding, **kwargs):
        y = engine.run(img, ker, padding=padding, **kwargs)
        ref = direct_convolution(
            img.astype(np.float64), ker.astype(np.float64), padding
        )
        assert y.shape == ref.shape
        relerr = np.abs(y - ref).max() / np.abs(ref).max()
        assert relerr < 1e-3, relerr
        return y

    def test_2d_with_padding_and_crop(self):
        # 30x30 output with m=4 -> grid padding + crop path.
        engine = ConvolutionEngine()
        img = RNG.standard_normal((2, 16, 30, 30)).astype(np.float32)
        ker = RNG.standard_normal((16, 16, 3, 3)).astype(np.float32)
        self._compare(engine, img, ker, (1, 1))

    def test_2d_no_crop(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 8, 10, 10)).astype(np.float32)
        ker = RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)
        self._compare(engine, img, ker, (1, 1), fmr="F(2x2,3x3)")

    def test_3d(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 4, 8, 8, 8)).astype(np.float32)
        ker = RNG.standard_normal((4, 8, 3, 3, 3)).astype(np.float32)
        self._compare(engine, img, ker, (0, 0, 0))

    def test_matches_one_shot_winograd_for_pinned_spec(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 8, 12, 12)).astype(np.float32)
        ker = RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)
        y_engine = engine.run(img, ker, fmr="F(2x2,3x3)", padding=(1, 1))
        y_ref = winograd_convolution(img, ker, fmr="F(2x2,3x3)", padding=(1, 1))
        # Same linear map, different association order (Kronecker-fused
        # transforms) -- equal to float tolerance, not bitwise.
        np.testing.assert_allclose(y_engine, y_ref, rtol=1e-4, atol=1e-5)

    def test_out_parameter(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 8, 10, 10)).astype(np.float32)
        ker = RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)
        y = engine.run(img, ker, padding=(1, 1))
        out = np.empty_like(y)
        y2 = engine.run(img, ker, padding=(1, 1), out=out)
        assert y2 is out
        np.testing.assert_array_equal(out, y)
        with pytest.raises(ValueError):
            engine.run(img, ker, padding=(1, 1), out=np.empty((1, 8, 3, 3), np.float32))

    def test_float64(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 8, 10, 10))
        ker = RNG.standard_normal((8, 8, 3, 3))
        y = engine.run(img, ker, padding=(1, 1), dtype=np.float64)
        ref = direct_convolution(img, ker, (1, 1))
        np.testing.assert_allclose(y, ref, rtol=1e-10)

    def test_repeated_runs_are_deterministic(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 8, 12, 12)).astype(np.float32)
        ker = RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)
        y1 = engine.run(img, ker, padding=(1, 1))
        y2 = engine.run(img, ker, padding=(1, 1))
        np.testing.assert_array_equal(y1, y2)  # arena recycling is clean


def _channels_last(x: np.ndarray) -> np.ndarray:
    """``x``'s values stored ``(B, *spatial, C)``, viewed as ``(B, C, *spatial)``."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)


#: (input shape, C', padding, F(m, r), whether the tile grid overhangs
#: the output and the fused path crops).  Odd channel counts throughout.
MEMORY_ORDER_CASES = [
    ((2, 3, 11), 5, (1,), "F(4,3)", True),
    ((2, 5, 10), 3, (1,), "F(2,3)", False),
    ((2, 5, 10, 9), 7, (1, 1), "F(4x4,3x3)", True),
    ((2, 3, 8, 8), 5, (1, 1), "F(4x4,3x3)", False),
    ((1, 3, 5, 6, 7), 5, (1, 1, 1), "F(2x2x2,3x3x3)", True),
    ((2, 3, 6, 6, 6), 3, (1, 1, 1), "F(2x2x2,3x3x3)", False),
]


class TestChannelsLastMemoryOrder:
    """The fused entry copies its input into channels-last buffers and
    assembles into ``out`` in ``out``'s own memory order: neither order
    changes a value."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,cp,padding,fmr,crop", MEMORY_ORDER_CASES)
    def test_fused_bitwise_across_memory_orders(self, shape, cp, padding, fmr,
                                                crop, dtype):
        engine = ConvolutionEngine()
        img = RNG.standard_normal(shape).astype(dtype)
        ker = RNG.standard_normal((shape[1], cp) + (3,) * len(padding)).astype(dtype)
        run = dict(fmr=fmr, padding=padding, dtype=dtype)
        want = engine.run(img, ker, **run)
        assert want.flags.c_contiguous
        key = engine.resolve(img.shape, ker.shape, **run)
        assert engine.plans.get_or_create(key).crop is crop  # the cached entry
        ref = direct_convolution(img.astype(np.float64), ker.astype(np.float64), padding)
        tol = 1e-4 if dtype == np.float32 else 1e-10
        assert np.abs(want - ref).max() / np.abs(ref).max() < tol
        out_shape = want.shape
        for src in (img, _channels_last(img)):
            for dest in (np.empty(out_shape, dtype),
                         _channels_last(np.empty(out_shape, dtype))):
                got = engine.run(src, ker, out=dest, **run)
                assert got is dest
                np.testing.assert_array_equal(got, want)
        assert engine.run(_channels_last(img), ker, **run).flags.c_contiguous

    def test_compiled_reads_channels_last_input(self, monkeypatch, tmp_path):
        """The compiled entry packs either memory order into its blocked
        input, and writes into ``out`` in either: a C-contiguous one
        directly, a channels-last one through one copy."""
        from repro.core.compiled_backend import compiled_available

        if not compiled_available():
            pytest.skip("no C toolchain/cffi on this host")
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        engine = ConvolutionEngine(backend="compiled")
        img = RNG.standard_normal((2, 8, 9, 9)).astype(np.float32)
        ker = RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)
        want = engine.run(img, ker, padding=(1, 1))
        assert want.flags.c_contiguous
        for src in (img, _channels_last(img)):
            np.testing.assert_array_equal(engine.run(src, ker, padding=(1, 1)), want)
            for dest in (np.empty_like(want), _channels_last(np.empty_like(want))):
                got = engine.run(src, ker, padding=(1, 1), out=dest)
                assert got is dest
                np.testing.assert_array_equal(got, want)
        assert engine.metrics.counter_value("engine.fallbacks") == 0


class TestEngineCaching:
    def test_plan_cache_hit_on_repeat(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 8, 10, 10)).astype(np.float32)
        ker = RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)
        engine.run(img, ker, padding=(1, 1))
        engine.run(img, ker, padding=(1, 1))
        engine.run(img, ker, padding=(1, 1))
        s = engine.plans.stats
        assert s.misses == 1 and s.hits == 2
        assert s.kernel_misses == 1 and s.kernel_hits == 2
        assert engine.stats()["arena"]["grows"] == 1

    def test_tile_policy_fixed_picks_m4_for_vgg_shapes(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 8, 28, 28)).astype(np.float32)
        ker = RNG.standard_normal((8, 8, 3, 3)).astype(np.float32)
        engine.run(img, ker, padding=(1, 1))
        assert engine.plans.keys()[0].spec == FmrSpec(m=(4, 4), r=(3, 3))

    def test_tile_policy_fixed_conservative_for_tiny_outputs(self):
        engine = ConvolutionEngine()
        img = RNG.standard_normal((1, 4, 5, 5)).astype(np.float32)
        ker = RNG.standard_normal((4, 4, 3, 3)).astype(np.float32)
        engine.run(img, ker)  # 3x3 output: m=4 would be >50% padding waste
        assert engine.plans.keys()[0].spec == FmrSpec(m=(2, 2), r=(3, 3))

    def test_wisdom_round_trip(self, tmp_path):
        path = tmp_path / "wisdom.json"
        engine = ConvolutionEngine(wisdom_path=path, algorithm="auto")
        img = RNG.standard_normal((1, 32, 12, 12)).astype(np.float32)
        ker = RNG.standard_normal((32, 32, 3, 3)).astype(np.float32)
        engine.run(img, ker, padding=(1, 1))
        assert engine.wisdom.algo_count == 1
        engine.save_wisdom()
        engine2 = ConvolutionEngine(wisdom_path=path)
        assert engine2.wisdom.algo_count == 1
        fp = engine.machine.fingerprint()
        (key,) = engine.wisdom.algo_keys(fp)
        assert engine2.wisdom.algo_keys(fp) == [key]
        assert (
            engine2.wisdom.algo_get(fp, key).algorithm
            == engine.wisdom.algo_get(fp, key).algorithm
        )

    def test_save_wisdom_without_path_raises(self):
        with pytest.raises(ValueError):
            ConvolutionEngine().save_wisdom()

    def test_invalid_modes_rejected(self):
        # The Table-1 executor is library-only, not an engine backend.
        both = r"\('fused', 'compiled'\), got 'blocked'"
        with pytest.raises(ValueError, match=both):
            ConvolutionEngine(backend="blocked")
        img = np.zeros((1, 4, 6, 6), np.float32)
        ker = np.zeros((4, 4, 3, 3), np.float32)
        with pytest.raises(ValueError, match=both):
            ConvolutionEngine().run(img, ker, backend="blocked")


class TestTransformMemoization:
    def test_winograd_nd_is_memoized(self):
        from repro.core.transforms import winograd_nd

        spec = FmrSpec(m=(4, 4), r=(3, 3))
        assert winograd_nd(spec) is winograd_nd(spec)

    def test_as_arrays_memoized_and_readonly(self):
        from repro.core.transforms import winograd_1d

        t = winograd_1d(4, 3)
        a1, b1, g1 = t.as_arrays(np.float32)
        a2, _, _ = t.as_arrays(np.float32)
        assert a1 is a2
        assert not a1.flags.writeable
        a64, _, _ = t.as_arrays(np.float64)
        assert a64.dtype == np.float64

    def test_clear_compile_caches(self):
        from repro.core.engine import clear_compile_caches
        from repro.core.transforms import winograd_nd

        spec = FmrSpec(m=(2, 2), r=(3, 3))
        before = winograd_nd(spec)
        clear_compile_caches()
        after = winograd_nd(spec)
        assert before is not after
