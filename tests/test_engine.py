"""Tests for the serving-path execution engine (plan cache, arena, façade).

Covers the cache's hit/miss/eviction semantics (count and byte budgets),
arena reuse and alignment, correctness of the fused fast path against
the reference pipeline and direct convolution (2D/3D, crop and no-crop),
and wisdom persistence.
"""

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
from repro.util.wisdom import Wisdom

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
        w1 = cache.kernel_transform(entry, ker)
        w2 = cache.kernel_transform(entry, ker.copy())  # equal content
        assert w1 is w2
        assert cache.stats.kernel_hits == 1
        w3 = cache.kernel_transform(entry, ker * 2.0)
        assert w3 is not w1
        assert cache.stats.kernel_misses == 2

    def test_fingerprint_sensitivity(self):
        a = RNG.standard_normal((4, 4, 3, 3)).astype(np.float32)
        assert kernel_fingerprint(a) == kernel_fingerprint(a.copy())
        assert kernel_fingerprint(a) != kernel_fingerprint(a.astype(np.float64))
        b = a.copy()
        b[0, 0, 0, 0] += 1
        assert kernel_fingerprint(a) != kernel_fingerprint(b)

    def test_clear(self):
        cache = PlanCache()
        cache.get_or_create(_key())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.bytes_cached == 0

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
        with pytest.raises(ValueError):
            ConvolutionEngine(tile_policy="vibes")
        # The Table-1 executor is library-only, not an engine backend.
        both = r"\('fused', 'compiled'\), got 'blocked'"
        with pytest.raises(ValueError, match=both):
            ConvolutionEngine(backend="blocked")
        img = np.zeros((1, 4, 6, 6), np.float32)
        ker = np.zeros((4, 4, 3, 3), np.float32)
        with pytest.raises(ValueError, match=both):
            ConvolutionEngine().run(img, ker, backend="blocked")


class TestWisdomMerge:
    def _entry(self, t):
        from repro.util.wisdom import WisdomEntry

        return WisdomEntry(
            n_blk=6, c_blk=32, cprime_blk=32, threads_per_core=1, predicted_time=t
        )

    def test_merge_prefers_faster(self):
        a, b = Wisdom(), Wisdom()
        a.put("k", self._entry(2.0))
        b.put("k", self._entry(1.0))
        b.put("only-b", self._entry(3.0))
        taken = a.merge(b)
        assert taken == 2
        assert a.get("k").predicted_time == 1.0
        assert "only-b" in a

    def test_merge_ours_keeps_existing(self):
        a, b = Wisdom(), Wisdom()
        a.put("k", self._entry(2.0))
        b.put("k", self._entry(1.0))
        assert a.merge(b, prefer="ours") == 0
        assert a.get("k").predicted_time == 2.0


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
