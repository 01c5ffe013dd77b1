"""Concurrency stress tests for the barrier and the fork-join pool."""

import threading
import time

import numpy as np
import pytest

from repro.core.barrier import SpinBarrier
from repro.core.parallel import ForkJoinPool
from repro.core.scheduling import static_schedule


class TestBarrierStress:
    @pytest.mark.parametrize("parties", [2, 4, 8])
    def test_many_episodes(self, parties):
        """Hundreds of generations with random jitter: no lost wakeups,
        no double passes."""
        episodes = 300
        b = SpinBarrier(parties, timeout=30.0)
        counters = [0] * parties
        rng = np.random.default_rng(0)
        jitters = rng.uniform(0, 2e-4, size=(parties, episodes))

        def worker(i):
            for e in range(episodes):
                time.sleep(jitters[i][e])
                b.wait()
                counters[i] += 1

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(parties)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert counters == [episodes] * parties
        assert b.passes == episodes

    def test_generation_isolation(self):
        """A fast thread re-arriving must not release the previous
        generation's waiters early (sense reversal)."""
        b = SpinBarrier(2)
        order = []
        lock = threading.Lock()

        def fast():
            for e in range(100):
                b.wait()
                with lock:
                    order.append(("f", e))

        def slow():
            for e in range(100):
                time.sleep(1e-5)
                b.wait()
                with lock:
                    order.append(("s", e))

        t1, t2 = threading.Thread(target=fast), threading.Thread(target=slow)
        t1.start(); t2.start()
        t1.join(timeout=30); t2.join(timeout=30)
        # Every episode index appears exactly twice.
        from collections import Counter

        counts = Counter(e for _, e in order)
        assert all(v == 2 for v in counts.values())
        assert len(counts) == 100


class TestPoolStress:
    def test_many_forks_with_work(self):
        """200 fork-joins with real shared-array writes: every element
        written exactly once per episode."""
        grid = (6, 7)
        n_threads = 4
        slices = static_schedule(grid, n_threads)
        data = np.zeros(grid, dtype=np.int64)

        def stage(tid, sl):
            for task in sl.tasks():
                data[task] += 1  # disjoint slices: no lock needed

        with ForkJoinPool(n_threads) as pool:
            for episode in range(200):
                pool.run(stage, slices)
        assert (data == 200).all()

    def test_alternating_schedules(self):
        """The pool accepts different schedules per fork (the per-stage
        reality of the pipeline)."""
        with ForkJoinPool(3) as pool:
            results = []
            lock = threading.Lock()
            for grid in [(9,), (4, 5), (2, 3, 4)]:
                seen = set()

                def stage(tid, sl, seen=seen):
                    for task in sl.tasks():
                        with lock:
                            seen.add(task)

                pool.run(stage, static_schedule(grid, 3))
                results.append(len(seen))
            assert results == [9, 20, 24]

    def test_exception_storm(self):
        """Repeated failing stages never wedge the pool."""
        with ForkJoinPool(2) as pool:
            slices = static_schedule((2,), 2)
            for _ in range(20):
                with pytest.raises(RuntimeError):
                    pool.run(
                        lambda tid, sl: (_ for _ in ()).throw(RuntimeError("x")),
                        slices,
                    )
            pool.run(lambda tid, sl: None, slices)  # still alive


class TestEngineConcurrency:
    """Thread-safety of concurrent :class:`ConvolutionEngine` serving."""

    def _workload(self):
        from repro.nets.reference import direct_convolution

        rng = np.random.default_rng(7)
        shapes = [
            ((1, 8, 10, 10), (8, 8, 3, 3)),
            ((1, 8, 12, 12), (8, 16, 3, 3)),
            ((2, 4, 9, 9), (4, 4, 3, 3)),
        ]
        work = []
        for ishape, kshape in shapes:
            img = rng.standard_normal(ishape).astype(np.float32)
            ker = rng.standard_normal(kshape).astype(np.float32)
            ref = direct_convolution(
                img.astype(np.float64), ker.astype(np.float64), (1, 1)
            )
            work.append((img, ker, ref))
        return work

    def test_concurrent_runs_same_plan(self):
        """Many threads hammering ONE layer signature: the plan builds
        once, every result is correct (no arena cross-talk)."""
        from repro.core.engine import ConvolutionEngine

        engine = ConvolutionEngine()
        img, ker, ref = self._workload()[0]
        errors = []

        def worker():
            try:
                for _ in range(20):
                    y = engine.run(img, ker, padding=(1, 1))
                    relerr = np.abs(y - ref).max() / np.abs(ref).max()
                    if relerr > 1e-3:
                        errors.append(relerr)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        s = engine.plans.stats
        assert s.misses == 1  # build race resolved to a single plan
        assert s.hits == 6 * 20 - 1

    def test_concurrent_runs_mixed_plans(self):
        """Threads serving different layer shapes share one cache+arena."""
        from repro.core.engine import ConvolutionEngine

        engine = ConvolutionEngine()
        work = self._workload()
        errors = []

        def worker(i):
            try:
                for n in range(12):
                    img, ker, ref = work[(i + n) % len(work)]
                    y = engine.run(img, ker, padding=(1, 1))
                    relerr = np.abs(y - ref).max() / np.abs(ref).max()
                    if relerr > 1e-3:
                        errors.append((i, n, relerr))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(engine.plans) == len(work)
        # The arena pool bounds buffer count even under full contention.
        assert engine.arena.as_dict()["pooled_buffers"] <= engine.arena.max_pooled

    def test_concurrent_eviction_churn(self):
        """A 2-plan cache under 3-shape traffic: constant eviction must
        stay consistent (no leaks, no double frees, correct results)."""
        from repro.core.engine import ConvolutionEngine

        engine = ConvolutionEngine(max_plans=2)
        work = self._workload()
        errors = []

        def worker(i):
            try:
                for n in range(10):
                    img, ker, ref = work[(i * 5 + n) % len(work)]
                    y = engine.run(img, ker, padding=(1, 1))
                    if np.abs(y - ref).max() / np.abs(ref).max() > 1e-3:
                        errors.append((i, n))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(engine.plans) <= 2
        assert engine.plans.stats.evictions > 0


class TestCompiledBackendStress:
    """Concurrency on the compiled backend's one persistent workspace."""

    def test_concurrent_engine_calls_on_compiled_backend(self):
        """Multiple threads driving one engine on backend='compiled':
        the executor serializes its workspace internally, every result
        is correct."""
        from repro.core.compiled_backend import compiled_available
        from repro.core.engine import ConvolutionEngine
        from repro.nets.reference import direct_convolution

        if not compiled_available():
            pytest.skip("no C toolchain")
        rng = np.random.default_rng(13)
        img = rng.standard_normal((1, 8, 10, 10)).astype(np.float32)
        ker = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        ref = direct_convolution(
            img.astype(np.float64), ker.astype(np.float64), (1, 1)
        )
        errors = []
        with ConvolutionEngine(backend="compiled") as engine:

            def worker():
                try:
                    for _ in range(5):
                        y = engine.run(img, ker, padding=(1, 1))
                        relerr = np.abs(y - ref).max() / np.abs(ref).max()
                        if relerr > 1e-3:
                            errors.append(relerr)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not errors
        assert engine.plans.stats.misses == 1  # one plan, one workspace
        assert engine.metrics.counter_value("engine.fallbacks") == 0
