"""Tests for the observability layer: tracer, metrics, engine wiring.

Covers the tentpole guarantees of the obs subsystem:

* span nesting and timing monotonicity (children fit inside parents,
  ``end >= start`` under the monotonic clock);
* counter/histogram correctness under thread concurrency;
* plan-cache metric counters agreeing exactly with the cache's own
  :class:`~repro.core.engine.CacheStats` introspection.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.compiled_backend import compiled_available
from repro.core.engine import ConvolutionEngine
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_interval_and_attrs(self):
        tr = Tracer()
        with tr.span("outer", layer="3.2") as sp:
            pass
        (rec,) = tr.spans()
        assert rec is sp
        assert rec.name == "outer"
        assert rec.attrs["layer"] == "3.2"
        assert rec.end is not None and rec.end >= rec.start
        assert rec.duration >= 0.0

    def test_nesting_assigns_parent_ids(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
            with tr.span("d"):
                pass
        by_name = {s.name: s for s in tr.spans()}
        assert by_name["a"].parent_id is None
        assert by_name["b"].parent_id == by_name["a"].span_id
        assert by_name["c"].parent_id == by_name["b"].span_id
        assert by_name["d"].parent_id == by_name["a"].span_id

    def test_child_interval_nested_within_parent(self):
        tr = Tracer()
        with tr.span("parent"):
            with tr.span("child"):
                pass
        by_name = {s.name: s for s in tr.spans()}
        parent, child = by_name["parent"], by_name["child"]
        assert parent.start <= child.start <= child.end <= parent.end

    def test_nesting_is_per_thread(self):
        tr = Tracer()
        done = threading.Event()

        def other():
            with tr.span("other-root"):
                done.wait(5.0)

        th = threading.Thread(target=other)
        with tr.span("main-root"):
            th.start()
            done.set()
            th.join()
        by_name = {s.name: s for s in tr.spans()}
        # The other thread's root must NOT be parented under main's span.
        assert by_name["other-root"].parent_id is None
        assert by_name["main-root"].parent_id is None

    def test_exception_marks_span_and_propagates(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("nope")
        (rec,) = tr.spans()
        assert rec.attrs["error"] == "ValueError"
        assert rec.end is not None

    def test_event_is_zero_duration(self):
        tr = Tracer()
        tr.event("fallback", source="compiled", target="fused")
        (rec,) = tr.spans()
        assert rec.duration == 0.0
        assert rec.attrs["kind"] == "event"
        assert rec.attrs["source"] == "compiled"

    def test_retention_bound_drops_oldest(self):
        tr = Tracer(max_spans=4)
        for i in range(10):
            with tr.span(f"s{i}"):
                pass
        names = [s.name for s in tr.spans()]
        assert names == ["s6", "s7", "s8", "s9"]
        assert tr.dropped == 6

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("x") as sp:
            sp.attrs["k"] = 1  # dummy span absorbs writes
        tr.event("y")
        assert tr.spans() == []
        assert NULL_TRACER.spans() == []

    def test_to_json_schema(self):
        tr = Tracer()
        with tr.span("a", layer="vgg"):
            pass
        doc = json.loads(tr.to_json())
        assert doc["version"] == 1
        assert doc["dropped"] == 0
        (span,) = doc["spans"]
        assert set(span) == {
            "name", "id", "parent", "start", "end", "duration", "attrs"
        }
        assert span["name"] == "a"
        assert span["attrs"] == {"layer": "vgg"}

    def test_clear_resets_records_and_drop_count(self):
        tr = Tracer(max_spans=1)
        for _ in range(3):
            with tr.span("s"):
                pass
        assert tr.dropped == 2
        tr.clear()
        assert tr.spans() == [] and tr.dropped == 0


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_exact_under_thread_concurrency(self):
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def worker():
            c = reg.counter("hits")  # get-or-create race is part of the test
            for _ in range(per_thread):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits") == n_threads * per_thread

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_histogram_aggregates_and_percentiles(self):
        h = Histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.count == 100
        assert h.total == pytest.approx(5050.0)
        assert h.min == 1.0 and h.max == 100.0
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0

    def test_histogram_window_bounds_memory_but_not_aggregates(self):
        h = Histogram("lat", max_samples=10)
        for v in range(1, 1001):
            h.observe(float(v))
        assert h.count == 1000 and h.max == 1000.0 and h.min == 1.0
        # Percentiles are over the retained window (the last 10 samples).
        assert h.percentile(50) >= 991.0

    def test_histogram_concurrent_observations_exact_count(self):
        h = Histogram("lat")
        n_threads, per_thread = 8, 300

        def worker():
            for _ in range(per_thread):
                h.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == n_threads * per_thread
        assert h.total == pytest.approx(n_threads * per_thread)

    def test_gauge_set_and_callable(self):
        g = Gauge("g")
        assert g.value == 0.0
        g.set(3.5)
        assert g.value == 3.5
        backing = {"v": 7}
        g2 = Gauge("g2", fn=lambda: backing["v"])
        assert g2.value == 7.0
        backing["v"] = 9
        assert g2.value == 9.0

    def test_registry_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.counter_value("missing") == 0

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(1.0)
        reg.gauge("g").set(4.0)
        snap = reg.snapshot()
        doc = json.loads(json.dumps(snap))
        assert doc["counters"]["c"] == 2
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["gauges"]["g"] == 4.0


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
def _layer(seed=0, c=16, hw=12):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((1, c, hw, hw)).astype(np.float32)
    kernels = (rng.standard_normal((c, c, 3, 3)) * 0.1).astype(np.float32)
    return images, kernels


def _run_thread_executor(images, kernels):
    """One run of the §4.5 thread executor with its own tracer and registry."""
    from repro.core.blocking import BlockingConfig
    from repro.core.convolution import WinogradPlan
    from repro.core.fmr import FmrSpec
    from repro.core.parallel_convolution import ParallelWinogradExecutor

    plan = WinogradPlan(
        spec=FmrSpec(m=(2, 2), r=(3, 3)), input_shape=images.shape,
        c_out=kernels.shape[1], padding=(0, 0), dtype=np.float32,
    )
    tracer, metrics = Tracer(), MetricsRegistry()
    with ParallelWinogradExecutor(
        plan=plan,
        blocking=BlockingConfig(n_blk=6, c_blk=16, cprime_blk=16, simd_width=8),
        n_threads=2, simd_width=8, tracer=tracer, metrics=metrics,
    ) as ex:
        out = ex.execute(images, kernels)
    return out, tracer, metrics


class TestEngineObservability:
    def test_plan_cache_counters_agree_with_introspection(self):
        images, kernels = _layer()
        with ConvolutionEngine() as eng:
            for _ in range(4):
                eng.run(images, kernels)
            cache = eng.plans.stats
            m = eng.metrics
            assert m.counter_value("plan_cache.hits") == cache.hits
            assert m.counter_value("plan_cache.misses") == cache.misses
            assert m.counter_value("plan_cache.kernel_hits") == cache.kernel_hits
            assert (
                m.counter_value("plan_cache.kernel_misses") == cache.kernel_misses
            )
            assert m.counter_value("plan_cache.evictions") == cache.evictions
            assert cache.hits == 3 and cache.misses == 1

    def test_eviction_counter_agrees_under_pressure(self):
        with ConvolutionEngine(max_plans=1) as eng:
            for hw in (8, 10, 12, 10):
                images, kernels = _layer(hw=hw)
                eng.run(images, kernels)
            assert eng.plans.stats.evictions > 0
            assert (
                eng.metrics.counter_value("plan_cache.evictions")
                == eng.plans.stats.evictions
            )

    @pytest.mark.parametrize(
        "name", ["fused", "compiled", "fft", "direct", "im2col", "nested"]
    )
    def test_request_spans_and_latency_histogram(self, name):
        """One observability contract for every path: each request is one
        ``request`` span tagged with its backend or algorithm, with an
        ``execute.<name>`` child, one ``engine.requests.<name>``
        increment and one ``engine.request_seconds`` sample.  Nested's
        inner r = 3 problem is a Winograd request of its own, under
        ``execute.nested``."""
        if name == "compiled" and not compiled_available():
            pytest.skip("no C toolchain/cffi on this host")
        images, kernels = _layer()
        kwargs = {"backend": name} if name in ("fused", "compiled") else {
            "algorithm": name
        }
        if name == "nested":
            kernels = (np.random.default_rng(1).standard_normal((16, 16, 5, 5))
                       * 0.1).astype(np.float32)
            kwargs["padding"] = (2, 2)
        with ConvolutionEngine() as eng:
            eng.run(images, kernels, **kwargs)
            eng.run(images, kernels, **kwargs)
            spans = eng.tracer.spans()
            reqs = [s for s in spans if s.name == "request"]
            mine = [s for s in reqs if s.attrs["backend"] == name]
            assert len(mine) == 2
            for req in mine:
                (ex,) = [s for s in spans if s.parent_id == req.span_id
                         and s.name.startswith("execute.")]
                assert ex.name == f"execute.{name}"
            if name in ("fused", "compiled"):
                # Stage spans nest under execute.<backend> under the request.
                ex = next(s for s in spans if s.name == f"execute.{name}")
                st1 = next(s for s in spans if s.name == f"{name}.stage1")
                assert st1.parent_id == ex.span_id
            inner = [s for s in reqs if s not in mine]
            if name == "nested":
                nested_ex = {s.span_id for s in spans if s.name == "execute.nested"}
                assert len(inner) == 2
                assert all(s.attrs["backend"] == "fused" for s in inner)
                assert {s.parent_id for s in inner} == nested_ex
                assert eng.metrics.counter_value("engine.requests.fused") == 2
            else:
                assert inner == []
            h = eng.metrics.histogram("engine.request_seconds")
            assert h.count == len(reqs)
            assert eng.metrics.counter_value(f"engine.requests.{name}") == 2

    def test_metrics_under_thread_executor(self):
        images, kernels = _layer()
        out, tracer, metrics = _run_thread_executor(images, kernels)
        with ConvolutionEngine() as eng:
            ref = eng.run(images, kernels)
        np.testing.assert_allclose(out, ref, atol=1e-4)
        snap = metrics.snapshot()
        for stage in ("stage1", "stage1b", "stage2", "stage3"):
            assert snap["histograms"][f"thread.{stage}.seconds"]["count"] == 1
        # The per-worker timing attr has one entry per worker.
        sp = tracer.spans("thread.stage2")[0]
        assert len(sp.attrs["worker_seconds"]) == 2
        assert all(t >= 0.0 for t in sp.attrs["worker_seconds"])

    def test_thread_backend_stage_spans(self):
        images, kernels = _layer()
        _, tracer, _ = _run_thread_executor(images, kernels)
        for stage in ("stage1", "stage1b", "stage2", "stage3"):
            (sp,) = tracer.spans(f"thread.{stage}")
            assert len(sp.attrs["worker_seconds"]) == 2

    def test_stats_exposes_metrics_and_fallbacks(self):
        images, kernels = _layer()
        with ConvolutionEngine() as eng:
            eng.run(images, kernels)
            stats = eng.stats()
            assert stats["fallbacks"] == 0
            assert "shm" not in stats
            assert "counters" in stats["metrics"]

    def test_shared_registry_aggregates_across_engines(self):
        reg = MetricsRegistry()
        images, kernels = _layer()
        with ConvolutionEngine(metrics=reg) as e1, ConvolutionEngine(
            metrics=reg
        ) as e2:
            e1.run(images, kernels)
            e2.run(images, kernels)
        assert reg.counter_value("engine.requests.fused") == 2


# ----------------------------------------------------------------------
# Portfolio decision observability
# ----------------------------------------------------------------------
class TestPortfolioObservability:
    def test_labeled_metric_names_are_stable(self):
        from repro.obs.metrics import labeled

        assert labeled("algo_selected_total") == "algo_selected_total"
        assert (
            labeled("algo_selected_total", algo="fft")
            == 'algo_selected_total{algo="fft"}'
        )
        # Labels render sorted by key, so the name is order-independent.
        assert labeled("m", b="2", a="1") == labeled("m", a="1", b="2")

    def test_auto_run_records_counter_and_probe_span(self):
        rng = np.random.default_rng(3)
        images = rng.standard_normal((1, 8, 16, 16)).astype(np.float32)
        kernels = rng.standard_normal((8, 8, 1, 1)).astype(np.float32)
        from repro.obs.metrics import labeled

        with ConvolutionEngine(algorithm="auto") as eng:
            eng.run(images, kernels)
            snap = eng.metrics.snapshot()
            selected = {
                name: v for name, v in snap["counters"].items()
                if name.startswith("algo_selected_total")
            }
            assert sum(selected.values()) == 1
            (decision,) = eng.algorithm_decisions()
            assert eng.metrics.counter_value(
                labeled("algo_selected_total", algo=decision["algorithm"])
            ) == 1
            # The probe span covers the measured-confirmation stage and
            # names its candidates; its wall time lands in the histogram.
            (probe,) = eng.tracer.spans("portfolio.probe")
            assert probe.attrs["probed"] >= 2
            assert "winograd" in probe.attrs["candidates"]
            assert snap["histograms"]["portfolio.probe_seconds"]["count"] == 1

    def test_wisdom_hit_skips_probe_but_still_counts(self):
        rng = np.random.default_rng(4)
        images = rng.standard_normal((1, 8, 16, 16)).astype(np.float32)
        kernels = rng.standard_normal((8, 8, 1, 1)).astype(np.float32)
        with ConvolutionEngine(algorithm="auto") as e1:
            e1.run(images, kernels)
            wisdom = e1.wisdom
        with ConvolutionEngine(algorithm="auto", wisdom=wisdom) as e2:
            e2.run(images, kernels)
            assert e2.tracer.spans("portfolio.probe") == []
            snap = e2.metrics.snapshot()
            selected = {
                name: v for name, v in snap["counters"].items()
                if name.startswith("algo_selected_total")
            }
            assert sum(selected.values()) == 1
            assert (
                snap["counters"]['algo_decision_total{source="wisdom"}'] == 1
            )
