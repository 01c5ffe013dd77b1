"""Fault-injection suite: prove the serving stack degrades gracefully.

Each test arms a :class:`~repro.obs.faults.FaultPlan` and asserts the
documented recovery path:

* ``kill-worker`` mid-request -> the engine reroutes down the fallback
  chain (``process -> thread -> fused``), the request still returns an
  oracle-correct output, exactly one fallback event is recorded, and
  the crashed pool self-heals (respawns) for the next request;
* exhausting the respawn budget surfaces ONE clean error instead of
  thrashing respawns;
* ``corrupt-workspace`` is caught by the CRC integrity check and the
  poisoned output is never returned;
* ``raise-worker`` (in-stage exception) falls back while the pool
  itself survives;
* ``delay-barrier`` below the watchdog is a benign straggler round,
  above it a wedged-worker crash.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocking import BlockingConfig
from repro.core.convolution import WinogradPlan
from repro.core.engine import ConvolutionEngine
from repro.core.fmr import FmrSpec
from repro.core.parallel_process import (
    ProcessWinogradExecutor,
    WorkerCrashError,
    WorkerError,
    WorkspaceCorruptionError,
)
from repro.nets.reference import direct_convolution
from repro.obs.faults import FAULT_ENV, FaultPlan, FaultSpec

BLK = BlockingConfig(n_blk=6, c_blk=16, cprime_blk=16, simd_width=8)
SPEC = FmrSpec(m=(2, 2), r=(3, 3))


def _data(seed=0, c=16, hw=10):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((1, c, hw, hw)).astype(np.float32)
    kernels = (rng.standard_normal((c, c, 3, 3)) * 0.2).astype(np.float32)
    return images, kernels


def _oracle(images, kernels, padding=(0, 0)):
    return direct_convolution(
        images.astype(np.float64), kernels.astype(np.float64), padding=padding
    )


def _executor(faults=None, respawn_budget=2, timeout=20.0, hw=10):
    images, kernels = _data(hw=hw)
    plan = WinogradPlan(
        spec=SPEC, input_shape=images.shape, c_out=kernels.shape[1],
        padding=(0, 0), dtype=np.float32,
    )
    return ProcessWinogradExecutor(
        plan=plan, blocking=BLK, n_workers=2, simd_width=8,
        timeout=timeout, faults=faults, respawn_budget=respawn_budget,
    ), images, kernels


# ----------------------------------------------------------------------
# FaultPlan parsing / budget semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_single(self):
        plan = FaultPlan.parse("kill-worker:1")
        assert plan.specs == [FaultSpec("kill-worker", 1)]

    def test_parse_multi_with_param(self):
        plan = FaultPlan.parse("delay-barrier:2:0.25, raise-worker")
        d, r = plan.specs
        assert (d.kind, d.count, d.param) == ("delay-barrier", 2, 0.25)
        assert (r.kind, r.count) == ("raise-worker", 1)

    def test_parse_default_param(self):
        (spec,) = FaultPlan.parse("delay-barrier:1").specs
        assert spec.param == 0.05

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode:1")

    def test_parse_rejects_zero_count(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            FaultPlan.parse("kill-worker:0")

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("kill-worker:1:2:3")

    def test_from_env(self):
        assert FaultPlan.from_env(environ={}) is None
        assert FaultPlan.from_env(environ={FAULT_ENV: "  "}) is None
        plan = FaultPlan.from_env(environ={FAULT_ENV: "raise-worker:3"})
        assert plan.specs[0].count == 3

    def test_budget_consumed_exactly(self):
        plan = FaultPlan.parse("kill-worker:2")
        assert plan.should_fire("kill-worker") is not None
        assert plan.should_fire("raise-worker") is None  # wrong site
        assert plan.should_fire("kill-worker") is not None
        assert plan.should_fire("kill-worker") is None  # budget spent
        assert plan.fired() == {"kill-worker": 2}
        assert plan.exhausted

    def test_engine_reads_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "raise-worker:1")
        with ConvolutionEngine() as eng:
            assert eng.faults is not None
            assert eng.faults.specs[0].kind == "raise-worker"


# ----------------------------------------------------------------------
# Engine-level fallback chain
# ----------------------------------------------------------------------
class TestFallbackChain:
    def test_kill_worker_falls_back_and_stays_correct(self):
        images, kernels = _data()
        with ConvolutionEngine(
            backend="process", n_workers=2, worker_timeout=20.0,
            faults=FaultPlan.parse("kill-worker:1"),
        ) as eng:
            out = eng.run(images, kernels)
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            m = eng.metrics
            assert m.counter_value("engine.fallbacks") == 1
            assert m.counter_value("engine.fallbacks.process_to_thread") == 1
            assert m.counter_value("process.crashes") == 1
            (ev,) = eng.tracer.spans("fallback")
            assert ev.attrs["source"] == "process"
            assert ev.attrs["target"] == "thread"
            assert ev.attrs["error"] == "WorkerCrashError"
            (req,) = eng.tracer.spans("request")
            assert req.attrs["fallback"] == "process->thread"

    def test_pool_self_heals_after_crash(self):
        images, kernels = _data()
        with ConvolutionEngine(
            backend="process", n_workers=2, worker_timeout=20.0,
            faults=FaultPlan.parse("kill-worker:1"),
        ) as eng:
            eng.run(images, kernels)  # crashes + falls back
            out = eng.run(images, kernels)  # respawned pool serves this one
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            assert eng.metrics.counter_value("process.respawns") == 1
            assert eng.metrics.counter_value("engine.fallbacks") == 1  # still 1

    def test_corrupt_workspace_detected_and_rerouted(self):
        images, kernels = _data()
        with ConvolutionEngine(
            backend="process", n_workers=2, worker_timeout=20.0,
            faults=FaultPlan.parse("corrupt-workspace:1"),
        ) as eng:
            out = eng.run(images, kernels)
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            assert eng.metrics.counter_value("process.corruptions") == 1
            (ev,) = eng.tracer.spans("fallback")
            assert ev.attrs["error"] == "WorkspaceCorruptionError"

    def test_raise_worker_falls_back_pool_survives(self):
        images, kernels = _data()
        with ConvolutionEngine(
            backend="process", n_workers=2, worker_timeout=20.0,
            faults=FaultPlan.parse("raise-worker:1"),
        ) as eng:
            out = eng.run(images, kernels)
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            assert eng.metrics.counter_value("process.worker_errors") == 1
            # In-stage exceptions do NOT kill the pool: no crash, no respawn.
            assert eng.metrics.counter_value("process.crashes") == 0
            eng.run(images, kernels)
            assert eng.metrics.counter_value("process.respawns") == 0

    def test_small_delay_is_benign(self):
        images, kernels = _data()
        with ConvolutionEngine(
            backend="process", n_workers=2, worker_timeout=20.0,
            faults=FaultPlan.parse("delay-barrier:1:0.02"),
        ) as eng:
            out = eng.run(images, kernels)
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            assert eng.metrics.counter_value("engine.fallbacks") == 0

    def test_delay_beyond_watchdog_is_a_crash(self):
        images, kernels = _data()
        with ConvolutionEngine(
            backend="process", n_workers=2, worker_timeout=1.0,
            faults=FaultPlan.parse("delay-barrier:1:5.0"),
        ) as eng:
            out = eng.run(images, kernels)
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            assert eng.metrics.counter_value("process.crashes") == 1
            assert eng.metrics.counter_value("engine.fallbacks") == 1

    def test_fallback_disabled_propagates_the_crash(self):
        images, kernels = _data()
        with ConvolutionEngine(
            backend="process", n_workers=2, worker_timeout=20.0,
            fallback=False, faults=FaultPlan.parse("kill-worker:1"),
        ) as eng:
            with pytest.raises(WorkerCrashError):
                eng.run(images, kernels)
            assert eng.metrics.counter_value("engine.fallbacks") == 0

    def test_thread_failure_falls_back_to_fused(self):
        """The chain's second hop: thread -> fused on a worker error."""
        images, kernels = _data()
        with ConvolutionEngine(backend="thread", n_workers=2) as eng:
            # Sabotage the cached thread executor so its next run fails.
            eng.run(images, kernels)  # populate the plan cache

            entry = next(iter(eng.plans._entries.values()))
            execu = entry.parallel_executor(eng.n_workers)
            orig = execu.pool.run

            def broken_run(fn, schedule):
                raise WorkerError("injected thread-pool failure")

            execu.pool.run = broken_run
            try:
                out = eng.run(images, kernels)
            finally:
                execu.pool.run = orig
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            assert (
                eng.metrics.counter_value("engine.fallbacks.thread_to_fused")
                == 1
            )

    def test_close_during_inflight_fallback_sweeps_everything(self, monkeypatch):
        """``close()`` landing while a request is mid-fallback must not
        leak the plan entries (pools, shared memory) that the fallback
        rebuilds *after* close already swept the cache.

        Sequence forced here: a worker crash reroutes the request to the
        thread backend; close() runs after the crash but before the
        fallback dispatch; the fallback then repopulates the plan cache
        with a fresh thread-pool entry.  The draining request must
        re-run the sweep on its way out, leaving the engine truly closed
        (empty cache, no live shm segments -- the session-wide shm-leak
        fixture backstops the latter).
        """
        import threading

        from repro.core.shm import active_segment_names

        images, kernels = _data()
        engine = ConvolutionEngine(
            backend="process", n_workers=2, worker_timeout=20.0,
            faults=FaultPlan.parse("kill-worker:1"),
        )
        orig = engine._dispatch
        crashed = threading.Event()
        closed = threading.Event()

        def gated(backend, *a, **k):
            if backend == "thread":  # the fallback attempt, post-crash
                crashed.set()
                assert closed.wait(20), "close() never arrived"
            return orig(backend, *a, **k)

        monkeypatch.setattr(engine, "_dispatch", gated)
        result: dict = {}

        def request():
            try:
                result["out"] = engine.run(images, kernels)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                result["err"] = exc

        t = threading.Thread(target=request)
        t.start()
        assert crashed.wait(30), "worker crash / fallback never happened"
        engine.close()  # lands while the fallback is in flight
        closed.set()
        t.join(30)
        assert not t.is_alive()
        assert "err" not in result, f"request failed: {result.get('err')!r}"
        # The rerouted request still produced the right convolution...
        np.testing.assert_allclose(
            result["out"], _oracle(images, kernels), atol=1e-3
        )
        # ...and its exit swept the entries the fallback re-created.
        assert len(engine.plans) == 0
        assert not active_segment_names()
        # close() after the sweep stays a no-op.
        engine.close()
        assert len(engine.plans) == 0


# ----------------------------------------------------------------------
# Executor-level self-healing
# ----------------------------------------------------------------------
class TestRespawnBudget:
    def test_respawn_budget_exhaustion_is_a_clean_error(self):
        execu, images, kernels = _executor(
            faults=FaultPlan.parse("kill-worker:9"), respawn_budget=1
        )
        with execu:
            with pytest.raises(WorkerCrashError):
                execu.execute(images, kernels)  # crash #1
            with pytest.raises(WorkerCrashError):
                execu.execute(images, kernels)  # respawn #1, crash #2
            assert execu.respawns == 1
            with pytest.raises(WorkerCrashError, match="respawn budget"):
                execu.execute(images, kernels)  # budget spent: clean error
            assert execu.respawns == 1  # no further respawn attempts
            assert not execu.healthy

    def test_zero_budget_breaks_on_first_crash(self):
        execu, images, kernels = _executor(
            faults=FaultPlan.parse("kill-worker:1"), respawn_budget=0
        )
        with execu:
            with pytest.raises(WorkerCrashError):
                execu.execute(images, kernels)
            with pytest.raises(WorkerCrashError, match="respawn budget"):
                execu.execute(images, kernels)

    def test_successful_respawn_restores_correctness(self):
        execu, images, kernels = _executor(
            faults=FaultPlan.parse("kill-worker:1"), respawn_budget=2
        )
        with execu:
            assert execu.healthy
            with pytest.raises(WorkerCrashError):
                execu.execute(images, kernels)
            assert not execu.healthy
            out = execu.execute(images, kernels)
            assert execu.healthy
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            assert execu.crashes == 1 and execu.respawns == 1

    def test_corruption_check_can_be_disabled(self):
        execu, images, kernels = _executor(
            faults=FaultPlan.parse("corrupt-workspace:1")
        )
        execu.verify_workspace = False
        with execu:
            # Scribbling one input element goes undetected by design...
            out = execu.execute(images, kernels)
            # ...and merely perturbs the output instead of raising.
            assert out.shape == _oracle(images, kernels).shape

    def test_corruption_raises_at_executor_level(self):
        execu, images, kernels = _executor(
            faults=FaultPlan.parse("corrupt-workspace:1")
        )
        with execu:
            with pytest.raises(WorkspaceCorruptionError, match="checksum"):
                execu.execute(images, kernels)
            # The pool itself is fine: the next request succeeds.
            out = execu.execute(images, kernels)
            np.testing.assert_allclose(out, _oracle(images, kernels), atol=1e-3)
            assert execu.respawns == 0
