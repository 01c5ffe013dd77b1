"""True-parallel execution of the static schedule on worker *processes*.

:class:`~repro.core.parallel_convolution.ParallelWinogradExecutor` is
faithful to the paper's Sec. 4.5 runtime, but its threads overlap only
inside the numpy and cffi calls that release the GIL.  This module maps
the very same per-stage :class:`~repro.core.scheduling.GridSlice`
schedules and stage bodies onto a persistent pool of **processes**,
which CPython cannot serialize:

* every pipeline buffer (padded input, kernels, U, V, X/M, output tiles)
  lives in a :class:`~repro.core.shm.SharedTensorArena` segment that all
  workers map read-write, reproducing the paper's shared U/V/M workspace
  (Sec. 4.4) across address spaces;
* the fork-join protocol is the paper's double-barrier design: the main
  process publishes a stage command, everyone crosses the *start*
  barrier, workers execute their pre-assigned slice against the shared
  views, and everyone crosses the *done* barrier -- one fork-join per
  stage, no work queues, no stealing (``multiprocessing.Barrier`` is the
  kernel-assisted stand-in for the paper's spin barrier; a busy-wait
  barrier across processes would burn the very cores we are trying to
  use);
* schedules are computed once at executor construction ("compile time")
  and shipped to the workers in their startup blob, so per-run traffic
  is *only* the input/kernel bytes and eight barrier crossings.

Worker failures propagate cleanly: Python exceptions inside a stage are
forwarded over an error queue and re-raised in the caller as
:class:`WorkerError` (the pool stays usable); a dead worker (segfault,
``os._exit``, OOM-kill) breaks the barrier and surfaces as
:class:`WorkerCrashError` with exit codes, after which the pool is
terminated and marked broken.

Numerics: workers call the stage bodies of :mod:`repro.core.stages` --
the numpy or compiled set the thread executor calls, over the same
slices -- so results match :class:`ParallelWinogradExecutor` bitwise by
construction, and the sequential
:class:`~repro.core.convolution.WinogradPlan` up to float summation
order in stage 2 (blocked-K accumulation).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.blocking import BlockingConfig
from repro.core.convolution import WinogradPlan
from repro.core.scheduling import GridSlice
from repro.core.shm import SegmentSpec, SharedTensorArena, attach_segments
from repro.core.stages import (
    STAGE_BUFFERS,
    buffer_shapes,
    check_inputs,
    input_interior,
    make_stages,
    stage_schedules,
)
from repro.core.tiling import assemble_output
from repro.obs.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fmr import FmrSpec

#: Stage commands published through the shared control word (1-based
#: pipeline positions) -> stage names, used for bodies, spans and metrics.
STAGE_NAMES = dict(enumerate(STAGE_BUFFERS, start=1))
_CMD_IDLE = 0
_CMD_SHUTDOWN = -1
_CMD_RAISE = -2  # fault-injection hook: raise inside the stage body
_CMD_EXIT = -3  # fault-injection hook: die without reaching the barrier
_CMD_SLEEP = -4  # fault-injection hook: stall inside the round (param secs)


class WorkerError(RuntimeError):
    """A stage body raised a Python exception inside a worker.

    The double-barrier round still completed, so the pool remains
    usable; the first worker traceback is embedded in the message.
    """


class WorkerCrashError(RuntimeError):
    """A worker process died (or wedged past the barrier timeout).

    The pool has been terminated and is permanently broken.
    """


class WorkspaceCorruptionError(RuntimeError):
    """The shared input workspace changed under the pipeline's feet.

    Raised by the executor's post-run integrity check: the CRC of the
    padded-input and kernel segments no longer matches the value
    captured before the stages ran.  Stages only read those segments,
    so a mismatch means an external writer (a buggy co-tenant of the
    arena, a scribbling worker, or the ``corrupt-workspace`` fault)
    poisoned the request; the caller must not trust the output.
    """


def _buffer_crc(arr: np.ndarray) -> int:
    """CRC32 of a C-contiguous ndarray's bytes (no copy)."""
    return zlib.crc32(memoryview(arr).cast("B"))


# ----------------------------------------------------------------------
# Startup blob shipped to every worker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild plan state and attach shm."""

    spec: "FmrSpec"
    input_shape: tuple[int, ...]
    c_out: int
    padding: tuple[int, ...]
    dtype: str
    blocking: BlockingConfig
    simd_width: int
    n_workers: int
    schedules: dict[str, tuple[GridSlice, ...]]
    segments: dict[str, SegmentSpec]
    #: Run the compiled C codelets (workers load the stage library from
    #: the content-addressed disk cache, so the compile cost is paid
    #: once machine-wide).
    use_compiled: bool


class _WorkerState:
    """Per-worker state: the stage set, this rank's slices, shm views.

    Reconstructed deterministically from the :class:`WorkerConfig` --
    transform generation is exact-rational, so every worker holds the
    same matrices the main process planned with.
    """

    def __init__(self, cfg: WorkerConfig, rank: int):
        self.rank = rank
        plan = WinogradPlan(
            spec=cfg.spec,
            input_shape=cfg.input_shape,
            c_out=cfg.c_out,
            padding=cfg.padding,
            dtype=np.dtype(cfg.dtype),
        )
        self.stages = make_stages(
            plan, cfg.blocking, cfg.simd_width, cfg.use_compiled
        )
        self.ranges = {
            name: sched[rank].ranges for name, sched in cfg.schedules.items()
        }
        self.attached = attach_segments(cfg.segments)

    def run(self, cmd: int) -> None:
        """Run stage ``cmd`` over this worker's slice and record its
        wall seconds in the ``obs`` segment (read by the main process
        after the join)."""
        name = STAGE_NAMES[cmd]
        t0 = time.perf_counter()
        getattr(self.stages, name)(
            *(self.attached[b] for b in STAGE_BUFFERS[name]), self.ranges[name]
        )
        self.attached["obs"][cmd - 1, self.rank] = time.perf_counter() - t0

    def close(self) -> None:
        self.attached.close()


# ----------------------------------------------------------------------
# Worker main loop
# ----------------------------------------------------------------------
def _worker_main(rank, cfg_blob, start_barrier, done_barrier, command, param, errors):
    """Double-barrier slave loop: park on *start*, run the published
    stage against shared memory, park on *done*; repeat until shutdown."""
    state = None
    init_error = None
    try:
        state = _WorkerState(pickle.loads(cfg_blob), rank)
    except BaseException as exc:  # noqa: BLE001 - reported on first stage
        init_error = f"worker {rank} failed to initialize: {exc!r}"
        errors.put((rank, init_error, traceback.format_exc()))
    try:
        # Readiness handshake: the constructor of the pool waits here.
        done_barrier.wait()
        while True:
            start_barrier.wait()
            cmd = command.value
            if cmd == _CMD_SHUTDOWN:
                return
            try:
                if cmd == _CMD_EXIT:
                    os._exit(3)
                if cmd == _CMD_RAISE:
                    raise RuntimeError(f"injected failure in worker {rank}")
                if cmd == _CMD_SLEEP:
                    time.sleep(param.value)
                elif cmd != _CMD_IDLE:
                    if state is None:
                        raise RuntimeError(
                            init_error or f"worker {rank} has no state"
                        )
                    state.run(cmd)
            except BaseException as exc:  # noqa: BLE001 - propagated to main
                errors.put(
                    (rank, f"{type(exc).__name__}: {exc}", traceback.format_exc())
                )
            finally:
                done_barrier.wait()
    except threading.BrokenBarrierError:
        return  # pool is tearing down (crash elsewhere or shutdown race)
    finally:
        if state is not None:
            state.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class ProcessForkJoinPool:
    """Persistent worker processes driven by the double-barrier protocol."""

    def __init__(
        self,
        cfg: WorkerConfig,
        timeout: float = 60.0,
        start_method: str | None = None,
    ):
        if cfg.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {cfg.n_workers}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.n_workers = cfg.n_workers
        self.timeout = timeout
        method = start_method or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        ctx = mp.get_context(method)
        # parties = workers + the coordinating main process.
        self._start = ctx.Barrier(cfg.n_workers + 1)
        self._done = ctx.Barrier(cfg.n_workers + 1)
        self._command = ctx.Value("i", _CMD_IDLE, lock=False)
        self._param = ctx.Value("d", 0.0, lock=False)
        self._errors = ctx.SimpleQueue()
        self._broken = False
        self._shutdown = False
        #: Completed fork-join episodes.
        self.joins = 0
        blob = pickle.dumps(cfg)
        self._workers = [
            ctx.Process(
                target=_worker_main,
                args=(r, blob, self._start, self._done, self._command,
                      self._param, self._errors),
                daemon=True,
                name=f"repro-winograd-{r}",
            )
            for r in range(cfg.n_workers)
        ]
        for w in self._workers:
            w.start()
        try:
            self._done.wait(self.timeout)  # readiness handshake
        except threading.BrokenBarrierError:
            self._fail("worker pool failed to come up")

    # ------------------------------------------------------------------
    def run(self, command: int) -> None:
        """One fork-join: publish ``command``, cross both barriers.

        Raises :class:`WorkerError` for in-stage Python exceptions (pool
        survives) and :class:`WorkerCrashError` for dead/wedged workers
        (pool is terminated).
        """
        if self._broken:
            raise WorkerCrashError("worker pool is broken")
        if self._shutdown:
            raise RuntimeError("pool is shut down")
        dead = [w for w in self._workers if not w.is_alive()]
        if dead:
            self._fail(
                "worker died between runs: "
                + ", ".join(f"{w.name} exit={w.exitcode}" for w in dead)
            )
        self._command.value = command
        self._cross(self._start, command, "fork")
        self._cross(self._done, command, "join")
        self.joins += 1
        errs = self._drain_errors()
        if errs:
            rank, msg, tb = errs[0]
            raise WorkerError(
                f"{len(errs)} worker(s) failed; first (rank {rank}): {msg}\n{tb}"
            )

    def inject(self, kind: str, param: float | None = None) -> None:
        """Fault-injection hook: ``'raise'``, ``'exit'`` or ``'delay'``.

        ``'delay'`` makes every worker sleep ``param`` seconds inside
        the round; a delay beyond the pool timeout reproduces a wedged
        worker (the watchdog fires and the pool is torn down), a small
        one is a benign straggler round.
        """
        if kind == "delay":
            self._param.value = 0.05 if param is None else float(param)
            self.run(_CMD_SLEEP)
        else:
            self.run({"raise": _CMD_RAISE, "exit": _CMD_EXIT}[kind])

    def _cross(self, barrier, command: int, phase: str) -> None:
        """Cross one barrier with a liveness-aware watchdog.

        A timed-out ``multiprocessing.Barrier.wait`` aborts the barrier,
        so the wait cannot be polled directly; instead it runs in a
        helper thread while this thread monitors worker liveness.  A
        dead worker therefore fails the round within ~20 ms rather than
        stalling for the full ``timeout`` (which remains the watchdog
        for workers that are alive but wedged).
        """
        failure: list[BaseException] = []

        def waiter() -> None:
            try:
                barrier.wait(self.timeout)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failure.append(exc)

        th = threading.Thread(target=waiter, daemon=True)
        th.start()
        while True:
            th.join(0.02)
            if not th.is_alive():
                break
            dead = [w for w in self._workers if not w.is_alive()]
            if dead:
                barrier.abort()  # unblock the waiter thread
                th.join(1.0)
                self._fail(
                    f"worker died during command {command} ({phase}): "
                    + ", ".join(f"{w.name} exit={w.exitcode}" for w in dead)
                )
        if failure:
            self._fail(
                f"worker crashed or stalled during command {command} ({phase})"
            )

    @property
    def broken(self) -> bool:
        return self._broken

    # ------------------------------------------------------------------
    def _drain_errors(self) -> list[tuple[int, str, str]]:
        errs = []
        try:
            while not self._errors.empty():
                errs.append(self._errors.get())
        except (OSError, EOFError):  # pragma: no cover - teardown race
            pass
        return errs

    def _fail(self, reason: str) -> None:
        self._broken = True
        errs = self._drain_errors()
        self._terminate()
        codes = ", ".join(f"{w.name} exit={w.exitcode}" for w in self._workers)
        detail = f"\nfirst worker error: {errs[0][1]}" if errs else ""
        raise WorkerCrashError(f"{reason} [{codes}]{detail}")

    def _terminate(self) -> None:
        for w in self._workers:
            if w.is_alive():
                w.terminate()
        for w in self._workers:
            w.join(timeout=2.0)
            if w.is_alive():  # pragma: no cover - last resort
                w.kill()
                w.join(timeout=1.0)

    def shutdown(self) -> None:
        """Stop the workers (idempotent)."""
        if self._shutdown:
            return
        self._shutdown = True
        if not self._broken:
            self._command.value = _CMD_SHUTDOWN
            try:
                self._start.wait(min(self.timeout, 5.0))
            except threading.BrokenBarrierError:  # pragma: no cover
                pass
        for w in self._workers:
            w.join(timeout=5.0)
        self._terminate()

    def __enter__(self) -> "ProcessForkJoinPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
@dataclass
class ProcessWinogradExecutor:
    """Runs a :class:`WinogradPlan` on a :class:`ProcessForkJoinPool`.

    Drop-in sibling of :class:`ParallelWinogradExecutor` with identical
    validation, schedules and numerics -- but the workers are processes
    sharing the pipeline buffers through named shared memory, so the
    arithmetic actually runs concurrently.
    """

    plan: WinogradPlan
    blocking: BlockingConfig
    n_workers: int = 2
    simd_width: int = 16
    timeout: float = 60.0
    start_method: str | None = None
    #: Observability hooks (see repro.obs): span tracer, metrics sink,
    #: armed fault plan.  All optional; defaults are no-op/local.
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    faults: FaultPlan | None = None
    #: Self-healing: how many times a crashed pool may be respawned over
    #: the executor's lifetime before it is declared permanently broken.
    respawn_budget: int = 2
    #: Verify the input workspace CRC after every run (fault tolerance
    #: against external writers; required for the corrupt-workspace
    #: fault to be detectable).
    verify_workspace: bool = True
    #: Run worker stage bodies through the compiled C codelets.  The
    #: main process builds (or disk-cache-hits) the library up front so
    #: a missing toolchain fails fast here, not inside the workers.
    use_compiled: bool = False

    def __post_init__(self) -> None:
        plan = self.plan
        s = self.simd_width
        schedules = stage_schedules(plan, self.blocking, s, self.n_workers)
        # Load the stage set before any worker spawns: a missing
        # toolchain surfaces here as a regular exception instead of as
        # N worker init failures, and the workers then hit the disk
        # build cache.
        make_stages(
            plan, self.blocking, s, self.use_compiled,
            tracer=self.tracer, metrics=self.metrics,
        )
        self.arena = SharedTensorArena(tag="wino")
        try:
            self._bufs = {
                name: self.arena.allocate(name, shape, plan.dtype)
                for name, shape in buffer_shapes(plan).items()
            }
            # Per-stage x per-worker wall-clock seconds, written by the
            # workers, read by the main process after each join.
            self._obs = self.arena.allocate(
                "obs", (len(STAGE_NAMES), self.n_workers), np.float64
            )
            cfg = WorkerConfig(
                spec=plan.spec,
                input_shape=plan.input_shape,
                c_out=plan.c_out,
                padding=plan.padding,
                dtype=plan.dtype.name,
                blocking=self.blocking,
                simd_width=s,
                n_workers=self.n_workers,
                schedules=schedules,
                segments=self.arena.spec(),
                use_compiled=self.use_compiled,
            )
            self._cfg = cfg  # kept for pool respawns (self-healing)
            self.pool = ProcessForkJoinPool(
                cfg, timeout=self.timeout, start_method=self.start_method
            )
        except BaseException:
            self.arena.release()
            raise
        self._interior = input_interior(plan)
        self._exec_lock = threading.Lock()
        #: Fingerprint of the kernel tensor currently uploaded to the
        #: shared segment (batch serving re-sends the same kernels every
        #: round; see :meth:`execute`).
        self._kernels_fp: str | None = None
        self._tracer = self.tracer if self.tracer is not None else NULL_TRACER
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        #: Lifetime crash/respawn accounting (also mirrored to metrics).
        self.crashes = 0
        self.respawns = 0
        self._needs_respawn = False

    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """True when the next :meth:`execute` can run without a respawn."""
        return (
            self.pool is not None
            and not self._needs_respawn
            and not self.pool.broken
        )

    def _ensure_pool(self) -> None:
        """Self-healing seam: respawn a crashed pool within the budget.

        The shared-memory arena outlives the pool -- only the worker
        processes and barriers are rebuilt; fresh workers re-attach to
        the same segments.  Past the budget, every call surfaces one
        clean :class:`WorkerCrashError` instead of thrashing respawns.
        """
        if self.healthy:
            return
        if self.respawns >= self.respawn_budget:
            raise WorkerCrashError(
                f"process pool permanently broken: respawn budget "
                f"({self.respawn_budget}) exhausted after {self.crashes} "
                f"crash(es); use another backend or rebuild the executor"
            )
        old, self.pool = self.pool, None  # type: ignore[assignment]
        if old is not None:
            old.shutdown()
        self.pool = ProcessForkJoinPool(
            self._cfg, timeout=self.timeout, start_method=self.start_method
        )
        self.respawns += 1
        self._needs_respawn = False
        self.metrics.counter("process.respawns").inc()
        self._tracer.event("process.respawn", respawns=self.respawns)

    def _inject_faults(self) -> None:
        """Consume armed fault tokens at the pre-stage injection site."""
        faults = self.faults
        if not faults:
            return
        if faults.should_fire("kill-worker"):
            self.pool.inject("exit")  # raises WorkerCrashError
        if faults.should_fire("raise-worker"):
            self.pool.inject("raise")  # raises WorkerError
        spec = faults.should_fire("delay-barrier")
        if spec is not None:
            self.pool.inject("delay", spec.param)
        if faults.should_fire("corrupt-workspace"):
            # Scribble *after* the CRC capture in execute(): the
            # integrity check must catch it.
            self._bufs["padded"].flat[0] += 1.0

    def execute(
        self,
        images: np.ndarray,
        kernels: np.ndarray,
        *,
        kernels_fingerprint: str | None = None,
    ) -> np.ndarray:
        """Run all four stages across the worker processes.

        Serialized internally: the executor owns ONE shared workspace,
        so concurrent callers take turns (the engine leans on this).

        ``kernels_fingerprint`` is the batch-dispatch fast path: when
        the caller already knows a content fingerprint for ``kernels``
        (the engine's plan cache computes one anyway for the FX
        memoization) and it matches the tensor uploaded by the previous
        call, the kernel copy into shared memory is skipped -- under
        batched serving the kernels are identical every round, so only
        the per-batch image bytes cross the process boundary.  The
        post-run CRC check still covers the kernel segment, so a stale
        or corrupted upload can never silently poison a batch.

        Failure semantics: a dead/wedged worker raises
        :class:`WorkerCrashError` and schedules a pool respawn (within
        :attr:`respawn_budget`) so the *next* call finds a healthy pool;
        an in-stage exception raises :class:`WorkerError`; a poisoned
        input workspace raises :class:`WorkspaceCorruptionError`.  The
        engine's fallback chain reroutes the failed request either way.
        """
        images, kernels = check_inputs(self.plan, images, kernels)
        padded, kernels_buf = self._bufs["padded"], self._bufs["kernels"]
        with self._exec_lock:
            if self.arena.released:
                raise RuntimeError("executor is shut down")
            self._ensure_pool()
            padded[...] = 0
            padded[self._interior] = images
            if (
                kernels_fingerprint is None
                or kernels_fingerprint != self._kernels_fp
            ):
                kernels_buf[...] = kernels
                self.metrics.counter("process.kernel_uploads").inc()
            else:
                self.metrics.counter("process.kernel_upload_skips").inc()
            self._kernels_fp = kernels_fingerprint
            crc_before = None
            if self.verify_workspace:
                crc_before = (_buffer_crc(padded), _buffer_crc(kernels_buf))
            try:
                self._inject_faults()
                self._obs[...] = 0.0
                for cmd, name in STAGE_NAMES.items():
                    t0 = time.perf_counter()
                    with self._tracer.span(f"process.{name}") as sp:
                        self.pool.run(cmd)
                        sp.attrs["worker_seconds"] = self._obs[cmd - 1].tolist()
                    self.metrics.histogram(f"process.{name}.seconds").observe(
                        time.perf_counter() - t0
                    )
                if crc_before is not None:
                    crc_after = (_buffer_crc(padded), _buffer_crc(kernels_buf))
                    if crc_after != crc_before:
                        self.metrics.counter("process.corruptions").inc()
                        # The kernel segment can no longer be trusted:
                        # force a fresh upload on the next round.
                        self._kernels_fp = None
                        raise WorkspaceCorruptionError(
                            "input workspace checksum changed during the run "
                            f"(padded/kernels CRC {crc_before} -> {crc_after}); "
                            "output is untrusted"
                        )
            except WorkerCrashError:
                self.crashes += 1
                self._needs_respawn = True
                self.metrics.counter("process.crashes").inc()
                raise
            except WorkerError:
                self.metrics.counter("process.worker_errors").inc()
                raise
            out_tiles = self._bufs["out_tiles"]
            out = assemble_output(out_tiles, self.plan.grid)
            if np.shares_memory(out, out_tiles):  # pragma: no cover
                out = out.copy()
            return out

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent).

        Serializes with :meth:`execute` on the executor lock: a shutdown
        racing an in-flight request (the engine's ``close()`` during a
        backend fallback, a cache eviction under load) waits for the
        current fork-join round to drain instead of unlinking the shared
        segments underneath the workers.
        """
        with self._exec_lock:
            try:
                if self.pool is not None:
                    self.pool.shutdown()
            finally:
                self.arena.release()

    def __enter__(self) -> "ProcessWinogradExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
