"""Statically scheduled parallel execution of the three-stage pipeline.

This executor realizes Sec. 4.5 end to end on threads: each stage's work
is a D-dimensional grid of equal tasks, partitioned once by the
recursive GCD scheduler, and executed by the persistent
:class:`ForkJoinPool` with a single fork-join per stage over the custom
spin barrier.  Every thread runs the stage's one body
(:mod:`repro.core.stages`) over its slice of the grid, writing into
buffers shared by the whole pool:

* **stage 1** -- grid ``B x (C/S) x N_1 x ... x N_n``; input tiles into
  ``U``,
* **stage 1b** -- grid ``C x (C'/S)``; kernels into ``V``,
* **stage 2** -- grid ``T x (C'/C'_blk) x (NB/n_blk)``; the row-block
  dimension is least significant so each thread streams row blocks
  against a stationary ``V`` block,
* **stage 3** -- 1-D grid ``B*N*C'/S``; output tiles, cropped into the
  result tensor after the join.

The output is bitwise independent of the thread count (see
:mod:`repro.core.stages`).  Numpy releases the GIL inside its array
kernels, so the threads run concurrently only inside those calls; the
Python between them is serialized.  That is why this executor is the
reproduction of Sec. 4.5, not a serving path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocking import BlockingConfig
from repro.core.convolution import WinogradPlan
from repro.core.layout import pack_padded
from repro.core.parallel import ForkJoinPool
from repro.core.stages import (
    STAGE_BUFFERS,
    NumpyStages,
    buffer_shapes,
    check_inputs,
    stage_schedules,
)
from repro.core.tiling import assemble_output
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass
class ParallelWinogradExecutor:
    """Runs a :class:`WinogradPlan` on a :class:`ForkJoinPool`."""

    plan: WinogradPlan
    blocking: BlockingConfig
    n_threads: int = 4
    simd_width: int = 16
    #: Observability hooks (see repro.obs); optional and no-op-safe.
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None

    pool: ForkJoinPool = field(init=False)

    def __post_init__(self) -> None:
        self._schedules = stage_schedules(
            self.plan, self.blocking, self.simd_width, self.n_threads
        )
        self.stages = NumpyStages(self.plan, self.blocking, self.simd_width)
        self.pool = ForkJoinPool(self.n_threads)

    # ------------------------------------------------------------------
    def _run_stage(self, name: str, buffers: dict[str, np.ndarray]) -> None:
        """One traced fork-join: stage span + per-thread wall seconds."""
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        body = getattr(self.stages, name)
        args = [buffers[b] for b in STAGE_BUFFERS[name]]
        durations = [0.0] * self.n_threads

        def timed(tid, sl):
            t0 = time.perf_counter()
            try:
                body(*args, sl.ranges)
            finally:
                durations[tid] = time.perf_counter() - t0

        t0 = time.perf_counter()
        with tracer.span(f"thread.{name}") as sp:
            self.pool.run(timed, self._schedules[name])
            sp.attrs["worker_seconds"] = list(durations)
        if self.metrics is not None:
            self.metrics.histogram(f"thread.{name}.seconds").observe(
                time.perf_counter() - t0
            )

    def execute(self, images: np.ndarray, kernels: np.ndarray) -> np.ndarray:
        plan = self.plan
        images, kernels = check_inputs(plan, images, kernels)
        buffers = {
            name: np.zeros(shape, dtype=plan.dtype)
            for name, shape in buffer_shapes(plan, self.simd_width).items()
            if name not in ("padded", "kernels")
        }
        buffers["padded"] = pack_padded(
            images, plan.padding, plan.grid.padded_input_shape, self.simd_width
        )
        buffers["kernels"] = kernels
        for name in STAGE_BUFFERS:
            self._run_stage(name, buffers)
        return assemble_output(buffers["out_tiles"], plan.grid)

    def shutdown(self) -> None:
        self.pool.shutdown()

    def __enter__(self) -> "ParallelWinogradExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
