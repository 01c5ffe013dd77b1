"""Layer-level cost model: algorithm description -> predicted runtime.

This is the composition point of the simulated substrate.  For a
convolutional layer executed with the paper's three-stage Winograd
pipeline it derives, per stage:

* **compute time** -- vector-instruction counts from the generated
  codelets (stages 1/3) or cycle-simulated microkernels (stage 2),
  divided over the cores and scaled by the static schedule's measured
  load imbalance;
* **memory time** -- bytes moved to/from main memory under the
  write-allocate / streaming-store rules of :class:`MemoryModel`;
* **TLB time** -- page-walk penalties derived from each task's
  scattering range in the configured layout;
* **sync time** -- barrier cost per fork-join (custom spin barrier vs.
  OpenMP-class barriers), or per-chunk dequeue cost for dynamically
  scheduled baselines.

Stage time is ``max(compute, memory) + tlb + sync`` (compute and memory
overlap on KNL; page walks and barriers do not).  All Fig. 5 numbers are
produced by this model; the same knobs (:class:`ExecutionFeatures`) with
baseline-specific settings produce the comparator rows, so the speedups
emerge from mechanism differences rather than fudge factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, prod

from repro.core.blocking import BlockingConfig
from repro.core.codelets import Codelet, generate_codelet
from repro.core.fmr import FmrSpec
from repro.core.jit_gemm import MicrokernelSpec, simulate_microkernel
from repro.core.portfolio import ALGORITHMS
from repro.core.scheduling import schedule_stats, static_schedule
from repro.core.transforms import winograd_nd
from repro.machine.memory import MemoryModel, TlbModel
from repro.machine.spec import MachineSpec
from repro.nets.layers import ConvLayerSpec

FLOAT_BYTES = 4

#: Process-wide microkernel cycle cache (the simulations are pure
#: functions of the spec and machine, and the autotuner re-evaluates the
#: same kernels across many layers).
_KERNEL_CYCLES_CACHE: dict = {}


@dataclass(frozen=True)
class ExecutionFeatures:
    """The optimization toggles that differentiate implementations.

    Defaults are the paper's configuration; baselines switch features off
    (e.g. MKL-DNN-like: no streaming stores, generic GEMM, OpenMP
    barriers).
    """

    #: Non-temporal stores for transform outputs (Sec. 4.2.1).
    streaming_stores: bool = True
    #: Scatter GEMM results inside the microkernel with NT stores
    #: (Sec. 4.3.1, "increased the overall speed by more than 20%").
    fused_scatter: bool = True
    #: Table-1 blocked layouts (small scattering ranges).  When False the
    #: transforms scatter with page-sized strides (generic layouts).
    blocked_layout: bool = True
    #: Static GCD scheduling + one fork-join per stage.  When False a
    #: dynamic scheduler pays a dequeue cost per task chunk.
    static_scheduling: bool = True
    #: Cycles per barrier episode.  The paper's custom spin barrier costs
    #: a few hundred cycles; OpenMP-class barriers tens of thousands.
    barrier_cycles: int = 500
    #: Dynamic-scheduling dequeue cost per task chunk (cycles).
    dequeue_cycles: int = 2000
    #: Tasks per dynamically scheduled chunk.
    chunk_tasks: int = 8
    #: Stage-2 microkernel configuration overrides (load-ahead, prefetch).
    gemm_load_ahead: int = 1
    gemm_prefetches: int = 4
    #: Fixed register-blocking for libraries that do not tune n_blk
    #: (LIBXSMM uses 16); None means use the planned blocking's n_blk.
    gemm_fixed_n_blk: int | None = None
    #: Per-GEMM-call dispatch/packing overhead in cycles (MKL-like
    #: libraries pack operands and dispatch through a generic front end).
    gemm_call_overhead_cycles: int = 0
    #: Multiply stage-2 operand bytes that must be re-read because the
    #: library packs U/V into internal buffers (MKL packs: 1 extra pass).
    gemm_packing_passes: int = 0

    def gemm_microkernel(
        self, blocking: BlockingConfig, beta: int
    ) -> MicrokernelSpec:
        n_blk = self.gemm_fixed_n_blk or blocking.n_blk
        return MicrokernelSpec(
            n_blk=n_blk,
            c_blk=blocking.c_blk,
            cprime_blk=blocking.cprime_blk,
            beta=beta,
            simd_width=blocking.simd_width,
            load_ahead=self.gemm_load_ahead,
            prefetches_per_iter=self.gemm_prefetches,
            streaming_stores=self.fused_scatter,
        )


@dataclass(frozen=True)
class StageCost:
    """Predicted cost of one pipeline stage on the whole chip."""

    name: str
    compute_s: float
    memory_s: float
    tlb_s: float
    sync_s: float
    flops: float
    #: Non-overlappable extra passes (e.g. a separate scatter pass when
    #: scattering is not fused into the GEMM microkernel).
    extra_s: float = 0.0

    @property
    def seconds(self) -> float:
        return max(self.compute_s, self.memory_s) + self.tlb_s + self.sync_s + self.extra_s

    @property
    def bound(self) -> str:
        return "compute" if self.compute_s >= self.memory_s else "memory"


@dataclass(frozen=True)
class LayerCost:
    """Total predicted cost of one layer invocation."""

    layer: str
    fmr: str
    stages: tuple[StageCost, ...]

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    @property
    def flops(self) -> float:
        return sum(s.flops for s in self.stages)

    def stage(self, name: str) -> StageCost:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage {name!r} in {self.layer}")


def _separable_counts(in_shape: tuple[int, ...], out_shape: tuple[int, ...]) -> list[int]:
    """Applications of the d-th 1D transform in a separable N-D transform.

    Processing dimensions in order, dimension ``d`` sees the already-
    transformed extents for earlier dims and original extents for later
    ones: ``prod(out[:d]) * prod(in[d+1:])``.
    """
    n = len(in_shape)
    return [
        prod(out_shape[:d]) * prod(in_shape[d + 1 :]) for d in range(n)
    ]


class WinogradCostModel:
    """Predicts layer runtimes for the paper's algorithm on a machine."""

    def __init__(
        self,
        machine: MachineSpec,
        threads_per_core: int = 1,
        features: ExecutionFeatures | None = None,
    ):
        if machine.cores < 1:
            raise ValueError(f"{machine.name} is not a CPU spec")
        if not 1 <= threads_per_core <= machine.max_threads_per_core:
            raise ValueError(
                f"threads_per_core={threads_per_core} outside "
                f"[1, {machine.max_threads_per_core}] for {machine.name}"
            )
        self.machine = machine
        self.threads_per_core = threads_per_core
        self.features = features if features is not None else ExecutionFeatures()
        self.memory = MemoryModel(machine)
        self.tlb = TlbModel(machine)

    # ------------------------------------------------------------------
    @property
    def n_threads(self) -> int:
        return self.machine.cores * self.threads_per_core

    def _seconds(self, cycles: float) -> float:
        return cycles / self.machine.frequency_hz

    def _sync_seconds(self, grid: tuple[int, ...]) -> float:
        """One fork-join (static) or per-chunk dequeues (dynamic)."""
        f = self.features
        if f.static_scheduling:
            return self._seconds(f.barrier_cycles)
        chunks = ceil(prod(grid) / f.chunk_tasks)
        # Dequeues serialize on a shared queue head across the chip.
        return self._seconds(f.dequeue_cycles * chunks / self.machine.cores)

    def _imbalance(self, grid: tuple[int, ...]) -> float:
        if not self.features.static_scheduling:
            return 1.02  # dynamic scheduling balances well, modulo tail
        return schedule_stats(static_schedule(grid, self.n_threads)).imbalance

    def _transform_stage(
        self,
        name: str,
        codelets: list[Codelet],
        counts: list[int],
        n_tasks: int,
        read_bytes_per_task: int,
        write_bytes_per_task: int,
        scatter_elements: int,
        tasks_per_scatter_range: int,
        scatter_stores_per_task: int,
        grid: tuple[int, ...],
    ) -> StageCost:
        """Cost of a transform stage (input / kernel / inverse).

        ``codelets``/``counts``: per-dimension 1D codelets and how many
        times each is applied per task; each application processes S
        lanes (one vector register wide).
        """
        machine = self.machine
        # Instruction counts per task: arithmetic plus loads/stores of the
        # tile (issue slots are the resource; transforms are issue-bound).
        arith = sum(c.arith_ops * n for c, n in zip(codelets, counts))
        mem_ops = (read_bytes_per_task + write_bytes_per_task) // (
            machine.vector_width * FLOAT_BYTES
        )
        issue_cycles = (arith + mem_ops) / machine.issue_width
        # Dependency floor: a single 1D transform's critical path.
        chain = max(c.critical_path(machine.fma_latency) for c in codelets)
        imbalance = self._imbalance(grid)
        tasks_per_thread = ceil(n_tasks / self.n_threads)
        tasks_per_core = ceil(n_tasks / machine.cores)
        # SMT semantics: hardware threads on a core share its issue slots
        # (the issue-bound component is per core), but each thread runs
        # its own dependence chains, so the latency floor is per thread --
        # this is exactly why 2-4 threads/core help latency-bound code on
        # KNL without adding throughput.
        core_cycles = max(
            issue_cycles * tasks_per_core, chain * tasks_per_thread
        )
        compute_s = self._seconds(core_cycles * imbalance)
        # Memory traffic: reads plus write-allocate-or-streaming writes.
        reads = self.memory.read_traffic(read_bytes_per_task * n_tasks)
        writes = self.memory.store_traffic(
            write_bytes_per_task * n_tasks,
            streaming=self.features.streaming_stores,
        )
        memory_s = self.memory.combine(reads, writes).seconds(machine)
        # TLB: with the blocked layouts each task scatters into a small
        # contiguous range shared with its neighbours, so the range's cold
        # page walks amortize over every task writing into it.  Generic
        # layouts scatter each of the T sub-results with matrix-sized
        # strides: one page walk per scattered store, no reuse.
        if self.features.blocked_layout:
            range_pages = self.tlb.pages(scatter_elements * FLOAT_BYTES)
            misses_per_task = range_pages / max(1, tasks_per_scatter_range)
        else:
            misses_per_task = float(scatter_stores_per_task)
        tlb_s = self._seconds(
            misses_per_task * self.tlb.walk_cycles
            * tasks_per_thread / self.threads_per_core
        )
        flops = 2.0 * arith * machine.vector_width * n_tasks
        return StageCost(
            name=name,
            compute_s=compute_s,
            memory_s=memory_s,
            tlb_s=tlb_s,
            sync_s=self._sync_seconds(grid),
            flops=flops,
        )

    # ------------------------------------------------------------------
    def _kernel_cycles(self, mk: MicrokernelSpec) -> float:
        """Effective per-invocation cycles, accounting for SMT.

        Extra hardware threads cannot add issue slots, but operand-wait
        stalls of one thread are filled by its siblings, so the stall
        component shrinks by the thread count.
        """
        key = (mk, self.machine.name)
        result = _KERNEL_CYCLES_CACHE.get(key)
        if result is None:
            result = simulate_microkernel(mk, self.machine)
            _KERNEL_CYCLES_CACHE[key] = result
        busy = result.cycles - result.stall_cycles
        smt = busy + result.stall_cycles / self.threads_per_core
        # SMT can hide latency but never beat the structural floors: the
        # two VPUs and the two-wide issue front end are shared resources.
        floors = max(
            result.fma_count / self.machine.vpus_per_core,
            result.instructions / self.machine.issue_width,
        )
        return max(smt, floors)

    def _gemm_stage(
        self,
        t: int,
        nb: int,
        c: int,
        cprime: int,
        blocking: BlockingConfig,
    ) -> StageCost:
        machine = self.machine
        f = self.features
        if c % blocking.c_blk or cprime % blocking.cprime_blk:
            raise ValueError(
                f"blocking C_blk={blocking.c_blk}, C'_blk={blocking.cprime_blk} "
                f"does not divide the layer channels C={c}, C'={cprime}"
            )
        # Libraries with a fixed register blocking (LIBXSMM: 16) override
        # the planned n_blk for both the kernel and the invocation count.
        n_blk = f.gemm_fixed_n_blk or blocking.n_blk
        row_blocks = ceil(nb / n_blk)
        k_blocks = c // blocking.c_blk
        j_blocks = cprime // blocking.cprime_blk
        inv_beta0 = t * j_blocks * row_blocks  # first k iteration
        inv_beta1 = t * j_blocks * row_blocks * (k_blocks - 1)
        cyc0 = self._kernel_cycles(f.gemm_microkernel(blocking, beta=0))
        cyc1 = self._kernel_cycles(f.gemm_microkernel(blocking, beta=1))
        overhead = f.gemm_call_overhead_cycles * (inv_beta0 + inv_beta1)
        total_cycles = inv_beta0 * cyc0 + inv_beta1 * cyc1 + overhead
        grid = (t, j_blocks, row_blocks)
        imbalance = self._imbalance(grid)
        compute_s = self._seconds(total_cycles * imbalance / machine.cores)

        # Memory traffic (Eqn. 11 accounting): U streamed per invocation;
        # X read on beta=1 and written once per (t, i, j); V fetched once
        # per (t, k, j).
        u_bytes = (inv_beta0 + inv_beta1) * n_blk * blocking.c_blk * FLOAT_BYTES
        x_write = inv_beta0 * n_blk * blocking.cprime_blk * FLOAT_BYTES
        x_rw = inv_beta1 * n_blk * blocking.cprime_blk * FLOAT_BYTES
        v_bytes = t * k_blocks * j_blocks * blocking.c_blk * blocking.cprime_blk * FLOAT_BYTES
        packing = f.gemm_packing_passes * (u_bytes + v_bytes)
        reads = self.memory.read_traffic(u_bytes + x_rw + v_bytes + packing)
        writes = self.memory.store_traffic(
            x_write + x_rw, streaming=f.fused_scatter
        )
        memory_s = self.memory.combine(reads, writes).seconds(machine)

        # TLB: fused scatter strides across I' but is amortized (the paper:
        # "possible TLB miss overhead ... is amortized out"); unfused
        # scatter runs as a separate memory-bound pass (extra traffic).
        extra_s = 0.0
        if not f.fused_scatter:
            # Separate scatter pass after the GEMM: read the temporary
            # results and write them to the stage-3 layout.  This pass is
            # purely memory-bound and cannot overlap the finished GEMM.
            scatter_bytes = t * nb * cprime * FLOAT_BYTES
            extra = self.memory.combine(
                self.memory.read_traffic(scatter_bytes),
                self.memory.store_traffic(scatter_bytes, streaming=False),
            )
            extra_s = extra.seconds(machine)
        flops = 2.0 * t * nb * c * cprime
        return StageCost(
            name="gemm",
            compute_s=compute_s,
            memory_s=memory_s,
            tlb_s=0.0,
            sync_s=self._sync_seconds(grid),
            flops=flops,
            extra_s=extra_s,
        )

    # ------------------------------------------------------------------
    def layer_cost(
        self,
        layer: ConvLayerSpec,
        fmr: FmrSpec,
        blocking: BlockingConfig,
        *,
        transform_kernels: bool = True,
    ) -> LayerCost:
        """Predict the runtime of one layer with the paper's pipeline.

        ``transform_kernels=False`` is the FX (inference-only) mode.
        """
        if fmr.r != layer.kernel:
            raise ValueError(
                f"F(m,r) kernel {fmr.r} != layer kernel {layer.kernel}"
            )
        s = self.machine.vector_width
        if layer.c_in % s or layer.c_out % s:
            raise ValueError(
                f"{layer.label}: channels must be divisible by S={s}"
            )
        nd = winograd_nd(fmr)
        padded = tuple(i + 2 * p for i, p in zip(layer.image, layer.padding))
        out_shape = tuple(i - r + 1 for i, r in zip(padded, fmr.r))
        counts = fmr.tile_counts(out_shape)
        n_tiles = prod(counts)
        nb = n_tiles * layer.batch
        t_elems = fmr.tile_elements
        alpha = fmr.tile_shape

        b_codelets = [generate_codelet(tr.b) for tr in nd.dims]
        g_codelets = [generate_codelet(tr.g) for tr in nd.dims]
        a_codelets = [generate_codelet(tr.a) for tr in nd.dims]

        stages: list[StageCost] = []

        # Stage 1a: input transform.  One task transforms S tiles.
        grid1 = (layer.batch, layer.c_in // s) + counts
        stages.append(
            self._transform_stage(
                name="input_transform",
                codelets=b_codelets,
                counts=_separable_counts(alpha, alpha),
                n_tasks=prod(grid1),
                read_bytes_per_task=t_elems * s * FLOAT_BYTES,
                write_bytes_per_task=t_elems * s * FLOAT_BYTES,
                scatter_elements=t_elems * blocking.n_blk * blocking.c_blk,
                tasks_per_scatter_range=blocking.n_blk * blocking.c_blk // s,
                scatter_stores_per_task=t_elems,
                grid=grid1,
            )
        )

        # Stage 1b: kernel transform (skipped in FX mode).
        if transform_kernels:
            gridk = (layer.c_in, layer.c_out // s)
            stages.append(
                self._transform_stage(
                    name="kernel_transform",
                    codelets=g_codelets,
                    counts=_separable_counts(fmr.r, alpha),
                    n_tasks=prod(gridk),
                    read_bytes_per_task=fmr.kernel_elements * s * FLOAT_BYTES,
                    write_bytes_per_task=t_elems * s * FLOAT_BYTES,
                    scatter_elements=t_elems * blocking.c_blk * blocking.cprime_blk,
                    tasks_per_scatter_range=blocking.c_blk * blocking.cprime_blk // s,
                    scatter_stores_per_task=t_elems,
                    grid=gridk,
                )
            )

        # Stage 2: batched GEMM.
        stages.append(
            self._gemm_stage(
                t=t_elems, nb=nb, c=layer.c_in, cprime=layer.c_out,
                blocking=blocking,
            )
        )

        # Stage 3: inverse transform.
        grid3 = (layer.batch * n_tiles * (layer.c_out // s),)
        stages.append(
            self._transform_stage(
                name="inverse_transform",
                codelets=a_codelets,
                counts=_separable_counts(alpha, fmr.m),
                n_tasks=prod(grid3),
                read_bytes_per_task=t_elems * s * FLOAT_BYTES,
                write_bytes_per_task=fmr.output_tile_elements * s * FLOAT_BYTES,
                scatter_elements=fmr.output_tile_elements * s,
                tasks_per_scatter_range=1,
                # Unblocked layouts must *gather* the T stage-2 results
                # from T far-apart matrices (the "expensive gathering
                # operations" the custom layout avoids).
                scatter_stores_per_task=t_elems,
                grid=grid3,
            )
        )

        return LayerCost(
            layer=layer.label, fmr=str(fmr), stages=tuple(stages)
        )

    def with_features(self, **changes) -> "WinogradCostModel":
        """A copy with modified execution features (for ablations)."""
        return WinogradCostModel(
            machine=self.machine,
            threads_per_core=self.threads_per_core,
            features=replace(self.features, **changes),
        )


# ----------------------------------------------------------------------
# Algorithm-portfolio cost entries
# ----------------------------------------------------------------------
# One entry per algorithm of :data:`repro.core.portfolio.ALGORITHMS`.
# Every entry returns *model seconds on the given machine* for one warm
# (serving-path) layer invocation, so cross-algorithm comparisons are
# like-with-like: Winograd and FFT are charged without their memoized
# kernel-side work (transform / spectrum), matching what a warm engine
# request executes.


def _portfolio_fmr(layer: ConvLayerSpec) -> FmrSpec:
    """The engine's fixed-policy F(m, r) for an unpinned layer: m = 4
    per dimension when the fp32 accuracy budget allows (alpha <= 8) and
    the output amortizes the tile; m = 2 otherwise."""
    out = tuple(
        i + 2 * p - r + 1
        for i, p, r in zip(layer.image, layer.padding, layer.kernel)
    )
    m = tuple(
        4 if (rd + 3 <= 8 and od >= 4) else 2
        for rd, od in zip(layer.kernel, out)
    )
    return FmrSpec(m=m, r=layer.kernel)


def _portfolio_blocking(layer: ConvLayerSpec, machine: MachineSpec) -> BlockingConfig | None:
    """A legal default stage-2 blocking, or None when the layer's
    channels defeat the cost model's divisibility requirements."""
    s = machine.vector_width
    if layer.c_in % s or layer.c_out % s:
        return None

    def _blk(c: int) -> int:
        cap = min(c, 128)
        for d in range(cap // s * s, 0, -s):
            if c % d == 0:
                return d
        return s

    return BlockingConfig(
        n_blk=30, c_blk=_blk(layer.c_in), cprime_blk=_blk(layer.c_out),
        simd_width=s,
    )


def _winograd_roofline_seconds(
    layer: ConvLayerSpec, fmr: FmrSpec, machine: MachineSpec
) -> float:
    """Roofline fallback for shapes outside :class:`WinogradCostModel`'s
    envelope (channels not divisible by S).

    Counts the three stages' FLOPs explicitly -- separable transforms at
    ``sum(alpha)`` multiplies per tile element and the batched stage-2
    GEMM -- against a conservative efficiency, plus the U/V/X
    intermediate traffic, in the same units as the baseline rooflines.
    """
    memory = MemoryModel(machine)
    padded = tuple(i + 2 * p for i, p in zip(layer.image, layer.padding))
    out_shape = tuple(i - r + 1 for i, r in zip(padded, fmr.r))
    n_tiles = prod(fmr.tile_counts(out_shape))
    nb = n_tiles * layer.batch
    t = fmr.tile_elements
    alpha_sum = sum(fmr.tile_shape)
    gemm_flops = 2.0 * t * nb * layer.c_in * layer.c_out
    transform_flops = 2.0 * t * alpha_sum * nb * (layer.c_in + layer.c_out)
    # Transforms vectorize worse than the GEMM; blend the efficiencies.
    compute_s = (
        gemm_flops / (machine.peak_flops * 0.60)
        + transform_flops / (machine.peak_flops * 0.30)
    )
    intermediate = t * nb * (layer.c_in + 2 * layer.c_out) * FLOAT_BYTES
    in_bytes = layer.batch * layer.c_in * prod(layer.image) * FLOAT_BYTES
    traffic = memory.combine(
        memory.read_traffic(in_bytes + intermediate),
        memory.store_traffic(
            intermediate + layer.output_voxels * FLOAT_BYTES, streaming=False
        ),
    )
    return max(compute_s, traffic.seconds(machine))


def _nested_roofline_seconds(
    layer: ConvLayerSpec, machine: MachineSpec, threads_per_core: int
) -> float:
    """Model seconds for the nested-Winograd decomposition of an r > 3
    layer (:mod:`repro.core.nested`).

    The decomposition runs as ONE channel-stacked r = 3 convolution over
    a ``(B, G*C, out+2, ...)`` input (``G = prod(ceil(r_d/3))``), so its
    cost is the Winograd prediction for that surrogate layer plus the
    stacking pass itself: a streaming gather that reads the zero-extended
    input once per sub-kernel and writes the stacked batch.
    """
    from repro.core.nested import nested_geometry, stacked_input_shape

    geom = nested_geometry(layer.kernel)
    stacked = stacked_input_shape(
        layer.batch, layer.c_in, layer.image, layer.padding, geom
    )
    inner = replace(
        layer,
        c_in=stacked[1],
        image=tuple(stacked[2:]),
        padding=(0,) * layer.ndim,
        kernel=geom.sub_kernel,
    )
    inner_s = predict_algorithm_seconds(
        "winograd", inner, machine, threads_per_core=threads_per_core
    )
    memory = MemoryModel(machine)
    stacked_bytes = prod(stacked) * FLOAT_BYTES
    traffic = memory.combine(
        memory.read_traffic(stacked_bytes),
        memory.store_traffic(stacked_bytes, streaming=True),
    )
    return inner_s + traffic.seconds(machine)


def predict_algorithm_seconds(
    algorithm: str,
    layer: ConvLayerSpec,
    machine: MachineSpec,
    *,
    fmr: FmrSpec | None = None,
    threads_per_core: int = 1,
) -> float:
    """Warm-path model seconds for one layer under ``algorithm``.

    The single entry point the portfolio planner ranks with: every
    algorithm's prediction comes from the same machine description
    (:class:`MachineSpec` + :class:`MemoryModel`), in seconds, for the
    *warm* serving path (kernel-side precomputation memoized).  Raises
    ``ValueError`` for unknown algorithm names; shapes an algorithm
    cannot run should be filtered with ``supports()`` by the caller.
    """
    # Deferred imports: repro.baselines.ours imports this module.
    if algorithm == "winograd":
        spec = fmr if fmr is not None else _portfolio_fmr(layer)
        blocking = _portfolio_blocking(layer, machine)
        if blocking is not None:
            model = WinogradCostModel(machine, threads_per_core=threads_per_core)
            try:
                return model.layer_cost(
                    layer, spec, blocking, transform_kernels=False
                ).seconds
            except ValueError:
                pass
        return _winograd_roofline_seconds(layer, spec, machine)
    if algorithm == "nested":
        return _nested_roofline_seconds(layer, machine, threads_per_core)
    if algorithm == "fft":
        from repro.baselines.fft import FftConvBaseline

        return FftConvBaseline(machine).predicted_seconds(layer, warm=True)
    if algorithm == "direct":
        from repro.baselines.direct import DirectConvBaseline

        return DirectConvBaseline(machine=machine).predicted_seconds(layer)
    if algorithm == "im2col":
        from repro.baselines.im2col import Im2colBaseline

        return Im2colBaseline(machine).predicted_seconds(layer)
    raise ValueError(
        f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
    )
