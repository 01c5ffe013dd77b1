"""One set of Winograd stage bodies for the parallel executors (Sec. 4.5).

In the paper's runtime each pipeline stage has one body, and every
thread runs that body over the slice of the stage's task grid that the
static scheduler assigned it.  This module holds that body once:
:class:`NumpyStages` is the numpy set, with the same signatures as the
compiled C set (:class:`~repro.core.compiled_backend.CompiledStages`),
and :func:`make_stages` picks one of the two.  The module also owns the
pipeline geometry the thread executor
(:mod:`repro.core.parallel_convolution`) is built from: the channel and
blocking checks, the shared buffer shapes, and the per-stage static
schedules.  Because every worker count calls the same bodies over
slices of the same grids, the output does not depend on it.

The shared buffers (all C-contiguous):

* ``padded``    ``(B, C/S, *padded_input, S)`` -- images inside the zero
  halo of conv padding plus the grid's zero extension, in the Table-1
  channel-blocked layout (:func:`~repro.core.layout.pack_padded`),
* ``kernels``   ``(C, C', *r)``,
* ``u``         ``(T, B*N, C)`` -- transformed input tiles,
* ``v``         ``(T, C, C')`` -- transformed kernels,
* ``x``         ``(T, B*N, C')`` -- stage-2 products,
* ``out_tiles`` ``(B, C', *counts, *m)`` -- output tiles before cropping.

Every task of a stage writes a disjoint region of its output buffer,
and each written value depends only on its own task (stage 2 keeps a
fixed block-K accumulation order per output block), so any partition
of a grid fills the buffer bit-for-bit like one full-range call.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.blocking import BlockingConfig
from repro.core.compiled_backend import CompiledStages, get_compiled_stages
from repro.core.convolution import WinogradPlan
from repro.core.layout import ImageLayout
from repro.core.scheduling import (
    GridSlice,
    stage1_grid,
    stage2_grid,
    stage3_grid,
    static_schedule,
)
from repro.core.transforms import transform_tensor
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: Each stage body's buffer operands, in call order (the slice's
#: ``ranges`` follow them).  The order of the keys is the pipeline order.
STAGE_BUFFERS: dict[str, tuple[str, ...]] = {
    "stage1": ("padded", "u"),
    "stage1b": ("kernels", "v"),
    "stage2": ("u", "v", "x"),
    "stage3": ("x", "out_tiles"),
}


def stage_grids(
    plan: WinogradPlan, blocking: BlockingConfig, simd_width: int
) -> dict[str, tuple[int, ...]]:
    """The task grid of every stage, keyed like :data:`STAGE_BUFFERS`."""
    s = simd_width
    return {
        "stage1": stage1_grid(plan.batch, plan.c_in, plan.grid.counts, s),
        "stage1b": (plan.c_in, plan.c_out // s),
        "stage2": stage2_grid(plan.t_matrices, plan.c_out, plan.gemm_rows, blocking),
        "stage3": stage3_grid(plan.batch, plan.tiles_per_image, plan.c_out, s),
    }


def stage_schedules(
    plan: WinogradPlan, blocking: BlockingConfig, simd_width: int, n_workers: int
) -> dict[str, tuple[GridSlice, ...]]:
    """Statically schedule every stage grid over ``n_workers`` (once per
    executor: "compile time"), rejecting channel counts the grids cannot
    tile exactly."""
    s = simd_width
    if plan.c_in % s or plan.c_out % s:
        raise ValueError(
            f"channels ({plan.c_in}, {plan.c_out}) must be divisible by S={s}"
        )
    if plan.c_out % blocking.cprime_blk:
        raise ValueError(
            f"C'={plan.c_out} not divisible by C'_blk={blocking.cprime_blk}"
        )
    if plan.c_in % blocking.c_blk:
        raise ValueError(f"C={plan.c_in} not divisible by C_blk={blocking.c_blk}")
    return {
        name: tuple(static_schedule(grid, n_workers))
        for name, grid in stage_grids(plan, blocking, simd_width).items()
    }


def buffer_shapes(
    plan: WinogradPlan, simd_width: int
) -> dict[str, tuple[int, ...]]:
    """Shapes of the shared pipeline buffers (see the module docstring)."""
    b, c, cp = plan.batch, plan.c_in, plan.c_out
    t, nb = plan.t_matrices, plan.gemm_rows
    pin = plan.grid.padded_input_shape
    return {
        "padded": ImageLayout(b, c, pin, simd_width).stored_shape,
        "kernels": (c, cp) + plan.spec.r,
        "u": (t, nb, c),
        "v": (t, c, cp),
        "x": (t, nb, cp),
        "out_tiles": (b, cp) + plan.grid.counts + plan.spec.m,
    }


def check_inputs(
    plan: WinogradPlan, images: np.ndarray, kernels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cast a request to the plan dtype and check its shapes; the stage
    bodies (the compiled ones index raw pointers) trust both."""
    images = np.asarray(images, dtype=plan.dtype)
    kernels = np.ascontiguousarray(kernels, dtype=plan.dtype)
    if tuple(images.shape) != plan.input_shape:
        raise ValueError(f"images shape {images.shape} != {plan.input_shape}")
    expected = (plan.c_in, plan.c_out) + plan.spec.r
    if tuple(kernels.shape) != expected:
        raise ValueError(f"kernels shape {kernels.shape} != {expected}")
    return images, kernels


class NumpyStages:
    """Vectorized numpy stage bodies over one slice of each stage grid.

    Same call signatures as
    :class:`~repro.core.compiled_backend.CompiledStages`, minus its
    full-range default: every call names its ``ranges``.  Stateless
    after construction, so one instance serves every worker of a pool.
    """

    def __init__(
        self, plan: WinogradPlan, blocking: BlockingConfig, simd_width: int
    ):
        self.plan = plan
        self.blocking = blocking
        self.s = simd_width
        mats = [t.as_arrays(plan.dtype) for t in plan.transforms.dims]
        self.a_mats = [m[0] for m in mats]
        self.b_mats = [m[1] for m in mats]
        self.g_mats = [m[2] for m in mats]

    def stage1(self, padded: np.ndarray, u: np.ndarray, ranges) -> None:
        """Input transform: grid ``B x (C/S) x N_1 x ... x N_n``."""
        if any(b <= a for a, b in ranges):
            return
        plan, s = self.plan, self.s
        spec = plan.spec
        (b0, b1), (cb0, cb1) = ranges[:2]
        tile_ranges = ranges[2:]
        # Flat ids of the slice's tile sub-rectangle, row-major.
        grids = np.meshgrid(
            *[np.arange(a, b) for a, b in tile_ranges], indexing="ij"
        )
        flats = np.ravel_multi_index(
            tuple(g.ravel() for g in grids), plan.grid.counts
        )
        # Tile positions step by m_d over the sliding-window view.
        window_idx = (slice(None),) + tuple(
            slice(a * m, (b - 1) * m + 1, m)
            for (a, b), m in zip(tile_ranges, spec.m)
        )
        t = plan.t_matrices
        for b_idx in range(b0, b1):
            rows = b_idx * plan.tiles_per_image + flats
            for cb in range(cb0, cb1):
                group = np.moveaxis(padded[b_idx, cb], -1, 0)  # (S, *pin)
                view = sliding_window_view(
                    group, spec.tile_shape, axis=tuple(range(1, 1 + spec.ndim))
                )
                tiles = np.ascontiguousarray(view[window_idx])  # (S, *nsub, *T)
                transformed = transform_tensor(tiles, self.b_mats)
                u[:, rows, cb * s : (cb + 1) * s] = (
                    transformed.reshape(s, flats.size, t).transpose(2, 1, 0)
                )

    def stage1b(self, kernels: np.ndarray, v: np.ndarray, ranges) -> None:
        """Kernel transform: grid ``C x (C'/S)``."""
        (c0, c1), (p0, p1) = ranges
        if c1 <= c0 or p1 <= p0:
            return
        s = self.s
        group = kernels[c0:c1, p0 * s : p1 * s]  # (dc, dp*S, *r)
        transformed = transform_tensor(group, self.g_mats)  # (dc, dp*S, *T)
        dc, dps = transformed.shape[:2]
        v[:, c0:c1, p0 * s : p1 * s] = (
            transformed.reshape(dc, dps, self.plan.t_matrices).transpose(2, 0, 1)
        )

    def stage2(self, u: np.ndarray, v: np.ndarray, x: np.ndarray, ranges) -> None:
        """Blocked batched GEMM: grid ``T x (C'/C'_blk) x (NB/n_blk)``,
        accumulating each output block over ``C_blk`` slabs in order."""
        blk = self.blocking
        nb, c_in = self.plan.gemm_rows, self.plan.c_in
        for ti, j, i in product(*(range(a, b) for a, b in ranges)):
            rows = slice(i * blk.n_blk, min((i + 1) * blk.n_blk, nb))
            cols = slice(j * blk.cprime_blk, (j + 1) * blk.cprime_blk)
            acc = None
            for k in range(0, c_in, blk.c_blk):
                ks = slice(k, k + blk.c_blk)
                block = u[ti, rows, ks] @ v[ti, ks, cols]
                acc = block if acc is None else acc + block
            x[ti, rows, cols] = acc

    def stage3(self, x: np.ndarray, out_tiles: np.ndarray, ranges) -> None:
        """Inverse transform: 1-D grid ``B*N*C'/S``, vectorized per
        ``(batch, channel-block)`` run."""
        ((a, b),) = ranges
        if b <= a:
            return
        plan, s = self.plan, self.s
        n = plan.tiles_per_image
        cp_blocks = plan.c_out // s
        b_all, rem = np.divmod(np.arange(a, b), n * cp_blocks)
        tile_all, cpb_all = np.divmod(rem, cp_blocks)
        for b_idx in np.unique(b_all):
            in_b = b_all == b_idx
            for cpb in np.unique(cpb_all[in_b]):
                tiles_f = tile_all[in_b & (cpb_all == cpb)]
                rows = b_idx * n + tiles_f
                group = x[:, rows, cpb * s : (cpb + 1) * s]  # (T, k, S)
                tiles = group.transpose(1, 2, 0).reshape(
                    (tiles_f.size, s) + plan.spec.tile_shape
                )
                inv = transform_tensor(tiles, self.a_mats)  # (k, S, *m)
                tidx = np.unravel_index(tiles_f, plan.grid.counts)
                # Scalar b_idx + the tile index arrays are non-adjacent
                # advanced indices, so the broadcast (k,) axis leads the
                # indexing result: shape (k, S, *m), matching inv directly.
                out_tiles[(b_idx, slice(cpb * s, (cpb + 1) * s)) + tidx] = inv


def make_stages(
    plan: WinogradPlan,
    blocking: BlockingConfig,
    simd_width: int,
    use_compiled: bool,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> NumpyStages | CompiledStages:
    """The stage set an executor runs: the compiled C codelets (raising
    :class:`~repro.core.compiled_backend.CompilerUnavailableError`
    without a toolchain) or the numpy bodies."""
    if use_compiled:
        return get_compiled_stages(
            plan, blocking, simd_width, tracer=tracer, metrics=metrics
        )
    return NumpyStages(plan, blocking, simd_width)
