"""The full blocked dataflow: Table-1 layouts + codelets + JIT GEMM.

:class:`repro.core.convolution.WinogradPlan` executes the algorithm with
plain numpy tensors -- ideal for verification.  This module is the
*deployment-shaped* executor: data flows through the exact memory
layouts of paper Table 1, transforms run through the generated codelets,
and stage 2 consumes the packed arrays block-by-block through the
:class:`~repro.core.jit_gemm.JitGemm` kernel cache -- the same loop
structure, block shapes and kernel instantiation policy as the paper's
implementation.

The two executors are verified bit-compatible up to float rounding
(``tests/test_blocked_pipeline.py``), which is the repository's evidence
that the paper's layout/JIT machinery computes the same function as the
textbook algorithm.

Layout contract (Sec. 4.1): a layer's packed output is directly the next
layer's packed input -- :meth:`BlockedWinogradExecutor.execute_packed`
consumes and produces :class:`~repro.core.layout.ImageLayout` arrays, so
chained layers never reshuffle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from repro.core.blocking import BlockingConfig
from repro.core.codelets import Codelet, apply_codelet_along_axis, generate_codelet
from repro.core.convolution import WinogradPlan
from repro.core.jit_gemm import JitGemm
from repro.core.layout import (
    ImageLayout,
    KernelLayout,
    TransformedImageLayout,
    TransformedKernelLayout,
    transformed_output_layout,
)
from repro.core.tiling import extract_tiles
from repro.nets.reference import pad_images


@dataclass
class BlockedWinogradExecutor:
    """Executes a :class:`WinogradPlan` through the blocked layouts.

    Parameters
    ----------
    plan:
        The planned convolution (shapes, transforms, tile grid).
    blocking:
        Stage-2 blocking; ``C`` and ``C'`` must be divisible by
        ``C_blk`` / ``C'_blk`` and by the SIMD width.
    """

    plan: WinogradPlan
    blocking: BlockingConfig

    jit: JitGemm = field(default_factory=JitGemm)

    def __post_init__(self) -> None:
        plan, blk = self.plan, self.blocking
        s = blk.simd_width
        if plan.c_in % s or plan.c_out % s:
            raise ValueError(
                f"channels ({plan.c_in}, {plan.c_out}) must be divisible by S={s}"
            )
        if plan.c_in % blk.c_blk or plan.c_out % blk.cprime_blk:
            raise ValueError(
                f"blocking {blk.c_blk}x{blk.cprime_blk} does not divide "
                f"channels ({plan.c_in}, {plan.c_out})"
            )
        spatial = plan.input_shape[2:]
        self.image_layout = ImageLayout(
            batch=plan.batch, channels=plan.c_in, spatial=spatial, simd_width=s
        )
        self.kernel_layout = KernelLayout(
            c_in=plan.c_in, c_out=plan.c_out, kernel=plan.spec.r, simd_width=s
        )
        self.u_layout = TransformedImageLayout(
            nb=plan.gemm_rows, channels=plan.c_in, t=plan.t_matrices, blocking=blk
        )
        self.v_layout = TransformedKernelLayout(
            channels=plan.c_in, c_out=plan.c_out, t=plan.t_matrices, blocking=blk
        )
        self.x_layout = transformed_output_layout(
            nb=plan.gemm_rows, c_out=plan.c_out, t=plan.t_matrices, blocking=blk
        )
        self.output_layout = ImageLayout(
            batch=plan.batch, channels=plan.c_out,
            spatial=plan.grid.output_shape, simd_width=s,
        )
        # Codelets for the three transform stages (Sec. 4.2.1); generated
        # once at executor construction ("instantiation/compile time").
        self._b_codelets: list[Codelet] = [
            generate_codelet(t.b, name="b_codelet") for t in plan.transforms.dims
        ]
        self._g_codelets: list[Codelet] = [
            generate_codelet(t.g, name="g_codelet") for t in plan.transforms.dims
        ]
        self._a_codelets: list[Codelet] = [
            generate_codelet(t.a, name="a_codelet") for t in plan.transforms.dims
        ]

    # ------------------------------------------------------------------
    # Stage 1a: input transform into the U layout
    # ------------------------------------------------------------------
    def transform_input_packed(self, packed_images: np.ndarray) -> np.ndarray:
        """Packed image layout -> packed transformed-input layout."""
        plan = self.plan
        images = self.image_layout.unpack(packed_images).astype(plan.dtype, copy=False)
        padded = pad_images(images, plan.padding)
        tiles = extract_tiles(padded, plan.grid)  # (B, C, *counts, *T)
        out = tiles
        ndim = plan.spec.ndim
        for d, codelet in enumerate(self._b_codelets):
            out = apply_codelet_along_axis(codelet, out, tensor_axis(d, ndim, out.ndim))
        b, c = out.shape[:2]
        n, t = plan.tiles_per_image, plan.t_matrices
        flat = out.reshape(b, c, n, t).transpose(3, 0, 2, 1).reshape(t, b * n, c)
        return self.u_layout.pack(np.ascontiguousarray(flat))

    # ------------------------------------------------------------------
    # Stage 1b: kernel transform into the V layout
    # ------------------------------------------------------------------
    def transform_kernels_packed(self, packed_kernels: np.ndarray) -> np.ndarray:
        """Packed kernel layout -> packed transformed-kernel layout."""
        plan = self.plan
        kernels = self.kernel_layout.unpack(packed_kernels).astype(
            plan.dtype, copy=False
        )
        out = kernels
        ndim = plan.spec.ndim
        for d, codelet in enumerate(self._g_codelets):
            out = apply_codelet_along_axis(codelet, out, tensor_axis(d, ndim, out.ndim))
        c, cp = out.shape[:2]
        flat = out.reshape(c, cp, plan.t_matrices).transpose(2, 0, 1)
        return self.v_layout.pack(np.ascontiguousarray(flat))

    # ------------------------------------------------------------------
    # Stage 2: blocked GEMM directly on the packed arrays
    # ------------------------------------------------------------------
    def multiply_packed(self, u_packed: np.ndarray, v_packed: np.ndarray) -> np.ndarray:
        """Stage-2 blocked GEMM on the packed arrays: the Fig. 3 loop nest.

        For each ``(t, j)`` the stationary ``V_kj`` block is multiplied
        against every row block ``i`` through the JIT kernel cache
        (``beta = 0`` on the first ``k``, 1 after).  This is the loop the
        machine simulator instruments.
        """
        if tuple(u_packed.shape) != self.u_layout.stored_shape:
            raise ValueError(
                f"U has shape {u_packed.shape}, expected {self.u_layout.stored_shape}"
            )
        if tuple(v_packed.shape) != self.v_layout.stored_shape:
            raise ValueError(
                f"V has shape {v_packed.shape}, expected {self.v_layout.stored_shape}"
            )
        x = np.empty(self.x_layout.stored_shape, dtype=u_packed.dtype)
        blk = self.blocking
        rb = self.u_layout.row_blocks
        kb = self.plan.c_in // blk.c_blk
        jb = self.plan.c_out // blk.cprime_blk
        t = self.plan.t_matrices
        kern0 = self.jit.kernel(blk.n_blk, blk.c_blk, blk.cprime_blk, 0)
        kern1 = self.jit.kernel(blk.n_blk, blk.c_blk, blk.cprime_blk, 1)
        for ti in range(t):
            for j in range(jb):
                for k in range(kb):
                    v_kj = v_packed[k, j, ti]  # (C_blk, C'_blk), contiguous
                    kern = kern0 if k == 0 else kern1
                    for i in range(rb):
                        kern(x[i, j, ti], u_packed[i, k, ti], v_kj)
        return x

    # ------------------------------------------------------------------
    # Stage 3: inverse transform into the packed output layout
    # ------------------------------------------------------------------
    def inverse_transform_packed(self, x_packed: np.ndarray) -> np.ndarray:
        from repro.core.tiling import assemble_output

        plan = self.plan
        flat = self.x_layout.unpack(x_packed)  # (T, NB, C')
        t, b, n = plan.t_matrices, plan.batch, plan.tiles_per_image
        tiles = flat.reshape(t, b, n, plan.c_out).transpose(1, 3, 2, 0)
        tiles = tiles.reshape(
            (b, plan.c_out) + plan.grid.counts + plan.spec.tile_shape
        )
        out = tiles
        ndim = plan.spec.ndim
        for d, codelet in enumerate(self._a_codelets):
            out = apply_codelet_along_axis(codelet, out, tensor_axis(d, ndim, out.ndim))
        assembled = assemble_output(out, plan.grid)
        return self.output_layout.pack(assembled)

    # ------------------------------------------------------------------
    def execute_packed(
        self, packed_images: np.ndarray, packed_kernels: np.ndarray
    ) -> np.ndarray:
        """Packed-in, packed-out execution (layer-chaining contract)."""
        u = self.transform_input_packed(packed_images)
        v = self.transform_kernels_packed(packed_kernels)
        x = self.multiply_packed(u, v)
        return self.inverse_transform_packed(x)

    def execute(self, images: np.ndarray, kernels: np.ndarray) -> np.ndarray:
        """Plain-tensor convenience wrapper (packs, executes, unpacks)."""
        packed_i = self.image_layout.pack(np.asarray(images, dtype=self.plan.dtype))
        packed_k = self.kernel_layout.pack(np.asarray(kernels, dtype=self.plan.dtype))
        packed_out = self.execute_packed(packed_i, packed_k)
        return self.output_layout.unpack(packed_out)


def tensor_axis(spatial_dim: int, ndim: int, tensor_ndim: int) -> int:
    """Axis of spatial dimension ``spatial_dim`` counting from the back."""
    return tensor_ndim - ndim + spatial_dim
