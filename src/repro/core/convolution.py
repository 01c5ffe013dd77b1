"""The three-stage N-dimensional Winograd convolution (paper Fig. 1).

Stage 1 transforms input-image tiles (mode-n products with ``B``) and
kernels (mode-n products with ``G``); stage 2 performs ``T`` independent
matrix multiplications of ``(N*B) x C`` by ``C x C'`` matrices (Sec. 3.3);
stage 3 applies the inverse transform (``A``) and assembles the output
tiles.

The numerical pipeline here is the real algorithm executed with numpy;
the performance-engineering aspects (custom layouts, codelets, JIT GEMM,
static scheduling) live in sibling modules and are composed by
:class:`WinogradPlan` through injection points, so each optimization can
be enabled, disabled or ablated independently -- mirroring the paper's
"system of many parts" design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.fmr import FmrSpec
from repro.core.tiling import TileGrid, assemble_output, extract_tiles, plan_tiles
from repro.core.transforms import TransformND, transform_tensor, winograd_nd
from repro.nets.reference import output_shape, pad_images

#: Batched GEMM signature: (T, NB, C) x (T, C, C') -> (T, NB, C').
GemmFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _default_gemm(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.matmul(u, v)


def _check_out(out: np.ndarray, shape: tuple[int, ...], dtype: np.dtype) -> None:
    if tuple(out.shape) != tuple(shape) or out.dtype != dtype:
        raise ValueError(
            f"out buffer has shape {out.shape}/{out.dtype}, expected {shape}/{dtype}"
        )


@dataclass(frozen=True)
class TransformedKernels:
    """Memoized kernel transforms for inference-only execution.

    The paper's "FX" columns (Fig. 5) omit the kernel-transformation work
    by reusing these across invocations, since kernel values do not change
    at inference time (Sec. 4.2, "Inference only").
    """

    spec: FmrSpec
    data: np.ndarray  # (T, C, C')

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def cprime(self) -> int:
        return self.data.shape[2]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


@dataclass
class WinogradPlan:
    """A planned Winograd convolution for fixed shapes (compile-time view).

    The paper instantiates templated C++ for each layer shape; this class
    is the Python analog -- shape checks, transform matrices and the tile
    grid are resolved once and reused across executions.

    Parameters
    ----------
    spec:
        The ``F(m, r)`` operation.
    input_shape:
        ``(B, C, *spatial)`` of the (unpadded) input batch.
    c_out:
        Number of output channels ``C'``.
    padding:
        Symmetric convolution padding per spatial dimension.
    dtype:
        Compute dtype for transforms and GEMM (paper: float32).
    gemm:
        Optional batched GEMM override (e.g. the blocked engine of
        :mod:`repro.core.gemm`).
    """

    spec: FmrSpec
    input_shape: tuple[int, ...]
    c_out: int
    padding: tuple[int, ...]
    dtype: np.dtype = np.dtype(np.float32)
    gemm: GemmFn = field(default=_default_gemm)

    transforms: TransformND = field(init=False)
    grid: TileGrid = field(init=False)

    def __post_init__(self) -> None:
        self.dtype = np.dtype(self.dtype)
        ndim = self.spec.ndim
        if len(self.input_shape) != ndim + 2:
            raise ValueError(
                f"input_shape {self.input_shape} must be (B, C, *spatial) "
                f"with {ndim} spatial dims"
            )
        if len(self.padding) != ndim:
            raise ValueError(
                f"padding {self.padding} must have {ndim} entries"
            )
        if self.c_out < 1:
            raise ValueError(f"c_out must be positive, got {self.c_out}")
        spatial = self.input_shape[2:]
        # Validates kernel-vs-image extents as a side effect.
        out = output_shape(spatial, self.spec.r, self.padding)
        self.transforms = winograd_nd(self.spec)
        padded_spatial = tuple(s + 2 * p for s, p in zip(spatial, self.padding))
        self.grid = plan_tiles(self.spec, padded_spatial)
        assert self.grid.output_shape == out

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def batch(self) -> int:
        return self.input_shape[0]

    @property
    def c_in(self) -> int:
        return self.input_shape[1]

    @property
    def tiles_per_image(self) -> int:
        """``N`` of Sec. 3.3."""
        return self.grid.total_tiles

    @property
    def t_matrices(self) -> int:
        """``T`` -- number of independent GEMMs in stage 2."""
        return self.spec.tile_elements

    @property
    def gemm_rows(self) -> int:
        """``N*B`` -- rows of the tall-skinny stage-2 matrices."""
        return self.tiles_per_image * self.batch

    @property
    def output_batch_shape(self) -> tuple[int, ...]:
        return (self.batch, self.c_out) + self.grid.output_shape

    # ------------------------------------------------------------------
    # Stage 1a: input transform
    # ------------------------------------------------------------------
    def transform_input(
        self, images: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Transform image tiles; returns ``(T, N*B, C)`` (operations 1-2).

        Layout note: the row index is ``n' = b*N + n`` exactly as in
        Table 1, so rows of the stage-2 matrices enumerate tiles of batch
        element 0 first, then batch element 1, etc.

        ``out``, when given, receives the result (e.g. an arena view from
        :class:`repro.core.engine.WorkspaceArena`) instead of a fresh
        allocation.
        """
        if tuple(images.shape) != self.input_shape:
            raise ValueError(
                f"images shape {images.shape} != planned {self.input_shape}"
            )
        images = images.astype(self.dtype, copy=False)
        padded = pad_images(images, self.padding)
        tiles = extract_tiles(padded, self.grid)  # (B, C, *counts, *T)
        b_mats = [t.as_arrays(self.dtype)[1] for t in self.transforms.dims]
        transformed = transform_tensor(tiles, b_mats)  # same shape
        b, c = transformed.shape[:2]
        n = self.tiles_per_image
        t = self.t_matrices
        # (B, C, N, T) -> (T, B*N, C)
        flat = transformed.reshape(b, c, n, t).transpose(3, 0, 2, 1).reshape(t, b * n, c)
        if out is None:
            return np.ascontiguousarray(flat)
        _check_out(out, (t, b * n, c), self.dtype)
        np.copyto(out, flat)
        return out

    # ------------------------------------------------------------------
    # Stage 1b: kernel transform
    # ------------------------------------------------------------------
    def transform_kernels(self, kernels: np.ndarray) -> TransformedKernels:
        """Transform kernels; returns ``(T, C, C')`` (operations 3-4)."""
        expected = (self.c_in, self.c_out) + self.spec.r
        if tuple(kernels.shape) != expected:
            raise ValueError(
                f"kernels shape {kernels.shape} != expected {expected}"
            )
        kernels = kernels.astype(self.dtype, copy=False)
        g_mats = [t.as_arrays(self.dtype)[2] for t in self.transforms.dims]
        transformed = transform_tensor(kernels, g_mats)  # (C, C', *T)
        c, cp = transformed.shape[:2]
        flat = transformed.reshape(c, cp, self.t_matrices)
        return TransformedKernels(
            spec=self.spec, data=np.ascontiguousarray(flat.transpose(2, 0, 1))
        )

    # ------------------------------------------------------------------
    # Stage 2: batched matrix multiplication
    # ------------------------------------------------------------------
    def multiply(
        self, u: np.ndarray, w: TransformedKernels, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``T`` GEMMs of ``(N*B) x C`` by ``C x C'`` (operation 5)."""
        if w.spec != self.spec:
            raise ValueError(
                f"kernel transforms were built for {w.spec}, plan uses {self.spec}"
            )
        if w.c != self.c_in or w.cprime != self.c_out:
            raise ValueError(
                f"kernel transform channels ({w.c}, {w.cprime}) != plan "
                f"({self.c_in}, {self.c_out})"
            )
        if out is None:
            return self.gemm(u, w.data)
        _check_out(out, (self.t_matrices, self.gemm_rows, self.c_out), self.dtype)
        if self.gemm is _default_gemm:
            return np.matmul(u, w.data, out=out)
        np.copyto(out, self.gemm(u, w.data))
        return out

    # ------------------------------------------------------------------
    # Stage 3: inverse transform
    # ------------------------------------------------------------------
    def inverse_transform(
        self, x: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Invert ``(T, N*B, C')`` to the ``(B, C', *out)`` batch (op. 6-7)."""
        t = self.t_matrices
        nb = self.gemm_rows
        if x.shape != (t, nb, self.c_out):
            raise ValueError(
                f"stage-2 result has shape {x.shape}, expected {(t, nb, self.c_out)}"
            )
        b, n = self.batch, self.tiles_per_image
        # (T, B*N, C') -> (B, C', N, *tile_shape)
        tiles = x.reshape(t, b, n, self.c_out).transpose(1, 3, 2, 0)
        tiles = tiles.reshape((b, self.c_out) + self.grid.counts + self.spec.tile_shape)
        a_mats = [tr.as_arrays(self.dtype)[0] for tr in self.transforms.dims]
        out_tiles = transform_tensor(tiles, a_mats)  # (B, C', *counts, *m)
        assembled = assemble_output(out_tiles, self.grid)
        if out is None:
            return assembled
        _check_out(out, assembled.shape, self.dtype)
        np.copyto(out, assembled)
        return out

    # ------------------------------------------------------------------
    # Workspace accounting (paper Sec. 4.4, "Memory overhead")
    # ------------------------------------------------------------------
    def workspace_bytes(self, itemsize: int = 4) -> dict[str, int]:
        """Auxiliary buffer sizes for one execution.

        The algorithm needs temporaries for the image transforms (``U``),
        the kernel transforms (``V``), the matrix-multiply results
        (``I'_tmp``/``X``) and the assembled output tiles.  The paper
        notes the same buffer is reused for every layer, so a network's
        workspace is the maximum over its layers (see
        :func:`max_workspace_bytes`).
        """
        t = self.t_matrices
        u = t * self.gemm_rows * self.c_in * itemsize
        v = t * self.c_in * self.c_out * itemsize
        x = t * self.gemm_rows * self.c_out * itemsize
        out_tiles = (
            self.batch * self.c_out
            * self.tiles_per_image * self.spec.output_tile_elements * itemsize
        )
        return {"U": u, "V": v, "X": x, "output_tiles": out_tiles,
                "total": u + v + x + out_tiles}

    # ------------------------------------------------------------------
    # Whole pipeline
    # ------------------------------------------------------------------
    def execute(
        self, images: np.ndarray, kernels: np.ndarray | TransformedKernels
    ) -> np.ndarray:
        """Run all three stages.

        Passing a :class:`TransformedKernels` skips the kernel transform
        (the paper's inference-only "FX" mode).
        """
        if isinstance(kernels, TransformedKernels):
            w = kernels
        else:
            w = self.transform_kernels(np.asarray(kernels))
        u = self.transform_input(np.asarray(images))
        x = self.multiply(u, w)
        return self.inverse_transform(x)


def max_workspace_bytes(plans: list["WinogradPlan"], itemsize: int = 4) -> int:
    """Shared auxiliary buffer for a whole network (Sec. 4.4): the same
    workspace is reused across layers, so its size is the per-layer
    maximum, a small fraction of a deep network's activation memory."""
    if not plans:
        raise ValueError("need at least one plan")
    return max(p.workspace_bytes(itemsize)["total"] for p in plans)


def winograd_convolution(
    images: np.ndarray,
    kernels: np.ndarray,
    fmr: FmrSpec | str | None = None,
    padding: tuple[int, ...] | None = None,
    dtype=np.float32,
    gemm: GemmFn | None = None,
) -> np.ndarray:
    """One-shot N-D Winograd convolution (builds a plan and executes it).

    Parameters
    ----------
    images:
        ``(B, C, *spatial)`` batch.
    kernels:
        ``(C, C', *r)`` kernel bank.
    fmr:
        The ``F(m, r)`` to use; a spec, a string like ``"F(4x4,3x3)"``, or
        ``None`` to default to ``m = 2`` per dimension with the kernel's
        ``r`` (the most conservative choice numerically).
    padding:
        Symmetric convolution padding (default: zero).
    dtype:
        Compute dtype (paper: float32).
    gemm:
        Optional batched-GEMM override.

    Returns
    -------
    ``(B, C', *out)`` output batch, same semantics as
    :func:`repro.nets.reference.direct_convolution`.
    """
    images = np.asarray(images)
    kernels = np.asarray(kernels)
    ndim = images.ndim - 2
    r = kernels.shape[2:]
    if isinstance(fmr, str):
        spec = FmrSpec.parse(fmr)
    elif fmr is None:
        spec = FmrSpec(m=(2,) * ndim, r=tuple(r))
    else:
        spec = fmr
    if spec.r != tuple(r):
        raise ValueError(f"spec kernel size {spec.r} != kernels' spatial shape {tuple(r)}")
    if padding is None:
        padding = (0,) * ndim
    plan = WinogradPlan(
        spec=spec,
        input_shape=tuple(images.shape),
        c_out=kernels.shape[1],
        padding=tuple(padding),
        dtype=np.dtype(dtype),
        gemm=gemm if gemm is not None else _default_gemm,
    )
    return plan.execute(images, kernels)
