"""im2col + GEMM convolution (the classic lowering approach).

Not a Fig. 5 column by itself, but the substrate behind cuDNN's
"matrix-multiply based" 3D convolution and a useful CPU reference point:
it pays a ``prod(r)``-fold expansion of the input in memory traffic in
exchange for running one large, regular GEMM.
"""

from __future__ import annotations

from itertools import product
from math import prod

import numpy as np

from repro.baselines.base import ConvImplementation
from repro.machine.memory import MemoryModel
from repro.machine.spec import KNL_7210, MachineSpec
from repro.nets.layers import ConvLayerSpec
from repro.nets.reference import output_shape, pad_images


def im2col(images: np.ndarray, kernel: tuple[int, ...]) -> np.ndarray:
    """Lower ``(B, C, *spatial)`` to per-sample patch matrices.

    Returns ``(B, C * prod(kernel), prod(out))`` where column ``pos`` of
    sample ``b`` holds the receptive field of output position ``pos``;
    its transpose is that sample's ``(P, C * prod(kernel))`` patch matrix.
    """
    ndim = images.ndim - 2
    if len(kernel) != ndim:
        raise ValueError(f"kernel rank {len(kernel)} != spatial rank {ndim}")
    b, c = images.shape[:2]
    out = output_shape(images.shape[2:], kernel)
    cols = np.empty((b, c, prod(kernel), prod(out)), dtype=images.dtype)
    for idx, offset in enumerate(product(*(range(k) for k in kernel))):
        window = images[
            (slice(None), slice(None))
            + tuple(slice(o, o + e) for o, e in zip(offset, out))
        ]
        cols[:, :, idx, :] = window.reshape(b, c, -1)
    return cols.reshape(b, c * prod(kernel), prod(out))


def gemm_operand(kernels: np.ndarray) -> np.ndarray:
    """Kernels reshaped to the ``(C * prod(r), C')`` GEMM operand.

    Pure layout work, but contiguous-copy work the warm serving path
    should not repeat -- the engine memoizes it per kernel fingerprint.
    """
    c, cprime = kernels.shape[:2]
    r = kernels.shape[2:]
    return np.ascontiguousarray(
        kernels.reshape(c, cprime, prod(r)).transpose(0, 2, 1).reshape(
            c * prod(r), cprime
        )
    )


def im2col_convolution(
    images: np.ndarray,
    kernels: np.ndarray | None = None,
    padding: tuple[int, ...] | None = None,
    *,
    operand: np.ndarray | None = None,
    kernel: tuple[int, ...] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Convolution by explicit lowering + one GEMM per sample.

    Each sample is one ``(P, C*K) @ (C*K, C')`` GEMM on the transposed
    view of its patch columns, so neither a GEMM's shape nor its operand
    layout depends on the batch size: BLAS kernel selection varies with
    both, and a batch-folded GEMM can round differently than the same
    sample computed alone.  Batched results are therefore bitwise
    identical to per-sample runs.  A precomputed ``operand`` (from
    :func:`gemm_operand`, with the matching ``kernel`` extent) skips the
    kernel reshape; ``out`` receives the result in place.
    """
    ndim = images.ndim - 2
    if padding is None:
        padding = (0,) * ndim
    padded = pad_images(images, padding)
    if operand is None:
        if kernels is None:
            raise ValueError("need kernels or a precomputed GEMM operand")
        r = kernels.shape[2:]
        cprime = kernels.shape[1]
        w = gemm_operand(kernels)
    else:
        if kernel is None:
            raise ValueError("a precomputed operand needs the kernel extent")
        r = tuple(kernel)
        cprime = operand.shape[1]
        w = operand
    out_spatial = output_shape(padded.shape[2:], r)
    b = images.shape[0]
    cols = im2col(padded, r)  # (B, C*K, P)
    flat = np.empty((b, cols.shape[2], cprime), np.result_type(cols, w))
    for i in range(b):
        np.matmul(cols[i].T, w, out=flat[i])  # (P, C*K) @ (C*K, C')
    result = np.moveaxis(flat.reshape((b,) + out_spatial + (cprime,)), -1, 1)
    return ConvImplementation.finish(result, out)


class Im2colBaseline(ConvImplementation):
    """Roofline model of im2col + large-GEMM convolution."""

    name = "im2col+GEMM"

    def __init__(self, machine: MachineSpec = KNL_7210, gemm_efficiency: float = 0.80):
        self.machine = machine
        self.gemm_efficiency = gemm_efficiency
        self._memory = MemoryModel(machine)

    def supports(self, layer: ConvLayerSpec) -> None:
        return None

    def predicted_seconds(self, layer: ConvLayerSpec) -> float:
        flops = layer.direct_flops()
        compute_s = flops / (self.machine.peak_flops * self.gemm_efficiency)
        # The lowering writes (and the GEMM re-reads) the expanded matrix.
        patch_bytes = (
            layer.batch * prod(layer.output_image) * layer.c_in
            * prod(layer.kernel) * 4
        )
        traffic = self._memory.combine(
            self._memory.store_traffic(patch_bytes, streaming=False),
            self._memory.read_traffic(patch_bytes),
            self._memory.store_traffic(layer.output_voxels * 4, streaming=False),
        )
        return max(compute_s, traffic.seconds(self.machine))

    def prepare_kernels(self, kernels: np.ndarray, layer: ConvLayerSpec):
        return gemm_operand(np.asarray(kernels))

    def execute_prepared(self, images, prepared, layer, out=None):
        return im2col_convolution(
            images, padding=layer.padding, operand=prepared,
            kernel=layer.kernel, out=out,
        )

    def execute(self, images, kernels, layer, out=None):
        self.check_layer_arrays(images, kernels, layer)
        return im2col_convolution(
            images.astype(np.float32), kernels.astype(np.float32),
            layer.padding, out=out,
        )
