"""Nested Winograd convolution for large kernels (r > 3).

One-level ``F(m, r)`` specs become numerically useless past r = 3/5: the
Vandermonde interpolation points blow float32 error past 1e-2 (Table 3).
Nested Winograd (arXiv 2102.13272) sidesteps that by *decomposing* an
``r > 3`` kernel into a grid of r = 3 sub-kernels, each convolved with a
correspondingly shifted view of the input, and accumulating the shifted
partial outputs.  Every sub-convolution uses only the well-conditioned
``F(m, 3)`` transforms, so the float32 error stays near the single-level
r = 3 budget regardless of the true kernel extent.

The decomposition used here folds the whole sub-kernel grid into ONE
r = 3 convolution via channel stacking.  Per dimension ``d``::

    g_d = ceil(r_d / 3)          sub-kernels, kernel zero-padded to R_d = 3 g_d
    out_d = in_d + 2 p_d - r_d + 1

With ``P`` the input zero-extended to ``in_d + 2 p_d + (R_d - r_d)`` and
``j`` ranging over the ``G = prod(g_d)`` grid::

    out[n] = sum_j conv3_valid( P[3 j + n : 3 j + n + 3], w_j )[n]

where ``w_j`` holds kernel taps ``[3 j_d, 3 j_d + 3)``.  Concatenating the
``G`` shifted input views along the channel axis -- giving a
``(B, G*C, out_1 + 2, ..., out_N + 2)`` batch -- and the sub-kernels along
``c_in`` -- giving a ``(G*C, C', 3, ..., 3)`` bank -- turns the entire
nested convolution into a *single* zero-padding r = 3 Winograd
convolution: the accumulation over sub-kernels rides for free in
stage 2's channel reduction, which keeps the result bitwise-deterministic
per backend and lets the executor reuse the existing ``WinogradPlan``,
arena, plan cache and every engine backend unchanged.

The price is input expansion: the stacked batch is ``G``x the output
footprint (9x for a 7x7 2D kernel) -- far below im2col's ``r^N``x (49x)
-- in exchange for running the best-optimized r = 3 hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, prod
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.baselines.base import UnsupportedLayer
from repro.core.engine import PlanEntry
from repro.core.fmr import FmrSpec
from repro.nets.reference import output_shape

if TYPE_CHECKING:
    from repro.core.engine import ConvolutionEngine, PlanKey
    from repro.nets.layers import ConvLayerSpec

#: Extent of every sub-kernel; the only kernel size with exact, cheap,
#: well-conditioned Winograd transforms across the m range used here.
SUB_R = 3


def nested_supported(kernel: tuple[int, ...]) -> bool:
    """Whether the nested decomposition applies (some dimension has r > 3).

    Kernels that fit a single r <= 3 convolution gain nothing from
    nesting (the decomposition degenerates to one zero-padded sub-kernel)
    and are excluded so ``nested`` never competes on plain r = 3 layers.
    """
    return all(r >= 1 for r in kernel) and max(kernel) > SUB_R


@dataclass(frozen=True)
class NestedGeometry:
    """Static shape algebra of one nested decomposition."""

    r: tuple[int, ...]  #: true kernel extent per dimension
    grid: tuple[int, ...]  #: g_d = ceil(r_d / 3) sub-kernels per dimension
    padded_r: tuple[int, ...]  #: zero-padded kernel extent R_d = 3 g_d

    @property
    def ndim(self) -> int:
        return len(self.r)

    @property
    def subkernels(self) -> int:
        """G — total sub-kernel count (channel expansion factor)."""
        return prod(self.grid)

    @property
    def sub_kernel(self) -> tuple[int, ...]:
        return (SUB_R,) * self.ndim


def nested_geometry(kernel: tuple[int, ...]) -> NestedGeometry:
    if not nested_supported(kernel):
        raise UnsupportedLayer(
            f"nested winograd needs max(r) > {SUB_R}, got kernel {kernel}"
        )
    grid = tuple(ceil(r / SUB_R) for r in kernel)
    return NestedGeometry(
        r=tuple(kernel), grid=grid, padded_r=tuple(SUB_R * g for g in grid)
    )


def stack_kernels(kernels: np.ndarray, geom: NestedGeometry) -> np.ndarray:
    """``(C, C', *r)`` kernel bank -> ``(G*C, C', 3, ..., 3)`` stacked bank.

    Sub-kernel block ``j`` (row-major over ``geom.grid``) holds taps
    ``[3 j_d, 3 j_d + 3)`` of the zero-padded kernel; missing taps stay
    zero, which is what makes non-multiple-of-3 extents exact.
    """
    c_in, c_out = kernels.shape[0], kernels.shape[1]
    padded = np.zeros((c_in, c_out) + geom.padded_r, dtype=kernels.dtype)
    padded[(slice(None), slice(None)) + tuple(slice(0, r) for r in geom.r)] = kernels
    stacked = np.empty(
        (geom.subkernels * c_in, c_out) + geom.sub_kernel, dtype=kernels.dtype
    )
    for idx, j in enumerate(np.ndindex(*geom.grid)):
        window = tuple(slice(SUB_R * jd, SUB_R * jd + SUB_R) for jd in j)
        stacked[idx * c_in : (idx + 1) * c_in] = padded[
            (slice(None), slice(None)) + window
        ]
    return stacked


def stacked_input_shape(
    batch: int,
    c_in: int,
    spatial: tuple[int, ...],
    padding: tuple[int, ...],
    geom: NestedGeometry,
) -> tuple[int, ...]:
    """Shape of the channel-stacked input: ``(B, G*C, out_1+2, ...)``."""
    out = output_shape(spatial, geom.r, padding)
    return (batch, geom.subkernels * c_in) + tuple(o + SUB_R - 1 for o in out)


def stack_input(
    images: np.ndarray,
    geom: NestedGeometry,
    padding: tuple[int, ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``(B, C, *spatial)`` batch -> ``(B, G*C, out_1+2, ...)`` stacked batch.

    Block ``j`` of the channel axis is the view of the zero-extended
    input shifted by ``3 j_d`` per dimension — exactly the window its
    sub-kernel convolves.  ``out`` may supply the destination buffer
    (e.g. an arena lease); it must already have the stacked shape.
    """
    batch, c_in = images.shape[0], images.shape[1]
    spatial = tuple(images.shape[2:])
    shape = stacked_input_shape(batch, c_in, spatial, padding, geom)
    if out is None:
        out = np.empty(shape, dtype=images.dtype)
    elif tuple(out.shape) != shape or out.dtype != images.dtype:
        raise ValueError(
            f"stacked buffer mismatch: want {shape} {images.dtype}, "
            f"got {tuple(out.shape)} {out.dtype}"
        )
    # Zero-extended input P: conv padding in front, conv padding plus the
    # kernel's zero-tap slack (R - r) behind.
    ext_shape = (batch, c_in) + tuple(
        s + 2 * p + (R - r)
        for s, p, R, r in zip(spatial, padding, geom.padded_r, geom.r)
    )
    ext = np.zeros(ext_shape, dtype=images.dtype)
    interior = (slice(None), slice(None)) + tuple(
        slice(p, p + s) for p, s in zip(padding, spatial)
    )
    ext[interior] = images
    view_extent = tuple(out.shape[2:])  # out_d + 2 per dimension
    for idx, j in enumerate(np.ndindex(*geom.grid)):
        window = tuple(
            slice(SUB_R * jd, SUB_R * jd + v) for jd, v in zip(j, view_extent)
        )
        out[:, idx * c_in : (idx + 1) * c_in] = ext[
            (slice(None), slice(None)) + window
        ]
    return out


def inner_fmr(geom: NestedGeometry, out_extent: tuple[int, ...]) -> FmrSpec:
    """Default ``F(m, 3)`` spec for the inner convolution.

    Mirrors the engine's tile policy: m = 4 per dimension when the output
    extent amortizes the larger tile, else the conservative m = 2.
    """
    m = tuple(4 if o >= 4 else 2 for o in out_extent)
    return FmrSpec(m=m, r=geom.sub_kernel)


class NestedWinogradExecutor:
    """Plan-cache resident executor for one nested layer shape.

    The shape algebra and the stacking steps behind the engine's
    :class:`NestedEntry` (``prepare_kernels``, ``stack_input``,
    ``stacked_shape``); the actual convolution is dispatched back
    through the engine's Winograd path — the stacked r = 3 problem runs
    on whatever backend the request asked for.
    """

    name = "nested"

    def __init__(self, layer) -> None:
        self.layer = layer
        self.geom = nested_geometry(tuple(layer.kernel))
        self.out_extent = output_shape(
            tuple(layer.image), tuple(layer.kernel), tuple(layer.padding)
        )
        self.stacked_shape = stacked_input_shape(
            layer.batch, layer.c_in, tuple(layer.image), tuple(layer.padding), self.geom
        )
        #: Inner convolution is a zero-padding r = 3 problem.
        self.inner_padding = (0,) * self.geom.ndim

    def supports(self, layer) -> None:
        if not nested_supported(tuple(layer.kernel)):
            raise UnsupportedLayer(
                f"nested winograd needs max(r) > {SUB_R}, got {layer.kernel}"
            )

    def stacked_nbytes(self, dtype: np.dtype) -> int:
        return prod(self.stacked_shape) * np.dtype(dtype).itemsize

    def prepare_kernels(self, kernels: np.ndarray, layer=None) -> np.ndarray:
        """Stack the kernel bank (memoized by the plan cache per kernel)."""
        return stack_kernels(np.ascontiguousarray(kernels), self.geom)

    def stack_input(
        self, images: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        return stack_input(images, self.geom, tuple(self.layer.padding), out=out)


class NestedEntry(PlanEntry):
    """Nested Winograd: an r > 3 layer as one stacked r = 3 problem.

    :mod:`repro.core.nested` reduces the kernel to ONE channel-stacked
    r = 3 convolution: kernels are prepared as the stacked bank, the
    stacked input is gathered into an arena lease of ``lease_bytes``, and
    the inner convolution re-enters ``engine.run`` on the key's Winograd
    backend -- with its own plan, kernel memo, spans and fallback chain,
    attributed to the tenant that owns this entry, and honoring ``out=``
    and the epilogue.
    """

    def __init__(self, key: PlanKey, engine: ConvolutionEngine, layer: ConvLayerSpec):
        super().__init__(key)
        self.engine = engine
        self.nested = NestedWinogradExecutor(layer)
        self.lease_bytes = self.nested.stacked_nbytes(key.dtype)

    def prepare_kernels(self, kernels: np.ndarray) -> np.ndarray:
        return self.nested.prepare_kernels(kernels)

    def execute(self, images, stacked_kernels, out=None, epilogue=None) -> np.ndarray:
        engine, nested, key = self.engine, self.nested, self.key
        with engine.arena.lease(self.lease_bytes) as lease:
            buf = lease.take(nested.stacked_shape, key.dtype)
            with engine.tracer.span("nested.stack"):
                nested.stack_input(images, out=buf)
            return engine.run(
                buf, stacked_kernels,
                padding=nested.inner_padding, dtype=key.dtype,
                backend=key.backend, algorithm="winograd",
                tenant=engine.plans.tenant_of(key), out=out, epilogue=epilogue,
            )


def nested_convolution(
    images: np.ndarray,
    kernels: np.ndarray,
    padding: tuple[int, ...] | None = None,
    dtype=np.float32,
    inner_m: tuple[int, ...] | int | None = None,
    conv3: Callable[..., np.ndarray] | None = None,
) -> np.ndarray:
    """One-shot engine-free nested convolution (accuracy study / oracle).

    Parameters mirror :func:`repro.core.convolution.winograd_convolution`;
    ``inner_m`` overrides the inner ``F(m, 3)`` output-tile extent and
    ``conv3`` overrides the inner r = 3 convolution callable (signature
    ``conv3(stacked_images, stacked_kernels, spec, padding, dtype)``).
    """
    from repro.core.convolution import winograd_convolution

    ndim = images.ndim - 2
    if padding is None:
        padding = (0,) * ndim
    geom = nested_geometry(tuple(kernels.shape[2:]))
    out_extent = output_shape(tuple(images.shape[2:]), geom.r, tuple(padding))
    if inner_m is None:
        spec = inner_fmr(geom, out_extent)
    else:
        m = (inner_m,) * ndim if isinstance(inner_m, int) else tuple(inner_m)
        spec = FmrSpec(m=m, r=geom.sub_kernel)
    dt = np.dtype(dtype)
    stacked = stack_input(images.astype(dt, copy=False), geom, tuple(padding))
    stacked_k = stack_kernels(np.ascontiguousarray(kernels), geom)
    run = conv3 if conv3 is not None else winograd_convolution
    return run(stacked, stacked_k, spec, padding=(0,) * ndim, dtype=dt)
