"""FFT-based convolution (Mathieu et al. [37] / fbfft [51] style).

Transforms inputs and kernels to the frequency domain, performs complex
pointwise channel contractions, and inverse-transforms -- the approach
Winograd competes against.  Complex arithmetic costs 4 real
multiplications per product (vs. 1 for Winograd's real transforms,
Sec. 1.1), and kernels must be zero-padded to the image extent, which is
why FFT loses badly on small kernels.

The real execution uses full-image FFTs (valid-mode correlation via
frequency-domain conjugate multiply); the cost model counts the classic
``5 n log2 n`` real FLOPs per transform plus the pointwise stage.
"""

from __future__ import annotations

from math import log2, prod

import numpy as np

from repro.baselines.base import ConvImplementation
from repro.machine.memory import MemoryModel
from repro.machine.spec import KNL_7210, MachineSpec
from repro.nets.layers import ConvLayerSpec
from repro.nets.reference import output_shape, pad_images


def kernel_spectrum(
    kernels: np.ndarray, padded_spatial: tuple[int, ...]
) -> np.ndarray:
    """Conjugate kernel spectrum at the padded image extent.

    This is the FFT analog of the Winograd kernel transform: it depends
    only on the kernel tensor and the (padded) image size, so the engine
    memoizes it per kernel fingerprint and warm requests skip the
    ``C * C'`` kernel FFTs entirely.
    """
    ndim = kernels.ndim - 2
    axes = tuple(range(2, 2 + ndim))
    return np.conj(np.fft.rfftn(kernels, s=padded_spatial, axes=axes))


def fft_convolution(
    images: np.ndarray,
    kernels: np.ndarray | None = None,
    padding: tuple[int, ...] | None = None,
    *,
    spectrum: np.ndarray | None = None,
    kernel: tuple[int, ...] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Batched multi-channel valid-mode correlation via FFT.

    ``images``: ``(B, C, *spatial)``; ``kernels``: ``(C, C', *r)``.
    Correlation is multiplication by the *conjugate* kernel spectrum.
    Passing a precomputed ``spectrum`` (from :func:`kernel_spectrum`,
    with the matching ``kernel`` extent) skips the kernel FFTs -- the
    warm serving path; ``out`` receives the result in place.
    """
    ndim = images.ndim - 2
    if padding is None:
        padding = (0,) * ndim
    padded = pad_images(images, padding)
    spatial = padded.shape[2:]
    axes = tuple(range(2, 2 + ndim))
    if spectrum is None:
        if kernels is None:
            raise ValueError("need kernels or a precomputed spectrum")
        r = kernels.shape[2:]
        fk = kernel_spectrum(kernels, spatial)
    else:
        if kernel is None:
            raise ValueError("a precomputed spectrum needs the kernel extent")
        r = tuple(kernel)
        fk = spectrum
    out_spatial = output_shape(spatial, r)

    fi = np.fft.rfftn(padded, s=spatial, axes=axes)  # (B, C, *freq)
    # Sum over input channels: (B, C, F) x (C, C', F) -> (B, C', F).
    fo = np.einsum("bc...,cd...->bd...", fi, fk)
    full = np.fft.irfftn(fo, s=spatial, axes=axes)
    # Valid correlation result occupies the leading `out` corner.
    crop = (slice(None), slice(None)) + tuple(slice(0, o) for o in out_spatial)
    result = full[crop].astype(images.dtype, copy=False)
    return ConvImplementation.finish(result, out)


class FftConvBaseline(ConvImplementation):
    """Roofline model of FFT-based convolution on a CPU."""

    name = "FFT"

    def __init__(self, machine: MachineSpec = KNL_7210, efficiency: float = 0.40):
        """FFT butterflies vectorize poorly next to GEMM; ~40% of peak is
        generous for batched real FFTs on KNL."""
        self.machine = machine
        self.efficiency = efficiency
        self._memory = MemoryModel(machine)

    def supports(self, layer: ConvLayerSpec) -> None:
        return None

    @staticmethod
    def flop_estimate(layer: ConvLayerSpec, *, warm: bool = False) -> float:
        """Real FLOPs: forward FFTs of B*C images and C*C' kernels,
        pointwise complex stage, inverse FFTs of B*C' outputs.

        ``warm=True`` is the serving-path estimate: the kernel spectrum
        is memoized per kernel tensor (the FX analog), so its ``C * C'``
        transforms are excluded -- without this the FFT candidate is
        charged for work the warm path never does, and cross-algorithm
        ranking is not like-with-like.
        """
        n = prod(i + 2 * p for i, p in zip(layer.image, layer.padding))
        fft_one = 5.0 * n * max(log2(n), 1.0)
        n_transforms = layer.batch * layer.c_in + layer.batch * layer.c_out
        if not warm:
            n_transforms += layer.c_in * layer.c_out
        # Complex MAC = 4 real mult + 4 real add = 8 FLOPs; spectrum has
        # ~n/2 complex points (rfft).
        pointwise = 8.0 * layer.batch * layer.c_in * layer.c_out * (n / 2)
        return fft_one * n_transforms + pointwise

    def predicted_seconds(self, layer: ConvLayerSpec, *, warm: bool = False) -> float:
        compute_s = self.flop_estimate(layer, warm=warm) / (
            self.machine.peak_flops * self.efficiency
        )
        n = prod(i + 2 * p for i, p in zip(layer.image, layer.padding))
        # Spectra are image-sized per (b, c) pair: large intermediate.
        # Warm requests still *read* the memoized kernel spectrum but do
        # not write it.
        written = layer.batch * layer.c_in + layer.batch * layer.c_out
        if not warm:
            written += layer.c_in * layer.c_out
        spectra_read = 4 * (
            layer.batch * layer.c_in + layer.c_in * layer.c_out
            + layer.batch * layer.c_out
        ) * n
        traffic = self._memory.combine(
            self._memory.read_traffic(spectra_read),
            self._memory.store_traffic(4 * written * n, streaming=False),
        )
        return max(compute_s, traffic.seconds(self.machine))

    def prepare_kernels(self, kernels: np.ndarray, layer: ConvLayerSpec):
        padded = tuple(
            i + 2 * p for i, p in zip(layer.image, layer.padding)
        )
        return kernel_spectrum(np.asarray(kernels), padded)

    def execute_prepared(self, images, prepared, layer, out=None):
        return fft_convolution(
            images, padding=layer.padding, spectrum=prepared,
            kernel=layer.kernel, out=out,
        )

    def execute(self, images, kernels, layer, out=None):
        self.check_layer_arrays(images, kernels, layer)
        return fft_convolution(
            images.astype(np.float32), kernels.astype(np.float32),
            layer.padding, out=out,
        )
