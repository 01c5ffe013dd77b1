"""Baseline implementations and comparators for the Fig. 5 / Fig. 6
benchmarks.

The names below import their submodule on first access, so the engine's
portfolio loads only the baselines it runs.  The ``im2col`` lowering
itself is ``repro.baselines.im2col.im2col``: re-exported here, its name
would collide with its submodule's."""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "BaselineCrash": "base",
    "ConvImplementation": "base",
    "UnsupportedLayer": "base",
    "DirectConvBaseline": "direct",
    "mkldnn_direct": "direct",
    "zlateski_direct": "direct",
    "FftConvBaseline": "fft",
    "fft_convolution": "fft",
    "CudnnFft3D": "gpu",
    "CudnnImplicitGemm": "gpu",
    "CudnnWinograd2D": "gpu",
    "Im2colBaseline": "im2col",
    "im2col_convolution": "im2col",
    "OursWinograd": "ours",
    "WinogradLibraryBaseline": "vendor",
    "falcon": "vendor",
    "libxsmm_winograd": "vendor",
    "mkldnn_winograd": "vendor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
