"""Core algorithm: the paper's primary contribution.

Submodules follow the three-stage pipeline of Fig. 1 plus the supporting
machinery (layouts, codelets, JIT GEMM, autotuning, static scheduling).
The names below import their submodule on first access, so importing
one submodule loads only what that submodule needs.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "BlockedWinogradExecutor": "blocked_pipeline",
    "BlockingConfig": "blocking",
    "FmrSpec": "fmr",
    "NestedWinogradExecutor": "nested",
    "ParallelWinogradExecutor": "parallel_convolution",
    "nested_convolution": "nested",
    "nested_supported": "nested",
    "Transform1D": "transforms",
    "TransformND": "transforms",
    "WinogradPlan": "convolution",
    "mode_n_multiply": "transforms",
    "transform_tensor": "transforms",
    "winograd_1d": "transforms",
    "winograd_convolution": "convolution",
    "winograd_data_gradient": "gradients",
    "weight_gradient": "gradients",
    "winograd_nd": "transforms",
    "winograd_convolution_padded_channels": "channel_padding",
    "complexity_table": "complexity",
    "effective_reduction": "complexity",
    "search_points": "pointsearch",
    "select_tile_size": "tile_selection",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
