"""Unit tests for the nested-Winograd subsystem and machine profiles.

Covers the decomposition algebra (:mod:`repro.core.nested`), the
engine's ``algorithm="nested"`` dispatch (plan-cache residency, arena
use, ``out=``/epilogue conventions), the named machine-profile registry
(:mod:`repro.machine.profiles`) and the ``repro wisdom`` hygiene
subcommand.  Cross-executor agreement lives in the nested axis of
``tests/test_differential.py``; speed and portfolio-selection gates in
``benchmarks/bench_nested.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.base import UnsupportedLayer
from repro.core.engine import ConvolutionEngine
from repro.core.nested import (
    NestedGeometry,
    NestedWinogradExecutor,
    inner_fmr,
    nested_convolution,
    nested_geometry,
    nested_supported,
    stack_input,
    stack_kernels,
    stacked_input_shape,
)
from repro.machine.profiles import (
    DEFAULT_PROFILE,
    EDGE_NEON,
    PROFILES,
    get_profile,
    list_profiles,
    profile_fingerprints,
    validate_spec,
)
from repro.machine.spec import KNL_7210
from repro.nets.layers import ConvLayerSpec
from repro.nets.reference import direct_convolution


def _layer(kernel, img=14, c_in=8, c_out=8, batch=1, padding=None):
    nd = len(kernel)
    if padding is None:
        padding = tuple(r // 2 for r in kernel)
    return ConvLayerSpec(
        network="t", name="n", batch=batch, c_in=c_in, c_out=c_out,
        image=(img,) * nd if isinstance(img, int) else img,
        padding=padding, kernel=kernel,
    )


def _arrays(layer, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.standard_normal(
        (layer.batch, layer.c_in) + layer.image
    ).astype(np.float32)
    ker = (
        rng.standard_normal((layer.c_in, layer.c_out) + layer.kernel) * 0.2
    ).astype(np.float32)
    return img, ker


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------
class TestGeometry:
    @pytest.mark.parametrize("kernel,grid,padded", [
        ((5, 5), (2, 2), (6, 6)),
        ((7, 7), (3, 3), (9, 9)),
        ((9, 7), (3, 3), (9, 9)),
        ((11, 11), (4, 4), (12, 12)),
        ((7, 1), (3, 1), (9, 3)),
        ((5, 5, 5), (2, 2, 2), (6, 6, 6)),
    ])
    def test_grid_and_padding(self, kernel, grid, padded):
        geom = nested_geometry(kernel)
        assert geom.grid == grid
        assert geom.padded_r == padded
        assert geom.subkernels == int(np.prod(grid))
        assert geom.sub_kernel == (3,) * len(kernel)

    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 3), (3, 3, 3)])
    def test_small_kernels_unsupported(self, kernel):
        assert not nested_supported(kernel)
        with pytest.raises(UnsupportedLayer):
            nested_geometry(kernel)

    def test_large_kernels_supported(self):
        for kernel in ((5, 5), (4, 4), (7, 1), (3, 3, 5)):
            assert nested_supported(kernel)

    def test_inner_fmr_tracks_output_extent(self):
        geom = nested_geometry((7, 7))
        assert inner_fmr(geom, (8, 8)).m == (4, 4)
        assert inner_fmr(geom, (8, 2)).m == (4, 2)


# ----------------------------------------------------------------------
# Stacking
# ----------------------------------------------------------------------
class TestStacking:
    def test_stacked_kernel_blocks_hold_padded_taps(self):
        geom = nested_geometry((5, 5))
        rng = np.random.default_rng(0)
        ker = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        stacked = stack_kernels(ker, geom)
        assert stacked.shape == (4 * 2, 3, 3, 3)
        # Block (0, 0): taps [0:3, 0:3] verbatim.
        np.testing.assert_array_equal(stacked[0:2], ker[:, :, 0:3, 0:3])
        # Block (1, 1) (row-major last): taps [3:5, 3:5] + zero slack.
        tail = stacked[6:8]
        np.testing.assert_array_equal(tail[:, :, 0:2, 0:2], ker[:, :, 3:5, 3:5])
        assert not tail[:, :, 2, :].any() and not tail[:, :, :, 2].any()

    def test_stacked_input_shape_and_shifts(self):
        geom = nested_geometry((5, 5))
        rng = np.random.default_rng(1)
        img = rng.standard_normal((1, 2, 10, 10)).astype(np.float32)
        padding = (2, 2)
        shape = stacked_input_shape(1, 2, (10, 10), padding, geom)
        assert shape == (1, 4 * 2, 12, 12)  # out 10 + (3 - 1)
        stacked = stack_input(img, geom, padding)
        assert stacked.shape == shape
        # Block 0 is the zero-extended input's leading window.
        np.testing.assert_array_equal(
            stacked[:, 0:2, 2:12, 2:12], img[:, :, 0:10, 0:10]
        )
        assert not stacked[:, 0:2, 0:2, :].any()

    def test_stack_input_rejects_bad_out_buffer(self):
        geom = nested_geometry((5, 5))
        img = np.zeros((1, 2, 10, 10), dtype=np.float32)
        bad = np.zeros((1, 8, 12, 11), dtype=np.float32)
        with pytest.raises(ValueError, match="stacked buffer"):
            stack_input(img, geom, (2, 2), out=bad)
        wrong_dtype = np.zeros((1, 8, 12, 12), dtype=np.float64)
        with pytest.raises(ValueError, match="stacked buffer"):
            stack_input(img, geom, (2, 2), out=wrong_dtype)

    @pytest.mark.parametrize("kernel,img,padding", [
        ((5, 5), (10, 10), (2, 2)),
        ((7, 7), (12, 12), (0, 0)),
        ((9, 7), (11, 12), (4, 3)),
        ((7, 1), (10, 6), (3, 0)),
        ((4, 4), (9, 9), (1, 1)),
        ((5, 5, 5), (7, 7, 7), (2, 2, 2)),
    ])
    def test_nested_convolution_matches_float64_oracle(self, kernel, img, padding):
        layer = _layer(kernel, img=img, padding=padding, c_in=4, c_out=3)
        images, kernels = _arrays(layer)
        out = nested_convolution(images, kernels, padding=padding)
        ref = direct_convolution(
            images.astype(np.float64), kernels.astype(np.float64), padding
        )
        scale = max(float(np.abs(ref).max()), 1.0)
        assert out.shape == ref.shape
        np.testing.assert_allclose(
            out.astype(np.float64), ref, atol=5e-5 * scale, rtol=0
        )


# ----------------------------------------------------------------------
# Executor + engine dispatch
# ----------------------------------------------------------------------
class TestEngineNestedDispatch:
    def test_executor_shape_algebra(self):
        layer = _layer((7, 7), img=14, c_in=16, c_out=16)
        ex = NestedWinogradExecutor(layer)
        assert ex.stacked_shape == (1, 9 * 16, 16, 16)
        assert ex.inner_padding == (0, 0)
        assert ex.stacked_nbytes(np.float32) == 9 * 16 * 16 * 16 * 4
        with pytest.raises(UnsupportedLayer):
            ex.supports(_layer((3, 3)))

    def test_engine_nested_counter_and_oracle(self):
        layer = _layer((5, 5), img=12, c_in=16, c_out=16)
        images, kernels = _arrays(layer)
        ref = direct_convolution(
            images.astype(np.float64), kernels.astype(np.float64), layer.padding
        )
        with ConvolutionEngine() as eng:
            out = eng.run(images, kernels, padding=layer.padding,
                          algorithm="nested")
            assert eng.metrics.counter_value("engine.requests.nested") == 1
        scale = max(float(np.abs(ref).max()), 1.0)
        np.testing.assert_allclose(
            out.astype(np.float64), ref, atol=5e-5 * scale, rtol=0
        )

    def test_engine_nested_rejects_small_kernels(self):
        layer = _layer((3, 3), img=10, c_in=8, c_out=8)
        images, kernels = _arrays(layer)
        with ConvolutionEngine() as eng:
            with pytest.raises(UnsupportedLayer):
                eng.run(images, kernels, padding=layer.padding,
                        algorithm="nested")

    def test_engine_nested_out_and_epilogue(self):
        layer = _layer((5, 5), img=12, c_in=16, c_out=16)
        images, kernels = _arrays(layer)
        with ConvolutionEngine() as eng:
            plain = eng.run(images, kernels, padding=layer.padding,
                            algorithm="nested")
            out = np.empty_like(plain)
            got = eng.run(images, kernels, padding=layer.padding,
                          algorithm="nested", out=out)
            assert got is out
            np.testing.assert_array_equal(out, plain)
            relu = eng.run(images, kernels, padding=layer.padding,
                           algorithm="nested",
                           epilogue=lambda r: np.maximum(r, 0.0, out=r))
            np.testing.assert_array_equal(relu, np.maximum(plain, 0.0))

    def test_engine_nested_kernel_prep_is_memoized(self):
        layer = _layer((5, 5), img=12, c_in=16, c_out=16)
        images, kernels = _arrays(layer)
        with ConvolutionEngine() as eng:
            eng.run(images, kernels, padding=layer.padding, algorithm="nested")
            misses = eng.plans.stats.kernel_misses
            eng.run(images, kernels, padding=layer.padding, algorithm="nested")
            assert eng.plans.stats.kernel_misses == misses


# ----------------------------------------------------------------------
# Machine-profile registry
# ----------------------------------------------------------------------
class TestProfiles:
    def test_registry_contents(self):
        names = list_profiles()
        assert set(names) == {
            "manycore-knl", "desktop-avx2", "xeon-haswell", "edge-neon",
        }
        assert DEFAULT_PROFILE == "manycore-knl"
        assert get_profile("manycore-knl") is KNL_7210
        assert get_profile("edge-neon") is EDGE_NEON

    def test_unknown_profile_lists_known_names(self):
        with pytest.raises(KeyError, match="edge-neon"):
            get_profile("cray-1")

    def test_fingerprints_are_distinct(self):
        fps = profile_fingerprints()
        assert len(set(fps.values())) == len(PROFILES)

    def test_validate_spec_catches_inconsistencies(self):
        with pytest.raises(ValueError, match="power of two"):
            validate_spec(replace(EDGE_NEON, vector_width=5))
        with pytest.raises(ValueError, match="positive"):
            validate_spec(replace(EDGE_NEON, cores=0))
        with pytest.raises(ValueError, match="L1"):
            validate_spec(replace(EDGE_NEON, l1_bytes=EDGE_NEON.l2_bytes * 2))
        with pytest.raises(ValueError, match="peak_flops"):
            validate_spec(replace(EDGE_NEON, peak_flops=EDGE_NEON.peak_flops * 3))

    def test_engine_profile_selection(self):
        with ConvolutionEngine(profile="edge-neon") as eng:
            assert eng.machine is EDGE_NEON
            assert eng.profile == "edge-neon"
        with ConvolutionEngine() as eng:
            assert eng.machine is KNL_7210

    def test_engine_rejects_machine_and_profile_together(self):
        with pytest.raises(ValueError, match="not both"):
            ConvolutionEngine(machine=KNL_7210, profile="edge-neon")
        with pytest.raises(KeyError):
            ConvolutionEngine(profile="cray-1")


# ----------------------------------------------------------------------
# `repro wisdom` subcommand
# ----------------------------------------------------------------------
class TestWisdomCli:
    def test_prints_per_fingerprint_buckets(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.portfolio import PortfolioPlanner
        from repro.util.wisdom import Wisdom

        # One layer decided under two profiles, by fake hosts on which
        # nested (edge) and the FFT (manycore) measure fastest.
        w = Wisdom()
        layer = ConvLayerSpec(
            network="t", name="r7", batch=1, c_in=16, c_out=16,
            image=(16, 16), padding=(3, 3), kernel=(7, 7),
        )
        for machine, fastest in ((EDGE_NEON, "nested"), (KNL_7210, "fft")):
            PortfolioPlanner(machine, w).decide(
                layer, runner=lambda algo, f=fastest: 1e-4 if algo == f else 1e-3
            )
        path = tmp_path / "wisdom.json"
        w.save(path)

        assert main(["wisdom", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "edge-neon" in out and "manycore-knl" in out
        assert "nested=1" in out and "fft=1" in out
        assert "algo entries     : 2" in out

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["wisdom", "--file", str(tmp_path / "nope.json")]) == 2
        assert "no wisdom file" in capsys.readouterr().err
