"""Unit tests for the compiled-C codelet backend.

The differential harness (``test_differential.py``) pins the compiled
executors' *outputs* to every other executor; this module tests the
machinery itself: source generation determinism and its dependence on
the codelet key alone, the disk/in-process build caches and the one
library plans of a key share, the FX (pre-transformed kernels) path, bitwise
reproducibility across executors that share the translation unit,
engine plan-cache eviction, the engine's wisdom-tuned blocking, the
channel-blocked ``padded`` workspace
(its packing and its reuse across calls), the narrow ``S`` that odd
channel counts get, and the no-toolchain error surface.

Everything except the error-surface tests is skipped on hosts without
a C compiler -- where the engine's fallback behavior is exercised
instead (see ``test_differential.test_compiled_fallback_is_visible_and_correct``).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro.core.autotune import layer_key
from repro.core.blocking import BlockingConfig
from repro.core.codegen_c import CodeletKey, render_source
from repro.core.compiled_backend import (
    CompiledWinogradExecutor,
    CompilerUnavailableError,
    build_cache_dir,
    clear_compiled_caches,
    compiled_available,
    get_compiled_stages,
    probe_toolchain,
    source_digest,
)
from repro.core.convolution import WinogradPlan
from repro.core.engine import (
    ConvolutionEngine,
    default_parallel_blocking,
    parallel_simd_width,
)
from repro.core.fmr import FmrSpec
from repro.core.layout import ImageLayout, pack_padded
from repro.core.parallel_convolution import ParallelWinogradExecutor
from repro.graph import GraphExecutor, graph_scaled_c3d
from repro.nets.layers import ConvLayerSpec
from repro.nets.reference import direct_convolution
from repro.obs.metrics import MetricsRegistry
from repro.util.wisdom import Wisdom, WisdomEntry

needs_cc = pytest.mark.skipif(
    not compiled_available(), reason="no C toolchain/cffi on this host"
)

BLK = BlockingConfig(n_blk=6, c_blk=16, cprime_blk=16, simd_width=8)
SPEC = FmrSpec(m=(4, 4), r=(3, 3))


def _plan(dtype=np.float32, spatial=(10, 10), channels=16, c_out=16):
    return WinogradPlan(
        spec=SPEC,
        input_shape=(2, channels) + spatial,
        c_out=c_out,
        padding=(1, 1),
        dtype=np.dtype(dtype),
    )


def _source(plan, blocking=BLK, simd=8):
    return render_source(CodeletKey.from_plan(plan, blocking, simd))


def _data(plan, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.standard_normal(plan.input_shape).astype(plan.dtype)
    ker = (
        rng.standard_normal((plan.c_in, plan.c_out) + plan.spec.r) * 0.2
    ).astype(plan.dtype)
    return img, ker


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
def test_codegen_is_deterministic():
    """Same plan + blocking -> byte-identical C source and cdef (the
    content-addressed build cache depends on this)."""
    a = _source(_plan())
    b = _source(_plan())
    assert a.c_source == b.c_source
    assert a.cdef == b.cdef
    assert a.real_type == "float"
    assert _source(_plan(np.float64)).real_type == "double"


def test_codegen_source_depends_only_on_key():
    """Plans that differ only in shape share one source (so one build
    and one dlopen); each part of the codelet key changes it."""
    base = _source(_plan()).c_source
    same_key = [
        WinogradPlan(spec=SPEC, input_shape=(7, 16, 10, 10), c_out=16,
                     padding=(1, 1), dtype=np.dtype(np.float32)),   # batch
        _plan(spatial=(12, 9)),                                      # extent
        WinogradPlan(spec=SPEC, input_shape=(2, 16, 10, 10), c_out=16,
                     padding=(0, 2), dtype=np.dtype(np.float32)),   # padding
        _plan(c_out=32),                                             # C'
    ]
    for plan in same_key:
        assert _source(plan).c_source == base
    other_blk = BlockingConfig(n_blk=8, c_blk=16, cprime_blk=8, simd_width=8)
    other_key = [
        _source(WinogradPlan(spec=FmrSpec(m=(2, 2), r=(3, 3)),
                             input_shape=(2, 16, 10, 10), c_out=16,
                             padding=(1, 1), dtype=np.dtype(np.float32))),
        _source(_plan(), simd=16),
        _source(_plan(np.float64)),
        _source(_plan(channels=32)),
        _source(_plan(), blocking=other_blk),   # register tile 8, not 16
    ]
    sources = {base} | {gen.c_source for gen in other_key}
    assert len(sources) == 1 + len(other_key)


def test_codegen_rejects_non_power_of_two_simd():
    """Stages 1 and 3 exist only on S-wide vector types, so an S with
    no GNU vector type is refused up front, by name."""
    plan = _plan(channels=12, c_out=12)
    blk = BlockingConfig(n_blk=6, c_blk=12, cprime_blk=12, simd_width=6)
    with pytest.raises(ValueError, match="S=6"):
        _source(plan, blocking=blk, simd=6)


# ----------------------------------------------------------------------
# Build cache
# ----------------------------------------------------------------------
@needs_cc
def test_build_caches(tmp_path, monkeypatch):
    """First build compiles, second load in-process memoizes, and a
    fresh process (simulated by clearing the memo) hits the disk."""
    monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path / "codelets"))
    clear_compiled_caches()
    try:
        plan = _plan()
        metrics = MetricsRegistry()
        s1 = get_compiled_stages(plan, BLK, 8, metrics=metrics)
        assert metrics.counter_value("codelet_compile.builds") == 1
        assert build_cache_dir() == tmp_path / "codelets"
        digest = source_digest(_source(plan).c_source, probe_toolchain())
        assert (tmp_path / "codelets" / f"wino_{digest}.so").exists()
        assert (tmp_path / "codelets" / f"wino_{digest}.c").exists()

        s2 = get_compiled_stages(plan, BLK, 8, metrics=metrics)
        assert s2.lib is s1.lib
        assert metrics.counter_value("codelet_compile.memo_hits") == 1

        clear_compiled_caches()  # drop dlopen memo, keep the disk cache
        s3 = get_compiled_stages(plan, BLK, 8, metrics=metrics)
        assert s3.lib is not s1.lib
        assert metrics.counter_value("codelet_compile.disk_hits") == 1
        assert metrics.counter_value("codelet_compile.builds") == 1
    finally:
        clear_compiled_caches()


#: Plans that share one library per spec: the C3D-s conv1 and conv2
#: layers, a 3-D layer cropped to 7^3, and a 2-D pair with outputs 32^2
#: and (cropped) 30^2.  Every plan has C = 16 and S = 16, and its
#: default blocking gives the same stage-2 register tile.
SHARED_KEY_PLANS = {
    FmrSpec.uniform(3, 2, 3): [((2, 16, 12, 12, 12), 16), ((2, 16, 6, 6, 6), 32),
                               ((2, 16, 7, 7, 7), 16)],
    FmrSpec.uniform(2, 4, 3): [((2, 16, 32, 32), 32), ((2, 16, 30, 30), 16)],
}


@needs_cc
def test_plans_sharing_a_key_build_once(tmp_path, monkeypatch):
    """The first plan of a key compiles, every later one loads nothing;
    each plan's geometry still gives oracle-correct output, and the
    thread pool slicing the shared stages agrees with the sequential
    executor to the bit."""
    monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path / "codelets"))
    clear_compiled_caches()
    metrics = MetricsRegistry()
    try:
        for n_key, (spec, shapes) in enumerate(SHARED_KEY_PLANS.items(), start=1):
            for n_plan, (input_shape, c_out) in enumerate(shapes):
                padding = (1,) * spec.ndim
                plan = WinogradPlan(
                    spec=spec, input_shape=input_shape, c_out=c_out,
                    padding=padding, dtype=np.dtype(np.float32),
                )
                simd = parallel_simd_width(input_shape[1], c_out)
                blk = default_parallel_blocking(input_shape[1], c_out, simd)
                img, ker = _data(plan, seed=n_plan)
                with CompiledWinogradExecutor(
                    plan=plan, blocking=blk, simd_width=simd, metrics=metrics,
                ) as ex:
                    y = ex.execute(img, ker)
                assert metrics.counter_value("codelet_compile.builds") == n_key
                ref = direct_convolution(
                    img.astype(np.float64), ker.astype(np.float64), padding
                )
                scale = float(np.abs(ref).max())
                np.testing.assert_allclose(
                    y.astype(np.float64), ref, atol=5e-4 * scale, rtol=0
                )
                for n_threads in (2, 3):
                    with ParallelWinogradExecutor(
                        plan=plan, blocking=blk, n_threads=n_threads,
                        simd_width=simd, use_compiled=True,
                    ) as thread:
                        np.testing.assert_array_equal(thread.execute(img, ker), y)
        n_plans = sum(len(shapes) for shapes in SHARED_KEY_PLANS.values())
        assert metrics.counter_value("codelet_compile.memo_hits") == (
            n_plans - len(SHARED_KEY_PLANS)
        )
        assert metrics.counter_value("codelet_compile.disk_hits") == 0
    finally:
        clear_compiled_caches()


@needs_cc
def test_shared_library_is_a_disk_hit_for_another_shape(tmp_path, monkeypatch):
    """A new process (simulated by clearing the memo) finds the library
    another shape with the same key built: a disk hit, no compile."""
    monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path / "codelets"))
    clear_compiled_caches()
    try:
        get_compiled_stages(_plan(), BLK, 8)
        clear_compiled_caches()
        metrics = MetricsRegistry()
        plan = _plan(spatial=(14, 11), c_out=32)
        img, ker = _data(plan, seed=3)
        with CompiledWinogradExecutor(
            plan=plan, blocking=BLK, simd_width=8, metrics=metrics,
        ) as ex:
            y = ex.execute(img, ker)
        assert metrics.counter_value("codelet_compile.disk_hits") == 1
        assert metrics.counter_value("codelet_compile.builds") == 0
        ref = direct_convolution(img.astype(np.float64), ker.astype(np.float64), (1, 1))
        scale = float(np.abs(ref).max())
        np.testing.assert_allclose(y.astype(np.float64), ref, atol=5e-4 * scale, rtol=0)
    finally:
        clear_compiled_caches()


@needs_cc
def test_c3d_graph_builds_one_library(tmp_path, monkeypatch):
    """Both C3D-s convs use F(2x2x2,3x3x3) with C = 16 and S = 16, so a
    cold compiled graph pass compiles once."""
    monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path / "codelets"))
    clear_compiled_caches()
    try:
        graph = graph_scaled_c3d(batch=8)
        rng = np.random.default_rng(0)
        feeds = {
            name: rng.standard_normal(shape).astype(np.float32)
            for name, shape in graph.inputs.items()
        }
        with ConvolutionEngine(backend="compiled") as engine:
            GraphExecutor(graph, engine).run(feeds)
            assert engine.metrics.counter_value("engine.fallbacks") == 0
            assert engine.metrics.counter_value("codelet_compile.builds") == 1
            assert engine.metrics.counter_value("codelet_compile.memo_hits") == 1
    finally:
        clear_compiled_caches()


# ----------------------------------------------------------------------
# Executor semantics
# ----------------------------------------------------------------------
@needs_cc
def test_fx_path_matches_stage1b():
    """Pre-transformed kernels (the engine's memoized FX path) must give
    bitwise the same result as running compiled stage 1b on raw
    kernels: stage 2 consumes the identical V layout either way."""
    plan = _plan(np.float64)
    img, ker = _data(plan)
    with CompiledWinogradExecutor(plan=plan, blocking=BLK, simd_width=8) as ex:
        y_raw = ex.execute(img, ker)
        y_fx = ex.execute(img, plan.transform_kernels(ker))
    # Not array_equal: stage 1b in C and the numpy kernel transform
    # round differently; but both V tensors are the same math.
    np.testing.assert_allclose(y_fx, y_raw, atol=1e-12, rtol=0)
    assert y_fx.shape == (plan.batch, plan.c_out) + plan.grid.output_shape


@needs_cc
def test_repeat_and_cross_executor_bitwise():
    """Same translation unit, fixed arithmetic order: repeated runs and
    every executor that slices the compiled stages (sequential, thread
    pool at 2 and 3 workers) must agree to the bit."""
    plan = _plan()
    img, ker = _data(plan, seed=5)
    with CompiledWinogradExecutor(plan=plan, blocking=BLK, simd_width=8) as ex:
        y1 = ex.execute(img, ker)
        y2 = ex.execute(img, ker)
    np.testing.assert_array_equal(y1, y2)

    for n_threads in (2, 3):
        with ParallelWinogradExecutor(
            plan=plan, blocking=BLK, n_threads=n_threads, simd_width=8,
            use_compiled=True,
        ) as thread:
            yt = thread.execute(img, ker)
        np.testing.assert_array_equal(yt, y1)


# ----------------------------------------------------------------------
# Channel-blocked padded workspace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("simd", [1, 4, 16])
def test_pack_padded_matches_image_layout(simd):
    """The copy both executors make is the Table-1 packing of the
    zero-padded images, bit for bit."""
    rng = np.random.default_rng(simd)
    img = rng.standard_normal((2, 16, 5, 7)).astype(np.float32)
    padding, pin = (1, 2), (9, 12)
    pads = [(0, 0), (0, 0)] + [
        (p, full - p - n) for p, full, n in zip(padding, pin, img.shape[2:])
    ]
    expected = ImageLayout(2, 16, pin, simd).pack(np.pad(img, pads))
    got = pack_padded(img, padding, pin, simd)
    assert got.shape == (2, 16 // simd) + pin + (simd,)
    np.testing.assert_array_equal(got, expected)


@needs_cc
@pytest.mark.parametrize("spec,input_shape,padding", [
    (FmrSpec(m=(4, 4), r=(3, 3)), (2, 16, 9, 11), (2, 1)),
    (FmrSpec(m=(2, 2, 2), r=(3, 3, 3)), (1, 16, 5, 6, 4), (1, 2, 3)),
], ids=["2d", "3d"])
def test_workspace_persists_across_calls(spec, input_shape, padding):
    """The executor keeps ``padded`` and refreshes only its interior:
    image B after image A gives bitwise what a fresh executor gives for
    B, and the halo (padding plus the grid's extension) stays zero."""
    plan = WinogradPlan(
        spec=spec, input_shape=input_shape, c_out=16, padding=padding,
        dtype=np.dtype(np.float32),
    )
    img_a, ker = _data(plan, seed=1)
    img_b, _ = _data(plan, seed=2)
    with CompiledWinogradExecutor(plan=plan, blocking=BLK, simd_width=8) as ex:
        ex.execute(img_a, ker)
        y_b = ex.execute(img_b, ker)
        halo = ex._padded.copy()
    with CompiledWinogradExecutor(plan=plan, blocking=BLK, simd_width=8) as fresh:
        np.testing.assert_array_equal(y_b, fresh.execute(img_b, ker))
    halo[(slice(None), slice(None)) + tuple(
        slice(p, p + n) for p, n in zip(padding, input_shape[2:])
    )] = 0
    assert not halo.any(), "the workspace halo was written"


@needs_cc
@pytest.mark.parametrize("c_in,c_out", [(3, 5), (6, 10), (12, 20)])
@pytest.mark.parametrize("ndim", [2, 3])
def test_narrow_simd_widths(ndim, c_in, c_out):
    """Odd channel counts make the engine pick S = 1, 2 or 4: the
    compiled backend stays right against the oracle, and the thread
    pool slicing the same stages agrees with the sequential executor
    to the bit."""
    simd = parallel_simd_width(c_in, c_out)
    assert simd == {3: 1, 6: 2, 12: 4}[c_in]
    spec = FmrSpec.uniform(ndim, 2, 3)
    spatial = (9, 10) if ndim == 2 else (5, 6, 5)
    padding = (1,) * ndim
    plan = WinogradPlan(
        spec=spec, input_shape=(2, c_in) + spatial, c_out=c_out,
        padding=padding, dtype=np.dtype(np.float32),
    )
    img, ker = _data(plan, seed=c_in)

    metrics = MetricsRegistry()
    with ConvolutionEngine(metrics=metrics) as engine:
        y = engine.run(img, ker, fmr=spec, padding=padding, backend="compiled")
    assert metrics.counter_value("engine.fallbacks") == 0
    ref = direct_convolution(img.astype(np.float64), ker.astype(np.float64), padding)
    scale = float(np.abs(ref).max())
    np.testing.assert_allclose(y.astype(np.float64), ref, atol=5e-4 * scale, rtol=0)

    blk = default_parallel_blocking(c_in, c_out, simd)
    with CompiledWinogradExecutor(plan=plan, blocking=blk, simd_width=simd) as ex:
        y_seq = ex.execute(img, ker)
    with ParallelWinogradExecutor(
        plan=plan, blocking=blk, n_threads=2, simd_width=simd, use_compiled=True,
    ) as thread:
        np.testing.assert_array_equal(thread.execute(img, ker), y_seq)


@needs_cc
def test_engine_backend_and_eviction():
    """backend="compiled" flows through the engine's plan cache; evicting
    the entry releases the executor workspace and a re-request rebuilds
    it from the (memoized) library without recompiling."""
    metrics = MetricsRegistry()
    with ConvolutionEngine(metrics=metrics) as engine:
        plan = _plan()
        img, ker = _data(plan, seed=9)
        y1 = engine.run(
            img, ker, fmr=SPEC, padding=(1, 1), backend="compiled"
        )
        assert metrics.counter_value("engine.fallbacks") == 0
        before = engine.plans.stats.bytes_cached
        assert before > 0

        engine.plans.clear()  # eviction path: entry.release()
        assert engine.plans.stats.bytes_cached == 0

        y2 = engine.run(
            img, ker, fmr=SPEC, padding=(1, 1), backend="compiled"
        )
        np.testing.assert_array_equal(y1, y2)
        # The rebuilt entry found the dlopen'd library in the memo (or
        # at worst the disk cache) -- never a second compile.
        assert metrics.counter_value("codelet_compile.builds") <= 1


@needs_cc
@pytest.mark.parametrize("c_blk,cprime_blk,honoured", [
    (16, 32, True),    # divides C = C' = 32: the tuned blocking is used
    (64, 32, False),   # C_blk = 64 does not divide C: defaults instead
    (32, 64, False),   # C'_blk = 64 does not divide C': defaults instead
], ids=["divides", "c-does-not-divide", "cprime-does-not-divide"])
def test_engine_takes_blocking_from_wisdom(c_blk, cprime_blk, honoured):
    """A tuned wisdom entry (``repro tune --wisdom``) reaches the
    compiled backend when its channel blocks divide the layer; one that
    does not divide falls back to the default parallel blocking."""
    plan = _plan(channels=32, c_out=32)
    img, ker = _data(plan, seed=4)
    wisdom = Wisdom()
    with ConvolutionEngine(wisdom=wisdom) as engine:
        layer = ConvLayerSpec(
            network="engine", name="auto", batch=2, c_in=32, c_out=32,
            image=(10, 10), padding=(1, 1), kernel=(3, 3),
        )
        wisdom.put(
            layer_key(layer, SPEC, engine.machine),
            WisdomEntry(n_blk=8, c_blk=c_blk, cprime_blk=cprime_blk,
                        threads_per_core=1, predicted_time=1.0),
        )
        y = engine.run(img, ker, fmr=SPEC, padding=(1, 1), backend="compiled")
        assert engine.metrics.counter_value("engine.fallbacks") == 0
        (key,) = engine.plans.keys()
    simd = engine.machine.vector_width
    want = (
        BlockingConfig(n_blk=8, c_blk=c_blk, cprime_blk=cprime_blk, simd_width=simd)
        if honoured
        else default_parallel_blocking(32, 32, parallel_simd_width(32, 32))
    )
    assert key.backend == "compiled" and key.blocking == want
    ref = direct_convolution(img.astype(np.float64), ker.astype(np.float64), (1, 1))
    scale = float(np.abs(ref).max())
    np.testing.assert_allclose(y.astype(np.float64), ref, atol=5e-4 * scale, rtol=0)


@needs_cc
def test_executor_rejects_bad_shapes():
    plan = _plan()
    img, ker = _data(plan)
    with CompiledWinogradExecutor(plan=plan, blocking=BLK, simd_width=8) as ex:
        with pytest.raises(ValueError, match="images shape"):
            ex.execute(img[:, :, :-1], ker)
        with pytest.raises(ValueError, match="kernels shape"):
            ex.execute(img, ker[:, :, :-1])


# ----------------------------------------------------------------------
# No-toolchain error surface
# ----------------------------------------------------------------------
def test_masked_toolchain_raises(monkeypatch):
    """CC=/bin/false deterministically masks the toolchain: the probe
    fails, direct construction raises, and availability is False --
    without disturbing the real probe result afterwards."""
    monkeypatch.setenv("CC", "/bin/false")
    clear_compiled_caches()
    try:
        assert probe_toolchain() is None
        assert not compiled_available()
        plan = _plan()
        with pytest.raises(CompilerUnavailableError):
            get_compiled_stages(plan, BLK, 8)
        with pytest.raises(CompilerUnavailableError):
            CompiledWinogradExecutor(plan=plan, blocking=BLK, simd_width=8)
        with pytest.raises(CompilerUnavailableError):
            ParallelWinogradExecutor(
                plan=plan, blocking=BLK, n_threads=2, simd_width=8,
                use_compiled=True,
            )
    finally:
        clear_compiled_caches()


def test_probe_is_per_compiler(monkeypatch):
    """The probe caches per $CC value, so flipping CC re-probes instead
    of serving a stale capability verdict."""
    clear_compiled_caches()
    try:
        # Baseline = whatever PATH offers, independent of an ambient $CC
        # (the no-compiler CI lane exports CC=/bin/false globally).
        monkeypatch.delenv("CC", raising=False)
        real = probe_toolchain()
        monkeypatch.setenv("CC", "/bin/false")
        assert probe_toolchain() is None
        monkeypatch.delenv("CC")
        assert probe_toolchain() == real
    finally:
        clear_compiled_caches()


def test_probe_hit_skips_path_lookup(monkeypatch):
    """Every compiled request asks ``compiled_available()``: a cache hit
    must not walk $PATH again, while a changed PATH still re-resolves."""
    lookups = []
    real_which = shutil.which

    def counting_which(cmd, *args, **kwargs):
        lookups.append(cmd)
        return real_which(cmd, *args, **kwargs)

    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setattr(shutil, "which", counting_which)
    clear_compiled_caches()
    try:
        first = compiled_available()
        assert lookups, "a cold probe resolves the compiler on PATH"
        lookups.clear()
        assert compiled_available() == first
        assert lookups == []
        path = os.environ.get("PATH", "")
        monkeypatch.setenv("PATH", f"{path}{os.pathsep}{path}")
        assert compiled_available() == first
        assert lookups
    finally:
        clear_compiled_caches()
