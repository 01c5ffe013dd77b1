"""Differential harness: every executor agrees with every other.

The repo has five ways to evaluate the same convolution:

1. the sequential :class:`WinogradPlan` pipeline (the reference
   implementation of the paper's Table-1 algorithm),
2. the blocked Table-1 pipeline (packed layouts, traced JIT block-K
   stage 2), called directly -- it is a library executor, not an
   engine backend,
3. the engine's fused Kronecker fast path,
4. the thread-parallel executor (static GCD schedule on a fork-join
   thread pool -- the paper's Sec. 4.5 runtime), and
5. the engine's compiled backend (generated codelets, cffi), which
   joins the matrix only on hosts with a C toolchain.

This matrix pins them to each other across dimensionality, odd edge
tiles, anisotropic tiles and dtypes.  Two tolerance classes:

* **bitwise** -- the thread executor at 2 workers vs 1 worker: every
  worker calls the one set of numpy stage bodies in
  :mod:`repro.core.stages`, and each body fills its buffer bit-for-bit
  the same however its grid is sliced -- which
  ``test_stage_slices_fill_like_full_range`` checks directly, for the
  numpy bodies and for the compiled entry points alike -- so the pair
  must be ``array_equal``, not merely close;
* **tight allclose** -- everything else: the executors associate the
  linear maps differently (Kronecker vs mode-n products, blocked vs
  flat K summation, FMA contraction in the generated C), which is the
  same math in a different rounding order.

The ``slow``-marked fuzz test drives the thread-parallel executor --
and the compiled backend, when a toolchain exists -- against the
direct-convolution oracle on randomized shapes (hypothesis when
available, seeded stdlib ``random`` otherwise).

``test_compiled_fallback_is_visible_and_correct`` masks the toolchain
with ``CC=/bin/false`` and checks the engine degrades to the fused
path correctly *and observably* (fallback counters tick).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.blocked_pipeline import BlockedWinogradExecutor
from repro.core.blocking import BlockingConfig
from repro.core.compiled_backend import (
    clear_compiled_caches,
    compiled_available,
    get_compiled_stages,
)
from repro.core.convolution import WinogradPlan
from repro.core.engine import BACKENDS, ConvolutionEngine, parallel_simd_width
from repro.core.fmr import FmrSpec
from repro.core.nested import nested_supported
from repro.core.parallel_convolution import ParallelWinogradExecutor
from repro.core.portfolio import ALGORITHMS, MAX_SINGLE_LEVEL_R
from repro.core.stages import (
    STAGE_BUFFERS,
    NumpyStages,
    buffer_shapes,
    stage_grids,
    stage_schedules,
)
from repro.nets.reference import direct_convolution
from repro.obs.metrics import MetricsRegistry

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAVE_HYPOTHESIS = False


BLK = BlockingConfig(n_blk=6, c_blk=16, cprime_blk=16, simd_width=8)

#: (id, spec, batch, channels, spatial, padding, dtype)
CASES = [
    ("2d-f2-even", FmrSpec(m=(2, 2), r=(3, 3)), 2, 16, (8, 8), (0, 0), np.float64),
    ("2d-f4-odd-pad", FmrSpec(m=(4, 4), r=(3, 3)), 2, 16, (10, 10), (1, 1), np.float64),
    ("2d-aniso", FmrSpec(m=(2, 4), r=(3, 3)), 2, 16, (9, 12), (1, 0), np.float64),
    ("3d-f2-pad", FmrSpec(m=(2, 2, 2), r=(3, 3, 3)), 1, 16, (5, 6, 5), (1, 1, 1), np.float64),
    ("2d-f4-float32", FmrSpec(m=(4, 4), r=(3, 3)), 2, 16, (12, 12), (1, 1), np.float32),
]


def _data(batch, channels, spatial, spec, dtype, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((batch, channels) + spatial).astype(dtype)
    ker = (rng.standard_normal((channels, channels) + spec.r) * 0.2).astype(dtype)
    return img, ker


def _plan(spec, img, ker, padding, dtype):
    return WinogradPlan(
        spec=spec, input_shape=img.shape, c_out=ker.shape[1],
        padding=padding, dtype=np.dtype(dtype),
    )


def _thread(plan, img, ker, n_threads, blocking=BLK, simd=8):
    """One run of the thread-parallel executor at ``n_threads`` workers."""
    with ParallelWinogradExecutor(
        plan=plan, blocking=blocking, n_threads=n_threads, simd_width=simd,
    ) as ex:
        return ex.execute(img, ker)


def _all_executors(spec, img, ker, padding, dtype):
    """Run every executor, return {name: output}.

    The compiled backend joins only when the host can build codelets;
    on toolchain-less hosts the matrix is the other four.
    """
    plan = _plan(spec, img, ker, padding, dtype)
    outs = {"sequential": plan.execute(img, plan.transform_kernels(ker))}
    with ConvolutionEngine() as engine:
        outs["fused"] = engine.run(img, ker, fmr=spec, padding=padding, dtype=dtype)
        if compiled_available():
            outs["compiled"] = engine.run(
                img, ker, fmr=spec, padding=padding, dtype=dtype, backend="compiled"
            )
            assert engine.metrics.counter_value("engine.fallbacks") == 0
    outs["blocked"] = BlockedWinogradExecutor(plan=plan, blocking=BLK).execute(img, ker)
    outs["thread"] = _thread(plan, img, ker, 2)
    outs["thread@1"] = _thread(plan, img, ker, 1)
    return outs


@pytest.mark.parametrize(
    "spec,batch,channels,spatial,padding,dtype",
    [c[1:] for c in CASES],
    ids=[c[0] for c in CASES],
)
def test_executor_matrix(spec, batch, channels, spatial, padding, dtype):
    img, ker = _data(batch, channels, spatial, spec, dtype)
    outs = _all_executors(spec, img, ker, padding, dtype)

    ref = direct_convolution(
        img.astype(np.float64), ker.astype(np.float64), padding
    )
    scale = float(np.abs(ref).max())
    # Ground truth first: every executor computes the right convolution.
    oracle_atol = 1e-10 * scale if np.dtype(dtype) == np.float64 else 5e-4 * scale
    for name, y in outs.items():
        assert y.shape == ref.shape, f"{name}: shape {y.shape} != {ref.shape}"
        assert y.dtype == np.dtype(dtype), f"{name}: dtype {y.dtype}"
        np.testing.assert_allclose(
            y.astype(np.float64), ref, atol=oracle_atol, rtol=0,
            err_msg=f"{name} vs direct oracle",
        )

    # Bitwise class: identical summation order.
    np.testing.assert_array_equal(
        outs["thread"], outs["thread@1"],
        err_msg="thread executor at 2 and 1 workers must agree bitwise",
    )

    # Tight class: same math, different association order.
    pair_atol = 1e-12 * scale if np.dtype(dtype) == np.float64 else 1e-5 * scale
    base = outs["sequential"].astype(np.float64)
    for name in ("fused", "blocked", "thread", "compiled"):
        if name not in outs:
            continue
        np.testing.assert_allclose(
            outs[name].astype(np.float64), base, atol=pair_atol, rtol=0,
            err_msg=f"{name} vs sequential plan",
        )


def test_executor_matrix_repeatable():
    """Repeated executions are deterministic per executor (no state
    bleed through the pools, arenas or caches)."""
    spec, batch, channels, spatial, padding, dtype = CASES[1][1:]
    img, ker = _data(batch, channels, spatial, spec, dtype, seed=3)
    first = _all_executors(spec, img, ker, padding, dtype)
    second = _all_executors(spec, img, ker, padding, dtype)
    for name in first:
        np.testing.assert_array_equal(
            first[name], second[name], err_msg=f"{name} not deterministic"
        )


#: The compiled library's entry points: stage name -> (the stage grid
#: it runs on, its buffer operands in call order).  Stage 3 writes the
#: final cropped output ``out`` over stage 3's grid.
COMPILED_STAGES = {
    "stage1": ("stage1", STAGE_BUFFERS["stage1"]),
    "stage2": ("stage2", STAGE_BUFFERS["stage2"]),
    "stage3_direct": ("stage3", ("x", "out")),
}


@pytest.mark.parametrize("stage_set", ["numpy", "compiled"])
@pytest.mark.parametrize(
    "spec,batch,channels,spatial,padding,dtype",
    [c[1:] for c in CASES],
    ids=[c[0] for c in CASES],
)
def test_stage_slices_fill_like_full_range(
    stage_set, spec, batch, channels, spatial, padding, dtype
):
    """Running every slice of a stage's static schedule fills its output
    buffer bitwise-identically to one full-range call -- at 1, 3, 13 and
    40 workers (40 outnumbers most grids' tasks, so some slices are
    empty).  The thread executor rests on this for the numpy bodies: it
    is what makes its results independent of worker count.  The
    compiled entry points take the same ranges, so any partition of
    their grids must give the bits of the executor's full-range calls."""
    if stage_set == "compiled" and not compiled_available():
        pytest.skip("no C toolchain")
    img, ker = _data(batch, channels, spatial, spec, dtype)
    plan = _plan(spec, img, ker, padding, dtype)
    if stage_set == "compiled":
        stages = get_compiled_stages(plan, BLK, 8)
        entry_points = COMPILED_STAGES
    else:
        stages = NumpyStages(plan, BLK, 8)
        entry_points = {name: (name, bufs) for name, bufs in STAGE_BUFFERS.items()}
    rng = np.random.default_rng(1)
    shapes = buffer_shapes(plan, 8)
    shapes["out"] = (batch, plan.c_out) + plan.grid.output_shape
    buffers = {
        name: rng.standard_normal(shape).astype(dtype)
        for name, shape in shapes.items()
    }
    grids = stage_grids(plan, BLK, 8)
    schedules = {n: stage_schedules(plan, BLK, 8, n) for n in (1, 3, 13, 40)}
    for name, (grid, (*sources, dest)) in entry_points.items():
        body = getattr(stages, name)
        args = [buffers[b] for b in sources]
        full = np.zeros_like(buffers[dest])
        body(*args, full, tuple((0, p) for p in grids[grid]))
        for n, schedule in schedules.items():
            sliced = np.zeros_like(full)
            for sl in schedule[grid]:
                body(*args, sliced, sl.ranges)
            np.testing.assert_array_equal(
                sliced, full, err_msg=f"{stage_set} {name}: {n} slices != full range"
            )


@pytest.mark.parametrize("n_workers", [3, 5])
@pytest.mark.parametrize("case", [CASES[3], CASES[4]], ids=[CASES[3][0], CASES[4][0]])
def test_thread_process_bitwise_at_odd_worker_counts(case, n_workers):
    """Worker counts other than 2 (non-power-of-two schedules with
    uneven and empty slices): the thread executor agrees bitwise with
    its single-worker run and computes the right convolution."""
    _, spec, batch, channels, spatial, padding, dtype = case
    img, ker = _data(batch, channels, spatial, spec, dtype, seed=n_workers)
    plan = _plan(spec, img, ker, padding, dtype)
    y_thread = _thread(plan, img, ker, n_workers)
    np.testing.assert_array_equal(
        y_thread, _thread(plan, img, ker, 1),
        err_msg=f"thread executor at {n_workers} workers differs from 1 worker",
    )
    ref = direct_convolution(
        img.astype(np.float64), ker.astype(np.float64), padding
    )
    scale = float(np.abs(ref).max())
    atol = 1e-10 * scale if np.dtype(dtype) == np.float64 else 5e-4 * scale
    np.testing.assert_allclose(
        y_thread.astype(np.float64), ref, atol=atol, rtol=0,
        err_msg=f"{n_workers}-worker result vs direct oracle",
    )


def test_compiled_fallback_is_visible_and_correct(monkeypatch):
    """With the toolchain masked (``CC=/bin/false``), a compiled-backend
    request must still return the right convolution -- via the fused
    path -- and the reroute must be observable in the metrics."""
    spec, batch, channels, spatial, padding, dtype = CASES[0][1:]
    img, ker = _data(batch, channels, spatial, spec, dtype, seed=7)

    monkeypatch.setenv("CC", "/bin/false")
    clear_compiled_caches()
    try:
        metrics = MetricsRegistry()
        with ConvolutionEngine(metrics=metrics) as engine:
            y = engine.run(
                img, ker, fmr=spec, padding=padding, dtype=dtype,
                backend="compiled",
            )
        assert metrics.counter_value("engine.fallbacks.compiled_to_fused") == 1
        assert metrics.counter_value("engine.fallbacks") == 1
    finally:
        # Drop the poisoned probe result so later tests re-probe the
        # real toolchain (monkeypatch restores $CC on exit).
        clear_compiled_caches()

    ref = direct_convolution(
        img.astype(np.float64), ker.astype(np.float64), padding
    )
    scale = float(np.abs(ref).max())
    np.testing.assert_allclose(
        y.astype(np.float64), ref, atol=1e-10 * scale, rtol=0,
        err_msg="fallback result vs direct oracle",
    )


# ----------------------------------------------------------------------
# Batch axis: the serving batcher's coalescing contract.
#
# ``ConvolutionEngine.run_many`` stacks same-(C, *spatial) requests
# along the batch dimension (optionally zero-padding up to a bucket
# size) and executes them as ONE dispatch.  The contract the serving
# front-end sells is that coalescing is *invisible*: every request's
# output is bitwise identical to what a lone ``run`` call would have
# produced.  That holds because every algorithm computes output samples
# independently -- per-sample stage-1 and stage-3 GEMMs in the fused
# path, per-tile block-K loops in the compiled one, per-sample GEMMs in
# im2col -- and these tests pin it for every algorithm that supports
# the layer (Winograd on both backends), tile sizes up to the VGG
# workload's F(4x4,3x3), N-D and large-kernel cases, and randomly
# composed mixed-shape queues.
# ----------------------------------------------------------------------
ENGINE_BACKENDS = BACKENDS

#: How a request is pinned to each algorithm (and Winograd backend).
#: Winograd runs the layer's pinned ``fmr``; the others pick their own.
ENGINE_MODES = {
    **{b: dict(algorithm="winograd", backend=b) for b in ENGINE_BACKENDS},
    **{a: dict(algorithm=a) for a in ALGORITHMS if a != "winograd"},
}


def _supports(algorithm: str, kernel: tuple[int, ...]) -> bool:
    """Whether ``algorithm`` takes a layer with this kernel."""
    if algorithm == "nested":
        return nested_supported(kernel)
    return algorithm != "winograd" or max(kernel) <= MAX_SINGLE_LEVEL_R


def _mode_kwargs(mode: str, spec: FmrSpec | None = None) -> dict:
    if mode == "compiled" and not compiled_available():
        pytest.skip("no C toolchain")
    kwargs = dict(ENGINE_MODES[mode])
    if kwargs["algorithm"] == "winograd" and spec is not None:
        kwargs["fmr"] = spec
    return kwargs


#: (id suffix, fmr, channels, spatial, padding) of the batch-invariance
#: layers, C -> C channels; the first keeps the bare mode id.  The
#: 8-channel layers are shapes on which a batch-folded im2col GEMM
#: rounds differently than a lone sample's; the unpadded 1x1 layer is
#: im2col's unlowered GEMM, the padded one its lowering.
RUN_MANY_LAYERS = (
    ("", FmrSpec(m=(2, 2), r=(3, 3)), 16, (10, 10), (1, 1)),
    ("F(4x4,3x3)", FmrSpec(m=(4, 4), r=(3, 3)), 16, (10, 10), (1, 1)),
    ("F(2x2x2,3x3x3)", FmrSpec(m=(2, 2, 2), r=(3, 3, 3)), 16, (6, 5, 6), (1, 1, 1)),
    ("8ch-7x7", FmrSpec(m=(2, 2), r=(3, 3)), 8, (7, 7), (1, 1)),
    ("8ch-6x5x6", FmrSpec(m=(2, 2, 2), r=(3, 3, 3)), 8, (6, 5, 6), (1, 1, 1)),
    ("F(2x2,5x5)", FmrSpec(m=(2, 2), r=(5, 5)), 8, (9, 9), (1, 1)),
    ("1x1", FmrSpec(m=(2, 2), r=(1, 1)), 12, (9, 7), (0, 0)),
    ("1x1-pad1", FmrSpec(m=(2, 2), r=(1, 1)), 12, (9, 7), (1, 1)),
)


@pytest.mark.parametrize("mode, spec, channels, spatial, padding", [
    pytest.param(mode, spec, c, spatial, padding,
                 id="-".join(filter(None, (mode, name))))
    for name, spec, c, spatial, padding in RUN_MANY_LAYERS
    for mode, pin in ENGINE_MODES.items()
    if _supports(pin["algorithm"], spec.r)
])
def test_run_many_bitwise_equals_run(mode, spec, channels, spatial, padding):
    kwargs = dict(padding=padding, dtype=np.float32, **_mode_kwargs(mode, spec))
    rng = np.random.default_rng(11)
    ker = (rng.standard_normal((channels, channels) + spec.r) * 0.2).astype(np.float32)
    # Mixed per-request batch sizes, coalesced total 5, bucketed to 8.
    reqs = [
        rng.standard_normal((b, channels) + spatial).astype(np.float32)
        for b in (1, 2, 1, 1)
    ]
    with ConvolutionEngine() as engine:
        batched = engine.run_many(reqs, ker, pad_to=8, **kwargs)
        singles = [engine.run(im, ker, **kwargs) for im in reqs]
    for i, (one, many) in enumerate(zip(singles, batched)):
        np.testing.assert_array_equal(
            one, many,
            err_msg=f"{mode}: request {i} batched != per-request",
        )
    # And the batch is still the right convolution.
    for im, many in zip(reqs, batched):
        ref = direct_convolution(
            im.astype(np.float64), ker.astype(np.float64), kwargs["padding"]
        )
        scale = float(np.abs(ref).max())
        np.testing.assert_allclose(
            many.astype(np.float64), ref, atol=5e-4 * scale, rtol=0,
            err_msg=f"{mode}: batched result vs direct oracle",
        )


def test_run_many_rejects_mismatched_signatures():
    rng = np.random.default_rng(0)
    ker = (rng.standard_normal((8, 8, 3, 3)) * 0.2).astype(np.float32)
    a = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
    b = rng.standard_normal((1, 8, 10, 10)).astype(np.float32)
    with ConvolutionEngine() as engine:
        with pytest.raises(ValueError, match="share"):
            engine.run_many([a, b], ker, padding=(1, 1))
        with pytest.raises(ValueError, match="pad_to"):
            engine.run_many([a], ker, padding=(1, 1), pad_to=0)


@pytest.mark.parametrize("seed", range(5))
def test_fuzz_mixed_shape_queue_batching(seed):
    """Randomly composed multi-shape queues, grouped the way the serving
    batcher keys them, stay bitwise-faithful to per-request execution.

    Emulates the server's shape-keyed coalescing: a shuffled queue of
    requests over several (C, *spatial) signatures is grouped by
    signature, each group runs as one bucketed ``run_many`` dispatch
    under every algorithm that supports it, on a SHARED engine (so
    groups contend for the same plan cache and arena, as they do in the
    server), and every output is compared bitwise against a lone ``run``
    of the same request.
    """
    r = random.Random(4200 + seed)
    rng = np.random.default_rng(4200 + seed)
    signatures = r.sample(
        [(8, (8, 8)), (8, (10, 10)), (16, (8, 8)), (8, (6, 6, 6))], k=3
    )
    kernels = {}
    queue = []
    for c, spatial in signatures:
        nd = len(spatial)
        kernels[(c, spatial)] = (
            rng.standard_normal((c, 8) + (3,) * nd) * 0.2
        ).astype(np.float32)
        for _ in range(r.randint(1, 4)):
            queue.append(
                (c, spatial,
                 rng.standard_normal((r.randint(1, 2), c) + spatial)
                 .astype(np.float32))
            )
    r.shuffle(queue)
    with ConvolutionEngine() as engine:
        groups: dict[tuple, list[np.ndarray]] = {}
        for c, spatial, im in queue:
            groups.setdefault((c, spatial), []).append(im)
        for (c, spatial), reqs in groups.items():
            nd = len(spatial)
            ker = kernels[(c, spatial)]
            total = sum(im.shape[0] for im in reqs)
            pad_to = 1 << (total - 1).bit_length()  # power-of-two bucket
            for mode, pin in ENGINE_MODES.items():
                if not _supports(pin["algorithm"], ker.shape[2:]) or (
                    mode == "compiled" and not compiled_available()
                ):
                    continue
                kwargs = dict(padding=(1,) * nd, **pin)
                batched = engine.run_many(reqs, ker, pad_to=pad_to, **kwargs)
                for i, (im, many) in enumerate(zip(reqs, batched)):
                    one = engine.run(im, ker, **kwargs)
                    np.testing.assert_array_equal(
                        one, many,
                        err_msg=(f"seed={seed} sig=({c},{spatial}) {mode} "
                                 f"request {i}: batched != per-request"),
                    )


# ----------------------------------------------------------------------
# Dtype axis: a request's dtype is the dtype it is computed in.
#
# A float64 request must come back float64 at float64 accuracy under
# every algorithm that supports the layer -- with a fresh result and
# with a float64 ``out=`` -- so an ``auto`` decision times every
# candidate at the precision it will serve.
# ----------------------------------------------------------------------
#: (id, kernel) of the dtype-axis layers: batch 2, 8 -> 8 on 12x12,
#: "same" padding; the 5x5 layer brings in nested Winograd, the 1x1
#: layer im2col's unlowered GEMM.
DTYPE_LAYERS = (("3x3", (3, 3)), ("5x5", (5, 5)), ("1x1", (1, 1)))


@pytest.mark.parametrize("with_out", [False, True], ids=["fresh", "out"])
@pytest.mark.parametrize("algorithm, kernel", [
    pytest.param(algo, kernel, id=f"{algo}-{name}")
    for name, kernel in DTYPE_LAYERS
    for algo in ALGORITHMS
    if _supports(algo, kernel)
])
def test_float64_request_computes_in_float64(algorithm, kernel, with_out):
    rng = np.random.default_rng(5)
    img = rng.standard_normal((2, 8, 12, 12))
    ker = rng.standard_normal((8, 8) + kernel) * 0.2
    padding = tuple(r // 2 for r in kernel)
    ref = direct_convolution(img, ker, padding)
    out = np.empty_like(ref) if with_out else None
    with ConvolutionEngine() as engine:
        got = engine.run(img, ker, padding=padding, dtype=np.float64,
                         algorithm=algorithm, out=out)
    assert got.dtype == np.float64
    assert out is None or got is out
    err = float(np.abs(got - ref).max() / np.abs(ref).max())
    assert err < 1e-10, f"{algorithm}: relative error {err:.1e} vs float64 oracle"


# ----------------------------------------------------------------------
# Shape fuzzing: thread-parallel executor vs the direct oracle.
# ----------------------------------------------------------------------
def _fuzz_one(ndim, m, channels, c_out, batch, size, pad):
    spec = FmrSpec(m=(m,) * ndim, r=(3,) * ndim)
    spatial = tuple(size + d for d in range(ndim))  # slightly anisotropic
    padding = (pad,) * ndim
    rng = np.random.default_rng(hash((ndim, m, channels, c_out, batch, size, pad)) % 2**32)
    img = rng.standard_normal((batch, channels) + spatial).astype(np.float32)
    ker = (rng.standard_normal((channels, c_out) + spec.r) * 0.2).astype(np.float32)

    simd = parallel_simd_width(channels, c_out)
    plan = WinogradPlan(
        spec=spec, input_shape=img.shape, c_out=c_out,
        padding=padding, dtype=np.float32,
    )
    blocking = BlockingConfig(
        n_blk=6, c_blk=channels, cprime_blk=c_out, simd_width=simd
    )
    y = _thread(plan, img, ker, 2, blocking=blocking, simd=simd)
    ref = direct_convolution(
        img.astype(np.float64), ker.astype(np.float64), padding
    )
    scale = float(np.abs(ref).max()) or 1.0
    shape_msg = (f"ndim={ndim} m={m} C={channels} C'={c_out} B={batch} "
                 f"I={spatial} P={padding}")
    np.testing.assert_allclose(
        y.astype(np.float64), ref, atol=5e-4 * scale, rtol=0,
        err_msg=f"thread executor vs oracle: {shape_msg}",
    )
    if compiled_available():
        # Same shapes through the generated C: the codegen has its own
        # edge cases (cropped tails, the narrow S of odd channel
        # counts), so the fuzzer drives it against the oracle too.
        with ConvolutionEngine(backend="compiled") as engine:
            yc = engine.run(img, ker, fmr=spec, padding=padding)
            assert engine.metrics.counter_value("engine.fallbacks") == 0
        np.testing.assert_allclose(
            yc.astype(np.float64), ref, atol=5e-4 * scale, rtol=0,
            err_msg=f"compiled backend vs oracle: {shape_msg}",
        )


if HAVE_HYPOTHESIS:

    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(
        ndim=st.sampled_from([2, 3]),
        m=st.sampled_from([2, 4]),
        channels=st.sampled_from([3, 6, 8, 12, 16, 32]),
        c_out=st.sampled_from([5, 8, 10, 16]),
        batch=st.integers(min_value=1, max_value=3),
        size=st.integers(min_value=5, max_value=13),
        pad=st.integers(min_value=0, max_value=1),
    )
    def test_fuzz_parallel_vs_oracle(ndim, m, channels, c_out, batch, size, pad):
        if ndim == 3:  # keep 3-D volumes laptop-sized
            size = min(size, 7)
            channels = min(channels, 16)
        _fuzz_one(ndim, m, channels, c_out, batch, size, pad)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_parallel_vs_oracle(seed):
        r = random.Random(1000 + seed)
        ndim = r.choice([2, 3])
        _fuzz_one(
            ndim=ndim,
            m=r.choice([2, 4]),
            channels=r.choice([3, 6, 8, 12, 16] if ndim == 3
                              else [3, 6, 8, 12, 16, 32]),
            c_out=r.choice([5, 8, 10, 16]),
            batch=r.randint(1, 3),
            size=r.randint(5, 7 if ndim == 3 else 13),
            pad=r.randint(0, 1),
        )


# ----------------------------------------------------------------------
# Graph axis: whole-graph execution joins the matrix (PR 9).  The graph
# executor composes the same engine dispatches the rows above pin down,
# plus epilogue fusion and arena placement -- so on every backend the
# optimized whole-graph pass must stay BITWISE equal to the naive
# node-at-a-time replay of its own plan, and allclose to the float64
# direct-convolution oracle.  The deep per-network/fusion/fault matrix
# lives in tests/test_graph.py; this axis keeps graphs in the same file
# that guards every other executor pairing.
# ----------------------------------------------------------------------
def _assert_graph_differential(engine, graph, backend, seed=0):
    from repro.graph import GraphExecutor, execute_plan_naive, oracle_execute

    rng = np.random.default_rng(seed)
    feeds = {
        name: rng.standard_normal(shape).astype(np.float32)
        for name, shape in graph.inputs.items()
    }
    ex = GraphExecutor(graph, engine, backend=backend)
    out = ex.run(feeds)
    naive = execute_plan_naive(ex.plan, engine, feeds)
    oracle = oracle_execute(graph, feeds)
    for name in out:
        np.testing.assert_array_equal(
            out[name], naive[name],
            err_msg=f"{graph.name}[{backend}]/{name}: graph != node-at-a-time",
        )
        scale = max(float(np.abs(oracle[name]).max()), 1.0)
        np.testing.assert_allclose(
            out[name].astype(np.float64), oracle[name],
            atol=5e-4 * scale, rtol=0,
            err_msg=f"{graph.name}[{backend}]/{name}: graph vs direct oracle",
        )


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
@pytest.mark.parametrize("network", ("vgg", "residual"))
def test_graph_execution_matrix(backend, network):
    from repro.graph import graph_scaled_vgg, residual_block

    if backend == "compiled" and not compiled_available():
        pytest.skip("no C toolchain")
    graph = graph_scaled_vgg() if network == "vgg" else residual_block()
    with ConvolutionEngine() as engine:
        _assert_graph_differential(engine, graph, backend)


@pytest.mark.parametrize("seed", range(8))
def test_graph_fuzz_topologies_vs_oracle(seed):
    """Seeded random DAGs (fan-out, skips, diamonds) through the fused
    engine: bitwise vs naive replay, allclose vs the float64 oracle."""
    from repro.graph import random_graph

    graph = random_graph(np.random.default_rng(2000 + seed))
    with ConvolutionEngine() as engine:
        _assert_graph_differential(engine, graph, None, seed=seed)


# ----------------------------------------------------------------------
# Nested axis: the large-kernel decomposition joins the matrix (PR 10).
# ``algorithm="nested"`` reduces an r > 3 layer to ONE channel-stacked
# r = 3 Winograd problem and hands it to whichever backend the request
# names -- so every backend stays allclose to the float64 direct
# oracle, and on every backend the engine's nested dispatch is bitwise
# identical to manually stacking the input/kernels and running the
# plain Winograd path on that backend (the decomposition adds no
# arithmetic of its own, only data movement).
# ----------------------------------------------------------------------
#: (id, batch, channels, spatial, padding, kernel) -- channels chosen
#: so every stacked channel count G*C is a multiple of 16, the compiled
#: backend's widest SIMD group.
NESTED_DIFF_CASES = [
    ("2d-r5", 2, 16, (12, 12), (2, 2), (5, 5)),
    ("2d-r7", 1, 16, (14, 14), (3, 3), (7, 7)),
    ("2d-r9x7-aniso", 1, 16, (12, 12), (2, 3), (9, 7)),
    ("3d-r5", 1, 16, (7, 7, 7), (1, 1, 1), (5, 5, 5)),
]


def _nested_data(batch, channels, spatial, kernel, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((batch, channels) + spatial).astype(np.float32)
    ker = (
        rng.standard_normal((channels, channels) + kernel) * 0.2
    ).astype(np.float32)
    return img, ker


@pytest.mark.parametrize(
    "batch,channels,spatial,padding,kernel",
    [c[1:] for c in NESTED_DIFF_CASES],
    ids=[c[0] for c in NESTED_DIFF_CASES],
)
def test_nested_executor_matrix(batch, channels, spatial, padding, kernel):
    from repro.core.nested import NestedWinogradExecutor
    from repro.nets.layers import ConvLayerSpec

    img, ker = _nested_data(batch, channels, spatial, kernel)
    layer = ConvLayerSpec(
        network="diff", name="nested", batch=batch, c_in=channels,
        c_out=channels, image=spatial, padding=padding, kernel=kernel,
    )
    ex = NestedWinogradExecutor(layer)
    outs, manual = {}, {}
    with ConvolutionEngine() as engine:
        for backend in ENGINE_BACKENDS:
            if backend == "compiled" and not compiled_available():
                continue
            outs[backend] = engine.run(
                img, ker, padding=padding, algorithm="nested", backend=backend
            )
            # Manual decomposition: stack outside the engine, run the
            # plain Winograd path on the stacked problem.  Must match
            # the engine's nested dispatch bit for bit.
            manual[backend] = engine.run(
                ex.stack_input(img), ex.prepare_kernels(ker),
                padding=ex.inner_padding, algorithm="winograd", backend=backend,
            )

    ref = direct_convolution(
        img.astype(np.float64), ker.astype(np.float64), padding
    )
    scale = float(np.abs(ref).max())
    for name, y in outs.items():
        assert y.shape == ref.shape, f"{name}: shape {y.shape} != {ref.shape}"
        np.testing.assert_allclose(
            y.astype(np.float64), ref, atol=5e-4 * scale, rtol=0,
            err_msg=f"nested[{name}] vs direct oracle",
        )
        np.testing.assert_array_equal(
            y, manual[name],
            err_msg=f"nested[{name}] dispatch != manual stack + plain Winograd",
        )


def test_nested_repeatable():
    """Warm re-execution (memoized stacked kernels, plan-cache hit,
    arena-leased stacking buffer) changes no bits on any backend."""
    batch, channels, spatial, padding, kernel = NESTED_DIFF_CASES[1][1:]
    img, ker = _nested_data(batch, channels, spatial, kernel, seed=5)
    with ConvolutionEngine() as engine:
        for backend in ENGINE_BACKENDS:
            if backend == "compiled" and not compiled_available():
                continue
            first = engine.run(
                img, ker, padding=padding, algorithm="nested", backend=backend
            )
            second = engine.run(
                img, ker, padding=padding, algorithm="nested", backend=backend
            )
            np.testing.assert_array_equal(
                first, second, err_msg=f"nested[{backend}] not deterministic"
            )
