"""E22 (extension) -- wall-clock scaling of the Sec. 4.5 thread runtime [real].

The sequential :class:`WinogradPlan` pipeline vs the thread-parallel
executor (the paper's recursive-GCD static schedule, one fork-join per
stage over the spin barrier) across worker counts, on a scaled Table-2
VGG layer.

What the curve shows on the numpy substrate: threads do not beat the
sequential plan, because the GIL serializes the Python between numpy
and BLAS calls, and each fork-join round adds barrier and scheduling
cost.  The row is the reproduction of the paper's runtime, not a
serving path -- the engine serves ``fused`` and ``compiled``.

All timings are min-of-k (the only stable statistic on shared CPUs) and
every output is checked against the direct-convolution oracle before it
is timed, so the curve is a curve of correct runs.  The thread rows must
also agree bitwise across worker counts (every worker runs the same
stage bodies over slices of the same grids).

Results land in ``results/BENCH_parallel.json`` with the host core
count recorded.  Set ``REPRO_BENCH_SMOKE=1`` for a quick CI smoke run
(smaller layer, fewer repeats, correctness checks only).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import format_table
from repro.core.blocking import BlockingConfig
from repro.core.convolution import WinogradPlan
from repro.core.engine import default_parallel_blocking, parallel_simd_width
from repro.core.fmr import FmrSpec
from repro.core.parallel_convolution import ParallelWinogradExecutor
from repro.nets.layers import TABLE2_LAYERS
from repro.nets.reference import direct_convolution

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _mintime(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _worker_counts(cores: int) -> list[int]:
    counts = {1, 2}
    if cores > 2:
        counts.add(min(cores, 8))
    return sorted(counts)


def test_parallel_scaling(benchmark, results_dir, bench_header):
    """[real] sequential vs thread wall clock across worker counts."""
    cores = os.cpu_count() or 1
    repeats = 2 if SMOKE else 5

    # VGG-3.2 scaled to laptop size but kept heavy enough that stage-2
    # arithmetic is not lost in the per-stage fork-join overhead.
    scaling = (
        dict(batch=2, channels_divisor=16, image_divisor=2)
        if SMOKE
        else dict(batch=8, channels_divisor=2, image_divisor=2)
    )
    layer = TABLE2_LAYERS[2].scaled(**scaling)
    spec = FmrSpec.uniform(layer.ndim, 4, 3)
    rng = np.random.default_rng(22)
    img = rng.standard_normal(
        (layer.batch, layer.c_in) + layer.image
    ).astype(np.float32)
    ker = (
        rng.standard_normal((layer.c_in, layer.c_out) + layer.kernel) * 0.1
    ).astype(np.float32)
    ref = direct_convolution(
        img.astype(np.float64), ker.astype(np.float64), layer.padding
    )
    ref_scale = float(np.abs(ref).max())

    simd = parallel_simd_width(layer.c_in, layer.c_out)
    blocking: BlockingConfig = default_parallel_blocking(
        layer.c_in, layer.c_out, simd
    )

    def check(y, label):
        relerr = float(np.abs(y.astype(np.float64) - ref).max() / ref_scale)
        assert relerr < 1e-3, f"{label}: relerr {relerr}"
        return relerr

    def run():
        records = []

        # Sequential baseline: plan built once (compile time excluded,
        # as for the executors); the timed body is kernel transform +
        # 3-stage execute -- the same work the thread pipeline does.
        plan = WinogradPlan(
            spec=spec,
            input_shape=img.shape,
            c_out=layer.c_out,
            padding=layer.padding,
            dtype=np.float32,
        )
        y = plan.execute(img, plan.transform_kernels(ker))
        relerr = check(y, "sequential")
        t_seq = _mintime(
            lambda: plan.execute(img, plan.transform_kernels(ker)), repeats
        )
        records.append(
            {"backend": "sequential", "workers": 1, "min_ms": t_seq * 1e3,
             "speedup_vs_sequential": 1.0, "relerr_vs_direct": relerr}
        )

        y_first = None
        for n in _worker_counts(cores):
            with ParallelWinogradExecutor(
                plan=plan, blocking=blocking, n_threads=n, simd_width=simd
            ) as execu:
                y = execu.execute(img, ker)
                relerr = check(y, f"thread@{n}")
                if y_first is None:
                    y_first = y.copy()
                # Identical summation order => bitwise equality.
                assert np.array_equal(y, y_first), (
                    f"thread executor at {n} workers diverged bitwise"
                )
                t = _mintime(lambda: execu.execute(img, ker), repeats)
            records.append(
                {"backend": "thread", "workers": n, "min_ms": t * 1e3,
                 "speedup_vs_sequential": t_seq / t,
                 "relerr_vs_direct": relerr}
            )
        return records

    records = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [r["backend"], r["workers"], f"{r['min_ms']:.2f}",
         f"{r['speedup_vs_sequential']:.2f}", f"{r['relerr_vs_direct']:.1e}"]
        for r in records
    ]
    print(f"\nParallel scaling [real] -- {layer.label} scaled "
          f"(B={layer.batch} C={layer.c_in}->{layer.c_out} "
          f"I={'x'.join(map(str, layer.image))}), host cores: {cores}")
    print(format_table(
        ["backend", "workers", "min_ms", "vs_sequential", "relerr"], rows
    ))

    payload = {
        **bench_header,
        "smoke": SMOKE,
        "layer": layer.label,
        "scaled_shape": f"B{layer.batch} {layer.c_in}->{layer.c_out}"
                        f"@{'x'.join(map(str, layer.image))}",
        "spec": str(spec),
        "blocking": blocking.describe(),
        "records": records,
    }
    out = results_dir / "BENCH_parallel.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")
