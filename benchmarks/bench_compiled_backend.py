"""E24 -- compiled C codelet backend vs warm fused-numpy [real].

The compiled backend lowers the three Winograd stages (and the blocked
stage-2 GEMM) to C compiled at plan time.  This bench answers the one
question that justifies its existence: on real Table-2 layer shapes,
how much faster is the compiled hot path than the warm fused-numpy
path it replaces?

Measurement protocol:

* every Table-2 layer (scaled to container size: batch=4, channels/4,
  image/4) runs through one :class:`Engine` per layer with both
  backends,
* both paths are **warm**: plan cached, kernel transform memoized (the
  FX path), compiled library already built -- the first run of each
  backend is discarded,
* timings are min-of-k from the engine's own tracer spans, at two
  levels: ``execute.fused`` / ``execute.compiled`` (executor level:
  the three stages, the work the C lowering replaces) and the
  ``request`` span (engine level: adds shared plumbing -- content
  fingerprint, cache lookups -- identical for both backends),
* every compiled result is checked against the float64
  direct-convolution oracle, and a repeated compiled run must be
  **bitwise identical** (fixed arithmetic order in the generated C).

Results land in ``results/BENCH_compiled.json`` with per-stage span
minima for both backends.  Acceptance gate: executor-level geomean
speedup >= 2.0x (skipped in smoke mode and on hosts without a C
toolchain, where the backend falls back to fused by design).

Set ``REPRO_BENCH_SMOKE=1`` for a quick CI run (three layers, smaller
scale, correctness + JSON only, no perf gate).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from conftest import format_table
from repro.core.compiled_backend import compiled_available
from repro.core.engine import ConvolutionEngine
from repro.core.fmr import FmrSpec
from repro.nets.layers import TABLE2_LAYERS
from repro.nets.reference import direct_convolution
from repro.obs.tracer import Tracer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Fused per-stage span -> compiled per-stage span.  Both paths take
#: the engine's memoized kernel transform, so no kernel stage is timed.
STAGE_SPANS = {
    "stage1": ("fused.stage1", "compiled.stage1"),
    "stage2": ("fused.stage2", "compiled.stage2"),
    "stage3": ("fused.stage3", "compiled.stage3"),
}


def _spec_for(layer) -> FmrSpec:
    # F(4,3) for 2-D layers, F(2,3) for 3-D: same choices the sequential
    # Table-2 benches use (tile sizes stay cache-resident).
    m = 4 if layer.ndim == 2 else 2
    return FmrSpec.uniform(layer.ndim, m, 3)


def _min_span_ms(tracer: Tracer, name: str, backend: str | None = None) -> float:
    spans = [
        s for s in tracer.spans(name)
        if backend is None or s.attrs.get("backend") == backend
    ]
    if not spans:
        return float("nan")
    return min(s.duration for s in spans) * 1e3


def _bench_layer(layer, repeats: int) -> dict:
    spec = _spec_for(layer)
    rng = np.random.default_rng(24)
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

    tracer = Tracer()
    engine = ConvolutionEngine(tracer=tracer)
    try:
        kw = dict(fmr=spec, padding=layer.padding, dtype=np.float32)
        # Warm both paths: plan build, kernel-transform memo, compiled
        # library build/dlopen all happen here, outside the timed runs.
        y_fused = engine.run(img, ker, backend="fused", **kw)
        y_comp = engine.run(img, ker, backend="compiled", **kw)
        for label, y in (("fused", y_fused), ("compiled", y_comp)):
            relerr = float(np.abs(y.astype(np.float64) - ref).max() / ref_scale)
            assert relerr < 1e-3, f"{layer.label} {label}: relerr {relerr}"
        y_again = engine.run(img, ker, backend="compiled", **kw)
        assert np.array_equal(y_comp, y_again), (
            f"{layer.label}: compiled backend is not run-to-run deterministic"
        )
        relerr_compiled = float(
            np.abs(y_comp.astype(np.float64) - ref).max() / ref_scale
        )

        for _ in range(repeats):
            engine.run(img, ker, backend="fused", **kw)
            engine.run(img, ker, backend="compiled", **kw)
    finally:
        engine.close()

    exec_fused = _min_span_ms(tracer, "execute.fused")
    exec_comp = _min_span_ms(tracer, "execute.compiled")
    stages = {
        key: {"fused_ms": _min_span_ms(tracer, fspan),
              "compiled_ms": _min_span_ms(tracer, cspan)}
        for key, (fspan, cspan) in STAGE_SPANS.items()
    }
    return {
        "layer": layer.label,
        "network": layer.network,
        "shape": f"B{layer.batch} {layer.c_in}->{layer.c_out}"
                 f"@{'x'.join(map(str, layer.image))}",
        "spec": str(spec),
        "executor_fused_ms": exec_fused,
        "executor_compiled_ms": exec_comp,
        "executor_speedup": exec_fused / exec_comp,
        "engine_fused_ms": _min_span_ms(tracer, "request", backend="fused"),
        "engine_compiled_ms": _min_span_ms(tracer, "request", backend="compiled"),
        "stages": stages,
        "relerr_vs_direct": relerr_compiled,
        "deterministic": True,
    }


def test_compiled_backend_speedup(benchmark, results_dir, bench_header):
    """[real] compiled C stages vs warm fused-numpy across Table-2."""
    if not compiled_available():
        pytest.skip("no C toolchain/cffi: compiled backend falls back to fused")

    repeats = 2 if SMOKE else 7
    scaling = (
        dict(batch=1, channels_divisor=8, image_divisor=4)
        if SMOKE
        else dict(batch=4, channels_divisor=4, image_divisor=4)
    )
    layers = [lay.scaled(**scaling) for lay in TABLE2_LAYERS]
    if SMOKE:
        # One layer per network family keeps CI under a minute.
        seen, subset = set(), []
        for lay in layers:
            if lay.network not in seen:
                seen.add(lay.network)
                subset.append(lay)
        layers = subset

    def run():
        return [_bench_layer(lay, repeats) for lay in layers]

    records = benchmark.pedantic(run, rounds=1, iterations=1)

    speedups = [r["executor_speedup"] for r in records]
    geomean = float(np.exp(np.mean(np.log(speedups))))

    rows = [
        [r["layer"], r["shape"],
         f"{r['executor_fused_ms']:.2f}", f"{r['executor_compiled_ms']:.2f}",
         f"{r['executor_speedup']:.2f}",
         f"{r['engine_fused_ms'] / r['engine_compiled_ms']:.2f}",
         f"{r['relerr_vs_direct']:.1e}"]
        for r in records
    ]
    print(f"\nCompiled backend vs warm fused-numpy [real] -- Table-2 scaled "
          f"(batch={layers[0].batch}), host cores: {os.cpu_count()}")
    print(format_table(
        ["layer", "shape", "fused_ms", "compiled_ms", "exec_x",
         "engine_x", "relerr"],
        rows,
    ))
    print(f"executor-level geomean speedup: {geomean:.2f}x")

    payload = {
        **bench_header,
        "smoke": SMOKE,
        "scaling": scaling,
        "repeats": repeats,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "executor_geomean_speedup": geomean,
        "records": records,
    }
    out = results_dir / "BENCH_compiled.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")

    # Smoke layers are trimmed below the sizes where the C lowering's
    # advantage is meaningful; the full-size gate is the acceptance bar.
    if SMOKE:
        pytest.skip("smoke mode: JSON written, perf gate needs full-size layers")
    assert geomean >= 2.0, (
        f"compiled backend geomean speedup {geomean:.2f}x < 2.0x over "
        f"warm fused-numpy (per-layer: "
        + ", ".join(f"{r['layer']}={r['executor_speedup']:.2f}x" for r in records)
        + ")"
    )
