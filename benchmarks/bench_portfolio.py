"""Algorithm-portfolio benchmark: ``auto`` vs always-Winograd [real].

Sweeps kernel size (the crossover driver, r in {1, 3, 5, 7}), channels
and batch through two engines -- one pinned to ``algorithm="winograd"``,
one on ``algorithm="auto"`` -- and compares *warm* per-request latency.
The portfolio thesis (Sec. 2 of the paper, inverted): Winograd wins the
CNN workhorse regime (r = 3/5), but a 1x1 layer is a pure channel GEMM
the Winograd transforms can only slow down, and large-r small-channel
layers belong to the FFT.  ``auto`` should match Winograd where Winograd
wins (decision overhead < 2%) and beat it where it does not.

Results land in ``results/BENCH_portfolio.json`` with the per-shape
decision (algorithm, source, median probe seconds per candidate) and
the warm dispatch-overhead measurement.

Gates:

* on every swept shape, ``auto`` is >= 1.0x Winograd within noise
  (asserted as auto <= 1.10x Winograd's time);
* at least two non-Winograd-favorable shapes run > 1.15x faster under
  ``auto`` (one in smoke mode);
* warm ``auto`` dispatch overhead on a Winograd-winning shape is < 5%
  (the memoized decision is one dict lookup; the 2% target is recorded,
  the gate is loosened for timer noise on shared CI hosts).

Set ``REPRO_BENCH_SMOKE=1`` for a quick CI run (four shapes, fewer
repeats).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.engine import ConvolutionEngine
from repro.nets.layers import ConvLayerSpec
from repro.util.reporting import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

REPEATS = 5 if SMOKE else 15
WARMUP = 2 if SMOKE else 3


def _shape(r: int, c_in: int, c_out: int, img: int, batch: int = 1) -> ConvLayerSpec:
    return ConvLayerSpec(
        network="portfolio", name=f"r{r}c{c_in}-{c_out}i{img}b{batch}",
        batch=batch, c_in=c_in, c_out=c_out, image=(img, img),
        padding=(r // 2, r // 2), kernel=(r, r),
    )


#: The sweep: per r-regime, shapes on both sides of the crossover.
#: "wino" marks shapes the portfolio is expected to keep on Winograd
#: (used only for reporting; the gates count measured speedups).
FULL_SHAPES = [
    _shape(1, 32, 32, 64),
    _shape(1, 64, 64, 32, batch=2),
    _shape(3, 32, 32, 64),
    _shape(3, 64, 64, 32),
    _shape(5, 32, 32, 64),
    _shape(7, 8, 8, 96),
    _shape(7, 16, 16, 64),
    _shape(7, 8, 16, 96),
]
SMOKE_SHAPES = [
    _shape(1, 32, 32, 64),
    _shape(3, 32, 32, 32),
    _shape(5, 16, 16, 32),
    _shape(7, 8, 8, 96),
]
SHAPES = SMOKE_SHAPES if SMOKE else FULL_SHAPES


def _layer_arrays(layer: ConvLayerSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    images = rng.standard_normal(
        (layer.batch, layer.c_in) + layer.image
    ).astype(np.float32)
    kernels = (
        rng.standard_normal((layer.c_in, layer.c_out) + layer.kernel) * 0.1
    ).astype(np.float32)
    return images, kernels


def _warm_seconds(engine, images, kernels, padding, repeats=REPEATS) -> float:
    """Best-of-N warm request latency through ``engine.run``."""
    for _ in range(WARMUP):
        engine.run(images, kernels, padding=padding)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine.run(images, kernels, padding=padding)
        best = min(best, time.perf_counter() - t0)
    return best


def _paired_warm_seconds(
    engines, images, kernels, padding, repeats=REPEATS
) -> list[float]:
    """Best-of-N warm latency per engine, with repeats *interleaved*
    across the engines so clock drift and background load hit both
    comparably (sub-millisecond shapes are otherwise dominated by it)."""
    for e in engines:
        for _ in range(WARMUP):
            e.run(images, kernels, padding=padding)
    best = [float("inf")] * len(engines)
    for _ in range(repeats):
        for i, e in enumerate(engines):
            t0 = time.perf_counter()
            e.run(images, kernels, padding=padding)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_portfolio_auto_vs_winograd(results_dir, bench_header):
    rng = np.random.default_rng(7)
    records = []
    rows = []
    # One auto engine across the sweep (shared wisdom, like serving);
    # the pinned engine is the always-Winograd comparator.
    auto = ConvolutionEngine(algorithm="auto")
    wino = ConvolutionEngine(algorithm="winograd")
    for layer in SHAPES:
        images, kernels = _layer_arrays(layer, rng)
        wino_s, auto_s = _paired_warm_seconds(
            (wino, auto), images, kernels, layer.padding
        )
        decision = auto.algorithm_decisions()[-1]
        speedup = wino_s / auto_s
        records.append({
            "layer": layer.label,
            "r": layer.kernel[0],
            "batch": layer.batch,
            "channels": [layer.c_in, layer.c_out],
            "image": list(layer.image),
            "winograd_seconds": wino_s,
            "auto_seconds": auto_s,
            "auto_speedup": speedup,
            "decision": decision["algorithm"],
            "decision_source": decision["source"],
            "measured": decision["measured"],
        })
        rows.append([
            layer.label, f"r={layer.kernel[0]}", decision["algorithm"],
            f"{wino_s * 1e3:.3f}", f"{auto_s * 1e3:.3f}", f"{speedup:.2f}x",
        ])

    # Warm dispatch overhead on a Winograd-winning shape: after the
    # memoized decision, "auto" adds one dict lookup per request.
    overhead_layer = next(
        (r for r in records if r["decision"] == "winograd"), records[0]
    )
    layer = next(l for l in SHAPES if l.label == overhead_layer["layer"])
    images, kernels = _layer_arrays(layer, rng)
    reps = REPEATS * (3 if SMOKE else 5)
    w, a = _paired_warm_seconds(
        (wino, auto), images, kernels, layer.padding, repeats=reps
    )
    overhead = a / w - 1.0

    print(f"\nAlgorithm portfolio: auto vs always-Winograd [real], "
          f"host cores: {os.cpu_count()}")
    print(format_table(
        ["shape", "regime", "auto chose", "wino_ms", "auto_ms", "speedup"],
        rows,
    ))
    print(f"warm auto dispatch overhead on {layer.label}: {overhead * 100:+.2f}%")

    payload = {
        **bench_header,
        "smoke": SMOKE,
        "repeats": REPEATS,
        "records": records,
        "dispatch_overhead_fraction": overhead,
        "dispatch_overhead_layer": layer.label,
    }
    out = results_dir / "BENCH_portfolio.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")

    # Gate 1: auto never loses to always-Winograd beyond noise.
    for r in records:
        assert r["auto_speedup"] >= 1 / 1.10, (
            f"auto lost to winograd on {r['layer']}: {r['auto_speedup']:.2f}x "
            f"(chose {r['decision']})"
        )
    # Gate 2: the crossover regimes actually pay off.
    wins = [
        r for r in records
        if r["decision"] != "winograd" and r["auto_speedup"] > 1.15
    ]
    need = 1 if SMOKE else 2
    assert len(wins) >= need, (
        f"expected >= {need} non-Winograd shapes beating Winograd by >1.15x, "
        f"got {[(r['layer'], round(r['auto_speedup'], 2)) for r in wins]}"
    )
    # Gate 3: warm dispatch overhead stays negligible (2% target; 5%
    # asserted to survive CI timer noise).
    assert overhead < 0.05, (
        f"warm auto dispatch overhead {overhead * 100:.1f}% exceeds 5%"
    )


def test_portfolio_decisions_persist(results_dir, tmp_path):
    """A second engine re-reading the wisdom skips probing entirely."""
    if SMOKE:
        pytest.skip("covered by the full run; redundant in smoke mode")
    layer = _shape(1, 16, 16, 32)
    rng = np.random.default_rng(0)
    images, kernels = _layer_arrays(layer, rng)
    path = tmp_path / "wisdom.json"
    e1 = ConvolutionEngine(algorithm="auto", wisdom_path=path)
    e1.run(images, kernels, padding=layer.padding)
    e1.save_wisdom()
    e2 = ConvolutionEngine(algorithm="auto", wisdom_path=path)
    e2.run(images, kernels, padding=layer.padding)
    (decision,) = e2.algorithm_decisions()
    assert decision["source"] == "wisdom"
