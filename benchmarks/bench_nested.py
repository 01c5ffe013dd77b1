"""Nested-Winograd large-kernel benchmark (E28) [real].

Sweeps the large-kernel showcase layers (r in {5, 7, 9, 11}; see
``repro.nets.layers.LARGE_KERNEL_LAYERS``) through a warm engine pinned
to ``algorithm="nested"`` and compares against the *best* prepared
non-Winograd baseline (FFT, direct, im2col) per layer.  One-level fp32
Winograd is excluded by construction: past r = 5 its error blows through
the 1e-2 training threshold (Table 3; ``bench_table3_accuracy.py``
measures the nested side of that story), so the portfolio never offers
it and the honest comparator is the baseline portfolio.

The nested decomposition (``repro.core.nested``) reduces the r > 3
layer to ONE channel-stacked r = 3 Winograd problem, so it inherits the
engine's whole warm path -- plan cache, kernel-transform memoization,
workspace arena -- and the engine's backends unchanged.

Results land in ``results/BENCH_nested.json`` with the shared
provenance header, per-layer timings, the portfolio's probed decision
for the r >= 7 layers, and the edge-neon vs manycore-knl prediction
divergence (both sides oracle-validated).

Gates:

* nested clears >= 1.2x over the best non-Winograd baseline on at
  least two large-r layers (one in smoke mode) -- losing layers are
  recorded honestly (r = 11 belongs to the FFT on this host);
* the ``auto`` portfolio picks ``nested`` for at least one r >= 7
  layer under the default (manycore-knl) profile;
* the edge-neon and manycore-knl profiles' cost models rank a different
  algorithm first on at least one layer of the scaled Table-2 +
  large-kernel sweep, and both disagreeing choices are validated
  against the float64 direct-convolution oracle.

Set ``REPRO_BENCH_SMOKE=1`` for a quick CI run (three layers, fewer
repeats).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.engine import ConvolutionEngine
from repro.machine.profiles import get_profile
from repro.nets.layers import LARGE_KERNEL_LAYERS, TABLE2_LAYERS, ConvLayerSpec
from repro.nets.reference import reference_convolution
from repro.util.errors import element_errors
from repro.util.reporting import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

REPEATS = 5 if SMOKE else 12
WARMUP = 2 if SMOKE else 3

#: Non-Winograd comparators; the per-layer reference is the *best* one.
BASELINES = ("fft", "direct", "im2col")

SMOKE_LAYERS = tuple(
    l for l in LARGE_KERNEL_LAYERS
    if l.label in ("Stem-5x5/a", "Stem-7x7", "SRCNN-9x9")
)
LAYERS = SMOKE_LAYERS if SMOKE else LARGE_KERNEL_LAYERS


def _layer_arrays(layer: ConvLayerSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    images = rng.standard_normal(
        (layer.batch, layer.c_in) + layer.image
    ).astype(np.float32)
    kernels = (
        rng.standard_normal((layer.c_in, layer.c_out) + layer.kernel) * 0.1
    ).astype(np.float32)
    return images, kernels


def _interleaved_warm_seconds(
    engine, images, kernels, padding, algorithms, repeats=REPEATS
) -> dict[str, float]:
    """Best-of-N warm latency per forced algorithm, repeats interleaved
    so clock drift and background load hit every algorithm comparably."""
    for algo in algorithms:
        for _ in range(WARMUP):
            engine.run(images, kernels, padding=padding, algorithm=algo)
    best = {algo: float("inf") for algo in algorithms}
    for _ in range(repeats):
        for algo in algorithms:
            t0 = time.perf_counter()
            engine.run(images, kernels, padding=padding, algorithm=algo)
            best[algo] = min(best[algo], time.perf_counter() - t0)
    return best


def test_nested_large_kernel(results_dir, bench_header):
    rng = np.random.default_rng(11)
    engine = ConvolutionEngine()  # default profile: manycore-knl
    auto = ConvolutionEngine(algorithm="auto")

    # ------------------------------------------------------------------
    # Section 1: nested vs the best non-Winograd baseline, warm.
    # ------------------------------------------------------------------
    records = []
    rows = []
    for layer in LAYERS:
        images, kernels = _layer_arrays(layer, rng)
        times = _interleaved_warm_seconds(
            engine, images, kernels, layer.padding, ("nested",) + BASELINES
        )
        best_baseline = min(BASELINES, key=times.__getitem__)
        speedup = times[best_baseline] / times["nested"]
        record = {
            "layer": layer.label,
            "r": max(layer.kernel),
            "batch": layer.batch,
            "channels": [layer.c_in, layer.c_out],
            "image": list(layer.image),
            "seconds": {a: times[a] for a in ("nested",) + BASELINES},
            "best_baseline": best_baseline,
            "nested_speedup": speedup,
        }
        # The probed portfolio decision for the r >= 7 layers (the
        # regime one-level Winograd is numerically barred from).
        if max(layer.kernel) >= 7:
            auto.run(images, kernels, padding=layer.padding)
            record["auto_decision"] = auto.algorithm_decisions()[-1]["algorithm"]
            record["auto_source"] = auto.algorithm_decisions()[-1]["source"]
        records.append(record)
        rows.append([
            layer.label, f"r={max(layer.kernel)}",
            f"{times['nested'] * 1e3:.3f}",
            f"{times[best_baseline] * 1e3:.3f} ({best_baseline})",
            f"{speedup:.2f}x",
            record.get("auto_decision", "-"),
        ])

    print(f"\nNested Winograd vs best baseline [real], "
          f"host cores: {os.cpu_count()}")
    print(format_table(
        ["layer", "regime", "nested_ms", "best_baseline_ms", "speedup", "auto"],
        rows,
    ))

    # ------------------------------------------------------------------
    # Section 2: machine-profile divergence of the cost models' first
    # choice, both sides checked against the float64 direct-convolution
    # oracle.
    # ------------------------------------------------------------------
    from repro.core.portfolio import PortfolioPlanner
    from repro.util.wisdom import Wisdom

    planners = {
        name: PortfolioPlanner(get_profile(name), Wisdom())
        for name in ("manycore-knl", "edge-neon")
    }
    sweep = [
        l.scaled(batch=1, channels_divisor=4, image_divisor=4)
        for l in TABLE2_LAYERS
    ] + list(LARGE_KERNEL_LAYERS)
    divergence = []
    for layer in sweep:
        chosen = {}
        for name, planner in planners.items():
            preds = planner.candidates(layer)
            chosen[name] = min(preds, key=preds.__getitem__)
        if len(set(chosen.values())) > 1:
            divergence.append({"layer": layer.label, **chosen})

    # Oracle-validate both profiles' choices on the first divergent
    # layers (every further one picks from the same algorithm set).
    n_validate = 1 if SMOKE else 2
    validations = []
    for entry in divergence[:n_validate]:
        layer = next(
            l for l in sweep if l.label == entry["layer"]
        )
        images, kernels = _layer_arrays(layer, rng)
        oracle = reference_convolution(images, kernels, padding=layer.padding)
        for profile_name in planners:
            algo = entry[profile_name]
            out = engine.run(
                images, kernels, padding=layer.padding, algorithm=algo
            )
            err = element_errors(out, oracle).max_error
            validations.append({
                "layer": layer.label, "profile": profile_name,
                "algorithm": algo, "max_error": err,
            })
            assert err < 1e-2, (layer.label, profile_name, algo, err)

    print(f"\nProfile divergence (model ranking): "
          f"{len(divergence)} differing decisions")
    for v in validations:
        print(f"  {v['layer']:16s} {v['profile']:14s} -> {v['algorithm']:8s} "
              f"oracle max err {v['max_error']:.2e}")

    # ------------------------------------------------------------------
    # Payload + gates.
    # ------------------------------------------------------------------
    payload = {
        **bench_header,
        "smoke": SMOKE,
        "repeats": REPEATS,
        "records": records,
        "profile_divergence": divergence,
        "profile_divergence_validations": validations,
    }
    out = results_dir / "BENCH_nested.json"
    out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {out}")

    # Gate 1: nested pays off on the large-kernel sweep.
    wins = [r for r in records if r["nested_speedup"] >= 1.2]
    need = 1 if SMOKE else 2
    assert len(wins) >= need, (
        f"expected >= {need} layers with nested >= 1.2x over the best "
        f"baseline, got "
        f"{[(r['layer'], round(r['nested_speedup'], 2)) for r in records]}"
    )
    # Gate 2: the portfolio actually picks nested somewhere in the
    # r >= 7 regime under the default profile.
    nested_picks = [
        r for r in records
        if r.get("auto_decision") == "nested" and r["r"] >= 7
    ]
    assert nested_picks, (
        f"auto never chose nested for an r >= 7 layer: "
        f"{[(r['layer'], r.get('auto_decision')) for r in records]}"
    )
    # Gate 3: the machine-profile registry changes decisions.
    assert divergence, "edge-neon and manycore-knl agreed on every layer"
    assert len(validations) >= 2  # both profiles oracle-validated
