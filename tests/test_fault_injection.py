"""Fallback lane: the engine's one fallback edge, ``compiled -> fused``.

A compiled-backend request reroutes to the fused path when the host has
no C toolchain (checked up front, before any plan is built) or when
compiling the plan's codelets fails mid-request.  These tests break the
build (the ``failing_codelet_build`` fixture in ``conftest.py``) and
assert the documented recovery:

* the rerouted request returns exactly what ``backend="fused"`` returns,
  bit for bit;
* the reroute is visible: one ``engine.fallbacks.compiled_to_fused``
  count and one ``fallback`` trace event per rerouted request, and the
  ``request`` span names the edge it took;
* the failed build is remembered on the plan entry, so later requests go
  straight to fused without rerunning the compiler, until the entry is
  evicted.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import ConvolutionEngine
from repro.core.fmr import FmrSpec

SPEC = FmrSpec(m=(2, 2), r=(3, 3))


def _data(seed=0, c=16, hw=10):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((1, c, hw, hw)).astype(np.float32)
    kernels = (rng.standard_normal((c, c, 3, 3)) * 0.2).astype(np.float32)
    return images, kernels


class TestFallbackChain:
    def test_build_failure_falls_back_bitwise_to_fused(self, failing_codelet_build):
        images, kernels = _data()
        with ConvolutionEngine() as ref:
            expect = ref.run(images, kernels, fmr=SPEC)
        with ConvolutionEngine(backend="compiled") as eng:
            out = eng.run(images, kernels, fmr=SPEC)
            np.testing.assert_array_equal(out, expect)
            m = eng.metrics
            assert m.counter_value("engine.fallbacks") == 1
            assert m.counter_value("engine.fallbacks.compiled_to_fused") == 1
            (ev,) = eng.tracer.spans("fallback")
            assert ev.attrs["source"] == "compiled"
            assert ev.attrs["target"] == "fused"
            assert ev.attrs["error"] == "CodeletBuildError"
            (req,) = eng.tracer.spans("request")
            assert req.attrs["fallback"] == "compiled->fused"
        assert len(failing_codelet_build) == 1

    def test_failed_build_is_not_retried_per_request(self, failing_codelet_build):
        images, kernels = _data()
        with ConvolutionEngine(backend="compiled") as eng:
            outs = [eng.run(images, kernels, fmr=SPEC) for _ in range(3)]
            assert eng.metrics.counter_value(
                "engine.fallbacks.compiled_to_fused") == 3
        assert len(failing_codelet_build) == 1
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])

    def test_evicted_entry_retries_the_build(self, failing_codelet_build):
        images, kernels = _data()
        with ConvolutionEngine(backend="compiled") as eng:
            eng.run(images, kernels, fmr=SPEC)
            eng.plans.clear()
            eng.run(images, kernels, fmr=SPEC)
        assert len(failing_codelet_build) == 2
