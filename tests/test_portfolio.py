"""Tests for the algorithm-portfolio planner and its supporting layers.

Covers the decision pipeline end to end:

* unit-comparable cost entries (``predict_algorithm_seconds``), which
  the benchmarks rank with and the planner never consults;
* the planner's probe -> remember flow: every candidate the layer
  supports (:func:`candidates`), one discarded warm-up each, then
  interleaved rounds under the probe budget, the fastest median winning;
* engine dispatch: forced algorithms, ``"auto"`` (one decision per
  batch-free signature), the baseline plan cache (memoized FFT spectra
  / GEMM operands), and the ``out=`` calling convention;
* wisdom persistence: round-trip and the stale-wisdom hazard --
  entries under a different machine fingerprint or schema version
  (batch-keyed schema-1 and model-shortlisted schema-2 files included),
  or naming an algorithm the layer does not support, must be ignored
  (not crash, not silently win);
* differential correctness of every portfolio member against the
  direct-convolution oracle on fuzzed shapes.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.base import UnsupportedLayer
from repro.baselines.direct import DirectConvBaseline
from repro.baselines.fft import FftConvBaseline
from repro.baselines.im2col import Im2colBaseline
from repro.core.compiled_backend import compiled_available
from repro.core.engine import ConvolutionEngine, PlanKey
from repro.core.fmr import FmrSpec
from repro.core.nested import nested_supported
from repro.core import portfolio
from repro.core.portfolio import (
    ALGORITHMS,
    PROBE_REPEATS,
    PortfolioPlanner,
    candidates,
    make_baseline,
    portfolio_key,
)
from repro.machine.cost import predict_algorithm_seconds
from repro.machine.spec import GENERIC_AVX2, KNL_7210
from repro.nets.layers import ConvLayerSpec
from repro.nets.reference import direct_convolution
from repro.util.wisdom import (
    ALGO_SCHEMA_VERSION,
    AlgoWisdomEntry,
    Wisdom,
    WisdomEntry,
)


def _layer(r=3, c_in=8, c_out=8, img=16, batch=1, ndim=2) -> ConvLayerSpec:
    return ConvLayerSpec(
        network="test", name=f"r{r}", batch=batch, c_in=c_in, c_out=c_out,
        image=(img,) * ndim, padding=(r // 2,) * ndim, kernel=(r,) * ndim,
    )


def _arrays(layer, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal(
        (layer.batch, layer.c_in) + layer.image
    ).astype(np.float32)
    kernels = (
        rng.standard_normal((layer.c_in, layer.c_out) + layer.kernel) * 0.1
    ).astype(np.float32)
    return images, kernels


#: A wisdom file as the schema-1 code wrote it for a 16 -> 16 1x1 layer
#: on 12x12 at batch 2: decisions keyed with the batch (``B2``), one
#: probed and one prediction-only, beside a calibration section.
SCHEMA1_WISDOM = {
    "version": 2,
    "entries": {},
    "algos": {
        KNL_7210.fingerprint(): {
            "algo|B2|C16|Cp16|I12x12|P0x0|R1x1|float32": {
                "algorithm": "im2col", "source": "probed", "schema": 1,
                "predicted": {"direct": 2.0e-4, "fft": 9.2e-4,
                              "im2col": 3.3e-4, "winograd": 3.2e-3},
                "measured": {"direct": 2.0e-4, "im2col": 1.4e-4,
                             "winograd": 3.2e-4},
            },
            "algo|B1|C16|Cp16|I12x12|P0x0|R1x1|float32": {
                "algorithm": "direct", "source": "predicted", "schema": 1,
                "predicted": {"direct": 1.4e-7, "im2col": 2.3e-7},
                "measured": {},
            },
        },
    },
    "calibration": {KNL_7210.fingerprint(): 1423.18},
}

#: The same layer's decision as the schema-2 code wrote it: batch-free
#: key, probed from a model-ranked shortlist, predictions beside the
#: best-of-3 measurements.
SCHEMA2_WISDOM = {
    "version": 2,
    "entries": {},
    "algos": {
        KNL_7210.fingerprint(): {
            "algo|C16|Cp16|I12x12|P0x0|R1x1|float32": {
                "algorithm": "direct", "schema": 2,
                "predicted": {"direct": 1.4e-7, "fft": 6.1e-7,
                              "im2col": 2.3e-7, "winograd": 3.2e-6},
                "measured": {"direct": 1.1e-4, "im2col": 1.2e-4,
                             "winograd": 3.0e-4},
            },
        },
    },
}


# ----------------------------------------------------------------------
# Cost entries
# ----------------------------------------------------------------------
class TestPredictAlgorithmSeconds:
    @pytest.mark.parametrize("r", [1, 3, 5, 7])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_positive_finite_for_all_algorithms(self, algo, r):
        layer = _layer(r=r, c_in=16, c_out=16, img=32)
        if algo == "nested" and not nested_supported(layer.kernel):
            # Nested is a large-kernel decomposition; asking the cost
            # model about an r <= 3 layer is a caller bug, not a number.
            with pytest.raises(UnsupportedLayer):
                predict_algorithm_seconds(algo, layer, KNL_7210)
            return
        s = predict_algorithm_seconds(algo, layer, KNL_7210)
        assert np.isfinite(s) and s > 0

    def test_winograd_handles_model_illegal_channels(self):
        # C=3 defeats the cost model's divisible-by-S requirement; the
        # roofline fallback must still produce a sane number.
        layer = _layer(r=3, c_in=3, c_out=20, img=32)
        s = predict_algorithm_seconds("winograd", layer, KNL_7210)
        assert np.isfinite(s) and s > 0

    def test_regime_rankings_match_the_theory(self):
        # r=1: Winograd transforms are pure overhead over a channel GEMM.
        one = _layer(r=1, c_in=32, c_out=32, img=64)
        preds = {
            a: predict_algorithm_seconds(a, one, KNL_7210)
            for a in ALGORITHMS if a != "nested"  # nested needs r > 3
        }
        assert min(preds, key=preds.__getitem__) in ("direct", "im2col")
        # Large r, small channels: FFT's O(n log n) wins (nested included
        # in the ranking -- its stacked-channel GEMM cannot catch FFT at
        # 16 channels).
        seven = _layer(r=7, c_in=16, c_out=16, img=64)
        preds = {
            a: predict_algorithm_seconds(a, seven, KNL_7210) for a in ALGORITHMS
        }
        assert min(preds, key=preds.__getitem__) == "fft"

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            predict_algorithm_seconds("strassen", _layer(), KNL_7210)

    def test_fft_warm_prediction_excludes_kernel_side_work(self):
        layer = _layer(r=7, c_in=32, c_out=32, img=32)
        fft = FftConvBaseline(KNL_7210)
        assert fft.predicted_seconds(layer, warm=True) < fft.predicted_seconds(layer)


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPortfolioPlanner:
    def test_decision_records_measured_medians_only(self):
        layer = _layer(r=7, c_in=16, c_out=16, img=64)
        wisdom = Wisdom()
        choice = PortfolioPlanner(KNL_7210, wisdom).decide(
            layer, runner=lambda algo: 1.0
        )
        # r=7 offers the full crossover set minus one-level Winograd
        # (numerically barred) -- nested stands in for the family.
        assert set(choice.measured) == {"nested", "fft", "direct", "im2col"}
        assert choice.as_dict() == {
            "algorithm": choice.algorithm, "source": "probed",
            "measured": choice.measured,
        }
        entry = wisdom.algo_get(KNL_7210.fingerprint(), portfolio_key(layer))
        assert entry.measured == choice.measured
        assert not hasattr(choice, "predicted") and not hasattr(entry, "predicted")

    def test_warm_ups_then_interleaved_rounds_median_wins(self):
        layer = _layer(r=5, c_in=16, c_out=16, img=32)
        planner = PortfolioPlanner(KNL_7210, Wisdom())
        supported = candidates(layer)
        # Per round, nested reads 1, 9, 2 and im2col 3, 3, 3: nested's
        # median (2) wins although its mean (4) and im2col's best (3)
        # would not; the warm-ups (100) are discarded.
        rounds = {"nested": [1e-3, 9e-3, 2e-3]}
        calls: list[str] = []

        def runner(algo):
            n = calls.count(algo)
            calls.append(algo)
            if n == 0:
                return 0.1
            return rounds.get(algo, [3e-3] * PROBE_REPEATS)[n - 1]

        choice = planner.decide(layer, runner=runner)
        assert calls == list(supported) * (1 + PROBE_REPEATS)
        assert choice.source == "probed"
        assert choice.measured == dict.fromkeys(supported, 3e-3) | {"nested": 2e-3}
        assert choice.algorithm == "nested"

    def test_repeats_stop_at_the_probe_budget(self, monkeypatch):
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(
            portfolio, "time", SimpleNamespace(perf_counter=lambda: clock.now)
        )
        calls: list[str] = []

        def runner(algo):  # each probe costs 60% of the budget
            calls.append(algo)
            clock.now += 0.6 * portfolio.PROBE_BUDGET_SECONDS
            return 1e-3

        layer = _layer(r=3, c_in=16, c_out=16, img=16)
        PortfolioPlanner(KNL_7210, Wisdom()).decide(layer, runner=runner)
        # The warm-ups and the first timed round run although the
        # budget is spent during the warm-ups; no second round starts.
        assert calls == list(candidates(layer)) * 2

    def test_probe_overrides_model_ranking(self):
        # The fake host inverts the model's r=1 ranking: winograd
        # measures fastest, and the measurement decides.
        planner = PortfolioPlanner(KNL_7210, Wisdom())
        times = {"winograd": 1e-4}
        choice = planner.decide(
            _layer(r=1, c_in=16, c_out=16, img=32),
            runner=lambda algo: times.get(algo, 1e-2),
        )
        assert choice.source == "probed"
        assert choice.algorithm == "winograd"

    def test_winograd_is_always_probed(self):
        # Even where the model ranks winograd last (r=1), it is probed
        # -- the no-regression guarantee for "auto".
        planner = PortfolioPlanner(KNL_7210, Wisdom())
        probed = []
        planner.decide(
            _layer(r=1, c_in=32, c_out=32, img=64),
            runner=lambda algo: probed.append(algo) or 1e-3,
        )
        assert "winograd" in probed

    def test_decision_recorded_and_replayed_from_wisdom(self):
        wisdom = Wisdom()
        planner = PortfolioPlanner(KNL_7210, wisdom)
        layer = _layer(r=7, c_in=16, c_out=16, img=64)
        first = planner.decide(layer, runner=lambda algo: 1e-3)
        assert wisdom.algo_count == 1
        replay = PortfolioPlanner(KNL_7210, wisdom).decide(
            layer, runner=lambda algo: pytest.fail("wisdom hit must not probe")
        )
        assert replay.source == "wisdom"
        assert replay.algorithm == first.algorithm

    def test_portfolio_key_encodes_kernel_extent(self):
        a = portfolio_key(_layer(r=1))
        b = portfolio_key(_layer(r=3))
        assert a != b
        assert portfolio_key(_layer(r=3)) == portfolio_key(_layer(r=3))

    def test_portfolio_key_leaves_out_the_batch(self):
        assert portfolio_key(_layer(batch=1)) == portfolio_key(_layer(batch=8))
        assert portfolio_key(_layer(), "float32") != portfolio_key(
            _layer(), "float64"
        )

    def test_make_baseline_rejects_winograd_and_unknown(self):
        for algo in ("fft", "direct", "im2col"):
            impl = make_baseline(algo, KNL_7210)
            assert hasattr(impl, "execute_prepared")
        with pytest.raises(ValueError):
            make_baseline("winograd", KNL_7210)
        with pytest.raises(ValueError):
            make_baseline("strassen", KNL_7210)


# ----------------------------------------------------------------------
# Engine dispatch
# ----------------------------------------------------------------------
class TestEngineAlgorithmDispatch:
    @pytest.mark.parametrize("algo", ["fft", "direct", "im2col"])
    def test_forced_algorithm_matches_oracle(self, algo):
        layer = _layer(r=3, c_in=8, c_out=8, img=12)
        images, kernels = _arrays(layer)
        ref = direct_convolution(images, kernels, padding=layer.padding,
                                 dtype=np.float32)
        with ConvolutionEngine() as eng:
            out = eng.run(images, kernels, padding=layer.padding, algorithm=algo)
        np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_engine_level_algorithm_default(self):
        layer = _layer(r=3, c_in=8, c_out=8, img=12)
        images, kernels = _arrays(layer)
        with ConvolutionEngine(algorithm="im2col") as eng:
            out = eng.run(images, kernels, padding=layer.padding)
            assert eng.metrics.counter_value("engine.requests.im2col") == 1
        ref = direct_convolution(images, kernels, padding=layer.padding,
                                 dtype=np.float32)
        np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            ConvolutionEngine(algorithm="strassen")
        with ConvolutionEngine() as eng:
            images, kernels = _arrays(_layer())
            with pytest.raises(ValueError, match="algorithm"):
                eng.run(images, kernels, algorithm="strassen")

    def test_backend_knobs_conflict_with_baseline_algorithms(self):
        images, kernels = _arrays(_layer(c_in=16, c_out=16))
        with ConvolutionEngine() as eng:
            with pytest.raises(ValueError, match="winograd path"):
                eng.run(images, kernels, algorithm="fft", backend="fused")
            with pytest.raises(ValueError, match="winograd path"):
                eng.run(images, kernels, algorithm="fft", backend="compiled")
            # A pinned tile is a Winograd knob too; nested picks its own
            # inner F(m, 3), so it refuses one as well.
            for algo in ("fft", "direct", "im2col", "nested"):
                with pytest.raises(ValueError, match="fmr applies to the winograd path"):
                    eng.run(images, kernels, algorithm=algo, fmr="F(2x2,3x3)")
            assert eng.plans.keys() == []

    def test_auto_with_backend_knob_stays_winograd(self):
        layer = _layer(r=1, c_in=16, c_out=16, img=16)
        images, kernels = _arrays(layer)
        with ConvolutionEngine(algorithm="auto") as eng:
            eng.run(images, kernels, padding=layer.padding, backend="fused")
            # No decision was made: the backend knob pinned winograd.
            assert eng.algorithm_decisions() == []
        spec = FmrSpec(m=(2, 2), r=(1, 1))
        with ConvolutionEngine(algorithm="auto") as eng:
            out = eng.run(images, kernels, padding=layer.padding, fmr=spec)
            # A pinned tile pins winograd too, and runs that very tile.
            assert eng.algorithm_decisions() == []
            assert [k.spec for k in eng.plans.keys()] == [spec]
            assert eng.metrics.counter_value("engine.requests.fused") == 1
        ref = direct_convolution(images, kernels, padding=layer.padding,
                                 dtype=np.float32)
        np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_baseline_kernel_prep_is_memoized(self):
        layer = _layer(r=3, c_in=8, c_out=8, img=12)
        images, kernels = _arrays(layer)
        with ConvolutionEngine() as eng:
            eng.run(images, kernels, padding=layer.padding, algorithm="fft")
            misses = eng.plans.stats.kernel_misses
            eng.run(images, kernels, padding=layer.padding, algorithm="fft")
            assert eng.plans.stats.kernel_misses == misses
            assert eng.plans.stats.kernel_hits >= 1
            # Distinct kernel content is a distinct prep entry.
            eng.run(images, kernels + 1.0, padding=layer.padding, algorithm="fft")
            assert eng.plans.stats.kernel_misses == misses + 1

    def test_baseline_plan_keys_encode_algorithm_and_kernel(self):
        layer = _layer(r=3, c_in=8, c_out=8, img=12)
        images, kernels = _arrays(layer)
        with ConvolutionEngine() as eng:
            eng.run(images, kernels, padding=layer.padding, algorithm="fft")
            eng.run(images, kernels, padding=layer.padding, algorithm="im2col")
            baseline_keys = [
                k for k in eng.plans.keys() if k.algorithm != "winograd"
            ]
            assert {k.algorithm for k in baseline_keys} == {"fft", "im2col"}
            assert all(k.spec is None for k in baseline_keys)
            assert all(k.kernel == layer.kernel for k in baseline_keys)

    def test_out_buffer_roundtrip_through_engine(self):
        layer = _layer(r=3, c_in=8, c_out=8, img=12)
        images, kernels = _arrays(layer)
        ref = direct_convolution(images, kernels, padding=layer.padding,
                                 dtype=np.float32)
        with ConvolutionEngine() as eng:
            for algo in ("fft", "direct", "im2col"):
                out = np.empty_like(ref)
                got = eng.run(images, kernels, padding=layer.padding,
                              algorithm=algo, out=out)
                assert got is out
                np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_auto_memoizes_decision_per_shape(self):
        layer = _layer(r=1, c_in=8, c_out=8, img=16)
        images, kernels = _arrays(layer)
        with ConvolutionEngine(algorithm="auto") as eng:
            for _ in range(4):
                eng.run(images, kernels, padding=layer.padding)
            assert len(eng.algorithm_decisions()) == 1
            assert eng.wisdom.algo_count == 1
            stats = eng.stats()
            assert stats["algo_wisdom_entries"] == 1
            assert len(stats["algorithm_decisions"]) == 1

    def test_auto_decides_once_across_batch_sizes(self):
        """One signature through ``run_many`` at batches 1, 2, 4 and 8:
        the first batch decides (one probe span); every later batch
        reuses that decision, so one decision and one wisdom entry
        serve them all."""
        layer = _layer(r=3, c_in=8, c_out=16, img=12)
        _, kernels = _arrays(layer)
        rng = np.random.default_rng(1)
        with ConvolutionEngine(algorithm="auto") as eng:
            for batch in (1, 2, 4, 8):
                reqs = [
                    rng.standard_normal((1, 8, 12, 12)).astype(np.float32)
                    for _ in range(batch)
                ]
                eng.run_many(reqs, kernels, padding=layer.padding)
            (decision,) = eng.algorithm_decisions()
            assert decision["signature"] == portfolio_key(layer)
            assert eng.wisdom.algo_count == 1
            assert len(eng.tracer.spans("portfolio.probe")) == 1
            runs = {k.input_shape[0]: k.algorithm for k in eng.plans.keys()}
            assert runs == dict.fromkeys((1, 2, 4, 8), decision["algorithm"])

    def test_auto_keeps_only_the_decided_entry(self):
        """A 1x1 layer's ``auto`` decision probes several algorithms; the
        losers' plan entries are dropped, so the signature holds one
        entry -- the decided algorithm's -- and the next request hits it."""
        layer = _layer(r=1, c_in=16, c_out=16, img=16)
        images, kernels = _arrays(layer)
        with ConvolutionEngine(algorithm="auto") as eng:
            eng.run(images, kernels, padding=layer.padding)
            (decision,) = eng.algorithm_decisions()
            assert len(decision["measured"]) >= 2, "the decision probed"
            (key,) = eng.plans.keys()
            assert key.algorithm == decision["algorithm"]
            misses, hits = eng.plans.stats.misses, eng.plans.stats.hits
            eng.run(images, kernels, padding=layer.padding)
            assert eng.plans.stats.misses == misses
            assert eng.plans.stats.hits == hits + 1

    def test_auto_keeps_the_winners_probe_entries(self):
        """A 5x5 layer also probes nested Winograd, whose request builds
        two entries (its own and the inner r = 3 plan).  Only the
        winner's entries survive, and the next request builds nothing."""
        layer = _layer(r=5, c_in=8, c_out=8, img=20)
        images, kernels = _arrays(layer, seed=5)
        with ConvolutionEngine(algorithm="auto") as eng:
            eng.run(images, kernels, padding=layer.padding)
            (decision,) = eng.algorithm_decisions()
            assert len(decision["measured"]) >= 2, "the decision probed"
            winner = decision["algorithm"]
            algorithms = sorted(k.algorithm for k in eng.plans.keys())
            if winner == "nested":
                assert algorithms == ["nested", "winograd"]
            else:
                assert algorithms == [winner]
            misses = eng.plans.stats.misses
            eng.run(images, kernels, padding=layer.padding)
            assert eng.plans.stats.misses == misses

    def test_auto_decision_output_matches_oracle(self):
        for r in (1, 3, 7):
            layer = _layer(r=r, c_in=8, c_out=8, img=20)
            images, kernels = _arrays(layer, seed=r)
            ref = direct_convolution(images, kernels, padding=layer.padding,
                                     dtype=np.float32)
            with ConvolutionEngine(algorithm="auto") as eng:
                out = eng.run(images, kernels, padding=layer.padding)
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(out - ref).max() / scale < 1e-4


# ----------------------------------------------------------------------
# Baseline calling convention
# ----------------------------------------------------------------------
class TestBaselineConventions:
    @pytest.mark.parametrize("cls", [FftConvBaseline, Im2colBaseline])
    def test_prepare_then_execute_matches_direct_execute(self, cls):
        layer = _layer(r=3, c_in=4, c_out=4, img=10)
        images, kernels = _arrays(layer)
        impl = cls(KNL_7210) if cls is not DirectConvBaseline else cls()
        prepared = impl.prepare_kernels(kernels, layer)
        a = impl.execute_prepared(images, prepared, layer)
        b = impl.execute(images, kernels, layer)
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_out_parameter_fills_caller_buffer(self):
        layer = _layer(r=3, c_in=4, c_out=4, img=10)
        images, kernels = _arrays(layer)
        for algo in ("fft", "direct", "im2col"):
            impl = make_baseline(algo, KNL_7210)
            ref = impl.execute(images, kernels, layer)
            out = np.zeros_like(ref)
            got = impl.execute(images, kernels, layer, out=out)
            assert got is out
            np.testing.assert_allclose(out, ref, atol=1e-6)

    def test_out_shape_mismatch_raises(self):
        layer = _layer(r=3, c_in=4, c_out=4, img=10)
        images, kernels = _arrays(layer)
        impl = make_baseline("direct", KNL_7210)
        bad = np.empty((1, 4, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            impl.execute(images, kernels, layer, out=bad)


# ----------------------------------------------------------------------
# Wisdom v2 persistence
# ----------------------------------------------------------------------
class TestAlgoWisdom:
    FP = KNL_7210.fingerprint()

    def _entry(self, algo="fft", **kw):
        return AlgoWisdomEntry(
            algorithm=algo, measured={"fft": 0.5, "winograd": 0.9}, **kw,
        )

    def test_roundtrip_preserves_winners(self, tmp_path):
        w = Wisdom()
        w.put("blk", WisdomEntry(30, 8, 8, 2, 1e-3))
        w.algo_put(self.FP, "algo|k", self._entry())
        path = tmp_path / "wisdom.json"
        w.save(path)
        loaded = Wisdom.load(path)
        assert loaded.stale_dropped == 0
        entry = loaded.algo_get(self.FP, "algo|k")
        assert entry == self._entry()
        assert loaded.get("blk") == w.get("blk")

    def test_stale_schema_entries_dropped_not_crashing(self, tmp_path):
        w = Wisdom()
        w.algo_put(self.FP, "k", self._entry(schema=ALGO_SCHEMA_VERSION))
        path = tmp_path / "wisdom.json"
        w.save(path)
        payload = json.loads(path.read_text())
        payload["algos"][self.FP]["k"]["schema"] = ALGO_SCHEMA_VERSION + 1
        payload["algos"][self.FP]["stale2"] = {"not": "an entry"}
        path.write_text(json.dumps(payload))
        loaded = Wisdom.load(path)
        # Neither crash nor silent win: both bad entries are gone and
        # the drop is visible in the counter.
        assert loaded.algo_get(self.FP, "k") is None
        assert loaded.algo_get(self.FP, "stale2") is None
        assert loaded.stale_dropped == 2

    def test_wrong_machine_fingerprint_is_invisible(self):
        w = Wisdom()
        w.algo_put(
            GENERIC_AVX2.fingerprint(), portfolio_key(_layer()), self._entry()
        )
        planner = PortfolioPlanner(KNL_7210, w)
        choice = planner.decide(_layer(), runner=lambda algo: 1e-3)
        # The other machine's recorded winner must not leak in: this
        # decision is fresh (probed), not a wisdom replay.
        assert choice.source == "probed"
        assert w.algo_get(KNL_7210.fingerprint(), portfolio_key(_layer())) is not None

    def test_fingerprint_is_stable_and_spec_sensitive(self):
        assert KNL_7210.fingerprint() == KNL_7210.fingerprint()
        assert GENERIC_AVX2.fingerprint() != KNL_7210.fingerprint()
        # Any field change -- not just the name -- moves the fingerprint.
        from dataclasses import replace

        bumped = replace(KNL_7210, mem_bandwidth=KNL_7210.mem_bandwidth * 2)
        assert bumped.fingerprint() != KNL_7210.fingerprint()

    def test_bad_calibration_dropped_on_load(self, tmp_path):
        """The retired calibration section -- even a malformed one --
        loads as nothing: it is neither kept nor counted, and the next
        save does not write it back."""
        w = Wisdom()
        w.algo_put(self.FP, "k", self._entry())
        path = tmp_path / "wisdom.json"
        w.save(path)
        payload = json.loads(path.read_text())
        payload["calibration"] = {self.FP: -3.0, "other": "nonsense"}
        path.write_text(json.dumps(payload))
        loaded = Wisdom.load(path)
        assert loaded.stale_dropped == 0
        assert loaded.algo_get(self.FP, "k") == self._entry()
        loaded.save(path)
        assert "calibration" not in json.loads(path.read_text())

    def test_schema1_wisdom_file_loads_and_drops_its_entries(
        self, tmp_path, capsys
    ):
        """Files as the older code wrote them: schema 1 (a calibration
        section and batch-keyed decisions) and schema 2 (batch-free keys,
        decisions probed from a model-ranked shortlist).  Each loads; its
        decisions are dropped and counted, never trusted; ``repro
        wisdom`` prints it; and an ``auto`` engine reading it decides
        the signature afresh."""
        from repro.cli import main

        images, kernels = _arrays(_layer(r=1, c_in=16, c_out=16, img=12, batch=2))
        for payload, dropped in ((SCHEMA1_WISDOM, 2), (SCHEMA2_WISDOM, 1)):
            path = tmp_path / f"wisdom-{dropped}.json"
            path.write_text(json.dumps(payload))
            loaded = Wisdom.load(path)
            assert loaded.algo_count == 0
            assert loaded.stale_dropped == dropped
            assert main(["wisdom", "--file", str(path)]) == 0
            out = capsys.readouterr().out
            assert "algo entries     : 0" in out
            assert f"stale dropped    : {dropped}" in out
            with ConvolutionEngine(algorithm="auto", wisdom_path=path) as eng:
                eng.run(images, kernels)
                (decision,) = eng.algorithm_decisions()
                assert decision["source"] == "probed"

    @pytest.mark.parametrize("algorithm,r", [
        ("nested", 3),     # nested needs some r > 3: UnsupportedLayer
        ("strassen", 3),   # no such algorithm: ValueError
        ("auto", 3),       # not an executable algorithm: ValueError
        ("winograd", 7),   # past the r <= 5 fp32 accuracy gate
    ])
    def test_stored_non_candidate_is_decided_afresh(self, algorithm, r):
        """A current-schema entry naming an algorithm outside the
        layer's candidates is neither replayed nor allowed to fail the
        request: the signature is probed and the entry overwritten."""
        layer = _layer(r=r, c_in=8, c_out=8, img=24)
        key = portfolio_key(layer)
        wisdom = Wisdom()
        wisdom.algo_put(self.FP, key, AlgoWisdomEntry(algorithm=algorithm))
        images, kernels = _arrays(layer, seed=r)
        with ConvolutionEngine(algorithm="auto", wisdom=wisdom) as eng:
            out = eng.run(images, kernels, padding=layer.padding)
            (decision,) = eng.algorithm_decisions()
        assert decision["source"] == "probed"
        assert decision["algorithm"] in candidates(layer)
        assert wisdom.algo_get(self.FP, key).algorithm == decision["algorithm"]
        ref = direct_convolution(images, kernels, padding=layer.padding,
                                 dtype=np.float32)
        assert np.abs(out - ref).max() / max(np.abs(ref).max(), 1.0) < 1e-4

    def test_version1_files_still_load(self, tmp_path):
        path = tmp_path / "wisdom.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": {
                "k": {"n_blk": 30, "c_blk": 8, "cprime_blk": 8,
                      "threads_per_core": 2, "predicted_time": 1e-3},
            },
        }))
        loaded = Wisdom.load(path)
        assert loaded.get("k").n_blk == 30
        assert loaded.algo_count == 0


# ----------------------------------------------------------------------
# Nested candidate gating + probe backends (large-kernel subsystem)
# ----------------------------------------------------------------------
class TestNestedPortfolio:
    def test_candidate_sets_by_kernel_extent(self):
        by_r = {
            r: candidates(_layer(r=r, c_in=16, c_out=16)) for r in (1, 3, 5, 7)
        }
        # Every set is listed in ALGORITHMS order.
        for algos in by_r.values():
            assert list(algos) == [a for a in ALGORITHMS if a in algos]
        by_r = {r: set(algos) for r, algos in by_r.items()}
        # r=1: FFT runs im2col's channel GEMM in complex arithmetic plus
        # two transforms, so it cannot win and is not probed.
        assert by_r[1] == {"winograd", "direct", "im2col"}
        # r=3: nested is pointless (it IS one-level there).
        assert by_r[3] == {"winograd", "fft", "direct", "im2col"}
        # r=5: both family members compete.
        assert by_r[5] == {"winograd", "nested", "fft", "direct", "im2col"}
        # r=7: one-level fp32 Winograd is numerically barred (Table 3);
        # nested carries the family.
        assert by_r[7] == {"nested", "fft", "direct", "im2col"}

    def test_nested_always_in_probe_shortlist_for_large_r(self):
        planner = PortfolioPlanner(KNL_7210, Wisdom())
        probed: list[str] = []
        planner.decide(
            _layer(r=7, c_in=16, c_out=16, img=24),
            runner=lambda algo: probed.append(algo) or 1e-3,
        )
        assert "nested" in probed
        assert "winograd" not in probed


class TestProbeBackend:
    @pytest.mark.skipif(not compiled_available(), reason="no C toolchain")
    def test_compiled_engine_probes_under_compiled_backend(self):
        # Regression: an "auto" engine pinned to the compiled backend
        # must probe the Winograd family under that backend -- a probe
        # measured on fused would misrank what serving actually pays.
        layer = _layer(r=7, c_in=16, c_out=16, img=16)
        images, kernels = _arrays(layer)
        with ConvolutionEngine(backend="compiled", algorithm="auto") as eng:
            eng.run(images, kernels, padding=layer.padding)
            (decision,) = eng.algorithm_decisions()
            assert decision["source"] == "probed"
            assert eng.metrics.counter_value("engine.requests.compiled") >= 1
            assert eng.metrics.counter_value("engine.fallbacks") == 0


class TestProfileWisdomIsolation:
    def test_edge_neon_decisions_invisible_to_knl(self):
        from repro.machine.profiles import get_profile

        neon, knl = get_profile("edge-neon"), get_profile("manycore-knl")
        w = Wisdom()
        layer = _layer(r=7, c_in=16, c_out=16)
        PortfolioPlanner(neon, w).decide(layer, runner=lambda algo: 1e-3)
        choice = PortfolioPlanner(knl, w).decide(layer, runner=lambda algo: 1e-3)
        # The edge decision must not be served to the manycore planner:
        # its decision is fresh (probed), not a wisdom replay.
        assert choice.source == "probed"
        key = portfolio_key(layer)
        assert w.algo_get(neon.fingerprint(), key) is not None
        assert w.algo_get(knl.fingerprint(), key) is not None

    def test_summary_reports_per_fingerprint_counts(self):
        from repro.machine.profiles import get_profile

        neon_fp = get_profile("edge-neon").fingerprint()
        w = Wisdom()
        w.algo_put(neon_fp, "k1", AlgoWisdomEntry("fft"))
        w.algo_put(neon_fp, "k2", AlgoWisdomEntry("nested"))
        w.put("blk", WisdomEntry(30, 8, 8, 2, 1e-3))
        s = w.summary()
        assert s["blocking_entries"] == 1
        assert s["algo_entries"] == 2
        assert s["fingerprints"][neon_fp]["entries"] == 2
        assert s["fingerprints"][neon_fp] == {
            "entries": 2, "algorithms": {"fft": 1, "nested": 1},
        }


# ----------------------------------------------------------------------
# Differential fuzz: every portfolio member vs the oracle
# ----------------------------------------------------------------------
class TestDifferentialFuzz:
    def test_fuzzed_shapes_match_oracle_under_all_algorithms(self):
        rng = np.random.default_rng(42)
        for trial in range(6):
            r = int(rng.choice([1, 2, 3, 5, 7]))
            c_in = int(rng.choice([1, 3, 4, 8]))
            c_out = int(rng.choice([1, 2, 4, 8]))
            img = int(rng.integers(r + 1, 20))
            batch = int(rng.choice([1, 2]))
            pad = int(rng.integers(0, r // 2 + 1))
            layer = ConvLayerSpec(
                network="fuzz", name=f"t{trial}", batch=batch, c_in=c_in,
                c_out=c_out, image=(img, img), padding=(pad, pad),
                kernel=(r, r),
            )
            images, kernels = _arrays(layer, seed=trial)
            ref = direct_convolution(
                images, kernels, padding=layer.padding, dtype=np.float32
            )
            scale = max(np.abs(ref).max(), 1.0)
            with ConvolutionEngine(algorithm="auto") as eng:
                for algo in ("auto",) + tuple(a for a in ALGORITHMS):
                    if algo == "nested" and not nested_supported(layer.kernel):
                        continue
                    kw = {} if algo == "auto" else {"algorithm": algo}
                    out = eng.run(images, kernels, padding=layer.padding, **kw)
                    err = np.abs(out - ref).max() / scale
                    assert err < 1e-3, (
                        f"trial {trial} ({layer.label}, {algo}): relerr {err:.2e}"
                    )
