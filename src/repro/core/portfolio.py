"""Algorithm-portfolio planning: Winograd vs. nested vs. FFT/direct/im2col.

The paper's thesis is that a well-engineered Winograd pipeline wins on
the layers CNNs actually use -- but its own Sec. 2 concedes the regime
boundaries: for ``r = 1`` the Winograd transforms are pure overhead over
a channel GEMM, and as ``r`` grows the FFT's O(n log n) structure
overtakes Winograd's rising transform cost and fp32 error.  A serving
engine that always runs Winograd therefore leaves performance (and
robustness) on the table at the edges of the envelope.

:class:`PortfolioPlanner` closes that gap with the three-step scheme the
FFT world has used for decades (FFTW's planner):

1. **Predict** -- rank every candidate algorithm with the machine
   model's unit-comparable warm-path predictions
   (:func:`repro.machine.cost.predict_algorithm_seconds`, imported by
   the first decision, so an engine that never decides never loads the
   model).
2. **Probe** -- optionally confirm the ranking by *measuring* the top
   predicted candidates plus Winograd (always probed, so ``auto`` can
   never lose to the default by more than noise) under a small time
   budget.  Probes run through the engine's real dispatch path, so they
   measure exactly what serving will pay.
3. **Remember** -- record the winner in the persistent
   :class:`~repro.util.wisdom.Wisdom` store, namespaced by the
   machine fingerprint and stamped with the schema version, so the next
   process skips both steps.

Calibration: the cost model predicts seconds *on the modeled machine*
(KNL by default), while probes measure the host.  The first decision
that has both numbers for the same algorithm records the one-shot
``host / model`` scale (:func:`calibrate_scale`) in the wisdom store;
later predictions are multiplied by it, making the two columns of an
:class:`~repro.util.wisdom.AlgoWisdomEntry` directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.machine.spec import MachineSpec
from repro.nets.layers import ConvLayerSpec
from repro.obs.metrics import MetricsRegistry, labeled
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.util.wisdom import AlgoWisdomEntry, Wisdom

if TYPE_CHECKING:
    from repro.baselines.base import ConvImplementation

#: Candidate algorithms, in preference order for ties.
ALGORITHMS = ("winograd", "nested", "fft", "direct", "im2col")

#: Algorithms the engine itself executes (through its Winograd pipeline)
#: rather than via a standalone baseline implementation.  ``nested``
#: reduces an r > 3 layer to one channel-stacked r = 3 Winograd problem
#: (:mod:`repro.core.nested`), so it probes and runs through the engine
#: exactly like ``winograd`` does.
ENGINE_EXECUTED = ("winograd", "nested")

#: One-level fp32 Winograd is numerically unusable past this kernel
#: extent: Table 3 shows F(m, r) max-abs error blowing past 1e-2 for
#: r >= 7, so the portfolio never proposes single-level Winograd there
#: (``nested`` covers that regime within the r = 3 error budget).
MAX_SINGLE_LEVEL_R = 5


def portfolio_key(layer: ConvLayerSpec, dtype: str = "float32") -> str:
    """Canonical wisdom key for one portfolio decision.

    Everything the decision depends on and nothing else: the full shape
    signature (batch, channels, image, padding, *kernel extent* -- the
    crossover driver) and the dtype.  The machine is *not* part of the
    key; it namespaces the wisdom bucket instead (fingerprint), so a
    winner measured on one host is invisible on another.
    """
    img = "x".join(map(str, layer.image))
    pad = "x".join(map(str, layer.padding))
    ker = "x".join(map(str, layer.kernel))
    return (
        f"algo|B{layer.batch}|C{layer.c_in}|Cp{layer.c_out}"
        f"|I{img}|P{pad}|R{ker}|{dtype}"
    )


def make_baseline(algorithm: str, machine: MachineSpec) -> ConvImplementation:
    """Executable implementation for a non-Winograd portfolio member.

    Winograd itself is not constructed here -- the engine *is* the
    Winograd implementation (plan cache, fused and compiled
    backends), and the planner probes it through the engine.
    """
    if algorithm == "fft":
        from repro.baselines.fft import FftConvBaseline

        return FftConvBaseline(machine)
    if algorithm == "direct":
        from repro.baselines.direct import DirectConvBaseline

        return DirectConvBaseline(machine=machine)
    if algorithm == "im2col":
        from repro.baselines.im2col import Im2colBaseline

        return Im2colBaseline(machine)
    raise ValueError(
        f"no baseline implementation for algorithm {algorithm!r}; "
        f"expected one of {tuple(a for a in ALGORITHMS if a not in ENGINE_EXECUTED)}"
    )


def calibrate_scale(model_seconds: float, host_seconds: float) -> float:
    """One-shot model-seconds -> host-seconds scale factor.

    Ratio of a *measured* host runtime to the cost model's prediction
    for the same algorithm and layer.  Applied uniformly it cannot
    change the predicted ranking -- it only moves predictions into host
    units so they are comparable with probe measurements (and so the
    recorded wisdom entries mean something on re-read).
    """
    if not model_seconds > 0 or not host_seconds > 0:
        raise ValueError(
            f"calibration needs positive times, got model={model_seconds} "
            f"host={host_seconds}"
        )
    return host_seconds / model_seconds


@dataclass(frozen=True)
class AlgorithmChoice:
    """The outcome of one portfolio decision (what the engine caches)."""

    algorithm: str
    source: str  # "wisdom" | "predicted" | "probed" | "forced"
    predicted: dict[str, float] = field(default_factory=dict)
    measured: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "source": self.source,
            "predicted": dict(self.predicted),
            "measured": dict(self.measured),
        }


class PortfolioPlanner:
    """Predict -> probe -> remember, per layer shape and machine.

    Parameters
    ----------
    machine:
        The modeled machine; its :meth:`~repro.machine.spec.MachineSpec.
        fingerprint` namespaces every recorded decision.
    wisdom:
        Shared persistent store (the engine's).  Decisions and the
        calibration scale are recorded here; ``save_wisdom`` persists
        them.
    probe:
        When ``False`` decisions stop at the prediction ranking (no
        measurement) -- the mode for tests and for hosts where probe
        noise exceeds the stakes.
    probe_budget_seconds:
        Soft wall-clock budget for one decision's probes.  Every
        shortlisted algorithm is measured at least once; *repeat*
        measurements (noise reduction) stop when the budget is spent.
    probe_repeats:
        Measurement repeats per candidate (best-of); the first repeat
        per candidate is exempt from the budget.
    """

    def __init__(
        self,
        machine: MachineSpec,
        wisdom: Wisdom,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        probe: bool = True,
        probe_budget_seconds: float = 0.5,
        probe_repeats: int = 3,
    ):
        if probe_budget_seconds <= 0:
            raise ValueError(
                f"probe_budget_seconds must be > 0, got {probe_budget_seconds}"
            )
        if probe_repeats < 1:
            raise ValueError(f"probe_repeats must be >= 1, got {probe_repeats}")
        self.machine = machine
        self.wisdom = wisdom
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.probe = probe
        self.probe_budget_seconds = probe_budget_seconds
        self.probe_repeats = probe_repeats
        self.fingerprint = machine.fingerprint()

    # ------------------------------------------------------------------
    def candidates(self, layer: ConvLayerSpec) -> dict[str, float]:
        """Calibrated model predictions per *supported* algorithm.

        The first call imports the KNL cost model, and with it the
        codelet, JIT-GEMM and scheduling simulators it drives: only an
        ``auto`` decision pays for them.
        """
        from repro.baselines.base import UnsupportedLayer
        from repro.core.nested import nested_supported
        from repro.machine.cost import predict_algorithm_seconds

        scale = self.wisdom.get_calibration(self.fingerprint) or 1.0
        preds: dict[str, float] = {}
        for algo in ALGORITHMS:
            if algo == "winograd":
                # fp32 accuracy gate: one-level F(m, r) past r = 5 is
                # numerically unusable (Table 3) -- nested covers it.
                if max(layer.kernel) > MAX_SINGLE_LEVEL_R:
                    continue
            elif algo == "nested":
                if not nested_supported(layer.kernel):
                    continue
            else:
                try:
                    make_baseline(algo, self.machine).supports(layer)
                except UnsupportedLayer:
                    continue
            preds[algo] = scale * predict_algorithm_seconds(
                algo, layer, self.machine
            )
        return preds

    def decide(
        self,
        layer: ConvLayerSpec,
        dtype: str = "float32",
        runner: Callable[[str], float] | None = None,
    ) -> AlgorithmChoice:
        """Choose the algorithm for ``layer`` on this machine.

        ``runner(algorithm)`` executes one warm request under the forced
        algorithm and returns its wall-clock seconds; the engine passes
        a closure over the live request's arrays so probes measure the
        true dispatch path.  Without a runner (or with ``probe=False``)
        the decision is prediction-only.
        """
        key = portfolio_key(layer, dtype)
        stored = self.wisdom.algo_get(self.fingerprint, key)
        if stored is not None:
            choice = AlgorithmChoice(
                algorithm=stored.algorithm, source="wisdom",
                predicted=dict(stored.predicted), measured=dict(stored.measured),
            )
            self._count(choice)
            return choice

        preds = self.candidates(layer)
        ranked = sorted(preds, key=preds.__getitem__)
        measured: dict[str, float] = {}
        if self.probe and runner is not None and len(ranked) > 1:
            # The shortlist always carries the Winograd-family candidates
            # the layer supports (one-level and/or nested), so ``auto``
            # can never lose to the paper's default by more than noise.
            family = [a for a in ENGINE_EXECUTED if a in preds]
            shortlist = list(dict.fromkeys(ranked[:2] + family))
            shortlist = [a for a in shortlist if a in preds]
            measured = self._probe(shortlist, runner)
        if measured:
            winner = min(measured, key=measured.__getitem__)
            source = "probed"
            self._update_calibration(layer, measured)
            # Re-read predictions under the (possibly new) calibration
            # so the recorded entry's two columns share units.
            preds = self.candidates(layer)
        else:
            winner = ranked[0]
            source = "predicted"
        choice = AlgorithmChoice(
            algorithm=winner, source=source, predicted=preds, measured=measured
        )
        self.wisdom.algo_put(
            self.fingerprint, key,
            AlgoWisdomEntry(
                algorithm=winner, source=source, predicted=preds,
                measured=measured,
            ),
        )
        self._count(choice)
        return choice

    # ------------------------------------------------------------------
    def _probe(
        self, shortlist: list[str], runner: Callable[[str], float]
    ) -> dict[str, float]:
        """Best-of-N timed runs per shortlisted algorithm, budgeted."""
        measured: dict[str, float] = {}
        t0 = time.perf_counter()
        with self.tracer.span(
            "portfolio.probe", candidates=",".join(shortlist)
        ) as span:
            for algo in shortlist:
                best = runner(algo)  # first measurement is budget-exempt
                for _ in range(self.probe_repeats - 1):
                    if time.perf_counter() - t0 > self.probe_budget_seconds:
                        break
                    best = min(best, runner(algo))
                measured[algo] = best
            span.attrs["probed"] = len(measured)
        self.metrics.histogram("portfolio.probe_seconds").observe(
            time.perf_counter() - t0
        )
        return measured

    def _update_calibration(
        self, layer: ConvLayerSpec, measured: dict[str, float]
    ) -> None:
        """Record the one-shot model->host scale on first measurement."""
        if self.wisdom.get_calibration(self.fingerprint) is not None:
            return
        from repro.machine.cost import predict_algorithm_seconds

        for algo, host_s in measured.items():
            model_s = predict_algorithm_seconds(algo, layer, self.machine)
            if model_s > 0 and host_s > 0:
                self.wisdom.set_calibration(
                    self.fingerprint, calibrate_scale(model_s, host_s)
                )
                return

    def _count(self, choice: AlgorithmChoice) -> None:
        self.metrics.counter(
            labeled("algo_selected_total", algo=choice.algorithm)
        ).inc()
        self.metrics.counter(
            labeled("algo_decision_total", source=choice.source)
        ).inc()
