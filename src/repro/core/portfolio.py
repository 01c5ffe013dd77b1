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
2. **Probe** -- confirm the ranking by *measuring* the top two
   predicted candidates plus the Winograd family (always probed, so
   ``auto`` can never lose to the default by more than noise), best of
   :data:`PROBE_REPEATS` under a :data:`PROBE_BUDGET_SECONDS` budget.
   Probes run through the engine's real dispatch path, so they measure
   exactly what serving will pay; the fastest probe wins.
3. **Remember** -- record the winner in the persistent
   :class:`~repro.util.wisdom.Wisdom` store, namespaced by the
   machine fingerprint and stamped with the schema version, so the next
   process skips both steps.

One decision serves a layer *signature* (:func:`portfolio_key`): the
batch is not part of it, because samples never mix (Sec. 3.3 -- the
batch only adds rows to the stage-2 GEMM), so every batch size runs the
first decision.  Predictions stay in model seconds on the modeled
machine (KNL by default); recorded beside the host measurements they
show the model's real per-layer gap rather than hiding it in a scale.
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

#: Soft wall-clock budget for one decision's probes: every shortlisted
#: algorithm is measured at least once, and *repeat* measurements (noise
#: reduction) stop when the budget is spent.
PROBE_BUDGET_SECONDS = 0.5

#: Measurements per probed candidate (best-of); the first one per
#: candidate is exempt from the budget.
PROBE_REPEATS = 3


def portfolio_key(layer: ConvLayerSpec, dtype: str = "float32") -> str:
    """The layer signature one portfolio decision serves.

    Everything the decision depends on and nothing else: channels,
    image, padding, *kernel extent* (the crossover driver) and dtype.
    The batch is not part of it -- every batch size reuses the one
    decision.  The engine memoizes its decisions under this key and the
    wisdom store records them under it.  The machine is *not* part of
    the key; it namespaces the wisdom bucket instead (fingerprint), so a
    winner measured on one host is invisible on another.
    """
    img = "x".join(map(str, layer.image))
    pad = "x".join(map(str, layer.padding))
    ker = "x".join(map(str, layer.kernel))
    return f"algo|C{layer.c_in}|Cp{layer.c_out}|I{img}|P{pad}|R{ker}|{dtype}"


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


@dataclass(frozen=True)
class AlgorithmChoice:
    """The outcome of one portfolio decision (what the engine caches)."""

    algorithm: str
    source: str  # "wisdom" | "probed"
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
    """Predict -> probe -> remember, per layer signature and machine.

    Parameters
    ----------
    machine:
        The modeled machine; its :meth:`~repro.machine.spec.MachineSpec.
        fingerprint` namespaces every recorded decision.
    wisdom:
        Shared persistent store (the engine's).  Decisions are recorded
        here; ``save_wisdom`` persists them.
    tracer, metrics:
        Observability hooks: one ``portfolio.probe`` span and one
        ``portfolio.probe_seconds`` sample per probed decision.
    """

    def __init__(
        self,
        machine: MachineSpec,
        wisdom: Wisdom,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.machine = machine
        self.wisdom = wisdom
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fingerprint = machine.fingerprint()

    # ------------------------------------------------------------------
    def candidates(self, layer: ConvLayerSpec) -> dict[str, float]:
        """Model predictions, seconds on the modeled machine, per
        *supported* algorithm.

        The first call imports the KNL cost model, and with it the
        codelet, JIT-GEMM and scheduling simulators it drives: only an
        ``auto`` decision pays for them.
        """
        from repro.baselines.base import UnsupportedLayer
        from repro.core.nested import nested_supported
        from repro.machine.cost import predict_algorithm_seconds

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
            preds[algo] = predict_algorithm_seconds(algo, layer, self.machine)
        return preds

    def decide(
        self,
        layer: ConvLayerSpec,
        dtype: str = "float32",
        *,
        runner: Callable[[str], float],
    ) -> AlgorithmChoice:
        """Choose the algorithm for ``layer``'s signature on this machine.

        ``runner(algorithm)`` executes one warm request under the forced
        algorithm and returns its wall-clock seconds; the engine passes
        a closure over arrays of the request's shapes so probes measure
        the true dispatch path.
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
        # The shortlist always carries the Winograd-family candidates
        # the layer supports (one-level and/or nested), so ``auto`` can
        # never lose to the paper's default by more than noise.
        family = [a for a in ENGINE_EXECUTED if a in preds]
        measured = self._probe(list(dict.fromkeys(ranked[:2] + family)), runner)
        winner = min(measured, key=measured.__getitem__)
        choice = AlgorithmChoice(
            algorithm=winner, source="probed", predicted=preds, measured=measured
        )
        self.wisdom.algo_put(
            self.fingerprint, key,
            AlgoWisdomEntry(algorithm=winner, predicted=preds, measured=measured),
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
                for _ in range(PROBE_REPEATS - 1):
                    if time.perf_counter() - t0 > PROBE_BUDGET_SECONDS:
                        break
                    best = min(best, runner(algo))
                measured[algo] = best
            span.attrs["probed"] = len(measured)
        self.metrics.histogram("portfolio.probe_seconds").observe(
            time.perf_counter() - t0
        )
        return measured

    def _count(self, choice: AlgorithmChoice) -> None:
        self.metrics.counter(
            labeled("algo_selected_total", algo=choice.algorithm)
        ).inc()
        self.metrics.counter(
            labeled("algo_decision_total", source=choice.source)
        ).inc()
