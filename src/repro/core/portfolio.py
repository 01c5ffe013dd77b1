"""Algorithm-portfolio planning: Winograd vs. nested vs. FFT/direct/im2col.

The paper's thesis is that a well-engineered Winograd pipeline wins on
the layers CNNs actually use -- but its own Sec. 2 concedes the regime
boundaries: for ``r = 1`` the Winograd transforms are pure overhead over
a channel GEMM, and as ``r`` grows the FFT's O(n log n) structure
overtakes Winograd's rising transform cost and fp32 error.  A serving
engine that always runs Winograd therefore leaves performance (and
robustness) on the table at the edges of the envelope.

:class:`PortfolioPlanner` closes that gap the way the paper tunes its
blockings (Sec. 4.3.2) and FFTW's planner picks a plan -- by
measurement on the host that will serve:

1. **Probe** -- run every algorithm the layer supports
   (:func:`candidates`) through the engine's real dispatch path, so
   the probes measure exactly what serving will pay: one discarded
   warm-up call per candidate, then up to :data:`PROBE_REPEATS`
   interleaved rounds under a :data:`PROBE_BUDGET_SECONDS` budget.
   The fastest median wins.
2. **Remember** -- record the winner in the persistent
   :class:`~repro.util.wisdom.Wisdom` store, namespaced by the
   machine fingerprint and stamped with the schema version, so the next
   process probes nothing.

No model ranks or shortlists the candidates: the KNL cost model
(:mod:`repro.machine.cost`) is not this host, and an ``auto`` process
never imports it.  One decision serves a layer *signature*
(:func:`portfolio_key`): the batch is not part of it, because samples
never mix (Sec. 3.3 -- the batch only adds rows to the stage-2 GEMM),
so every batch size runs the first decision.
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

#: Every portfolio algorithm; :func:`candidates` probes them in this order.
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

#: Soft wall-clock budget for one decision's probes: the warm-ups and
#: the first timed round always run; later rounds (noise reduction)
#: start only while the budget is not yet spent.
PROBE_BUDGET_SECONDS = 0.5

#: Timed rounds per decision; each calls every candidate once.
PROBE_REPEATS = 3


def candidates(layer: ConvLayerSpec) -> tuple[str, ...]:
    """The algorithms ``auto`` probes for ``layer``, in :data:`ALGORITHMS` order.

    * ``winograd`` up to :data:`MAX_SINGLE_LEVEL_R` (the fp32 accuracy
      gate of Table 3);
    * ``nested`` where the decomposition applies (some ``r > 3``);
    * ``fft`` unless every kernel extent is 1: there it runs im2col's
      channel contraction in complex arithmetic over at least half as
      many points -- at least twice the multiplies -- plus a forward and
      an inverse transform, so it cannot win;
    * ``direct`` and ``im2col`` always.
    """
    from repro.core.nested import nested_supported

    kernel = layer.kernel
    supported = {
        "winograd": max(kernel) <= MAX_SINGLE_LEVEL_R,
        "nested": nested_supported(kernel),
        "fft": max(kernel) > 1,
        "direct": True,
        "im2col": True,
    }
    return tuple(a for a in ALGORITHMS if supported[a])


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
    measured: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "source": self.source,
            "measured": dict(self.measured),
        }


class PortfolioPlanner:
    """Probe -> remember, per layer signature and machine.

    Parameters
    ----------
    machine:
        The engine's machine spec; its :meth:`~repro.machine.spec.
        MachineSpec.fingerprint` namespaces every recorded decision.
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
        self.wisdom = wisdom
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fingerprint = machine.fingerprint()

    # ------------------------------------------------------------------
    def decide(
        self,
        layer: ConvLayerSpec,
        dtype: str = "float32",
        *,
        runner: Callable[[str], float],
    ) -> AlgorithmChoice:
        """Choose the algorithm for ``layer``'s signature on this machine.

        ``runner(algorithm)`` executes one request under the forced
        algorithm and returns its wall-clock seconds; the engine passes
        a closure over arrays of the request's shapes so probes measure
        the true dispatch path.  A recorded winner is replayed only when
        it is one of the layer's :func:`candidates`; any other entry is
        decided afresh and overwritten.
        """
        key = portfolio_key(layer, dtype)
        supported = candidates(layer)
        stored = self.wisdom.algo_get(self.fingerprint, key)
        if stored is not None and stored.algorithm in supported:
            choice = AlgorithmChoice(
                algorithm=stored.algorithm, source="wisdom",
                measured=dict(stored.measured),
            )
            self._count(choice)
            return choice

        measured = self._probe(supported, runner)
        winner = min(measured, key=measured.__getitem__)
        choice = AlgorithmChoice(algorithm=winner, source="probed", measured=measured)
        self.wisdom.algo_put(
            self.fingerprint, key, AlgoWisdomEntry(algorithm=winner, measured=measured)
        )
        self._count(choice)
        return choice

    # ------------------------------------------------------------------
    def _probe(
        self, algorithms: tuple[str, ...], runner: Callable[[str], float]
    ) -> dict[str, float]:
        """Median host seconds per algorithm.

        One warm-up call per algorithm is discarded: it absorbs the plan
        build, the kernel preparation and the first call's page faults.
        Then each round calls every algorithm once, in order; the first
        round always runs, later ones only while the budget lasts.
        """
        from statistics import median  # np.median would import numpy.ma

        samples: dict[str, list[float]] = {algo: [] for algo in algorithms}
        t0 = time.perf_counter()
        with self.tracer.span(
            "portfolio.probe", candidates=",".join(algorithms)
        ) as span:
            for algo in algorithms:
                runner(algo)
            for round_ in range(PROBE_REPEATS):
                if round_ and time.perf_counter() - t0 > PROBE_BUDGET_SECONDS:
                    break
                for algo in algorithms:
                    samples[algo].append(runner(algo))
            span.attrs["probed"] = len(samples)
        self.metrics.histogram("portfolio.probe_seconds").observe(
            time.perf_counter() - t0
        )
        return {algo: median(times) for algo, times in samples.items()}

    def _count(self, choice: AlgorithmChoice) -> None:
        self.metrics.counter(
            labeled("algo_selected_total", algo=choice.algorithm)
        ).inc()
        self.metrics.counter(
            labeled("algo_decision_total", source=choice.source)
        ).inc()
