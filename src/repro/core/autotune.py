"""Empirical selection of blocking parameters (paper Sec. 4.3.2).

The paper determines ``n_blk``, ``C_blk``, ``C'_blk`` and the number of
threads per core "empirically for each particular layer shape" (the FFTW
strategy) and stores the result in a wisdom file.  Here the empirical
measurement is the machine model: every legal candidate is evaluated with
:class:`~repro.machine.cost.WinogradCostModel` and the fastest wins.

The search space follows the paper exactly:

* ``6 <= n_blk <= 30`` (FMA-latency floor, register-file ceiling),
* ``C_blk``, ``C'_blk`` multiples of S in [32, 512], preferring >= 64
  ("for a good compute-to-memory ratio"), with
  ``C_blk * C'_blk <= 128**2``,
* the stationary V block must fit the thread's L2 share,
* threads per core in {1, 2, 4}.

The cost model is imported by the searches that evaluate it, so the
engine's compiled path can read wisdom keys and blockings from here
without loading the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.blocking import BlockingConfig, candidate_blockings
from repro.core.fmr import FmrSpec
from repro.machine.spec import MachineSpec
from repro.nets.layers import ConvLayerSpec
from repro.util.wisdom import Wisdom, WisdomEntry

if TYPE_CHECKING:
    from repro.machine.cost import ExecutionFeatures

#: Coarse n_blk grid used by the default search; the full 6..30 sweep is
#: available via ``n_blk_values=range(6, 31)``.
DEFAULT_N_BLK_VALUES: tuple[int, ...] = (6, 8, 10, 14, 18, 22, 26, 28, 30)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of autotuning one layer shape."""

    key: str
    blocking: BlockingConfig
    threads_per_core: int
    predicted_seconds: float
    candidates_evaluated: int

    def to_wisdom_entry(self) -> WisdomEntry:
        return WisdomEntry(
            n_blk=self.blocking.n_blk,
            c_blk=self.blocking.c_blk,
            cprime_blk=self.blocking.cprime_blk,
            threads_per_core=self.threads_per_core,
            predicted_time=self.predicted_seconds,
        )


def layer_key(layer: ConvLayerSpec, fmr: FmrSpec, machine: MachineSpec) -> str:
    """Canonical wisdom key for one (layer shape, F(m,r), machine)."""
    img = "x".join(map(str, layer.image))
    pad = "x".join(map(str, layer.padding))
    return (
        f"{machine.name}|B{layer.batch}|C{layer.c_in}|Cp{layer.c_out}"
        f"|I{img}|P{pad}|{fmr}"
    )


def blocking_from_wisdom(entry: WisdomEntry, simd_width: int = 16) -> BlockingConfig:
    return BlockingConfig(
        n_blk=entry.n_blk,
        c_blk=entry.c_blk,
        cprime_blk=entry.cprime_blk,
        simd_width=simd_width,
    )


def autotune_layer(
    layer: ConvLayerSpec,
    fmr: FmrSpec,
    machine: MachineSpec,
    *,
    features: ExecutionFeatures | None = None,
    wisdom: Wisdom | None = None,
    threads_per_core_options: tuple[int, ...] = (1, 2, 4),
    n_blk_values: tuple[int, ...] = DEFAULT_N_BLK_VALUES,
    transform_kernels: bool = True,
) -> TuneResult:
    """Find the fastest (blocking, threads/core) for one layer.

    Consults (and updates) ``wisdom`` when provided: a stored entry is
    returned immediately without re-searching, matching the paper's
    "saving the optimal parameters in a wisdom file".
    """
    from repro.machine.cost import WinogradCostModel

    key = layer_key(layer, fmr, machine)
    if wisdom is not None:
        entry = wisdom.get(key)
        if entry is not None:
            return TuneResult(
                key=key,
                blocking=blocking_from_wisdom(entry, machine.vector_width),
                threads_per_core=entry.threads_per_core,
                predicted_seconds=entry.predicted_time,
                candidates_evaluated=0,
            )

    simd = machine.vector_width
    all_candidates = candidate_blockings(layer.c_in, layer.c_out, simd_width=simd)
    n_blk_set = set(n_blk_values)
    best: TuneResult | None = None
    evaluated = 0
    for tpc in threads_per_core_options:
        if tpc > machine.max_threads_per_core:
            continue
        model = WinogradCostModel(machine, threads_per_core=tpc, features=features)
        l2_share = machine.l2_bytes_per_thread(tpc)
        for blocking in all_candidates:
            if blocking.n_blk not in n_blk_set:
                continue
            # The stationary V must leave L2 room for the U/X streams
            # (Sec. 4.3.2 discusses exactly this budget).
            if blocking.v_bytes() > l2_share // 2:
                continue
            cost = model.layer_cost(
                layer, fmr, blocking, transform_kernels=transform_kernels
            )
            evaluated += 1
            if best is None or cost.seconds < best.predicted_seconds:
                best = TuneResult(
                    key=key,
                    blocking=blocking,
                    threads_per_core=tpc,
                    predicted_seconds=cost.seconds,
                    candidates_evaluated=0,
                )
    if best is None:
        raise ValueError(
            f"no legal blocking for {layer.label} (C={layer.c_in}, "
            f"C'={layer.c_out}) on {machine.name}"
        )
    best = TuneResult(
        key=best.key,
        blocking=best.blocking,
        threads_per_core=best.threads_per_core,
        predicted_seconds=best.predicted_seconds,
        candidates_evaluated=evaluated,
    )
    if wisdom is not None:
        wisdom.put(key, best.to_wisdom_entry())
    return best


def network_model_time(
    layers: list[tuple[ConvLayerSpec, FmrSpec]],
    machine: MachineSpec,
    *,
    wisdom: Wisdom | None = None,
    inference_only: bool = True,
) -> float:
    """Simulated whole-network time: sum of autotuned per-layer costs.

    The auxiliary transform buffers are reused across layers (Sec. 4.4),
    so the network cost is simply the sum of the layer costs plus no
    inter-layer reshuffling (the layout contract).
    """
    from repro.machine.cost import WinogradCostModel

    total = 0.0
    wisdom = wisdom if wisdom is not None else Wisdom()
    for spec, fmr in layers:
        tune = autotune_layer(
            spec, fmr, machine, wisdom=wisdom,
            transform_kernels=not inference_only,
        )
        model = WinogradCostModel(machine, threads_per_core=tune.threads_per_core)
        total += model.layer_cost(
            spec, fmr, tune.blocking, transform_kernels=not inference_only
        ).seconds
    return total
