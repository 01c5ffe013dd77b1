"""Serving-path execution engine: plan cache + workspace arena + fast paths.

The paper's central engineering claim is that Winograd convolution wins
only once per-layer overheads are amortized: transform matrices and
codelets are generated at "instantiation/compile time" (Sec. 4.2),
kernel transforms are reused across inference calls (the "FX" columns of
Fig. 5), and one shared auxiliary workspace serves every layer of a
network (Sec. 4.4).  :func:`repro.core.convolution.winograd_convolution`
pays all of those costs on every call; this module is the serving-shaped
counterpart that pays them once.

Three cooperating pieces:

* :class:`PlanCache` -- an LRU keyed by the full layer signature
  (:class:`PlanKey`) memoizing one :class:`PlanEntry` per plan: fused or
  compiled Winograd, an FFT/direct/im2col baseline, or nested Winograd.
  Every entry kind answers the same three questions -- how to prepare a
  kernel tensor (memoized per exact kernel content: Winograd kernel
  transforms, FFT spectra, im2col operands, stacked nested banks), how
  many workspace bytes one execution needs, and ``execute(images,
  prepared, out=, epilogue=)``.  Statistics (hits, misses, evictions,
  bytes) are exposed for reporting.

* :class:`WorkspaceArena` -- one reusable aligned byte buffer sized by
  the maximum workspace the arena has seen (the paper's "same buffer
  ... reused for every layer"), vending the padded-input/U/X views of
  a single execution on both Winograd backends, and the graph's
  inter-layer activations.  Concurrent executions lease independent
  buffers from a small pool, so the engine is thread-safe.

* :class:`ConvolutionEngine` -- the facade.  :meth:`~ConvolutionEngine.
  resolve` is the one place the request rules live: the ``auto``
  decision, the ``fmr``/``backend`` pins and their contradictions, the
  default backend and ``F(m, r)``, and the compiled blocking; it maps a
  request to a :class:`PlanKey`, memoized per signature.  ``engine.run``
  is one sequence for every algorithm -- resolve, plan entry, prepared
  kernels, an ``execute.<name>`` span -- inside the ``compiled -> fused``
  fallback loop; ``workspace_bytes`` and the graph planner resolve
  through the same method.  The Table-1 reproduction
  (``BlockedWinogradExecutor`` with its traced JIT stage 2) is
  library-only.

The fused entry stores images channels-last -- the ``S = C`` member of
the paper's Table-1 layout ``(B, C/S, *spatial, S)`` -- so every tile
element is one contiguous run of channels.  It copies its input from,
and writes its result into, whatever memory order those arrays have;
the graph executor passes channels-last ``out=`` views to keep
activations in that layout between layers (see :mod:`repro.graph`).
The compiled entry's stage 3 writes NCHW: straight into a C-contiguous
``out``, through one copy into any other.

The cache and arena are an explicit *extension beyond the paper* (which
restarts its binary per layer benchmark); see DESIGN.md.

A process loads only the code its plans run: the compiled backend and
its code generator are imported when a compiled plan entry binds its
stages, nested Winograd when a nested entry is built, the autotuner's
wisdom keys when a compiled plan is resolved, and the KNL cost model
(with the codelet, JIT-GEMM and scheduling simulators it drives) by the
``auto`` decision.  No warm request imports anything.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import reduce
from math import prod
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.blocking import BlockingConfig
from repro.core.convolution import TransformedKernels, WinogradPlan
from repro.core.fmr import FmrSpec
from repro.core.portfolio import (
    ALGORITHMS,
    ENGINE_EXECUTED,
    AlgorithmChoice,
    PortfolioPlanner,
    make_baseline,
    portfolio_key,
)
from repro.core.toolchain import (
    CodeletBuildError,
    CompilerUnavailableError,
    compiled_available,
)
from repro.core.transforms import clear_transform_caches
from repro.machine.spec import MachineSpec
from repro.nets.layers import ConvLayerSpec
from repro.nets.reference import output_shape
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.util.alignment import CACHE_LINE_BYTES, round_up
from repro.util.wisdom import Wisdom


def kernel_fingerprint(kernels: np.ndarray) -> str:
    """Content fingerprint of a kernel array: blake2b over its shape,
    dtype and every byte.

    The memoization key for kernel preparations: two calls with equal
    kernel tensors share one preparation, which is the paper's
    inference-only "FX" mode made automatic.  Only arrays
    :meth:`PlanCache.prepare` has not seen unchanged are digested.
    """
    arr = np.ascontiguousarray(kernels)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(arr.reshape(-1).view(np.uint8).data)
    return h.hexdigest()


class KernelMemo:
    """One memoized kernel preparation and the kernels it was made from.

    ``kernels`` is a private read-only copy: the preparation is computed
    from it (so none aliases caller memory), and a repeat request is
    recognised by one exact comparison against it.  ``last_id`` is the
    ``id`` of the array object the memo was last requested with.
    """

    __slots__ = ("value", "kernels", "last_id")

    def __init__(self, value, kernels: np.ndarray, last_id: int):
        self.value = value
        self.kernels = kernels
        self.last_id = last_id

    def holds(self, kernels: np.ndarray) -> bool:
        """Whether ``kernels`` has exactly this memo's shape, dtype and
        bytes (a bitwise test: ``-0.0`` is not ``0.0``, NaN is NaN)."""
        kept = self.kernels
        return (
            kept.shape == kernels.shape
            and kept.dtype == kernels.dtype
            and np.array_equal(
                kept.view(np.uint8), np.ascontiguousarray(kernels).view(np.uint8)
            )
        )

    @property
    def nbytes(self) -> int:
        value = getattr(self.value, "nbytes", 0)
        return value if self.value is self.kernels else value + self.kernels.nbytes


#: Execution backends selectable per engine (or per call).
BACKENDS = ("fused", "compiled")

#: Fallback chain: where a request reroutes when its backend fails.
#: The compiled backend degrades to ``fused`` -- the terminal station,
#: which honors ``out=`` and applies the epilogue inside its own span --
#: when the host loses (or never had) a C toolchain or a codelet build
#: fails.
FALLBACK_NEXT = {"compiled": "fused"}

#: Failures the fallback chain absorbs.  Anything else (shape errors,
#: bugs in stage math) propagates -- rerouting would just re-raise it.
FALLBACK_ERRORS = (CompilerUnavailableError, CodeletBuildError)


def _fallback_key(key: PlanKey) -> PlanKey:
    """The plan ``key`` reroutes to: same F(m, r), next backend, no
    blocking."""
    return replace(key, backend=FALLBACK_NEXT[key.name], blocking=None)


def parallel_simd_width(c_in: int, c_out: int) -> int:
    """Largest power-of-two SIMD group dividing both channel counts.

    The compiled backend and the parallel executor require ``C`` and ``C'``
    divisible by ``S``; shrinking ``S`` (rather than rejecting the
    layer) keeps the compiled backend available for arbitrary channel
    counts at the cost of shorter vector groups.
    """
    for s in (16, 8, 4, 2, 1):
        if c_in % s == 0 and c_out % s == 0:
            return s
    raise AssertionError("unreachable: 1 divides everything")


def default_parallel_blocking(c_in: int, c_out: int, simd: int) -> BlockingConfig:
    """A valid stage-2 blocking for the compiled backend and the parallel executor.

    Largest channel blocks <= 128 that divide the channel counts and are
    multiples of ``simd`` -- correctness-first defaults when no wisdom
    entry pins a tuned blocking.
    """

    def _blk(c: int) -> int:
        cap = min(c, 128)
        for d in range(cap // simd * simd, 0, -simd):
            if c % d == 0:
                return d
        return simd

    # n_blk at the legal maximum: stage 2 is driven by a Python loop
    # over row blocks, so bigger blocks mean fewer interpreter
    # iterations per GEMM (the cost model's register-pressure concerns
    # do not apply to the numpy substrate).
    return BlockingConfig(
        n_blk=30, c_blk=_blk(c_in), cprime_blk=_blk(c_out), simd_width=simd
    )


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanKey:
    """Full signature of a planned convolution (the LRU key).

    Winograd plans carry their ``FmrSpec`` (and, on the compiled
    backend, their blocking); the other algorithms have no tile spec, so
    ``spec`` is ``None`` and the kernel's spatial extent -- which the
    spec would otherwise encode -- is keyed explicitly via ``kernel``.
    ``backend`` is the Winograd backend that executes the plan: the
    plan's own for ``winograd``, the inner r = 3 problem's for
    ``nested``, ``None`` for the baselines.
    """

    spec: FmrSpec | None
    input_shape: tuple[int, ...]
    c_out: int
    padding: tuple[int, ...]
    dtype: str
    blocking: BlockingConfig | None = None  # compiled backend only
    backend: str | None = "fused"  # fused | compiled | None (baselines)
    algorithm: str = "winograd"  # winograd | nested | fft | direct | im2col
    kernel: tuple[int, ...] | None = None  # non-winograd plans only
    #: How the request rules reached this key -- ``forced``, ``default``
    #: or the portfolio decision's source.  Descriptive only: not part
    #: of the key's identity.
    source: str = field(default="default", compare=False, repr=False)

    @property
    def name(self) -> str:
        """The request path: a Winograd plan's backend, else its
        algorithm.  Request spans, ``execute.<name>`` spans and
        ``engine.requests.<name>`` counters are named by it."""
        return self.backend if self.algorithm == "winograd" else self.algorithm


@dataclass
class CacheStats:
    """Counters exposed by :class:`PlanCache` for reporting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_cached: int = 0
    kernel_hits: int = 0
    kernel_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes_cached": self.bytes_cached,
            "kernel_hits": self.kernel_hits,
            "kernel_misses": self.kernel_misses,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """Thread-safe LRU over :class:`PlanEntry` with a byte budget.

    Eviction triggers when either the plan count exceeds ``max_plans``
    or the cached bytes (plan constants plus memoized kernel
    preparations and the kernel copies kept beside them) exceed
    ``max_bytes``; least-recently-used plans go first.
    """

    def __init__(
        self,
        max_plans: int = 32,
        max_bytes: int = 512 << 20,
        metrics: MetricsRegistry | None = None,
    ):
        if max_plans < 1:
            raise ValueError(f"max_plans must be >= 1, got {max_plans}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_plans = max_plans
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self.metrics = metrics
        self._entries: OrderedDict[PlanKey, PlanEntry] = OrderedDict()
        # Multi-tenant attribution: which tenant's request built each
        # entry.  Drives the per-tenant byte accounting and fair-share
        # eviction the serving front-end's quotas rely on; entries built
        # by anonymous (in-process) callers carry no owner and are only
        # subject to the global LRU/byte budget.
        self._owners: dict[PlanKey, str] = {}
        self._lock = threading.RLock()

    def _bump(self, name: str) -> None:
        """Mirror a CacheStats increment into the shared metrics registry."""
        if self.metrics is not None:
            self.metrics.counter(f"plan_cache.{name}").inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[PlanKey]:
        with self._lock:
            return list(self._entries)

    def get_or_create(self, key: PlanKey, build=None, tenant: str | None = None) -> PlanEntry:
        """Return the cached entry for ``key``, building it on a miss.

        ``build(key)`` constructs the entry; the engine passes its
        factory for every plan kind, and the default builds a fused
        Winograd entry.  ``tenant`` attributes a newly built entry to a
        serving tenant for quota accounting (a cache hit never
        re-attributes: the first builder pays, which is what fair-share
        eviction wants).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self._bump("hits")
                return entry
        # Build outside the lock: plan construction (transform
        # generation, tile planning) can be slow and must not serialize
        # concurrent hits on other keys.
        entry = (build if build is not None else FusedEntry)(key)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:  # lost a build race: reuse winner
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self._bump("hits")
                return existing
            self.stats.misses += 1
            self._bump("misses")
            self._entries[key] = entry
            if tenant is not None:
                self._owners[key] = tenant
            self._recount()
            self._evict()
            return entry

    def prepare(self, entry: PlanEntry, kernels: np.ndarray):
        """``entry``'s kernel preparation for ``kernels``, memoized by
        exact kernel content.

        The Winograd ``(T, C, C')`` kernel transform, FFT spectra, the
        im2col GEMM operand and the nested stacked bank are each what
        their algorithm computes once per kernel tensor; memoizing them
        here gives every plan kind the same warm serving path (the
        paper's "FX" mode) and the same ``kernel_hits`` accounting.

        A repeat request with the same array object, unchanged, is
        recognised by one exact comparison against the copy kept beside
        its preparation -- no hashing.  Any other array (new, or mutated
        in place since) is digested whole by :func:`kernel_fingerprint`
        and looked up by content; only a new content is prepared.
        """
        ident = id(kernels)
        with self._lock:
            memo = next(
                (m for m in entry.prepared.values() if m.last_id == ident), None
            )
        if memo is None or not memo.holds(kernels):
            fp = kernel_fingerprint(kernels)
            with self._lock:
                memo = entry.prepared.get(fp)
            if memo is None:
                kept = np.array(kernels, order="C")
                kept.flags.writeable = False
                memo = KernelMemo(entry.prepare_kernels(kept), kept, ident)
                with self._lock:
                    memo = entry.prepared.setdefault(fp, memo)
                    memo.last_id = ident
                    self.stats.kernel_misses += 1
                    self._bump("kernel_misses")
                    self._recount()
                    self._evict()
                return memo.value
        with self._lock:
            memo.last_id = ident
            self.stats.kernel_hits += 1
            self._bump("kernel_hits")
        return memo.value

    def discard(self, key: PlanKey) -> bool:
        """Drop ``key``'s entry, if cached, with its tenant attribution.

        For entries nothing will use -- an ``auto`` decision's losing
        probes -- so it is not an eviction and no counter moves.  Returns
        whether an entry was dropped.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            self._owners.pop(key, None)
            if entry is None:
                return False
            self._recount()
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._owners.clear()
            self.stats.bytes_cached = 0

    # -- multi-tenant accounting ---------------------------------------
    def tenant_of(self, key: PlanKey) -> str | None:
        with self._lock:
            return self._owners.get(key)

    def tenant_bytes(self, tenant: str) -> int:
        """Bytes currently cached on behalf of ``tenant``."""
        with self._lock:
            return sum(
                e.nbytes()
                for k, e in self._entries.items()
                if self._owners.get(k) == tenant
            )

    def evict_tenant(self, tenant: str, max_bytes: int) -> int:
        """Fair-share eviction: drop ``tenant``'s LRU plans until its
        cached bytes fit ``max_bytes``.

        Only plans attributed to ``tenant`` are touched -- one tenant
        blowing its quota can never push another tenant's warm plans
        out (that remains the job of the global LRU budget).  Returns
        the number of entries evicted.
        """
        evicted = 0
        with self._lock:
            owned = [k for k in self._entries if self._owners.get(k) == tenant]
            used = sum(self._entries[k].nbytes() for k in owned)
            for key in owned:  # OrderedDict order == LRU-first
                if used <= max_bytes:
                    break
                entry = self._entries.pop(key)
                self._owners.pop(key, None)
                used -= entry.nbytes()
                evicted += 1
                self.stats.evictions += 1
                self._bump("evictions")
                if self.metrics is not None:
                    self.metrics.counter("plan_cache.tenant_evictions").inc()
            if evicted:
                self._recount()
        return evicted

    # -- internal (callers hold the lock) ------------------------------
    def _recount(self) -> None:
        self.stats.bytes_cached = sum(e.nbytes() for e in self._entries.values())
        if self.metrics is not None:
            self.metrics.gauge("plan_cache.bytes").set(self.stats.bytes_cached)

    def _evict(self) -> None:
        while self._entries and (
            len(self._entries) > self.max_plans
            or self.stats.bytes_cached > self.max_bytes
        ):
            if len(self._entries) == 1 and len(self._entries) <= self.max_plans:
                break  # never evict the sole (and only legal) resident
            key, _ = self._entries.popitem(last=False)
            self._owners.pop(key, None)
            self.stats.evictions += 1
            self._bump("evictions")
            self._recount()


# ----------------------------------------------------------------------
# Workspace arena
# ----------------------------------------------------------------------
class ArenaLease:
    """A borrowed slice of arena memory; carve aligned views with ``take``."""

    def __init__(self, buf: np.ndarray, alignment: int):
        self._buf = buf
        self._alignment = alignment
        # First view starts at the first aligned address inside the buffer.
        self._offset = (-buf.ctypes.data) % alignment

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Vend an aligned, C-contiguous view of the leased buffer."""
        dtype = np.dtype(dtype)
        nbytes = prod(shape) * dtype.itemsize
        end = self._offset + nbytes
        if end > self._buf.nbytes:
            raise MemoryError(
                f"arena lease exhausted: need {end} bytes, have {self._buf.nbytes}"
            )
        view = self._buf[self._offset : end].view(dtype).reshape(shape)
        self._offset = self._offset + round_up(nbytes, self._alignment)
        return view


class WorkspaceArena:
    """One reusable aligned buffer for all transient tensors (Sec. 4.4).

    The paper sizes a single auxiliary buffer by the per-layer maximum
    and reuses it across a whole network; the arena does the same across
    the plans it has seen -- the buffer only ever grows, to
    ``max_workspace_bytes`` over the executed plans.  A small pool (one
    buffer per concurrent lease) keeps concurrent executions isolated.
    A lease takes the smallest pooled buffer that fits, so leases nested
    inside one another -- the graph's activation lease around each
    conv's workspace -- settle on one buffer each.
    """

    def __init__(
        self,
        alignment: int = CACHE_LINE_BYTES,
        max_pooled: int = 4,
        metrics: MetricsRegistry | None = None,
    ):
        if alignment < 1:
            raise ValueError(f"alignment must be >= 1, got {alignment}")
        self.alignment = alignment
        self.max_pooled = max_pooled
        self.metrics = metrics
        self.capacity_bytes = 0   # largest single buffer ever allocated
        self.high_water_bytes = 0  # largest lease ever requested
        self.leases = 0
        self.grows = 0
        self.discards = 0
        self._free: list[np.ndarray] = []
        self._lock = threading.Lock()

    @contextmanager
    def lease(self, nbytes: int):
        """Borrow ``nbytes`` of workspace as an :class:`ArenaLease`."""
        buf = self._acquire(nbytes)
        try:
            yield ArenaLease(buf, self.alignment)
        finally:
            self._release(buf)

    def _acquire(self, nbytes: int) -> np.ndarray:
        # Slack for the base-address alignment shift plus per-take padding.
        need = round_up(max(nbytes, 1), self.alignment) + 2 * self.alignment
        with self._lock:
            self.leases += 1
            self.high_water_bytes = max(self.high_water_bytes, nbytes)
            # The smallest pooled buffer that fits, so a small lease
            # nested around a large one leaves the large buffer to it.
            # Pop by index, never list.remove(): removal by value would
            # compare ndarrays elementwise, which raises as soon as the
            # pool holds buffers of different sizes.
            by_size = sorted(range(len(self._free)), key=lambda i: self._free[i].nbytes)
            fits = [i for i in by_size if self._free[i].nbytes >= need]
            if fits:
                buf = self._free.pop(fits[0])
            else:
                if by_size:  # replace the largest pooled buffer
                    self._free.pop(by_size[-1])
                buf = np.empty(max(need, self.capacity_bytes), dtype=np.uint8)
                self.grows += 1
                if self.metrics is not None:
                    self.metrics.counter("arena.grows").inc()
            self.capacity_bytes = max(self.capacity_bytes, buf.nbytes)
            if self.metrics is not None:
                self.metrics.counter("arena.leases").inc()
                self.metrics.gauge("arena.capacity_bytes").set(self.capacity_bytes)
            return buf

    def _release(self, buf: np.ndarray) -> None:
        with self._lock:
            if len(self._free) < self.max_pooled:
                self._free.append(buf)
            else:
                self.discards += 1
                if self.metrics is not None:
                    self.metrics.counter("arena.discards").inc()

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity_bytes": self.capacity_bytes,
                "high_water_bytes": self.high_water_bytes,
                "leases": self.leases,
                "grows": self.grows,
                "discards": self.discards,
                "pooled_buffers": len(self._free),
            }


# ----------------------------------------------------------------------
# Plan entries: one per plan kind, one interface
# ----------------------------------------------------------------------
class PlanEntry:
    """One cached plan plus the kernel preparations seen so far.

    Every plan kind implements the same interface, so the engine runs
    each request through one sequence:

    * ``prepare_kernels(kernels)`` -- the kernel-side precomputation,
      memoized by :meth:`PlanCache.prepare` in ``prepared`` as one
      :class:`KernelMemo` per kernel fingerprint;
    * ``lease_bytes`` -- the transient workspace one execution needs
      (see :meth:`ConvolutionEngine.workspace_bytes`);
    * ``execute(images, prepared, out=, epilogue=)`` -- one execution,
      writing into ``out`` when given and applying ``epilogue`` (an
      in-place post-pass) exactly once, on the finished result.
    """

    lease_bytes = 0

    def __init__(self, key: PlanKey):
        self.key = key
        self.prepared: dict[str, KernelMemo] = {}

    def prepare_kernels(self, kernels: np.ndarray):
        raise NotImplementedError

    def execute(self, images, prepared, out=None, epilogue=None) -> np.ndarray:
        raise NotImplementedError

    def nbytes(self) -> int:
        """Memoized preparations plus the kernel copies kept beside them."""
        return sum(m.nbytes for m in self.prepared.values())


def _winograd_plan(key: PlanKey) -> WinogradPlan:
    return WinogradPlan(
        spec=key.spec,
        input_shape=key.input_shape,
        c_out=key.c_out,
        padding=key.padding,
        dtype=np.dtype(key.dtype),
    )


def _layer_spec(input_shape, c_out, kernel, padding) -> ConvLayerSpec:
    return ConvLayerSpec(
        network="engine", name="auto", batch=input_shape[0],
        c_in=input_shape[1], c_out=c_out, image=tuple(input_shape[2:]),
        padding=tuple(padding), kernel=tuple(kernel),
    )


class FusedEntry(PlanEntry):
    """The fused (Kronecker) fast path: per-plan constants and geometry.

    The N-D transforms are separable mode-``n`` products (Eqn. 8);
    since every tile is transformed by the *same* per-dimension
    matrices, stage 1/3 collapse from ``2N`` strided tensor passes into
    one GEMM per sample with the Kronecker product ``B_1 (x) ... (x) B_N``
    (and likewise ``A``).

    Every buffer keeps channels innermost -- the ``S = C`` member of the
    paper's Table-1 layout family ``(B, C/S, *spatial, S)`` -- so each
    tile element is one contiguous run of ``C`` values:

    * ``padded`` is ``(B, *padded_input, C)``: the input is copied in
      channels-last, whatever its memory order;
    * ``tiles`` is ``(B, K, N, C)`` (the ``K`` tile elements row-major,
      then the ``N`` tiles), gathered through one strided view of
      ``padded`` in runs of ``C`` values;
    * ``u`` is ``(T, B, N, C)``: stage 1 writes ``B_kron @ tiles[b]``
      into it, and stage 2 multiplies its C-contiguous ``(N, C)`` blocks
      by the ``(C, C')`` kernel transform into ``x`` ``(T, B, N, C')``;
    * stage 3 reads ``x``'s per-sample ``(T, N*C')`` sub-matrix in place
      into ``y`` ``(B, L, N, C')`` and assembles output tiles in the
      memory order of the result: a channels-last ``out=`` view streams
      runs of ``C'`` values.  The crop buffer, when the grid overhangs,
      is ``(B, *padded_output, C')``.

    Numerically this is the same linear map evaluated in a different
    association order -- verified against the reference pipeline to
    float tolerance by ``tests/test_engine.py``; the input's and the
    result's memory order never change a value.  Kernels are prepared
    as the memoized ``(T, C, C')`` transform; ``lease_bytes`` is the
    exact arena lease of one execution.
    """

    def __init__(
        self,
        key: PlanKey,
        arena: WorkspaceArena | None = None,
        tracer: Tracer | None = None,
    ):
        super().__init__(key)
        self.arena = arena if arena is not None else WorkspaceArena()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.plan = plan = _winograd_plan(key)
        dtype = plan.dtype
        a_mats, b_mats, _ = plan.transforms.matrices(np.float64)
        # bk: (T, K) and ak: (L, T), both applied from the left.
        self.bk = np.ascontiguousarray(reduce(np.kron, b_mats).astype(dtype))
        self.ak = np.ascontiguousarray(reduce(np.kron, a_mats).astype(dtype))
        grid, spec = plan.grid, plan.spec
        nd = spec.ndim
        counts, m = grid.counts, spec.m
        pin, pout = grid.padded_input_shape, grid.padded_output_shape
        self.out_shape = grid.output_shape
        self.crop = pout != self.out_shape
        b, c, cp = plan.batch, plan.c_in, plan.c_out
        n, t = plan.tiles_per_image, plan.t_matrices
        l = spec.output_tile_elements
        itemsize = dtype.itemsize
        self._shapes = {
            "padded": (b,) + pin + (c,),
            "tiles": (b, t, n, c),
            "u": (t, b, n, c),
            "x": (t, b, n, cp),
            "y": (b, l, n, cp),
        }
        if self.crop:
            self._shapes["pout"] = (b,) + pout + (cp,)
        self.lease_bytes = sum(
            round_up(prod(s) * itemsize, CACHE_LINE_BYTES)
            for s in self._shapes.values()
        )
        self.const_bytes = self.bk.nbytes + self.ak.nbytes

        # Stage 1 geometry: (B, *padded_input, C).
        self._interior, self._halo = _padded_regions(plan, lead=1)
        # (B, C, *spatial) <-> (B, *spatial, C) axis orders.
        self._to_last = (0, *range(2, nd + 2), 1)
        self._to_first = (0, nd + 1, *range(1, nd + 1))
        # The tile gather's source: (B, *tile, *counts, C) over the
        # C-contiguous padded buffer, tile axes at the spatial strides
        # and tile-count axes at m times them.
        strides = [itemsize * prod(self._shapes["padded"][i + 1:])
                   for i in range(nd + 2)]
        spatial = strides[1:-1]
        self._gather_shape = (b,) + spec.tile_shape + counts + (c,)
        self._gather_strides = (
            (strides[0],) + tuple(spatial)
            + tuple(s * mm for s, mm in zip(spatial, m)) + (strides[-1],)
        )

        # Stage 3 assembly: y_tiles (B, m_1..m_N, n_1..n_N, C') permuted
        # to the result split as (B, C', n_1, m_1, ..., n_N, m_N), or to
        # the channels-last crop buffer split as (B, n_1, m_1, ..., C').
        self._y_tiles = (b,) + m + counts + (cp,)
        pairs = [ax for d in range(nd) for ax in (nd + 1 + d, 1 + d)]
        self._to_result = (0, 2 * nd + 1, *pairs)
        self._to_pout = (0, *pairs, 2 * nd + 1)
        split = _interleave(counts, m)
        self._result_split = (b, cp) + split
        self._pout_split = (b,) + split + (cp,)
        self._crop = (slice(None),) * 2 + tuple(slice(0, o) for o in self.out_shape)

    def prepare_kernels(self, kernels: np.ndarray) -> TransformedKernels:
        return self.plan.transform_kernels(kernels)

    def nbytes(self) -> int:
        return self.const_bytes + super().nbytes()

    def execute(
        self,
        images: np.ndarray,
        w: TransformedKernels,
        out: np.ndarray | None = None,
        epilogue=None,
    ) -> np.ndarray:
        with self.arena.lease(self.lease_bytes) as lease:
            return self._run(images, w, lease, out, epilogue)

    def _run(self, images, w, lease: ArenaLease, out, epilogue) -> np.ndarray:
        plan = self.plan
        dtype = plan.dtype
        b, cp = plan.batch, plan.c_out
        tracer = self.tracer

        buf_padded = lease.take(self._shapes["padded"], dtype)
        buf_tiles = lease.take(self._shapes["tiles"], dtype)
        buf_u = lease.take(self._shapes["u"], dtype)
        buf_x = lease.take(self._shapes["x"], dtype)
        buf_y = lease.take(self._shapes["y"], dtype)

        with tracer.span("fused.stage1"):
            # Stage 0: conv padding + grid zero-extension in one buffer.
            # The arena memory is recycled across plans, so the halo is
            # re-zeroed each run; the interior is overwritten whole.
            for halo in self._halo:
                buf_padded[halo] = 0
            buf_padded[self._interior] = images.transpose(self._to_last)

            # Stage 1a: overlapping tiles as one zero-copy strided view,
            # gathered into (B, K, N, C) in runs of C values.
            view = as_strided(
                buf_padded, self._gather_shape, self._gather_strides,
                writeable=False,
            )
            np.copyto(buf_tiles.reshape(self._gather_shape), view)

            # Stage 1b: U = B_kron @ tiles, one (T, K) @ (K, N*C) GEMM
            # per sample into U's row-strided (T, N*C) sub-matrix.  The
            # per-sample loop (rather than one (T, K) @ (K, B*N*C) GEMM)
            # keeps every GEMM's shape independent of the batch size:
            # BLAS kernel selection varies with matrix dimensions, so a
            # batch-folded GEMM can round differently than the same
            # sample computed alone.  Per-sample GEMMs make batched
            # results bitwise identical to per-request runs -- the
            # invariant the serving batcher and the differential suite's
            # batch axis rely on.
            for i in range(b):
                np.matmul(
                    self.bk,
                    buf_tiles[i].reshape(self.bk.shape[1], -1),
                    out=buf_u[:, i].reshape(self.bk.shape[0], -1),
                )

        with tracer.span("fused.stage2"):
            # Stage 2: T x B batched GEMMs (N, C) @ (C, C').
            np.matmul(buf_u, w.data[:, None], out=buf_x)

        with tracer.span("fused.stage3"):
            # Stage 3: Y = A_kron @ X per sample (batch-independent shapes,
            # as in stage 1) on X's row-strided (T, N*C') view -- BLAS-native,
            # no transpose pass -- then one assemble of output tiles.
            for i in range(b):
                np.matmul(self.ak, buf_x[:, i].reshape(self.ak.shape[1], -1),
                          out=buf_y[i].reshape(self.ak.shape[0], -1))

            # The assemble writes through a split-axis view of the result
            # (or of the crop buffer), in that array's own memory order;
            # copy=False makes a split that would need a copy raise
            # instead of writing into a temporary.
            y_tiles = buf_y.reshape(self._y_tiles)
            result = _result_buffer(out, (b, cp) + self.out_shape, dtype)
            if self.crop:
                buf_pout = lease.take(self._shapes["pout"], dtype)
                np.copyto(
                    buf_pout.reshape(self._pout_split),
                    y_tiles.transpose(self._to_pout),
                )
                np.copyto(result, buf_pout.transpose(self._to_first)[self._crop])
            else:
                np.copyto(
                    np.reshape(result, self._result_split, copy=False),
                    y_tiles.transpose(self._to_result),
                )
            if epilogue is not None:
                # Fused graph epilogue (ReLU/BN/add/mul chain) applied on
                # the freshly written result while it is still hot -- the
                # activation never takes a separate read-modify-write pass.
                epilogue(result)
        return result


class CompiledEntry(PlanEntry):
    """A plan run through generated C codelets (``backend="compiled"``).

    Shaped like :class:`FusedEntry`: every call leases its workspace
    from the engine's arena -- ``padded``, the paper's Table-1 image
    layout ``(B, C/S, *padded_input, S)``, then U ``(T, N, C)`` and X
    ``(T, N, C')`` -- and ``lease_bytes`` is exactly that lease,
    computed from the plan's shapes without building anything.  The
    arena memory is recycled, so each call zeroes the halo slabs of
    ``padded`` and copies the images into its interior; stage 1 then
    reads every tile element as one ``S``-wide vector.  Kernels are
    prepared as the same ``(T, C, C')`` transform the fused path
    memoizes -- it *is* the V stage 2 consumes.  Stage 3 writes the
    cropped result straight into ``out`` when ``out`` is a C-contiguous
    ``(B, C', *output)`` array (a fresh one when ``out`` is None); any
    other ``out`` gets one copy through a temporary.  Binding the stages
    is what imports the compiled backend and its code generator.
    """

    def __init__(
        self,
        key: PlanKey,
        arena: WorkspaceArena,
        tracer: Tracer,
        metrics: MetricsRegistry | None = None,
    ):
        super().__init__(key)
        self.arena, self.tracer, self.metrics = arena, tracer, metrics
        self.plan = plan = _winograd_plan(key)
        s = key.blocking.simd_width
        b, c, cp = plan.batch, plan.c_in, plan.c_out
        t, rows = plan.t_matrices, plan.gemm_rows
        self._shapes = {
            "padded": (b, c // s) + plan.grid.padded_input_shape + (s,),
            "u": (t, rows, c),
            "x": (t, rows, cp),
        }
        self.lease_bytes = sum(
            round_up(prod(shape) * plan.dtype.itemsize, CACHE_LINE_BYTES)
            for shape in self._shapes.values()
        )
        self.out_shape = (b, cp) + plan.grid.output_shape
        # The images, channels split into (C/S, S) blocks, land in the
        # interior of `padded` (B, C/S, *padded_input, S).
        self._blocked = (b, c // s, s) + plan.input_shape[2:]
        self._interior, self._halo = _padded_regions(plan, lead=2)
        self._stages = None
        self._build_error: str | None = None
        self.lock = threading.Lock()

    def stages(self):
        """The plan's compiled stage entry points, bound on first use.

        The first call binds the plan to its codelet key's stage
        library: already loaded by another plan with the same key, found
        in the disk build cache, or compiled now; raises
        :class:`CompilerUnavailableError` / :class:`CodeletBuildError`
        on hosts without a toolchain, which the engine's fallback chain
        absorbs.  A failed build is remembered on this entry: later
        calls raise a fresh :class:`CodeletBuildError` without rerunning
        the compiler, so their requests go straight down the chain.  The
        build is retried once the entry has been evicted and rebuilt, or
        by another plan entry with the same key.
        """
        with self.lock:
            if self._build_error is not None:
                raise CodeletBuildError(self._build_error)
            if self._stages is None:
                from repro.core.compiled_backend import get_compiled_stages

                blocking = self.key.blocking
                try:
                    self._stages = get_compiled_stages(
                        self.plan, blocking, blocking.simd_width,
                        tracer=self.tracer, metrics=self.metrics,
                    )
                except CodeletBuildError as exc:
                    self._build_error = str(exc)
                    raise
            return self._stages

    def prepare_kernels(self, kernels: np.ndarray) -> TransformedKernels:
        # The stages first: a build that fails reroutes the request
        # before any kernel work is done or memoized.
        self.stages()
        return self.plan.transform_kernels(kernels)

    def _timed(self, name: str, fn, *args) -> None:
        t0 = time.perf_counter()
        with self.tracer.span(f"compiled.{name}"):
            fn(*args)
        if self.metrics is not None:
            self.metrics.histogram(f"compiled.{name}.seconds").observe(
                time.perf_counter() - t0
            )

    def execute(self, images, w, out=None, epilogue=None) -> np.ndarray:
        stages = self.stages()
        dtype = self.plan.dtype
        result = _result_buffer(out, self.out_shape, dtype)
        direct = result.flags.c_contiguous
        with self.arena.lease(self.lease_bytes) as lease:
            padded = lease.take(self._shapes["padded"], dtype)
            u = lease.take(self._shapes["u"], dtype)
            x = lease.take(self._shapes["x"], dtype)
            for halo in self._halo:
                padded[halo] = 0
            padded[self._interior] = np.moveaxis(
                images.reshape(self._blocked), 2, -1
            )
            self._timed("stage1", stages.stage1, padded, u)
            self._timed("stage2", stages.stage2, u, w.data, x)
            # stage3_direct writes every element of a C-contiguous
            # (B, C', *output) array in its final cropped layout.
            dest = result if direct else np.empty(self.out_shape, dtype)
            self._timed("stage3", stages.stage3_direct, x, dest)
        if not direct:
            np.copyto(result, dest)
        if epilogue is not None:
            epilogue(result)
        return result


class BaselineEntry(PlanEntry):
    """A non-Winograd portfolio algorithm (FFT / direct / im2col).

    Kernels are prepared, in the key's dtype, as the implementation's
    own precomputation (FFT spectra, the im2col GEMM operand; direct has
    none).  Baselines allocate their scratch themselves, so
    ``lease_bytes`` is 0.
    """

    def __init__(self, key: PlanKey, impl, layer: ConvLayerSpec):
        super().__init__(key)
        self.impl = impl
        self.layer = layer

    def prepare_kernels(self, kernels: np.ndarray):
        return self.impl.prepare_kernels(
            kernels.astype(self.key.dtype, copy=False), self.layer
        )

    def execute(self, images, prepared, out=None, epilogue=None) -> np.ndarray:
        result = self.impl.execute_prepared(images, prepared, self.layer, out=out)
        if epilogue is not None:
            epilogue(result)
        return result


class NestedEntry(PlanEntry):
    """Nested Winograd: an r > 3 layer as one stacked r = 3 problem.

    :mod:`repro.core.nested` reduces the kernel to ONE channel-stacked
    r = 3 convolution: kernels are prepared as the stacked bank, the
    stacked input is gathered into an arena lease of ``lease_bytes``, and
    the inner convolution re-enters ``engine.run`` on the key's Winograd
    backend -- with its own plan, kernel memo, spans and fallback chain,
    attributed to the tenant that owns this entry, and honoring ``out=``
    and the epilogue.
    """

    def __init__(self, key: PlanKey, engine: "ConvolutionEngine", layer: ConvLayerSpec):
        from repro.core.nested import NestedWinogradExecutor

        super().__init__(key)
        self.engine = engine
        self.nested = NestedWinogradExecutor(layer)
        self.lease_bytes = self.nested.stacked_nbytes(key.dtype)

    def prepare_kernels(self, kernels: np.ndarray) -> np.ndarray:
        return self.nested.prepare_kernels(kernels)

    def execute(self, images, stacked_kernels, out=None, epilogue=None) -> np.ndarray:
        engine, nested, key = self.engine, self.nested, self.key
        with engine.arena.lease(self.lease_bytes) as lease:
            buf = lease.take(nested.stacked_shape, key.dtype)
            with engine.tracer.span("nested.stack"):
                nested.stack_input(images, out=buf)
            return engine.run(
                buf, stacked_kernels,
                padding=nested.inner_padding, dtype=key.dtype,
                backend=key.backend, algorithm="winograd",
                tenant=engine.plans.tenant_of(key), out=out, epilogue=epilogue,
            )


def _padded_regions(plan: WinogradPlan, lead: int):
    """Index tuples of a padded input buffer: the interior the images
    land in, and the halo -- conv padding plus the grid's zero-extension
    -- as the slabs below and above it along each spatial axis.  The
    buffer's spatial axes follow ``lead`` axes and precede one more."""
    lo, pin = plan.padding, plan.grid.padded_input_shape
    hi = tuple(p + n for p, n in zip(lo, plan.input_shape[2:]))
    interior = (slice(None),) * lead + tuple(map(slice, lo, hi)) + (slice(None),)
    halo = [
        (slice(None),) * (lead + d) + (part,)
        for d in range(len(pin))
        for part in (slice(0, lo[d]), slice(hi[d], pin[d]))
        if part.start < part.stop
    ]
    return interior, halo


def _interleave(counts: tuple[int, ...], m: tuple[int, ...]) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for n, mm in zip(counts, m):
        out += (n, mm)
    return out


def _result_buffer(out, shape, dtype) -> np.ndarray:
    if out is None:
        return np.empty(shape, dtype)
    if tuple(out.shape) != shape or out.dtype != dtype:
        raise ValueError(
            f"out buffer has shape {out.shape}/{out.dtype}, expected {shape}/{dtype}"
        )
    return out


# ----------------------------------------------------------------------
# The engine facade
# ----------------------------------------------------------------------
class ConvolutionEngine:
    """Serving facade wiring plan cache, arena, portfolio and wisdom.

    Parameters
    ----------
    machine:
        Machine model used for tile selection, portfolio predictions
        and wisdom keys.
        Defaults to the ``manycore-knl`` profile's spec.
    profile:
        Named machine profile (:mod:`repro.machine.profiles`) resolved
        to ``machine`` -- e.g. ``"edge-neon"`` or ``"desktop-avx2"``.
        Mutually exclusive with an explicit ``machine=``.  Because
        wisdom is namespaced by the spec fingerprint, portfolio
        decisions recorded under one profile are invisible to others.
    max_plans, max_cache_bytes:
        LRU budget of the plan cache.
    wisdom, wisdom_path:
        Tuned-blocking and portfolio-decision persistence (paper Sec.
        4.3.2).  When ``wisdom_path`` names an existing file it is
        loaded; call :meth:`save_wisdom` to persist new entries.
    backend:
        Default execution backend for :meth:`run`: ``"fused"`` (the
        Kronecker fast path) or ``"compiled"`` (generated C codelets;
        needs a C toolchain).  Both lease their workspace from the one
        arena and write into ``out=``.
    algorithm:
        Default convolution *algorithm* for :meth:`run`:
        ``"winograd"`` (every backend above), one of the portfolio
        baselines (``"fft"``/``"direct"``/``"im2col"``), or ``"auto"``
        -- the portfolio planner picks per layer shape (cost-model
        ranking, measured probes, wisdom persistence; see
        :mod:`repro.core.portfolio`).  Probes run the first time a
        shape is resolved -- by a request, serve admission or graph
        planning -- and the Winograd-family probes run under
        ``backend``, so they measure what serving will pay.
    tracer, metrics:
        Observability hooks (:mod:`repro.obs`): a span tracer recording
        per-request / per-stage timings and a metrics registry
        (plan-cache, arena, backend mix, latency percentiles).
        Engine-scoped by default; pass shared instances to aggregate
        across engines.

    A compiled request whose host has no C toolchain, or whose codelet
    build fails, is rerouted down the fallback chain (``compiled ->
    fused``) instead of failing, with the event recorded in metrics and
    the trace.
    """

    def __init__(
        self,
        *,
        machine: MachineSpec | None = None,
        profile: str | None = None,
        max_plans: int = 32,
        max_cache_bytes: int = 512 << 20,
        wisdom: Wisdom | None = None,
        wisdom_path: str | Path | None = None,
        backend: str = "fused",
        algorithm: str = "winograd",
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if algorithm not in ("auto",) + ALGORITHMS:
            raise ValueError(
                f"algorithm must be 'auto' or one of {ALGORITHMS}, got {algorithm!r}"
            )
        if machine is None:
            from repro.machine.profiles import DEFAULT_PROFILE, get_profile

            machine = get_profile(profile if profile is not None else DEFAULT_PROFILE)
        elif profile is not None:
            raise ValueError("pass machine= or profile=, not both")
        self.backend = backend
        self.algorithm = algorithm
        self.profile = profile
        self.machine = machine
        # Observability: tracer + metrics are engine-scoped (pass shared
        # instances to aggregate across engines).
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.plans = PlanCache(
            max_plans=max_plans, max_bytes=max_cache_bytes, metrics=self.metrics
        )
        self.arena = WorkspaceArena(metrics=self.metrics)
        self.wisdom_path = Path(wisdom_path) if wisdom_path is not None else None
        if wisdom is not None:
            self.wisdom = wisdom
        elif self.wisdom_path is not None and self.wisdom_path.exists():
            self.wisdom = Wisdom.load(self.wisdom_path)
        else:
            self.wisdom = Wisdom()
        self.portfolio = PortfolioPlanner(
            machine, self.wisdom, tracer=self.tracer, metrics=self.metrics
        )
        self._keys: dict[tuple, PlanKey] = {}
        self._algo_cache: dict[str, AlgorithmChoice] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def run(
        self,
        images: np.ndarray,
        kernels: np.ndarray,
        *,
        fmr: FmrSpec | str | None = None,
        padding: tuple[int, ...] | None = None,
        dtype=np.float32,
        backend: str | None = None,
        algorithm: str | None = None,
        tenant: str | None = None,
        out: np.ndarray | None = None,
        epilogue=None,
    ) -> np.ndarray:
        """Convolve ``images`` with ``kernels`` through the cached plan.

        Drop-in equivalent of
        :func:`repro.core.convolution.winograd_convolution`; repeated
        calls with the same layer signature hit the plan cache, and
        repeated calls with the same kernel tensor skip the kernel
        preparation entirely (the "FX" path).  ``fmr``, ``padding``,
        ``dtype``, ``backend`` and ``algorithm`` pick the plan as
        :meth:`resolve` documents.  ``tenant`` attributes plans built
        for this request to a serving tenant for quota accounting (see
        :meth:`PlanCache.evict_tenant`).  ``epilogue`` is an in-place
        post-pass (``epilogue(result) -> None``) fused into the conv's
        output write -- the graph executor's folded ReLU/BN/add/mul
        chains; it is applied exactly once, by whichever backend
        attempt succeeds.

        Every algorithm runs the same sequence: resolve the plan key,
        get its entry, prepare the kernels, execute under an
        ``execute.<name>`` span -- all inside one ``request`` span and
        the ``compiled -> fused`` fallback loop.
        """
        images = np.asarray(images)
        kernels = np.asarray(kernels)
        key = self.resolve(
            images.shape, kernels.shape, fmr=fmr, padding=padding,
            dtype=dtype, backend=backend, algorithm=algorithm,
        )
        self.metrics.counter(f"engine.requests.{key.name}").inc()
        if key.name == "compiled" and not compiled_available():
            # No C toolchain (or no cffi): reroute up front -- visibly,
            # via the same fallback counters/events the chain uses --
            # instead of paying a doomed plan build per request.
            key = self._fall_back(key, "CompilerUnavailableError")
        t0 = time.perf_counter()
        with self.tracer.span("request", backend=key.name) as req:
            try:
                images = images.astype(key.dtype, copy=False)
                while True:
                    try:
                        entry = self.plans.get_or_create(
                            key, self._new_entry, tenant=tenant
                        )
                        # Kernel preparation stays outside the execute
                        # span: the memoized lookup is request plumbing,
                        # and keeping it out makes the execute.<name>
                        # spans directly comparable.
                        prepared = self.plans.prepare(entry, kernels)
                        with self.tracer.span(f"execute.{key.name}"):
                            return entry.execute(
                                images, prepared, out=out, epilogue=epilogue
                            )
                    except FALLBACK_ERRORS as exc:
                        if key.name not in FALLBACK_NEXT:
                            raise
                        source = key.name
                        key = self._fall_back(key, type(exc).__name__)
                        req.attrs["fallback"] = f"{source}->{key.name}"
            finally:
                self.metrics.histogram("engine.request_seconds").observe(
                    time.perf_counter() - t0
                )

    def _fall_back(self, key: PlanKey, error: str) -> PlanKey:
        """Count and trace one reroute of ``key`` down the chain."""
        nxt = FALLBACK_NEXT[key.name]
        self.metrics.counter("engine.fallbacks").inc()
        self.metrics.counter(f"engine.fallbacks.{key.name}_to_{nxt}").inc()
        self.tracer.event("fallback", source=key.name, target=nxt, error=error)
        return _fallback_key(key)

    def _new_entry(self, key: PlanKey) -> PlanEntry:
        """Build the plan entry for ``key`` (the plan cache's factory)."""
        if key.algorithm == "winograd":
            if key.backend == "compiled":
                return CompiledEntry(key, self.arena, self.tracer, self.metrics)
            return FusedEntry(key, self.arena, self.tracer)
        layer = _layer_spec(key.input_shape, key.c_out, key.kernel, key.padding)
        if key.algorithm == "nested":
            return NestedEntry(key, self, layer)
        return BaselineEntry(key, make_baseline(key.algorithm, self.machine), layer)

    # ------------------------------------------------------------------
    def run_many(
        self,
        images_list,
        kernels: np.ndarray,
        *,
        fmr: FmrSpec | str | None = None,
        padding: tuple[int, ...] | None = None,
        dtype=np.float32,
        backend: str | None = None,
        algorithm: str | None = None,
        tenant: str | None = None,
        pad_to: int | None = None,
    ) -> list[np.ndarray]:
        """Run a batch of same-shape requests as ONE dispatch round.

        The serving front-end's coalescing entry point: ``images_list``
        holds per-request image tensors sharing ``(C, *spatial)`` (their
        leading batch dimensions may differ); they are stacked along the
        batch axis and executed through a single :meth:`run` call -- one
        plan-cache lookup, one kernel lookup and one arena lease
        for the whole batch instead of one per request.  The returned
        list holds one output view per request, in order.

        ``pad_to`` zero-pads the stacked batch up to a fixed size before
        execution (the padded samples' outputs are discarded).  The
        batcher uses power-of-two buckets so a queue draining at
        arbitrary depths touches a bounded set of plan keys instead of
        one per observed batch size.

        Numerics: every algorithm computes samples independently
        (per-sample GEMMs, never reductions across samples), so batched
        results are **bitwise identical** to per-request :meth:`run`
        results -- asserted for every algorithm by
        ``tests/test_differential.py``.
        """
        reqs = [np.asarray(im) for im in images_list]
        if not reqs:
            raise ValueError("run_many needs at least one request")
        head = reqs[0]
        if head.ndim < 3:
            raise ValueError(
                f"images must be (B, C, *spatial), got shape {head.shape}"
            )
        for im in reqs[1:]:
            if im.shape[1:] != head.shape[1:]:
                raise ValueError(
                    f"run_many requests must share (C, *spatial): "
                    f"{im.shape[1:]} != {head.shape[1:]}"
                )
        counts = [im.shape[0] for im in reqs]
        total = sum(counts)
        if pad_to is not None and pad_to < total:
            raise ValueError(f"pad_to={pad_to} < batch total {total}")
        stacked_b = pad_to if pad_to is not None else total
        dtype = np.dtype(dtype)
        stacked = np.zeros((stacked_b,) + head.shape[1:], dtype=dtype)
        off = 0
        for im in reqs:
            stacked[off : off + im.shape[0]] = im
            off += im.shape[0]
        self.metrics.counter("engine.batch.requests").inc(len(reqs))
        self.metrics.histogram("engine.batch.size").observe(len(reqs))
        if stacked_b > total:
            self.metrics.counter("engine.batch.padded_samples").inc(
                stacked_b - total
            )
        out = self.run(
            stacked, kernels, fmr=fmr, padding=padding, dtype=dtype,
            backend=backend, algorithm=algorithm, tenant=tenant,
        )
        results: list[np.ndarray] = []
        off = 0
        for b in counts:
            results.append(out[off : off + b])
            off += b
        return results

    # ------------------------------------------------------------------
    def run_graph(
        self,
        graph,
        feeds,
        *,
        backend: str | None = None,
        algorithm: str | None = None,
        dtype=np.float32,
        fuse: bool = True,
        tenant: str | None = None,
    ):
        """Execute a :class:`repro.graph.ir.Graph` end to end.

        Plans the graph (per-node algorithm via the portfolio when
        ``algorithm="auto"``, elementwise epilogues folded into conv
        stage-3 writes, intermediate activations placed in the workspace
        arena) and runs it; returns ``{output name: array}``.  ``feeds``
        is ``{input name: array}``, or a bare array for single-input
        graphs.  For repeated execution hold a
        :class:`repro.graph.executor.GraphExecutor` instead -- this
        convenience re-plans per call (cheap: decisions and plans are
        memoized, but not free).
        """
        from repro.graph.executor import GraphExecutor

        executor = GraphExecutor(
            graph, self, backend=backend, algorithm=algorithm,
            dtype=dtype, fuse=fuse, tenant=tenant,
        )
        return executor.run(feeds)

    # ------------------------------------------------------------------
    def workspace_bytes(
        self,
        input_shape: tuple[int, ...],
        kernel_shape: tuple[int, ...],
        *,
        padding: tuple[int, ...] | None = None,
        dtype=np.float32,
        tenant: str | None = None,
    ) -> int:
        """Transient workspace of one request at this signature.

        The serving front-end's per-tenant arena quotas admit each batch
        by this figure.  The signature is resolved as :meth:`run`
        resolves it under the engine's default algorithm and backend
        (an ``auto`` engine decides it here), and the answer is the
        ``lease_bytes`` of the plan entry that :meth:`run` will use.
        That entry is built here (attributed to ``tenant``), so
        admission warms the cache and builds no other entry:

        * fused Winograd: its exact arena lease (padded input, tiles, U,
          X, Y and, when the grid overhangs, the crop buffer);
        * compiled Winograd: its exact arena lease (blocked padded
          input, U, X), computed from the plan's shapes without
          building codelets;
        * nested: the stacked-input lease; the inner r = 3 request
          leases its own on top;
        * fft / direct / im2col: 0 -- they lease nothing from the arena.

        On a host without a C toolchain a compiled signature reports the
        fused entry its requests are rerouted to.
        """
        key = self.resolve(input_shape, kernel_shape, padding=padding, dtype=dtype)
        if key.name == "compiled" and not compiled_available():
            key = _fallback_key(key)  # where run reroutes it
        return self.plans.get_or_create(key, self._new_entry, tenant=tenant).lease_bytes

    # ------------------------------------------------------------------
    def resolve(
        self,
        input_shape: tuple[int, ...],
        kernel_shape: tuple[int, ...],
        *,
        fmr: FmrSpec | str | None = None,
        padding: tuple[int, ...] | None = None,
        dtype=np.float32,
        backend: str | None = None,
        algorithm: str | None = None,
    ) -> PlanKey:
        """The plan a request with these shapes and knobs runs.

        The one place the request rules live; :meth:`run`,
        :meth:`workspace_bytes` and the graph planner all resolve
        through it, memoized per signature:

        * ``algorithm`` defaults to the engine's; ``"auto"`` engages the
          portfolio planner (one decision per signature; see
          :meth:`_decide_algorithm`);
        * ``backend`` and ``fmr`` apply to the Winograd family only:
          either one pins ``"auto"`` to Winograd, and a baseline
          algorithm rejects both (``"nested"`` takes ``backend`` for its
          inner r = 3 problem but picks its own inner ``F(m, 3)``, so it
          rejects ``fmr``);
        * ``backend`` defaults to the engine's, and ``fmr`` to
          :meth:`_select_spec`'s fixed rule;
        * a compiled plan's blocking comes from wisdom when it fits the
          channel counts, else from :func:`default_parallel_blocking`.

        A host without a C toolchain still resolves ``compiled``: the
        reroute to ``fused`` is a fallback :meth:`run` counts per
        request.
        """
        if padding is not None and type(padding) is not tuple:
            padding = tuple(padding)
        args = (
            tuple(input_shape), tuple(kernel_shape), fmr, padding, dtype,
            backend, algorithm,
        )
        key = self._keys.get(args)
        if key is None:
            key = self._keys[args] = self._resolve(*args)
        return key

    def _resolve(
        self, input_shape, kernel_shape, fmr, padding, dtype, backend, algorithm
    ) -> PlanKey:
        if len(input_shape) < 3:
            raise ValueError(f"images must be (B, C, *spatial), got shape {input_shape}")
        if padding is None:
            padding = (0,) * (len(input_shape) - 2)
        dtype = np.dtype(dtype)
        algo = algorithm if algorithm is not None else self.algorithm
        if algo not in ("auto",) + ALGORITHMS:
            raise ValueError(
                f"algorithm must be 'auto' or one of {ALGORITHMS}, got {algo!r}"
            )
        source = "forced" if algorithm is not None else "default"
        if algo == "auto":
            # A backend or tile knob pins the request to the Winograd
            # family, leaving "auto" nothing to decide.
            if backend is not None or fmr is not None:
                algo, source = "winograd", "forced"
            else:
                choice = self._decide_algorithm(
                    input_shape, kernel_shape, padding, dtype
                )
                algo, source = choice.algorithm, choice.source
        elif algo != "winograd" and (
            fmr is not None or (backend is not None and algo != "nested")
        ):
            knob = "fmr" if fmr is not None else "backend"
            raise ValueError(
                f"{knob} applies to the winograd path, not algorithm={algo!r}"
            )
        key = PlanKey(
            spec=None, input_shape=input_shape, c_out=kernel_shape[1],
            padding=padding, dtype=dtype.name, backend=None, algorithm=algo,
            kernel=kernel_shape[2:], source=source,
        )
        if algo not in ENGINE_EXECUTED:
            return key
        if backend is None:
            backend = self.backend
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if algo == "nested":
            return replace(key, backend=backend)
        spec = self._resolve_spec(fmr, input_shape, kernel_shape, padding)
        blocking = None
        if backend == "compiled":
            blocking = self._compiled_blocking(spec, input_shape, kernel_shape[1], padding)
        return replace(key, spec=spec, blocking=blocking, backend=backend, kernel=None)

    def _decide_algorithm(self, input_shape, kernel_shape, padding, dtype) -> AlgorithmChoice:
        """Portfolio decision, memoized by :func:`portfolio_key`.

        The key leaves out the batch, so no later batch size probes; the
        planner underneath additionally consults/records the persistent
        wisdom so decisions survive the process.  Probes run on arrays
        of ones -- a convolution's time does not depend on its values,
        and unlike a fresh ``np.zeros`` array, whose untouched pages all
        map to one zero page, they occupy memory as a request's arrays
        do -- so a decision needs only the shapes.  Every plan entry the
        probes built is dropped once the decision is made: those entries
        hold the probe kernel's preparation, and the first real request
        rebuilds the winner's.  (An entry a concurrent request built
        while a probe ran may go with them; it is only rebuilt.)
        """
        layer = _layer_spec(input_shape, kernel_shape[1], kernel_shape[2:], padding)
        signature = portfolio_key(layer, dtype.name)
        with self._lock:
            cached = self._algo_cache.get(signature)
        if cached is not None:
            return cached
        images = np.ones(input_shape, dtype)
        kernels = np.ones(kernel_shape, dtype)
        built: set[PlanKey] = set()

        def probe_once(algo: str) -> float:
            # Re-enter run() with the algorithm forced: probes time the
            # exact dispatch path serving will use (plan cache, arena,
            # memoized kernel prep) rather than a synthetic harness.
            # Winograd-family probes additionally pin the engine's own
            # backend, so a compiled engine's decisions are measured
            # under that executor, never a silently-fused stand-in.
            kwargs = {}
            if algo in ENGINE_EXECUTED:
                kwargs["backend"] = self.backend
            before = set(self.plans.keys())
            t0 = time.perf_counter()
            self.run(
                images, kernels, padding=padding, dtype=dtype,
                algorithm=algo, **kwargs,
            )
            elapsed = time.perf_counter() - t0
            built.update(set(self.plans.keys()) - before)
            return elapsed

        choice = self.portfolio.decide(layer, dtype.name, runner=probe_once)
        for key in built:
            self.plans.discard(key)
        with self._lock:
            self._algo_cache[signature] = choice
        return choice

    def _resolve_spec(self, fmr, input_shape, kernel_shape, padding) -> FmrSpec:
        r = tuple(kernel_shape[2:])
        if isinstance(fmr, str):
            spec = FmrSpec.parse(fmr)
        elif fmr is not None:
            spec = fmr
        else:
            spec = self._select_spec(input_shape, kernel_shape, padding)
        if spec.r != r:
            raise ValueError(f"spec kernel size {spec.r} != kernels' {r}")
        return spec

    def _select_spec(self, input_shape, kernel_shape, padding) -> FmrSpec:
        """Pick ``F(m, r)`` for an unpinned request."""
        r = kernel_shape[2:]
        out = output_shape(input_shape[2:], r, padding)
        # The paper's workhorse sizes: m = 4 per dimension when the
        # fp32 accuracy budget allows (alpha <= 8 keeps Table-3
        # error small) and the output extent amortizes the tile;
        # m = 2 otherwise -- always correct, merely conservative.
        m = tuple(
            4 if (rd + 3 <= 8 and od >= 4) else 2
            for rd, od in zip(r, out)
        )
        return FmrSpec(m=m, r=r)

    def _compiled_blocking(self, spec, input_shape, c_out, padding) -> BlockingConfig:
        """Blocking for the compiled backend.

        Prefers a tuned wisdom entry when it satisfies the compiled
        backend's divisibility constraints (``C``/``C'`` multiples of
        the SIMD group and of the channel blocks); otherwise falls back
        to correctness-first defaults sized by the channel counts --
        autotuning is never triggered from the request path.
        """
        from repro.core.autotune import blocking_from_wisdom, layer_key

        c_in = input_shape[1]
        layer = _layer_spec(input_shape, c_out, spec.r, padding)
        stored = self.wisdom.get(layer_key(layer, spec, self.machine))
        if stored is not None:
            cand = blocking_from_wisdom(stored, self.machine.vector_width)
            if (
                c_in % cand.simd_width == 0
                and c_out % cand.simd_width == 0
                and c_in % cand.c_blk == 0
                and c_out % cand.cprime_blk == 0
            ):
                return cand
        return default_parallel_blocking(c_in, c_out, parallel_simd_width(c_in, c_out))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the cached plans and their kernel preparations.

        The engine stays usable afterwards -- plans simply rebuild on the
        next call.
        """
        self.plans.clear()

    def __enter__(self) -> "ConvolutionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def save_wisdom(self, path: str | Path | None = None) -> None:
        """Persist the wisdom store: tuned blockings and portfolio decisions."""
        path = Path(path) if path is not None else self.wisdom_path
        if path is None:
            raise ValueError("no wisdom path configured")
        self.wisdom.save(path)

    def algorithm_decisions(self) -> list[dict[str, object]]:
        """Portfolio decisions this engine has made, one per signature."""
        with self._lock:
            snapshot = dict(self._algo_cache)
        return [{"signature": k, **c.as_dict()} for k, c in snapshot.items()]

    def stats(self) -> dict[str, object]:
        """Cache + arena counters for reporting/monitoring."""
        return {
            "plans": self.plans.stats.as_dict(),
            "cached_plans": len(self.plans),
            "arena": self.arena.as_dict(),
            "wisdom_entries": len(self.wisdom),
            "algo_wisdom_entries": self.wisdom.algo_count,
            "algorithm_decisions": self.algorithm_decisions(),
            "metrics": self.metrics.snapshot(),
            "fallbacks": self.metrics.counter_value("engine.fallbacks"),
        }


def clear_compile_caches() -> None:
    """Reset process-wide memoized transform generation.

    Benchmarks call this to measure honest cold-start latency: the next
    plan construction redoes the exact-rational Toom-Cook generation,
    codelet derivation and (for the compiled backend) library loading,
    as a fresh process would.  The content-addressed on-disk build cache
    is deliberately kept -- it persists across processes by design.
    """
    from repro.core.codelets import clear_codelet_cache
    from repro.core.compiled_backend import clear_compiled_caches

    clear_transform_caches()
    clear_codelet_cache()
    clear_compiled_caches()
