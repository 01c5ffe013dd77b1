"""Compiled execution backend: cffi-built C codelets for the hot path.

:mod:`repro.core.codegen_c` renders the three stage functions of one
codelet key -- ``F(m, r)``, ``S``, dtype, ``C`` and the stage-2 register
tile -- into one C translation unit; this module owns everything around
that source.  The engine imports it only when it builds a compiled plan
entry; the toolchain probe and the two fallback errors live in
:mod:`repro.core.toolchain`, so a fused-only process never loads the
code generator.

* **build cache** -- compiled libraries land in a content-addressed
  disk cache (``$REPRO_CODELET_CACHE`` or
  ``$XDG_CACHE_HOME/repro/codelets``) keyed by a digest of the source,
  compiler and flags; the write is atomic (temp + rename) so concurrent
  builders -- threads or separate processes -- race benignly.  dlopen
  handles are memoized per digest in-process.  The source depends only
  on the key, so plans that differ only in shape share one compile,
  one dlopen and one disk-cache entry.
* **entry points** -- :class:`CompiledStages` binds one plan's packed
  geometry to the shared library's ``wino_stage1``, ``wino_stage2`` and
  ``wino_stage3_direct``; its wrappers pass numpy buffers through
  ``ffi.from_buffer`` with zero copies, over full ranges by default or
  over any slice of a stage's task grid.
* :class:`CompiledWinogradExecutor` -- the sequential all-compiled
  pipeline used by ``backend="compiled"``: stage 1, stage 2 and stage 3
  straight into the cropped output, on the ``(T, C, C')`` kernel
  transform the engine memoizes.

The compile itself is observable: a ``codelet.compile`` span, build /
cache-hit counters and a compile-seconds histogram.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.blocking import BlockingConfig
from repro.core.codegen_c import CodeletKey, PlanGeometry, render_source
from repro.core.convolution import TransformedKernels, WinogradPlan
from repro.core.layout import ImageLayout, pack_padded
from repro.core.toolchain import (  # noqa: F401 - re-exported
    CodeletBuildError,
    CompilerUnavailableError,
    Toolchain,
    clear_probe_cache,
    compiled_available,
    probe_toolchain,
    run_compiler,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer


# ----------------------------------------------------------------------
# Disk + in-process build cache
# ----------------------------------------------------------------------
def build_cache_dir() -> Path:
    env = os.environ.get("REPRO_CODELET_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "codelets"


def source_digest(c_source: str, toolchain: Toolchain) -> str:
    """Content address of one build: source bytes + compiler + flags."""
    h = hashlib.blake2b(digest_size=16)
    h.update(c_source.encode())
    h.update(b"\x00")
    h.update("\x1f".join(toolchain.argv).encode())
    h.update(b"\x00")
    h.update("\x1f".join(toolchain.flags).encode())
    return h.hexdigest()


def build_shared_library(
    c_source: str,
    toolchain: Toolchain,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> Path:
    """Compile ``c_source`` into the disk cache (or reuse a prior build).

    The ``.c`` is kept next to the ``.so`` for debuggability.  Both are
    written atomically via temp-file + rename, so concurrent builders
    (threads or separate processes) converge on one
    artifact without locking.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    digest = source_digest(c_source, toolchain)
    cache = build_cache_dir()
    so_path = cache / f"wino_{digest}.so"
    if so_path.exists():
        if metrics is not None:
            metrics.counter("codelet_compile.disk_hits").inc()
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with tracer.span("codelet.compile", digest=digest):
        fd, tmp_c = tempfile.mkstemp(dir=cache, suffix=".c")
        os.close(fd)
        fd, tmp_so = tempfile.mkstemp(dir=cache, suffix=".so")
        os.close(fd)
        try:
            Path(tmp_c).write_text(c_source)
            ok, err = run_compiler(
                toolchain.argv, toolchain.flags, Path(tmp_c), Path(tmp_so)
            )
            if not ok:
                raise CodeletBuildError(
                    f"codelet build failed with {' '.join(toolchain.argv)}: {err}"
                )
            os.replace(tmp_c, cache / f"wino_{digest}.c")
            os.replace(tmp_so, so_path)
        finally:
            for leftover in (tmp_c, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    if metrics is not None:
        metrics.counter("codelet_compile.builds").inc()
        metrics.histogram("codelet_compile.seconds").observe(
            time.perf_counter() - t0
        )
    return so_path


# ----------------------------------------------------------------------
# Loaded stage entry points
# ----------------------------------------------------------------------
class CompiledStages:
    """Typed wrappers over a shared stage library, bound to one plan.

    The dlopen'd ``(ffi, lib)`` pair belongs to a :class:`CodeletKey`
    and is shared by every plan with that key; this object adds the
    plan's own :class:`PlanGeometry`, packed once into the ``geo``
    array each entry point takes first, and the full-range arguments.
    Every entry point also takes ``[start, stop)`` ranges over its
    stage's task grid (:mod:`repro.core.scheduling`); a stage filled
    slice by slice matches one full-range call bit for bit.
    """

    def __init__(
        self,
        plan: WinogradPlan,
        blocking: BlockingConfig,
        geometry: PlanGeometry,
        real_type: str,
        ffi,
        lib,
    ):
        self.ffi = ffi
        self.lib = lib
        self.dtype = plan.dtype
        self._ctype = real_type + "[]"
        self._geo = ffi.new("int64_t[]", geometry.pack().tolist())
        s = geometry.simd
        row_blocks = -(-plan.gemm_rows // blocking.n_blk)
        self.full_ranges = {
            "stage1": ((0, plan.batch), (0, plan.c_in // s))
            + tuple((0, n) for n in plan.grid.counts),
            "stage2": (
                (0, plan.t_matrices),
                (0, plan.c_out // blocking.cprime_blk),
                (0, row_blocks),
            ),
            "stage3_direct": (
                (0, plan.batch * plan.tiles_per_image * (plan.c_out // s)),
            ),
        }

    def _ptr(self, arr: np.ndarray, writable: bool):
        if arr.dtype != self.dtype:
            raise ValueError(f"buffer dtype {arr.dtype} != plan dtype {self.dtype}")
        if not arr.flags["C_CONTIGUOUS"]:
            raise ValueError("compiled stages need C-contiguous buffers")
        return self.ffi.from_buffer(self._ctype, arr, require_writable=writable)

    @staticmethod
    def _flat(ranges) -> list[int]:
        return [int(v) for pair in ranges for v in pair]

    def stage1(self, padded: np.ndarray, u: np.ndarray, ranges=None) -> None:
        ranges = ranges if ranges is not None else self.full_ranges["stage1"]
        self.lib.wino_stage1(
            self._geo, self._ptr(padded, False), self._ptr(u, True),
            *self._flat(ranges),
        )

    def stage2(self, u: np.ndarray, v: np.ndarray, x: np.ndarray, ranges=None) -> None:
        ranges = ranges if ranges is not None else self.full_ranges["stage2"]
        self.lib.wino_stage2(
            self._geo, self._ptr(u, False), self._ptr(v, False), self._ptr(x, True),
            *self._flat(ranges),
        )

    def stage3_direct(self, x: np.ndarray, out: np.ndarray, ranges=None) -> None:
        """Inverse transform straight into the final cropped output
        tensor ``(B, C', *output)`` -- no ``out_tiles`` round-trip, no
        :func:`~repro.core.tiling.assemble_output`."""
        ranges = ranges if ranges is not None else self.full_ranges["stage3_direct"]
        self.lib.wino_stage3_direct(
            self._geo, self._ptr(x, False), self._ptr(out, True),
            *self._flat(ranges),
        )


#: dlopen'd ``(ffi, lib)`` per source digest -- one per codelet key
#: and toolchain, shared by every plan with that key.
_LIBRARIES: dict[str, tuple] = {}
_LIBRARIES_LOCK = threading.Lock()


def get_compiled_stages(
    plan: WinogradPlan,
    blocking: BlockingConfig,
    simd_width: int,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> CompiledStages:
    """Stage entry points for a plan: render its key's source, then
    reuse the loaded library, load it from the disk cache, or build it.

    Raises :class:`CompilerUnavailableError` without a toolchain and
    :class:`CodeletBuildError` when the compile itself fails; both are
    absorbed by the engine's fallback chain.  A failure is not
    remembered here, so the next plan with the same key runs the
    compiler again.
    """
    tc = probe_toolchain()
    if tc is None:
        raise CompilerUnavailableError(
            "no working C compiler / cffi; compiled backend unavailable"
        )
    geometry = PlanGeometry.from_plan(plan, blocking, simd_width)
    gen = render_source(CodeletKey.from_plan(plan, blocking, simd_width))
    digest = source_digest(gen.c_source, tc)
    with _LIBRARIES_LOCK:
        loaded = _LIBRARIES.get(digest)
    if loaded is not None:
        if metrics is not None:
            metrics.counter("codelet_compile.memo_hits").inc()
    else:
        so_path = build_shared_library(
            gen.c_source, tc, tracer=tracer, metrics=metrics
        )
        import cffi

        ffi = cffi.FFI()
        ffi.cdef(gen.cdef)
        try:
            lib = ffi.dlopen(str(so_path))
        except OSError as exc:
            raise CodeletBuildError(f"failed to load {so_path}: {exc}") from exc
        with _LIBRARIES_LOCK:
            loaded = _LIBRARIES.setdefault(digest, (ffi, lib))
    ffi, lib = loaded
    return CompiledStages(plan, blocking, geometry, gen.real_type, ffi, lib)


def clear_compiled_caches() -> None:
    """Drop the in-process probe and library caches (tests / cold-start
    benchmarks).  The content-addressed disk cache is left alone -- it
    is the persistence layer, not a memoization detail."""
    clear_probe_cache()
    with _LIBRARIES_LOCK:
        _LIBRARIES.clear()


# ----------------------------------------------------------------------
# Sequential all-compiled executor (backend="compiled")
# ----------------------------------------------------------------------
class CompiledWinogradExecutor:
    """Runs a :class:`WinogradPlan` entirely through the compiled stages.

    Owns persistent pipeline buffers (padded / U / X); :meth:`execute` is
    serialized internally, so the one workspace serves one request at a
    time.  ``padded`` is the Table-1 image layout ``(B, C/S,
    *padded_input, S)``: its zero halo is written once, at allocation,
    and each call copies the images into its interior
    (:func:`~repro.core.layout.pack_padded`), so stage 1 reads every tile
    element as one ``S``-wide vector.  Stage 3 runs the direct variant,
    writing a fresh output tensor in its final cropped layout -- no
    ``out_tiles`` buffer and no numpy reassembly.  Stage 2 reads the
    memoized ``(T, C, C')`` kernel transform (:class:`TransformedKernels`,
    the engine's FX path) as V directly; raw kernels are transformed by
    :meth:`WinogradPlan.transform_kernels` first, so both give the same
    bits.
    """

    def __init__(
        self,
        plan: WinogradPlan,
        blocking: BlockingConfig,
        simd_width: int = 16,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.plan = plan
        self.blocking = blocking
        self.simd_width = simd_width
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.stages = get_compiled_stages(
            plan, blocking, simd_width, tracer=self.tracer, metrics=metrics
        )
        shapes = self.workspace_shapes(plan, simd_width)
        dtype = plan.dtype
        self._padded = np.zeros(shapes["padded"], dtype)
        self._u = np.empty(shapes["u"], dtype)
        self._x = np.empty(shapes["x"], dtype)
        self._out_shape = (plan.batch, plan.c_out) + plan.grid.output_shape
        self._lock = threading.Lock()

    @staticmethod
    def workspace_shapes(plan: WinogradPlan, simd_width: int) -> dict[str, tuple[int, ...]]:
        """Shapes of the persistent buffers, known before any build."""
        b, c, cp = plan.batch, plan.c_in, plan.c_out
        t, nb = plan.t_matrices, plan.gemm_rows
        return {
            "padded": ImageLayout(
                b, c, plan.grid.padded_input_shape, simd_width
            ).stored_shape,
            "u": (t, nb, c),
            "x": (t, nb, cp),
        }

    @property
    def workspace_nbytes(self) -> int:
        return sum(a.nbytes for a in (self._padded, self._u, self._x))

    def _timed(self, name: str, fn) -> None:
        t0 = time.perf_counter()
        with self.tracer.span(f"compiled.{name}"):
            fn()
        if self.metrics is not None:
            self.metrics.histogram(f"compiled.{name}.seconds").observe(
                time.perf_counter() - t0
            )

    def execute(
        self, images: np.ndarray, kernels: np.ndarray | TransformedKernels
    ) -> np.ndarray:
        plan = self.plan
        images = np.asarray(images, dtype=plan.dtype)
        if tuple(images.shape) != plan.input_shape:
            raise ValueError(f"images shape {images.shape} != {plan.input_shape}")
        if not isinstance(kernels, TransformedKernels):
            kernels = plan.transform_kernels(np.asarray(kernels))
        if kernels.spec != plan.spec or kernels.c != plan.c_in \
                or kernels.cprime != plan.c_out:
            raise ValueError(
                "transformed kernels do not match the plan "
                f"({kernels.spec}, C={kernels.c}, C'={kernels.cprime})"
            )
        v = np.ascontiguousarray(kernels.data, dtype=plan.dtype)
        with self._lock:
            # No stage writes `padded`, so its halo is still zero.
            pack_padded(
                images, plan.padding, plan.grid.padded_input_shape,
                self.simd_width, out=self._padded,
            )
            self._timed("stage1", lambda: self.stages.stage1(self._padded, self._u))
            self._timed("stage2", lambda: self.stages.stage2(self._u, v, self._x))
            # Fresh (not persistent): the caller owns the result, and
            # stage3_direct writes every element, so np.empty is safe.
            out = np.empty(self._out_shape, plan.dtype)
            self._timed("stage3", lambda: self.stages.stage3_direct(self._x, out))
            return out

    def shutdown(self) -> None:  # symmetry with the other executors
        pass

    def __enter__(self) -> "CompiledWinogradExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
