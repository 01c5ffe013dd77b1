"""C toolchain capability for the compiled backend.

The engine asks :func:`compiled_available` before every compiled
request and catches the two errors below on its fallback chain, so this
module holds exactly those and nothing of the code generator: a process
that serves only fused requests never imports
:mod:`repro.core.compiled_backend` or :mod:`repro.core.codegen_c`.

The probe finds a working C compiler (``$CC`` wins when set, otherwise
``cc``/``gcc``/``clang`` from PATH) and a flag set that produces a
loadable shared object, test-compiling a tiny probe once per
``($CC, $PATH)``.  No compiler or no cffi -> :func:`compiled_available`
is False and the engine falls back to the fused numpy path (recorded in
metrics) instead of failing.
"""

from __future__ import annotations

import os
import shlex
import shutil
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path


class CompilerUnavailableError(RuntimeError):
    """No working C toolchain (or no cffi); the engine falls back."""


class CodeletBuildError(RuntimeError):
    """Compiling generated codelet source failed (toolchain regressed
    after the probe, disk full, ...); absorbed by the fallback chain."""


#: No -ffast-math (value-changing rewrites stay off), but FMA
#: contraction is allowed: results remain deterministic across runs
#: (same translation unit, fixed per-output arithmetic order), they just
#: round differently from the numpy paths in the last bits -- well
#: inside differential-test tolerance, and the contracted stage-2 kernel
#: is ~2x the mul+add one.
BASE_FLAGS = ("-O3", "-fPIC", "-shared", "-std=c11", "-ffp-contract=fast")
_NATIVE_FLAG = "-march=native"

#: The probe exercises the GNU vector extensions the emitters rely on
#: (gcc and clang both support them); a compiler without them fails the
#: probe and the engine falls back instead of failing mid-build.
_PROBE_SOURCE = """\
typedef float v4f __attribute__((vector_size(16), aligned(4), may_alias));
int repro_probe(void) {
  float buf[4] = {40.0f, 2.0f, 0.0f, 0.0f};
  v4f a = *(const v4f*)buf;
  a += 1.0f * a - a;
  return (int)(a[0] + a[1]);
}
"""


@dataclass(frozen=True)
class Toolchain:
    """A probed compiler invocation: argv prefix + validated flags."""

    argv: tuple[str, ...]
    flags: tuple[str, ...]


def find_compiler() -> tuple[str, ...] | None:
    """Compiler argv prefix, honoring ``$CC`` strictly.

    When ``CC`` is set it is used even if broken (so ``CC=/bin/false``
    deterministically masks the toolchain for fallback tests); otherwise
    the conventional names are searched on PATH.
    """
    cc = os.environ.get("CC")
    if cc is not None:
        argv = tuple(shlex.split(cc))
        return argv or None
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return (path,)
    return None


def _have_cffi() -> bool:
    try:
        import cffi  # noqa: F401
    except ImportError:  # pragma: no cover - cffi is in the image
        return False
    return True


def run_compiler(argv, flags, src: Path, out: Path) -> tuple[bool, str]:
    """Compile ``src`` into ``out``; ``(ok, error text)``."""
    import subprocess  # only a probe miss or a build runs a compiler

    cmd = [*argv, *flags, str(src), "-o", str(out)]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return False, f"{type(exc).__name__}: {exc}"
    if res.returncode != 0 or not out.exists():
        return False, (res.stderr or res.stdout or "")[-2000:]
    return True, ""


def _probe_dlopen(path: Path) -> bool:
    import cffi

    try:
        ffi = cffi.FFI()
        ffi.cdef("int repro_probe(void);")
        lib = ffi.dlopen(str(path))
        return lib.repro_probe() == 42
    except Exception:  # noqa: BLE001 - any failure means "not capable"
        return False


_PROBE_CACHE: dict[tuple[str | None, str | None], Toolchain | None] = {}
_PROBE_LOCK = threading.Lock()


def probe_toolchain() -> Toolchain | None:
    """Find (and cache) a compiler + flag set that builds a loadable
    shared object; ``None`` when the host has no usable toolchain.

    Cached per ``($CC, $PATH)``, so changing either re-probes without an
    explicit cache clear, while a hit resolves no compiler (no PATH
    walk per request).  ``-march=native`` is kept only when the probe
    compile accepts it.
    """
    key = (os.environ.get("CC"), os.environ.get("PATH"))
    with _PROBE_LOCK:
        if key in _PROBE_CACHE:
            return _PROBE_CACHE[key]
    argv = find_compiler()
    tc: Toolchain | None = None
    if argv is not None and _have_cffi():
        with tempfile.TemporaryDirectory(prefix="repro-cc-probe-") as td:
            src = Path(td) / "probe.c"
            out = Path(td) / "probe.so"
            src.write_text(_PROBE_SOURCE)
            for flags in ((*BASE_FLAGS, _NATIVE_FLAG), BASE_FLAGS):
                ok, _ = run_compiler(argv, flags, src, out)
                if ok and _probe_dlopen(out):
                    tc = Toolchain(argv=argv, flags=flags)
                    break
    with _PROBE_LOCK:
        _PROBE_CACHE[key] = tc
    return tc


def compiled_available() -> bool:
    """True when the compiled backend can build and load codelets."""
    return probe_toolchain() is not None


def clear_probe_cache() -> None:
    """Forget every probe verdict (tests / cold-start benchmarks)."""
    with _PROBE_LOCK:
        _PROBE_CACHE.clear()
