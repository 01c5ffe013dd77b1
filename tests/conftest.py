"""Suite-wide fixtures: a compiled-backend codelet build that fails.

The engine's one fallback edge, ``compiled -> fused``, is taken mid-request
when the host has a working toolchain but compiling a plan's codelets
fails.  ``failing_codelet_build`` produces exactly that state: the
toolchain probe is warmed with the real compiler first (so requests reach
the build instead of the up-front no-toolchain reroute), the library memo
and the disk build cache start empty, and every later compiler run fails.
The fixture yields the list of failed compiler runs, one entry per run.
"""

import pytest

from repro.core import compiled_backend


@pytest.fixture
def failing_codelet_build(monkeypatch, tmp_path):
    compiled_backend.clear_compiled_caches()
    if not compiled_backend.compiled_available():
        pytest.skip("no C toolchain/cffi on this host")
    monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path / "codelets"))
    runs = []

    def fail(argv, flags, src, out):
        runs.append(src)
        return False, "injected codelet build failure"

    monkeypatch.setattr(compiled_backend, "run_compiler", fail)
    yield runs
    compiled_backend.clear_compiled_caches()
