"""A serving process imports only the code its plans run.

The reproduction modules -- the machine model and its simulators, the
Table-1 executor, the JIT GEMM, the Sec. 4.5 thread runtime, the
baselines the portfolio does not pick -- stay out of a process that
serves a fused graph; a compiled graph adds the compiled backend and
its code generator, and nothing of the cost model; the ``serve`` CLI
loads neither.  Each case runs in a fresh interpreter and reads its
``sys.modules``.

The lazy packages (``repro.core``, ``repro.machine``,
``repro.baselines``) must still resolve every re-exported name.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.compiled_backend import compiled_available

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules no fused-graph process may load.
FUSED_FORBIDDEN = (
    [f"repro.machine.{m}" for m in ("cost", "vector", "cache", "memory", "trace")]
    + [f"repro.core.{m}" for m in (
        "codegen_c", "compiled_backend", "codelets", "jit_gemm",
        "blocked_pipeline", "parallel_convolution", "parallel", "stages",
        "scheduling", "layout", "nested", "autotune", "pointsearch",
        "tile_selection", "complexity",
    )]
    + [f"repro.baselines.{m}" for m in ("fft", "direct", "im2col", "gpu", "vendor", "ours")]
)

#: What a compiled graph may add to the fused set.
COMPILED_ALLOWED = {
    "repro.core.compiled_backend", "repro.core.codegen_c",
    "repro.core.codelets", "repro.core.autotune",
}

_RUN_GRAPH = """
import numpy as np
from repro.core.engine import ConvolutionEngine
from repro.graph import GraphExecutor, {builder}

graph = {builder}(batch=1)
engine = ConvolutionEngine(backend={backend!r})
(shape,) = graph.inputs.values()
GraphExecutor(graph, engine).run(np.ones(shape, np.float32))
assert engine.metrics.counter_value("engine.fallbacks") == 0
"""

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def _loaded_after(code: str, tmp_path) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ, REPRO_CODELET_CACHE=str(tmp_path / "codelets"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run_graph(builder: str, backend: str, tmp_path) -> list[str]:
    return _loaded_after(_RUN_GRAPH.format(builder=builder, backend=backend), tmp_path)


def test_fused_graph_loads_no_reproduction_module(tmp_path):
    modules = _run_graph("graph_scaled_vgg", "fused", tmp_path)
    loaded = sorted(set(FUSED_FORBIDDEN) & set(modules))
    assert loaded == [], f"a fused VGG-s run imported {loaded}"


@pytest.mark.skipif(not compiled_available(), reason="no C toolchain/cffi on this host")
def test_compiled_graph_adds_only_the_compiled_backend(tmp_path):
    modules = _run_graph("graph_scaled_c3d", "compiled", tmp_path)
    forbidden = set(FUSED_FORBIDDEN) - COMPILED_ALLOWED
    loaded = sorted(forbidden & set(modules))
    assert loaded == [], f"a compiled C3D-s run imported {loaded}"
    assert "repro.core.compiled_backend" in modules


def test_serve_cli_loads_no_reproduction_module(tmp_path):
    """``python -m repro serve`` is a serving process too: the CLI
    imports the benchmark-only baselines and the autotuner in the
    subcommands that use them."""
    modules = _loaded_after("import repro.cli, repro.serve", tmp_path)
    loaded = sorted(set(FUSED_FORBIDDEN) & set(modules))
    assert loaded == [], f"the serve CLI imported {loaded}"


LAZY_PACKAGES = ("repro.core", "repro.machine", "repro.baselines")


@pytest.mark.parametrize("package,name", [
    (package, name)
    for package in LAZY_PACKAGES
    for name in importlib.import_module(package).__all__
])
def test_lazy_package_resolves_every_export(package, name):
    pkg = importlib.import_module(package)
    value = getattr(pkg, name)
    assert vars(pkg)[name] is value  # cached: later reads are plain lookups
    assert name in dir(pkg)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_rejects_unknown_names(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018
    assert not hasattr(pkg, "no_such_name")
