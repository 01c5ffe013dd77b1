"""Re-exports that import their submodule on first access (PEP 562).

A package that re-exports names from many submodules would otherwise
import every one of them the moment any submodule is imported -- a
serving process that runs one fused request would load the machine
simulators, the JIT GEMM and the code generator with it.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each re-exported name to the submodule (relative to
    ``package``) that defines it.  The first access imports that
    submodule and caches the value on the package, so later accesses
    are plain attribute reads.
    """

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
