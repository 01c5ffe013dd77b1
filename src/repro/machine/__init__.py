"""Simulated manycore-machine substrate.

The paper's evaluation hardware (Intel Xeon Phi 7210 "Knights Landing"
and an Nvidia Titan X Pascal) is modelled here: machine specifications,
an in-order-issue vector-pipeline simulator, a set-associative cache
simulator, a bandwidth/TLB memory model, and the roofline-style cost
composition that converts algorithm descriptions into predicted runtimes.

All Fig. 5 / Fig. 6 "runtimes" in this reproduction are produced by these
models; wall-clock timings of the real numpy execution are reported
separately and never mixed with modelled times.  The names below import
their submodule on first access, so a process that needs only the
machine specs does not load the simulators.
"""

from repro.util.lazy import lazy_exports

_EXPORTS = {
    "MachineSpec": "spec",
    "KNL_7210": "spec",
    "TITAN_X_PASCAL": "spec",
    "XEON_E7_8890": "spec",
    "CacheSim": "cache",
    "CacheStats": "cache",
    "MemoryModel": "memory",
    "TlbModel": "memory",
    "DEFAULT_PROFILE": "profiles",
    "PROFILES": "profiles",
    "get_profile": "profiles",
    "list_profiles": "profiles",
    "Instr": "trace",
    "InstrKind": "trace",
    "PipelineResult": "vector",
    "simulate_pipeline": "vector",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
