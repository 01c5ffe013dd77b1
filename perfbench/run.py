"""Benchmark of the convolution engine through its public APIs.

    python3 perfbench/run.py --workload vgg-b8 --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``BENCHMARK.json`` there lists the
workloads (and why each is in the benchmark) and every metric's name and
unit.  ``--trace 0`` measures the end-to-end metrics with the program as
shipped; ``--trace 1`` is a separate run that reports the per-layer
metrics, the model's prediction beside each conv node and stage, and
what tracing cost.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs ``graph_worker.py`` in ``PROCESSES`` fresh processes,
one after the other.  Each sets up cold -- portfolio probes and codelet
build included, against an empty ``REPRO_CODELET_CACHE`` owned by the
run -- and times its share of the run.  ``setup_s`` and ``peak_rss_mb``
are medians over the processes, ``latency_p50_ms`` the median of all
their runs and ``throughput_ips`` the median of their rates over
``WINDOW_S``-second windows.  The workloads have no latency limit, so
``slo_met_share`` is the share of operations whose output was verified.

The seed drives weights and inputs.  Scratch files go to ``.bench_work/``
under the root, span traces to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import graph_worker
from stats import WINDOW_S, busy_rates, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh worker processes per graph run.  Each sets up cold (one
#: ``setup_s`` sample) and times an equal share of ``--seconds``, so one
#: run spans several processes and several portfolio decisions.
PROCESSES = 5
#: Largest accepted max|out - oracle| / max|oracle| for fp32 Winograd.
ORACLE_RTOL = 1e-4
#: BLAS threads of the measured processes: on a two-core host a second
#: BLAS thread per GEMM made runs slower and their spread wider.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}
#: Wall-clock budget of one run, seconds.
BUDGET_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(workdir: Path, index: int) -> dict:
    """Environment of a child process: the source tree on the path, one
    BLAS thread, and temporary files and codelet builds in fresh
    directories of the run."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULT"}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for key, sub in (("TMPDIR", "tmp"), ("REPRO_CODELET_CACHE", "codelets")):
        path = workdir / f"{sub}-{index}"
        path.mkdir(parents=True)
        env[key] = str(path)
    return env


def run_graph(args, workdir: Path, trace_out: Path, deadline: float) -> dict:
    n = 1 if args.trace else PROCESSES
    samples = []
    for i in range(n):
        firsts = workdir / f"firsts-{i}.npz"
        cmd = [
            sys.executable, str(HERE / "graph_worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / n),
            "--mode", "trace" if args.trace else "time",
            "--firsts-out", str(firsts), "--trace-out", str(trace_out),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(workdir, i), stdout=subprocess.PIPE,
                text=True, timeout=deadline - time.monotonic(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker ran out of time") from exc
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        samples.append(json.loads(lines[-1]))
        print("portfolio decisions (node/algorithm/source):",
              ", ".join("/".join(d) for d in samples[-1]["decisions"]))
    graph = graph_worker.make_graph(args.workload, args.seed)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples) + oracle_failures(
        graph, args.seed, [workdir / f"firsts-{i}.npz" for i in range(n)]
    )
    out = {"attempted": attempted, "failed": failed}
    if args.trace:
        out["per_layer"] = samples[0]["per_layer"]
        return out
    batch = next(iter(graph.inputs.values()))[0]
    latencies = [lat * 1e3 for s in samples for lat in s["latencies"]]
    print(percentile(latencies, 95).describe())
    print("setup_s samples:", ", ".join(f"{s['setup_s']:.4f}" for s in samples))
    out.update(
        setup_s=float(np.median([s["setup_s"] for s in samples])),
        throughput_ips=float(np.median([
            rate for s in samples
            for rate in busy_rates(s["starts"], s["latencies"], batch, WINDOW_S)
        ])),
        latency_p50_ms=percentile(latencies, 50).value,
        slo_met_share=(attempted - failed) / attempted,
        peak_rss_mb=float(np.median([s["peak_rss_mb"] for s in samples])),
    )
    return out


def oracle_failures(graph, seed: int, paths) -> int:
    """Check every worker's first outputs against the float64 oracle.

    It runs here, not in the workers, so it stays out of their
    ``peak_rss_mb``.
    """
    from repro.graph import oracle_execute

    pool = graph_worker.make_pool(graph, seed)
    refs = [next(iter(oracle_execute(graph, x).values())) for x in pool]
    failed = 0
    for path in paths:
        with np.load(path) as saved:
            outs = [saved[f"arr_{k}"] for k in range(len(refs))]
        for out, ref in zip(outs, refs):
            err = float(np.abs(out - ref).max() / np.abs(ref).max())
            if not err <= ORACLE_RTOL:
                print(f"oracle mismatch: relative error {err:.3e} > {ORACLE_RTOL}")
                failed += 1
    return failed


def provenance(seed: int) -> dict:
    """Where the numbers come from: the shared benchmark header plus the
    seed, the BLAS thread setting of the measured processes and a digest
    of the source tree (the checkout the benchmark runs in need not be a
    git repository)."""
    # Stop git's repository search at the root: a checkout that is not a
    # repository reports an unknown SHA instead of a parent's.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        **conftest.make_bench_header(),
        "seed": seed,
        "blas_threads": BLAS_ENV,
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))

    deadline = time.monotonic() + BUDGET_S
    print("provenance:", json.dumps(provenance(args.seed)))
    work = ROOT / ".bench_work"
    workdir = work / f"run-{os.getpid()}"
    trace_out = work / "traces" / f"{args.workload}-seed{args.seed}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    try:
        result = run_graph(args, workdir, trace_out, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        print(f"spans written to {trace_out.relative_to(ROOT)}")

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["per_layer"] if args.trace else result
    unlisted = set(result.get("per_layer", {})) - {m["name"] for m in listed}
    if unlisted:
        print("measured but not listed in BENCHMARK.json:", ", ".join(sorted(unlisted)))
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    for name, m in metrics.items():
        print(f"  {name:<36}{m['value']:>14.6g} {m['unit']}")
    print(f"operations: attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
