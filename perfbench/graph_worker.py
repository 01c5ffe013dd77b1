"""One graph workload in one fresh process: set up, then time or trace.

``run.py`` starts several of these per run, so every set-up is a cold
process: imports, graph build, engine, planning (and, under
``algorithm="auto"``, the portfolio probes), codelet build and the first
run.  A worker prints report lines and, last, one JSON object, and
writes the first output for each pool input to ``--firsts-out`` for
``run.py`` to check against the float64 oracle.

Modes:

* ``time`` -- set up, then a closed loop of ``GraphExecutor.run`` for
  ``--seconds`` with the program as shipped (engine tracer on, nothing
  wrapped);
* ``trace`` -- set up, then the same loop with every other run traced:
  the benchmark opens its own spans on the engine's tracer around
  ``GraphExecutor.run`` and around each ``engine.run`` call, drains the
  tracer after every run and derives the per-layer metrics; the
  untraced runs between them give the tracing overhead.

Every timed output is checked bitwise against the first output for the
same input.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from stats import covered, percentile, self_time

#: The core the worker runs on; the other is left to the rest of the
#: host.
WORKER_CPU = max(os.sched_getaffinity(0))
#: Distinct seeded inputs the closed loop rotates through.
POOL = 4
#: Cost-model stage names, by reported stage name.
MODEL_STAGES = {
    "input_transform": "input_transform",
    "gemm": "gemm",
    "output_transform": "inverse_transform",
}
#: Stage spans the fused and compiled backends emit: (backend, stage).
STAGE_SPANS = {
    f"{backend}.stage{i}": (backend, stage)
    for backend in ("fused", "compiled")
    for i, stage in enumerate(MODEL_STAGES, start=1)
}


def make_graph(workload: str, seed: int):
    """The seeded graph of ``workload``; imports ``repro`` on first use."""
    from repro.graph import graph_scaled_c3d, graph_scaled_vgg, residual_block

    if workload == "vgg-b8":
        return graph_scaled_vgg(batch=8, seed=seed)
    if workload == "c3d-compiled":
        return graph_scaled_c3d(batch=8, seed=seed)
    if workload == "bottleneck-auto":
        return residual_block(c=64, size=32, batch=1, kind="bottleneck", seed=seed)
    raise ValueError(f"unknown graph workload {workload!r}")


#: Engine settings per graph workload; everything else is the default.
ENGINES = {
    "vgg-b8": {"backend": "fused"},
    "c3d-compiled": {"backend": "compiled"},
    "bottleneck-auto": {"algorithm": "auto"},
}


def make_pool(graph, seed: int) -> list[np.ndarray]:
    (shape,) = graph.inputs.values()
    rng = np.random.default_rng([seed, 1])
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(POOL)]


def closed_loop(executor, pool, firsts, seconds, after_run=None):
    """One caller, next run only after the last returned.

    Returns one ``(start offset, latency, CPU seconds)`` triple per
    attempted run, latency ``None`` for a run that raised, and the number
    of runs that failed: raised, or returned an output that differs in
    any bit from the first output for the same input.
    """
    runs: list[tuple] = []
    failed = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        k = len(runs) % len(pool)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            (out,) = executor.run(pool[k]).values()
            t1, cpu1 = time.perf_counter(), time.process_time()
            runs.append((t0 - begin, t1 - t0, cpu1 - cpu0))
            failed += not np.array_equal(out, firsts[k])
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            traceback.print_exc()
            runs.append((t0 - begin, None, None))
            failed += 1
        if after_run is not None:
            after_run()
    return runs, failed


def layer_specs(graph, plan):
    """``ConvLayerSpec`` of every conv node, in plan order."""
    from repro.nets.layers import ConvLayerSpec

    specs = {}
    for p in plan.conv_plans:
        node = graph.node(p.name)
        shape = plan.shapes[node.inputs[0]]
        w = node.attrs["weights"]
        specs[p.name] = ConvLayerSpec(
            network=graph.name, name=p.name, batch=shape[0], c_in=shape[1],
            c_out=w.shape[1], image=tuple(shape[2:]),
            padding=tuple(node.attrs["padding"]), kernel=tuple(w.shape[2:]),
        )
    return specs


def model_rows(graph, plan, engine) -> dict[str, dict]:
    """The machine model's prediction and computed operation counts per
    conv node; Winograd nodes also get per-stage predictions."""
    from repro.core.complexity import winograd_counts
    from repro.core.engine import default_parallel_blocking
    from repro.machine.cost import WinogradCostModel, predict_algorithm_seconds

    machine = engine.machine
    used = {(k.input_shape, k.c_out): k.spec for k in engine.plans.keys()
            if k.spec is not None}
    rows = {}
    for name, layer in layer_specs(graph, plan).items():
        algo = plan.node_plans[name].algorithm
        fmr = None
        if algo == "winograd":
            shape = (layer.batch, layer.c_in) + layer.image
            fmr = used[(shape, layer.c_out)]
        row = {
            "algorithm": algo,
            "fmr": str(fmr) if fmr is not None else "-",
            "predicted_s": predict_algorithm_seconds(algo, layer, machine, fmr=fmr),
            "stages_s": {},
            "ops": 0.0,
        }
        if fmr is not None:
            blocking = default_parallel_blocking(
                layer.c_in, layer.c_out, machine.vector_width
            )
            cost = WinogradCostModel(machine).layer_cost(
                layer, fmr, blocking, transform_kernels=False
            )
            row["stages_s"] = {
                stage: cost.stage(model_name).seconds
                for stage, model_name in MODEL_STAGES.items()
            }
            # Operations a run performs: the kernel transform is memoized,
            # and it is the only term of winograd_counts that does not
            # grow with the batch.
            per_image = (
                winograd_counts(replace(layer, batch=2), fmr).total
                - winograd_counts(replace(layer, batch=1), fmr).total
            )
            row["ops"] = per_image * layer.batch
        rows[name] = row
    return rows


def run_breakdown(spans, algorithms: dict[str, str]) -> dict[str, float]:
    """Per-layer seconds of one traced graph run, from its span tree."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent_id].append(s)

    def below(span):
        stack, found = list(kids[span.span_id]), []
        while stack:
            s = stack.pop()
            found.append(s)
            stack.extend(kids[s.span_id])
        return found

    (root,) = [s for s in spans if s.name == "bench.graph.run"]
    convs = [s for s in kids[root.span_id] if s.name == "bench.engine.run"]
    row: dict[str, float] = defaultdict(float)
    row["graph.self"] = self_time(
        root.start, root.end, [(s.start, s.end) for s in convs]
    )
    for s in convs:
        node = s.attrs["node"]
        sub = below(s)
        execs = [(d.start, d.end) for d in sub if d.name.startswith("execute.")]
        row[f"engine.run.{node}"] += s.duration
        row[f"engine.dispatch.{node}"] += self_time(s.start, s.end, execs)
        row[f"portfolio.execute.{algorithms[node]}"] += covered(s.start, s.end, execs)
        for d in sub:
            if d.name in STAGE_SPANS:
                backend, stage = STAGE_SPANS[d.name]
                row[f"{backend}.{stage}"] += d.duration
                row[f"stage.{stage}.{node}"] += d.duration
    row["obs.spans"] = sum(1 for s in spans if not s.name.startswith("bench."))
    return row


def span_dicts(spans, request) -> list[dict]:
    return [
        {
            "name": s.name, "id": s.span_id, "parent": s.parent_id,
            "start": s.start, "end": s.end, "request": request,
            "attrs": s.attrs,
        }
        for s in spans
    ]


def median_us(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


class Instrumentation:
    """Benchmark spans on the engine's tracer around ``GraphExecutor.run``
    and each ``engine.run`` call (mapped to its node by weights
    identity), switched on and off between runs."""

    def __init__(self, executor, engine, graph):
        self.executor, self.engine = executor, engine
        self.active = False
        tracer = engine.tracer
        nodes = {
            id(graph.node(p.name).attrs["weights"]): p.name
            for p in executor.plan.conv_plans
        }
        graph_run, engine_run = executor.run, engine.run

        def traced_graph_run(feeds):
            with tracer.span("bench.graph.run"):
                return graph_run(feeds)

        def traced_engine_run(images, kernels, **kwargs):
            with tracer.span("bench.engine.run", node=nodes.get(id(kernels), "?")):
                return engine_run(images, kernels, **kwargs)

        self._wrappers = traced_graph_run, traced_engine_run

    def toggle(self) -> None:
        if self.active:
            del self.executor.run, self.engine.run
        else:
            self.executor.run, self.engine.run = self._wrappers
        self.active = not self.active


def trace_metrics(graph, executor, engine, pool, firsts, seconds, trace_out):
    """The traced run: per-layer metrics and how much tracing costs.

    Set-up figures come from the spans and metrics set-up left behind.
    """
    from repro.core.engine import kernel_fingerprint
    from repro.graph import eval_node

    plan = executor.plan
    tracer = engine.tracer
    metrics = engine.metrics
    algorithms = {p.name: p.algorithm for p in plan.conv_plans}
    batch = next(iter(graph.inputs.values()))[0]
    setup_spans = tracer.spans()
    before = metrics.snapshot()
    counters, hist = before["counters"], before["histograms"]
    (plan_span,) = [s for s in setup_spans if s.name == "bench.graph.plan"]
    probes = [(s.start, s.end) for s in setup_spans if s.name == "portfolio.probe"]
    m: dict[str, float] = {
        "graph.plan_ms": self_time(plan_span.start, plan_span.end, probes) * 1e3,
        "portfolio.probe_s": hist.get("portfolio.probe_seconds", {}).get("total", 0.0),
        "compiled.build_s": hist.get("codelet_compile.seconds", {}).get("total", 0.0),
        "compiled.builds": counters.get("codelet_compile.builds", 0),
        "compiled.disk_hits": counters.get("codelet_compile.disk_hits", 0),
    }

    # Traced and untraced runs alternate, so both see the same host.
    tracing = Instrumentation(executor, engine, graph)
    rows, records, flags = [], span_dicts(setup_spans, "setup"), []

    def alternate():
        spans = tracer.spans()
        tracer.clear()
        if tracing.active:
            rows.append(run_breakdown(spans, algorithms))
            records.extend(span_dicts(spans, len(rows)))
        flags.append(tracing.active)
        tracing.toggle()

    runs, failed = closed_loop(executor, pool, firsts, seconds, alternate)
    if tracing.active:
        tracing.toggle()
    done = [(run, traced) for run, traced in zip(runs, flags) if run[1] is not None]
    untraced = [run for run, traced in done if not traced]
    traced = [run[1] for run, traced in done if traced]
    delta_c = {
        k: v - before["counters"].get(k, 0)
        for k, v in metrics.snapshot()["counters"].items()
    }
    Path(trace_out).write_text(json.dumps({"spans": records}, default=str))

    def med(key: str) -> float:
        return float(np.median([r.get(key, 0.0) for r in rows])) if rows else 0.0

    def ratio(hit: str, miss: str) -> float:
        hits, misses = delta_c.get(hit, 0), delta_c.get(miss, 0)
        return hits / (hits + misses) if hits + misses else 0.0

    graph_runs = max(1, delta_c.get("graph.runs", 0))
    model = model_rows(graph, plan, engine)
    m |= {
        "graph.self_ms": med("graph.self") * 1e3,
        "graph.fused_epilogues": delta_c.get("graph.fused_epilogues", 0) / graph_runs,
        "graph.interlayer_copies": (
            delta_c.get("graph.interlayer_copies", 0) / graph_runs
        ),
        "engine.plan_hit_ratio": ratio("plan_cache.hits", "plan_cache.misses"),
        "engine.kernel_hit_ratio": ratio(
            "plan_cache.kernel_hits", "plan_cache.kernel_misses"
        ),
        "engine.fallbacks": delta_c.get("engine.fallbacks", 0),
        "obs.spans_per_run": med("obs.spans"),
        "host.cpu_ms_per_image": sum(r[2] for r in untraced) / len(untraced) / batch * 1e3,
    }
    rng = np.random.default_rng(0)
    for node in plan.order:
        if node.op != "conv" and node.name not in plan.folded_into:
            operands = [
                rng.standard_normal(plan.shapes[t]).astype(np.float32)
                for t in node.inputs
            ]
            m[f"graph.node_ms.{node.name}"] = median_us(
                lambda: eval_node(node, operands), 20
            ) / 1e3
    for name, row in model.items():
        weights = graph.node(name).attrs["weights"]
        measured_ms = med(f"engine.run.{name}") * 1e3
        m[f"engine.run_ms.{name}"] = measured_ms
        m[f"engine.dispatch_us.{name}"] = med(f"engine.dispatch.{name}") * 1e6
        m[f"engine.fingerprint_us.{name}"] = median_us(
            lambda: kernel_fingerprint(weights), 50
        )
        m[f"model.predicted_ms.{name}"] = row["predicted_s"] * 1e3
        m[f"model.ratio.{name}"] = measured_ms / (row["predicted_s"] * 1e3)
    for algo in set(algorithms.values()):
        m[f"portfolio.nodes.{algo}"] = sum(a == algo for a in algorithms.values())
        m[f"portfolio.execute_ms.{algo}"] = med(f"portfolio.execute.{algo}") * 1e3
    ops = sum(row["ops"] for row in model.values())
    for backend in ("fused", "compiled"):
        stage_s = 0.0
        for stage in MODEL_STAGES:
            stage_s += med(f"{backend}.{stage}")
            m[f"{backend}.{stage}_ms"] = med(f"{backend}.{stage}") * 1e3
        m[f"{backend}.gflops"] = ops / stage_s / 1e9 if stage_s else 0.0
    for stage in MODEL_STAGES:
        m[f"model.predicted_ms.{stage}"] = 1e3 * sum(
            row["stages_s"].get(stage, 0.0) for row in model.values()
        )
    p50_u = percentile([r[1] for r in untraced], 50).value * 1e3
    p50_t = percentile(traced, 50).value * 1e3
    m["obs.untraced_p50_ms"] = p50_u
    m["obs.traced_p50_ms"] = p50_t
    m["obs.trace_overhead_share"] = p50_t / p50_u - 1

    stage_ms = {
        (name, stage): med(f"stage.{stage}.{name}") * 1e3
        for name in model for stage in MODEL_STAGES
    }
    print_model_table(engine.machine.name, model, m, stage_ms)
    return m, len(runs), failed


def print_model_table(machine: str, model, m, stage_ms) -> None:
    """Each conv node and each of its Winograd stages: the measured
    median per run beside the machine model's prediction."""
    print(f"measured beside the machine model ({machine}); "
          "ops per run computed by winograd_counts")
    print(f"  {'node':<7}{'algorithm':<10}{'F(m,r)':<15}{'':<18}"
          f"{'measured ms':>12}{'model ms':>11}{'ratio':>8}{'ops':>11}")
    for name, row in model.items():
        ops = f"{row['ops']:.4g}" if row["ops"] else "-"
        print(f"  {name:<7}{row['algorithm']:<10}{row['fmr']:<15}{'engine.run':<18}"
              f"{m[f'engine.run_ms.{name}']:>12.4f}{row['predicted_s'] * 1e3:>11.4f}"
              f"{m[f'model.ratio.{name}']:>8.1f}{ops:>11}")
        for stage, predicted_s in row["stages_s"].items():
            measured = stage_ms[(name, stage)]
            print(f"  {'':<32}{stage:<18}{measured:>12.4f}{predicted_s * 1e3:>11.4f}"
                  f"{measured / (predicted_s * 1e3):>8.1f}")
    for stage in MODEL_STAGES:
        measured = m[f"fused.{stage}_ms"] + m[f"compiled.{stage}_ms"]
        predicted = m[f"model.predicted_ms.{stage}"]
        if predicted:
            print(f"  {'all':<32}{stage:<18}{measured:>12.4f}{predicted:>11.4f}"
                  f"{measured / predicted:>8.1f}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("time", "trace"), required=True)
    ap.add_argument("--firsts-out", required=True)
    ap.add_argument("--trace-out", required=True)
    args = ap.parse_args()

    os.sched_setaffinity(0, {WORKER_CPU})
    t0 = time.perf_counter()
    from repro.core.engine import ConvolutionEngine
    from repro.graph import GraphExecutor

    graph = make_graph(args.workload, args.seed)
    engine = ConvolutionEngine(**ENGINES[args.workload])
    tracing = args.mode == "trace"
    with engine.tracer.span("bench.graph.plan") if tracing else nullcontext():
        executor = GraphExecutor(graph, engine)
    pool = make_pool(graph, args.seed)
    (first,) = executor.run(pool[0]).values()
    setup_s = time.perf_counter() - t0
    firsts = [first] + [next(iter(executor.run(x).values())) for x in pool[1:]]
    np.savez(args.firsts_out, *firsts)
    result: dict = {
        "setup_s": setup_s,
        "decisions": [[p.name, p.algorithm, p.source] for p in executor.plan.conv_plans],
    }
    attempted, failed = len(firsts), 0

    if args.mode == "time":
        runs, fail = closed_loop(executor, pool, firsts, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["starts"] = [start for start, lat, _ in runs if lat is not None]
        result["latencies"] = [lat for _, lat, _ in runs if lat is not None]
        attempted += len(runs)
        failed += fail
    else:
        result["per_layer"], att, fail = trace_metrics(
            graph, executor, engine, pool, firsts, args.seconds, args.trace_out
        )
        attempted += att
        failed += fail
    engine.close()
    result.update(attempted=attempted, failed=failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
