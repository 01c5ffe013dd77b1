"""Command-line interface mirroring the paper's artifact workflow.

The original artifact (appendix A.5) drives everything through bash
scripts: ``bench_xeon_7210_specific.sh`` (pre-tuned layer benchmarks
producing ``measurements.csv``), ``bench_exhaustive.sh $CORES $MEMORY``
(full parameter search) and ``measure_accuracy.sh`` (an ASCII accuracy
table).  This CLI reproduces those entry points::

    python -m repro bench [--exhaustive] [--network VGG] [-o measurements.csv]
    python -m repro accuracy [--net VGG|C3D|both]
    python -m repro gemm
    python -m repro tune --network VGG --layer 4.2 --fmr "F(4x4,3x3)"
    python -m repro serve --listen 127.0.0.1:8765 --backend compiled --stats
    python -m repro run --network VGG --layer 3.2 --backend compiled --check
    python -m repro info

All performance numbers are from the simulated machine substrate and
are labelled as such; ``accuracy`` is a real float32 measurement, and
``run`` reports real wall-clock latency through the execution engine.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.engine import BACKENDS as ENGINE_BACKENDS
from repro.core.portfolio import ALGORITHMS as ENGINE_ALGORITHMS
from repro.core.fmr import FmrSpec
from repro.machine.profiles import list_profiles, profile_fingerprints
from repro.machine.spec import KNL_7210
from repro.nets.layers import TABLE2_LAYERS, get_layer
from repro.util.wisdom import Wisdom


def _print_table(headers, rows, file=None):
    from repro.util.reporting import format_table

    # Resolve stdout at call time (default-argument binding would freeze
    # the stream at import and break output capture/redirection).
    print(format_table(headers, rows), file=file if file is not None else sys.stdout)


# ----------------------------------------------------------------------
# Observability helpers shared by ``serve`` and ``run``
# ----------------------------------------------------------------------
def _stage_spans(tracer):
    """Stage-level spans in completion order (``<backend>.stage<n>``)."""
    return [
        s for s in tracer.spans()
        if "." in s.name and s.name.split(".", 1)[1].startswith("stage")
    ]


def _print_run_stats(stats, tracer) -> None:
    """The always-on ``run`` stats block: fallbacks + per-stage timings."""
    events = tracer.spans("fallback")
    detail = "".join(
        f" ({e.attrs['source']}->{e.attrs['target']} on {e.attrs['error']})"
        for e in events
    )
    print("--- stats ---")
    print(f"fallbacks: {int(stats['fallbacks'])}{detail}")
    print("stage timings (ms):")
    for s in _stage_spans(tracer):
        flag = f"  [failed: {s.attrs['error']}]" if "error" in s.attrs else ""
        print(f"  {s.name:<15s}: {s.duration * 1e3:9.3f}{flag}")


def _print_metrics_snapshot(stats) -> None:
    import json

    print("--- metrics ---")
    print(json.dumps(stats["metrics"], indent=2, sort_keys=True, default=str))


def _write_trace(tracer, path) -> None:
    with open(path, "w") as f:
        f.write(tracer.to_json(indent=2))
        f.write("\n")
    print(f"trace written to  : {path}", file=sys.stderr)


# ----------------------------------------------------------------------
def cmd_bench(args) -> int:
    from repro.baselines import (
        BaselineCrash,
        CudnnFft3D,
        CudnnImplicitGemm,
        CudnnWinograd2D,
        OursWinograd,
        UnsupportedLayer,
        falcon,
        libxsmm_winograd,
        mkldnn_direct,
        mkldnn_winograd,
        zlateski_direct,
    )
    from repro.core.autotune import DEFAULT_N_BLK_VALUES

    wisdom = Wisdom()
    if args.wisdom:
        try:
            wisdom = Wisdom.load(args.wisdom)
        except (FileNotFoundError, ValueError):
            pass
    layers = [l for l in TABLE2_LAYERS if not args.network or l.network == args.network]
    if not layers:
        print(f"error: no layers in network {args.network!r}", file=sys.stderr)
        return 2
    n_blk = tuple(range(6, 31)) if args.exhaustive else DEFAULT_N_BLK_VALUES

    rows = []
    t0 = time.perf_counter()
    for layer in layers:
        tiles = [2, 4, 6] if layer.ndim == 2 else [2, 4]
        impls = [OursWinograd(m=m, wisdom=wisdom) for m in tiles]
        impls.append(OursWinograd(m=tiles[-1], wisdom=wisdom, inference_only=True))
        if layer.ndim == 2:
            impls += [falcon(), mkldnn_winograd(), libxsmm_winograd(),
                      CudnnWinograd2D()]
        else:
            impls += [CudnnImplicitGemm(), CudnnFft3D()]
        impls += [mkldnn_direct(), zlateski_direct()]
        for impl in impls:
            try:
                ms = impl.predicted_seconds(layer) * 1e3
                rows.append([layer.label, impl.name, f"{ms:.2f}", ""])
            except BaselineCrash:
                rows.append([layer.label, impl.name, "", "segfault"])
            except UnsupportedLayer:
                continue
        print(f"benchmarked {layer.label} "
              f"({time.perf_counter() - t0:.1f}s elapsed)", file=sys.stderr)
    headers = ["layer", "implementation", "time_ms[model]", "note"]
    _print_table(headers, rows)
    if args.output:
        with open(args.output, "w") as f:
            f.write(",".join(headers) + "\n")
            for r in rows:
                f.write(",".join(map(str, r)) + "\n")
        print(f"\nwrote {args.output}", file=sys.stderr)
    if args.wisdom:
        wisdom.save(args.wisdom)
    return 0


def cmd_accuracy(args) -> int:
    from repro.nets.accuracy import (
        C3D_ACCURACY_SURROGATE,
        C3D_SPECS,
        VGG_ACCURACY_SURROGATE,
        VGG_SPECS,
        measure_accuracy,
    )

    targets = []
    if args.net in ("VGG", "both"):
        targets.append(("VGG", VGG_ACCURACY_SURROGATE, VGG_SPECS))
    if args.net in ("C3D", "both"):
        targets.append(("C3D", C3D_ACCURACY_SURROGATE, C3D_SPECS))
    rows = []
    for name, layer, specs in targets:
        train = {r.algorithm: r.stats for r in measure_accuracy(layer, specs, "train")}
        infer = {r.algorithm: r.stats for r in measure_accuracy(layer, specs, "infer")}
        for algo in train:
            rows.append(
                [
                    name, algo,
                    f"{train[algo].max_error:.2E}", f"{train[algo].avg_error:.2E}",
                    f"{infer[algo].max_error:.2E}", f"{infer[algo].avg_error:.2E}",
                ]
            )
    _print_table(
        ["net", "algorithm", "train_max", "train_avg", "infer_max", "infer_avg"],
        rows,
    )
    return 0


def cmd_gemm(args) -> int:
    from repro.baselines.gemm_libs import FIG6_SHAPES, speedup_table

    rows = [
        [
            r["v_shape"], f"{r['ours_gflops']:.1f}", r["ours_n_blk"],
            f"{r['mkl_gflops']:.1f}", f"{r['libxsmm_gflops']:.1f}",
            f"{r['speedup_vs_mkl']:.2f}", f"{r['speedup_vs_libxsmm']:.2f}",
        ]
        for r in speedup_table(FIG6_SHAPES)
    ]
    _print_table(
        ["V_shape", "ours_GF[model]", "n_blk", "MKL_GF", "XSMM_GF",
         "vs_MKL", "vs_XSMM"],
        rows,
    )
    return 0


def cmd_tune(args) -> int:
    from repro.core.autotune import DEFAULT_N_BLK_VALUES, autotune_layer

    try:
        layer = get_layer(args.network, args.layer)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmr = FmrSpec.parse(args.fmr)
    wisdom = Wisdom()
    if args.wisdom:
        try:
            wisdom = Wisdom.load(args.wisdom)
        except (FileNotFoundError, ValueError):
            pass
    n_blk = tuple(range(6, 31)) if args.exhaustive else DEFAULT_N_BLK_VALUES
    result = autotune_layer(
        layer, fmr, KNL_7210, wisdom=wisdom, n_blk_values=n_blk
    )
    print(f"layer            : {layer.label}")
    print(f"F(m,r)           : {fmr}")
    print(f"candidates tried : {result.candidates_evaluated}")
    print(f"chosen blocking  : {result.blocking.describe()}")
    print(f"threads per core : {result.threads_per_core}")
    print(f"predicted [model]: {result.predicted_seconds * 1e3:.3f} ms")
    if args.wisdom:
        wisdom.save(args.wisdom)
        print(f"wisdom saved to  : {args.wisdom}")
    return 0


def cmd_select(args) -> int:
    """Recommend tile sizes for a layer (Sec. 5.1's analysis, automated)."""
    from repro.core.tile_selection import select_tile_size

    try:
        layer = get_layer(args.network, args.layer)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    choices = select_tile_size(layer, KNL_7210, mode=args.mode, top_k=args.top)
    rows = [
        [
            str(c.spec),
            f"{c.predicted_seconds * 1e3:.2f}",
            f"{c.multiplication_reduction:.2f}x",
            f"{c.padding_overhead * 100:.1f}%",
        ]
        for c in choices
    ]
    print(f"tile-size ranking for {layer.label} (mode={args.mode}):")
    _print_table(["F(m,r)", "time_ms[model]", "mult_reduction", "pad_waste"], rows)
    return 0


def cmd_analyze(args) -> int:
    """Per-stage utilization report for one layer."""
    from repro.machine.report import analyze_layer, render_report

    try:
        layer = get_layer(args.network, args.layer)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmr = FmrSpec.parse(args.fmr)
    _, stages, meta = analyze_layer(layer, fmr, KNL_7210)
    print(render_report(layer, fmr, KNL_7210, stages, meta))
    return 0


def cmd_serve(args) -> int:
    """``serve --listen``: the multi-tenant TCP front-end [real].

    Binds :class:`repro.serve.ConvServer` on ``HOST:PORT`` and serves
    the JSON-lines protocol (hello/register/infer/stats) until
    interrupted.  Same-shape requests from concurrent clients coalesce
    into batched engine dispatches; ``repro.serve.ServeClient`` is the
    matching client.
    """
    import asyncio

    from repro.core.engine import ConvolutionEngine
    from repro.serve import ConvServer, TenantQuota

    host, _, port_s = args.listen.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_s)
        if not 0 <= port <= 65535:
            raise ValueError(port)
    except ValueError:
        print(f"error: --listen expects HOST:PORT, got {args.listen!r}",
              file=sys.stderr)
        return 2
    quota = TenantQuota(
        max_pending=args.tenant_max_pending,
        max_plan_bytes=args.tenant_plan_mb << 20 if args.tenant_plan_mb else None,
    )
    engine = ConvolutionEngine(
        wisdom_path=args.wisdom, backend=args.backend,
        algorithm=args.algorithm, profile=args.profile,
    )

    async def _run() -> None:
        server = ConvServer(
            engine, host=host, port=port, max_batch=args.max_batch,
            window_ms=args.window_ms, max_pending=args.max_pending,
            default_quota=quota,
        )
        await server.start()
        print(f"serving on {server.host}:{server.port} "
              f"(backend={args.backend}, max_batch={args.max_batch}, "
              f"window={args.window_ms}ms); Ctrl-C to stop", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if args.stats:
            _print_metrics_snapshot(engine.stats())
        engine.close()
    return 0


def cmd_run(args) -> int:
    """One-shot convolution through a chosen engine backend [real].

    Runs a single scaled Table-2 layer once, prints the wall time and
    an output checksum, and with ``--check`` verifies the result
    against the direct-convolution reference oracle.
    """
    import numpy as np

    from repro.core.engine import ConvolutionEngine
    from repro.nets.reference import direct_convolution

    try:
        layer = get_layer(args.network, args.layer)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    layer = layer.scaled(
        batch=args.batch,
        channels_divisor=args.channels_divisor,
        image_divisor=args.image_divisor,
    )
    rng = np.random.default_rng(args.seed)
    images = rng.standard_normal(
        (layer.batch, layer.c_in) + layer.image
    ).astype(np.float32)
    kernels = (
        rng.standard_normal((layer.c_in, layer.c_out) + layer.kernel) * 0.05
    ).astype(np.float32)

    with ConvolutionEngine(
        backend=args.backend, algorithm=args.algorithm, profile=args.profile,
    ) as engine:
        t0 = time.perf_counter()
        out = engine.run(images, kernels, padding=layer.padding)
        elapsed = time.perf_counter() - t0
        stats = engine.stats()
        decisions = engine.algorithm_decisions()
        tracer = engine.tracer

    print(f"layer    : {layer.label} (scaled: B={layer.batch} C={layer.c_in} "
          f"C'={layer.c_out} I={'x'.join(map(str, layer.image))})")
    print(f"backend  : {args.backend}")
    print(f"profile  : {args.profile or 'manycore-knl'}")
    print(f"algorithm: {args.algorithm}"
          + "".join(f" -> {d['algorithm']} ({d['source']})" for d in decisions))
    print(f"output   : shape {tuple(out.shape)}, checksum {float(out.sum()):+.6e}")
    print(f"wall time: {elapsed * 1e3:.2f} ms")
    _print_run_stats(stats, tracer)
    if args.stats:
        _print_metrics_snapshot(stats)
    if args.trace_json:
        _write_trace(tracer, args.trace_json)
    if args.check:
        ref = direct_convolution(
            images.astype(np.float64), kernels.astype(np.float64),
            padding=layer.padding,
        )
        err = float(np.max(np.abs(out.astype(np.float64) - ref)))
        print(f"max |err| vs direct reference: {err:.3e}")
        if err > 1e-3:
            print("error: output does not match the reference", file=sys.stderr)
            return 1
    return 0


#: Named graph builders for ``run-graph`` (resolved lazily in cmd).
GRAPH_NETWORKS = ("vgg", "fusionnet", "c3d", "residual", "bottleneck", "classifier")


def cmd_run_graph(args) -> int:
    """Whole-graph execution through the graph planner [real].

    Builds a named network as a DAG, plans it (per-node algorithm +
    epilogue fusion + arena placement), runs it once, and prints the
    per-conv plan table.  ``--check`` verifies the run bitwise against
    the naive node-at-a-time reference and allclose against the
    direct-convolution float64 oracle.
    """
    import numpy as np

    from repro.core.engine import ConvolutionEngine
    from repro.graph import (
        GraphExecutor,
        execute_plan_naive,
        graph_scaled_c3d,
        graph_scaled_fusionnet,
        graph_scaled_vgg,
        oracle_execute,
        residual_block,
        toy_classifier,
    )

    builders = {
        "vgg": lambda: graph_scaled_vgg(batch=args.batch, seed=args.seed),
        "fusionnet": lambda: graph_scaled_fusionnet(batch=args.batch, seed=args.seed),
        "c3d": lambda: graph_scaled_c3d(batch=args.batch, seed=args.seed),
        "residual": lambda: residual_block(batch=args.batch, seed=args.seed),
        "bottleneck": lambda: residual_block(
            c=32, size=16, batch=args.batch, kind="bottleneck", seed=args.seed
        ),
        "classifier": lambda: toy_classifier(batch=max(args.batch, 1), seed=args.seed),
    }
    graph = builders[args.network]()
    rng = np.random.default_rng(args.seed)
    feeds = {
        name: rng.standard_normal(shape).astype(np.float32)
        for name, shape in graph.inputs.items()
    }

    failed = False
    with ConvolutionEngine(
        backend=args.backend, algorithm=args.algorithm, profile=args.profile,
    ) as engine:
        t0 = time.perf_counter()
        try:
            executor = GraphExecutor(graph, engine, fuse=not args.no_fuse)
        except ValueError as exc:  # e.g. a baseline algorithm on pinned convs
            print(f"error: {exc}", file=sys.stderr)
            return 2
        plan_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        outputs = executor.run(feeds)
        run_ms = (time.perf_counter() - t0) * 1e3

        print(f"graph    : {graph.name} ({len(executor.plan.order)} nodes, "
              f"{len(executor.plan.conv_plans)} convs, "
              f"{len(executor.plan.folded_into)} folded)")
        print(f"backend  : {args.backend}  algorithm: {args.algorithm}  "
              f"fuse: {not args.no_fuse}")
        _print_table(
            ["conv", "algorithm", "backend", "source", "epilogues", "C-last",
             "output"],
            [
                [r["node"], r["algorithm"], r["backend"], r["source"],
                 r["epilogues"], "yes" if r["channels_last"] else "no",
                 "x".join(map(str, r["shape"]))]
                for r in executor.plan.describe()
            ],
        )
        for name, arr in outputs.items():
            print(f"output   : {name} shape {tuple(arr.shape)}, "
                  f"checksum {float(arr.sum()):+.6e}")
        print(f"plan time: {plan_ms:.2f} ms   run time: {run_ms:.2f} ms")
        snap = engine.metrics.snapshot()["counters"]
        print(f"metrics  : fused_epilogues={snap.get('graph.fused_epilogues', 0)} "
              f"codelet_builds={snap.get('codelet_compile.builds', 0)} "
              f"memo_hits={snap.get('codelet_compile.memo_hits', 0)} "
              f"disk_hits={snap.get('codelet_compile.disk_hits', 0)}")

        if args.check:
            naive = execute_plan_naive(executor.plan, engine, feeds)
            oracle = oracle_execute(graph, feeds)
            for name, arr in outputs.items():
                bitwise = bool(np.array_equal(arr, naive[name]))
                scale = max(float(np.max(np.abs(oracle[name]))), 1.0)
                err = float(np.max(np.abs(arr.astype(np.float64) - oracle[name])))
                print(f"check    : {name} bitwise-vs-naive={bitwise} "
                      f"max |err| vs oracle={err:.3e}")
                if not bitwise or err > 5e-4 * scale:
                    failed = True
        if args.stats:
            _print_metrics_snapshot(engine.stats())
    if failed:
        print("error: graph output does not match the reference", file=sys.stderr)
        return 1
    return 0


def cmd_wisdom(args) -> int:
    """Wisdom-file hygiene: per-fingerprint entry counts and staleness.

    Multi-profile wisdom files hold one decision bucket per machine
    fingerprint; this prints each bucket's entry count and algorithm mix
    (labelling fingerprints that match a registered profile), plus how
    many stale-schema entries the load dropped.
    """
    from pathlib import Path

    path = Path(args.file)
    if not path.exists():
        print(f"error: no wisdom file at {path}", file=sys.stderr)
        return 2
    wisdom = Wisdom.load(path)
    summary = wisdom.summary()
    labels = {fp: name for name, fp in profile_fingerprints().items()}
    print(f"wisdom file      : {path}")
    print(f"blocking entries : {summary['blocking_entries']}")
    print(f"algo entries     : {summary['algo_entries']}")
    print(f"stale dropped    : {summary['stale_dropped']}")
    if not summary["fingerprints"]:
        print("fingerprints     : none")
        return 0
    rows = []
    for fp, info in summary["fingerprints"].items():
        algos = " ".join(f"{a}={n}" for a, n in info["algorithms"].items()) or "-"
        rows.append([fp, labels.get(fp, "-"), info["entries"], algos])
    _print_table(["fingerprint", "profile", "entries", "algorithms"], rows)
    return 0


def cmd_info(args) -> int:
    for spec in (KNL_7210,):
        print(f"{spec.name}")
        print(f"  cores x threads      : {spec.cores} x {spec.max_threads_per_core}")
        print(f"  peak FP32            : {spec.peak_flops / 1e12:.2f} TFLOPS")
        print(f"  memory bandwidth     : {spec.mem_bandwidth / 1e9:.0f} GB/s")
        print(f"  compute/memory ratio : {spec.compute_to_memory_capability:.1f}")
        print(f"  L1 / L2 (pair)       : {spec.l1_bytes // 1024} KB / "
              f"{spec.l2_bytes // 1024} KB")
        print(f"  FMA latency          : {spec.fma_latency} cycles")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="N-D Winograd convolution reproduction (PPoPP'18) CLI",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="Fig. 5 layer benchmarks [model]")
    b.add_argument("--network", help="restrict to one network (VGG, FusionNet, C3D, 3DUNet)")
    b.add_argument("--exhaustive", action="store_true",
                   help="search the full n_blk range (slow; artifact's bench_exhaustive.sh)")
    b.add_argument("-o", "--output", help="write measurements.csv")
    b.add_argument("--wisdom", help="wisdom file to load/update")
    b.set_defaults(fn=cmd_bench)

    a = sub.add_parser("accuracy", help="Table 3 accuracy measurement [real]")
    a.add_argument("--net", choices=["VGG", "C3D", "both"], default="both")
    a.set_defaults(fn=cmd_accuracy)

    g = sub.add_parser("gemm", help="Fig. 6 batched-GEMM comparison [model]")
    g.set_defaults(fn=cmd_gemm)

    t = sub.add_parser("tune", help="autotune one layer shape")
    t.add_argument("--network", required=True)
    t.add_argument("--layer", required=True)
    t.add_argument("--fmr", required=True, help='e.g. "F(4x4,3x3)"')
    t.add_argument("--exhaustive", action="store_true")
    t.add_argument("--wisdom", help="wisdom file to load/update")
    t.set_defaults(fn=cmd_tune)

    s = sub.add_parser("select", help="recommend tile sizes for a layer")
    s.add_argument("--network", required=True)
    s.add_argument("--layer", required=True)
    s.add_argument("--mode", choices=["train", "infer"], default="train")
    s.add_argument("--top", type=int, default=3)
    s.set_defaults(fn=cmd_select)

    a2 = sub.add_parser("analyze", help="per-stage utilization report")
    a2.add_argument("--network", required=True)
    a2.add_argument("--layer", required=True)
    a2.add_argument("--fmr", required=True, help='e.g. "F(4x4,3x3)"')
    a2.set_defaults(fn=cmd_analyze)

    sv = sub.add_parser(
        "serve", help="multi-tenant TCP serving front-end [real]"
    )
    sv.add_argument("--listen", metavar="HOST:PORT", required=True,
                    help="address to serve the JSON-lines protocol on "
                         "(port 0 = ephemeral)")
    sv.add_argument("--backend", choices=list(ENGINE_BACKENDS), default="fused",
                    help="execution backend (compiled = C codelets, "
                         "falls back to fused without a toolchain)")
    sv.add_argument("--algorithm", choices=["auto"] + list(ENGINE_ALGORITHMS),
                    default="winograd",
                    help="convolution algorithm; 'auto' probes every algorithm "
                         "a shape supports and keeps the fastest in wisdom")
    sv.add_argument("--profile", choices=list(list_profiles()), default=None,
                    help="named machine profile: the wisdom namespace "
                         "(default: manycore-knl)")
    sv.add_argument("--wisdom", help="wisdom file to load")
    sv.add_argument("--stats", action="store_true",
                    help="print a metrics snapshot on shutdown")
    sv.add_argument("--max-batch", type=int, default=8,
                    help="dynamic-batching cap per dispatch")
    sv.add_argument("--window-ms", type=float, default=2.0,
                    help="batching window in milliseconds")
    sv.add_argument("--max-pending", type=int, default=1024,
                    help="global pending-request cap before over_capacity "
                         "rejects")
    sv.add_argument("--tenant-max-pending", type=int, default=128,
                    help="per-tenant pending-request quota")
    sv.add_argument("--tenant-plan-mb", type=int, default=128,
                    help="per-tenant plan-cache quota in MB; 0 disables")
    sv.set_defaults(fn=cmd_serve)

    rn = sub.add_parser(
        "run", help="one-shot convolution through a chosen backend [real]"
    )
    rn.add_argument("--network", default="VGG")
    rn.add_argument("--layer", default="3.2")
    rn.add_argument("--batch", type=int, default=1)
    rn.add_argument("--channels-divisor", type=int, default=4)
    rn.add_argument("--image-divisor", type=int, default=4)
    rn.add_argument("--backend", choices=list(ENGINE_BACKENDS), default="fused",
                    help="execution backend (compiled falls back to fused "
                         "without a C toolchain)")
    rn.add_argument("--algorithm", choices=["auto"] + list(ENGINE_ALGORITHMS),
                    default="winograd",
                    help="convolution algorithm; 'auto' probes every "
                         "algorithm the layer supports and runs the fastest")
    rn.add_argument("--profile", choices=list(list_profiles()), default=None,
                    help="named machine profile (portfolio decisions are "
                         "namespaced per profile in wisdom)")
    rn.add_argument("--seed", type=int, default=0)
    rn.add_argument("--check", action="store_true",
                    help="verify against the direct-convolution oracle")
    rn.add_argument("--stats", action="store_true",
                    help="also dump the full metrics snapshot")
    rn.add_argument("--trace-json", metavar="PATH",
                    help="write the span trace as JSON to PATH")
    rn.set_defaults(fn=cmd_run)

    rg = sub.add_parser(
        "run-graph",
        help="whole-network DAG execution through the graph planner [real]",
    )
    rg.add_argument("--network", choices=list(GRAPH_NETWORKS), default="vgg")
    rg.add_argument("--batch", type=int, default=1)
    rg.add_argument("--backend", choices=list(ENGINE_BACKENDS), default="fused",
                    help="engine backend for every conv node")
    rg.add_argument("--algorithm", choices=["auto"] + list(ENGINE_ALGORITHMS),
                    default="winograd",
                    help="'auto' probes every algorithm a conv node supports")
    rg.add_argument("--profile", choices=list(list_profiles()), default=None,
                    help="named machine profile (wisdom namespace of decisions)")
    rg.add_argument("--seed", type=int, default=0)
    rg.add_argument("--no-fuse", action="store_true",
                    help="disable epilogue fusion (layer-at-a-time shape)")
    rg.add_argument("--check", action="store_true",
                    help="verify bitwise vs the node-at-a-time reference and "
                         "allclose vs the direct-convolution oracle")
    rg.add_argument("--stats", action="store_true",
                    help="also dump the full metrics snapshot")
    rg.set_defaults(fn=cmd_run_graph)

    wz = sub.add_parser(
        "wisdom",
        help="inspect a wisdom file: per-fingerprint entry counts and "
             "dropped-stale counters",
    )
    wz.add_argument("--file", required=True, help="wisdom JSON file to inspect")
    wz.set_defaults(fn=cmd_wisdom)

    i = sub.add_parser("info", help="simulated machine specifications")
    i.set_defaults(fn=cmd_info)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
