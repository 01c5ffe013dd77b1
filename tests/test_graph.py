"""Graph differential suite: whole-graph execution is trustworthy.

The contract under test (ISSUE 9): for every supported backend and
algorithm, :class:`GraphExecutor` -- with epilogue fusion and arena
placement on -- produces output **bitwise identical** to the naive
node-at-a-time replay of the same plan, and allclose to a float64
direct-convolution oracle.  Plus: topology validation raises structured
errors, seeded random DAGs (fan-out, skips, diamonds) match the oracle,
every non-output conv writes straight into the arena on both Winograd
backends, and the serve/CLI wiring round-trips.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.core.compiled_backend import compiled_available
from repro.core.engine import ConvolutionEngine
from repro.core.portfolio import ALGORITHMS
from repro.graph import (
    EPILOGUE_OPS,
    Graph,
    GraphError,
    GraphExecutor,
    Node,
    eval_node,
    execute_plan_naive,
    graph_scaled_c3d,
    graph_scaled_fusionnet,
    graph_scaled_vgg,
    oracle_execute,
    plan_graph,
    random_graph,
    residual_block,
    toy_classifier,
)
from repro.graph.executor import max_pool
from repro.serve import ServeClient
from repro.serve.protocol import ProtocolError, encode_tensor
from repro.serve.server import ConvServer

#: name -> zero-arg builder for the evaluation networks of the issue.
NETWORKS = {
    "vgg": graph_scaled_vgg,
    "fusionnet": graph_scaled_fusionnet,
    "c3d": graph_scaled_c3d,
    "residual": residual_block,
}

#: Oracle tolerance, scaled by output magnitude (float32 engine paths).
ORACLE_ATOL = 5e-4


def _feeds(graph: Graph, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(shape).astype(np.float32)
        for name, shape in graph.inputs.items()
    }


def _assert_graph_faithful(engine, graph, *, backend=None, algorithm=None,
                           fuse=True, seed=0):
    """Optimized == naive (bitwise) and == oracle (allclose); returns
    the executor for plan introspection."""
    feeds = _feeds(graph, seed)
    ex = GraphExecutor(graph, engine, backend=backend, algorithm=algorithm, fuse=fuse)
    out = ex.run(feeds)
    naive = execute_plan_naive(ex.plan, engine, feeds)
    oracle = oracle_execute(graph, feeds)
    assert set(out) == set(graph.outputs)
    for name in out:
        np.testing.assert_array_equal(
            out[name], naive[name],
            err_msg=f"{graph.name}/{name}: optimized != naive node-at-a-time",
        )
        scale = max(float(np.abs(oracle[name]).max()), 1.0)
        np.testing.assert_allclose(
            out[name].astype(np.float64), oracle[name],
            atol=ORACLE_ATOL * scale, rtol=0,
            err_msg=f"{graph.name}/{name}: vs direct-convolution oracle",
        )
    return ex


def _max_pool_reference(x: np.ndarray, window: int) -> np.ndarray:
    """The executor's former max pool, kept as the reference: crop the
    ragged edge, split each spatial axis into ``(n, window)`` and reduce
    over the window axes."""
    trimmed = tuple((s // window) * window for s in x.shape[2:])
    x = x[(slice(None), slice(None)) + tuple(slice(0, t) for t in trimmed)]
    shape = x.shape[:2]
    for t in trimmed:
        shape += (t // window, window)
    axes = tuple(3 + 2 * d for d in range(len(trimmed)))
    return x.reshape(shape).max(axis=axes)


# ----------------------------------------------------------------------
# IR validation: structured errors
# ----------------------------------------------------------------------
class TestValidation:
    def _w(self, c_in=4, c_out=4, k=(3, 3)):
        return np.ones((c_in, c_out) + k, dtype=np.float32)

    def _code(self, graph) -> str:
        with pytest.raises(GraphError) as exc:
            graph.validate()
        return exc.value.code

    def test_empty_graph(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        assert self._code(g) == "empty_graph"

    def test_duplicate_name(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("relu", "a", "x")
        with pytest.raises(GraphError) as exc:
            g.add("relu", "a", "x")
        assert exc.value.code == "duplicate_name"
        with pytest.raises(GraphError) as exc:
            g.add_input("a", (1, 4, 8, 8))
        assert exc.value.code == "duplicate_name"

    def test_unknown_op(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("softmax", "a", "x")
        assert self._code(g) == "unknown_op"

    def test_dangling_input(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("add", "a", ("x", "ghost"))
        assert self._code(g) == "dangling_input"

    def test_cycle(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("add", "a", ("x", "b"))
        g.add("relu", "b", "a")
        assert self._code(g) == "cycle"

    def test_elementwise_shape_mismatch(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("maxpool", "p", "x", window=2)
        g.add("add", "a", ("x", "p"))
        assert self._code(g) == "shape_mismatch"

    def test_conv_channel_mismatch(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("conv", "c", "x", weights=self._w(c_in=8), padding=(1, 1))
        assert self._code(g) == "shape_mismatch"

    def test_conv_kernel_does_not_fit(self):
        g = Graph()
        g.add_input("x", (1, 4, 2, 2))
        g.add("conv", "c", "x", weights=self._w(), padding=(0, 0))
        assert self._code(g) == "shape_mismatch"

    def test_conv_bad_weights(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("conv", "c", "x", weights="nope", padding=(1, 1))
        assert self._code(g) == "bad_attr"

    def test_batchnorm_bad_params(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("batchnorm", "bn", "x",
              scale=np.ones(3, np.float32), shift=np.ones(4, np.float32))
        assert self._code(g) == "bad_attr"

    def test_maxpool_empties_spatial(self):
        g = Graph()
        g.add_input("x", (1, 4, 3, 3))
        g.add("maxpool", "p", "x", window=4)
        assert self._code(g) == "shape_mismatch"

    def test_maxpool_bad_window(self):
        g = Graph()
        g.add_input("x", (1, 4, 4, 4))
        g.add("maxpool", "p", "x", window=0)
        assert self._code(g) == "bad_attr"

    def test_gemm_needs_2d_input(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("gemm", "m", "x", weights=np.ones((4, 2), np.float32))
        assert self._code(g) == "shape_mismatch"

    def test_unknown_output(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("relu", "a", "x")
        g.mark_output("ghost")
        assert self._code(g) == "unknown_output"

    def test_arity_mismatch(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("add", "a", ("x",))
        assert self._code(g) == "shape_mismatch"

    def test_valid_graph_reports_order_and_shapes(self):
        g = residual_block(c=8, size=8)
        order, shapes = g.validate()
        assert [n.name for n in order] == ["c1", "r1", "c2", "sum", "out"]
        assert shapes["out"] == (1, 8, 8, 8)
        assert g.outputs == ("out",)

    def test_bad_feeds_raise_structured(self):
        g = residual_block(c=8, size=8)
        with ConvolutionEngine() as eng:
            ex = GraphExecutor(g, eng)
            with pytest.raises(GraphError) as exc:
                ex.run({})
            assert exc.value.code == "bad_feed"
            with pytest.raises(GraphError) as exc:
                ex.run({"x": np.zeros((1, 8, 4, 4), np.float32)})
            assert exc.value.code == "bad_feed"
            with pytest.raises(GraphError) as exc:
                ex.run({"x": np.zeros((1, 8, 8, 8), np.float32),
                        "y": np.zeros(3)})
            assert exc.value.code == "bad_feed"

    def test_serialization_roundtrip_executes_identically(self):
        g = toy_classifier()
        back = Graph.from_dict(g.to_dict())
        assert [n.name for n in back.nodes] == [n.name for n in g.nodes]
        feeds = _feeds(g, seed=5)
        with ConvolutionEngine() as eng:
            a = eng.run_graph(g, feeds)
            b = eng.run_graph(back, feeds)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_from_dict_malformed_payload(self):
        with pytest.raises(GraphError) as exc:
            Graph.from_dict({"nodes": []})
        assert exc.value.code == "bad_attr"


# ----------------------------------------------------------------------
# Differential matrix
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_fused_path_matches_naive_and_oracle(self, network):
        with ConvolutionEngine(backend="fused") as eng:
            _assert_graph_faithful(eng, NETWORKS[network]())

    @pytest.mark.parametrize("backend", ("compiled",))
    @pytest.mark.parametrize("network", ("vgg", "residual"))
    def test_backend_matrix(self, backend, network):
        if backend == "compiled" and not compiled_available():
            pytest.skip("no C toolchain")
        with ConvolutionEngine() as eng:
            _assert_graph_faithful(eng, NETWORKS[network](), backend=backend)

    def test_classifier_head_ops(self):
        """batchnorm / gap / gemm semantics agree with the oracle."""
        with ConvolutionEngine() as eng:
            ex = _assert_graph_faithful(eng, toy_classifier())
        assert {n.op for n in ex.plan.order} >= {"batchnorm", "gap", "gemm", "maxpool"}

    def test_auto_algorithm_per_node(self):
        """The portfolio decides per conv node; the result stays faithful."""
        g = residual_block(c=32, size=16, batch=3, kind="bottleneck")
        with ConvolutionEngine() as eng:
            ex = _assert_graph_faithful(eng, g, algorithm="auto")
        algos = {p.name: p.algorithm for p in ex.plan.conv_plans}
        assert set(algos.values()) <= set(ALGORITHMS)
        assert all(p.source in ("probed", "wisdom", "forced", "default")
                   for p in ex.plan.conv_plans)

    def test_pinned_nodes_keep_their_pin_under_auto(self):
        """A conv node that carries ``fmr`` resolves as
        ``engine.run(..., fmr=..., algorithm="auto")`` does: Winograd on
        that very tile, source ``forced``, and no portfolio decision."""
        g = graph_scaled_vgg()
        with ConvolutionEngine(algorithm="auto") as eng:
            ex = _assert_graph_faithful(eng, g)
            assert eng.algorithm_decisions() == []
        assert [(p.algorithm, p.source) for p in ex.plan.conv_plans] == [
            ("winograd", "forced")
        ] * 3
        assert [p.fmr for p in ex.plan.conv_plans] == [
            g.node(p.name).attr("fmr") for p in ex.plan.conv_plans
        ]

    def test_forced_baseline_algorithm(self):
        """Forced im2col, on the basic block and on the bottleneck, whose
        1x1 convs run unlowered: c1 reads the NCHW input and writes a
        channels-last activation, c3 the reverse."""
        for graph in (residual_block(c=8, size=8),
                      residual_block(c=32, size=16, batch=3, kind="bottleneck")):
            with ConvolutionEngine() as eng:
                ex = _assert_graph_faithful(eng, graph, algorithm="im2col")
            assert all(p.algorithm == "im2col" for p in ex.plan.conv_plans)
        assert [p.channels_last for p in ex.plan.conv_plans] == [True, True, False]

    def test_backend_with_baseline_algorithm_contradiction(self):
        with ConvolutionEngine() as eng:
            with pytest.raises(ValueError, match="winograd"):
                plan_graph(residual_block(c=8, size=8), eng,
                           backend="compiled", algorithm="fft")

    @pytest.mark.parametrize("shape, want", [
        ((1, 1, 4, 4), [[[[5, 7], [13, 15]]]]),
        ((1, 1, 2, 2, 2), [[[[[7]]]]]),
        ((1, 1, 5, 5), [[[[6, 8], [16, 18]]]]),  # ragged edge dropped
    ], ids=["2d", "3d", "ragged"])
    def test_maxpool_numerics(self, shape, want):
        x = np.arange(np.prod(shape), dtype=float).reshape(shape)
        node = Node(name="p", op="maxpool", inputs=("x",), attrs={"window": 2})
        np.testing.assert_array_equal(eval_node(node, [x]), want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_maxpool_matches_reference(self, ndim, window, dtype):
        """The phase-fold pool returns the reference's bytes, NaN and
        infinities included; with signed zeros in a window the values
        agree but which zero wins is not pinned."""
        rng = np.random.default_rng([ndim, window, np.dtype(dtype).itemsize])
        node = Node(name="p", op="maxpool", inputs=("x",), attrs={"window": window})
        values = np.array([1.0, -1.0, 2.5, np.inf, -np.inf, np.nan, 0.0])
        for draw in range(4):
            # Every axis ragged on the first draw (when window > 1).
            rem = (window - 1,) * ndim if draw == 0 else rng.integers(0, window, ndim)
            spatial = tuple(
                int(n) * window + int(r)
                for n, r in zip(rng.integers(1, 4, ndim), rem)
            )
            x = rng.choice(values, size=(2, 3) + spatial).astype(dtype)
            got, want = eval_node(node, [x]), _max_pool_reference(x, window)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
            x = rng.choice(np.append(values, -0.0), size=x.shape).astype(dtype)
            got, want = eval_node(node, [x]), _max_pool_reference(x, window)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert np.array_equal(got, want, equal_nan=True)

    def test_evaluation_graphs_are_pinned(self):
        """The scaled evaluation graphs -- topology, fmr pins and weight
        bytes -- never drift: benchmark workloads are built from them."""
        pinned = {
            (graph_scaled_vgg, 8):
                "20dae43bc0272c03446313b3a26ba9cd6f0b907a2bef181437ffce8ea2528b95",
            (graph_scaled_c3d, 8):
                "46990acfac0368585a2ac4b0b4b432e88037c710ff8a5b27a2c10ecf6f6bcf99",
            (graph_scaled_fusionnet, 1):
                "02af43cd76e2dc3f55e5f3e7a0febd69e82604e8521446e23ae842d724da28a7",
        }
        for (build, batch), digest in pinned.items():
            g = build(batch=batch, seed=0)
            payload = json.dumps(g.to_dict(encode_tensor), sort_keys=True)
            assert hashlib.sha256(payload.encode()).hexdigest() == digest, g.name

    def test_run_graph_convenience_equals_executor(self):
        g = residual_block(c=8, size=8)
        feeds = _feeds(g)
        with ConvolutionEngine() as eng:
            a = eng.run_graph(g, feeds)
            b = GraphExecutor(g, eng).run(feeds)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


# ----------------------------------------------------------------------
# Topology fuzzing vs the oracle
# ----------------------------------------------------------------------
class TestTopologyFuzz:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_dags_match_naive_and_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        with ConvolutionEngine() as eng:
            _assert_graph_faithful(eng, g, seed=seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_3d_dags(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(rng, ndim=3, max_nodes=5)
        with ConvolutionEngine() as eng:
            _assert_graph_faithful(eng, g, seed=seed)

    def test_fuzzer_emits_branching_topologies(self):
        """The fuzzer must actually produce fan-out/merge shapes, or the
        oracle fuzzing above only ever sees chains."""
        merges = fanouts = 0
        for seed in range(40):
            g = random_graph(np.random.default_rng(seed))
            uses: dict[str, int] = {}
            for n in g.nodes:
                if n.op in ("add", "mul") and len(set(n.inputs)) == 2:
                    merges += 1
                for t in n.inputs:
                    uses[t] = uses.get(t, 0) + 1
            fanouts += sum(1 for c in uses.values() if c > 1)
        assert merges > 0 and fanouts > 0


# ----------------------------------------------------------------------
# Fusion + arena reuse
# ----------------------------------------------------------------------
class TestFusionAndArena:
    @pytest.mark.parametrize("backend,build,folded", [
        ("fused", graph_scaled_vgg, {"relu1", "relu2", "relu3"}),
        ("compiled", graph_scaled_c3d, {"relu1", "relu2"}),
    ], ids=["fused", "compiled"])
    def test_every_conv_writes_into_its_out(self, backend, build, folded,
                                           monkeypatch, tmp_path):
        """Every conv honours ``out=``: each non-output conv is handed a
        view of the graph's arena lease and returns it, and the output
        conv its fresh heap array -- on the fused backend and on the
        compiled one (or, without a toolchain, its fused reroute).  No
        conv result is ever copied between layers."""
        monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
        g = build(batch=2)
        with ConvolutionEngine(backend=backend) as eng:
            ex = GraphExecutor(g, eng)
            calls = []
            run = eng.run

            def spy(images, kernels, **kw):
                result = run(images, kernels, **kw)
                calls.append((kw["out"], result))
                return result

            eng.run = spy
            (out,) = ex.run(_feeds(g)).values()
            pooled = list(eng.arena._free)
            # Every folded ReLU rode on its conv's stage-3 write.
            assert eng.metrics.counter_value("graph.fused_epilogues") == len(folded)
            assert eng.metrics.counter_value("graph.runs") == 1
        assert set(ex.plan.folded_into) == folded
        assert len(calls) == len(ex.plan.conv_plans)
        for p, (dest, result) in zip(ex.plan.conv_plans, calls):
            assert result is dest, p.name
            in_arena = any(np.shares_memory(dest, buf) for buf in pooled)
            assert in_arena is not p.is_output, p.name
        assert calls[-1][1] is out

    def test_fusion_respects_fanout_and_outputs(self):
        """A fan-out edge or a declared graph output stops the chain."""
        g = residual_block(c=8, size=8)
        with ConvolutionEngine() as eng:
            plan = GraphExecutor(g, eng).plan
            # r1 rides on c1; sum+out ride on c2 (skip operand x is a
            # graph input, available before c2).
            assert plan.folded_into == {"r1": "c1", "sum": "c2", "out": "c2"}

            g2 = Graph()
            g2.add_input("x", (1, 8, 8, 8))
            g2.add("conv", "c1", "x",
                   weights=np.ones((8, 8, 3, 3), np.float32) * 0.01,
                   padding=(1, 1))
            g2.add("relu", "r1", "c1")
            g2.mark_output("c1", "r1")  # conv tensor escapes: no fold
            plan2 = GraphExecutor(g2, eng).plan
            assert plan2.folded_into == {}
            out = GraphExecutor(g2, eng).run(_feeds(g2))
            np.testing.assert_array_equal(
                out["r1"], np.maximum(out["c1"], 0.0)
            )

    def test_fuse_off_still_faithful(self):
        with ConvolutionEngine() as eng:
            ex = _assert_graph_faithful(eng, NETWORKS["residual"](), fuse=False)
        assert ex.plan.folded_into == {}
        assert all(not p.epilogues for p in ex.plan.conv_plans)

    def test_epilogue_ops_constant(self):
        assert set(EPILOGUE_OPS) == {"relu", "batchnorm", "add", "mul"}

    def test_build_failure_mid_graph_falls_back_and_stays_clean(
        self, failing_codelet_build
    ):
        """Every codelet build failing during a compiled graph pass: the
        engine's per-conv fallback chain reroutes each conv to the fused
        path, so the whole-graph result is bitwise the fused graph's."""
        g = graph_scaled_vgg()
        feeds = _feeds(g)
        n_convs = sum(1 for n in g.nodes if n.op == "conv")
        with ConvolutionEngine() as eng:
            expect = GraphExecutor(g, eng, backend="fused").run(feeds)
        with ConvolutionEngine(backend="compiled") as eng:
            out = GraphExecutor(g, eng).run(feeds)
            assert eng.metrics.counter_value(
                "engine.fallbacks.compiled_to_fused") == n_convs
            assert eng.metrics.counter_value("engine.fallbacks") == n_convs
        assert len(failing_codelet_build) == n_convs
        for name in out:
            np.testing.assert_array_equal(out[name], expect[name])


def _channels_last(x: np.ndarray) -> np.ndarray:
    """``x``'s values stored ``(B, *spatial, C)``, viewed as ``(B, C, *spatial)``."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 1, -1)), -1, 1)


def _is_channels_last(x: np.ndarray) -> bool:
    return np.moveaxis(x, 1, -1).flags.c_contiguous


class TestChannelsLast:
    """Memory order is the layout between layers: a conv result read only
    by convs (through elementwise ops and maxpool) is stored channels-last."""

    @staticmethod
    def _marks(graph, **kw) -> dict[str, bool]:
        with ConvolutionEngine(**kw) as eng:
            plan = plan_graph(graph, eng)
        return {p.name: p.channels_last for p in plan.conv_plans}

    def test_vgg_marks_all_but_the_output_conv(self):
        assert self._marks(graph_scaled_vgg()) == {
            "conv1": True, "conv2": True, "conv3": False,
        }

    def test_result_reaching_gap_stays_nchw(self):
        # c2 -> batchnorm -> relu -> gap: a reduction's rounding follows
        # its iteration order, so c2 keeps the order the oracle uses.
        assert self._marks(toy_classifier()) == {"c1": True, "c2": False}

    def test_bottleneck_marks_c1_and_c2(self):
        g = residual_block(c=16, size=8, kind="bottleneck")
        assert self._marks(g, algorithm="winograd") == {
            "c1": True, "c2": True, "c3": False,
        }

    def test_fan_out_to_graph_output_stays_nchw(self):
        rng = np.random.default_rng(0)
        g = Graph()
        g.add_input("x", (1, 8, 8, 8))
        g.add("conv", "c1", "x", padding=(1, 1),
              weights=(rng.standard_normal((8, 8, 3, 3)) * 0.1).astype(np.float32))
        g.add("relu", "r1", "c1")
        g.add("conv", "c2", "r1", padding=(1, 1),  # r1 feeds a conv ...
              weights=(rng.standard_normal((8, 8, 3, 3)) * 0.1).astype(np.float32))
        g.add("maxpool", "p", "r1", window=2)  # ... and, pooled, an output
        g.mark_output("c2", "p")
        assert self._marks(g) == {"c1": False, "c2": False}
        with ConvolutionEngine() as eng:
            out = _assert_graph_faithful(eng, g).run(_feeds(g))
        assert all(v.flags.c_contiguous for v in out.values())

    def test_compiled_results_stay_nchw(self):
        # Compiled stage 3 writes NCHW, so its arena results stay NCHW.
        marks = self._marks(graph_scaled_c3d(), backend="compiled")
        assert marks == {"conv1": False, "conv2": False}

    def test_executor_passes_channels_last_out(self):
        """Each conv is still one engine.run call; the marked ones get a
        channels-last ``out=`` view, and graph outputs are C-contiguous."""
        g = graph_scaled_vgg(batch=2)
        with ConvolutionEngine() as eng:
            ex = _assert_graph_faithful(eng, g)
            seen = []
            run = eng.run

            def spy(images, kernels, **kw):
                seen.append((_is_channels_last(images), kw["out"]))
                return run(images, kernels, **kw)

            eng.run = spy
            (out,) = ex.run(_feeds(g)).values()
        assert [(src, _is_channels_last(dest)) for src, dest in seen] == [
            (False, True), (True, True), (True, False),
        ]
        assert seen[2][1].flags.c_contiguous and out.flags.c_contiguous

    @pytest.mark.parametrize("algorithm", ["fft", "direct", "im2col"])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_baselines_read_channels_last_bitwise(self, algorithm, pad):
        """At padding 0 ``pad_images`` hands the baseline its input as
        is, so the channels-last activation reaches its arithmetic."""
        rng = np.random.default_rng(pad)
        g = Graph()
        g.add_input("x", (2, 6, 10, 10))
        g.add("conv", "c1", "x", padding=(1, 1),
              weights=(rng.standard_normal((6, 7, 3, 3)) * 0.1).astype(np.float32))
        g.add("relu", "r1", "c1")
        g.add("conv", "c2", "r1", padding=(pad, pad),
              weights=(rng.standard_normal((7, 5, 3, 3)) * 0.1).astype(np.float32))
        g.mark_output("c2")
        with ConvolutionEngine() as eng:
            ex = _assert_graph_faithful(eng, g, algorithm=algorithm)
        assert [p.channels_last for p in ex.plan.conv_plans] == [True, False]

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_max_pool_keeps_memory_order(self, window):
        x = np.random.default_rng(0).standard_normal((2, 5, 7, 6)).astype(np.float32)
        got = max_pool(_channels_last(x), window)
        assert _is_channels_last(got)
        np.testing.assert_array_equal(got, max_pool(x, window))

    @pytest.mark.parametrize("op", ["relu", "batchnorm", "add", "mul"])
    def test_elementwise_ops_keep_memory_order(self, op):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 4, 3)).astype(np.float32)
        y = rng.standard_normal(x.shape).astype(np.float32)
        inputs = ("x", "y") if op in ("add", "mul") else ("x",)
        attrs = {}
        if op == "batchnorm":
            attrs = {"scale": rng.standard_normal(5), "shift": rng.standard_normal(5)}
        node = Node(name="n", op=op, inputs=inputs, attrs=attrs)
        args = [x, y][: len(inputs)]
        got = eval_node(node, [_channels_last(a) for a in args])
        assert _is_channels_last(got)
        np.testing.assert_array_equal(got, eval_node(node, args))


# ----------------------------------------------------------------------
# Serve wiring
# ----------------------------------------------------------------------
def _serve(coro_fn, **server_kw):
    async def main():
        async with ConvServer(host="127.0.0.1", **server_kw) as server:
            return await coro_fn(server)
    return asyncio.run(main())


class TestServeGraph:
    def test_register_infer_roundtrip(self):
        g = residual_block(c=8, size=8, seed=3)
        feeds = _feeds(g, seed=9)
        x = feeds["x"]

        async def scenario(server):
            async with ServeClient(server.host, server.port) as client:
                reg = await client.register_graph("resnet", g)
                assert reg["convs"] == 2 and reg["folded"] == 3
                rep = await client.infer("resnet", x)
                assert rep.get("graph") is True
                return rep["output"]

        out = _serve(scenario)
        with ConvolutionEngine() as eng:
            want = eng.run_graph(g, feeds)[g.outputs[0]]
        scale = max(float(np.abs(want).max()), 1.0)
        np.testing.assert_allclose(out, want, atol=ORACLE_ATOL * scale, rtol=0)

    def test_graph_infer_validates_shape_and_name(self):
        g = residual_block(c=8, size=8)

        async def scenario(server):
            async with ServeClient(server.host, server.port) as client:
                await client.register_graph("m", g)
                with pytest.raises(ProtocolError) as exc:
                    await client.infer("m", np.zeros((1, 8, 4, 4), np.float32))
                assert exc.value.code == "bad_request"
                with pytest.raises(ProtocolError) as exc:
                    await client.infer("ghost", np.zeros((1, 8, 8, 8), np.float32))
                assert exc.value.code == "unknown_model"

        _serve(scenario)

    def test_register_invalid_graph_is_bad_request(self):
        g = Graph()
        g.add_input("x", (1, 4, 8, 8))
        g.add("add", "a", ("x", "ghost"))

        async def scenario(server):
            async with ServeClient(server.host, server.port) as client:
                with pytest.raises(ProtocolError) as exc:
                    await client.register_graph("bad", g)
                assert exc.value.code == "bad_request"

        _serve(scenario)
