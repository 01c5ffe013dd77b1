"""Graph execution: optimized plan runner, naive reference, NumPy oracle.

Three evaluators, one set of op semantics:

* :class:`GraphExecutor` runs a :class:`~repro.graph.planner.GraphPlan`
  -- convs through the engine with folded epilogues applied on the
  stage-3 result buffer, every non-output conv (on either Winograd
  backend or a baseline) writing its activation straight into one
  :class:`~repro.core.engine.WorkspaceArena` lease held across the
  whole pass via ``out=`` (the paper's Sec. 4.1 "no data reshuffling
  between layers", extended to a DAG).  Results the plan marks
  channels-last are leased ``(B, *spatial, C)`` and handed to ``engine.run`` as their
  ``(B, C, *spatial)`` view (``out=``); pools and elementwise ops keep
  their input's memory order, so the layout flows to the next conv;
* :func:`execute_plan_naive` replays the *same* plan node-at-a-time --
  every conv an ordinary ``engine.run``, every elementwise op a fresh
  standalone pass, no fusion, no arena placement.  Because both paths
  share the conv dispatch and the single :func:`eval_node`
  implementation below, optimized-vs-naive is asserted **bitwise
  equal** in the differential suite;
* :func:`oracle_execute` evaluates the graph in float64 with
  :func:`~repro.nets.reference.direct_convolution` -- the independent
  ground truth the fuzzed topologies are checked against.

The bitwise claim leans on two numpy facts: ``out=`` changes where a
ufunc writes, never what bits it writes, and elementwise ops are
deterministic per element -- so an epilogue applied in place on the
conv's result buffer produces exactly the bytes the standalone node
would.  Memory order is the third: every conv entry copies (or pads and
lowers) its input before any arithmetic and delivers its result by a
copy, so a channels-last activation yields the bytes its C-contiguous
twin in the naive replay does.
"""

from __future__ import annotations

import numpy as np

from repro.graph.ir import Graph, GraphError, Node
from repro.graph.planner import GraphPlan, NodePlan, plan_graph
from repro.nets.reference import direct_convolution


# ----------------------------------------------------------------------
# Single source of truth for non-conv op numerics
# ----------------------------------------------------------------------
def max_pool(x: np.ndarray, window: int = 2) -> np.ndarray:
    """Non-overlapping spatial max pooling on a ``(B, C, *spatial)`` batch.

    Trailing elements that do not fill a window are dropped (the
    convention of the evaluation networks).  Each spatial axis in turn
    folds its ``window`` strided phases together with ``np.maximum``:
    streaming passes, and exact, so the fold order changes no value.
    The result keeps ``x``'s memory order (a channels-last batch pools
    into a channels-last one), ``window == 1`` included.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1:
        return x.copy(order="K")
    for axis in range(2, x.ndim):
        lead = (slice(None),) * axis
        stop = x.shape[axis] // window * window
        phases = [x[lead + (slice(o, stop, window),)] for o in range(window)]
        x = np.maximum(phases[0], phases[1])
        for phase in phases[2:]:
            np.maximum(x, phase, out=x)
    return x


def eval_node(node: Node, operands: list[np.ndarray], out=None) -> np.ndarray:
    """Evaluate one non-conv node; ``out`` aliases are allowed.

    Every evaluator (optimized, naive, oracle, epilogue closure) funnels
    through here so the op semantics cannot drift apart.  Parameter
    tensors are cast to the operand dtype, which is what lets the same
    code serve the float32 engine paths and the float64 oracle.
    """
    op = node.op
    if op == "relu":
        return np.maximum(operands[0], 0.0, out=out)
    if op == "batchnorm":
        x = operands[0]
        pshape = (1, -1) + (1,) * (x.ndim - 2)
        scale = node.attrs["scale"].astype(x.dtype, copy=False).reshape(pshape)
        shift = node.attrs["shift"].astype(x.dtype, copy=False).reshape(pshape)
        out = np.multiply(x, scale, out=out)
        return np.add(out, shift, out=out)
    if op == "add":
        return np.add(operands[0], operands[1], out=out)
    if op == "mul":
        return np.multiply(operands[0], operands[1], out=out)
    if op == "maxpool":
        return max_pool(operands[0], int(node.attrs["window"]))
    if op == "gap":
        x = operands[0]
        return x.mean(axis=tuple(range(2, x.ndim)))
    if op == "gemm":
        x = operands[0]
        w = node.attrs["weights"].astype(x.dtype, copy=False)
        y = x @ w
        bias = node.attrs.get("bias")
        if bias is not None:
            y = np.add(y, bias.astype(x.dtype, copy=False), out=y)
        return y
    raise GraphError("unknown_op", f"cannot evaluate op {op!r}")


def _normalize_feeds(graph: Graph, feeds, dtype) -> dict[str, np.ndarray]:
    if isinstance(feeds, np.ndarray):
        if len(graph.inputs) != 1:
            raise GraphError(
                "bad_feed",
                f"graph {graph.name!r} has inputs {sorted(graph.inputs)}; "
                f"pass a dict, not a bare array",
            )
        feeds = {next(iter(graph.inputs)): feeds}
    env: dict[str, np.ndarray] = {}
    for name, shape in graph.inputs.items():
        if name not in feeds:
            raise GraphError("bad_feed", f"missing feed for input {name!r}")
        x = np.asarray(feeds[name])
        if tuple(x.shape) != shape:
            raise GraphError(
                "bad_feed",
                f"feed {name!r} has shape {tuple(x.shape)}, graph declares {shape}",
            )
        env[name] = x.astype(dtype, copy=False)
    extra = set(feeds) - set(graph.inputs)
    if extra:
        raise GraphError("bad_feed", f"unknown feed(s) {sorted(extra)}")
    return env


def _make_epilogue(steps: list[Node], chain: list[str], env):
    """Closure applying folded nodes in place on the conv result.

    ``chain[i]`` is the running tensor name step ``i`` consumes; any
    other operand is resolved from ``env`` now (the planner guaranteed
    it is already materialized).
    """
    resolved = []
    for node, prev in zip(steps, chain):
        resolved.append(
            (node, [None if t == prev else env[t] for t in node.inputs])
        )

    def epilogue(r: np.ndarray) -> None:
        for node, ops in resolved:
            eval_node(node, [r if o is None else o for o in ops], out=r)

    return epilogue


class GraphExecutor:
    """Plan once, run many: the optimized whole-graph path.

    Holding the executor keeps the plan (and the engine's memoized
    per-node algorithm decisions and kernel transforms) warm across
    calls -- the shape serving wants.
    """

    def __init__(
        self,
        graph: Graph,
        engine,
        *,
        backend: str | None = None,
        algorithm: str | None = None,
        dtype=np.float32,
        fuse: bool = True,
        tenant: str | None = None,
    ):
        self.engine = engine
        self.tenant = tenant
        self.plan: GraphPlan = plan_graph(
            graph, engine, backend=backend, algorithm=algorithm,
            dtype=dtype, fuse=fuse,
        )

    def run(self, feeds) -> dict[str, np.ndarray]:
        """Execute the plan; returns ``{output name: array}``.

        ``feeds`` is ``{input name: array}`` (or a bare array for a
        single-input graph); shapes must match the graph declaration.
        """
        plan = self.plan
        graph = plan.graph
        engine = self.engine
        env = _normalize_feeds(graph, feeds, plan.dtype)
        metrics = engine.metrics
        metrics.counter("graph.runs").inc()
        leased: set[int] = set()
        with engine.arena.lease(plan.arena_bytes) as lease:
            for node in plan.order:
                if node.name in plan.folded_into:
                    continue
                if node.op == "conv":
                    self._run_conv(node, plan.node_plans[node.name], env, lease, leased)
                else:
                    env[node.name] = eval_node(
                        node, [env[t] for t in node.inputs]
                    )
            outputs = {}
            for name in graph.outputs:
                arr = env[name]
                # Policy gives outputs heap storage; copy defensively if
                # an arena view ever slipped through, since the lease
                # memory is recycled the moment we return.
                outputs[name] = arr.copy() if id(arr) in leased else arr
        return outputs

    def _run_conv(
        self, node: Node, np_: NodePlan, env, lease, leased: set[int]
    ) -> None:
        plan = self.plan
        engine = self.engine
        x = env[node.inputs[0]]
        epilogue = None
        if np_.epilogues:
            steps = [plan.graph.node(nm) for nm in np_.epilogues]
            chain = [node.name] + list(np_.epilogues[:-1])
            epilogue = _make_epilogue(steps, chain, env)
            engine.metrics.counter("graph.fused_epilogues").inc(len(steps))
        shape = plan.shapes[np_.result]
        if np_.is_output:
            dest = np.empty(shape, plan.dtype)
        elif np_.channels_last:
            buf = lease.take((shape[0],) + shape[2:] + (shape[1],), plan.dtype)
            dest = buf.transpose(0, -1, *range(1, buf.ndim - 1))
            leased.add(id(dest))
        else:
            dest = lease.take(shape, plan.dtype)
            leased.add(id(dest))
        env[np_.result] = engine.run(
            x, node.attrs["weights"], fmr=np_.fmr,
            padding=tuple(node.attrs["padding"]), dtype=plan.dtype,
            backend=np_.backend, algorithm=np_.algorithm,
            tenant=self.tenant, out=dest, epilogue=epilogue,
        )


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def execute_plan_naive(
    plan: GraphPlan, engine, feeds, *, tenant: str | None = None
) -> dict[str, np.ndarray]:
    """Node-at-a-time replay of ``plan`` -- no fusion, no arena, no
    ``out=``; every conv goes through the same per-node algorithm,
    backend and ``F(m, r)`` the plan chose.  The bitwise reference for
    the optimized executor, and the "layer-at-a-time" leg of the graph
    benchmark.
    """
    graph = plan.graph
    env = _normalize_feeds(graph, feeds, plan.dtype)
    for node in plan.order:
        if node.op == "conv":
            np_ = plan.node_plans[node.name]
            env[node.name] = engine.run(
                env[node.inputs[0]], node.attrs["weights"], fmr=np_.fmr,
                padding=tuple(node.attrs["padding"]), dtype=plan.dtype,
                backend=np_.backend, algorithm=np_.algorithm, tenant=tenant,
            )
        else:
            env[node.name] = eval_node(node, [env[t] for t in node.inputs])
    return {name: env[name] for name in graph.outputs}


def oracle_execute(graph: Graph, feeds) -> dict[str, np.ndarray]:
    """Float64 ground truth: direct convolution + the shared op helpers."""
    order, _ = graph.validate()
    env = _normalize_feeds(graph, feeds, np.float64)
    for node in order:
        if node.op == "conv":
            env[node.name] = direct_convolution(
                env[node.inputs[0]],
                node.attrs["weights"].astype(np.float64),
                padding=tuple(node.attrs["padding"]),
            )
        else:
            env[node.name] = eval_node(node, [env[t] for t in node.inputs])
    return {name: env[name] for name in graph.outputs}
