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
from repro.obs.metrics import InstrumentCache


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


def _epilogue_steps(graph: Graph, conv: Node, names) -> tuple:
    """The folded chain ``names`` behind ``conv`` as ``(node, operands)``
    steps: each operand the tensor name to read, or None for the running
    result the step consumes."""
    steps, prev = [], conv.name
    for name in names:
        node = graph.node(name)
        steps.append((node, tuple(None if t == prev else t for t in node.inputs)))
        prev = name
    return tuple(steps)


def _make_epilogue(steps, env):
    """Closure applying folded ``steps`` in place on the conv result.

    Every operand other than the running result is resolved from
    ``env`` now (the planner guaranteed it is already materialized).
    """
    resolved = [
        (node, [None if t is None else env[t] for t in operands])
        for node, operands in steps
    ]

    def epilogue(r: np.ndarray) -> None:
        for node, ops in resolved:
            eval_node(node, [r if o is None else o for o in ops], out=r)

    return epilogue


class _ConvCall:
    """One conv node's ``engine.run`` call, built at plan time: its
    input's name, weights, keyword arguments, folded epilogue steps and
    node plan (which says where its result goes)."""

    __slots__ = ("input", "weights", "kwargs", "steps", "np_")

    def __init__(self, node: Node, np_: NodePlan, plan: GraphPlan, tenant):
        self.input = node.inputs[0]
        self.weights = node.attrs["weights"]
        self.kwargs = dict(
            fmr=np_.fmr, padding=tuple(node.attrs["padding"]), dtype=plan.dtype,
            backend=np_.backend, algorithm=np_.algorithm, tenant=tenant,
        )
        self.steps = _epilogue_steps(plan.graph, node, np_.epilogues)
        self.np_ = np_


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
        plan = self.plan
        # What one run executes, in order: each conv with its call built
        # here, each other unfolded node as itself.
        self._steps = [
            (node, _ConvCall(node, plan.node_plans[node.name], plan, tenant)
             if node.op == "conv" else None)
            for node in plan.order
            if node.name not in plan.folded_into
        ]
        self._kept = InstrumentCache(engine.metrics)

    def run(self, feeds) -> dict[str, np.ndarray]:
        """Execute the plan; returns ``{output name: array}``.

        ``feeds`` is ``{input name: array}`` (or a bare array for a
        single-input graph); shapes must match the graph declaration.
        """
        plan = self.plan
        graph = plan.graph
        engine = self.engine
        env = _normalize_feeds(graph, feeds, plan.dtype)
        self._kept.counter("graph.runs").inc()
        leased: set[int] = set()
        with engine.arena.lease(plan.arena_bytes) as lease:
            for node, call in self._steps:
                if call is not None:
                    self._run_conv(call, env, lease, leased)
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

    def _run_conv(self, call: _ConvCall, env, lease, leased: set[int]) -> None:
        plan = self.plan
        engine = self.engine
        np_ = call.np_
        epilogue = None
        if call.steps:
            # Bound per run: an operand such as a residual input is this
            # run's array.
            epilogue = _make_epilogue(call.steps, env)
            self._kept.counter("graph.fused_epilogues").inc(len(call.steps))
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
        # engine.run is looked up per call: wrappers installed on the
        # engine after planning see every conv.
        env[np_.result] = engine.run(
            env[call.input], call.weights, out=dest, epilogue=epilogue, **call.kwargs
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
