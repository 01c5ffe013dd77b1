"""Per-node planning: algorithm choice + epilogue fusion + arena sizing.

:func:`plan_graph` turns a validated :class:`~repro.graph.ir.Graph`
into an executable :class:`GraphPlan`:

* **Per-conv algorithm.**  Each conv node goes through the same
  resolution as :meth:`ConvolutionEngine.run` -- literally
  :meth:`ConvolutionEngine.resolve`, with the node's shapes, padding and
  ``fmr`` pin: an explicit ``algorithm`` pins every node, an explicit
  ``backend`` or a node's ``fmr`` pins the Winograd family, and
  ``"auto"`` asks the engine's memoized
  :class:`~repro.core.portfolio.PortfolioPlanner` per *node shape*, so
  a bottleneck block can run its 1x1 convs through im2col while the
  3x3 stays on Winograd (the fpgaHART-style per-layer optimization).
  The node plan records the resolved algorithm, backend and ``F(m, r)``,
  and execution passes exactly those to ``engine.run``.
* **Epilogue fusion.**  A chain of elementwise ops (relu, batchnorm,
  add, mul) hanging off a conv's sole consumer edge is folded into the
  conv's stage-3 write: the engine applies them on the result buffer
  before returning, so the activation never takes an extra pass.
  Folding requires every other operand of the folded op to be
  materialized before the conv executes (so diamond merges fold only
  when the sibling branch is already done) and never crosses a
  declared graph output or a fan-out (>1 consumer) edge.
* **Arena placement.**  Every conv honours ``out=``, so conv outputs
  that stay inside the graph are written straight into one
  :class:`~repro.core.engine.WorkspaceArena` lease and activations flow
  conv-to-conv without leaving the workspace; graph outputs get fresh
  heap arrays that are safe to return after the lease is released.
* **Channels-last activations.**  The layout between layers is the
  arrays' memory order, not an option (PyTorch's ``channels_last``
  memory format is the precedent).  An arena-placed result every one of
  whose paths through relu, batchnorm, add, mul and maxpool nodes ends
  at a conv's data input is stored ``(B, *spatial, C)`` and handed on
  as its ``(B, C, *spatial)`` view: the fused backend writes it in runs
  of ``C'`` values, the elementwise ops and maxpool keep that memory
  order, and the next conv copies it into its own buffers.  A result
  that reaches ``gap``, ``gemm`` or a graph output stays C-contiguous,
  because a numpy reduction's rounding follows its iteration order and
  graph outputs are returned NCHW; so does a compiled conv's, whose
  stage 3 writes NCHW.

The plan is also the contract the differential tests hold execution
to: the naive node-at-a-time reference replays the *same* plan without
fusion or arena placement, so optimized-vs-naive must be bitwise
identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.fmr import FmrSpec
from repro.graph.ir import EPILOGUE_OPS, Graph, Node, tensor_nbytes
from repro.util.alignment import round_up

#: Ops whose result keeps its operands' memory order (elementwise ufuncs
#: and maxpool's strided folds), so a channels-last activation can flow
#: through them to the next conv.
LAYOUT_OPS = EPILOGUE_OPS + ("maxpool",)


@dataclass(frozen=True)
class NodePlan:
    """Execution decision for one conv node."""

    name: str
    algorithm: str
    #: The Winograd backend the node runs on (for ``nested``, its inner
    #: r = 3 problem's); None for the baseline algorithms.
    backend: str | None
    #: The node's ``F(m, r)``; None unless the algorithm is winograd.
    fmr: FmrSpec | None
    #: Where the algorithm came from: forced | default, or the portfolio
    #: decision's source (probed | wisdom).
    source: str
    #: Names of epilogue nodes folded into this conv's stage-3 write.
    epilogues: tuple[str, ...]
    #: Tensor name the conv's (epilogue-applied) result is stored under.
    result: str
    #: True when the result is a declared graph output.
    is_output: bool
    #: True when the result is stored channels-last, ``(B, *spatial, C)``
    #: in memory: arena-placed, produced by a non-compiled conv, and
    #: read only by convs through :data:`LAYOUT_OPS` chains.
    channels_last: bool


@dataclass
class GraphPlan:
    """A fully resolved execution plan for one graph."""

    graph: Graph
    order: list[Node]
    shapes: dict[str, tuple[int, ...]]
    dtype: np.dtype
    node_plans: dict[str, NodePlan]
    #: folded node name -> conv node name it rides on.
    folded_into: dict[str, str] = field(default_factory=dict)
    #: Bytes to lease from the arena for intermediate conv activations.
    arena_bytes: int = 0

    @property
    def conv_plans(self) -> list[NodePlan]:
        return [self.node_plans[n.name] for n in self.order if n.op == "conv"]

    def describe(self) -> list[dict[str, object]]:
        """One row per conv: the plan table the CLI prints."""
        rows = []
        for node in self.order:
            if node.op != "conv":
                continue
            np_ = self.node_plans[node.name]
            rows.append(
                {
                    "node": node.name,
                    "algorithm": np_.algorithm,
                    "backend": np_.backend or "-",
                    "source": np_.source,
                    "epilogues": "+".join(np_.epilogues) or "-",
                    "channels_last": np_.channels_last,
                    "shape": self.shapes[node.name],
                }
            )
        return rows


def plan_graph(
    graph: Graph,
    engine,
    *,
    backend: str | None = None,
    algorithm: str | None = None,
    dtype=np.float32,
    fuse: bool = True,
) -> GraphPlan:
    """Resolve per-node algorithms and fold epilogues for ``graph``.

    ``backend``/``algorithm`` mirror :meth:`ConvolutionEngine.run`:
    each conv node resolves through :meth:`ConvolutionEngine.resolve`
    with its own ``fmr`` pin, so ``None`` defers to the engine's
    defaults, ``algorithm="auto"`` engages the portfolio per unpinned
    conv node, and a backend or pin with an explicit baseline algorithm
    is the same contradiction it is on the engine (ValueError).
    ``fuse=False`` disables epilogue folding
    (every node executes standalone) -- the layer-at-a-time shape the
    benchmarks compare against.
    """
    order, shapes = graph.validate()
    dtype = np.dtype(dtype)

    # Consumer map over the original topology (graph outputs count).
    consumers: dict[str, list[Node]] = {}
    for node in order:
        for t in node.inputs:
            consumers.setdefault(t, []).append(node)

    pos = {node.name: i for i, node in enumerate(order)}
    # Tensors whose values exist in the executor's environment when the
    # node at position i dispatches: graph inputs plus every chain-final
    # tensor stored by earlier nodes.  Grown as we walk the order.
    materialized = set(graph.inputs)
    outputs = set(graph.outputs)
    feeds_convs = _feeds_only_convs(consumers, outputs)

    node_plans: dict[str, NodePlan] = {}
    folded_into: dict[str, str] = {}

    for node in order:
        if node.name in folded_into:
            continue
        if node.op != "conv":
            materialized.add(node.name)
            continue

        key = engine.resolve(
            shapes[node.inputs[0]], node.attrs["weights"].shape,
            fmr=node.attr("fmr"), padding=tuple(node.attrs["padding"]),
            dtype=dtype, backend=backend, algorithm=algorithm,
        )

        epilogues: list[str] = []
        tensor = node.name
        if fuse:
            while True:
                if tensor in outputs:
                    break
                cons = consumers.get(tensor, [])
                if len(cons) != 1:
                    break
                nxt = cons[0]
                if nxt.op not in EPILOGUE_OPS:
                    break
                others = [t for t in nxt.inputs if t != tensor]
                if not all(t in materialized for t in others):
                    break
                folded_into[nxt.name] = node.name
                epilogues.append(nxt.name)
                tensor = nxt.name

        node_plans[node.name] = NodePlan(
            name=node.name,
            algorithm=key.algorithm,
            backend=key.backend,
            fmr=key.spec,
            source=key.source,
            epilogues=tuple(epilogues),
            result=tensor,
            is_output=tensor in outputs,
            channels_last=key.name != "compiled" and feeds_convs(tensor),
        )
        materialized.add(tensor)

    align = engine.arena.alignment
    arena_bytes = sum(
        round_up(tensor_nbytes(shapes[p.result], dtype), align)
        for p in node_plans.values()
        if not p.is_output
    )
    return GraphPlan(
        graph=graph,
        order=order,
        shapes=shapes,
        dtype=dtype,
        node_plans=node_plans,
        folded_into=folded_into,
        arena_bytes=arena_bytes,
    )


def _feeds_only_convs(consumers: dict[str, list[Node]], outputs: set[str]):
    """``tensor -> bool``: whether every path from ``tensor`` through
    :data:`LAYOUT_OPS` nodes ends at a conv's data input (memoized over
    the DAG; a graph output or a dead end on any path says no)."""
    memo: dict[str, bool] = {}

    def check(tensor: str) -> bool:
        if tensor not in memo:
            cons = consumers.get(tensor, [])
            memo[tensor] = tensor not in outputs and bool(cons) and all(
                (c.op == "conv" and c.inputs[0] == tensor)
                or (c.op in LAYOUT_OPS and check(c.name))
                for c in cons
            )
        return memo[tensor]

    return check
