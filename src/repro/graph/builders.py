"""Graph builders: evaluation stacks, residual blocks, a topology fuzzer.

Three families:

* the scaled evaluation networks (:func:`graph_scaled_vgg`,
  :func:`graph_scaled_fusionnet`, :func:`graph_scaled_c3d`) -- chains of
  conv / relu / maxpool with each conv pinned to its ``FmrSpec``, the
  paper's "output of one layer is the input to the next" (Sec. 4.1);
* hand-written branching builders (ResNet-style basic and bottleneck
  residual blocks, a BN+GAP+GEMM classifier head) that exercise the
  graph shapes a linear net cannot: skip connections, merges, 1x1
  convolutions where the portfolio planner should ditch Winograd;
* :func:`random_graph`, a seeded DAG fuzzer emitting small valid graphs
  with fan-out, skip connections and diamond merges for the
  differential suite's oracle fuzzing.
"""

from __future__ import annotations

import numpy as np

from repro.core.fmr import FmrSpec
from repro.graph.ir import Graph, GraphError


def _stack(
    name: str, ndim: int, batch: int, stages: list[tuple[int, int, int]],
    padding: int, m: int, seed: int,
) -> Graph:
    """A downsampling stack; stages are ``(c_in, c_out, image_size)``.

    Emits ``conv{i} -> relu{i} -> pool{i}`` per stage (no pool after the
    last), every conv pinned to ``F(m, 3)`` in each dimension.  Only the
    first stage's image size is used; the chain derives the rest.
    Weights come layer by layer from one ``default_rng(seed)``, cast to
    float32 *before* the 0.05 scaling (unlike :func:`_weights`); the
    test suite pins the resulting bytes, since benchmarks build these.
    """
    rng = np.random.default_rng(seed)
    g = Graph(name=name)
    first_c, _, size = stages[0]
    tensor = g.add_input("input", (batch, first_c) + (size,) * ndim)
    for i, (c_in, c_out, _) in enumerate(stages, start=1):
        weights = rng.normal(
            size=(c_in, c_out) + (3,) * ndim
        ).astype(np.float32) * 0.05
        tensor = g.add(
            "conv", f"conv{i}", tensor, weights=weights,
            padding=(padding,) * ndim, fmr=FmrSpec.uniform(ndim, m, 3),
        )
        tensor = g.add("relu", f"relu{i}", tensor)
        if i < len(stages):
            tensor = g.add("maxpool", f"pool{i}", tensor, window=2)
    g.mark_output(tensor)
    return g


def graph_scaled_vgg(batch: int = 1, seed: int = 0) -> Graph:
    """VGG-style 2D detection stack (channels double, images halve)."""
    return _stack(
        "VGG-s", ndim=2, batch=batch,
        stages=[(16, 32, 32), (32, 64, 16), (64, 64, 8)],
        padding=1, m=4, seed=seed,
    )


def graph_scaled_fusionnet(batch: int = 1, seed: int = 0) -> Graph:
    """FusionNet-style 2D segmentation stack (B=1, large images)."""
    return _stack(
        "FusionNet-s", ndim=2, batch=batch,
        stages=[(16, 16, 48), (16, 32, 23)],
        padding=0, m=2, seed=seed,
    )


def graph_scaled_c3d(batch: int = 1, seed: int = 0) -> Graph:
    """C3D-style 3D spatiotemporal stack."""
    return _stack(
        "C3D-s", ndim=3, batch=batch,
        stages=[(16, 16, 12), (16, 32, 6)],
        padding=1, m=2, seed=seed,
    )


# ----------------------------------------------------------------------
def _weights(rng, c_in: int, c_out: int, kernel: tuple[int, ...]) -> np.ndarray:
    return (rng.normal(size=(c_in, c_out) + kernel) * 0.05).astype(np.float32)


def residual_block(
    c: int = 16,
    size: int = 8,
    batch: int = 1,
    *,
    kind: str = "basic",
    ndim: int = 2,
    seed: int = 0,
) -> Graph:
    """A ResNet-style residual block.

    ``kind="basic"``: two 3x3 convs plus identity skip.
    ``kind="bottleneck"``: 1x1 reduce -> 3x3 -> 1x1 expand plus skip --
    the 1x1 convolutions are where a per-node portfolio planner earns
    its keep (Winograd's transform overhead buys nothing at r=1).
    """
    rng = np.random.default_rng(seed)
    g = Graph(name=f"resblock-{kind}")
    k3, k1 = (3,) * ndim, (1,) * ndim
    pad1, pad0 = (1,) * ndim, (0,) * ndim
    x = g.add_input("x", (batch, c) + (size,) * ndim)
    if kind == "basic":
        t = g.add("conv", "c1", x, weights=_weights(rng, c, c, k3), padding=pad1)
        t = g.add("relu", "r1", t)
        t = g.add("conv", "c2", t, weights=_weights(rng, c, c, k3), padding=pad1)
        t = g.add("add", "sum", (t, x))
    elif kind == "bottleneck":
        mid = max(c // 4, 4)
        t = g.add("conv", "c1", x, weights=_weights(rng, c, mid, k1), padding=pad0)
        t = g.add("relu", "r1", t)
        t = g.add("conv", "c2", t, weights=_weights(rng, mid, mid, k3), padding=pad1)
        t = g.add("relu", "r2", t)
        t = g.add("conv", "c3", t, weights=_weights(rng, mid, c, k1), padding=pad0)
        t = g.add("add", "sum", (t, x))
    else:
        raise GraphError("bad_attr", f"unknown residual kind {kind!r}")
    g.mark_output(g.add("relu", "out", t))
    return g


def toy_classifier(
    c: int = 8,
    size: int = 12,
    classes: int = 10,
    batch: int = 2,
    *,
    seed: int = 0,
) -> Graph:
    """conv -> relu -> pool -> conv -> batchnorm -> relu -> gap -> gemm.

    Small end-to-end head exercising every IR op the evaluation stacks
    do not (batchnorm, gap, gemm).
    """
    rng = np.random.default_rng(seed)
    g = Graph(name="toy-classifier")
    t = g.add_input("x", (batch, c, size, size))
    t = g.add("conv", "c1", t, weights=_weights(rng, c, c, (3, 3)), padding=(1, 1))
    t = g.add("relu", "r1", t)
    t = g.add("maxpool", "p1", t, window=2)
    t = g.add("conv", "c2", t, weights=_weights(rng, c, 2 * c, (3, 3)), padding=(1, 1))
    t = g.add(
        "batchnorm", "bn2", t,
        scale=(rng.normal(size=2 * c).astype(np.float32) * 0.1 + 1.0),
        shift=(rng.normal(size=2 * c).astype(np.float32) * 0.1),
    )
    t = g.add("relu", "r2", t)
    t = g.add("gap", "pool", t)
    t = g.add(
        "gemm", "logits", t,
        weights=(rng.normal(size=(2 * c, classes)) * 0.1).astype(np.float32),
        bias=(rng.normal(size=classes) * 0.1).astype(np.float32),
    )
    g.mark_output(t)
    return g


# ----------------------------------------------------------------------
# Seeded DAG fuzzer
# ----------------------------------------------------------------------
def random_graph(
    rng: np.random.Generator,
    *,
    ndim: int = 2,
    max_nodes: int = 7,
    batch: int = 1,
) -> Graph:
    """One random valid DAG from a seeded generator.

    Convolutions are channel-preserving 3x3 (pad 1), so every tensor at
    a given spatial size is merge-compatible -- which is what lets the
    fuzzer create genuine fan-out (one tensor consumed twice), skip
    connections (merge with a much earlier tensor) and diamond shapes
    (two branches off one tensor, merged back), not just chains.
    Downsampling via occasional maxpool partitions tensors into shape
    classes; merges draw both operands from one class.
    """
    c = int(rng.choice([4, 8]))
    size = int(rng.choice([6, 8])) if ndim == 3 else int(rng.choice([8, 10, 12]))
    g = Graph(name="fuzz")
    g.add_input("x", (batch, c) + (size,) * ndim)
    shapes: dict[str, tuple[int, ...]] = {"x": (batch, c) + (size,) * ndim}
    n_nodes = int(rng.integers(3, max_nodes + 1))
    for i in range(n_nodes):
        name = f"n{i}"
        # Bias toward recent tensors (chains) but keep old ones live
        # (skip connections / fan-out).
        names = list(shapes)
        weights = np.arange(1, len(names) + 1, dtype=np.float64)
        weights /= weights.sum()
        src = names[int(rng.choice(len(names), p=weights))]
        sshape = shapes[src]
        ops = ["conv", "conv", "relu", "batchnorm", "mul"]
        peers = [t for t in names if t != src and shapes[t] == sshape]
        if peers:
            ops += ["add", "add"]  # favor merges when one is possible
        if min(sshape[2:]) >= 4:
            ops.append("maxpool")
        op = ops[int(rng.choice(len(ops)))]
        if op == "conv":
            g.add(
                "conv", name, src,
                weights=_weights(rng, c, c, (3,) * ndim),
                padding=(1,) * ndim,
            )
            shapes[name] = sshape
        elif op == "relu":
            g.add("relu", name, src)
            shapes[name] = sshape
        elif op == "batchnorm":
            g.add(
                "batchnorm", name, src,
                scale=(rng.normal(size=c).astype(np.float32) * 0.1 + 1.0),
                shift=(rng.normal(size=c).astype(np.float32) * 0.1),
            )
            shapes[name] = sshape
        elif op == "mul":
            g.add("mul", name, (src, src))  # fan-out: same tensor twice
            shapes[name] = sshape
        elif op == "add":
            other = peers[int(rng.choice(len(peers)))]
            g.add("add", name, (src, other))
            shapes[name] = sshape
        else:  # maxpool
            g.add("maxpool", name, src, window=2)
            shapes[name] = sshape[:2] + tuple(s // 2 for s in sshape[2:])
    g.mark_output(f"n{n_nodes - 1}")
    g.validate()
    return g
