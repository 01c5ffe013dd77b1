"""Whole-graph execution: DAG IR, per-node planner, graph executor."""

from repro.graph.builders import (
    graph_scaled_c3d,
    graph_scaled_fusionnet,
    graph_scaled_vgg,
    random_graph,
    residual_block,
    toy_classifier,
)
from repro.graph.executor import (
    GraphExecutor,
    eval_node,
    execute_plan_naive,
    oracle_execute,
)
from repro.graph.ir import EPILOGUE_OPS, OPS, Graph, GraphError, Node
from repro.graph.planner import GraphPlan, NodePlan, plan_graph

__all__ = [
    "EPILOGUE_OPS",
    "OPS",
    "Graph",
    "GraphError",
    "GraphExecutor",
    "GraphPlan",
    "Node",
    "NodePlan",
    "eval_node",
    "execute_plan_naive",
    "graph_scaled_c3d",
    "graph_scaled_fusionnet",
    "graph_scaled_vgg",
    "oracle_execute",
    "plan_graph",
    "random_graph",
    "residual_block",
    "toy_classifier",
]
