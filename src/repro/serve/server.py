"""Asyncio TCP serving front-end for the convolution engine.

One :class:`ConvServer` owns (or borrows) a
:class:`~repro.core.engine.ConvolutionEngine` and exposes it over the
JSON-lines protocol in :mod:`repro.serve.protocol`.  Concurrency model:

* each accepted connection gets a reader loop; control ops (``hello``,
  ``register``, ``stats``) are answered inline, while every ``infer``
  is spawned as its own task so a connection can keep many requests in
  flight and replies return **out of order**, matched by ``id``;
* all infer paths funnel into one shared
  :class:`~repro.serve.batcher.DynamicBatcher`, which coalesces
  same-shape requests -- across connections and therefore across
  clients -- into single batched engine dispatches;
* writes to a connection are serialized by a per-connection lock so
  interleaved task replies never corrupt the line framing.

The engine's own fallback chain is live underneath: a failed codelet
build mid-batch degrades the batch to the fused backend and every
request in it still gets a correct reply (``tests/test_serve_load.py``
breaks the build to hold the server to that).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.engine import ConvolutionEngine
from repro.graph.executor import GraphExecutor
from repro.graph.ir import Graph, GraphError
from repro.obs.metrics import MetricsRegistry, labeled
from repro.serve.batcher import BatchKey, DynamicBatcher
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    decode_tensor,
    encode_message,
    encode_tensor,
    tensor_digest,
)
from repro.serve.tenants import TenantManager, TenantQuota

#: Default per-connection stream read limit; one JSON line (incl. its
#: base64 tensor payload) must fit under it.
DEFAULT_READ_LIMIT = 64 << 20


@dataclass(frozen=True)
class Model:
    """One registered kernel tensor plus its conv padding."""

    name: str
    kernels: np.ndarray
    padding: tuple[int, ...]


@dataclass(frozen=True)
class GraphModel:
    """One registered whole-network DAG plus its planned executor.

    Graph inference runs the executor in a worker thread and bypasses
    the :class:`~repro.serve.batcher.DynamicBatcher`: the graph path
    already amortizes per-dispatch overheads internally (one arena
    lease, folded epilogues, per-node plans), and cross-request
    coalescing of whole-network passes would need per-node batching
    semantics the IR does not promise.  Single-conv models remain the
    batcher's domain.
    """

    name: str
    graph: Graph
    executor: GraphExecutor
    input_name: str
    input_shape: tuple[int, ...]
    output_name: str


class ModelRegistry:
    """``(tenant, model-name) -> Model`` map; registration is per-tenant.

    Namespacing by tenant is part of the isolation story: tenants can
    neither read nor collide with each other's kernels, and the batcher
    key includes the tenant so two tenants' same-named models never
    coalesce into one dispatch.
    """

    def __init__(self):
        self._models: dict[tuple[str, str], Model] = {}
        self._graphs: dict[tuple[str, str], GraphModel] = {}
        self._lock = threading.Lock()

    def register(
        self, tenant: str, name: str, kernels: np.ndarray, padding: tuple[int, ...]
    ) -> Model:
        if kernels.ndim < 3:
            raise ProtocolError(
                "bad_request",
                f"kernels must be (C, K, *r), got shape {kernels.shape}",
            )
        ndim = kernels.ndim - 2
        if len(padding) != ndim:
            raise ProtocolError(
                "bad_request",
                f"padding {padding} must have {ndim} entries for "
                f"{ndim}-d kernels {kernels.shape}",
            )
        model = Model(name=name, kernels=kernels, padding=tuple(padding))
        with self._lock:
            self._models[(tenant, name)] = model
            self._graphs.pop((tenant, name), None)
        return model

    def register_graph(self, tenant: str, name: str, graph: Graph, engine) -> GraphModel:
        """Validate, plan, and store a whole-network graph model.

        Serving requires exactly one input and one output (the infer
        protocol carries one tensor each way); the graph is planned
        eagerly so registration surfaces plan errors and infer hits a
        warm executor.
        """
        try:
            graph.validate()
            executor = GraphExecutor(graph, engine)
        except GraphError as exc:
            raise ProtocolError("bad_request", f"invalid graph: {exc}") from exc
        if len(graph.inputs) != 1 or len(graph.outputs) != 1:
            raise ProtocolError(
                "bad_request",
                f"graph models need exactly one input and one output, got "
                f"{sorted(graph.inputs)} -> {list(graph.outputs)}",
            )
        input_name = next(iter(graph.inputs))
        model = GraphModel(
            name=name,
            graph=graph,
            executor=executor,
            input_name=input_name,
            input_shape=graph.inputs[input_name],
            output_name=graph.outputs[0],
        )
        with self._lock:
            self._graphs[(tenant, name)] = model
            # One namespace per tenant: a graph registration shadows any
            # conv model of the same name rather than leaving infer
            # routing ambiguous.
            self._models.pop((tenant, name), None)
        return model

    def get_graph(self, tenant: str, name: str) -> GraphModel | None:
        """The graph model, or None when ``name`` is not a graph."""
        with self._lock:
            return self._graphs.get((tenant, name))

    def get(self, tenant: str, name: str) -> Model:
        with self._lock:
            model = self._models.get((tenant, name))
        if model is None:
            raise ProtocolError(
                "unknown_model",
                f"tenant {tenant!r} has no registered model {name!r}",
            )
        return model


class ConvServer:
    """TCP front-end: accept loop + shared dynamic batcher + quotas."""

    def __init__(
        self,
        engine: ConvolutionEngine | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 8,
        window_ms: float = 2.0,
        max_pending: int = 1024,
        max_queue_per_key: int = 256,
        dispatch_threads: int = 2,
        default_quota: TenantQuota | None = None,
        read_limit: int = DEFAULT_READ_LIMIT,
        backend: str = "fused",
    ):
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else ConvolutionEngine(
            backend=backend
        )
        self.metrics: MetricsRegistry = self.engine.metrics
        self.models = ModelRegistry()
        self.tenants = TenantManager(default_quota, metrics=self.metrics)
        self.batcher = DynamicBatcher(
            self.engine,
            self.models,
            max_batch=max_batch,
            window_ms=window_ms,
            max_pending=max_pending,
            max_queue_per_key=max_queue_per_key,
            dispatch_threads=dispatch_threads,
            tenants=self.tenants,
            metrics=self.metrics,
        )
        self.host = host
        self.port = port
        self.read_limit = read_limit
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves the actual port for port 0."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=self.read_limit
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, fail queued work, release engine if owned."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await self.batcher.stop()
        if self._owns_engine:
            self.engine.close()

    async def __aenter__(self) -> "ConvServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = {"tenant": "default"}
        write_lock = asyncio.Lock()
        infer_tasks: set[asyncio.Task] = set()
        self.metrics.counter("serve.connections").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Line exceeded the stream limit; the framing is now
                    # unrecoverable, so report and drop the connection.
                    await self._send(
                        writer,
                        write_lock,
                        ProtocolError(
                            "bad_request",
                            f"message exceeds read limit {self.read_limit} B",
                        ).as_reply(),
                    )
                    break
                if not line:
                    break
                try:
                    msg = decode_message(line)
                except ProtocolError as exc:
                    await self._send(writer, write_lock, exc.as_reply())
                    continue
                op = msg.get("op")
                if op == "infer":
                    task = asyncio.create_task(
                        self._handle_infer(msg, state, writer, write_lock)
                    )
                    infer_tasks.add(task)
                    task.add_done_callback(infer_tasks.discard)
                else:
                    reply = self._handle_control(op, msg, state)
                    await self._send(writer, write_lock, reply)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            # Let in-flight infers resolve their futures (and release
            # tenant pending slots) even though the peer is gone.
            for task in infer_tasks:
                task.cancel()
            if infer_tasks:
                await asyncio.gather(*infer_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer, write_lock: asyncio.Lock, msg: dict) -> None:
        data = encode_message(msg)
        async with write_lock:
            writer.write(data)
            await writer.drain()

    # -- control ops (answered inline, in order) -----------------------
    def _handle_control(self, op, msg: dict, state: dict) -> dict:
        request_id = msg.get("id")
        try:
            if op == "hello":
                tenant = msg.get("tenant", "default")
                if not isinstance(tenant, str) or not tenant:
                    raise ProtocolError("bad_request", "tenant must be a non-empty string")
                state["tenant"] = tenant
                reply = {
                    "ok": True,
                    "op": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "tenant": tenant,
                }
            elif op == "register":
                name = msg.get("model")
                if not isinstance(name, str) or not name:
                    raise ProtocolError("bad_request", "model must be a non-empty string")
                kernels = decode_tensor(msg.get("kernels"))
                padding = msg.get("padding", [0] * (kernels.ndim - 2))
                if not isinstance(padding, list) or not all(
                    isinstance(p, int) and p >= 0 for p in padding
                ):
                    raise ProtocolError(
                        "bad_request", "padding must be a list of ints >= 0"
                    )
                model = self.models.register(
                    state["tenant"], name, kernels, tuple(padding)
                )
                reply = {
                    "ok": True,
                    "op": "register",
                    "model": name,
                    "c_in": int(model.kernels.shape[0]),
                    "c_out": int(model.kernels.shape[1]),
                }
            elif op == "register_graph":
                name = msg.get("model")
                if not isinstance(name, str) or not name:
                    raise ProtocolError("bad_request", "model must be a non-empty string")
                payload = msg.get("graph")
                if not isinstance(payload, dict):
                    raise ProtocolError("bad_request", "graph must be a graph dict")
                try:
                    graph = Graph.from_dict(payload, tensor_decoder=decode_tensor)
                except GraphError as exc:
                    raise ProtocolError("bad_request", f"invalid graph: {exc}") from exc
                model = self.models.register_graph(
                    state["tenant"], name, graph, self.engine
                )
                plan = model.executor.plan
                reply = {
                    "ok": True,
                    "op": "register_graph",
                    "model": name,
                    "nodes": len(plan.order),
                    "convs": len(plan.conv_plans),
                    "folded": len(plan.folded_into),
                    "input_shape": list(model.input_shape),
                    "algorithms": {
                        p.name: p.algorithm for p in plan.conv_plans
                    },
                }
            elif op == "stats":
                reply = {
                    "ok": True,
                    "op": "stats",
                    "metrics": self.metrics.snapshot(),
                    "tenants": self.tenants.snapshot(),
                    "plan_cache": {
                        "entries": len(self.engine.plans),
                        "bytes": self.engine.plans.stats.bytes_cached,
                    },
                }
            else:
                raise ProtocolError("bad_request", f"unknown op {op!r}")
        except ProtocolError as exc:
            return exc.as_reply(request_id)
        if request_id is not None:
            reply["id"] = request_id
        return reply

    # -- infer (spawned per request, replies out of order) -------------
    async def _handle_infer(
        self, msg: dict, state: dict, writer, write_lock: asyncio.Lock
    ) -> None:
        request_id = msg.get("id")
        tenant = state["tenant"]
        t0 = time.perf_counter()
        try:
            if request_id is None:
                raise ProtocolError("bad_request", "infer requires an 'id'")
            name = msg.get("model")
            if not isinstance(name, str) or not name:
                raise ProtocolError("bad_request", "model must be a non-empty string")
            respond = msg.get("respond", "full")
            if respond not in ("full", "checksum"):
                raise ProtocolError(
                    "bad_request", f"respond must be 'full' or 'checksum', got {respond!r}"
                )
            images = decode_tensor(msg.get("images"))
            gmodel = self.models.get_graph(tenant, name)
            if gmodel is not None:
                await self._infer_graph(
                    gmodel, images, respond, request_id, tenant, t0,
                    writer, write_lock,
                )
                return
            model = self.models.get(tenant, name)
            if images.ndim != model.kernels.ndim:
                raise ProtocolError(
                    "bad_request",
                    f"images rank {images.ndim} does not match model "
                    f"{name!r} kernels rank {model.kernels.ndim}",
                )
            if images.ndim < 3 or images.shape[0] < 1:
                raise ProtocolError(
                    "bad_request", f"images must be (B>=1, C, *spatial), got {images.shape}"
                )
            if images.shape[1] != model.kernels.shape[0]:
                raise ProtocolError(
                    "bad_request",
                    f"images have {images.shape[1]} channels, model {name!r} "
                    f"expects {model.kernels.shape[0]}",
                )
            key = BatchKey(
                tenant=tenant,
                model=name,
                signature=tuple(images.shape[1:]),
                dtype=images.dtype.name,
            )
            result = await self.batcher.submit(key, images)
            reply = {
                "ok": True,
                "id": request_id,
                "model": name,
                "batched": result.batch_size,
                "padded_to": result.padded_to,
                "digest": tensor_digest(result.output),
            }
            if respond == "full":
                reply["output"] = encode_tensor(result.output)
            self.metrics.counter(labeled("serve.requests", tenant=tenant)).inc()
            self.metrics.histogram(
                labeled("serve.request_seconds", tenant=tenant)
            ).observe(time.perf_counter() - t0)
        except ProtocolError as exc:
            reply = exc.as_reply(request_id)
        except asyncio.CancelledError:
            return
        except Exception as exc:  # noqa: BLE001 - fault boundary
            reply = ProtocolError("internal", f"{type(exc).__name__}: {exc}").as_reply(
                request_id
            )
        try:
            await self._send(writer, write_lock, reply)
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _infer_graph(
        self, model: GraphModel, images: np.ndarray, respond: str,
        request_id, tenant: str, t0: float, writer, write_lock: asyncio.Lock,
    ) -> None:
        """One whole-network pass; runs off-loop, bypasses the batcher."""
        try:
            if tuple(images.shape) != model.input_shape:
                raise ProtocolError(
                    "bad_request",
                    f"graph model {model.name!r} expects input shape "
                    f"{model.input_shape}, got {tuple(images.shape)}",
                )
            try:
                outputs = await asyncio.to_thread(model.executor.run, images)
            except GraphError as exc:
                raise ProtocolError("bad_request", str(exc)) from exc
            output = outputs[model.output_name]
            reply = {
                "ok": True,
                "id": request_id,
                "model": model.name,
                "graph": True,
                "digest": tensor_digest(output),
            }
            if respond == "full":
                reply["output"] = encode_tensor(output)
            self.metrics.counter(labeled("serve.graph_requests", tenant=tenant)).inc()
            self.metrics.histogram(
                labeled("serve.request_seconds", tenant=tenant)
            ).observe(time.perf_counter() - t0)
        except ProtocolError as exc:
            reply = exc.as_reply(request_id)
        except asyncio.CancelledError:
            return
        except Exception as exc:  # noqa: BLE001 - fault boundary
            reply = ProtocolError("internal", f"{type(exc).__name__}: {exc}").as_reply(
                request_id
            )
        try:
            await self._send(writer, write_lock, reply)
        except (ConnectionResetError, BrokenPipeError):
            pass
