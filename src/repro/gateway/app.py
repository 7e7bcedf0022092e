"""The partition gateway: asyncio HTTP/1.1 REST front end + metrics.

:class:`PartitionGateway` serves the full service op surface over REST
(see the route table in :meth:`PartitionGateway._build_router`), either
off an in-process :class:`~repro.gateway.backend.LocalBackend` or
proxying a TCP/UDS partition service through a
:class:`~repro.gateway.backend.RemoteBackend`.  Request flow::

    read_request -> auth (bearer + rate limit) -> route -> validate
        -> backend call in the thread pool -> JSON response

Every failure becomes the canonical error body
(``{"ok": false, "error": {"code", "message"}}``) with the HTTP status
:data:`repro.gateway.schemas.HTTP_STATUS` assigns the wire code — the
REST API and the wire protocol share one error taxonomy.

Pushes ride the same :class:`~repro.service.batching.PushBatcher` as
the TCP server: concurrent ``POST .../deltas`` requests for one session
compose into one micro-batch (one WAL fsync, one policy check, at most
one LP solve).

Metrics: a :class:`~repro.gateway.metrics.MetricsRegistry` serves
``GET /metrics`` in Prometheus text format — gateway request counters
and per-op latency histograms observed around every request, manager-op
latency histograms fed by :attr:`SessionManager.on_op` (local mode),
and a scrape-time collector mirroring the live ``stats`` counters (WAL
records/fsyncs, LP pivots, evictions, checkpoints, sessions resident,
shard block loads).

Graceful shutdown: on SIGTERM/SIGINT (or ``POST /shutdown``) the
gateway stops accepting, drains in-flight push queues, checkpoints
every dirty session (local mode — the remote service owns its own
state), then exits 0.
"""

from __future__ import annotations

import json
import logging
from functools import partial

from repro.errors import ServiceError
from repro.gateway import http as ghttp
from repro.gateway import schemas
from repro.gateway.auth import AuthError, Authenticator, parse_token_spec
from repro.gateway.backend import LocalBackend, RemoteBackend
from repro.gateway.metrics import MetricsRegistry
from repro.obs import export as obs_export
from repro.obs import get_tracer
from repro.service import ops, protocol
from repro.service.ops import Router, RoutingError
from repro.service.server import Endpoint

__all__ = ["PartitionGateway"]

logger = logging.getLogger(__name__)

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"


class PartitionGateway(Endpoint):
    """HTTP/REST + metrics front half of the partition service.

    Parameters
    ----------
    backend:
        a :class:`LocalBackend` (in-process ``SessionManager``) or
        :class:`RemoteBackend` (proxy to a TCP/UDS service).
    host / port:
        HTTP bind address; ``port=0`` picks a free port (resolved on
        :meth:`start`).
    uds:
        serve HTTP over a Unix domain socket at this path instead of
        TCP (curl: ``--unix-socket``).
    tokens:
        ``(principal, secret)`` bearer tokens; empty means open dev
        mode (see :mod:`repro.gateway.auth`).
    rate / burst:
        per-principal token-bucket rate limit (``rate=None`` disables).
    max_workers:
        thread-pool size for blocking backend calls.
    allow_shutdown:
        whether ``POST /shutdown`` is honoured.
    registry:
        share a :class:`MetricsRegistry` (tests); default builds one.
    """

    kind = "gateway"

    def __init__(
        self,
        backend: LocalBackend | RemoteBackend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        uds: str | None = None,
        tokens: list[tuple[str, str]] | None = None,
        rate: float | None = None,
        burst: int = 20,
        max_workers: int | None = None,
        allow_shutdown: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.backend = backend
        # Local mode checkpoints every dirty session at shutdown; the
        # remote proxy only closes its transports.
        super().__init__(
            host=host,
            port=port,
            uds=uds,
            max_workers=max_workers,
            allow_shutdown=allow_shutdown,
            push_fn=backend.push_batch,
            close_fn=backend.close,
            manager=getattr(backend, "manager", None),
        )
        self.auth = Authenticator(tokens or (), rate=rate, burst=burst)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._init_metrics()
        self.router = self._build_router()

    # ------------------------------------------------------------------
    # Metrics wiring
    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        reg = self.registry
        self._m_requests = reg.counter(
            "repro_gateway_requests_total",
            "HTTP requests handled, by routed op and response status",
        )
        self._m_latency = reg.histogram(
            "repro_gateway_request_seconds",
            "End-to-end HTTP request latency by routed op",
        )
        self._m_op_latency = reg.histogram(
            "repro_service_op_seconds",
            "SessionManager operation latency by op (in-process backend)",
        )
        self._m_counters = reg.counter(
            "repro_service_events_total",
            "SessionManager lifetime counters mirrored at scrape time "
            "(pushes, flushes, checkpoints, WAL records/fsyncs/replays, "
            "LP pivots, evictions, ...)",
        )
        self._m_resident = reg.gauge(
            "repro_service_sessions_resident",
            "Sessions currently holding live in-memory state",
        )
        self._m_known = reg.gauge(
            "repro_service_sessions_known",
            "Named sessions known on disk or in memory",
        )
        self._m_block_loads = reg.counter(
            "repro_service_shard_block_loads_total",
            "Shard block cache misses per sharded session",
        )
        self._m_phase = reg.histogram(
            "repro_flush_phase_seconds",
            "Flush LP-phase latency drained from finished tracer spans "
            "(populated only while tracing is enabled)",
        )
        self._trace_seq = 0
        reg.register_collector(self._collect_backend_stats)
        reg.register_collector(self._collect_phase_latency)
        if self._manager is not None:
            self._manager.on_op = lambda op, seconds: self._m_op_latency.observe(
                seconds, {"op": op}
            )

    def _collect_backend_stats(self) -> None:
        """Scrape-time mirror of the live ``stats`` surface.  Runs in
        the thread pool (the ``/metrics`` handler renders off-loop), so
        the blocking backend call is fine here."""
        try:
            stats = self.backend.call("stats")
        except ServiceError as exc:
            # A proxy whose service is briefly unreachable still serves
            # its own gateway-side series.
            logger.warning("stats collection for /metrics failed: %s", exc)
            return
        for name, value in (stats.get("counters") or {}).items():
            self._m_counters.set_total(float(value), {"event": name})
        self._m_resident.set(float(stats.get("resident") or 0))
        sessions = stats.get("sessions") or {}
        self._m_known.set(float(len(sessions)))
        for name, entry in sessions.items():
            loads = entry.get("block_loads")
            if loads is not None:
                self._m_block_loads.set_total(
                    float(loads), {"session": name}
                )

    #: span name -> ``phase`` label for the flush-phase histogram.
    _PHASE_SPANS = {
        "flush": "flush",
        "flush.apply": "apply",
        "lp.assign": "assign",
        "lp.layer": "layering",
        "lp.balance": "lp",
        "lp.move": "move",
        "lp.refine": "refine",
        "wal.fsync": "wal_fsync",
    }

    def _collect_phase_latency(self) -> None:
        """Scrape-time drain of freshly finished tracer spans into the
        per-phase latency histogram (only spans recorded locally —
        remote-proxy deployments profile in the service process)."""
        tracer = get_tracer()
        self._trace_seq, fresh = tracer.spans_since(self._trace_seq)
        for sp in fresh:
            phase = self._PHASE_SPANS.get(sp.name)
            if phase is not None and sp.duration_s is not None:
                self._m_phase.observe(sp.duration_s, {"phase": phase})

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _build_router(self) -> Router:
        """One route per op-table row (and alias); rows whose HTTP
        behaviour differs get a dedicated handler, every other op the
        generic one."""
        dedicated = {
            "create": self._h_create,
            "push": self._h_push,
            "labels": self._h_labels,
            "ping": self._h_healthz,
            "shutdown": self._h_shutdown,
        }
        r = Router()
        for op in ops.OPS:
            handler = dedicated.get(op.name) or partial(self._h_op, op)
            label = "healthz" if op.wire == "ping" else op.wire
            for method, path in op.routes:
                r.add(method, path, handler, op=label)
        r.add("GET", "/metrics", self._h_metrics, op="metrics")
        # NOT in auth.EXEMPT_PATHS: trace summaries can leak workload
        # shape, so they sit behind the same bearer auth as /stats.
        r.add("GET", "/traces", self._h_traces, op="traces")
        return r

    # -- handlers -------------------------------------------------------
    # Each returns (status, json-serializable dict) or (status, raw
    # bytes, content type).
    async def _h_op(self, op: ops.Op, request, params) -> tuple:
        """Every plain op: no body, the session from the path."""
        session, args = ops.call_args(op, params, request.query, {})
        return 200, await self._blocking(self.backend.call, op.wire, session, **args)

    async def _h_healthz(self, request, params) -> tuple:
        return 200, {"ok": True, "protocol": protocol.PROTOCOL_VERSION}

    async def _h_metrics(self, request, params) -> tuple:
        # Rendering runs the collectors, which call the (blocking)
        # stats surface — keep the whole scrape off the event loop.
        text = await self._blocking(self.registry.render)
        return 200, text.encode("utf-8"), _PROM

    async def _h_create(self, request, params) -> tuple:
        body = schemas.parse_json_body(request.body, empty_ok=False)
        schemas.check_fields(
            body, schemas.SESSION_FIELDS, required=("name", "partitions")
        )
        session, args = ops.call_args(
            ops.op_named("create"), params, request.query, body
        )
        return 201, await self._blocking(self.backend.call, "create", session, **args)

    async def _h_push(self, request, params) -> tuple:
        body = schemas.parse_json_body(request.body, empty_ok=False)
        schemas.check_fields(
            body, {"delta": (str,), "deltas": (list,)}, where="push body"
        )
        if ("delta" in body) == ("deltas" in body):
            raise ServiceError(
                "push body requires exactly one of 'delta' (one base64 npz "
                "payload) or 'deltas' (a list of them)",
                code="bad-request",
            )
        if "delta" in body:
            # Single delta: ride the cross-request micro-batcher.
            return 200, await self._batcher.push(params["name"], body["delta"])
        deltas = body["deltas"]
        if not deltas or not all(isinstance(d, str) for d in deltas):
            raise ServiceError(
                "'deltas' must be a non-empty list of base64 npz strings",
                code="bad-request",
            )
        # A client-side batch is already composed: apply it as one
        # micro-batch directly (one WAL record).
        return 200, await self._blocking(
            self.backend.push_batch, params["name"], deltas
        )

    async def _h_labels(self, request, params) -> tuple:
        result = await self._blocking(
            self.backend.call, "query", params["name"], labels=True
        )
        return 200, {"name": params["name"], "labels": result.get("labels")}

    async def _h_traces(self, request, params) -> tuple:
        """Last-N trace summaries off the in-process tracer ring."""
        raw_n = request.query.get("n", "20")
        try:
            n = int(raw_n)
        except ValueError:
            raise ServiceError(
                f"query parameter 'n' must be an integer, got {raw_n!r}",
                code="bad-request",
            ) from None
        if n < 1:
            raise ServiceError(
                "query parameter 'n' must be >= 1", code="bad-request"
            )
        tracer = get_tracer()
        rows = obs_export.span_rows(tracer.finished())
        groups = obs_export.trace_groups(rows)
        traces = []
        for trace_id, spans in list(groups.items())[-n:]:
            traces.append(
                {
                    "trace_id": trace_id,
                    "spans": len(spans),
                    "total_s": sum(s.get("dur_us", 0) for s in spans) / 1e6,
                    "names": sorted({str(s.get("name", "?")) for s in spans}),
                }
            )
        return 200, {
            "enabled": tracer.enabled,
            "spans": len(rows),
            "traces": traces,
            "summary": obs_export.summarize(rows),
        }

    async def _h_shutdown(self, request, params) -> tuple:
        return 200, self._shutdown_requested()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_one(self, reader, writer) -> bool:
        try:
            request = await ghttp.read_request(reader, writer)
        except ghttp.HTTPError as exc:
            # Framing-level failure: answer once, then hang up (the byte
            # stream cannot be resynchronized).  No request was parsed,
            # so the id is freshly minted.
            rid = get_tracer().mint_trace_id()
            body = schemas.error_body(exc.code, str(exc), request_id=rid)
            writer.write(
                ghttp.response_bytes(
                    exc.status, body, headers={"X-Request-Id": rid}, keep_alive=False
                )
            )
            await writer.drain()
            return False
        if request is None:
            return False  # clean EOF between requests
        writer.write(await self._respond(request))
        await writer.drain()
        return request.keep_alive

    async def _respond(self, request: ghttp.HTTPRequest) -> bytes:
        """Run one request through auth → route → handler and serialize
        the response (success or canonical error body).

        The whole request runs under an ``http.request`` span — the root
        of the distributed trace that propagates through the thread pool
        (``wrap_context``), the push batcher and, in remote mode, the
        wire envelope's ``trace`` field.  Every response carries
        ``X-Request-Id`` (echoing the client's header when present,
        else the trace id), and every error body repeats it as
        ``request_id`` so a failing request is greppable end to end.
        """
        tracer = get_tracer()
        rid = request.header("x-request-id").strip()
        op = "unrouted"
        status = 500
        headers: dict[str, str] = {}
        sp = None
        try:
            with tracer.span(
                "http.request",
                {"method": request.method, "path": request.path},
            ) as sp:
                if not rid:
                    rid = sp.trace_id or tracer.mint_trace_id()
                sp.set("request_id", rid)
                headers["X-Request-Id"] = rid
                try:
                    self.auth.check(request)
                    match = self.router.resolve(request.method, request.path)
                    op = match.route.op
                    sp.set("op", op)
                    result = await match.route.handler(request, match.params)
                    if len(result) == 3:
                        status, payload, content_type = result
                    else:
                        (status, obj), content_type = result, _JSON
                        payload = json.dumps(
                            {"ok": True, "result": obj}, separators=(",", ":")
                        ).encode("utf-8")
                    sp.set("status", status)
                    return ghttp.response_bytes(
                        status,
                        payload,
                        content_type=content_type,
                        headers=headers,
                        keep_alive=request.keep_alive,
                    )
                # repro: ignore[RPR501] - boundary: every failure becomes an error body
                except Exception as exc:
                    code = protocol.error_code(exc)
                    status = schemas.status_for(code)
                    sp.set("status", status)
                    sp.set("error_code", code)
                    if isinstance(exc, AuthError):
                        if code == "unauthorized":
                            headers["WWW-Authenticate"] = "Bearer"
                        if exc.retry_after is not None:
                            headers["Retry-After"] = str(
                                max(1, int(exc.retry_after + 0.999))
                            )
                    if isinstance(exc, RoutingError) and exc.allow:
                        headers["Allow"] = ", ".join(exc.allow)
                    if status >= 500 and code in ("internal",):
                        logger.exception(
                            "internal error handling %s %s",
                            request.method,
                            request.path,
                        )
                    return ghttp.response_bytes(
                        status,
                        schemas.error_body(code, str(exc), request_id=rid),
                        headers=headers,
                        keep_alive=request.keep_alive,
                    )
        finally:
            # Outside the ``with`` so the span's duration is final.
            self._m_requests.inc({"op": op, "status": str(status)})
            if sp is not None and sp.duration_s is not None:
                self._m_latency.observe(sp.duration_s, {"op": op})

    @staticmethod
    def parse_tokens(specs: list[str] | None) -> list[tuple[str, str]]:
        """Parse CLI ``--token`` specs (``name=secret`` or ``secret``)."""
        return [parse_token_spec(spec) for spec in specs or []]
