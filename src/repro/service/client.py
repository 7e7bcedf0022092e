"""One typed client for the partition service, over two transports.

:class:`Client` has one method per row of the op table
(:data:`repro.service.ops.OPS`).  Each method builds its row's REST
route and sends it through :meth:`Client.request`; the transport
decides how the request travels:

* :class:`HTTPTransport` — REST over one kept-alive :mod:`http.client`
  connection to a :class:`~repro.gateway.app.PartitionGateway`, over TCP
  or a Unix socket, with an optional bearer token.  :class:`Client`
  speaks it; :class:`repro.gateway.GatewayClient` is the same class.
* :class:`FrameTransport` — the v1 length-prefixed frame
  (:mod:`repro.service.protocol`) to a
  :class:`~repro.service.server.PartitionServer`, over TCP or a Unix
  socket.  It maps each route back to ``(op, session, args)`` with
  :func:`repro.service.ops.resolve_target` and carries the caller's
  trace context in the envelope.  :class:`ServiceClient` speaks it.

::

    from repro.gateway import GatewayClient
    from repro.service import ServiceClient

    with GatewayClient(port=8421, token="ops=s3cret") as gw:  # HTTP
        gw.create("social", partitions=8,
                  source={"source": "churn", "steps": 10, "seed": 3},
                  policy={"weight_fraction": None, "imbalance_limit": None,
                          "max_pending": 1},
                  config={"lp_backend": "revised"})
        for delta in deltas:
            gw.push("social", delta)
        print(gw.quality("social"), gw.list_sessions())
    with ServiceClient(port=7421) as svc:  # the same ops over v1 frames
        labels = svc.labels("social")

Every failure surfaces as :class:`~repro.errors.ServiceError` carrying
the server's typed error code (``"connection"`` for transport
failures).  After a transport failure the connection is dropped and the
next call reconnects, so a late or partial response is never read as
the answer to a later request.  A client is not thread-safe — give each
thread its own (the servers batch concurrent pushes across
connections).
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import time
from typing import Any, ClassVar, Mapping, Self

import numpy as np
from numpy.typing import NDArray

from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.graph.incremental import GraphDelta
from repro.obs import get_tracer
from repro.service import ops, protocol

__all__ = ["Client", "FrameTransport", "HTTPTransport", "ServiceClient"]


def _connect_uds(path: str, timeout: float | None) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(path)
    except OSError:
        sock.close()
        raise
    return sock


class _UDSHTTPConnection(http.client.HTTPConnection):
    """``http.client`` connection over an ``AF_UNIX`` socket."""

    def __init__(self, path: str, timeout: float) -> None:
        # The nominal host only feeds the Host header; the socket below
        # ignores it entirely.
        super().__init__("localhost", timeout=timeout)
        self._uds_path = path

    def connect(self) -> None:
        self.sock = _connect_uds(self._uds_path, self.timeout)


class HTTPTransport:
    """REST round trips over one kept-alive HTTP connection."""

    default_port = 8421

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        *,
        uds: str | None = None,
        token: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = self.default_port if port is None else port
        self.uds = uds
        self.timeout = timeout
        if token is not None and "=" in token:
            # Accept the CLI's name=secret spec; only the secret goes on
            # the wire.
            token = token.partition("=")[2]
        self._token = token
        self._conn = self._new_connection()

    def endpoint(self) -> str:
        return self.uds if self.uds is not None else f"{self.host}:{self.port}"

    def _new_connection(self) -> http.client.HTTPConnection:
        if self.uds is not None:
            return _UDSHTTPConnection(self.uds, self.timeout)
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def request(
        self, method: str, path: str, body: Mapping[str, Any] | None
    ) -> dict[str, Any]:
        """One JSON round trip; returns the ``result`` payload or raises
        :class:`ServiceError` with the body's error code."""
        status, raw, _ = self._round_trip(method, path, body)
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError(
                f"gateway at {self.endpoint()} returned a non-JSON body "
                f"for {method} {path} (HTTP {status})",
                code="protocol",
            ) from None
        if not isinstance(envelope, dict) or envelope.get("ok") is not True:
            error = envelope.get("error") if isinstance(envelope, dict) else None
            if isinstance(error, dict):
                raise ServiceError(
                    str(error.get("message", "gateway error")),
                    code=str(error.get("code", "internal")),
                )
            raise ServiceError(
                f"gateway returned HTTP {status} with an unrecognized body",
                code="protocol",
            )
        result = envelope.get("result")
        return result if isinstance(result, dict) else {"value": result}

    def text(self, path: str) -> str:
        """A ``GET`` whose answer is plain text, not a JSON envelope."""
        status, raw, content_type = self._round_trip("GET", path, None)
        if status != 200:
            raise ServiceError(f"GET {path} returned HTTP {status}", code="service")
        if not content_type.startswith("text/plain"):
            raise ServiceError(
                f"unexpected {path} content type {content_type!r}",
                code="protocol",
            )
        return raw.decode("utf-8")

    def _round_trip(
        self, method: str, path: str, body: Mapping[str, Any] | None
    ) -> tuple[int, bytes, str]:
        headers = {"Accept": "application/json"}
        if self._token is not None:
            headers["Authorization"] = f"Bearer {self._token}"
        payload: bytes | None = None
        if body is not None:
            payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
            return response.status, raw, response.headers.get("Content-Type", "")
        except (OSError, http.client.HTTPException) as exc:
            # Drop the (possibly half-dead) connection so the next call
            # reconnects cleanly.
            self._conn.close()
            self._conn = self._new_connection()
            raise ServiceError(
                f"cannot reach partition gateway at {self.endpoint()}: {exc}",
                code="connection",
            ) from None

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._conn.close()


class FrameTransport:
    """v1 frames over one TCP or Unix socket, opened on first use.

    Any transport failure — a timeout, a reset, a malformed or
    mismatched response — drops the socket, and the next call
    reconnects: a response that arrives after its request gave up is
    never read as the answer to a later one.
    """

    default_port = 7421

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        *,
        uds: str | None = None,
        token: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        if token is not None:
            raise ServiceError(
                "the v1 frame protocol carries no bearer token; "
                "authenticate through the HTTP gateway",
                code="usage",
            )
        self.host = host
        self.port = self.default_port if port is None else port
        self.uds = uds
        self.timeout = timeout
        self._ids = itertools.count(1)
        self._sock: socket.socket | None = None

    def endpoint(self) -> str:
        return self.uds if self.uds is not None else f"{self.host}:{self.port}"

    def _connect(self) -> socket.socket:
        if self.uds is not None:
            return _connect_uds(self.uds, self.timeout)
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        # Request frames are small; Nagle would sit on them waiting for
        # an ACK and serialize the whole RPC at ~per-packet latency.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def call(
        self, op: str, session: str | None = None, args: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """Send one request frame and block for its response; returns
        the ``result`` dict or raises :class:`ServiceError`.

        When a trace span is active in the calling context (tracing
        enabled), its context rides along in the envelope's optional
        ``trace`` field, so the server joins the caller's trace.
        """
        ctx = get_tracer().current_context()
        envelope = protocol.request(
            op,
            id=next(self._ids),
            session=session,
            args=dict(args) if args else None,
            trace=ctx.to_wire() if ctx is not None else None,
        )
        try:
            response = self._round_trip(envelope)
        except OSError as exc:
            self.close()
            raise ServiceError(
                f"connection to {self.endpoint()} failed: {exc}",
                code="connection",
            ) from None
        except ServiceError:
            self.close()
            raise
        return protocol.check_response(response)

    def _round_trip(self, envelope: dict[str, Any]) -> dict[str, Any]:
        if self._sock is None:
            self._sock = self._connect()
        protocol.write_frame_sock(self._sock, envelope)
        response = protocol.read_frame_sock(self._sock)
        if response is None:
            raise ServiceError(
                "server closed the connection without responding",
                code="connection",
            )
        if response.get("id") != envelope["id"]:
            raise protocol.FrameError(
                f"response id {response.get('id')!r} does not answer "
                f"request {envelope['id']!r}"
            )
        return response

    def request(
        self, method: str, path: str, body: Mapping[str, Any] | None
    ) -> dict[str, Any]:
        """Send the op the REST route ``method path`` addresses."""
        op, session, args = ops.resolve_target(method, path, body)
        if op.wire == "push" and "deltas" in args:
            return self.push_batch(session, args["deltas"])
        return self.call(op.wire, session, args)

    def push_batch(self, name: str | None, deltas: list[str]) -> dict[str, Any]:
        """Forward wire-encoded deltas one frame each (a v1 push carries
        one delta; the server re-batches concurrent pushes at the
        session lock).  Returns the last ack."""
        result: dict[str, Any] = {}
        for text in deltas:
            result = self.call("push", name, {"delta": text})
        return result

    def close(self) -> None:
        """Close the socket (idempotent); the next call reconnects."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()


def _labels(payload: str) -> NDArray[np.int64]:
    return np.asarray(protocol.arrays_from_wire(payload)["part"], dtype=np.int64)


class Client:
    """The typed ops of the service over a transport (see module
    docstring).  Speaks HTTP; :class:`ServiceClient` speaks v1 frames."""

    transport_type: ClassVar[type[HTTPTransport] | type[FrameTransport]] = HTTPTransport

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        *,
        uds: str | None = None,
        token: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.transport = self.transport_type(
            host, port, uds=uds, token=token, timeout=timeout
        )

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int | None = None,
        *,
        uds: str | None = None,
        token: str | None = None,
        retries: int = 0,
        delay: float = 0.1,
        timeout: float = 60.0,
    ) -> Self:
        """Connect with retry until :meth:`ping` answers — tests and
        benchmarks use this to wait for a freshly spawned server."""
        attempt = 0
        while True:
            client = cls(host, port, uds=uds, token=token, timeout=timeout)
            try:
                client.ping()
                return client
            except ServiceError:
                client.close()
                if attempt >= retries:
                    raise
                attempt += 1
                time.sleep(delay)

    def request(
        self, method: str, path: str, body: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """One round trip to the REST route ``method path``; returns the
        ``result`` dict or raises :class:`ServiceError` with the
        server's error code."""
        return self.transport.request(method, path, body)

    def _op(
        self,
        name: str,
        session: str | None = None,
        body: Mapping[str, Any] | None = None,
        query: str = "",
    ) -> dict[str, Any]:
        op = ops.op_named(name)
        return self.request(op.method, op.url(session) + query, body)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self.transport.close()

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Typed ops: one per row of ops.OPS
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        """Liveness check; the answer carries the server's ``protocol``
        version (``GET /healthz`` over HTTP)."""
        return self._op("ping")

    healthz = ping

    def create(
        self,
        name: str,
        *,
        partitions: int,
        graph: CSRGraph | None = None,
        source: dict[str, Any] | None = None,
        initial: str = "rsb",
        seed: int = 0,
        policy: dict[str, Any] | None = None,
        config: dict[str, Any] | None = None,
        strict: bool = True,
        accumulate_weights: bool = False,
        shards: int | None = None,
        max_resident: int | None = None,
    ) -> dict[str, Any]:
        """Create a named session from an inline graph or a workload
        ``source`` spec (exactly one of the two).

        ``shards`` makes the session sharded server-side (v2 directory
        snapshots, shard-local delta routing); ``max_resident`` caps how
        many shard blocks the server keeps paged in per session."""
        body: dict[str, Any] = {
            "name": name, "partitions": partitions, "initial": initial,
            "seed": seed, "strict": strict,
            "accumulate_weights": accumulate_weights, "source": source,
            "policy": policy, "config": config, "shards": shards,
            "max_resident": max_resident,
        }
        if graph is not None:
            body["graph"] = protocol.graph_to_wire(graph)
        body = {k: v for k, v in body.items() if v is not None}
        return self._op("create", body=body)

    def open(self, name: str) -> dict[str, Any]:
        """Materialize an existing session (recovering WAL if needed)."""
        return self._op("open", name)

    def push(self, name: str, delta: GraphDelta) -> dict[str, Any]:
        """Push one delta; returns the ack (WAL seq, batch size it rode
        in, whether a flush fired and that batch's summary)."""
        return self._op("push", name, {"delta": protocol.delta_to_wire(delta)})

    def push_many(self, name: str, deltas: list[GraphDelta]) -> dict[str, Any]:
        """Push a pre-composed batch in one request (one WAL record
        against the gateway's in-process backend)."""
        return self._op(
            "push", name, {"deltas": [protocol.delta_to_wire(d) for d in deltas]}
        )

    def flush(self, name: str) -> dict[str, Any]:
        """Flush the pending composed delta now."""
        return self._op("flush", name)

    def repartition(self, name: str) -> dict[str, Any]:
        """Flush pending or re-run the LP pipeline on the current graph."""
        return self._op("repartition", name)

    def quality(self, name: str) -> dict[str, Any]:
        """Cut/balance metrics of the session's current partition."""
        return self._op("quality", name)

    def query(self, name: str, *, labels: bool = False) -> dict[str, Any]:
        """Session info + history (+ decoded ``labels`` array on request)."""
        result = self._op("query", name, query="?labels=1" if labels else "")
        if labels and "labels" in result:
            result["labels"] = _labels(result["labels"])
        return result

    def labels(self, name: str) -> NDArray[np.int64]:
        """The current partition vector."""
        return _labels(self._op("labels", name)["labels"])

    def session_stats(self, name: str) -> dict[str, Any]:
        """Per-session info (no labels)."""
        return self._op("session_stats", name)

    def save(self, name: str) -> dict[str, Any]:
        """Checkpoint the session (snapshot + WAL truncate)."""
        return self._op("save", name)

    def close_session(self, name: str) -> dict[str, Any]:
        """Checkpoint and release the session's server-side residency."""
        return self._op("close_session", name)

    def list_sessions(self) -> list[str]:
        """Names of every known session."""
        return list(self._op("list_sessions").get("sessions", []))

    def stats(self) -> dict[str, Any]:
        """Server-wide counters and per-session residency info."""
        return self._op("stats")

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain, checkpoint everything and exit."""
        return self._op("shutdown")

    def metrics(self) -> str:
        """The gateway's Prometheus text exposition (HTTP only)."""
        if not isinstance(self.transport, HTTPTransport):
            raise ServiceError(
                "/metrics is served by the HTTP gateway only", code="not-found"
            )
        return self.transport.text("/metrics")


class ServiceClient(Client):
    """The typed client over v1 frames (default port 7421)."""

    transport_type = FrameTransport
