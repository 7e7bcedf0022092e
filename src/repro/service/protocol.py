"""Wire protocol of the partition service: length-prefixed JSON frames.

Every message on the wire is one *frame*: a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON.  Requests and responses
are versioned envelopes:

Request::

    {"v": 1, "id": 7, "op": "push", "session": "social",
     "args": {"delta": "<base64 npz>"}}

Response (success / failure)::

    {"v": 1, "id": 7, "ok": true,  "result": {...}}
    {"v": 1, "id": 7, "ok": false, "error": {"code": "graph",
                                             "message": "..."}}

Requests may additionally carry an optional ``"trace"`` field —
``{"id": "<trace id>", "span": "<parent span id>"}`` — propagating the
distributed-trace context minted at the HTTP gateway down to the
service (see :mod:`repro.obs`).  Absent ⇒ the operation starts a root
trace, so pre-trace clients interoperate unchanged.

``id`` is a caller-chosen correlation token echoed back verbatim; ``op``
is one of :data:`~repro.service.ops.WIRE_OPS` (``create`` / ``open`` /
``push`` / ``flush`` / ``repartition`` / ``query`` / ``quality`` /
``save`` / ``close`` / ``list`` / ``stats`` plus the housekeeping
``ping`` / ``shutdown``), declared once in :mod:`repro.service.ops`.
A response echoes its request's ``id``; a client that reads any other
``id`` treats the connection as broken and reconnects.  Errors carry a
*typed code* (:data:`ERROR_CODES`) mapping the :mod:`repro.errors`
hierarchy, so clients discriminate failure modes without string matching.

Numpy payloads (deltas, graphs, partition vectors) ride inside the JSON
as base64-encoded ``np.savez`` archives — the same array schema the
session snapshots use (:meth:`GraphDelta.to_arrays`,
:meth:`CSRGraph.to_arrays`), so anything that snapshots cleanly also
crosses the wire cleanly.

Framing helpers exist in three flavours: raw bytes (:func:`encode_frame`
/ :func:`decode_frame`), asyncio (:func:`read_frame_async`) for the
server, and blocking sockets (:func:`read_frame_sock` /
:func:`write_frame_sock`) for the client — all enforcing
:data:`MAX_FRAME_BYTES` so a hostile or corrupted length prefix cannot
make either side allocate unbounded memory.
"""

from __future__ import annotations

import base64
import io
import json
import struct
import zipfile
from typing import TYPE_CHECKING, Any

import numpy as np
from numpy.typing import NDArray

from repro.errors import (
    AnalysisError,
    APIUsageError,
    GraphError,
    LPError,
    MeshError,
    ParallelError,
    PartitioningError,
    RepartitionInfeasibleError,
    ReproError,
    ServiceError,
    SnapshotError,
    ValidationError,
)
from repro.graph.csr import CSRGraph
from repro.graph.incremental import GraphDelta
from repro.service.ops import WIRE_OPS

if TYPE_CHECKING:
    import asyncio
    import socket

__all__ = [
    "ERROR_CODES",
    "FrameError",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "WIRE_CODES",
    "arrays_from_wire",
    "arrays_to_wire",
    "check_response",
    "decode_frame",
    "delta_from_wire",
    "delta_to_wire",
    "encode_frame",
    "error_code",
    "error_response",
    "graph_from_wire",
    "graph_to_wire",
    "ok_response",
    "parse_request",
    "read_frame_async",
    "read_frame_sock",
    "request",
    "trace_context",
    "write_frame_sock",
]

#: Envelope version this build speaks.  Requests carrying a different
#: ``v`` are rejected with code ``"version"`` so old clients fail loudly
#: rather than mis-parse.
PROTOCOL_VERSION = 1

#: Frames larger than this are rejected before any allocation happens.
MAX_FRAME_BYTES = 64 << 20

_HEADER = struct.Struct(">I")


class FrameError(ServiceError):
    """A wire frame could not be parsed (bad length, bad JSON, bad
    envelope).  The connection that produced it is considered poisoned —
    mid-frame garbage leaves no way to resynchronise — and is closed
    after the error response."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="protocol")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one envelope to its on-wire bytes (length + JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame(data: bytes) -> dict[str, Any]:
    """Parse one complete on-wire frame back to its envelope dict."""
    if len(data) < _HEADER.size:
        raise FrameError(f"truncated frame header ({len(data)} bytes)")
    (length,) = _HEADER.unpack(data[: _HEADER.size])
    body = data[_HEADER.size:]
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    if len(body) != length:
        raise FrameError(f"frame body is {len(body)} bytes, header said {length}")
    return _parse_body(body)


def _parse_body(body: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameError(
            f"frame body must be a JSON object, got {type(obj).__name__}"
        )
    return obj


async def read_frame_async(
    reader: "asyncio.StreamReader", *, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns the envelope dict, or ``None`` on clean EOF (connection
    closed between frames).  Raises :class:`FrameError` for truncated or
    oversized frames and undecodable bodies.
    """
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            f"connection closed mid-header ({len(exc.partial)}/4 bytes)"
        ) from None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameError(f"frame length {length} exceeds the {max_bytes}-byte cap")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from None
    return _parse_body(body)


def read_frame_sock(
    sock: "socket.socket", *, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Blocking-socket twin of :func:`read_frame_async` (client side)."""
    header = _recv_exactly(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameError(f"frame length {length} exceeds the {max_bytes}-byte cap")
    body = _recv_exactly(sock, length, eof_ok=False)
    assert body is not None  # eof_ok=False never yields None
    return _parse_body(body)


def write_frame_sock(sock: "socket.socket", payload: dict[str, Any]) -> None:
    """Send one envelope over a blocking socket."""
    sock.sendall(encode_frame(payload))


def _recv_exactly(
    sock: "socket.socket", n: int, *, eof_ok: bool
) -> bytes | None:
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if eof_ok and got == 0:
                return None
            raise FrameError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def request(
    op: str,
    *,
    id: int,
    session: str | None = None,
    args: dict[str, Any] | None = None,
    trace: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build a request envelope.

    ``trace`` is the optional distributed-trace context
    (``{"id": <trace id>, "span": <parent span id>}``, the shape
    :meth:`repro.obs.tracer.SpanContext.to_wire` produces).  It is an
    *optional* envelope field: v1 servers that predate it ignore unknown
    envelope keys, and its absence means the operation starts a root
    trace — so old clients and new servers (and vice versa) interoperate
    unchanged.
    """
    env: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": id, "op": op}
    if session is not None:
        env["session"] = session
    if args:
        env["args"] = args
    if trace:
        env["trace"] = dict(trace)
    return env


def ok_response(id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """Build a success response envelope."""
    return {"v": PROTOCOL_VERSION, "id": id, "ok": True, "result": result}


def error_response(id: Any, code: str, message: str) -> dict[str, Any]:
    """Build a failure response envelope with a typed error code."""
    return {
        "v": PROTOCOL_VERSION,
        "id": id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def parse_request(env: dict[str, Any]) -> tuple[str, str | None, dict[str, Any]]:
    """Validate a request envelope; returns ``(op, session, args)``.

    Raises :class:`ServiceError` with code ``"version"`` for foreign
    protocol versions and ``"bad-request"`` for structurally invalid
    envelopes or unknown ops.
    """
    version = env.get("v")
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
            code="version",
        )
    op = env.get("op")
    if not isinstance(op, str) or op not in WIRE_OPS:
        raise ServiceError(
            f"unknown op {op!r}; valid ops: {', '.join(WIRE_OPS)}",
            code="bad-request",
        )
    session = env.get("session")
    if session is not None and not isinstance(session, str):
        raise ServiceError("'session' must be a string", code="bad-request")
    args = env.get("args", {})
    if not isinstance(args, dict):
        raise ServiceError("'args' must be a JSON object", code="bad-request")
    return op, session, args


def trace_context(env: dict[str, Any]) -> dict[str, str] | None:
    """The optional ``trace`` field of a request envelope, or ``None``.

    Lenient by design: a missing, malformed, or partially-populated
    field degrades to ``None`` (the server then starts a root trace)
    rather than rejecting the request — trace propagation must never be
    able to fail an otherwise valid operation.
    """
    trace = env.get("trace")
    if not isinstance(trace, dict):
        return None
    tid = trace.get("id")
    span = trace.get("span")
    if not isinstance(tid, str) or not tid or not isinstance(span, str):
        return None
    return {"id": tid, "span": span}


def check_response(env: dict[str, Any]) -> dict[str, Any]:
    """Client-side response validation: returns the ``result`` dict of a
    success envelope, raises :class:`ServiceError` (with the server's
    typed code) for failure envelopes and malformed responses."""
    if not isinstance(env, dict) or env.get("v") != PROTOCOL_VERSION:
        raise FrameError(f"malformed response envelope: {env!r}")
    if env.get("ok"):
        result = env.get("result")
        return result if isinstance(result, dict) else {}
    error = env.get("error")
    if not isinstance(error, dict):
        raise FrameError(f"failure response without error object: {env!r}")
    raise ServiceError(
        str(error.get("message", "request failed")),
        code=str(error.get("code", "service")),
    )


# ----------------------------------------------------------------------
# Typed error codes
# ----------------------------------------------------------------------
#: ``(exception type, wire code)`` — first match wins, so subclasses
#: precede their bases.  Anything else maps to ``"internal"``.
#:
#: Totality contract (enforced statically by the ``RPR202`` checker and
#: by ``tests/test_analysis.py``): every *direct* subclass of
#: :class:`ReproError` defined in :mod:`repro.errors` must map to a code
#: more specific than the ``"repro"`` fallback, so no typed library
#: failure ever degrades to a generic wire error.
ERROR_CODES: tuple[tuple[type[BaseException], str], ...] = (
    (FrameError, "protocol"),
    (ServiceError, "service"),  # .code attribute consulted first
    (RepartitionInfeasibleError, "infeasible"),
    (SnapshotError, "snapshot"),
    (GraphError, "graph"),
    (LPError, "lp"),
    (MeshError, "mesh"),
    (ParallelError, "parallel"),
    (PartitioningError, "partitioning"),
    (ValidationError, "validation"),
    (APIUsageError, "usage"),
    (AnalysisError, "analysis"),
    (ReproError, "repro"),
)


#: Every code that can appear in a wire error envelope: the
#: :data:`ERROR_CODES` taxonomy, the ``"internal"`` fallback, and the
#: ad-hoc :class:`ServiceError` codes raised throughout
#: ``repro.service`` and ``repro.gateway``.  The HTTP gateway maps each
#: of these to a deliberate status (``repro.gateway.schemas.HTTP_STATUS``)
#: and ``tests/test_gateway.py`` asserts that mapping is total over this
#: set — add new codes here or the gateway will serve them as 500s.
WIRE_CODES: frozenset[str] = frozenset(
    {code for _, code in ERROR_CODES}
    | {
        "internal",
        "bad-request",
        "version",
        "connection",
        "unknown-session",
        "session-exists",
        "wal",
        "forbidden",
        # gateway-originated codes
        "unauthorized",
        "rate-limited",
        "not-found",
        "method-not-allowed",
    }
)


def error_code(exc: BaseException) -> str:
    """The wire code for an exception (see :data:`ERROR_CODES`)."""
    if isinstance(exc, ServiceError):
        return exc.code
    for etype, code in ERROR_CODES:
        if isinstance(exc, etype):
            return code
    return "internal"


# ----------------------------------------------------------------------
# Numpy payloads
# ----------------------------------------------------------------------
def arrays_to_wire(arrays: dict[str, NDArray[Any]]) -> str:
    """Encode ``{name: array}`` as base64 npz text for a JSON field."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return base64.b64encode(buf.getvalue()).decode("ascii")


def arrays_from_wire(text: str) -> dict[str, NDArray[Any]]:
    """Decode an :func:`arrays_to_wire` payload back to arrays."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
        with np.load(io.BytesIO(raw)) as npz:
            return {name: npz[name] for name in npz.files}
    except (ValueError, OSError, EOFError, zipfile.BadZipFile, AttributeError) as exc:
        raise ServiceError(
            f"undecodable array payload: {exc}", code="bad-request"
        ) from None


def delta_to_wire(delta: GraphDelta) -> str:
    """Encode a :class:`GraphDelta` for a JSON field."""
    return arrays_to_wire(delta.to_arrays())


def delta_from_wire(text: object) -> GraphDelta:
    """Decode a :func:`delta_to_wire` payload (re-validated)."""
    if not isinstance(text, str):
        raise ServiceError(
            f"delta payload must be a base64 string, got {type(text).__name__}",
            code="bad-request",
        )
    try:
        return GraphDelta.from_arrays(arrays_from_wire(text))
    except GraphError as exc:
        raise ServiceError(f"invalid delta payload: {exc}", code="graph") from None


def graph_to_wire(graph: CSRGraph) -> str:
    """Encode a :class:`CSRGraph` for a JSON field."""
    return arrays_to_wire(graph.to_arrays())


def graph_from_wire(text: object) -> CSRGraph:
    """Decode a :func:`graph_to_wire` payload (structurally validated)."""
    if not isinstance(text, str):
        raise ServiceError(
            f"graph payload must be a base64 string, got {type(text).__name__}",
            code="bad-request",
        )
    try:
        return CSRGraph.from_arrays(arrays_from_wire(text), validate=True)
    except (GraphError, KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"invalid graph payload: {exc}", code="graph") from None
