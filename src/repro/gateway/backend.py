"""Session backends for the gateway: the transport its REST handlers
call through.

Both backends have one blocking call surface — ``call(op, session,
**args)`` for every manager-served op and ``push_batch(name, deltas)``
for the push batcher — and run in the gateway's thread pool, never on
the event loop:

* :class:`LocalBackend` — the gateway owns a
  :class:`~repro.service.manager.SessionManager` and serves each op
  through :func:`repro.service.ops.dispatch`, the same dispatcher the
  TCP server uses.  This is the single-process production shape and
  what ``repro-igp gateway`` runs by default.
* :class:`RemoteBackend` — the gateway proxies every op to a running
  TCP/UDS partition service over v1 frames, one
  :class:`~repro.service.client.FrameTransport` per pool thread (a
  transport is not thread-safe).  This splits the HTTP edge from the
  session host.

Push payloads stay *wire-encoded* (base64 npz strings) through the
backend boundary: the local backend decodes them in the pool thread
right before :meth:`SessionManager.push`, while the remote backend
forwards them verbatim — no decode/re-encode round trip through the
proxy.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.service import ops
from repro.service.client import FrameTransport
from repro.service.manager import SessionManager
from repro.service.protocol import delta_from_wire

__all__ = ["LocalBackend", "RemoteBackend"]


class LocalBackend:
    """Dispatch straight into an owned :class:`SessionManager`."""

    #: Local mode owns the manager: the gateway must checkpoint it on
    #: graceful shutdown.
    owns_sessions = True

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager

    def call(self, op: str, session: str | None = None, **args: Any) -> dict[str, Any]:
        """One blocking manager op (push goes through :meth:`push_batch`
        via the gateway's batcher instead)."""
        return ops.dispatch(self.manager, op, session, args)

    def push_batch(self, name: str, deltas_wire: list[str]) -> dict[str, Any]:
        """Decode one micro-batch of wire deltas and apply it as a
        single :meth:`SessionManager.push` (one WAL record)."""
        deltas = [delta_from_wire(text) for text in deltas_wire]
        result: dict[str, Any] = self.manager.push(name, deltas)
        return result

    def close(self) -> None:
        """Checkpoint every session and release WAL handles."""
        self.manager.close_all()

    def describe(self) -> str:
        return f"local:{self.manager.root}"


class RemoteBackend:
    """Proxy every op to a running partition service over TCP or UDS.

    Each pool thread lazily gets its own :class:`FrameTransport`, kept
    for the backend's lifetime; after a transport failure it reconnects
    on that thread's next call.
    """

    #: The TCP service owns session state and its own shutdown
    #: checkpointing; the gateway must NOT close sessions it proxies to.
    owns_sessions = False

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        *,
        uds: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.uds = uds
        self.timeout = timeout
        self._local = threading.local()
        self._transports: list[FrameTransport] = []
        self._transports_lock = threading.Lock()

    def _transport(self) -> FrameTransport:
        transport: FrameTransport | None = getattr(self._local, "transport", None)
        if transport is None:
            transport = FrameTransport(
                self.host, self.port, uds=self.uds, timeout=self.timeout
            )
            self._local.transport = transport
            with self._transports_lock:
                self._transports.append(transport)
        return transport

    def call(self, op: str, session: str | None = None, **args: Any) -> dict[str, Any]:
        """Forward one op as a v1 frame."""
        return self._transport().call(op, session, args)

    def push_batch(self, name: str, deltas_wire: list[str]) -> dict[str, Any]:
        """Forward a micro-batch delta-by-delta (the wire protocol takes
        one delta per push; the TCP server re-batches concurrent
        clients at the session lock).  Returns the last ack."""
        return self._transport().push_batch(name, deltas_wire)

    def close(self) -> None:
        with self._transports_lock:
            transports, self._transports = self._transports, []
        for transport in transports:
            transport.close()

    def describe(self) -> str:
        if self.uds is not None:
            return f"proxy:{self.uds}"
        return f"proxy:{self.host}:{self.port}"
