"""Asyncio TCP server speaking the partition-service wire protocol.

:class:`PartitionServer` glues three layers together:

* the **framing/envelope layer** (:mod:`repro.service.protocol`) — one
  length-prefixed JSON frame per request/response, typed error codes;
* the **session host** (:class:`~repro.service.manager.SessionManager`)
  — per-session locks, LRU residency, WAL durability;
* a **push batcher** — the server's throughput lever.

Push batching: the manager's session lock serializes work on one
session, so N clients pushing concurrently would normally pay N policy
checks (and, under a per-delta flush policy, N LP solves).  Instead the
server funnels every ``push`` for a session through a per-session queue:
while one micro-batch is being applied, newly arriving pushes pile up;
when the worker loop comes around it drains the *whole* queue into a
single :meth:`SessionManager.push` call, which folds all deltas through
the session's :class:`~repro.graph.incremental.DeltaComposer` and
consults the flush policy once.  Throughput therefore scales with
batching exactly like the streaming layer's batched-vs-per-delta
result, and each client still gets its own acknowledgement (same WAL
sequence number — the batch is one durable record).

Blocking work (LP solves, snapshot IO) runs in a thread pool so the
event loop keeps accepting and reading frames while a batch computes.
Only the per-session order is constrained; different sessions proceed
in parallel up to the pool size.

A malformed frame poisons its connection (there is no way to find the
next frame boundary after garbage): the server answers with a typed
``protocol`` error and closes that connection — other connections and
the server itself stay up, which the protocol-fuzz tests assert.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import os
from functools import partial
from pathlib import Path
from typing import Any, Awaitable, Callable

from repro.errors import ServiceError
from repro.obs import SpanContext, get_tracer, wrap_context
from repro.service import ops, protocol
from repro.service.batching import PushBatcher
from repro.service.manager import SessionManager

__all__ = ["Endpoint", "PartitionServer"]

logger = logging.getLogger(__name__)


class Endpoint:
    """Lifecycle shared by the TCP server and the HTTP gateway: bind a
    TCP or Unix-domain socket, serve until shutdown, then drain, close
    the sessions and release the pool.

    Subclasses implement ``_serve_one(reader, writer)``: answer one
    request and say whether to keep the connection open.  ``push_fn``
    feeds the push batcher, ``close_fn`` runs in the pool at shutdown,
    and ``manager`` (when the endpoint hosts sessions in-process) gets
    its checkpoint worker started.
    """

    #: Noun for logs, thread names and refusal messages.
    kind = "endpoint"

    def __init__(
        self,
        *,
        host: str,
        port: int,
        uds: str | None,
        max_workers: int | None,
        allow_shutdown: bool,
        push_fn: Callable[[str, list[Any]], dict],
        close_fn: Callable[[], None],
        manager: SessionManager | None,
    ) -> None:
        self.host = host
        self.port = port
        self.uds = uds
        self.allow_shutdown = allow_shutdown
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=f"repro-{self.kind}-op"
        )
        self._batcher = PushBatcher(self._pool, push_fn)
        self._close_fn = close_fn
        self._manager = manager
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()

    async def _handle_connection(self, reader, writer) -> None:
        """Serve one connection until :meth:`_serve_one` says stop."""
        peer = writer.get_extra_info("peername")
        try:
            while await self._serve_one(reader, writer):
                pass
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away / endpoint stopping
        # repro: ignore[RPR501] - one bad connection must not kill the endpoint
        except Exception:  # pragma: no cover - defensive
            logger.exception("%s connection handler for %s crashed", self.kind, peer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def start(self) -> None:
        """Bind and start accepting connections; resolves :attr:`port`
        (TCP) or creates the socket file (UDS)."""
        if self.uds is not None:
            path = Path(self.uds)
            if path.exists():
                # A previous unclean exit leaves the socket file behind;
                # binding would fail even though nobody is listening.
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=str(path)
            )
            endpoint = f"uds {path}"
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            endpoint = f"{self.host}:{self.port}"
        logger.info("partition %s listening on %s", self.kind, endpoint)
        if self._manager is not None:
            self._manager.start_worker()

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request, SIGTERM/SIGINT (via
        :meth:`run`) or task cancellation — then shut down *gracefully*:
        stop accepting, drain the in-flight push queues so every
        acknowledged operation is applied, close the sessions
        (checkpointing every dirty one when hosted in-process), and
        release the pool."""
        assert self._server is not None, "call start() first"
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            # Drain before checkpointing: pushes already queued (and
            # about to be acknowledged) must reach the manager first, or
            # close_all would checkpoint a state the acks run ahead of.
            await self._batcher.drain()
            await asyncio.get_running_loop().run_in_executor(
                self._pool, self._close_fn
            )
            # wait=True: the checkpoint sweep above must finish before
            # the process exits — a half-written sweep was exactly the
            # bug (only kill-9 recovery saved it).
            self._pool.shutdown(wait=True)
            if self.uds is not None:
                Path(self.uds).unlink(missing_ok=True)

    def run(self, *, on_ready=None) -> None:
        """Blocking convenience runner: start, serve, shut down cleanly
        on a ``shutdown`` request, SIGTERM or KeyboardInterrupt.

        ``on_ready(endpoint)`` is called once the socket is bound — by
        then :attr:`port` holds the *actual* port, which matters when
        the caller asked for ``port=0`` (pick a free one).
        """

        async def main():
            import signal

            await self.start()
            if on_ready is not None:
                on_ready(self)
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-unix platforms fall back to KeyboardInterrupt
            await self.serve_until_shutdown()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    def _blocking(self, fn, *args, **kwargs) -> Awaitable[Any]:
        """Run a blocking call in the pool.  ``wrap_context``:
        ``run_in_executor`` does not propagate contextvars, so without
        it the worker thread would lose the current span and start
        orphan trace roots."""
        return asyncio.get_running_loop().run_in_executor(
            self._pool, wrap_context(partial(fn, *args, **kwargs))
        )

    def _shutdown_requested(self) -> dict:
        """Serve a remote ``shutdown`` request (when allowed)."""
        if not self.allow_shutdown:
            raise ServiceError(
                f"this {self.kind} does not accept remote shutdown", code="forbidden"
            )
        self._stop.set()
        return {"stopping": True}


class PartitionServer(Endpoint):
    """One TCP (or Unix-domain-socket) endpoint serving many concurrent
    partition sessions.

    Parameters
    ----------
    manager:
        the :class:`SessionManager` owning the session state.
    host / port:
        bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    uds:
        filesystem path for a Unix-domain-socket endpoint instead of
        TCP — co-located clients skip the loopback stack and get
        filesystem-permission access control.  Mutually exclusive with a
        TCP bind; the stale socket file is removed on startup and on
        clean shutdown.
    max_workers:
        thread-pool size for blocking session operations (default:
        ``min(8, cpu_count)``).
    allow_shutdown:
        whether the ``shutdown`` op is honoured (the CLI enables it so
        ``repro-igp client shutdown`` can stop a dev server; embedders
        can refuse it).
    """

    kind = "server"

    def __init__(
        self,
        manager: SessionManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        uds: str | None = None,
        max_workers: int | None = None,
        allow_shutdown: bool = True,
    ):
        self.manager = manager
        super().__init__(
            host=host,
            port=port,
            uds=uds,
            max_workers=max_workers,
            allow_shutdown=allow_shutdown,
            push_fn=manager.push,
            close_fn=manager.close_all,
            manager=manager,
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            import socket as _socket

            try:
                # Response frames are small; don't let Nagle hold them.
                sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP transports
                pass
        await super()._handle_connection(reader, writer)

    async def _serve_one(self, reader, writer) -> bool:
        try:
            envelope = await protocol.read_frame_async(reader)
        except protocol.FrameError as exc:
            # Poisoned stream: answer once, then hang up.
            await self._send(writer, protocol.error_response(None, exc.code, str(exc)))
            return False
        if envelope is None:
            return False  # clean EOF
        await self._send(writer, await self._dispatch(envelope))
        return True

    @staticmethod
    async def _send(writer, payload: dict) -> None:
        writer.write(protocol.encode_frame(payload))
        await writer.drain()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, envelope: dict) -> dict:
        req_id = envelope.get("id") if isinstance(envelope, dict) else None
        try:
            op, session, args = protocol.parse_request(envelope)
            # Adopt the caller's trace context (optional envelope field,
            # minted at the gateway) so the service-side span tree joins
            # the same distributed trace.  Each connection is its own
            # asyncio task, so the contextvar set inside the span stays
            # task-local across the await.
            remote = SpanContext.from_wire(protocol.trace_context(envelope))
            attrs = {"session": session} if session is not None else None
            with get_tracer().span(f"rpc.{op}", attrs, parent=remote):
                result = await self._execute(op, session, args)
            return protocol.ok_response(req_id, result)
        # repro: ignore[RPR501] - boundary: every failure becomes a wire error
        except Exception as exc:
            code = protocol.error_code(exc)
            if code == "internal":
                logger.exception("internal error handling %r", envelope)
            return protocol.error_response(req_id, code, str(exc))

    async def _execute(self, op: str, session: str | None, args: dict):
        if op == "ping":
            return {"pong": True, "protocol": protocol.PROTOCOL_VERSION}
        if op == "shutdown":
            return self._shutdown_requested()
        if op == "push":
            # Decode off the event loop: base64 + np.load of a frame
            # that may be tens of MB would stall every connection.
            delta = await self._blocking(protocol.delta_from_wire, args.get("delta"))
            # Concurrent pushes to one session drain as a single
            # composed micro-batch (see PushBatcher).
            return await self._batcher.push(ops.require_session(op, session), delta)
        return await self._blocking(ops.dispatch, self.manager, op, session, args)
