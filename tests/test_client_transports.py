"""One typed client over two transports.

* **Parity**: one op script — create → push ×N → flush → repartition →
  quality → query (labels) → save → close → open → list → stats — run
  over v1 frames (TCP and UDS) and over HTTP (in-process backend over
  TCP and UDS, and the proxy backend) lands on the labels, quality,
  ``num_pushed`` and ``wal_seq`` of the same script run straight on a
  :class:`SessionManager`.
* **Totality**: every op-table row has exactly one typed client method,
  and the route that method sends resolves on both transports.
* **No stale responses**: after a timed-out or malformed response the
  frame transport drops its socket, so the next call never reads an
  answer meant for an earlier request.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro.bench.workloads import make_stream
from repro.errors import ServiceError
from repro.gateway import GatewayClient, LocalBackend, PartitionGateway, RemoteBackend
from repro.graph.incremental import GraphDelta
from repro.service import Client, ServiceClient, ops, protocol
from repro.service.manager import SessionManager
from repro.service.server import PartitionServer

PER_DELTA = {"weight_fraction": None, "imbalance_limit": None, "max_pending": 1}
CHURN = {"source": "churn", "scale": 0.2, "steps": 5, "seed": 3}
CREATE = {
    "partitions": 4, "source": CHURN, "seed": 0, "policy": PER_DELTA,
    "config": {"lp_backend": "revised"},
}
PUSHES = 3
TOKEN = "s3cret"


@contextlib.contextmanager
def running(endpoint):
    """Serve ``endpoint`` (a server or gateway) on its own event loop."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(endpoint.start(), loop).result(30)
    serve = asyncio.run_coroutine_threadsafe(endpoint.serve_until_shutdown(), loop)
    try:
        yield endpoint
    finally:
        loop.call_soon_threadsafe(endpoint._stop.set)
        serve.result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive()
        loop.close()


@contextlib.contextmanager
def connected(kind, manager, tmp_path):
    """A client of ``kind`` onto endpoints serving ``manager``."""
    uds = str(tmp_path / "endpoint.sock") if kind.endswith("uds") else None
    with contextlib.ExitStack() as stack:
        if kind.startswith("frame"):
            srv = stack.enter_context(running(PartitionServer(manager, uds=uds)))
            client = ServiceClient(port=srv.port, uds=uds)
        elif kind == "http-proxy":
            srv = stack.enter_context(running(PartitionServer(manager)))
            backend = RemoteBackend(port=srv.port)
            gw = stack.enter_context(
                running(PartitionGateway(backend, tokens=[("t", TOKEN)]))
            )
            client = GatewayClient(port=gw.port, token=TOKEN)
        else:
            gw = stack.enter_context(
                running(
                    PartitionGateway(
                        LocalBackend(manager), uds=uds, tokens=[("t", TOKEN)]
                    )
                )
            )
            client = GatewayClient(port=gw.port, uds=uds, token=TOKEN)
        with client:
            yield client
    if uds is not None:
        assert not Path(uds).exists()  # removed on clean shutdown


def observe(labels, quality, info, history):
    return {
        "labels": np.asarray(labels).tolist(),
        "quality": quality,
        "num_pushed": info["num_pushed"],
        "wal_seq": info["wal_seq"],
        "pivots": [h["lp_pivots"] for h in history],
    }


@pytest.fixture(scope="module")
def stream():
    base, deltas = make_stream(**CHURN)
    return base, deltas[:PUSHES]


@pytest.fixture(scope="module")
def reference(stream, tmp_path_factory):
    """The op script run straight on a manager, through the dispatcher."""
    manager = SessionManager(tmp_path_factory.mktemp("ref"), fsync=False)
    ops.dispatch(manager, "create", "s", CREATE)
    for d in stream[1]:
        manager.push("s", [d])
    ops.dispatch(manager, "flush", "s", {})
    ops.dispatch(manager, "repartition", "s", {})
    quality = ops.dispatch(manager, "quality", "s", {})
    q = ops.dispatch(manager, "query", "s", {"labels": True})
    ops.dispatch(manager, "close", "s", {})
    info = ops.dispatch(manager, "open", "s", {})
    labels = protocol.arrays_from_wire(q["labels"])["part"]
    manager.close_all()
    return observe(labels, quality, info, q["history"])


TRANSPORTS = ("frame-tcp", "frame-uds", "http-tcp", "http-uds", "http-proxy")


class TestTransportParity:
    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_op_script(self, kind, stream, reference, tmp_path):
        base, deltas = stream
        manager = SessionManager(tmp_path / "root", fsync=False)
        with connected(kind, manager, tmp_path) as c:
            assert c.ping()["protocol"] == protocol.PROTOCOL_VERSION
            assert c.create("s", **CREATE)["num_vertices"] == base.num_vertices
            for d in deltas:
                ack = c.push("s", d)
                assert ack["flushed"] and ack["seq"] >= 1
            assert c.flush("s")["flushed"] is False  # per-delta: nothing pending
            assert c.repartition("s")["batch"]["trigger"] == "repartition"
            quality = c.quality("s")
            q = c.query("s", labels=True)
            assert np.array_equal(c.labels("s"), q["labels"])
            assert Path(c.save("s")["snapshot"]).exists()
            assert c.close_session("s")["resident"] is False
            info = c.open("s")
            assert c.list_sessions() == ["s"]
            stats = c.stats()
            assert stats["counters"]["pushes"] == PUSHES and "s" in stats["sessions"]
            with pytest.raises(ServiceError) as ei:
                c.open("ghost")
            assert ei.value.code == "unknown-session"
            if kind.startswith("http"):
                assert "repro_service_events_total" in c.metrics()
        assert observe(q["labels"], quality, info, q["history"]) == reference
        # A proxy gateway's shutdown must not close the sessions the
        # service owns: the service checkpointed them when it stopped.
        assert manager.counters["created"] == 1


class _Recorder:
    """A transport that records the routes a client sends."""

    def __init__(self):
        self.sent = []

    def request(self, method, path, body):
        self.sent.append((method, path, body))
        part = np.zeros(1, dtype=np.int64)
        return {"labels": protocol.arrays_to_wire({"part": part}), "sessions": []}

    def close(self):
        pass


class TestOpTableTotality:
    def test_every_row_has_one_method_resolving_on_both_transports(self, tmp_path):
        names = [op.name for op in ops.OPS]
        assert len(set(names)) == len(names)
        gateway = PartitionGateway(
            LocalBackend(SessionManager(tmp_path / "root", fsync=False))
        )
        client = Client()
        client.transport = recorder = _Recorder()
        args = {
            "create": ((), {"partitions": 2}),
            "push": ((GraphDelta(added_edges=[(0, 1)]),), {}),
        }
        try:
            for op in ops.OPS:
                pos, kw = args.get(op.name, ((), {}))
                recorder.sent.clear()
                getattr(client, op.name)(*(("s",) if op.session else ()), *pos, **kw)
                ((method, path, body),) = recorder.sent
                # v1 frames: the route maps back to this row's op
                row, session, _ = ops.resolve_target(method, path, body)
                assert row is op
                assert session == ("s" if op.session else None)
                protocol.parse_request(protocol.request(op.wire, id=1, session=session))
                # HTTP: the gateway routes it
                match = gateway.router.resolve(method, urlsplit(path).path)
                assert match.route.op in (op.wire, "healthz")
        finally:
            gateway._pool.shutdown()


class TestNoStaleResponses:
    def test_timed_out_request_does_not_answer_the_next(self, tmp_path):
        manager = SessionManager(tmp_path / "root", fsync=False)
        real_stats, calls = manager.stats, []

        def slow_stats():
            calls.append(1)
            if len(calls) == 1:
                time.sleep(1.5)
            return real_stats()

        manager.stats = slow_stats
        with running(PartitionServer(manager)) as srv:
            with ServiceClient(port=srv.port, timeout=0.5) as svc:
                with pytest.raises(ServiceError) as ei:
                    svc.stats()
                assert ei.value.code == "connection"
                time.sleep(1.2)  # the late stats response has arrived by now
                assert svc.ping() == {"pong": True, "protocol": protocol.PROTOCOL_VERSION}
                assert "counters" in svc.stats()

    def test_malformed_response_drops_the_connection(self):
        """A proxy thread whose response stream went bad reconnects
        instead of reading the leftovers as later answers."""

        def oversize(env):
            stale = protocol.ok_response(env["id"], {"stale": True})
            return b"\xff\xff\xff\xff" + protocol.encode_frame(stale)

        def wrong_id(env):
            return protocol.encode_frame(protocol.ok_response(env["id"] + 7, {}))

        def pong(env):
            return protocol.encode_frame(protocol.ok_response(env["id"], {"pong": True}))

        with scripted_service([oversize, wrong_id, pong]) as port:
            backend = RemoteBackend(port=port, timeout=5.0)
            try:
                for code in ("protocol", "protocol"):
                    with pytest.raises(ServiceError) as ei:
                        backend.call("stats")
                    assert ei.value.code == code
                assert backend.call("ping") == {"pong": True}
                assert len(backend._transports) == 1
            finally:
                backend.close()


@contextlib.contextmanager
def scripted_service(replies):
    """A raw-socket stand-in for the service: the i-th request (over any
    connection) is answered with the bytes ``replies[i](request)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    script = iter(replies)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                with contextlib.suppress(OSError, ServiceError):
                    while (env := protocol.read_frame_sock(conn)) is not None:
                        conn.sendall(next(script)(env))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        stop.set()
        thread.join(10)
        assert not thread.is_alive()
        listener.close()
