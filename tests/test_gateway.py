"""Gateway tests: the HTTP/REST front half of the partition service.

The headline guarantees under test:

* every wire error code has a deliberate HTTP status (totality over
  ``WIRE_CODES``) and the codes survive the HTTP round trip;
* bearer auth and per-principal rate limiting guard every route except
  ``/metrics`` and ``/healthz``;
* ``GET /metrics`` conforms to the Prometheus text exposition format
  (0.0.4) and reports live ``SessionManager`` stats;
* a gateway serving a *sharded* session, killed with ``SIGKILL``
  mid-stream, replays its WAL on restart and continues with identical
  labels and simplex pivot counts — across a real process boundary,
  authenticated, over HTTP — and ``/metrics`` reports the replay;
* SIGTERM is graceful: in-flight pushes drain, dirty sessions
  checkpoint, the process exits 0, and the restart replays nothing.

Transport parity (TCP/UDS, in-process/proxy backend) is covered by
``tests/test_client_transports.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench.workloads import make_stream
from repro.core.streaming import FlushPolicy
from repro.errors import ServiceError, ValidationError
from repro.gateway import (
    GatewayClient,
    LocalBackend,
    MetricsRegistry,
    PartitionGateway,
)
from repro.gateway import schemas
from repro.gateway.auth import EXEMPT_PATHS, AuthError, RateLimiter, parse_token_spec
from repro.gateway.http import HTTPRequest
from repro.gateway.metrics import Counter, Gauge, Histogram
from repro.graph.incremental import GraphDelta
from repro.graph.sharded import ShardedCSRGraph
from repro.rng import make_rng
from repro.service import protocol
from repro.service.ops import Router, RoutingError
from repro.service.manager import SessionManager
from repro.service.protocol import WIRE_CODES

SRC = str(Path(__file__).resolve().parent.parent / "src")

PER_DELTA = {"weight_fraction": None, "imbalance_limit": None, "max_pending": 1}
MANUAL = {"weight_fraction": None, "imbalance_limit": None, "max_pending": None}
CHURN = {"source": "churn", "scale": 0.2, "steps": 5, "seed": 3}
TOKEN = "s3cret"


def edge_deltas(base, count, seed=11):
    """Pairwise-commuting single-edge additions (any push order composes
    to the same graph) — same generator as the TCP service tests."""
    rng = make_rng(seed)
    existing = {tuple(e) for e in np.sort(base.edge_array(), axis=1).tolist()}
    out = []
    while len(out) < count:
        u, v = sorted(int(x) for x in rng.integers(0, base.num_vertices, 2))
        if u == v or (u, v) in existing:
            continue
        existing.add((u, v))
        out.append(GraphDelta(added_edges=[(u, v)]))
    return out


def _loop_thread():
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    return loop, thread


def _start_gateway(gw):
    loop, thread = _loop_thread()
    asyncio.run_coroutine_threadsafe(gw.start(), loop).result(30)
    serve = asyncio.run_coroutine_threadsafe(gw.serve_until_shutdown(), loop)
    return loop, thread, serve


def _stop_gateway(gw, loop, thread, serve):
    loop.call_soon_threadsafe(gw._stop.set)
    serve.result(30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


@pytest.fixture
def gateway(tmp_path):
    manager = SessionManager(tmp_path / "root", fsync=False)
    gw = PartitionGateway(
        LocalBackend(manager), port=0, tokens=[("ops", TOKEN)]
    )
    loop, thread, serve = _start_gateway(gw)
    yield gw
    _stop_gateway(gw, loop, thread, serve)


def client_for(gw, token=TOKEN, **kw):
    return GatewayClient(port=gw.port, token=token, **kw)


def http_get(gw, path, token=TOKEN, method="GET", body=None):
    """Raw urllib request returning (status, parsed JSON, headers)."""
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    data = None
    if body is not None:
        data = json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        f"http://127.0.0.1:{gw.port}{path}", data=data, headers=headers,
        method=method,
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), exc.headers


# ----------------------------------------------------------------------
# Error-code -> HTTP-status mapping
# ----------------------------------------------------------------------
class TestStatusMapping:
    def test_total_over_wire_codes_and_no_dead_entries(self):
        assert WIRE_CODES - schemas.HTTP_STATUS.keys() == set()
        assert schemas.HTTP_STATUS.keys() - WIRE_CODES == set()

    def test_deliberate_statuses(self):
        assert schemas.status_for("unknown-session") == 404
        assert schemas.status_for("session-exists") == 409
        assert schemas.status_for("unauthorized") == 401
        assert schemas.status_for("rate-limited") == 429
        assert schemas.status_for("lp") == 422
        assert schemas.status_for("wal") == 500
        assert schemas.status_for("connection") == 502
        # unknown codes degrade to 500, never crash
        assert schemas.status_for("never-heard-of-it") == 500

    def test_error_body_shape_matches_wire_envelope(self):
        body = json.loads(schemas.error_body("lp", "boom"))
        assert body == {"ok": False, "error": {"code": "lp", "message": "boom"}}


# ----------------------------------------------------------------------
# Unit layer: metrics, auth, routing, schemas, http
# ----------------------------------------------------------------------
class TestMetricsPrimitives:
    def test_counter_monotonic_and_set_total_max(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        c.inc()
        c.inc({"op": "a"}, 2.0)
        c.set_total(1.0)  # below current 1 -> keeps max, never regresses
        assert c.value() == 1.0
        c.set_total(10.0)
        assert c.value() == 10.0
        with pytest.raises(ValidationError):
            c.inc(None, -1.0)

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValidationError):
            reg.counter("bad name", "x")
        c = reg.counter("ok_total", "x")
        with pytest.raises(ValidationError):
            c.inc({"bad-label": "v"})

    def test_histogram_buckets_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "x", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.render()
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text or \
            'lat_seconds_bucket{le="1.0"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert h.count() == 3

    def test_histogram_quantile_interpolates(self):
        reg = MetricsRegistry()
        h = reg.histogram("q_seconds", "x", buckets=(0.01, 0.1, 1.0))
        for _ in range(100):
            h.observe(0.05)
        q = h.quantile(0.5)
        assert 0.01 <= q <= 0.1  # inside the bucket holding the mass

    def test_label_and_help_escaping(self):
        reg = MetricsRegistry()
        g = reg.gauge("g", 'with "quotes" and\nnewline')
        g.set(1.0, {"name": 'a"b\\c\nd'})
        text = reg.render()
        # HELP escapes backslash and newline (quotes stay literal)
        assert '# HELP g with "quotes" and\\nnewline' in text
        # label values escape backslash, quote and newline
        assert 'name="a\\"b\\\\c\\nd"' in text

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("resident", "x")
        g.set(5)
        g.inc()
        g.dec(amount=2)
        assert g.value() == 4

    def test_get_or_create_is_idempotent_and_type_checked(self):
        reg = MetricsRegistry()
        a = reg.counter("dup_total", "x")
        assert reg.counter("dup_total", "x") is a
        with pytest.raises(ValidationError):
            reg.gauge("dup_total", "x")


class TestAuthUnits:
    def test_parse_token_spec_forms(self):
        assert parse_token_spec("ops=deadbeef") == ("ops", "deadbeef")
        name, secret = parse_token_spec("deadbeef")
        assert secret == "deadbeef" and name.startswith("token")
        with pytest.raises(ServiceError):
            parse_token_spec("ops=")

    def test_rate_limiter_bucket_math(self):
        rl = RateLimiter(rate=1.0, burst=2)
        rl.check("p", now=0.0)
        rl.check("p", now=0.0)
        with pytest.raises(AuthError) as ei:
            rl.check("p", now=0.0)
        assert ei.value.code == "rate-limited"
        assert ei.value.retry_after is not None and ei.value.retry_after > 0
        # refilled after a second, and principals are independent
        rl.check("p", now=1.1)
        rl.check("other", now=0.0)

    def test_exempt_paths(self):
        assert "/metrics" in EXEMPT_PATHS and "/healthz" in EXEMPT_PATHS


class TestRouterUnits:
    def _router(self):
        async def h(request, params):
            return 200, {}

        r = Router()
        r.add("GET", "/sessions", h, op="list")
        r.add("POST", "/sessions/{name}/deltas", h, op="push")
        return r

    def test_resolve_extracts_params(self):
        r = self._router()
        m = r.resolve("POST", "/sessions/web-1/deltas")
        assert m.params == {"name": "web-1"} and m.route.op == "push"

    def test_404_and_405_are_typed(self):
        r = self._router()
        with pytest.raises(RoutingError) as ei:
            r.resolve("GET", "/nope")
        assert ei.value.code == "not-found"
        with pytest.raises(RoutingError) as ei:
            r.resolve("DELETE", "/sessions")
        assert ei.value.code == "method-not-allowed"
        assert ei.value.allow == ("GET",)

    def test_duplicate_route_rejected(self):
        r = self._router()
        with pytest.raises(ServiceError):
            r.add("GET", "/sessions", lambda: None, op="list")


class TestSchemaUnits:
    def test_check_fields_rejects_unknown_missing_badtype(self):
        fields = {"name": (str,), "partitions": (int,)}
        with pytest.raises(ServiceError, match="unknown field"):
            schemas.check_fields({"nope": 1}, fields)
        with pytest.raises(ServiceError, match="missing required"):
            schemas.check_fields({}, fields, required=("name",))
        with pytest.raises(ServiceError, match="must be int"):
            schemas.check_fields({"partitions": "four"}, fields)
        # bool is not an acceptable int
        with pytest.raises(ServiceError, match="must be int"):
            schemas.check_fields({"partitions": True}, fields)
        schemas.check_fields({"name": "x", "partitions": 4}, fields)

    def test_parse_json_body(self):
        assert schemas.parse_json_body(b"") == {}
        with pytest.raises(ServiceError):
            schemas.parse_json_body(b"", empty_ok=False)
        with pytest.raises(ServiceError):
            schemas.parse_json_body(b"[1,2]")
        with pytest.raises(ServiceError):
            schemas.parse_json_body(b"{nope")

    def test_http_request_helpers(self):
        req = HTTPRequest(
            method="GET", target="/x", path="/x", query={},
            headers={"connection": "close", "authorization": "Bearer t"},
        )
        assert not req.keep_alive
        assert req.header("Authorization") == "Bearer t"


# ----------------------------------------------------------------------
# Routes over real sockets (in-process gateway)
# ----------------------------------------------------------------------
class TestGatewayRoutes:
    def test_full_rest_roundtrip(self, gateway):
        base, deltas = make_stream(**CHURN)
        with client_for(gateway) as gw:
            assert gw.healthz()["protocol"] == protocol.PROTOCOL_VERSION
            info = gw.create(
                "s", partitions=4, source=dict(CHURN), seed=0,
                policy=dict(PER_DELTA), config={"lp_backend": "revised"},
            )
            assert info["num_vertices"] == base.num_vertices
            ack = gw.push("s", deltas[0])
            assert ack["flushed"] and ack["seq"] >= 1
            gw.flush("s")
            rep = gw.repartition("s")
            assert rep["batch"]["trigger"] == "repartition"
            assert gw.quality("s")["num_partitions"] == 4
            out = gw.query("s", labels=True)
            assert out["labels"].shape[0] == out["num_vertices"]
            assert gw.labels("s").shape[0] == out["num_vertices"]
            assert gw.session_stats("s")["num_pushed"] == 1
            assert gw.list_sessions() == ["s"]
            saved = gw.save("s")
            assert Path(saved["snapshot"]).exists()
            assert gw.close_session("s")["resident"] is False
            assert gw.open("s")["num_pushed"] == 1
            stats = gw.stats()
            assert stats["counters"]["pushes"] == 1

    def test_create_returns_201_and_delete_closes(self, gateway):
        status, body, _ = http_get(
            gateway, "/sessions", method="POST",
            body={"name": "d", "partitions": 4, "source": dict(CHURN)},
        )
        assert status == 201 and body["ok"] and body["result"]["name"] == "d"
        status, body, _ = http_get(gateway, "/sessions/d", method="DELETE")
        assert status == 200 and body["result"]["resident"] is False

    def test_error_codes_cross_http(self, gateway):
        with client_for(gateway) as gw:
            with pytest.raises(ServiceError) as ei:
                gw.open("ghost")
            assert ei.value.code == "unknown-session"
            gw.create("dup", partitions=4, source=dict(CHURN))
            with pytest.raises(ServiceError) as ei:
                gw.create("dup", partitions=4, source=dict(CHURN))
            assert ei.value.code == "session-exists"
        # the HTTP statuses those codes rode on
        status, body, _ = http_get(gateway, "/sessions/ghost/flush", method="POST", body={})
        assert status == 404 and body["error"]["code"] == "unknown-session"
        status, body, _ = http_get(
            gateway, "/sessions", method="POST",
            body={"name": "dup", "partitions": 4, "source": dict(CHURN)},
        )
        assert status == 409 and body["error"]["code"] == "session-exists"

    def test_validation_rejects_unknown_and_badly_typed_fields(self, gateway):
        status, body, _ = http_get(
            gateway, "/sessions", method="POST",
            body={"name": "v", "partitions": 4, "bogus": 1},
        )
        assert status == 400 and body["error"]["code"] == "bad-request"
        assert "bogus" in body["error"]["message"]
        status, body, _ = http_get(
            gateway, "/sessions", method="POST",
            body={"name": "v", "partitions": "four"},
        )
        assert status == 400
        status, body, _ = http_get(
            gateway, "/sessions/x/deltas", method="POST", body={"nope": 1},
        )
        assert status == 400
        # exactly one of delta/deltas
        status, body, _ = http_get(
            gateway, "/sessions/x/deltas", method="POST", body={},
        )
        assert status == 400 and "exactly one" in body["error"]["message"]

    def test_404_405_and_allow_header(self, gateway):
        status, body, _ = http_get(gateway, "/no/such/route")
        assert status == 404 and body["error"]["code"] == "not-found"
        status, body, headers = http_get(gateway, "/sessions/x/flush")
        assert status == 405 and body["error"]["code"] == "method-not-allowed"
        assert headers.get("Allow") == "POST"

    def test_malformed_http_gets_400_and_close(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as raw:
            raw.sendall(b"NOT A REQUEST LINE\r\n\r\n")
            data = raw.recv(4096)
            assert data.startswith(b"HTTP/1.1 400")
            assert b'"bad-request"' in data
            assert raw.recv(4096) == b""  # gateway hung up

    def test_post_without_content_length_is_411(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as raw:
            raw.sendall(
                b"POST /sessions HTTP/1.1\r\nHost: x\r\n"
                b"Authorization: Bearer " + TOKEN.encode() + b"\r\n\r\n"
            )
            assert raw.recv(4096).startswith(b"HTTP/1.1 411")

    def test_chunked_transfer_is_501(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as raw:
            raw.sendall(
                b"POST /sessions HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            assert raw.recv(4096).startswith(b"HTTP/1.1 501")

    def test_batched_deltas_body_is_one_wal_record(self, gateway):
        _, deltas = make_stream(**CHURN)
        with client_for(gateway) as gw:
            gw.create(
                "b", partitions=4, source=dict(CHURN), seed=0,
                policy=dict(MANUAL), config={"lp_backend": "revised"},
            )
            ack = gw.push_many("b", deltas[:3])
            assert ack["batched"] == 3
            before = gw.stats()["counters"]["wal_records"]
            gw.push_many("b", deltas[3:5])
            assert gw.stats()["counters"]["wal_records"] == before + 1

    def test_concurrent_http_pushes_match_sequential_composed(self, gateway):
        """Racing HTTP clients must be semantically invisible, exactly
        like the TCP server's batching guarantee."""
        base, _ = make_stream(**CHURN)
        pushes = edge_deltas(base, 16)
        with client_for(gateway) as gw:
            gw.create(
                "conc", partitions=4, source=dict(CHURN), seed=0,
                policy=dict(MANUAL), config={"lp_backend": "revised"},
            )

        def worker(chunk):
            with client_for(gateway) as c:
                for d in chunk:
                    c.push("conc", d)

        with ThreadPoolExecutor(4) as pool:
            list(pool.map(worker, [pushes[i::4] for i in range(4)]))
        with client_for(gateway) as gw:
            gw.flush("conc")
            out = gw.query("conc", labels=True)
        assert out["num_pushed"] == len(pushes)

        ref = repro.open_session(
            base, 4, policy=FlushPolicy(**MANUAL), seed=0,
            lp_backend="revised",
        )
        ref.push_batch(pushes)
        ref.flush()
        assert np.array_equal(out["labels"], ref.part)


# ----------------------------------------------------------------------
# Request ids and the /traces route
# ----------------------------------------------------------------------
class TestRequestIds:
    def test_every_response_carries_x_request_id(self, gateway):
        status, _, headers = http_get(gateway, "/healthz", token=None)
        assert status == 200 and headers["X-Request-Id"]

    def test_error_bodies_repeat_the_request_id(self, gateway):
        status, body, headers = http_get(
            gateway, "/sessions/ghost/flush", method="POST", body={}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown-session"
        assert body["request_id"] == headers["X-Request-Id"]

    def test_client_supplied_id_is_echoed_even_on_errors(self, gateway):
        req = urllib.request.Request(
            f"http://127.0.0.1:{gateway.port}/stats",
            headers={"X-Request-Id": "bug-report-42"},  # no auth: 401
        )
        with pytest.raises(urllib.error.HTTPError) as ei:
            urllib.request.urlopen(req)
        assert ei.value.code == 401
        assert ei.value.headers["X-Request-Id"] == "bug-report-42"
        assert json.loads(ei.value.read())["request_id"] == "bug-report-42"

    def test_framing_errors_get_an_id_too(self, gateway):
        with socket.create_connection(("127.0.0.1", gateway.port)) as raw:
            raw.sendall(b"NOT A REQUEST LINE\r\n\r\n")
            data = raw.recv(4096)
        assert data.startswith(b"HTTP/1.1 400")
        assert b"X-Request-Id:" in data
        assert b'"request_id"' in data

    def test_distinct_requests_get_distinct_ids(self, gateway):
        ids = {
            http_get(gateway, "/healthz", token=None)[2]["X-Request-Id"]
            for _ in range(3)
        }
        assert len(ids) == 3


class TestTracesRoute:
    def test_traces_is_auth_gated(self, gateway):
        status, body, _ = http_get(gateway, "/traces", token=None)
        assert status == 401 and body["error"]["code"] == "unauthorized"

    def test_traces_reports_ring_summaries(self, gateway):
        from repro.obs import get_tracer

        tracer = get_tracer()
        tracer.configure(enabled=True)
        try:
            _, deltas = make_stream(**CHURN)
            with client_for(gateway) as gw:
                gw.create(
                    "t", partitions=4, source=dict(CHURN), seed=0,
                    policy=dict(PER_DELTA), config={"lp_backend": "revised"},
                )
                gw.push("t", deltas[0])
            status, body, _ = http_get(gateway, "/traces?n=5")
        finally:
            tracer.configure(enabled=False)
            tracer.clear()
        assert status == 200
        result = body["result"]
        assert result["enabled"] is True
        assert result["spans"] > 0
        names = {row["name"] for row in result["summary"]}
        assert "flush" in names and "http.request" in names
        assert len(result["traces"]) <= 5
        for entry in result["traces"]:
            assert entry["trace_id"]
            assert entry["spans"] >= 1
            assert entry["total_s"] >= 0.0
            assert entry["names"]

    def test_traces_rejects_bad_n(self, gateway):
        status, body, _ = http_get(gateway, "/traces?n=zero")
        assert status == 400 and body["error"]["code"] == "bad-request"
        status, body, _ = http_get(gateway, "/traces?n=0")
        assert status == 400

    def test_traces_empty_when_disabled(self, gateway):
        from repro.obs import get_tracer

        get_tracer().clear()
        status, body, _ = http_get(gateway, "/traces")
        assert status == 200
        assert body["result"]["enabled"] is False
        assert body["result"]["traces"] == []


# ----------------------------------------------------------------------
# Auth and rate limiting over real sockets
# ----------------------------------------------------------------------
class TestAuthOverHTTP:
    def test_missing_and_wrong_token_are_401(self, gateway):
        status, body, headers = http_get(gateway, "/stats", token=None)
        assert status == 401 and body["error"]["code"] == "unauthorized"
        assert headers.get("WWW-Authenticate") == "Bearer"
        status, body, _ = http_get(gateway, "/stats", token="wrong")
        assert status == 401

    def test_exempt_paths_skip_auth(self, gateway):
        status, body, _ = http_get(gateway, "/healthz", token=None)
        assert status == 200 and body["ok"]
        req = urllib.request.Request(f"http://127.0.0.1:{gateway.port}/metrics")
        with urllib.request.urlopen(req) as resp:
            assert resp.status == 200
            assert resp.headers.get("Content-Type", "").startswith("text/plain")

    def test_open_mode_without_tokens(self, tmp_path):
        gw = PartitionGateway(
            LocalBackend(SessionManager(tmp_path / "r", fsync=False)), port=0
        )
        loop, thread, serve = _start_gateway(gw)
        try:
            with GatewayClient(port=gw.port) as c:  # no token at all
                assert c.healthz()["ok"]
                assert c.list_sessions() == []
        finally:
            _stop_gateway(gw, loop, thread, serve)

    def test_rate_limit_429_with_retry_after(self, tmp_path):
        gw = PartitionGateway(
            LocalBackend(SessionManager(tmp_path / "r", fsync=False)),
            port=0, tokens=[("ops", TOKEN)], rate=0.001, burst=2,
        )
        loop, thread, serve = _start_gateway(gw)
        try:
            codes = []
            for _ in range(4):
                status, body, headers = http_get(gw, "/stats")
                codes.append(status)
            assert codes[:2] == [200, 200] and codes[-1] == 429
            status, body, headers = http_get(gw, "/stats")
            assert body["error"]["code"] == "rate-limited"
            assert int(headers["Retry-After"]) >= 1
            # exempt paths keep working after the bucket drained
            status, _, _ = http_get(gw, "/healthz", token=None)
            assert status == 200
        finally:
            _stop_gateway(gw, loop, thread, serve)


# ----------------------------------------------------------------------
# Prometheus exposition conformance
# ----------------------------------------------------------------------
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """Parse the 0.0.4 text format; raises AssertionError on violations."""
    types: dict[str, str] = {}
    helps: set[str] = set()
    samples: list[tuple[str, dict, float]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            helps.add(line.split(" ", 3)[2])
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in types, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram", "summary", "untyped")
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment {line!r}"
        m = _SAMPLE.match(line)
        assert m, f"unparseable sample line {line!r}"
        name, raw_labels, raw_value = m.groups()
        labels = dict(_LABEL.findall(raw_labels)) if raw_labels else {}
        value = float(raw_value.replace("+Inf", "inf"))
        samples.append((name, labels, value))
    for name, _, _ in samples:
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert base in types or name in types, f"sample {name} has no TYPE"
    return types, helps, samples


class TestMetricsExposition:
    def test_exposition_conformance_and_live_stats(self, gateway):
        _, deltas = make_stream(**CHURN)
        with client_for(gateway) as gw:
            gw.create(
                "m", partitions=4, source=dict(CHURN), seed=0,
                policy=dict(PER_DELTA), config={"lp_backend": "revised"},
            )
            for d in deltas[:2]:
                gw.push("m", d)
            gw.quality("m")
            text = gw.metrics()
        types, helps, samples = parse_exposition(text)

        # declared families carry HELP too
        for name in types:
            assert name in helps

        # gateway-side counters: per-op request counts with statuses
        reqs = {
            (labels["op"], labels["status"]): value
            for name, labels, value in samples
            if name == "repro_gateway_requests_total"
        }
        assert reqs[("push", "200")] == 2
        assert reqs[("create", "201")] == 1

        # per-op latency histogram sourced from live SessionManager stats
        assert types["repro_service_op_seconds"] == "histogram"
        op_counts = {
            labels["op"]: value
            for name, labels, value in samples
            if name == "repro_service_op_seconds_count"
        }
        assert op_counts["push"] == 2 and op_counts["create"] == 1

        # mirrored manager counters match the stats surface exactly
        with client_for(gateway) as gw:
            live = gw.stats()["counters"]
        events = {
            labels["event"]: value
            for name, labels, value in samples
            if name == "repro_service_events_total"
        }
        for key in ("pushes", "wal_records", "wal_fsyncs", "lp_pivots",
                    "lp_batches", "evictions", "checkpoints"):
            assert key in events
        assert events["pushes"] == 2
        assert events["lp_pivots"] == live["lp_pivots"] > 0

        # histogram contract: cumulative buckets ending at +Inf == count
        hists: dict[tuple[str, tuple], list[tuple[float, float]]] = {}
        counts: dict[tuple[str, tuple], float] = {}
        for name, labels, value in samples:
            if name.endswith("_bucket"):
                key = (name[:-7], tuple(sorted(
                    (k, v) for k, v in labels.items() if k != "le"
                )))
                hists.setdefault(key, []).append(
                    (float(labels["le"].replace("+Inf", "inf")), value)
                )
            elif name.endswith("_count") and types.get(name[:-6]) == "histogram":
                counts[(name[:-6], tuple(sorted(labels.items())))] = value
        assert hists, "no histograms rendered"
        for key, buckets in hists.items():
            buckets.sort()
            values = [v for _, v in buckets]
            assert values == sorted(values), f"non-cumulative buckets for {key}"
            assert buckets[-1][0] == float("inf")
            assert buckets[-1][1] == counts[key]


# ----------------------------------------------------------------------
# Process-boundary acceptance: SIGKILL recovery and SIGTERM drain
# ----------------------------------------------------------------------
def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn_gateway(root, port):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.cli import main; "
         "raise SystemExit(main(sys.argv[1:]))",
         "gateway", "--root", str(root), "--port", str(port),
         "--token", f"ops={TOKEN}", "--checkpoint-interval", "600"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


class TestKillNineOverHTTP:
    def test_sharded_session_sigkill_then_wal_replay_matches(self, tmp_path):
        """The ISSUE's acceptance flow: sharded session created over
        authenticated HTTP, fed deltas, SIGKILLed, recovers to
        bit-identical labels and pivot counts, and ``/metrics``
        afterwards reports the replayed batches."""
        source = {"source": "churn", "scale": 0.15, "steps": 4, "seed": 3}
        base, deltas = make_stream(**source)
        half = len(deltas) // 2

        # uninterrupted in-process reference over the same sharded build
        ref = repro.open_session(
            ShardedCSRGraph.from_csr(base, 2), 4,
            policy=FlushPolicy(**PER_DELTA), seed=0, lp_backend="revised",
        )
        for d in deltas:
            ref.push(d)
        ref.repartition()

        root = tmp_path / "root"
        port = _free_port()
        proc = _spawn_gateway(root, port)
        try:
            with GatewayClient.connect(
                port=port, token=TOKEN, retries=300, delay=0.1
            ) as gw:
                gw.create(
                    "s", partitions=4, source=source, seed=0, shards=2,
                    policy=dict(PER_DELTA), config={"lp_backend": "revised"},
                )
                for d in deltas[:half]:
                    gw.push("s", d)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)

        port = _free_port()
        proc = _spawn_gateway(root, port)
        try:
            with GatewayClient.connect(
                port=port, token=TOKEN, retries=300, delay=0.1
            ) as gw:
                info = gw.open("s")
                assert info["num_pushed"] == half  # nothing acked was lost
                for d in deltas[half:]:
                    gw.push("s", d)
                gw.repartition("s")
                out = gw.query("s", labels=True)
                stats = gw.stats()
                text = gw.metrics()
                gw.shutdown()
        finally:
            assert proc.wait(timeout=60) == 0

        assert stats["sessions"]["s"]["shards"] == 2
        assert stats["counters"]["wal_replayed"] == half
        assert np.array_equal(out["labels"], ref.part)
        assert [h["lp_pivots"] for h in out["history"]] == [
            s.lp_pivots for s in ref.history()
        ]
        # the exposition reports the replay (live stats, not a snapshot)
        _, _, samples = parse_exposition(text)
        replayed = [
            v for name, labels, v in samples
            if name == "repro_service_events_total"
            and labels.get("event") == "wal_replayed"
        ]
        assert replayed == [float(half)]


class TestGracefulShutdown:
    def test_sigterm_checkpoints_and_exits_zero(self, tmp_path):
        """SIGTERM drains and checkpoints: exit 0, and the restart has
        nothing to replay (unlike SIGKILL, which replays the WAL)."""
        source = {"source": "churn", "scale": 0.15, "steps": 4, "seed": 3}
        _, deltas = make_stream(**source)
        root = tmp_path / "root"
        port = _free_port()
        proc = _spawn_gateway(root, port)
        try:
            with GatewayClient.connect(
                port=port, token=TOKEN, retries=300, delay=0.1
            ) as gw:
                gw.create(
                    "s", partitions=4, source=source, seed=0,
                    policy=dict(PER_DELTA), config={"lp_backend": "revised"},
                )
                for d in deltas[:2]:
                    gw.push("s", d)
        finally:
            proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0

        port = _free_port()
        proc = _spawn_gateway(root, port)
        try:
            with GatewayClient.connect(
                port=port, token=TOKEN, retries=300, delay=0.1
            ) as gw:
                info = gw.open("s")
                assert info["num_pushed"] == 2
                assert gw.stats()["counters"]["wal_replayed"] == 0
                gw.shutdown()
        finally:
            assert proc.wait(timeout=60) == 0
