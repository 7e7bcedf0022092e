"""Timing spans around the public entry points of each layer.

The traced benchmark run records spans from the benchmark's own files:
:func:`install_service`, :func:`install_gateway` and
:func:`install_client` replace layer entry points with thin wrappers
*where their callers look them up* (a module global for functions
imported with ``from x import y``, the class for methods), before the
program under test builds any object.  Nothing in ``src/`` changes and
the program's own ``repro.obs`` spans stay off.

Each process keeps its spans in memory (:class:`Recorder`) and writes
them out once, at exit.  ``time.perf_counter`` reads ``CLOCK_MONOTONIC``
on Linux, one clock for the whole host, so spans from the client, the
gateway and the service can be compared by time.

Self time:

* within one thread, wrapped calls nest as a stack, so a span's self
  time is its duration minus that of its direct children;
* across a process or thread boundary (client request -> gateway
  backend call -> service manager op) a span's children are the spans
  of the next layer down for the same session whose interval lies inside
  its own; self time subtracts the union of those intervals.  Every
  client connection owns distinct sessions, so the session name keeps
  concurrent requests apart.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from pathlib import Path

__all__ = [
    "Recorder",
    "install_client",
    "install_gateway",
    "install_service",
    "load_spans",
    "layer_metrics",
    "LAYER_METRICS",
]


class Recorder:
    """In-memory span store for one process.

    A span is a list ``[id, name, key, t0, t1, thread, parent, attrs]``;
    ``parent`` is the id of the innermost wrapped call active on the
    same thread when the span began (``0`` for none).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, key=None, pre=None, post=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``key(args)`` names the session a call serves; ``pre(args)``
        captures state before the call and ``post(args, result, state)``
        returns the span's attributes.
        """
        if isinstance(owner, dict):
            raw = owner[attr]
        elif isinstance(owner, type):
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [
                next(ids),
                name,
                key(args) if key is not None else None,
                clock(),
                0.0,
                threading.get_ident(),
                stack[-1] if stack else 0,
                None,
            ]
            state = pre(args) if pre is not None else None
            stack.append(span[0])
            try:
                result = original(*args, **kwargs)
                if post is not None:
                    span[7] = post(args, result, state)
                return result
            finally:
                span[4] = clock()
                stack.pop()
                spans.append(span)

        self._restore.append((owner, attr, raw))
        _set(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attr, raw in reversed(self._restore):
            _set(owner, attr, raw)
        self._restore.clear()

    def dump(self, path: str | os.PathLike) -> None:
        """Write the spans as one JSON document (pid + span rows)."""
        Path(path).write_text(
            json.dumps({"pid": os.getpid(), "spans": self.spans}), encoding="utf-8"
        )


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _attr(span, name: str):
    """A span attribute, 0 when the call raised before recording it."""
    return span[7][name] if span[7] else 0


def _arg(i: int):
    return lambda args: args[i] if len(args) > i else None


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def install_service(rec: Recorder) -> None:
    """Wrap the session host's layers: manager, WAL, session snapshots,
    streaming engine, core stages, LP, graph, shard store, frame and the
    initial partitioner."""
    import repro.core.balance as balance
    import repro.core.partitioner as partitioner
    import repro.core.refine as refine
    import repro.core.shardlp as shardlp
    import repro.core.streaming as streaming
    import repro.session as session
    from repro.graph.sharded import DirectoryShardStore, ShardedCSRGraph
    from repro.service.manager import SessionManager
    from repro.service.wal import WriteAheadLog

    for op in ("create", "open", "push", "flush", "quality", "query", "save", "close"):
        rec.wrap(SessionManager, op, f"manager.{op}", key=_arg(1))

    def wal_pre(args):
        return _file_size(args[0].path)

    def wal_post(args, result, before):
        deltas = args[2] if len(args) > 2 else ()
        return {
            "kind": args[1],
            "bytes": _file_size(args[0].path) - before,
            "deltas": len(deltas) if args[1] == "push" else 0,
        }

    rec.wrap(WriteAheadLog, "append", "wal.append", pre=wal_pre, post=wal_post)
    rec.wrap(WriteAheadLog, "replay", "wal.replay")
    rec.wrap(session.PartitionSession, "save", "session.save")
    rec.wrap(session.PartitionSession, "load", "session.load")

    def flush_pre(args):
        composer = args[0]._composer
        return composer.num_folded if composer is not None else 0

    def flush_post(args, result, folded):
        return {"flushed": result is not None, "deltas": folded}

    rec.wrap(streaming.StreamingPartitioner, "fold_pending", "stream.fold")
    rec.wrap(
        streaming.StreamingPartitioner, "flush", "stream.flush",
        pre=flush_pre, post=flush_post,
    )

    for fn, stage in (
        ("assign_new_vertices", "core.assign"),
        ("layer_partitions", "core.layering"),
        ("solve_balance", "core.balance"),
        ("solve_balance_relaxed", "core.balance"),
        ("select_movers", "core.move"),
        ("apply_moves", "core.move"),
        ("refine_partition", "core.refine"),
    ):
        rec.wrap(partitioner, fn, stage)
    for fn, stage in (
        ("assign_new_vertices_frame", "core.assign"),
        ("layer_partitions_frame", "core.layering"),
        ("refine_partition_frame", "core.refine"),
    ):
        rec.wrap(shardlp, fn, stage)

    def lp_post(args, result, state):
        return {"pivots": int(result.iterations)}

    for module in (balance, refine, shardlp):
        rec.wrap(module, "solve_with_backend", "lp.solve", post=lp_post)

    rec.wrap(streaming, "apply_delta", "graph.apply")
    rec.wrap(ShardedCSRGraph, "apply_delta", "graph.apply")

    def get_pre(args):
        return args[0].load_count

    def get_post(args, result, before):
        return {"loads": args[0].load_count - before}

    rec.wrap(DirectoryShardStore, "get", "shard.get", pre=get_pre, post=get_post)

    def frame_pre(args):
        frame = args[1]
        return frame.block_hits, frame.block_fetches

    def frame_post(args, result, before):
        frame = args[1]
        return {
            "hits": frame.block_hits - before[0],
            "fetches": frame.block_fetches - before[1],
        }

    rec.wrap(
        partitioner.IncrementalGraphPartitioner, "repartition_frame", "frame.repartition",
        pre=frame_pre, post=frame_post,
    )
    rec.wrap(session._INITIAL_REGISTRY, "rsb", "spectral.initial")


def install_gateway(rec: Recorder) -> None:
    """Wrap the gateway's proxy calls into the v1 wire service."""
    from repro.gateway.backend import RemoteBackend

    rec.wrap(RemoteBackend, "call", "gateway.backend", key=_arg(2))
    rec.wrap(RemoteBackend, "push_batch", "gateway.backend", key=_arg(1))


def _session_of(args) -> str | None:
    # GatewayClient.request(self, method, path, body): /sessions/<name>/...
    parts = args[2].split("?")[0].split("/")
    return parts[2] if len(parts) > 2 and parts[1] == "sessions" else None


def install_client(rec: Recorder) -> None:
    """Wrap the typed HTTP client the benchmark drives."""
    from repro.gateway.client import GatewayClient

    rec.wrap(GatewayClient, "request", "client.request", key=_session_of)
    rec.wrap(GatewayClient, "labels", "client.labels", key=_arg(1))
    rec.wrap(GatewayClient, "quality", "client.quality", key=_arg(1))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
#: name -> unit of every per-layer metric the traced run reports.
LAYER_METRICS = {
    "gateway.self_ms_p50": "ms",
    "service.rpc_self_ms_p50": "ms",
    "service.push_ms_p50": "ms",
    "service.evictions": "count",
    "service.reloads": "count",
    "service.busy_ratio": "ratio",
    "wal.append_ms_p50": "ms",
    "wal.replay_ms_p50": "ms",
    "wal.fsyncs_per_push": "fsync/push",
    "wal.bytes_per_delta": "B/delta",
    "session.save_ms_p50": "ms",
    "session.load_ms_p50": "ms",
    "stream.fold_ms_p50": "ms",
    "stream.flush_ms_p50": "ms",
    "stream.flushes": "count",
    "stream.deltas_per_flush": "deltas/flush",
    "core.assign_ms_p50": "ms",
    "core.layering_ms_p50": "ms",
    "core.balance_ms_p50": "ms",
    "core.move_ms_p50": "ms",
    "core.refine_ms_p50": "ms",
    "core.stages_per_flush": "stages/flush",
    "lp.solve_ms_p50": "ms",
    "lp.solves": "count",
    "lp.pivots": "count",
    "lp.us_per_pivot": "us/pivot",
    "lp.flush_share": "ratio",
    "graph.apply_ms_p50": "ms",
    "shard.get_ms_p50": "ms",
    "shard.loads": "count",
    "frame.hit_ratio": "ratio",
    "spectral.initial_s": "s",
    "client.labels_ms_p50": "ms",
    "client.quality_ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
}

_CORE_STAGES = ("assign", "layering", "balance", "move", "refine")


def load_spans(path: str | os.PathLike) -> list[list]:
    """Spans one process dumped (ids are made unique per process)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    pid = doc["pid"]
    return [[(pid, s[0]), s[1], s[2], s[3], s[4], s[5], (pid, s[6]), s[7]] for s in doc["spans"]]


def _p50_ms(values) -> float:
    """Median in milliseconds; 0.0 when the layer did no such work."""
    values = list(values)
    return 1e3 * statistics.median(values) if values else 0.0


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _cross_self(parents, children) -> list[float]:
    """Self seconds of each parent span: duration minus the union of the
    same-session child spans lying inside it."""
    by_key: dict = {}
    for c in children:
        by_key.setdefault(c[2], []).append((c[3], c[4]))
    out = []
    for p in parents:
        inside = [(a, b) for a, b in by_key.get(p[2], ()) if a >= p[3] and b <= p[4]]
        if inside:
            out.append(p[4] - p[3] - _union_length(inside))
    return out


def layer_metrics(spans: list[list], window: tuple[float, float], extra: dict) -> dict:
    """Per-layer metrics over the spans that ran inside ``window``.

    ``extra`` carries what spans do not: the service's counter deltas
    over the window (``evictions``, ``reloads``, ``pushes``,
    ``wal_fsyncs``), its CPU seconds (``service_cpu_s``) and the
    untraced/traced workload latency medians for the overhead ratio.
    """
    w0, w1 = window
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s[6], []).append(s)

    def self_s(s) -> float:
        return (s[4] - s[3]) - sum(c[4] - c[3] for c in children.get(s[0], ()))

    inside = [s for s in spans if s[3] >= w0 and s[4] <= w1]
    named: dict[str, list] = {}
    for s in inside:
        named.setdefault(s[1], []).append(s)

    def total(name):
        return [s[4] - s[3] for s in named.get(name, ())]

    flushes = [s for s in named.get("stream.flush", ()) if _attr(s, "flushed")]
    flush_ids = {s[0] for s in flushes}

    def enclosing_flush(s):
        parent = by_id.get(s[6])
        while parent is not None:
            if parent[0] in flush_ids:
                return parent[0]
            parent = by_id.get(parent[6])
        return None

    per_flush = {stage: dict.fromkeys(flush_ids, 0.0) for stage in _CORE_STAGES}
    for stage in _CORE_STAGES:
        for s in named.get(f"core.{stage}", ()):
            fid = enclosing_flush(s)
            if fid is not None:
                per_flush[stage][fid] += self_s(s)

    lp = named.get("lp.solve", ())
    lp_s = sum(s[4] - s[3] for s in lp)
    pivots = sum(_attr(s, "pivots") for s in lp)
    flush_s = sum(s[4] - s[3] for s in flushes)
    push_wal = [s for s in named.get("wal.append", ()) if _attr(s, "kind") == "push"]
    wal_deltas = sum(_attr(s, "deltas") for s in push_wal)
    frames = named.get("frame.repartition", ())
    hits = sum(_attr(s, "hits") for s in frames)
    lookups = hits + sum(_attr(s, "fetches") for s in frames)
    window_s = w1 - w0
    initial = [s[4] - s[3] for s in spans if s[1] == "spectral.initial"]

    out = {
        "gateway.self_ms_p50": _p50_ms(
            _cross_self(
                [s for s in named.get("client.request", ()) if s[2] is not None],
                named.get("gateway.backend", ()),
            )
        ),
        "service.rpc_self_ms_p50": _p50_ms(
            _cross_self(
                named.get("gateway.backend", ()),
                [s for n, ss in named.items() if n.startswith("manager.") for s in ss],
            )
        ),
        "service.push_ms_p50": _p50_ms(total("manager.push")),
        "service.evictions": extra["evictions"],
        "service.reloads": extra["reloads"],
        "service.busy_ratio": extra["service_cpu_s"] / window_s,
        "wal.append_ms_p50": _p50_ms(total("wal.append")),
        "wal.replay_ms_p50": _p50_ms(total("wal.replay")),
        "wal.fsyncs_per_push": extra["wal_fsyncs"] / max(extra["pushes"], 1),
        "wal.bytes_per_delta": (
            sum(_attr(s, "bytes") for s in push_wal) / wal_deltas if wal_deltas else 0.0
        ),
        "session.save_ms_p50": _p50_ms(total("session.save")),
        "session.load_ms_p50": _p50_ms(total("session.load")),
        "stream.fold_ms_p50": _p50_ms(total("stream.fold")),
        "stream.flush_ms_p50": _p50_ms(s[4] - s[3] for s in flushes),
        "stream.flushes": len(flushes),
        "stream.deltas_per_flush": (
            sum(_attr(s, "deltas") for s in flushes) / len(flushes) if flushes else 0.0
        ),
        "core.stages_per_flush": (
            sum(1 for s in named.get("core.layering", ()) if enclosing_flush(s))
            / len(flushes)
            if flushes
            else 0.0
        ),
        "lp.solve_ms_p50": _p50_ms(total("lp.solve")),
        "lp.solves": len(lp),
        "lp.pivots": pivots,
        "lp.us_per_pivot": 1e6 * lp_s / pivots if pivots else 0.0,
        "lp.flush_share": lp_s / flush_s if flush_s else 0.0,
        "graph.apply_ms_p50": _p50_ms(self_s(s) for s in named.get("graph.apply", ())),
        "shard.get_ms_p50": _p50_ms(total("shard.get")),
        "shard.loads": sum(_attr(s, "loads") for s in named.get("shard.get", ())),
        "frame.hit_ratio": hits / lookups if lookups else 0.0,
        "spectral.initial_s": statistics.median(initial) if initial else 0.0,
        "client.labels_ms_p50": _p50_ms(total("client.labels")),
        "client.quality_ms_p50": _p50_ms(total("client.quality")),
        "trace.overhead_ratio": extra["traced_p50"] / extra["untraced_p50"],
    }
    for stage in _CORE_STAGES:
        out[f"core.{stage}_ms_p50"] = _p50_ms(per_flush[stage].values())
    return {name: out[name] for name in LAYER_METRICS}
