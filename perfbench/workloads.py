"""Inputs and closed-loop drivers of the three benchmark workloads.

Every workload runs through the whole chain: a
:class:`~repro.gateway.GatewayClient` in this process, ``repro-igp
gateway --proxy-port`` (HTTP) and ``repro-igp serve`` (v1 wire, WAL,
sessions, LP).  Loads are closed loops: a connection sends its next
request only after the previous one answered.

* ``amr-igpr`` -- the paper's regime: one monolithic session on an
  irregular mesh (P=32, refinement on, a flush per delta).  A step
  pushes one ``refine_in_disc`` delta, the disc moving round a circle,
  then reads the labels.  The refinement circulation LP and
  ``apply_delta`` do most of the work.
* ``churn-sharded`` -- ingest: social-churn deltas into sharded
  sessions (8 shards, 3 resident shard blocks, P=16, no refinement)
  under the server's default flush policy, one session busy at a time.
  WAL appends, delta folding, sharded apply, boundary-frame block
  reads (the shard store pages only on a frame miss) and the balance
  LP do the work.
* ``tenants-lru`` -- multi-tenant hosting: 12 small mesh sessions on a
  server holding 4 in memory, two connections owning 6 tenants each,
  pushing small refinements round-robin and reading ``quality`` after
  every 5th push per tenant.  Every push misses the LRU, so snapshot
  save and load, WAL truncation and the manager's locking do the work.

The number of timed operations is fixed by ``--seconds`` (and
``--scale``), not by the clock, so the final graphs -- and with them
cut, balance, pivot and flush counts -- are the same on every run of a
seed.  Inputs are generated before any server starts.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench.workloads import social_churn_stream
from repro.errors import ServiceError
from repro.gateway import GatewayClient
from repro.graph.csr import CSRGraph
from repro.graph.incremental import GraphDelta, apply_delta
from repro.mesh import irregular_mesh, node_graph
from repro.mesh.refinement import refine_in_disc
from repro.rng import make_rng
from repro.spectral.rsb import rsb_partition

import tracing
from stack import Stack, cpu_seconds, peak_rss_mb

WORKLOADS = ("amr-igpr", "churn-sharded", "tenants-lru")

#: What one timed operation is on each workload (the sample behind
#: ``op_p50_ms`` / ``op_p90_ms``) and what ``ops_per_s`` counts.
OP_MEANING = {
    "amr-igpr": "step = push (flushes) + labels; ops_per_s = steps/s",
    "churn-sharded": "freshness = delta sent -> ack of the flush that folded it; "
    "ops_per_s = deltas acknowledged/s",
    "tenants-lru": "push to a tenant that is not resident; "
    "ops_per_s = pushes + quality reads /s over both connections",
}

#: Timed operations per second of ``--seconds`` at scale 1, sized so
#: the timed window lasts about that long on a 2-core VM (churn's about
#: half as long: see ``_CHURN_REPLICAS``).
_TIMED_OPS_PER_S = {"amr-igpr": 10, "churn-sharded": 72, "tenants-lru": 20}
_PER_DELTA = {"weight_fraction": None, "imbalance_limit": None, "max_pending": 1}
#: churn-sharded replays one stream into this many identical sessions:
#: the generator costs ~50 ms a delta, a served delta ~7 ms, so
#: replaying is what makes the timed window seconds long.  Five replicas
#: (a ~9 s window) measured no steadier than three on a 2-core VM.
_CHURN_REPLICAS = 3
_TENANTS = 12
_TENANT_CONNECTIONS = 2
_TENANT_RESIDENT = 4
_READ_EVERY = 5

clock = time.perf_counter


@dataclass
class SessionInput:
    """One session: its initial graph, delta stream and the generator's
    own final graph (the reference the correctness gate checks
    against)."""

    name: str
    k: int
    seed: int
    graph: CSRGraph
    deltas: list[GraphDelta]
    final: CSRGraph
    create: dict


@dataclass
class Inputs:
    workload: str
    sessions: list[SessionInput]
    warmup: int  # deltas per session pushed before the timed window
    resident: int | None = None

    def digest(self) -> str:
        """Content hash of every generated array."""
        h = hashlib.sha256()
        for s in self.sessions:
            for g in (s.graph, s.final):
                h.update(g.xadj.tobytes())
                h.update(g.adj.tobytes())
            for d in s.deltas:
                for name, arr in sorted(d.to_arrays().items()):
                    h.update(name.encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _timed_ops(workload: str, seconds: float, scale: float) -> int:
    return max(3, round(_TIMED_OPS_PER_S[workload] * seconds * scale))


def _refinements(mesh, count: int, n_new: int, rng) -> tuple[list[GraphDelta], object]:
    """``count`` refinements of ``n_new`` nodes in a disc moving round a
    circle (40 positions a turn), starting at a seeded angle."""
    radius = 3.9 / math.sqrt(mesh.num_nodes) * math.sqrt(max(n_new, 1) / 60)
    phase = float(rng.uniform(0, 2 * math.pi))
    deltas = []
    for i in range(count):
        angle = phase + 2 * math.pi * i / 40
        center = (0.5 + 0.3 * math.cos(angle), 0.5 + 0.3 * math.sin(angle))
        step = refine_in_disc(mesh, center, radius, n_new)
        mesh = step.new_mesh
        deltas.append(step.delta)
    return deltas, mesh


def generate(workload: str, seed: int, seconds: float, scale: float = 1.0) -> Inputs:
    """The workload's inputs for ``seed`` (same seed, same arrays)."""
    timed = _timed_ops(workload, seconds, scale)
    if workload == "amr-igpr":
        rng = make_rng(seed)
        mesh = irregular_mesh(max(round(6000 * scale), 200), seed=rng)
        warmup = 5
        deltas, final = _refinements(mesh, warmup + timed, max(round(60 * scale), 4), rng)
        session = SessionInput(
            "amr", 32, seed, node_graph(mesh), deltas, node_graph(final),
            {"policy": _PER_DELTA, "config": {"lp_backend": "revised", "refine": True}},
        )
        return Inputs(workload, [session], warmup)
    if workload == "churn-sharded":
        warmup = 20
        base, deltas = social_churn_stream(
            n=max(round(2000 * scale), 100), steps=warmup + timed // _CHURN_REPLICAS, seed=seed
        )
        final = base
        for d in deltas:
            final = apply_delta(final, d).graph
        create = {"config": {"lp_backend": "revised"}, "shards": 8, "max_resident": 3}
        sessions = [
            SessionInput(f"churn{r}", 16, seed, base, deltas, final, create)
            for r in range(_CHURN_REPLICAS)
        ]
        return Inputs(workload, sessions, warmup)
    if workload == "tenants-lru":
        per_tenant = math.ceil(timed / _TENANTS)
        sessions = []
        for t in range(_TENANTS):
            rng = make_rng([seed, t])
            mesh = irregular_mesh(max(round(1500 * scale), 150), seed=rng)
            deltas, final = _refinements(mesh, 1 + per_tenant, max(round(15 * scale), 3), rng)
            sessions.append(
                SessionInput(
                    f"tenant{t:02d}", 16, seed * 100 + t, node_graph(mesh), deltas,
                    node_graph(final),
                    {"policy": _PER_DELTA, "config": {"lp_backend": "revised", "refine": True}},
                )
            )
        return Inputs(workload, sessions, 1, resident=_TENANT_RESIDENT)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class Tally:
    """Ops attempted and failed, failures keyed by the typed
    ``ServiceError`` code or by the correctness check that rejected the
    result (``check:<what>``).  Shared by the tenant threads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.codes: Counter = Counter()
        self._lock = threading.Lock()

    def op(self, fn, *args, check=None, **kwargs):
        """Run one client op; returns its result, or ``None`` when it
        raised a ``ServiceError`` or ``check(result)`` named a problem."""
        problem = None
        result = None
        try:
            result = fn(*args, **kwargs)
        except ServiceError as exc:
            problem = exc.code
        else:
            if check is not None:
                problem = check(result)
                if problem is not None:
                    problem = f"check:{problem}"
        with self._lock:
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.codes[problem] += 1
        return None if problem is not None else result

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.codes.update(other.codes)


# ----------------------------------------------------------------------
# One pass: set up the stack, warm up, run the timed window, verify
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one pass over a workload measured."""

    setup_s: list[float] = field(default_factory=list)
    samples: list[float] = field(default_factory=list)  # seconds per timed op
    ops: int = 0  # timed ops completed (pushes + reads on tenants-lru)
    window: tuple[float, float] = (0.0, 0.0)
    timed_failed: int = 0
    tally: Tally = field(default_factory=Tally)
    labels: dict = field(default_factory=dict)  # session -> final labels
    rss_mb: float = 0.0
    cpu_s: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)  # service counter deltas over the window
    window_cpu_s: float = 0.0  # service CPU seconds inside the window
    spans: list = field(default_factory=list)


def _expect(cond: bool, what: str) -> str | None:
    return None if cond else what


def _setup(inputs: Inputs, workdir: Path, repeats: int, tally: Tally, spans_dir):
    """Start the stack and create every session, ``repeats`` times;
    each time is measured from spawning the servers until every session
    answers ``quality``.  The last stack stays up."""
    times = []
    for r in range(repeats):
        wd = workdir / f"stack{r}"
        t0 = clock()
        stack = Stack(wd, resident=inputs.resident, spans_dir=spans_dir)
        try:
            port = stack.start()
            gw = GatewayClient(port=port, timeout=120.0)
            for s in inputs.sessions:
                tally.op(gw.create, s.name, partitions=s.k, graph=s.graph, seed=s.seed, **s.create)
            if inputs.workload == "churn-sharded":
                # Re-open from the snapshot: the shard store is then the
                # on-disk directory paging 3 blocks, as in any session
                # that has been reloaded once.
                for s in inputs.sessions:
                    tally.op(gw.close_session, s.name)
                    tally.op(gw.open, s.name)
            for s in inputs.sessions:
                tally.op(gw.quality, s.name)
            times.append(clock() - t0)
        except BaseException:
            stack.stop()
            raise
        if r < repeats - 1:
            gw.close()
            stack.stop()
            shutil.rmtree(wd, ignore_errors=True)
    return stack, gw, times


def _drive_amr(gw, inputs: Inputs, res: Pass, on_start) -> None:
    s = inputs.sessions[0]
    n = s.graph.num_vertices
    for i, d in enumerate(s.deltas):
        n += d.num_added_vertices - len(d.deleted_vertices)
        timed = i >= inputs.warmup
        if i == inputs.warmup:
            on_start()
            start = clock()
        t0 = clock()
        ack = res.tally.op(gw.push, s.name, d, check=lambda a: _expect(a["flushed"], "flushed"))
        labels = res.tally.op(
            gw.labels, s.name, check=lambda got, n=n: _expect(len(got) == n, "labels-length")
        )
        t1 = clock()
        if timed:
            if ack is None or labels is None:
                res.timed_failed += 1
            else:
                res.samples.append(t1 - t0)
                res.ops += 1
    res.window = (start, t1)


def _drive_churn(gw, inputs: Inputs, res: Pass, on_start) -> None:
    """Warm every replica, then replay the timed stream into each in
    turn: one contiguous window, one connection, one busy session at a
    time."""
    seq = dict.fromkeys((s.name for s in inputs.sessions), 0)

    def step(s, op, *args, timed: bool, pending: list[float]) -> list[float]:
        """One push (``args`` = the delta) or flush; returns the send
        times still pending after its ack."""
        seq[s.name] += 1
        t = clock()
        ack = res.tally.op(
            op, s.name, *args, check=lambda a, q=seq[s.name]: _expect(a["seq"] == q, "wal-seq")
        )
        t_ack = clock()
        if ack is None:
            res.timed_failed += timed
            return pending
        if args:
            pending = pending + [t]
            res.ops += timed
        if not ack["flushed"]:
            return pending
        if ack["batch"]["num_deltas"] != len(pending):
            res.tally.failed += 1
            res.tally.codes["check:flush-accounting"] += 1
        if timed:
            res.samples.extend(t_ack - sent for sent in pending)
        return []

    for s in inputs.sessions:
        pending: list[float] = []
        for d in s.deltas[: inputs.warmup]:
            pending = step(s, gw.push, d, timed=False, pending=pending)
        step(s, gw.flush, timed=False, pending=pending)
    on_start()
    start = clock()
    for s in inputs.sessions:
        pending = []
        for d in s.deltas[inputs.warmup :]:
            pending = step(s, gw.push, d, timed=True, pending=pending)
        step(s, gw.flush, timed=True, pending=pending)
    res.window = (start, clock())


def _drive_tenants(port: int, inputs: Inputs, res: Pass, on_start) -> None:
    own = [inputs.sessions[c::_TENANT_CONNECTIONS] for c in range(_TENANT_CONNECTIONS)]
    barrier = threading.Barrier(_TENANT_CONNECTIONS, action=on_start)
    bounds: list[tuple[float, float]] = []
    pushes: list[list[float]] = [[] for _ in own]
    errors: list[BaseException] = []
    lock = threading.Lock()
    flushed = lambda a: _expect(a["flushed"], "flushed")  # noqa: E731

    def connection(c: int) -> None:
        try:
            with GatewayClient(port=port, timeout=120.0) as client:
                for s in own[c]:
                    res.tally.op(client.push, s.name, s.deltas[0], check=flushed)
                barrier.wait()
                t_start = clock()
                failed = ops = 0
                for r in range(1, len(own[c][0].deltas)):
                    for s in own[c]:
                        t0 = clock()
                        ack = res.tally.op(client.push, s.name, s.deltas[r], check=flushed)
                        if ack is None:
                            failed += 1
                            continue
                        pushes[c].append(clock() - t0)
                        ops += 1
                        if r % _READ_EVERY == 0:
                            if res.tally.op(client.quality, s.name) is None:
                                failed += 1
                            else:
                                ops += 1
                t_end = clock()
                with lock:
                    bounds.append((t_start, t_end))
                    res.ops += ops
                    res.timed_failed += failed
        except BaseException as exc:  # re-raised by the main thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=connection, args=(c,)) for c in range(len(own))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    res.samples = [x for p in pushes for x in p]
    res.window = (min(b[0] for b in bounds), max(b[1] for b in bounds))


def cut_and_imbalance(graph: CSRGraph, labels: np.ndarray, k: int) -> tuple[float, float]:
    """Edge cut and max/mean part weight, computed here from scratch."""
    src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.xadj))
    cut = float(graph.eweights[labels[src] != labels[graph.adj]].sum() / 2.0)
    weights = np.bincount(labels, weights=graph.vweights, minlength=k)
    return cut, float(weights.max() / (weights.sum() / k))


def _verify(gw, inputs: Inputs, res: Pass) -> None:
    """The correctness gate: final labels over the wire against the
    generator's final graph, ``quality`` against a recomputation from
    those labels, and push/WAL accounting against the deltas sent."""
    explicit_flushes = 2 if inputs.workload == "churn-sharded" else 0
    for s in inputs.sessions:
        n, k = s.final.num_vertices, s.k

        def check_labels(labels):
            if len(labels) != n:
                return "labels-length"
            if len(labels) and (labels.min() < 0 or labels.max() >= k):
                return "labels-range"
            if np.bincount(labels, minlength=k).min() == 0:
                return "empty-part"
            return None

        labels = res.tally.op(gw.labels, s.name, check=check_labels)
        if labels is not None:
            res.labels[s.name] = labels
            cut, imbalance = cut_and_imbalance(s.final, labels, k)
            res.tally.op(
                gw.quality, s.name,
                check=lambda q: _expect(q["cut_total"] == cut, "quality-cut")
                or _expect(abs(q["imbalance"] - imbalance) <= 1e-9 * imbalance, "quality-imbalance"),
            )
        sent = len(s.deltas)
        res.tally.op(
            gw.session_stats, s.name,
            check=lambda info: _expect(info["num_pushed"] == sent, "num-pushed")
            or _expect(info["wal_seq"] == sent + explicit_flushes, "wal-seq")
            or _expect(info["num_pending"] == 0, "pending"),
        )


def run_pass(inputs: Inputs, workdir: Path, *, repeats: int, traced: bool) -> Pass:
    """Set up, warm up, time, verify and tear down once."""
    res = Pass()
    spans_dir = workdir / "spans" if traced else None
    client_rec = None
    if traced:
        spans_dir.mkdir(parents=True, exist_ok=True)
        client_rec = tracing.Recorder()
        tracing.install_client(client_rec)
    try:
        stack, gw, res.setup_s = _setup(inputs, workdir, repeats, res.tally, spans_dir)
        try:
            start: dict = {}

            def on_start() -> None:
                # Right before the first timed op: the counters and CPU
                # seconds below cover the timed window only.
                start["counters"] = gw.stats()["counters"]
                start["cpu"] = cpu_seconds(stack.service_pid())

            if inputs.workload == "amr-igpr":
                _drive_amr(gw, inputs, res, on_start)
            elif inputs.workload == "churn-sharded":
                _drive_churn(gw, inputs, res, on_start)
            else:
                _drive_tenants(stack.port, inputs, res, on_start)
            res.window_cpu_s = cpu_seconds(stack.service_pid()) - start["cpu"]
            after = gw.stats()["counters"]
            res.counters = {key: after[key] - start["counters"][key] for key in after}
            _verify(gw, inputs, res)
            res.rss_mb = peak_rss_mb(stack.service_pid())
            res.cpu_s = stack.cpu_seconds()
            gw.close()
        finally:
            stack.stop()
    finally:
        if client_rec is not None:
            client_rec.uninstall()
    if traced:
        res.spans = [[(0, s[0]), *s[1:6], (0, s[6]), s[7]] for s in client_rec.spans]
        for role in ("gateway", "service"):
            res.spans += tracing.load_spans(spans_dir / f"{role}.json")
    return res


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens) in milliseconds."""
    return 1e3 * statistics.quantiles(samples, n=10)[q // 10 - 1]


def end_to_end(inputs: Inputs, res: Pass) -> dict:
    """The end-to-end metrics of an untraced pass.  Latencies and rates
    of a workload whose timed ops failed are ``None``."""
    ok = res.timed_failed == 0 and len(res.samples) >= 2
    window = res.window[1] - res.window[0]
    cuts = rsb_cuts = 0.0
    imbalance = 0.0
    scratch_cut: dict = {}  # churn replicas share one final graph
    for s in inputs.sessions:
        labels = res.labels.get(s.name)
        if labels is None:
            cuts = None
            break
        cut, imb = cut_and_imbalance(s.final, labels, s.k)
        if id(s.final) not in scratch_cut:
            scratch = rsb_partition(s.final, s.k, seed=make_rng(s.seed))
            scratch_cut[id(s.final)] = cut_and_imbalance(s.final, scratch, s.k)[0]
        cuts += cut
        rsb_cuts += scratch_cut[id(s.final)]
        imbalance = max(imbalance, imb)
    t = res.tally
    return {
        "setup_s": statistics.median(res.setup_s),
        "op_p50_ms": _quantile(res.samples, 50) if ok else None,
        "op_p90_ms": _quantile(res.samples, 90) if ok else None,
        "ops_per_s": res.ops / window if ok and window > 0 else None,
        "cut_ratio": cuts / rsb_cuts if cuts is not None and rsb_cuts else None,
        "imbalance": imbalance if cuts is not None else None,
        "success_rate": (t.attempted - t.failed) / t.attempted,
        "server_rss_mb": res.rss_mb,
    }
