"""Self-tests of the benchmark at tiny scale.

Run from the repository root (the file name keeps them out of the
default test collection, since each case starts real servers)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seconds", "2", "--scale", "0.1"]
DETERMINISTIC = {
    0: ("cut_ratio", "imbalance"),
    1: ("lp.pivots", "stream.flushes", "service.evictions"),
}


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    cache: dict = {}

    def get(workload: str, seed: int, trace: int, again: bool = False) -> dict:
        key = (workload, seed, trace, again)
        if key not in cache:
            proc = _run(workload, seed, trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            cache[key] = json.loads(proc.stdout.strip().splitlines()[-1])
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(results, workload, trace):
    out = results(workload, 3, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = out["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_quality_repeat_exactly_for_one_seed(results, workload, trace):
    first = results(workload, 3, trace)
    second = results(workload, 3, trace, again=True)
    for name in DETERMINISTIC[trace]:
        if workload == "tenants-lru" and name == "service.evictions":
            # Two connections race for the LRU: an eviction that finds
            # its victim busy is retried on the next touch, so the count
            # depends on the interleaving.
            continue
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_decides_the_inputs(workload):
    a = workloads.generate(workload, 1, 2, 0.1).digest()
    assert workloads.generate(workload, 1, 2, 0.1).digest() == a
    assert workloads.generate(workload, 2, 2, 0.1).digest() != a


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("amr-igpr", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _span(pid, sid, name, key, t0, t1, parent=0, attrs=None):
    return [(pid, sid), name, key, t0, t1, 1, (pid, parent), attrs]


def test_self_time_subtracts_children_within_and_across_processes():
    spans = [
        # client request 0..10 over gateway backend 1..9 over manager 2..8
        _span(0, 1, "client.request", "s", 0.0, 10.0),
        _span(1, 1, "gateway.backend", "s", 1.0, 9.0),
        _span(2, 1, "manager.push", "s", 2.0, 8.0),
        # a concurrent request for another session must not count
        _span(1, 2, "gateway.backend", "t", 3.0, 4.0),
        # in the service thread: flush 2..8 with refine 3..7 holding an LP 4..5
        _span(2, 2, "stream.flush", None, 2.0, 8.0, 1, {"flushed": True, "deltas": 2}),
        _span(2, 3, "core.refine", None, 3.0, 7.0, 2),
        _span(2, 4, "lp.solve", None, 4.0, 5.0, 3, {"pivots": 10}),
    ]
    extra = dict(evictions=0, reloads=0, pushes=2, wal_fsyncs=2, service_cpu_s=5.0,
                 untraced_p50=1.0, traced_p50=1.1)
    m = tracing.layer_metrics(spans, (0.0, 10.0), extra)
    assert m["gateway.self_ms_p50"] == pytest.approx(2000.0)
    assert m["service.rpc_self_ms_p50"] == pytest.approx(2000.0)
    assert m["core.refine_ms_p50"] == pytest.approx(3000.0)
    assert m["lp.us_per_pivot"] == pytest.approx(1e5)
    assert m["lp.flush_share"] == pytest.approx(1 / 6)
    assert m["stream.deltas_per_flush"] == 2
    assert m["service.busy_ratio"] == pytest.approx(0.5)
    assert m["trace.overhead_ratio"] == pytest.approx(1.1)


def test_compare_flags_a_median_worse_than_its_bound(tmp_path):
    def run_set(path, op_p50):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["op_p50_ms"]["value"] = op_p50
        runs = [{"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}] * 3
        path.write_text(json.dumps({"kind": "end_to_end", "runs": {"amr-igpr": runs}}))
        return str(path)

    base = run_set(tmp_path / "a.json", 100.0)
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_p50_ms")
    for op_p50, code in ((100.0 * (1 + bound / 2), 0), (100.0 * (1 + 2 * bound), 1)):
        other = run_set(tmp_path / "b.json", op_p50)
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--compare", base, other],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code, proc.stdout
