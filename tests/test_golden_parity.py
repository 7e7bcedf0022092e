"""Golden bit-parity fixture for the LP pipeline.

``tests/data/golden_parity.json`` holds, for every ``STREAM_SOURCES``
stream under both exact simplex engines and both graph kinds (a
monolithic :class:`~repro.graph.csr.CSRGraph` and a 6-shard
:class:`~repro.graph.sharded.ShardedCSRGraph`), one record per flushed
batch: a sha256 of the label vector, the balance and refinement pivot
counts, each balance stage's ``(gamma, lp_iterations)``, whether the
§2.3 chunked fallback ran, and the final ``cut_total`` / ``imbalance``.

The file was recorded once and is replayed here unchanged: any
refactor of the pipeline must reproduce it bit for bit.  Regenerate it
only for an intended behaviour change, with::

    PYTHONPATH=src python tests/test_golden_parity.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import STREAM_SOURCES, make_stream
from repro.core.streaming import FlushPolicy, StreamingPartitioner
from repro.errors import ReproError
from repro.graph import ShardedCSRGraph
from repro.spectral.rsb import rsb_partition

GOLDEN = Path(__file__).parent / "data" / "golden_parity.json"
ENGINES = ("revised", "tableau")
KINDS = ("monolithic", "sharded")
NUM_PARTITIONS = 8


def _batch_record(rec) -> dict:
    res = rec.result
    refine = res.refine_stats
    return {
        "labels_sha256": hashlib.sha256(
            np.ascontiguousarray(res.part, dtype=np.int64).tobytes()
        ).hexdigest(),
        "balance_pivots": int(sum(s.lp_iterations for s in res.stages)),
        "refine_pivots": 0 if refine is None else int(refine.lp_iterations),
        "stages": [[float(s.gamma), int(s.lp_iterations)] for s in res.stages],
        "fallback": bool(rec.fallback),
        "cut_total": float(res.quality_final.cut_total),
        "imbalance": float(res.quality_final.imbalance),
    }


def replay(source: str, engine: str, kind: str) -> dict:
    """Run one stream through a streaming engine and record every batch."""
    base, deltas = make_stream(source, scale=0.3, steps=6, seed=7)
    part = rsb_partition(base, NUM_PARTITIONS, seed=0)
    graph = ShardedCSRGraph.from_csr(base, 6) if kind == "sharded" else base
    sp = StreamingPartitioner(
        graph,
        part,
        num_partitions=NUM_PARTITIONS,
        refine=True,
        lp_backend=engine,
        policy=FlushPolicy(max_pending=2),
        strict=False,
    )
    error = None
    try:
        for delta in deltas:
            sp.push(delta)
        sp.flush()
    except ReproError as exc:
        error = type(exc).__name__
    return {
        "batches": [_batch_record(rec) for rec in sp.history],
        "error": error,
    }


def _key(source: str, engine: str, kind: str) -> str:
    return f"{source}/{engine}/{kind}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("source", STREAM_SOURCES)
def test_stream_matches_golden(golden, source, engine, kind):
    expected = golden[_key(source, engine, kind)]
    assert expected["batches"], "fixture recorded no batches"
    assert replay(source, engine, kind) == expected


def test_fixture_covers_every_stream():
    recorded = set(json.loads(GOLDEN.read_text()))
    assert recorded == {
        _key(s, e, k) for s in STREAM_SOURCES for e in ENGINES for k in KINDS
    }


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {
        _key(s, e, k): replay(s, e, k)
        for s in STREAM_SOURCES
        for e in ENGINES
        for k in KINDS
    }
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
