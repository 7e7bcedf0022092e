"""The repository's benchmark: closed-loop workloads through the whole
partition-serving stack (HTTP gateway -> v1 wire service -> WAL ->
streaming session -> LP pipeline), end to end and layer by layer.

One run, from the repository root::

    python3 perfbench/run.py --workload amr-igpr --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs the workload twice, untraced and then with every
layer's entry points wrapped in timing spans, and prints the per-layer
metrics plus the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Repeat mode runs each workload N times with seeds ``seed .. seed+N-1``
and prints each metric's median, quartiles and spread against its
bound; ``--compare`` checks a second set against a first::

    python3 perfbench/run.py --repeat 10 --workload all --out a.json
    python3 perfbench/run.py --repeat 10 --workload all --out b.json
    python3 perfbench/run.py --compare a.json b.json

Scratch state (session roots, span dumps, per-run records) lives under
``.perfbench/`` in the checkout.  See ``perfbench/README.md`` for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Setup is repeated in every untraced run and its median reported, so
#: that work moved into setup shows; the self-tests shrink it to one.
SETUP_REPEATS = 3


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def _bootstrap() -> None:
    """Make the checkout's ``src/`` importable, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def _result_line(spec_metrics: list[dict], metrics: dict, tally) -> dict:
    declared = [m["name"] for m in spec_metrics]
    if sorted(declared) != sorted(metrics):
        raise SystemExit(
            f"error: computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}"
        )
    correct = tally.failed == 0 and all(v is not None for v in metrics.values())
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    }


def single(args) -> int:
    spec = _load_spec()
    _bootstrap()
    import tracing
    import workloads
    from stack import environment

    started = time.perf_counter()
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.generate(args.workload, args.seed, args.seconds, args.scale)
    generated = time.perf_counter() - started
    # The inputs live for the whole run: keep this load generator's
    # collector from rescanning them between timed requests.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            plain = workloads.run_pass(inputs, workdir / "plain", repeats=1, traced=False)
            traced = workloads.run_pass(inputs, workdir / "traced", repeats=1, traced=True)
            tally = plain.tally
            tally.merge(traced.tally)
            ok = plain.samples and traced.samples
            extra = dict(
                evictions=traced.counters["evictions"],
                reloads=traced.counters["reloads"],
                pushes=traced.counters["pushes"],
                wal_fsyncs=traced.counters["wal_fsyncs"],
                service_cpu_s=traced.window_cpu_s,
                untraced_p50=statistics.median(plain.samples) if ok else 1.0,
                traced_p50=statistics.median(traced.samples) if ok else 0.0,
            )
            metrics = tracing.layer_metrics(traced.spans, traced.window, extra)
            passes = {"untraced": plain, "traced": traced}
            spec_metrics = spec["per_layer"]
        else:
            res = workloads.run_pass(
                inputs, workdir, repeats=SETUP_REPEATS if args.scale >= 1 else 1, traced=False
            )
            tally = res.tally
            metrics = workloads.end_to_end(inputs, res)
            passes = {"untraced": res}
            spec_metrics = spec["end_to_end"]
        env = environment(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = _result_line(spec_metrics, metrics, tally)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "op": workloads.OP_MEANING[args.workload],
        "inputs": {
            "digest": inputs.digest(),
            "sessions": len(inputs.sessions),
            "vertices": [s.graph.num_vertices for s in inputs.sessions],
            "deltas_per_session": [len(s.deltas) for s in inputs.sessions],
            "warmup_deltas": inputs.warmup,
            "generate_s": generated,
        },
        "passes": {
            name: {
                "timed_samples": len(p.samples),
                "timed_ops": p.ops,
                "window_s": p.window[1] - p.window[0],
                "setup_s": p.setup_s,
                "server_cpu_s": p.cpu_s,
                "counters": p.counters,
            }
            for name, p in passes.items()
        },
        "failures": dict(tally.codes),
        "env": env,
        "wall_s": time.perf_counter() - started,
        "result": result,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  op: {workloads.OP_MEANING[args.workload]}")
    for p_name, p in record["passes"].items():
        print(
            f"  {p_name} pass: {p['timed_samples']} timed samples over "
            f"{p['window_s']:.2f} s; setup {', '.join(f'{x:.2f}' for x in p['setup_s'])} s"
        )
    for m in spec_metrics:
        print(f"  {m['name']:<26} {_fmt(metrics[m['name']]):>12} {m['unit']}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(
        f"correctness: {verdict} (attempted {tally.attempted}, failed {tally.failed}"
        f"{', by code ' + json.dumps(dict(tally.codes)) if tally.codes else ''})"
    )
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Repeat and compare
# ----------------------------------------------------------------------
def _spread(values: list[float]) -> tuple[float, float, float, float | None]:
    """median, q1, q3 and (q3 - q1) / |median|."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else None


def repeat(args) -> int:
    spec = _load_spec()
    names = ["amr-igpr", "churn-sharded", "tenants-lru"] if args.workload == "all" else [args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}
    runs: dict[str, list[dict]] = {w: [] for w in names}
    failed_runs = 0
    for w in names:
        for i in range(args.repeat):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", w,
                "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", str(args.scale),
            ]
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
            try:
                stdout, stderr = proc.communicate()
            except BaseException:
                # Let the run stop its servers before this process exits.
                proc.terminate()
                proc.communicate()
                raise
            lines = stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed_runs += 1
                print(f"{w} seed {args.seed + i}: exit {proc.returncode}\n{stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            runs[w].append(result)
            print(
                f"{w} seed {args.seed + i}: correct={result['correct']} "
                f"({time.perf_counter() - t0:.1f} s)",
                flush=True,
            )
    out = Path(args.out) if args.out else WORK / "results" / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"kind": kind, "runs": runs}, indent=2), encoding="utf-8")
    print(
        f"\n{'workload':<15} {'metric':<24} {'unit':<12} {'median':>10} {'q1':>10} {'q3':>10} "
        f"{'spread':>8} {'bound':>6}"
    )
    noisy = 0
    for w in names:
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs[w] if r["metrics"][name]["value"] is not None]
            if not values:
                print(f"{w:<15} {name:<24} {m['unit']:<12} {'null':>10}")
                continue
            med, q1, q3, spread = _spread(values)
            bound = m.get("bound")
            verdict = ""
            if bound is not None and spread is not None:
                verdict = "steady" if spread <= bound / 3 else ("ok" if spread <= bound else "NOISY")
                noisy += name != "setup_s" and spread > bound
            print(
                f"{w:<15} {name:<24} {m['unit']:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                f"{_fmt(spread):>8} {_fmt(bound):>6} {verdict}"
            )
    print(f"\nset written to {out}")
    return 1 if failed_runs or noisy else 0


def compare(args) -> int:
    spec = _load_spec()
    first = json.loads(Path(args.compare[0]).read_text(encoding="utf-8"))
    second = json.loads(Path(args.compare[1]).read_text(encoding="utf-8"))
    print(f"{'workload':<15} {'metric':<16} {'median 1':>10} {'median 2':>10} {'worse by':>9} {'bound':>6}")
    regressed = 0
    for w in sorted(set(first["runs"]) & set(second["runs"])):
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in first["runs"][w]]
            b = [r["metrics"][m["name"]]["value"] for r in second["runs"][w]]
            if None in a or None in b or not a or not b:
                print(f"{w:<15} {m['name']:<16} {'null':>10}")
                regressed += 1
                continue
            m1, m2 = statistics.median(a), statistics.median(b)
            worse = (m2 - m1) if m["better"] == "lower" else (m1 - m2)
            share = worse / abs(m1) if m1 else 0.0
            bad = share > m["bound"]
            regressed += bad
            print(
                f"{w:<15} {m['name']:<16} {m1:>10.4g} {m2:>10.4g} {share:>+9.3f} "
                f"{m['bound']:>6} {'REGRESSED' if bad else 'ok'}"
            )
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="amr-igpr",
                    help="amr-igpr, churn-sharded or tenants-lru ('all' in repeat mode)")
    ap.add_argument("--seed", type=int, default=1, help="input seed (first seed in repeat mode)")
    ap.add_argument("--seconds", type=float, default=10,
                    help="sizes the timed window: a fixed op count per second")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink graphs and op counts (the self-tests use 0.1)")
    ap.add_argument("--repeat", type=int, default=0, help="run each workload N times")
    ap.add_argument("--out", default=None, help="repeat mode: where to write the set")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two repeat sets against the bounds")
    args = ap.parse_args(argv)
    # SIGTERM unwinds through the finally blocks that stop the servers;
    # a second one must not interrupt that cleanup.
    def on_sigterm(*_):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.exit(143)

    signal.signal(signal.SIGTERM, on_sigterm)
    if args.compare:
        return compare(args)
    if args.repeat:
        return repeat(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
