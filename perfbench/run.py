"""The compile-path benchmark: ``cold``, ``warm_serve`` and ``tune``.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

``--seconds`` sizes the timed phase in whole rounds (see ``workloads.py``).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs one untraced stretch, then a traced one, and reports the per-layer
breakdown (spans recorded by wrapping each layer's entry points, see
``spans.py``).  Per-operation rows with the oracle's verdicts go to
``perfbench/out/``, as does the traced run's Chrome trace.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for the design.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cold", "warm_serve", "tune")

# Spans each workload must record in a traced run; a zero count fails it.
EXPECTED_SPANS = {
    "cold": (
        "compiler.compile", "strategy.lower", "planner.plan",
        "planner.cache_key", "planner.cache_get", "planner.cache_put",
        "planner.search", "runtime.lower", "runtime.cache_key",
        "runtime.cache_get", "runtime.cache_put", "runtime.backend_lower",
        "sim.simulate", "sim.fingerprint", "sim.compile", "sim.run",
        "caching.graph_signature",
    ),
    "warm_serve": (
        "serve.request", "serve.request_key", "serve.queue_wait",
        "compiler.compile", "compiler.to_dict", "strategy.lower",
        "planner.plan", "planner.cache_key", "planner.cache_get",
        "runtime.lower", "runtime.cache_key", "runtime.cache_get",
        "sim.simulate", "sim.fingerprint", "sim.compile", "sim.run",
        "caching.graph_signature",
    ),
    "tune": (
        "tuner.tune", "tuner.screen", "tuner.evaluate", "compiler.compile",
        "strategy.lower", "runtime.lower", "sim.simulate",
        "caching.graph_signature",
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="model sizes: the benchmark's own, or tiny ones for the self-test",
    )
    return parser.parse_args(argv)


def import_library():
    """Import ``repro`` from this checkout's ``src/``; returns the import
    seconds.  A checkout without the library is an error, never a silent
    fallback to some other installed copy."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no library under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")
    import workloads  # noqa: F401  (the rest of the imports)

    return time.perf_counter() - START


def rss_mib() -> float:
    """Peak RSS of this process or of its largest finished child process
    (the tuner's pool workers, on ``tune``), whichever is larger."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(env, phase, import_s):
    """Every end-to-end metric: ``name -> (value, unit, samples)``."""
    from workloads import gmean
    import oracle

    latencies = [row.latency_s for row in phase.rows]
    # Quality metrics weigh each distinct request once, counting only
    # requests that passed every check on every row.
    outcomes = {row.request: row.outcome for row in phase.rows if row.ok}
    for row in phase.rows:
        if not row.ok:
            outcomes.pop(row.request, None)
    good = list(outcomes.values())
    if not good:
        raise SystemExit("error: no operation passed the correctness checks")
    return {
        "latency_s.p50": (statistics.median(latencies), "s", len(latencies)),
        "latency_s.gmean": (gmean(latencies), "s", len(latencies)),
        "ops_per_s": (phase.ops_per_s, "1/s", len(latencies)),
        "iter_s.gmean": (gmean([o["iteration_time"] for o in good]), "s", len(good)),
        "peak_mem_gib.gmean": (gmean([oracle.peak_gib(o) for o in good]), "GiB",
                               len(good)),
        "rss_mib.peak": (rss_mib(), "MiB", 1),
        "setup_s": (import_s + statistics.median(env.setup_times), "s",
                    len(env.setup_times)),
    }


def extra_lines(rows):
    """Printed alongside the metrics: error rate and the latency tail."""
    failed = sum(1 for row in rows if not row.ok)
    lines = [f"error_rate {failed / len(rows):.4f} ratio ({failed}/{len(rows)})"]
    if len(rows) >= 100:
        p90 = statistics.quantiles([row.latency_s for row in rows], n=10)[-1]
        lines.append(f"latency_s.p90 {p90:.6f} s (n={len(rows)})")
    return lines


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(env, untraced, traced, recorder):
    """Every per-layer metric from the traced phase, per operation."""
    from spans import ROOT, SPAN_NAMES

    summary = recorder.summary()
    ops = len(traced.rows)
    calls, self_s = summary["calls"], summary["self_s"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, "1/op")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s/op")
    attributed = sum(self_s.get(name, 0.0) for name in SPAN_NAMES)
    unattributed = self_s.get(ROOT, 0.0)
    root = summary["root_s"]
    metrics["unattributed_s"] = (unattributed / ops, "s/op")
    metrics["root_s"] = (root / ops, "s/op")
    metrics["trace_overhead"] = (
        statistics.fmean(r.latency_s for r in traced.rows)
        / statistics.fmean(r.latency_s for r in untraced.rows),
        "ratio",
    )
    counts = traced.counts
    metrics["runtime.tasks_emitted"] = (
        recorder.counts["runtime.tasks_emitted"] / ops, "1/op")
    metrics["caching.bytes_written"] = (counts["caching.bytes_written"] / ops, "B/op")
    for key in ("runtime.cache", "planner.cache", "sim.compiled"):
        metrics[f"{key}_hit_ratio"] = (
            ratio(counts[f"{key}_hits"], counts[f"{key}_lookups"]), "ratio")
    metrics["serve.searches"] = (counts["serve.searches"] / ops, "1/op")
    metrics["serve.dedup_ratio"] = (
        ratio(counts["serve.deduped"], counts["serve.requests"]), "ratio")
    metrics["tuner.decided"] = (counts["tuner.decided"] / ops, "1/op")
    metrics["tuner.evaluated_ratio"] = (
        ratio(counts["tuner.evaluated"], counts["tuner.decided"]), "ratio")
    metrics["graph.nodes"] = (counts["graph.nodes"] / ops, "1/op")

    problems = check_trace(env, traced, summary, root, attributed + unattributed)
    return metrics, problems


def check_trace(env, traced, summary, root, accounted):
    """Consistency of the traced run: expected spans present, self times
    adding up to the root wall time, and the span counts agreeing with the
    library's own counters."""
    from spans import search_problems
    from workloads import NPROC

    calls = summary["calls"]
    expected = list(EXPECTED_SPANS[env.workload])
    if env.workload == "warm_serve" and any(not r.ok for r in env.fill.values()):
        # Never-cached (failed) requests lower and verify on every call.
        expected += ["runtime.backend_lower", "analysis.verify"]
    if env.workload == "tune":
        expected.append("caching.merge_payloads" if NPROC > 1 else "planner.search")
    problems = [f"span {name} recorded no calls" for name in expected
                if not calls.get(name)]
    if abs(root - accounted) > 1e-6 * max(1.0, root):
        problems.append(f"self times sum to {accounted!r}, root wall is {root!r}")
    if env.workload == "warm_serve":
        problems += search_problems(
            summary, service_searches=traced.counts["serve.searches"])
    if env.workload == "cold":
        problems += search_problems(
            summary, plan_search_s=traced.counts["planner.search_time_seconds"])
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    import oracle
    import workloads
    from spans import Recorder

    os.makedirs(OUT, exist_ok=True)
    env = workloads.Env(args.workload, args.seed, args.size, OUT)
    recorder = Recorder()
    try:
        env.setup()
        rounds = workloads.rounds_for(args.workload, args.seconds)
        if args.trace:
            # An untraced stretch (one round, or half the rounds when
            # serving) is the baseline of the tracing overhead.
            if args.workload == "warm_serve":
                first = max(1, rounds // 2)
                second = max(1, rounds - first)
            else:
                first, second = 1, rounds
            untraced = workloads.run_phase(env, first, recorder, traced=False)
            recorder.install()
            try:
                phase = workloads.run_phase(env, second, recorder, traced=True)
            finally:
                recorder.uninstall()
            rows = untraced.rows + phase.rows
        else:
            phase = workloads.run_phase(env, rounds, recorder, traced=False)
            rows = phase.rows
    finally:
        env.close()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"rows-{tag}.jsonl"), "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row.to_dict()) + "\n")

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(env.requests)} requests per round, {len(phase.rows)} timed ops")
    for request in env.requests:
        print(f"  request {request.label}")
    problems = []
    if args.trace:
        metrics, problems = per_layer(env, untraced, phase, recorder)
        recorder.write_chrome_trace(os.path.join(OUT, f"trace-{tag}.json"))
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        result = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in metrics.items()}
    else:
        metrics = end_to_end(env, phase, import_s)
        for name, (value, unit, samples) in metrics.items():
            print(f"{name} {value:.6g} {unit} (n={samples})")
        result = {name: {"value": value, "unit": unit}
                  for name, (value, unit, _) in metrics.items()}
    for line in extra_lines(rows):
        print(line)
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    failed = [row for row in rows if not row.ok]
    reasons = Counter((row.request, "; ".join(row.problems)[:160]) for row in failed)
    for (request, reason), count in sorted(reasons.items()):
        print(f"failed {count}x {request}: {reason}")
    if problems:
        return 1
    print(json.dumps({
        "correct": not any(oracle.is_wrong_number(row.problems) for row in failed),
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
