"""Per-layer breakdown of one cold ``repro.compile(graph, "tofu")`` of the
paper-size RNN-6-4K and WResNet-50-4, from the benchmark's traced run.

Run from the repository root::

    python3 perfbench/baseline.py

Each compile runs as a ``cold`` workload operation (empty disk-backed
caches, simulator cache cleared) under the span recorder; the table shows
the median self time of each layer over ``REPEATS`` compiles.  Two cross-checks tie
the spans to the library's own numbers: the ``planner.search`` span against
``PartitionPlan.search_time_seconds``, and, for the same two requests sent
cold through a ``CompileService``, the ``planner.search`` call count
against ``CompileService.stats()["searches"]``.
"""

from __future__ import annotations

import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

REPEATS = 3
REQUESTS = (("rnn", (6, 4096)), ("wresnet", (50, 4)))
# Table columns: (heading, spans whose self times it sums).
COLUMNS = (
    ("search", ("planner.search",)),
    ("lowering", ("runtime.backend_lower",)),
    ("program cache put", ("runtime.cache_put",)),
    ("cache keys", ("planner.cache_key", "runtime.cache_key",
                    "caching.graph_signature")),
    ("sim fingerprint", ("sim.fingerprint",)),
    ("sim compile", ("sim.compile",)),
    ("sim run", ("sim.run",)),
)


def traced_cold(env, request, workloads, Recorder):
    recorder = Recorder()
    recorder.install()
    recorder.enabled = True
    counts = defaultdict(float)
    try:
        row = workloads.cold_op(env, request, 0, recorder, counts)
    finally:
        recorder.uninstall()
    return recorder.summary(), counts, row


def service_check(env, requests, Recorder):
    from repro.serve import CompileService

    recorder = Recorder()
    recorder.install()
    try:
        with CompileService(workers=1) as service:
            recorder.trace_service(service)
            recorder.enabled = True
            responses = [service.compile(env.compile_request(r)) for r in requests]
            recorder.enabled = False
            stats = service.stats()
    finally:
        recorder.uninstall()
    summary = recorder.summary()
    searched = sum(r.model["plan"]["search_time_seconds"] for r in responses if r.ok)
    return summary, stats, searched


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from spans import ROOT as ROOT_SPAN, Recorder, search_problems

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    env = workloads.Env("cold", 0, "full", out)
    env.requests = [workloads.Request(f, dims, "tofu") for f, dims in REQUESTS]
    env.graphs = {
        r.model: workloads.build_graph(r.family, r.dims, "full") for r in env.requests
    }
    workloads.warm_up()

    print("| cold `repro.compile(g, \"tofu\")` | nodes | total | "
          + " | ".join(name for name, _ in COLUMNS) + " | outside any span |")
    print("|---" * (len(COLUMNS) + 4) + "|")
    failures = []
    for request in env.requests:
        runs = [traced_cold(env, request, workloads, Recorder)
                for _ in range(REPEATS)]
        cells = []
        for _, spans in COLUMNS:
            cells.append(statistics.median(
                sum(s["self_s"].get(span, 0.0) for span in spans) for s, _, _ in runs))
        total = statistics.median(s["root_s"] for s, _, _ in runs)
        outside = statistics.median(s["self_s"].get(ROOT_SPAN, 0.0) + sum(
            v for k, v in s["self_s"].items()
            if k != ROOT_SPAN and not any(k in spans for _, spans in COLUMNS))
            for s, _, _ in runs)
        nodes = env.graphs[request.model].num_nodes()
        print(f"| {request.label} | {nodes:,} | {total:.2f} s | "
              + " | ".join(f"{c:.3f} s" for c in cells) + f" | {outside:.3f} s |")
        for summary, counts, row in runs:
            span = summary["wall_s"].get("planner.search", 0.0)
            plan = counts["planner.search_time_seconds"]
            print(f"  planner.search span {span:.3f} s, plan search_time_seconds "
                  f"{plan:.3f} s; oracle: {'; '.join(row.problems) or 'ok'}")
            failures += [f"{request.label}: {problem}"
                         for problem in search_problems(summary, plan_search_s=plan)]

    summary, stats, searched = service_check(env, env.requests, Recorder)
    calls = summary["calls"].get("planner.search", 0)
    span = summary["wall_s"].get("planner.search", 0.0)
    print(f"service: planner.search calls {calls}, stats()['searches'] "
          f"{stats['searches']}; search spans {span:.3f} s, successful "
          f"responses' plan search_time_seconds {searched:.3f} s")
    failures += search_problems(summary, service_searches=stats["searches"])
    for failure in failures:
        print(f"cross-check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
