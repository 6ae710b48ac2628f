"""Self-test of the benchmark at smoke size.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every workload prints every metric ``BENCHMARK.json``
declares, with its unit, in both modes; that a seed names one request list
and one set of deterministic metrics; and that the oracle catches a
corrupted warm_serve cache entry (a task duration set to -1).  Exits 0 when
every check passes.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "4"
# Metrics that are pure functions of the request list.
DETERMINISTIC = ("iter_s.gmean", "peak_mem_gib.gmean")


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
               "--size", "smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {done.returncode}:\n"
                             f"{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for name, metric in result["metrics"].items():
        printed = [line for line in lines[:-1] if line.startswith(name + " ")]
        if not printed or metric["unit"] not in printed[0].split():
            raise AssertionError(f"{workload}: {name} is not printed with its unit")
    return result


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            result = run(workload, 1, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared:
                raise AssertionError(f"{workload} trace={trace}: metrics {got} "
                                     f"differ from BENCHMARK.json {declared}")
            if result["attempted"] < 1 or not result["correct"]:
                raise AssertionError(f"{workload} trace={trace}: {result}")
    print("ok: every workload prints every declared metric with its unit")


def check_determinism() -> None:
    import workloads

    for workload in ("cold", "warm_serve", "tune"):
        first = workloads.draw_requests(workload, 7, "smoke")
        if first != workloads.draw_requests(workload, 7, "smoke"):
            raise AssertionError(f"{workload}: seed 7 drew two request lists")
    lists = {tuple(workloads.draw_requests("cold", seed, "full")) for seed in range(8)}
    if len(lists) < 2:
        raise AssertionError("cold: eight seeds drew one request list")
    runs = [run("cold", 7, 0)["metrics"] for _ in range(2)]
    for name in DETERMINISTIC:
        if runs[0][name]["value"] != runs[1][name]["value"]:
            raise AssertionError(f"cold seed 7: {name} differs between runs")
    print("ok: a seed gives one request list and one set of deterministic metrics")


def corrupt_one_entry(program_dir: str) -> str:
    """Set one task of one cached program to duration -1, choosing a task
    whose change moves the simulated iteration time (in a data-parallel or
    partitioned program a single replica's task is often off the critical
    path).  Returns the task's name."""
    from repro.runtime.program import program_from_dict
    from repro.sim.engine import TaskGraphSimulator

    def iteration_time(payload):
        program = program_from_dict(payload)
        return TaskGraphSimulator(program.machine).run_reference(
            program.tasks, peak_memory=program.per_device_memory,
            check_memory=program.check_memory,
        ).iteration_time

    for path in sorted(glob.glob(os.path.join(program_dir, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        payload = entry["program"]
        before = iteration_time(payload)
        for task in sorted(payload["tasks"], key=lambda t: -t["duration"])[:20]:
            duration, task["duration"] = task["duration"], -1.0
            if iteration_time(payload) != before:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh)
                return task["name"]
            task["duration"] = duration
    raise AssertionError("no cached task moves its program's iteration time")


def check_corruption() -> None:
    import oracle
    import workloads
    from spans import Recorder

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    env = workloads.Env("warm_serve", 3, "smoke", out)
    try:
        env.setup()
        clean = workloads.run_phase(env, 1, Recorder(), traced=False)
        task = corrupt_one_entry(env.cache_dirs[1])
        dirty = workloads.run_phase(env, 1, Recorder(), traced=False)
    finally:
        env.close()

    def wrong(phase):
        return [row for row in phase.rows if oracle.is_wrong_number(row.problems)]

    def error_rate(phase):
        return sum(1 for row in phase.rows if not row.ok) / len(phase.rows)

    if wrong(clean):
        raise AssertionError("warm_serve reported wrong numbers before corruption")
    if not wrong(dirty) or error_rate(dirty) <= 0:
        raise AssertionError(f"corrupting task {task} went unnoticed")
    print(f"ok: corrupted task {task}: error_rate {error_rate(clean):.3f} -> "
          f"{error_rate(dirty):.3f}, {len(wrong(dirty))} wrong results caught")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_determinism()
    check_corruption()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
