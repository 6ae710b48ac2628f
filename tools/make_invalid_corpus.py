#!/usr/bin/env python
"""Regenerate the seeded-mutation corpus under ``tests/data/invalid/``.

Each corpus file is one healthy compiler artifact with exactly one seeded
invariant violation, plus the metadata the test suite needs to drive the
static verifier at it:

* ``kind`` — ``"program"`` (a ``program_to_dict`` payload), ``"plan"`` (a
  ``plan_to_dict`` payload with the graph it partitions), or ``"config"``
  (a descriptor for the cache-key checker's config-class override);
* ``checker`` — the registry name of the checker expected to fire;
* ``expect_code`` — the stable error code the checker must report
  (``null`` for the two healthy control artifacts, which must verify
  clean).

Program violations are seeded on a decoded :class:`LoweredProgram` and then
encoded, so the corpus follows the payload codec rather than its layout.
The generator is deterministic — same library version, same bytes — so the
corpus can be regenerated after an artifact-format change with::

    PYTHONPATH=src python tools/make_invalid_corpus.py

and ``--check`` regenerates in memory and exits 1 naming every stale file.

``tests/analysis/test_checkers.py`` replays every file and asserts the
expected code (and only healthy artifacts verify clean), pinning each
checker to a concrete violation it must keep catching.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graph.serialization import graph_to_dict  # noqa: E402
from repro.models.mlp import build_mlp  # noqa: E402
from repro.models.rnn import build_rnn  # noqa: E402
from repro.partition.plan import (  # noqa: E402
    PartitionPlan,
    StepAssignment,
    plan_to_dict,
)
from repro.planner import Planner, PlannerConfig  # noqa: E402
from repro.runtime import Executor, ExecutorConfig  # noqa: E402
from repro.runtime.program import (  # noqa: E402
    program_from_dict,
    program_to_dict,
)
from repro.sim.device import k80_8gpu_machine  # noqa: E402

OUT_DIR = REPO_ROOT / "tests" / "data" / "invalid"


def _pipeline_program():
    """A healthy 2-stage 1f1b RNN pipeline program."""
    bundle = build_rnn(num_layers=2, hidden_size=32, seq_len=2, batch_size=4)
    machine = k80_8gpu_machine(4)
    executor = Executor(ExecutorConfig(cache_programs=False))
    return executor.lower(
        bundle.graph,
        machine=machine,
        backend="pipeline",
        backend_options={
            "num_stages": 2,
            "num_microbatches": 2,
            "schedule": "1f1b",
        },
    )


def _tofu_artifacts():
    """A healthy tofu-partitioned MLP: (graph dict, plan dict, program)."""
    bundle = build_mlp(
        batch_size=16, input_dim=32, hidden_dim=32, num_layers=2,
        num_classes=8,
    )
    machine = k80_8gpu_machine(4)
    plan = Planner(PlannerConfig()).plan(bundle.graph, 4, machine=machine)
    # Wall-clock search time is the one input that differs run to run.
    plan.search_time_seconds = 0.0
    executor = Executor(ExecutorConfig(cache_programs=False))
    program = executor.lower(
        bundle.graph, plan=plan, machine=machine, backend="tofu-partitioned"
    )
    return graph_to_dict(bundle.graph), plan_to_dict(plan), program


def _mutated(program, mutate):
    """The payload of a decoded copy of ``program`` after ``mutate(copy)``:
    violations are seeded on the program, and the codec encodes them."""
    clone = program_from_dict(program_to_dict(program))
    mutate(clone)
    return program_to_dict(clone)


def _compute_tasks(program):
    return [t for t in program.tasks.values() if t.kind == "compute"]


def _comm_tasks_with_link(program):
    return [t for t in program.tasks.values() if t.link is not None]


def _order_after_each_other(program):
    first, second = _compute_tasks(program)[:2]
    first.after = tuple(first.after) + (second.name,)
    second.after = tuple(second.after) + (first.name,)


def _depend_on_missing_task(program):
    task = _compute_tasks(program)[0]
    task.deps = tuple(task.deps) + ("no-such-task",)


def _duplicate_slot(program):
    slots = program.schedule.slots_of_stage[0]
    slots[1] = slots[0]


def _reverse_stage_zero(program):
    program.schedule.slots_of_stage[0].reverse()


def _skew_link(program):
    task = _comm_tasks_with_link(program)[0]
    task.link = dataclasses.replace(task.link, bandwidth=task.link.bandwidth + 1.0)


def _transfer_to_self(program):
    task = _comm_tasks_with_link(program)[0]
    task.dst_device = task.src_device


def _place_off_machine(program):
    next(iter(program.tasks.values())).device = 99


def _drop_first_device(program):
    program.check_memory = True
    del program.per_device_memory[min(program.per_device_memory)]


def _inflate_partitioned_memory(program):
    detail = program.partitioned
    detail.per_device_memory = {
        device: required + 9999
        for device, required in detail.per_device_memory.items()
    }


def build_corpus():
    """All corpus entries as ``name -> entry`` (entry is JSON-ready)."""
    pipeline = _pipeline_program()
    graph_dict, plan_dict, tofu = _tofu_artifacts()
    entries = {}

    def program_entry(name, description, checker, code, payload):
        entries[name] = {
            "name": name,
            "description": description,
            "kind": "program",
            "checker": checker,
            "expect_code": code,
            "program": payload,
        }

    def plan_entry(name, description, checker, code, plan_payload, graph_payload):
        entries[name] = {
            "name": name,
            "description": description,
            "kind": "plan",
            "checker": checker,
            "expect_code": code,
            "plan": plan_payload,
            "graph": graph_payload,
        }

    # ------------------------------------------------------ healthy controls
    program_entry(
        "healthy_pipeline", "unmutated 2-stage 1f1b RNN pipeline program",
        None, None, program_to_dict(pipeline))
    program_entry(
        "healthy_tofu", "unmutated 4-worker tofu-partitioned MLP program",
        None, None, program_to_dict(tofu))

    # -------------------------------------------------------------- shards
    # Overlap: a hand-built plan splitting a batch-2 dimension 4 ways (the
    # per-step parts still multiply to num_workers, isolating ANA001).
    tiny = build_mlp(
        batch_size=2, input_dim=32, hidden_dim=32, num_layers=2,
        num_classes=8,
    )
    victim = next(
        name for name, spec in sorted(tiny.graph.tensors.items())
        if tuple(spec.shape)[:1] == (2,)
    )
    step = StepAssignment(
        parts=2, tensor_dims={victim: 0}, op_strategies={},
        comm_bytes=0.0, weighted_bytes=0.0,
    )
    overlap_plan = PartitionPlan(num_workers=4, steps=[step, copy.deepcopy(step)])
    plan_entry(
        "overlapping_shards",
        f"tensor {victim!r} of extent 2 split 4 ways: shards overlap",
        "shard-conservation", "ANA001_SHARD_TILING",
        plan_to_dict(overlap_plan), graph_to_dict(tiny.graph))

    gap_plan = copy.deepcopy(plan_dict)
    gap_tensor = sorted(gap_plan["steps"][0]["tensor_dims"])[0]
    gap_plan["steps"][0]["tensor_dims"][gap_tensor] = 9
    plan_entry(
        "shard_dim_gap",
        f"tensor {gap_tensor!r} split along out-of-range dimension 9",
        "shard-conservation", "ANA001_SHARD_TILING", gap_plan, graph_dict)

    mismatch_plan = copy.deepcopy(plan_dict)
    mismatch_plan["num_workers"] += 1
    plan_entry(
        "worker_mismatch",
        "plan declares one more worker than its steps multiply to",
        "shard-conservation", "ANA002_WORKER_MISMATCH", mismatch_plan,
        graph_dict)

    # ------------------------------------------------------------ schedule
    program_entry(
        "cyclic_after",
        "two compute tasks ordered after each other: a scheduling cycle",
        "schedule-soundness", "ANA003_CYCLIC_SCHEDULE",
        _mutated(pipeline, _order_after_each_other))

    # The dangling name lands in the payload's extern table.
    program_entry(
        "dangling_dep",
        "a task depends on a name no task in the program carries",
        "schedule-soundness", "ANA004_DANGLING_DEP",
        _mutated(pipeline, _depend_on_missing_task))

    program_entry(
        "duplicate_slot",
        "stage 0 schedules one (phase, microbatch) slot twice and drops "
        "another",
        "schedule-soundness", "ANA005_SLOT_MULTIPLICITY",
        _mutated(pipeline, _duplicate_slot))

    program_entry(
        "deadlock_schedule",
        "stage 0's slot order reversed: every backward waits for a forward "
        "scheduled after it",
        "schedule-soundness", "ANA006_SCHEDULE_DEADLOCK",
        _mutated(pipeline, _reverse_stage_zero))

    # ---------------------------------------------------------------- comm
    program_entry(
        "bad_link",
        "a comm task rides a link the topology does not resolve between "
        "its endpoints",
        "comm-validity", "ANA007_BAD_LINK", _mutated(pipeline, _skew_link))

    program_entry(
        "self_transfer",
        "a comm task whose source and destination device coincide",
        "comm-validity", "ANA008_SELF_TRANSFER",
        _mutated(pipeline, _transfer_to_self))

    program_entry(
        "device_range",
        "a task placed on device 99 of a 4-device machine",
        "comm-validity", "ANA009_DEVICE_RANGE",
        _mutated(pipeline, _place_off_machine))

    # -------------------------------------------------------------- memory
    program_entry(
        "memory_coverage",
        f"the memory report forgets compute device "
        f"{min(pipeline.per_device_memory)}",
        "memory-plan", "ANA010_MEMORY_COVERAGE",
        _mutated(pipeline, _drop_first_device))

    program_entry(
        "memory_mismatch",
        "declared per-device peaks no longer reproducible from the sharded "
        "graph's liveness intervals",
        "memory-plan", "ANA011_MEMORY_MISMATCH",
        _mutated(tofu, _inflate_partitioned_memory))

    # ----------------------------------------------------------- cache key
    entries["stale_cache_key"] = {
        "name": "stale_cache_key",
        "description": "an ExecutorConfig field neither in the cache key "
        "nor declared non-semantic",
        "kind": "config",
        "checker": "cache-key",
        "expect_code": "ANA012_CACHE_KEY_FIELD",
        "extra_field": "mystery_knob",
    }
    return entries


def render_corpus():
    """Every corpus file as ``path -> text``, exactly as written."""
    return {
        OUT_DIR / f"{name}.json": json.dumps(
            entry, sort_keys=True, separators=(",", ":")) + "\n"
        for name, entry in sorted(build_corpus().items())
    }


def stale_files(rendered):
    """Corpus files whose committed bytes differ from ``rendered`` (or that
    ``rendered`` lacks, or that are missing), relative to the repository."""
    committed = set(OUT_DIR.glob("*.json"))
    stale = [
        path for path, text in rendered.items()
        if path not in committed or path.read_bytes() != text.encode("utf-8")
    ]
    stale += committed - set(rendered)
    return sorted(str(path.relative_to(REPO_ROOT)) for path in stale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate in memory and exit 1 naming every committed file "
        "that differs, instead of writing",
    )
    args = parser.parse_args(argv)
    rendered = render_corpus()
    if args.check:
        stale = stale_files(rendered)
        for path in stale:
            print(f"stale: {path}")
        if stale:
            print("regenerate with: PYTHONPATH=src python "
                  "tools/make_invalid_corpus.py")
            return 1
        print(f"corpus up to date: {len(rendered)} files")
        return 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for path, text in rendered.items():
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
