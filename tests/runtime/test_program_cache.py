"""Lowered-program cache: hits are bit-identical to fresh lowering, the
content address invalidates on every semantic input, and the two-tier store
accounts for eviction and round-trips export bundles.

The parity half mirrors ``test_cluster_parity``: every registered execution
backend, on the bare machine and the one-machine cluster, must simulate a
cache-hit program to *exactly* the result of the freshly lowered one —
JSON round-trips floats through ``repr`` (shortest-exact), so no tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.models.mlp import build_mlp
from repro.partition.recursive import recursive_partition
from repro.runtime import (
    Executor,
    ExecutorConfig,
    ProgramCache,
    available_execution_backends,
    lowered_cache_key,
    program_from_dict,
    program_to_dict,
)
from repro.runtime.passes import round_robin_layer_placement
from repro.runtime.program import LoweredProgram
from repro.sim.device import ClusterSpec, Link, cluster_of, k80_8gpu_machine
from repro.sim.engine import Task, task_graph_fingerprint

MACHINE = k80_8gpu_machine(4)
CLUSTER = ClusterSpec(machines=[MACHINE])


def _backend_setup(name, graph):
    """(options, plan) each registered backend needs on the 4-GPU fixture."""
    if name == "placement":
        return {"device_of_node": round_robin_layer_placement(graph, 4)}, None
    if name == "tofu-partitioned":
        return {}, recursive_partition(graph, 4)
    if name == "hybrid":
        return {"replica_groups": 2, "inner": "tofu-partitioned"}, (
            recursive_partition(graph, 2)
        )
    if name == "pipeline":
        return {"num_stages": 2, "num_microbatches": 4}, None
    return {}, None


@pytest.fixture(
    scope="module", params=["mlp_bundle", "rnn_bundle"], ids=["mlp", "rnn"]
)
def bundle(request):
    return request.getfixturevalue(request.param)


# ---------------------------------------------------------------- parity


@pytest.mark.parametrize("topology", [MACHINE, CLUSTER], ids=["machine", "cluster"])
@pytest.mark.parametrize("backend", sorted(available_execution_backends()))
def test_cache_hit_simulates_bit_identically(bundle, backend, topology):
    options, plan = _backend_setup(backend, bundle.graph)
    executor = Executor(ExecutorConfig(program_cache_capacity=8))

    fresh = executor.lower(
        bundle.graph, plan=plan, machine=topology,
        backend=backend, backend_options=options,
    )
    hit = executor.lower(
        bundle.graph, plan=plan, machine=topology,
        backend=backend, backend_options=options,
    )
    info = executor.program_cache.info()
    assert info["hits"] == 1 and info["misses"] == 1

    # A hit reconstructs a *fresh* program (mutation-safe), not an alias...
    assert hit is not fresh
    assert set(hit.tasks) == set(fresh.tasks)
    assert hit.per_device_memory == fresh.per_device_memory
    assert hit.stats == fresh.stats
    # ... that simulates to the exact same floats as the fresh lowering.
    assert (
        executor.simulate(hit, topology) == executor.simulate(fresh, topology)
    )


def test_codec_round_trip_preserves_program(bundle):
    options, plan = _backend_setup("tofu-partitioned", bundle.graph)
    program = Executor(ExecutorConfig(cache_programs=False)).lower(
        bundle.graph, plan=plan, machine=MACHINE,
        backend="tofu-partitioned", backend_options=options,
    )
    clone = program_from_dict(program_to_dict(program))
    assert set(clone.tasks) == set(program.tasks)
    for name, task in program.tasks.items():
        twin = clone.tasks[name]
        assert twin.duration == task.duration
        assert twin.comm_bytes == task.comm_bytes
        assert tuple(twin.deps) == tuple(task.deps)
    assert clone.partitioned is not None


# ----------------------------------------------------------- invalidation


def _key(graph, machine=MACHINE, backend="single-device", options=None, plan=None):
    return lowered_cache_key(graph, machine, backend, options or {}, plan=plan)


def test_key_invalidates_on_graph_edit(mlp_bundle, rnn_bundle):
    assert _key(mlp_bundle.graph) != _key(rnn_bundle.graph)


def test_key_invalidates_on_strategy_change(mlp_bundle):
    graph = mlp_bundle.graph
    base = _key(graph, backend="pipeline", options={"num_stages": 2})
    assert base != _key(graph, backend="single-device")
    assert base != _key(graph, backend="pipeline", options={"num_stages": 4})
    plan_2 = recursive_partition(graph, 2)
    plan_4 = recursive_partition(graph, 4)
    assert _key(graph, backend="tofu-partitioned", plan=plan_2) != _key(
        graph, backend="tofu-partitioned", plan=plan_4
    )


def test_key_invalidates_on_cluster_change(mlp_bundle):
    graph = mlp_bundle.graph
    assert _key(graph, machine=MACHINE) != _key(
        graph, machine=cluster_of(k80_8gpu_machine(4), 2)
    )
    # ... but the degenerate one-machine cluster shares the bare machine's
    # programs only if their signatures differ — they do, by design: the
    # cluster wrapper is part of the lowering contract.
    assert _key(graph, machine=MACHINE) != _key(graph, machine=CLUSTER)


def test_executor_config_options_reach_the_key(mlp_bundle):
    """Backend options set on the ExecutorConfig (not per call) still
    invalidate: two executors differing only in config lower distinct
    cache entries."""
    cache = ProgramCache(capacity=8)
    for stages in (2, 4):
        executor = Executor(
            ExecutorConfig(
                backend="pipeline",
                backend_options={"num_stages": stages, "num_microbatches": 4},
            )
        )
        executor.program_cache = cache
        executor.lower(mlp_bundle.graph, machine=MACHINE)
    info = cache.info()
    assert info["misses"] == 2 and info["hits"] == 0 and info["size"] == 2


# ------------------------------------------------- eviction and round trip


def test_memory_lru_eviction_accounting(mlp_bundle):
    cache = ProgramCache(capacity=1)
    executor = Executor()
    executor.program_cache = cache
    for stages in (2, 4):
        executor.lower(
            mlp_bundle.graph, machine=MACHINE, backend="pipeline",
            backend_options={"num_stages": stages, "num_microbatches": 4},
        )
    assert len(cache) == 1  # capacity bound holds; oldest entry evicted
    # The evicted (stages=2) program misses again; the resident one hits.
    executor.lower(
        mlp_bundle.graph, machine=MACHINE, backend="pipeline",
        backend_options={"num_stages": 4, "num_microbatches": 4},
    )
    executor.lower(
        mlp_bundle.graph, machine=MACHINE, backend="pipeline",
        backend_options={"num_stages": 2, "num_microbatches": 4},
    )
    info = cache.info()
    assert info["hits"] == 1 and info["misses"] == 3


def test_disk_eviction_under_byte_budget(tmp_path, mlp_bundle):
    executor = Executor(
        ExecutorConfig(
            program_cache_dir=str(tmp_path / "store"),
            program_cache_capacity=8,
            program_cache_max_bytes=1,  # everything but the newest evicts
        )
    )
    for stages in (2, 4):
        executor.lower(
            mlp_bundle.graph, machine=MACHINE, backend="pipeline",
            backend_options={"num_stages": stages, "num_microbatches": 4},
        )
    info = executor.program_cache.info()
    assert info["disk_entries"] == 1
    assert info["disk_evictions"] >= 1


def test_export_import_round_trip(tmp_path, mlp_bundle):
    source = ProgramCache(cache_dir=str(tmp_path / "src"))
    executor = Executor()
    executor.program_cache = source
    fresh = executor.lower(
        mlp_bundle.graph, machine=MACHINE, backend="single-device"
    )
    bundle_path = str(tmp_path / "bundle.json")
    assert source.export_to(bundle_path) == 1

    target = ProgramCache(cache_dir=str(tmp_path / "dst"))
    stats = target.import_from(bundle_path)
    assert stats["imported"] == 1

    key = lowered_cache_key(mlp_bundle.graph, MACHINE, "single-device", {})
    restored = target.get(key)
    assert restored is not None
    simulator = Executor(ExecutorConfig(cache_programs=False))
    assert (
        simulator.simulate(restored, MACHINE)
        == simulator.simulate(fresh, MACHINE)
    )


# ------------------------------------------------------------- payload codec

# Names mix the separators lowering uses with non-ASCII; ':' never occurs,
# so an "ext:"-prefixed reference always dangles.
NAMES = st.text(alphabet="ab01@#_é中", min_size=1, max_size=6)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, -1e-310, 1.5]),
    st.floats(allow_nan=False),
)


@st.composite
def programs(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=10, unique=True))
    shared = Link("p2p", "p2p:1", draw(FLOATS), draw(FLOATS))
    # Same key, different bandwidth: a link the table must not merge.
    rival = Link(
        "p2p", "p2p:1",
        draw(FLOATS.filter(lambda b: repr(b) != repr(shared.bandwidth))),
        shared.latency,
    )
    refs = st.one_of(
        st.sampled_from(names), NAMES.map(lambda name: "ext:" + name)
    )
    devices = st.one_of(st.none(), st.integers(0, 7))
    tasks = {}
    for name in names:
        tasks[name] = Task(
            name,
            draw(st.integers(-1, 7)),
            draw(st.sampled_from(["compute", "comm"])),
            draw(FLOATS),
            draw(FLOATS),
            draw(st.sampled_from(["p2p", "cpu", "net"])),
            tuple(draw(st.lists(refs, max_size=3))),
            tuple(draw(st.lists(refs, max_size=2))),
            draw(st.sampled_from([None, shared, rival])),
            draw(devices),
            draw(devices),
            draw(st.one_of(st.none(), FLOATS)),
        )
    return LoweredProgram(
        backend="single-device", num_devices=8, tasks=tasks,
        per_device_memory={0: 1},
    )


@settings(max_examples=200, deadline=None)
@given(programs())
def test_codec_round_trips_tasks_exactly(program):
    payload = json.loads(json.dumps(program_to_dict(program)))
    clone = program_from_dict(payload)
    assert list(clone.tasks) == list(program.tasks)
    # repr tells -0.0 from 0.0; equality alone would not.
    assert repr(list(clone.tasks.values())) == repr(list(program.tasks.values()))
    assert task_graph_fingerprint(clone.tasks) == task_graph_fingerprint(
        program.tasks
    )
    for task in clone.tasks.values():
        assert type(task.deps) is tuple and type(task.after) is tuple
    # One shared Link object per links-table row.
    decoded = {
        (id(original.link), id(twin.link))
        for original, twin in zip(program.tasks.values(), clone.tasks.values())
        if original.link is not None
    }
    assert len({twin for _, twin in decoded}) == len({orig for orig, _ in decoded})


def _containers(value) -> int:
    if isinstance(value, dict):
        return 1 + sum(_containers(item) for item in value.values())
    if isinstance(value, list):
        return 1 + sum(_containers(item) for item in value)
    return 0


def test_payload_holds_one_container_per_task(rnn_bundle):
    options, plan = _backend_setup("tofu-partitioned", rnn_bundle.graph)
    program = Executor(ExecutorConfig(cache_programs=False)).lower(
        rnn_bundle.graph, plan=plan, machine=MACHINE,
        backend="tofu-partitioned", backend_options=options,
    )
    payload = program_to_dict(program)
    del payload["partitioned"]
    assert _containers(payload) <= len(program.tasks) + 64


# ----------------------------------------------------------- decode errors

V1_ENTRY = Path(__file__).resolve().parent.parent / "data" / "cache" / "program_v1.json"


def _small_mlp():
    return build_mlp(batch_size=8, input_dim=32, hidden_dim=32, num_layers=2,
                     num_classes=8).graph


def test_v1_entry_is_a_counted_miss_then_relowered(tmp_path):
    """A disk entry of the version-1 layout (``program_v1.json``, written by
    that codec for this very request) is re-lowered and overwritten."""
    graph = _small_mlp()
    entry = json.loads(V1_ENTRY.read_text(encoding="utf-8"))
    assert entry["program"]["version"] == 1
    (tmp_path / f"{entry['key']}.json").write_text(json.dumps(entry))

    def compile_with(executor):
        return repro.compile(graph, "pipeline:2:1f1b:2", num_workers=2,
                             executor=executor)

    executor = Executor(ExecutorConfig(program_cache_dir=str(tmp_path)))
    model = compile_with(executor)
    info = executor.program_cache.info()
    assert (info["hits"], info["misses"], info["decode_errors"]) == (0, 1, 1)
    fresh = compile_with(Executor(ExecutorConfig(cache_programs=False)))
    assert model.iteration_time == fresh.iteration_time

    rewritten = Executor(ExecutorConfig(program_cache_dir=str(tmp_path)))
    assert compile_with(rewritten).iteration_time == fresh.iteration_time
    info = rewritten.program_cache.info()
    assert (info["hits"], info["misses"], info["decode_errors"]) == (1, 0, 0)


def _truncate_offsets(payload):
    payload["deps"]["offsets"].pop()


def _index_past_end(payload):
    payload["deps"]["index"][0] = len(payload["tasks"]) + len(payload["extern"])


def _negative_index(payload):
    payload["deps"]["index"][0] = -1


def _link_past_end(payload):
    next(row for row in payload["tasks"] if row["link"] is not None)["link"] = 99


def _short_link_row(payload):
    payload["links"][0].pop()


def _missing_field(payload):
    del payload["tasks"][0]["duration"]


def _old_version(payload):
    payload["version"] = 0


@pytest.mark.parametrize("corrupt", [
    _truncate_offsets, _index_past_end, _negative_index, _link_past_end,
    _short_link_row, _missing_field, _old_version,
])
def test_undecodable_payload_is_a_counted_miss(rnn_bundle, corrupt):
    program = Executor(ExecutorConfig(cache_programs=False)).lower(
        rnn_bundle.graph, machine=MACHINE, backend="pipeline",
        backend_options={"num_stages": 2, "num_microbatches": 2},
    )
    payload = program_to_dict(program)
    corrupt(payload)
    cache = ProgramCache(capacity=4)
    cache.put_payload("entry", payload)
    assert cache.get("entry") is None
    info = cache.info()
    assert (info["hits"], info["misses"], info["decode_errors"]) == (0, 1, 1)
    assert info["size"] == 0  # dropped, so a re-lowering's put replaces it
