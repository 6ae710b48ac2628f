"""The :class:`LoweredProgram` — output of the lowering pipeline.

A lowered program is everything the simulator needs to execute one training
iteration of a graph under a particular execution style: device-assigned
compute/communication tasks, the per-device memory report, and bookkeeping
(aggregate communication volume, backend-specific statistics).  It is the
common currency between execution backends (:mod:`repro.runtime.backends`)
and the :class:`repro.runtime.Executor` facade, mirroring how
:class:`repro.partition.plan.PartitionPlan` is the currency between search
backends and the :class:`repro.planner.Planner`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.errors import ExecutionError
from repro.sim.device import Link, Topology
from repro.sim.engine import FrozenTaskGraph, Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (apply uses passes)
    from repro.partition.apply import PartitionedGraph
    from repro.partition.plan import PartitionPlan
    from repro.runtime.passes import PipelineSchedule

PROGRAM_PAYLOAD_VERSION = 2


@dataclass
class LoweredProgram:
    """Device-assigned tasks plus the memory report for one execution style.

    Attributes:
        backend: Name of the execution backend that produced the program.
        num_devices: Devices the program occupies.
        tasks: Simulator task graph (compute tasks and comm tasks).
        per_device_memory: Planned peak bytes per device index (the memory
            report the simulator checks against device capacity).
        total_comm_bytes: Aggregate communication volume of one iteration.
        check_memory: Whether the simulator should verdict OOM from
            ``per_device_memory`` (the Ideal baseline ignores memory).
        stats: Backend-specific scalars (e.g. swapped bytes for ``swap``).
        plan: The partition plan the program was lowered from, if any.
        partitioned: The full :class:`PartitionedGraph` detail when the
            program came from the ``tofu-partitioned`` backend.
        machine: The machine model the program was priced for; kernel
            durations and the memory report are only meaningful on it, so
            ``Executor.simulate`` defaults to it.
        num_microbatches: Micro-batches one iteration is split into (1 for
            unpipelined execution styles).
        stage_of_node: Graph node -> pipeline stage, when the program was
            staged (the per-stage memory report is keyed the same way).
        schedule: The per-stage slot order the lowering encoded as
            stage-ordering control dependencies, when the program is
            micro-batch pipelined.
        strategy: Canonical string of the :class:`repro.strategy.Strategy`
            the program was compiled from, when it came through
            ``repro.compile`` (provenance; empty for direct Executor use).
        cost_model: Cache token of the non-default cost model the program
            was priced under (``repro.costmodel.cost_model_cache_token``),
            or ``None`` for the default roofline pricing (provenance, and
            the discriminator the program-cache key folds in).
    """

    backend: str
    num_devices: int
    tasks: Dict[str, Task]
    per_device_memory: Dict[int, int]
    total_comm_bytes: float = 0.0
    check_memory: bool = True
    stats: Dict[str, float] = field(default_factory=dict)
    plan: Optional["PartitionPlan"] = None
    partitioned: Optional["PartitionedGraph"] = None
    machine: Optional[Topology] = None
    num_microbatches: int = 1
    stage_of_node: Optional[Mapping[str, int]] = None
    schedule: Optional["PipelineSchedule"] = None
    strategy: Optional[str] = None
    cost_model: Optional[str] = None
    #: Set by :meth:`freeze`; never serialised (a reloaded program starts
    #: unfrozen — whoever reconstructs it must opt in again).
    _frozen: Optional[FrozenTaskGraph] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------- freezing
    @property
    def frozen(self) -> bool:
        """Whether the program carries a trusted-immutable task handle."""
        return self._frozen is not None

    def freeze(self) -> "LoweredProgram":
        """Mark the task graph trusted-immutable and return ``self``.

        Repeat simulations then skip the per-call content fingerprint
        (~11 ms at 20k tasks) — the warm-path headroom the profiling work
        identified.  The caller promises not to mutate ``tasks`` while the
        program stays frozen; a mutation behind a frozen handle silently
        replays stale results.  Workflows that *do* mutate tasks (the
        framework-overhead ablation scales durations in place) must
        :meth:`thaw` first — or simply never freeze.
        """
        if self._frozen is None or self._frozen.tasks is not self.tasks:
            self._frozen = FrozenTaskGraph(self.tasks)
        return self

    def thaw(self) -> "LoweredProgram":
        """Drop the frozen handle; simulations fingerprint per call again."""
        self._frozen = None
        return self

    @property
    def simulation_tasks(self):
        """What the simulator should run: the frozen handle when one is set
        (fingerprint reused), the raw task dict otherwise."""
        return self._frozen if self._frozen is not None else self.tasks

    @property
    def per_device_peak_bytes(self) -> int:
        """Largest planned peak memory across devices, in bytes."""
        return max(self.per_device_memory.values(), default=0)

    @property
    def num_stages(self) -> int:
        """Pipeline stages of the program (1 when it is not staged)."""
        if self.schedule is not None:
            return self.schedule.num_stages
        return 1

    def summary(self) -> str:
        """One human-readable line per headline stat of the lowering."""
        gib = 1 << 30
        pipeline = ""
        if self.schedule is not None:
            pipeline = (
                f", stages={self.schedule.num_stages}"
                f"x{self.num_microbatches}mb ({self.schedule.style})"
            )
        return (
            f"LoweredProgram(backend={self.backend!r}, "
            f"devices={self.num_devices}, tasks={len(self.tasks)}, "
            f"comm={self.total_comm_bytes / gib:.2f} GiB/iter, "
            f"per-device mem={self.per_device_peak_bytes / gib:.2f} GiB"
            f"{pipeline})"
        )


# ---------------------------------------------------------------------------
# Serialization — what the lowered-program cache stores
# ---------------------------------------------------------------------------
def _csr_column(
    refs_of_tasks, slot_of: Dict[str, int], extern: List[str], num_tasks: int
) -> Dict[str, List[int]]:
    """One dependency stream as CSR: ``offsets`` (one more than there are
    tasks) and flat ``index`` slots — a task's position in emission order,
    or ``num_tasks + j`` for ``extern[j]``, a name outside the program."""
    offsets = [0]
    index: List[int] = []
    for refs in refs_of_tasks:
        for ref in refs:
            slot = slot_of.get(ref)
            if slot is None:
                slot = slot_of[ref] = num_tasks + len(extern)
                extern.append(ref)
            index.append(slot)
        offsets.append(len(index))
    return {"offsets": offsets, "index": index}


def _csr_decode(
    column: Mapping, names: List[str], num_tasks: int, field_name: str
) -> List[tuple]:
    """The per-task name tuples of one :func:`_csr_column` stream; a ragged
    or out-of-range column raises :class:`ExecutionError`."""
    offsets, index = column["offsets"], column["index"]
    if (
        len(offsets) != num_tasks + 1
        or offsets[0] != 0
        or offsets[-1] != len(index)
        or not all(map(operator.le, offsets, islice(offsets, 1, None)))
    ):
        raise ExecutionError(
            f"malformed lowered-program payload: {field_name!r} offsets do "
            f"not partition its {len(index)} indices over {num_tasks} tasks"
        )
    if index and (min(index) < 0 or max(index) >= len(names)):
        raise ExecutionError(
            f"malformed lowered-program payload: {field_name!r} indexes past "
            f"its {len(names)} task and extern names"
        )
    if not index:
        return [()] * num_tasks
    refs = [names[slot] for slot in index]
    return [tuple(refs[lo:hi]) for lo, hi in zip(offsets, islice(offsets, 1, None))]


def program_to_dict(program: LoweredProgram) -> Dict:
    """JSON-serialisable form of a lowered program; inverse of
    :func:`program_from_dict`.

    Everything is content, nothing is identity: tasks (in scheduling
    order), the links they ride, both dependency streams, the memory report,
    the partition plan, the priced machine model, the pipeline schedule, and
    the partitioned-graph detail.  JSON round-trips floats exactly
    (``repr``-based shortest encoding), so a reconstructed program simulates
    bit-identically to the one that was stored — the property the
    lowered-program cache's parity suite pins.

    Layout (version 2): ``tasks`` holds one flat dict of scalars per task,
    whose ``link`` is a row of the ``links`` table (``[kind, key,
    bandwidth, latency]``, one row per distinct link).  ``deps`` and
    ``after`` are CSR columns over the task list (:func:`_csr_column`);
    ``extern`` names what they reference outside the program, so an
    invalid program stays representable.  A task costs one container,
    which the cyclic garbage collector does not track (its values are all
    scalars), instead of a dict and two lists.
    """
    from repro.partition.plan import plan_to_dict
    from repro.sim.device import machine_to_dict

    tasks = list(program.tasks.values())
    links: List[list] = []
    row_of_link: Dict[tuple, int] = {}
    rows = []
    for task in tasks:
        link = task.link
        row = None
        if link is not None:
            # repr keeps -0.0 and int/float bandwidths apart, which Link
            # equality would merge.
            content = (link.kind, link.key, repr(link.bandwidth), repr(link.latency))
            row = row_of_link.get(content)
            if row is None:
                row = row_of_link[content] = len(links)
                links.append([link.kind, link.key, link.bandwidth, link.latency])
        rows.append(
            {
                "name": task.name,
                "device": task.device,
                "kind": task.kind,
                "duration": task.duration,
                "comm_bytes": task.comm_bytes,
                "channel": task.channel,
                "link": row,
                "src_device": task.src_device,
                "dst_device": task.dst_device,
                "comm_time": task.comm_time,
            }
        )
    slot_of = {task.name: slot for slot, task in enumerate(tasks)}
    extern: List[str] = []
    payload: Dict = {
        "version": PROGRAM_PAYLOAD_VERSION,
        "backend": program.backend,
        "num_devices": program.num_devices,
        "tasks": rows,
        "links": links,
        "deps": _csr_column(
            (task.deps for task in tasks), slot_of, extern, len(tasks)
        ),
        "after": _csr_column(
            (task.after for task in tasks), slot_of, extern, len(tasks)
        ),
        "extern": extern,
        "per_device_memory": {
            str(device): int(required)
            for device, required in program.per_device_memory.items()
        },
        "total_comm_bytes": program.total_comm_bytes,
        "check_memory": program.check_memory,
        "stats": dict(program.stats),
        "plan": None if program.plan is None else plan_to_dict(program.plan),
        "machine": (
            None if program.machine is None
            else machine_to_dict(program.machine)
        ),
        "num_microbatches": program.num_microbatches,
        "stage_of_node": (
            None if program.stage_of_node is None
            else dict(program.stage_of_node)
        ),
        "schedule": None,
        "strategy": program.strategy,
        "cost_model": program.cost_model,
        "partitioned": None,
    }
    if program.schedule is not None:
        payload["schedule"] = {
            "num_stages": program.schedule.num_stages,
            "num_microbatches": program.schedule.num_microbatches,
            "style": program.schedule.style,
            "slots_of_stage": [
                [[phase, microbatch] for phase, microbatch in slots]
                for slots in program.schedule.slots_of_stage
            ],
        }
    if program.partitioned is not None:
        from repro.graph.serialization import graph_to_dict

        detail = program.partitioned
        payload["partitioned"] = {
            "num_devices": detail.num_devices,
            "per_device_memory": {
                str(device): int(required)
                for device, required in detail.per_device_memory.items()
            },
            "total_comm_bytes": detail.total_comm_bytes,
            "fetch_bytes_per_node": dict(detail.fetch_bytes_per_node),
            "reduce_bytes_per_node": dict(detail.reduce_bytes_per_node),
            "sharded_graph": graph_to_dict(detail.sharded_graph),
            "plan": plan_to_dict(detail.plan),
        }
    return payload


def program_from_dict(payload: Mapping) -> LoweredProgram:
    """Rebuild a :class:`LoweredProgram` from :func:`program_to_dict` output.

    A payload this version cannot decode raises: :class:`ExecutionError` for
    a wrong ``version``, a ragged or out-of-range column, or a short link
    row; ``KeyError``/``TypeError`` for a missing or mistyped field.  The
    caches treat all of them as a miss (:data:`repro.caching.DECODE_ERRORS`).
    """
    version = payload.get("version")
    if version != PROGRAM_PAYLOAD_VERSION:
        raise ExecutionError(
            f"unsupported lowered-program payload version {version!r} "
            f"(this library reads version {PROGRAM_PAYLOAD_VERSION})"
        )
    from repro.partition.plan import plan_from_dict
    from repro.runtime.passes import PipelineSchedule
    from repro.sim.device import machine_from_dict

    rows = payload["tasks"]
    link_of = {None: None}
    for slot, row in enumerate(payload["links"]):
        if len(row) != 4:
            raise ExecutionError(
                f"malformed lowered-program payload: link row {slot} has "
                f"{len(row)} fields, not 4"
            )
        link_of[slot] = Link(*row)
    fields = operator.itemgetter(
        "name",
        "device",
        "kind",
        "duration",
        "comm_bytes",
        "channel",
        "link",
        "src_device",
        "dst_device",
        "comm_time",
    )
    scalars = list(map(fields, rows))
    names = [values[0] for values in scalars] + list(payload["extern"])
    deps = _csr_decode(payload["deps"], names, len(rows), "deps")
    after = _csr_decode(payload["after"], names, len(rows), "after")
    tasks = {}
    for values, task_deps, task_after in zip(scalars, deps, after):
        name, device, kind, duration, comm_bytes, channel, link, src, dst, comm = values
        tasks[name] = Task(
            name,
            device,
            kind,
            duration,
            comm_bytes,
            channel,
            task_deps,
            task_after,
            link_of[link],
            src,
            dst,
            comm,
        )
    plan = (
        None if payload.get("plan") is None
        else plan_from_dict(payload["plan"])
    )
    schedule = None
    if payload.get("schedule") is not None:
        entry = payload["schedule"]
        schedule = PipelineSchedule(
            num_stages=entry["num_stages"],
            num_microbatches=entry["num_microbatches"],
            style=entry["style"],
            slots_of_stage=[
                [(phase, microbatch) for phase, microbatch in slots]
                for slots in entry["slots_of_stage"]
            ],
        )
    partitioned = None
    if payload.get("partitioned") is not None:
        from repro.graph.serialization import graph_from_dict
        from repro.partition.apply import PartitionedGraph

        entry = payload["partitioned"]
        partitioned = PartitionedGraph(
            num_devices=entry["num_devices"],
            # The partitioned detail shares the program's task dict, exactly
            # as the tofu-partitioned backend builds it.
            tasks=tasks,
            per_device_memory={
                int(device): required
                for device, required in entry["per_device_memory"].items()
            },
            total_comm_bytes=entry["total_comm_bytes"],
            fetch_bytes_per_node=dict(entry["fetch_bytes_per_node"]),
            reduce_bytes_per_node=dict(entry["reduce_bytes_per_node"]),
            sharded_graph=graph_from_dict(entry["sharded_graph"]),
            plan=plan_from_dict(entry["plan"]),
        )
    return LoweredProgram(
        backend=payload["backend"],
        num_devices=payload["num_devices"],
        tasks=tasks,
        per_device_memory={
            int(device): required
            for device, required in payload["per_device_memory"].items()
        },
        total_comm_bytes=payload["total_comm_bytes"],
        check_memory=payload["check_memory"],
        stats=dict(payload["stats"]),
        plan=plan,
        partitioned=partitioned,
        machine=(
            None if payload.get("machine") is None
            else machine_from_dict(payload["machine"])
        ),
        num_microbatches=payload["num_microbatches"],
        stage_of_node=(
            None if payload.get("stage_of_node") is None
            else dict(payload["stage_of_node"])
        ),
        schedule=schedule,
        strategy=payload.get("strategy"),
        cost_model=payload.get("cost_model"),
    )
