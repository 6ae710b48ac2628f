"""Correctness checks the benchmark runs on every result, outside the timed
region.

Two kinds of failure are kept apart.  A *rejected* operation raised an
error, got an error response, or produced a program the strict static
verifier flags; it counts in ``failed`` and ``error_rate``.  A *wrong
number* is a result that disagrees with an independent reference (the
reference simulator, the cold result of the same request, an explicit
compile of the tuner's winner); it also counts as failed and additionally
makes the run's ``correct`` flag false.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis import verify_program
from repro.partition.plan import plan_to_dict
from repro.sim.engine import TaskGraphSimulator

GIB = float(1 << 30)


def plan_identity(plan_payload: Optional[Dict]) -> Optional[Dict]:
    """A plan payload without its wall-clock search time."""
    if plan_payload is None:
        return None
    return {k: v for k, v in plan_payload.items() if k != "search_time_seconds"}


def model_outcome(model) -> Dict[str, object]:
    """The compared fields of a live :class:`repro.CompiledModel`."""
    return {
        "iteration_time": model.iteration_time,
        "plan": plan_identity(
            None if model.plan is None else plan_to_dict(model.plan)
        ),
        "per_device_memory": {
            str(device): int(required)
            for device, required in model.program.per_device_memory.items()
        },
    }


def payload_outcome(payload: Dict) -> Dict[str, object]:
    """The compared fields of a saved-model payload (a service response)."""
    return {
        "iteration_time": payload["result"]["iteration_time"],
        "plan": plan_identity(payload.get("plan")),
        "per_device_memory": {
            str(device): int(required)
            for device, required in payload["program"]["per_device_memory"].items()
        },
    }


def peak_gib(outcome: Dict[str, object]) -> float:
    return max(outcome["per_device_memory"].values()) / GIB


def check_model(model, graph) -> List[str]:
    """Problems with a freshly compiled model: its iteration time must equal
    the reference event loop's bit for bit, and strict verification of its
    program must find nothing."""
    program = model.program
    machine = program.machine
    reference = TaskGraphSimulator(machine).run_reference(
        program.tasks,
        peak_memory=program.per_device_memory,
        check_memory=program.check_memory,
    )
    problems = []
    if reference.iteration_time != model.iteration_time:
        problems.append(
            f"wrong: iteration_time {model.iteration_time!r} != reference "
            f"{reference.iteration_time!r}"
        )
    report = verify_program(program, graph=graph, machine=machine, plan=model.plan)
    problems.extend(
        f"verify: {code}" for code in sorted({f.code for f in report.findings})
    )
    return problems


def compare_outcomes(got: Dict[str, object], want: Dict[str, object]) -> List[str]:
    """Field-by-field differences, each marked as a wrong number."""
    return [
        f"wrong: {field} differs from the reference result"
        for field in ("iteration_time", "plan", "per_device_memory")
        if got[field] != want[field]
    ]


def is_wrong_number(problems: List[str]) -> bool:
    return any(problem.startswith("wrong:") for problem in problems)
