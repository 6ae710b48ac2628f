"""The compiled frontier-DP core must find exactly the reference plans.

``tests/partition/reference_dp.py`` keeps the dict-based ``_FrontierDP`` the
compiled core replaced.  ``reference_core()`` routes the public search entry
points through it, so each test below runs one search twice — compiled and
reference — and requires equal plans, compared as ``plan_to_dict`` without
the wall-clock ``search_time_seconds``.  Equality is exact: costs, tensor
dimensions and operator strategies, at every step, in the same order.

The matrix covers the MLP, RNN and CNN fixtures; 2, 4, 6 and 8 workers with
every factor order the planner explores; with and without output-reduction
strategies; the joint (non-recursive) search; and ``max_states=2``, where
the stable prune decides between equal-cost states.
"""

from __future__ import annotations

import json

import pytest

from repro import perf
from repro.partition.coarsen import coarsen
from repro.partition.cost import CommunicationCostModel
from repro.partition.dp import (
    count_joint_configurations,
    dp_partition_step,
    joint_partition,
)
from repro.partition.plan import plan_to_dict
from repro.partition.recursive import recursive_partition
from repro.planner.parallel import candidate_factorizations

from tests.partition.reference_dp import (
    _FrontierDP,
    reference_core,
    reference_count_joint_configurations,
)

FIXTURES = ["mlp_bundle", "rnn_bundle", "cnn_bundle"]


def canonical(plan) -> str:
    """The plan's JSON without its wall-clock ``search_time_seconds``;
    comparing text also pins the order of every per-tensor and per-node
    mapping, which the plan cache stores as is."""
    payload = plan_to_dict(plan)
    payload.pop("search_time_seconds", None)
    return json.dumps(payload)


def both(search):
    """``search()`` on the compiled core, then on the reference core."""
    compiled = search()
    with reference_core():
        reference = search()
    return compiled, reference


class TestStepParity:
    @pytest.mark.parametrize("parts", [2, 4, 8])
    def test_dp_step_is_bit_identical(self, mlp_bundle, parts):
        """One DP step splitting across ``parts`` worker groups."""
        graph = mlp_bundle.graph
        coarse = coarsen(graph)
        compiled, reference = both(
            lambda: dp_partition_step(
                graph, coarse, CommunicationCostModel(graph), parts
            )
        )
        assert list(compiled.tensor_dims.items()) == list(reference.tensor_dims.items())
        assert list(compiled.op_strategies.items()) == list(
            reference.op_strategies.items()
        )
        assert compiled.comm_bytes == reference.comm_bytes


class TestSearchParity:
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_recursive_plans_are_bit_identical(self, mlp_bundle, workers):
        compiled, reference = both(
            lambda: recursive_partition(mlp_bundle.graph, workers)
        )
        assert canonical(compiled) == canonical(reference)

    def test_joint_plans_are_bit_identical(self, mlp_bundle):
        compiled, reference = both(lambda: joint_partition(mlp_bundle.graph, 4))
        assert canonical(compiled) == canonical(reference)

    def test_rnn_recursive_parity(self, rnn_bundle):
        compiled, reference = both(lambda: recursive_partition(rnn_bundle.graph, 4))
        assert canonical(compiled) == canonical(reference)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("allow_reduction", [True, False])
@pytest.mark.parametrize("workers", [2, 4, 6, 8])
def test_every_factor_order_is_bit_identical(
    request, fixture, workers, allow_reduction
):
    graph = request.getfixturevalue(fixture).graph
    coarse = coarsen(graph)
    for factors in candidate_factorizations(workers):
        compiled, reference = both(
            lambda: recursive_partition(
                graph,
                workers,
                coarse=coarse,
                factors=factors,
                allow_reduction=allow_reduction,
            )
        )
        assert canonical(compiled) == canonical(reference), factors


# The CNN's joint search runs in the max_states=2 test below: its full-width
# reference search alone takes seconds.
@pytest.mark.parametrize("fixture", ["mlp_bundle", "rnn_bundle"])
@pytest.mark.parametrize("allow_reduction", [True, False])
def test_joint_search_is_bit_identical(request, fixture, allow_reduction):
    graph = request.getfixturevalue(fixture).graph
    compiled, reference = both(
        lambda: joint_partition(graph, 4, allow_reduction=allow_reduction)
    )
    assert canonical(compiled) == canonical(reference)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_tight_state_cap_prunes_identically(request, fixture):
    """``max_states=2`` cuts most frontiers, so the order among equal-cost
    states decides which survive."""
    graph = request.getfixturevalue(fixture).graph
    compiled, reference = both(lambda: recursive_partition(graph, 8, max_states=2))
    assert canonical(compiled) == canonical(reference)
    compiled, reference = both(lambda: joint_partition(graph, 4, max_states=2))
    assert canonical(compiled) == canonical(reference)


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("workers", [4, 6, 8])
def test_joint_configuration_count_is_unchanged(request, fixture, workers):
    graph = request.getfixturevalue(fixture).graph
    coarse = coarsen(graph)
    cost_model = CommunicationCostModel(graph)
    compiled = count_joint_configurations(coarse, cost_model, workers)
    reference = reference_count_joint_configurations(coarse, cost_model, workers)
    assert compiled == reference


# ---------------------------------------------------------------------------
# Work counters
# ---------------------------------------------------------------------------
class _CountingCostModel(CommunicationCostModel):
    """Counts ``node_cost`` memo misses (the reference's cost evaluations)."""

    misses = 0

    def node_cost(self, node_name, tensor_dims, parts):
        before = len(self._node_cost_cache)
        result = super().node_cost(node_name, tensor_dims, parts)
        self.misses += len(self._node_cost_cache) - before
        return result


@pytest.mark.parametrize("fixture", ["rnn_bundle", "cnn_bundle"])
def test_work_counters_against_the_reference(request, fixture):
    graph = request.getfixturevalue(fixture).graph
    coarse = coarsen(graph)

    timer = perf.StageTimer()
    with perf.activation(timer):
        recursive_partition(graph, 8, coarse=coarse)

    expanded = []

    class CountingReference(_FrontierDP):
        def _expand_chunk(self, chunk, context):
            expanded.append(len(chunk))
            return super()._expand_chunk(chunk, context)

    cost_model = _CountingCostModel(graph)
    with reference_core(CountingReference):
        recursive_partition(graph, 8, coarse=coarse, cost_model=cost_model)

    assert timer.counter("planner.dp.states_expanded") == sum(expanded)
    cost_evals = timer.counter("planner.dp.cost_evals")
    assert 0 < cost_evals < cost_model.misses
