"""Property-based tests for the partition search (Theorems 1-3 analogues)."""

from hypothesis import given, settings, strategies as st

from repro.graph.autodiff import build_backward, build_optimizer
from repro.graph.builder import GraphBuilder
from repro.partition.plan import factorize_workers, plan_to_dict
from repro.partition.recursive import recursive_partition, step_costs_nondecreasing

from tests.partition.reference_dp import reference_core


def _make_mlp(batch, hidden, layers):
    b = GraphBuilder(f"mlp_{batch}_{hidden}_{layers}")
    x = b.data("x", (batch, hidden))
    weights = []
    h = x
    for i in range(layers):
        w = b.weight(f"w{i}", (hidden, hidden))
        weights.append(w)
        h = b.matmul(h, w, name=f"fc{i}")
        h = b.relu(h, name=f"relu{i}")
    loss = b.apply("reduce_mean_all", [h], name="loss")
    build_backward(b, loss, weights)
    build_optimizer(b, weights)
    return b.finish(), weights


@settings(max_examples=12, deadline=None)
@given(
    batch=st.sampled_from([16, 32, 64]),
    hidden=st.sampled_from([32, 64, 128]),
    layers=st.integers(min_value=1, max_value=3),
    workers=st.sampled_from([2, 4, 8]),
)
def test_plan_structure_invariants(batch, hidden, layers, workers):
    """Every tensor gets a dimension within its rank, every node a strategy,
    and the number of steps matches the worker factorisation."""
    graph, weights = _make_mlp(batch, hidden, layers)
    plan = recursive_partition(graph, workers)
    assert plan.num_steps == len(factorize_workers(workers))
    for step in plan.steps:
        assert set(step.tensor_dims) == set(graph.tensors)
        for tensor, dim in step.tensor_dims.items():
            assert 0 <= dim < max(1, len(graph.tensor(tensor).shape))
        assert set(step.op_strategies) == set(graph.nodes)
    for weight in weights:
        shard = plan.shard_shape(weight, graph.tensor(weight).shape)
        assert all(s >= 1 for s in shard)


@settings(max_examples=10, deadline=None)
@given(
    hidden=st.sampled_from([32, 64, 128]),
    layers=st.integers(min_value=1, max_value=3),
)
def test_theorem2_monotone_step_costs(hidden, layers):
    """delta_i <= delta_{i+1} (Theorem 2) for halo-free models.

    A generous tolerance absorbs the integer rounding of odd shard sizes,
    which breaks the exact linearity the proof assumes.
    """
    graph, _ = _make_mlp(32, hidden, layers)
    plan = recursive_partition(graph, 8)
    assert step_costs_nondecreasing(plan, tolerance=0.25)


@settings(max_examples=8, deadline=None)
@given(
    hidden=st.sampled_from([32, 64]),
    layers=st.integers(min_value=1, max_value=3),
    workers=st.sampled_from([2, 4]),
)
def test_cost_scales_with_workers(hidden, layers, workers):
    """More workers never communicate less in total."""
    graph, _ = _make_mlp(32, hidden, layers)
    small = recursive_partition(graph, workers)
    large = recursive_partition(graph, workers * 2)
    assert large.total_comm_bytes >= small.total_comm_bytes * 0.999


@settings(max_examples=8, deadline=None)
@given(hidden=st.sampled_from([32, 64, 128]))
def test_reduction_strategies_never_hurt(hidden):
    """The ICML18 strategy space is a subset of Tofu's, so Tofu's optimum can
    only be at least as good (Sec 7.3)."""
    graph, _ = _make_mlp(32, hidden, 2)
    with_reduction = recursive_partition(graph, 8, allow_reduction=True)
    without = recursive_partition(graph, 8, allow_reduction=False)
    assert with_reduction.total_comm_bytes <= without.total_comm_bytes * 1.001


@settings(max_examples=10, deadline=None)
@given(
    hidden=st.sampled_from([16, 48, 64, 96]),
    layers=st.integers(min_value=1, max_value=4),
    workers=st.sampled_from([2, 3, 4, 6, 8]),
)
def test_compiled_core_matches_reference(hidden, layers, workers):
    """The compiled frontier DP finds the reference DP's plan, bit for bit."""
    graph, _ = _make_mlp(16, hidden, layers)

    def search():
        payload = plan_to_dict(recursive_partition(graph, workers))
        payload.pop("search_time_seconds")
        return payload

    compiled = search()
    with reference_core():
        assert search() == compiled
