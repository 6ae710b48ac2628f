"""Dynamic-programming partition search over the coarsened graph (Sec 5).

``dp_partition_step`` finds the minimum-communication assignment of one
partition dimension per tensor (and one partition-n-reduce strategy per
operator) for a single recursive step that splits the graph across ``parts``
worker groups.  It is a *frontier* DP: operator groups are visited in
topological order and the DP state is the set of partition choices of the
tensor groups that cross the frontier between visited and unvisited groups.
For chain-like coarsened graphs (MLPs, CNNs, coalesced RNNs) the frontier is
tiny, which is what makes the search fast.

``joint_partition`` is the non-recursive variant used as the Table 1
comparison point: every tensor group chooses a full multi-step configuration
(a tuple of dimensions) at once, which blows up the per-group search space
exactly as the paper describes.

The DP runs on a compiled core (:class:`_FrontierCore`).  Each op group is
compiled once, against the frontier it is entered with, into index lists
over tuples: a state is the tuple of its frontier groups' configurations in
tensor-group id order, and the carried-plus-decided ("local") configurations
and the next state are both ``itemgetter`` projections of ``state + combo``.
A group's cost is a sum of per-node costs read from strategy-cost tables,
one per operator profile and filled lazily, keyed by the clamped dimension
tuple; structurally identical operators share a profile and so share a
table.  Nodes with the same profile at every step form one node kind, and
a kind's per-step costs are memoised on the raw configurations of its
tensor slots, across all op groups.
Plans are bit-identical to the dict-based reference DP kept in
``tests/partition/reference_dp.py``: node costs are added left to right in
(step, member) order, a state replaces an equal-keyed one only at strictly
lower cost, and the ``max_states`` prune is a stable sort.
"""

from __future__ import annotations

import itertools
import time
from functools import reduce
from operator import add, itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import perf
from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.partition.coarsen import CoarsenedGraph, coarsen
from repro.partition.cost import CommunicationCostModel, NodeProfile, best_strategy
from repro.partition.plan import PartitionPlan, StepAssignment, factorize_workers

Config = Tuple[int, ...]  # one dimension per step
State = Tuple[Config, ...]  # frontier configurations in tensor-group id order
CostTable = Dict[Tuple[int, ...], Tuple[str, float]]  # clamped dims -> best


class SearchBudgetExceeded(PartitionError):
    """Raised when ``joint_partition`` exceeds its time budget."""


def _tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``src -> tuple(src[p] for p in positions)``, as a C-level call where
    possible (a bare ``itemgetter`` of one position returns the item)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (only,) = positions
        return lambda src: (src[only],)
    return lambda src: ()


# ---------------------------------------------------------------------------
# Compiled frontier-DP core
# ---------------------------------------------------------------------------
class _NodeKind(NamedTuple):
    """Operators with the same profile at every step.

    They cost the same under the same configurations of their tensors,
    wherever they sit, so one ``memo`` (raw slot configurations -> per-step
    costs) serves every such node of the search.  ``caps`` holds each
    tensor slot's last dimension index (``ndim - 1``), so clamping is one
    ``min``; the profiles fix both the caps and the input count.
    """

    memo: Dict[State, Tuple[float, ...]]
    caps: Tuple[int, ...]
    num_inputs: int
    steps: List[Tuple[CostTable, NodeProfile, int]]  # (table, profile, parts)


class _GroupLayout(NamedTuple):
    """One op group compiled against the frontier layout it is entered with.

    ``local_of`` and ``next_of`` project ``state + combo`` onto the group's
    carried-then-decided configurations and onto the next state.  Internal
    tensor groups take configuration ``ref_pos`` of ``local + tail``.
    ``classes`` pairs a slot getter over that vector with a node kind, and
    ``order`` indexes the flat per-(class, step) costs in the (step, member)
    order of the additions.
    """

    decision_tgs: List[int]
    internal_tgs: List[int]
    combos: List[State]
    local_of: Callable[[State], State]
    next_of: Callable[[State], State]
    next_frontier: List[int]
    tail: State
    ref_pos: int
    members: List[str]
    classes: List[Tuple[Callable[[State], State], _NodeKind]]
    class_of_member: List[int]
    order: List[int]


class _FrontierCore:
    def __init__(
        self,
        graph: Graph,
        coarse: CoarsenedGraph,
        cost_model: CommunicationCostModel,
        *,
        parts_per_step: Sequence[int],
        max_states: int = 256,
        time_limit: Optional[float] = None,
    ) -> None:
        self.graph = graph
        self.coarse = coarse
        self.cost_model = cost_model
        self.parts_per_step = list(parts_per_step)
        self.num_steps = len(self.parts_per_step)
        self.max_states = max_states
        self.time_limit = time_limit
        self._start = time.perf_counter()
        self._zero: Config = tuple([0] * self.num_steps)
        self._tg_bytes: Dict[int, float] = {}
        # Strategy-cost tables, one per NodeProfile (keyed by identity: the
        # cost model keeps every profile alive for the whole search).
        self._tables: Dict[int, CostTable] = {}
        self._kinds: Dict[Tuple[int, ...], _NodeKind] = {}
        self.cost_evals = 0

        self.first_toucher: Dict[int, int] = {}
        self.last_toucher: Dict[int, int] = {}
        for tg, touchers in coarse.touchers_of.items():
            self.first_toucher[tg] = min(touchers)
            self.last_toucher[tg] = max(touchers)

    # ------------------------------------------------------------ candidates
    def group_candidates(self, tg: int) -> List[Config]:
        """Candidate configurations for one tensor group."""
        members = self.coarse.tensor_group(tg).members
        per_step: List[List[int]] = []
        for parts in self.parts_per_step:
            dims: Optional[set] = None
            for member in members:
                cand = set(self.cost_model.candidate_dims(member, parts))
                dims = cand if dims is None else (dims & cand)
            if not dims:
                dims = {0}
            per_step.append(sorted(dims))
        return [tuple(c) for c in itertools.product(*per_step)]

    def _is_decision_group(self, tg: int) -> bool:
        group = self.coarse.tensor_group(tg)
        touchers = self.coarse.touchers_of.get(tg, [])
        return len(touchers) > 1 or group.persistent

    def _group_bytes(self, tg: int) -> float:
        size = self._tg_bytes.get(tg)
        if size is None:
            # Plain sum() in member order: the reference-configuration
            # tie-break compares these floats, so the order must not change.
            size = sum(
                self.cost_model.tensor_bytes(m)
                for m in self.coarse.tensor_group(tg).members
            )
            self._tg_bytes[tg] = size
        return size

    # ----------------------------------------------------------------- solve
    def solve(self) -> Tuple[float, Dict[str, Config], Dict[str, str]]:
        """Run the DP; returns (cost, per-tensor config, per-node strategy)."""
        states: Dict[State, float] = {(): 0.0}
        frontier: List[int] = []
        trail: List[Tuple[_GroupLayout, Dict[State, Tuple[State, State]]]] = []
        for group in self.coarse.op_groups:
            if (
                self.time_limit is not None
                and time.perf_counter() - self._start > self.time_limit
            ):
                raise SearchBudgetExceeded(
                    f"partition search exceeded {self.time_limit:.0f}s budget"
                )
            evals_before = self.cost_evals
            layout = self._layout(group.gid, frontier)
            new_states, pointers = self._expand(states, layout)
            perf.count("planner.dp.states_expanded", len(states))
            perf.count("planner.dp.cost_evals", self.cost_evals - evals_before)

            if not new_states:
                raise PartitionError(f"DP produced no states at group {group.gid}")
            if len(new_states) > self.max_states:
                kept = sorted(new_states.items(), key=lambda kv: kv[1])[
                    : self.max_states
                ]
                new_states = dict(kept)
                pointers = {k: pointers[k] for k, _ in kept}
            states = new_states
            frontier = layout.next_frontier
            trail.append((layout, pointers))

        # ------------------------------------------------------------ recover
        # Walk the best path back: each group's configuration vector on it
        # fixes its decided and internal tensor groups and, through the
        # step-0 tables, the strategy of every member node.
        best_key = min(states, key=states.__getitem__)
        best_cost = states[best_key]
        evals_before = self.cost_evals
        tg_config: Dict[int, Config] = {}
        axis_of: Dict[str, str] = {}
        key = best_key
        for layout, pointers in reversed(trail):
            state, combo = pointers[key]
            for tg, cfg in zip(layout.decision_tgs, combo):
                tg_config.setdefault(tg, cfg)
            cfgs = layout.local_of(state + combo) + layout.tail
            for tg in layout.internal_tgs:
                tg_config.setdefault(tg, cfgs[layout.ref_pos])
            axes = [
                self._entry(kind, 0, key_of(cfgs))[0]
                for key_of, kind in layout.classes
            ]
            for node_name, index in zip(layout.members, layout.class_of_member):
                axis_of[node_name] = axes[index]
            key = state
        perf.count("planner.dp.cost_evals", self.cost_evals - evals_before)
        strategies = {node_name: axis_of[node_name] for node_name in self.graph.nodes}

        tensor_config: Dict[str, Config] = {}
        for tg, cfg in tg_config.items():
            for member in self.coarse.tensor_group(tg).members:
                tensor_config[member] = self._clamp(member, cfg)
        # Tensors never decided (untouched by any node) default to dim 0.
        for tensor in self.graph.tensors:
            if tensor not in tensor_config:
                tensor_config[tensor] = self._clamp(tensor, self._zero)
        return best_cost, tensor_config, strategies

    # --------------------------------------------------------------- compile
    def _layout(self, gid: int, frontier: List[int]) -> _GroupLayout:
        """Compile op group ``gid`` against the sorted ``frontier`` layout."""
        touched = self.coarse.touched_by[gid]
        first = self.first_toucher
        fresh = [tg for tg in touched if first[tg] == gid]
        decision_tgs = [tg for tg in fresh if self._is_decision_group(tg)]
        internal_tgs = [tg for tg in fresh if not self._is_decision_group(tg)]
        carried_tgs = [tg for tg in touched if first[tg] != gid]
        position = {tg: i for i, tg in enumerate(frontier)}
        missing = [tg for tg in carried_tgs if tg not in position]
        if missing:
            raise PartitionError(
                f"tensor groups {missing} reached group {gid} unassigned"
            )
        for j, tg in enumerate(decision_tgs):
            position[tg] = len(frontier) + j
        dropped = {tg for tg in touched if self.last_toucher[tg] == gid}
        next_frontier = sorted(
            tg for tg in itertools.chain(frontier, decision_tgs) if tg not in dropped
        )

        # Internal temporaries follow the largest local tensor group (the
        # first one on ties); with no local group, the all-zeros default,
        # appended to the configuration vector as its tail.
        local_tgs = carried_tgs + decision_tgs
        ref_pos, ref_size = len(local_tgs), -1.0
        for i, tg in enumerate(local_tgs):
            size = self._group_bytes(tg)
            if size > ref_size:
                ref_pos, ref_size = i, size
        slot_of = {tg: i for i, tg in enumerate(local_tgs)}
        for tg in internal_tgs:
            slot_of[tg] = ref_pos

        # One (slot getter, kind) class per distinct pair among the members;
        # ``order`` replays the members' costs in (step, member) order.
        classes: Dict[Tuple, int] = {}
        class_list: List[Tuple[Callable[[State], State], _NodeKind]] = []
        class_of_member: List[int] = []
        tg_of = self.coarse.tensor_group_of
        members = self.coarse.op_group(gid).members
        for node_name in members:
            node = self.graph.node(node_name)
            tensors = node.inputs + node.outputs
            positions = tuple(slot_of[tg_of[t]] for t in tensors)
            profiles = [
                self.cost_model.node_profile(node_name, parts)
                for parts in self.parts_per_step
            ]
            kind_key = tuple(map(id, profiles))
            class_key = (positions, kind_key)
            index = classes.get(class_key)
            if index is None:
                index = classes[class_key] = len(class_list)
                kind = self._kinds.get(kind_key)
                if kind is None:
                    kind = self._kinds[kind_key] = self._kind(node, profiles)
                class_list.append((_tuple_getter(positions), kind))
            class_of_member.append(index)
        num_steps = self.num_steps
        order = [
            index * num_steps + step
            for step in range(num_steps)
            for index in class_of_member
        ]

        combos = list(
            itertools.product(*(self.group_candidates(tg) for tg in decision_tgs))
        )
        return _GroupLayout(
            decision_tgs=decision_tgs,
            internal_tgs=internal_tgs,
            combos=combos,
            local_of=_tuple_getter([position[tg] for tg in local_tgs]),
            next_of=_tuple_getter([position[tg] for tg in next_frontier]),
            next_frontier=next_frontier,
            tail=(self._zero,) if ref_pos == len(local_tgs) else (),
            ref_pos=ref_pos,
            members=members,
            classes=class_list,
            class_of_member=class_of_member,
            order=order,
        )

    def _table(self, profile: NodeProfile) -> CostTable:
        table = self._tables.get(id(profile))
        if table is None:
            table = self._tables[id(profile)] = {}
        return table

    def _kind(self, node: OpNode, profiles: List[NodeProfile]) -> _NodeKind:
        shapes = self.cost_model.shapes
        caps = tuple(max(1, len(shapes[t])) - 1 for t in node.inputs + node.outputs)
        steps = [
            (self._table(profile), profile, parts)
            for profile, parts in zip(profiles, self.parts_per_step)
        ]
        return _NodeKind({}, caps, len(node.inputs), steps)

    # ------------------------------------------------------------- expansion
    def _expand(
        self, states: Dict[State, float], layout: _GroupLayout
    ) -> Tuple[Dict[State, float], Dict[State, Tuple[State, State]]]:
        """Expand every frontier state through one op group.

        Next states enter in first-encounter order and an equal key is
        replaced only at strictly lower cost, so ties keep the earliest.
        """
        new_states: Dict[State, float] = {}
        pointers: Dict[State, Tuple[State, State]] = {}
        group_costs: Dict[State, float] = {}
        combos = layout.combos
        local_of = layout.local_of
        next_of = layout.next_of
        for state, cost_so_far in states.items():
            for combo in combos:
                src = state + combo
                local = local_of(src)
                group_cost = group_costs.get(local)
                if group_cost is None:
                    group_cost = group_costs[local] = self._group_cost(layout, local)
                total = cost_so_far + group_cost
                key = next_of(src)
                best = new_states.get(key)
                if best is None or total < best:
                    new_states[key] = total
                    pointers[key] = (state, combo)
        return new_states, pointers

    # ------------------------------------------------------------ group cost
    def _group_cost(self, layout: _GroupLayout, local: State) -> float:
        cfgs = local + layout.tail
        costs: List[float] = []
        for key_of, kind in layout.classes:
            key = key_of(cfgs)
            per_step = kind.memo.get(key)
            if per_step is None:
                per_step = kind.memo[key] = tuple(
                    [self._entry(kind, step, key)[1] for step in range(self.num_steps)]
                )
            costs.extend(per_step)
        # A running left-to-right addition in (step, member) order, never
        # sum(): Python 3.12's float sum() rounds differently.
        return reduce(add, map(costs.__getitem__, layout.order), 0.0)

    def _entry(self, kind: _NodeKind, step: int, slot_cfgs: State) -> Tuple[str, float]:
        """(best axis, cost) of one node of ``kind`` at ``step``, read from
        the profile's strategy-cost table and filled on a miss."""
        table, profile, parts = kind.steps[step]
        dims = tuple([min(cfg[step], cap) for cfg, cap in zip(slot_cfgs, kind.caps)])
        entry = table.get(dims)
        if entry is None:
            split = kind.num_inputs
            entry = table[dims] = best_strategy(
                profile, dims[:split], dims[split:], parts
            )
            self.cost_evals += 1
        return entry

    def _clamp(self, tensor: str, cfg: Config) -> Config:
        cap = max(1, len(self.cost_model.shapes[tensor])) - 1
        return tuple([d if d < cap else cap for d in cfg])


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------
def dp_partition_step(
    graph: Graph,
    coarse: CoarsenedGraph,
    cost_model: CommunicationCostModel,
    parts: int,
    *,
    max_states: int = 256,
) -> StepAssignment:
    """One recursive step: partition every tensor along one dimension across
    ``parts`` worker groups, minimising communication."""
    dp = _FrontierCore(
        graph,
        coarse,
        cost_model,
        parts_per_step=[parts],
        max_states=max_states,
    )
    cost, tensor_config, strategies = dp.solve()
    tensor_dims = {t: cfg[0] for t, cfg in tensor_config.items()}
    return StepAssignment(
        parts=parts,
        tensor_dims=tensor_dims,
        op_strategies=strategies,
        comm_bytes=cost,
        weighted_bytes=cost,
    )


def joint_partition(
    graph: Graph,
    num_workers: int,
    *,
    coarse: Optional[CoarsenedGraph] = None,
    cost_model: Optional[CommunicationCostModel] = None,
    allow_reduction: bool = True,
    max_states: int = 256,
    time_limit: Optional[float] = None,
) -> PartitionPlan:
    """Non-recursive search: choose all ``m`` partition dimensions per tensor
    jointly (the "DP with coarsening" row of Table 1).

    Exponentially slower than the recursive search; ``time_limit`` (seconds)
    raises :class:`SearchBudgetExceeded` when exceeded so benchmarks can report
    a lower bound instead of hanging.
    """
    start = time.perf_counter()
    factors = factorize_workers(num_workers)
    if coarse is None:
        coarse = coarsen(graph)
    if cost_model is None:
        cost_model = CommunicationCostModel(graph, allow_reduction=allow_reduction)
    dp = _FrontierCore(
        graph,
        coarse,
        cost_model,
        parts_per_step=factors,
        max_states=max_states,
        time_limit=time_limit,
    )
    cost, tensor_config, strategies = dp.solve()

    steps: List[StepAssignment] = []
    group_count = 1
    for i, parts in enumerate(factors):
        tensor_dims = {t: cfg[i] for t, cfg in tensor_config.items()}
        step_cost, step_strategies = cost_model.assignment_cost(tensor_dims, parts)
        steps.append(
            StepAssignment(
                parts=parts,
                tensor_dims=tensor_dims,
                op_strategies=step_strategies,
                comm_bytes=step_cost / group_count,
                weighted_bytes=step_cost,
                group_count=group_count,
            )
        )
        group_count *= parts
    plan = PartitionPlan(
        num_workers=num_workers,
        steps=steps,
        search_time_seconds=time.perf_counter() - start,
        algorithm="dp-joint",
    )
    return plan


def count_joint_configurations(
    coarse: CoarsenedGraph,
    cost_model: CommunicationCostModel,
    num_workers: int,
) -> Dict[str, float]:
    """Size of the non-recursive search space, for the Table 1 report."""
    factors = factorize_workers(num_workers)
    dp = _FrontierCore(coarse.graph, coarse, cost_model, parts_per_step=factors)
    per_group_max = 0.0
    total = 0.0
    for group in coarse.op_groups:
        gid = group.gid
        decision = [
            tg
            for tg in coarse.touched_by[gid]
            if dp.first_toucher[tg] == gid and dp._is_decision_group(tg)
        ]
        combos = 1.0
        for tg in decision:
            combos *= len(dp.group_candidates(tg))
        per_group_max = max(per_group_max, combos)
        total += combos
    return {
        "num_op_groups": float(len(coarse.op_groups)),
        "max_configs_per_group": per_group_max,
        "total_configs": total,
    }
