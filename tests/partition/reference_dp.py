"""Reference frontier DP: the dict-based search the compiled core replaced.

``_FrontierDP`` below is the partition DP as it stood before
:mod:`repro.partition.dp` moved to dense ids and strategy-cost tables, kept
verbatim apart from the removed thread-pool expansion (its serial walk is
the one reproduced here) and the budget clock, now ``time.perf_counter``.
It is the parity oracle: every plan the compiled
core finds must equal what this class finds, bit for bit.

``reference_core`` swaps it in for the compiled core behind the public
entry points (``dp_partition_step``, ``recursive_partition``,
``joint_partition``), so a test compares two full plans produced through the
same code path except for the DP itself.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PartitionError
from repro.graph.graph import Graph
from repro.partition import dp as dp_module
from repro.partition.coarsen import CoarsenedGraph
from repro.partition.cost import CommunicationCostModel
from repro.partition.dp import SearchBudgetExceeded
from repro.partition.plan import factorize_workers

Config = Tuple[int, ...]  # one dimension per step


class _FrontierDP:
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
        self._group_cost_cache: Dict[Tuple, Tuple[float, Dict[str, Config]]] = {}

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

    # ----------------------------------------------------------------- solve
    def solve(self) -> Tuple[float, Dict[str, Config], Dict[str, str]]:
        """Run the DP; returns (cost, per-tensor config, per-node strategy)."""
        op_groups = self.coarse.op_groups
        # states: frontier key -> (cost, state index)
        states: Dict[Tuple, float] = {(): 0.0}
        backptr: List[Dict[Tuple, Tuple[Tuple, Dict[int, Config]]]] = []
        for group in op_groups:
            if (
                self.time_limit is not None
                and time.perf_counter() - self._start > self.time_limit
            ):
                raise SearchBudgetExceeded(
                    f"partition search exceeded {self.time_limit:.0f}s budget"
                )
            gid = group.gid
            touched = self.coarse.touched_by[gid]
            decision_tgs = [
                tg
                for tg in touched
                if self.first_toucher[tg] == gid and self._is_decision_group(tg)
            ]
            internal_tgs = [
                tg
                for tg in touched
                if self.first_toucher[tg] == gid and not self._is_decision_group(tg)
            ]
            carried_tgs = [tg for tg in touched if self.first_toucher[tg] != gid]
            dropped = {tg for tg in touched if self.last_toucher[tg] == gid}

            candidates = {tg: self.group_candidates(tg) for tg in decision_tgs}
            combos = list(itertools.product(*(candidates[tg] for tg in decision_tgs)))

            context = (
                gid,
                combos,
                decision_tgs,
                carried_tgs,
                internal_tgs,
                dropped,
            )
            new_states, pointers = self._expand_chunk(list(states.items()), context)

            if not new_states:
                raise PartitionError(f"DP produced no states at group {gid}")
            if len(new_states) > self.max_states:
                kept = sorted(new_states.items(), key=lambda kv: kv[1])[
                    : self.max_states
                ]
                new_states = dict(kept)
                pointers = {k: pointers[k] for k, _ in kept}
            states = new_states
            backptr.append(pointers)

        # ------------------------------------------------------------ recover
        best_key = min(states, key=lambda k: states[k])
        best_cost = states[best_key]
        tg_config: Dict[int, Config] = {}
        key = best_key
        for pointers in reversed(backptr):
            prev_key, decided = pointers[key]
            for tg, cfg in decided.items():
                tg_config.setdefault(tg, cfg)
            key = prev_key

        tensor_config: Dict[str, Config] = {}
        for tg, cfg in tg_config.items():
            for member in self.coarse.tensor_group(tg).members:
                tensor_config[member] = self._clamp(member, cfg)
        # Tensors never decided (untouched by any node) default to dim 0.
        default = tuple([0] * self.num_steps)
        for tensor in self.graph.tensors:
            tensor_config.setdefault(tensor, self._clamp(tensor, default))

        strategies = self._final_strategies(tensor_config)
        return best_cost, tensor_config, strategies

    # ------------------------------------------------------------- expansion
    def _expand_chunk(
        self,
        chunk: Sequence[Tuple[Tuple, float]],
        context: Tuple,
    ) -> Tuple[Dict[Tuple, float], Dict[Tuple, Tuple[Tuple, Dict[int, Config]]]]:
        """Expand one ordered chunk of frontier states through one op group."""
        gid, combos, decision_tgs, carried_tgs, internal_tgs, dropped = context
        new_states: Dict[Tuple, float] = {}
        pointers: Dict[Tuple, Tuple[Tuple, Dict[int, Config]]] = {}
        for state_key, cost_so_far in chunk:
            frontier = dict(state_key)
            missing = [tg for tg in carried_tgs if tg not in frontier]
            if missing:
                # A carried tensor group must already be assigned; if not
                # (can only happen for exotic graphs) treat it as a
                # decision here.
                raise PartitionError(
                    f"tensor groups {missing} reached group {gid} unassigned"
                )
            for combo in combos:
                decided = dict(zip(decision_tgs, combo))
                local = {**{tg: frontier[tg] for tg in carried_tgs}, **decided}
                group_cost, internal_cfg = self._group_cost(gid, local, internal_tgs)
                total = cost_so_far + group_cost
                next_frontier = {
                    tg: cfg for tg, cfg in frontier.items() if tg not in dropped
                }
                for tg, cfg in decided.items():
                    if tg not in dropped:
                        next_frontier[tg] = cfg
                key = tuple(sorted(next_frontier.items()))
                if key not in new_states or total < new_states[key]:
                    new_states[key] = total
                    pointers[key] = (state_key, {**decided, **internal_cfg})
        return new_states, pointers

    # ------------------------------------------------------------ group cost
    def _group_cost(
        self, gid: int, local: Mapping[int, Config], internal_tgs: Sequence[int]
    ) -> Tuple[float, Dict[int, Config]]:
        cache_key = (gid, tuple(sorted(local.items())))
        cached = self._group_cost_cache.get(cache_key)
        if cached is not None:
            return cached

        # Reference configuration for internal temporaries: the largest
        # decided tensor group (typically the group's output activations).
        ref_cfg: Optional[Config] = None
        ref_size = -1.0
        for tg, cfg in local.items():
            size = sum(
                self.cost_model.tensor_bytes(m)
                for m in self.coarse.tensor_group(tg).members
            )
            if size > ref_size:
                ref_size = size
                ref_cfg = cfg
        if ref_cfg is None:
            ref_cfg = tuple([0] * self.num_steps)

        internal_cfg: Dict[int, Config] = {tg: ref_cfg for tg in internal_tgs}

        tensor_config: Dict[str, Config] = {}
        for tg, cfg in {**dict(local), **internal_cfg}.items():
            for member in self.coarse.tensor_group(tg).members:
                tensor_config[member] = self._clamp(member, cfg)

        total = 0.0
        members = self.coarse.op_group(gid).members
        for step, parts in enumerate(self.parts_per_step):
            step_dims = {t: cfg[step] for t, cfg in tensor_config.items()}
            for node_name in members:
                _, cost = self.cost_model.node_cost(node_name, step_dims, parts)
                total += cost
        result = (total, internal_cfg)
        self._group_cost_cache[cache_key] = result
        return result

    def _clamp(self, tensor: str, cfg: Config) -> Config:
        ndim = max(1, len(self.cost_model.shapes[tensor]))
        return tuple(min(d, ndim - 1) for d in cfg)

    def _final_strategies(self, tensor_config: Mapping[str, Config]) -> Dict[str, str]:
        strategies: Dict[str, str] = {}
        step_dims = {t: cfg[0] for t, cfg in tensor_config.items()}
        parts = self.parts_per_step[0]
        for node_name in self.graph.nodes:
            axis, _ = self.cost_model.node_cost(node_name, step_dims, parts)
            strategies[node_name] = axis
        return strategies


def reference_count_joint_configurations(
    coarse: CoarsenedGraph,
    cost_model: CommunicationCostModel,
    num_workers: int,
) -> Dict[str, float]:
    """``count_joint_configurations`` as it stood on top of ``_FrontierDP``."""
    factors = factorize_workers(num_workers)
    dp = _FrontierDP(coarse.graph, coarse, cost_model, parts_per_step=factors)
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


@contextmanager
def reference_core(core: type = _FrontierDP) -> Iterator[type]:
    """Run the public search entry points on ``core`` instead of the
    compiled DP for the duration of the block."""
    compiled = dp_module._FrontierCore
    dp_module._FrontierCore = core
    try:
        yield core
    finally:
        dp_module._FrontierCore = compiled
