"""One graph hash per request: ``repro.compile`` and ``CompileService``
share each graph's signature across the request key, the plan key and the
program key, and a graph edited between two compiles is hashed again."""

from __future__ import annotations

import pytest

import repro
import repro.caching as caching
from repro.caching import graph_signature, signature_memo
from repro.models.mlp import build_mlp
from repro.planner import Planner, PlannerConfig
from repro.runtime import Executor, ExecutorConfig
from repro.serve import CompileRequest, CompileService


def _graph():
    return build_mlp(batch_size=8, input_dim=32, hidden_dim=32, num_layers=2,
                     num_classes=8).graph


@pytest.fixture
def hashes(monkeypatch):
    """How many times a graph was serialised for hashing."""
    calls = {"n": 0}
    original = caching.graph_to_dict

    def counting(graph):
        calls["n"] += 1
        return original(graph)

    monkeypatch.setattr(caching, "graph_to_dict", counting)
    return calls


def _cold():
    """A planner and an executor with empty private caches."""
    return dict(planner=Planner(PlannerConfig()),
                executor=Executor(ExecutorConfig(program_cache_capacity=8)))


def test_cold_compile_hashes_its_graph_once(hashes):
    repro.compile(_graph(), "tofu", num_workers=2, **_cold())
    assert hashes["n"] == 1


def test_service_request_hashes_its_graph_once(hashes):
    with CompileService(workers=1) as service:
        response = service.compile(
            CompileRequest(graph=_graph(), strategy="tofu", num_workers=2)
        )
    assert response.ok, response.error
    assert hashes["n"] == 1


def test_graph_edited_between_compiles_changes_both_keys():
    graph = _graph()
    caches = _cold()
    repro.compile(graph, "tofu", num_workers=2, **caches)
    graph.metadata["edited"] = True
    repro.compile(graph, "tofu", num_workers=2, **caches)
    plans = caches["planner"].cache.info()
    programs = caches["executor"].program_cache.info()
    assert (plans["hits"], plans["misses"], plans["size"]) == (0, 2, 2)
    assert (programs["hits"], programs["misses"], programs["size"]) == (0, 2, 2)


def test_memo_is_per_block(hashes):
    graph = _graph()
    with signature_memo():
        first = graph_signature(graph)
        with signature_memo():  # nested blocks share the open memo
            assert graph_signature(graph) == first
    assert hashes["n"] == 1
    graph.metadata["edited"] = True
    assert graph_signature(graph) != first
    assert hashes["n"] == 2
