"""Outside-in span recorder for the benchmark's traced run.

The library has no tracing of its own, so the traced run wraps the public
entry points of each layer from the benchmark side.  A name bound with
``from x import f`` is a separate reference, so every wrapper is installed
where the caller looks the name up (:func:`layer_spans` lists them).

Spans live in memory while the run lasts: each records its name, start,
end, parent span, thread and request id.  The parent comes from a
thread-local stack; work handed to the compile service's thread pool
inherits the submitting thread's parent and request id, so a served
request is one tree across threads.  Only the process that installed the
recorder records: forked tuner workers inherit the wrappers but skip them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Span record fields (a list per span, so closing one is a single store).
NAME, START, END, PARENT, THREAD, REQUEST = range(6)

#: The root span the benchmark opens around each timed operation; its self
#: time is the time no layer span covers (``unattributed_s``).
ROOT = "bench.op"


class Recorder:
    """Collects nested spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ context
    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.request = None
            state.queued = None
            state.paused = False
        return state

    def _recording(self) -> bool:
        return self.enabled and os.getpid() == self._pid and not self._state().paused

    def _open(self, name: str) -> list:
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        now = time.perf_counter()
        if state.queued is not None and name == "compiler.compile":
            # Submit-to-start wait of a served request, closed by the
            # worker's first compile.
            self.spans.append(
                ["serve.queue_wait", state.queued, now, parent,
                 threading.get_ident(), state.request]
            )
            state.queued = None
        span = [name, now, None, parent, threading.get_ident(), state.request]
        self.spans.append(span)
        state.stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._state().stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[object] = None):
        """A span around a block; ``request`` sets the request id for it."""
        if not self._recording():
            yield
            return
        state = self._state()
        saved = state.request
        if request is not None:
            state.request = request
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            state.request = saved

    @contextlib.contextmanager
    def paused(self):
        """Record nothing on this thread inside the block (the oracle)."""
        state = self._state()
        saved = state.paused
        state.paused = True
        try:
            yield
        finally:
            state.paused = saved

    def count(self, name: str, value: float = 1.0) -> None:
        if self._recording():
            with self._lock:
                self.counts[name] += value

    # ------------------------------------------------------------ wrapping
    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """``fn`` recorded as span ``name``; ``after(recorder, result)``
        runs on its result while recording (to count what it returned)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def trace_service(self, service) -> None:
        """Make ``service``'s thread pool run each task under the submitting
        thread's parent span and request id, with the queue wait recorded."""
        submit = service._pool.submit

        def traced_submit(fn, *args, **kwargs):
            if not self._recording():
                return submit(fn, *args, **kwargs)
            state = self._state()
            parent = state.stack[-1] if state.stack else None
            request, queued = state.request, time.perf_counter()

            def run():
                worker = self._state()
                saved = (worker.stack, worker.request, worker.queued)
                worker.stack = [parent] if parent is not None else []
                worker.request, worker.queued = request, queued
                try:
                    return fn(*args, **kwargs)
                finally:
                    worker.stack, worker.request, worker.queued = saved

            return submit(run)

        service._pool.submit = traced_submit

    def install(self) -> None:
        """Wrap every layer entry point of :func:`layer_spans`, plus the
        backend lowering functions and the tuner's pool results."""
        for name, places in layer_spans():
            owner, attr = places[0]
            wrapper = self.wrap(name, owner.__dict__[attr])
            for owner, attr in places:
                self.patch(owner, attr, wrapper)
        import repro.runtime.core as runtime_core
        import repro.tuner.core as tuner_core

        lookup = runtime_core.get_execution_backend
        wrapped_specs: Dict[str, object] = {}

        def get_execution_backend(name):
            # Backend specs hold their lowering function as a field, so the
            # wrapper goes on a copy of the spec the executor looks up.
            spec = lookup(name)
            if spec.name not in wrapped_specs:
                wrapped_specs[spec.name] = dataclasses.replace(
                    spec,
                    lower=self.wrap("runtime.backend_lower", spec.lower,
                                    _count_tasks),
                )
            return wrapped_specs[spec.name]

        self.patch(runtime_core, "get_execution_backend", get_execution_backend)
        mp_context = tuner_core.mp_context
        self.patch(
            tuner_core, "mp_context", lambda: _TracedContext(self, mp_context())
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ results
    def summary(self) -> Dict[str, object]:
        """Per-span-name calls, self and inclusive seconds, plus the
        summed duration of the root spans.

        A span's self time is its duration minus the union of the parts of
        its interval that its children cover, so the self times of a tree
        sum to its root's duration.
        """
        children: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None and span[END] is not None:
                children[id(span[PARENT])].append(span)
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        wall_s: Dict[str, float] = defaultdict(float)
        root_s = 0.0
        for span in self.spans:
            if span[END] is None:
                continue
            start, end = span[START], span[END]
            covered, reach = 0.0, start
            for child in sorted(children[id(span)], key=lambda c: c[START]):
                lo, hi = max(child[START], reach), min(child[END], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            calls[span[NAME]] += 1
            self_s[span[NAME]] += (end - start) - covered
            wall_s[span[NAME]] += end - start
            if span[PARENT] is None and span[NAME] == ROOT:
                root_s += end - start
        return {"calls": dict(calls), "self_s": dict(self_s),
                "wall_s": dict(wall_s), "root_s": root_s}

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto-viewable)."""
        closed = [s for s in self.spans if s[END] is not None]
        origin = min((s[START] for s in closed), default=0.0)
        events = [
            {
                "name": span[NAME],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": self._pid,
                "tid": span[THREAD],
                "args": {"request": span[REQUEST]},
            }
            for span in closed
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _count_tasks(recorder: Recorder, program) -> None:
    recorder.count("runtime.tasks_emitted", len(program.tasks))


class _TracedContext:
    """A multiprocessing context whose pools record, in the parent, each
    wait for a pooled tuner candidate's result as ``tuner.evaluate``."""

    def __init__(self, recorder: Recorder, context) -> None:
        self._recorder = recorder
        self._context = context

    def __getattr__(self, name):
        return getattr(self._context, name)

    def Pool(self, *args, **kwargs):  # noqa: N802 - mirrors the context API
        return _TracedPool(self._recorder, self._context.Pool(*args, **kwargs))


class _TracedPool:
    def __init__(self, recorder: Recorder, pool) -> None:
        self._recorder = recorder
        self._pool = pool

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._pool.__exit__(*exc_info)

    def imap_unordered(self, *args, **kwargs):
        return _TracedResults(
            self._recorder, self._pool.imap_unordered(*args, **kwargs)
        )


class _TracedResults:
    def __init__(self, recorder: Recorder, results) -> None:
        self.next = recorder.wrap("tuner.evaluate", results.next)


def layer_spans():
    """``(span name, [(owner, attribute), ...])`` for each layer entry point;
    the first place holds the original function."""
    import repro
    import repro.analysis.verify as analysis_verify
    import repro.api as api
    import repro.caching as caching
    import repro.compiler as compiler
    import repro.planner.cache as planner_cache
    import repro.planner.core as planner_core
    import repro.runtime.cache as runtime_cache
    import repro.runtime.core as runtime_core
    import repro.serve.protocol as protocol
    import repro.sim.engine as engine
    import repro.tuner.core as tuner_core
    from repro.caching import TwoTierCache
    from repro.planner.backends import BackendSpec
    from repro.planner.cache import PlanCache
    from repro.runtime.cache import ProgramCache
    from repro.serve.service import CompileService

    return [
        ("compiler.compile", [(compiler, "compile"), (compiler, "compile_model"),
                              (repro, "compile"), (repro, "compile_model"),
                              (api, "compile")]),
        ("compiler.to_dict", [(compiler.CompiledModel, "to_dict")]),
        ("strategy.lower", [(compiler, "lower_strategy")]),
        ("planner.plan", [(planner_core.Planner, "plan")]),
        ("planner.cache_key", [(planner_core, "plan_cache_key")]),
        ("planner.cache_get", [(PlanCache, "get")]),
        ("planner.cache_put", [(PlanCache, "put")]),
        ("planner.search", [(BackendSpec, "search")]),
        ("runtime.lower", [(runtime_core.Executor, "lower")]),
        ("runtime.cache_key", [(runtime_core, "lowered_cache_key")]),
        ("runtime.cache_get", [(ProgramCache, "get")]),
        ("runtime.cache_put", [(ProgramCache, "put")]),
        ("analysis.verify", [(analysis_verify, "run_verify_pass")]),
        ("sim.simulate", [(engine.TaskGraphSimulator, "run")]),
        ("sim.fingerprint", [(engine, "task_graph_fingerprint")]),
        ("sim.compile", [(engine, "compile_task_graph")]),
        ("sim.run", [(engine.TaskGraphSimulator, "run_compiled")]),
        ("caching.graph_signature", [(caching, "graph_signature"),
                                     (planner_cache, "graph_signature"),
                                     (runtime_cache, "graph_signature"),
                                     (protocol, "graph_signature")]),
        ("caching.merge_payloads", [(TwoTierCache, "merge_payloads")]),
        ("serve.request_key", [(protocol.CompileRequest, "key")]),
        ("serve.request", [(CompileService, "compile")]),
        ("tuner.tune", [(tuner_core.Tuner, "tune")]),
        ("tuner.screen", [(tuner_core, "static_screen")]),
        ("tuner.evaluate", [(tuner_core, "evaluate_candidate")]),
    ]


#: Every span the traced run reports, in report order.  ``runtime.
#: backend_lower`` and ``serve.queue_wait`` are recorded by the recorder
#: itself rather than by a plain wrapper (see :meth:`Recorder.install`).
SPAN_NAMES = (
    "compiler.compile", "compiler.to_dict", "strategy.lower",
    "planner.plan", "planner.cache_key", "planner.cache_get",
    "planner.cache_put", "planner.search",
    "runtime.lower", "runtime.cache_key", "runtime.cache_get",
    "runtime.cache_put", "runtime.backend_lower",
    "analysis.verify",
    "sim.simulate", "sim.fingerprint", "sim.compile", "sim.run",
    "caching.graph_signature", "caching.merge_payloads",
    "serve.request_key", "serve.request", "serve.queue_wait",
    "tuner.tune", "tuner.screen", "tuner.evaluate",
)


def search_problems(summary: Dict[str, object], plan_search_s: Optional[float] = None,
                    service_searches: Optional[float] = None) -> List[str]:
    """Cross-checks of the ``planner.search`` spans in ``summary`` against
    the library's own numbers: their summed wall time against the plans'
    total ``search_time_seconds`` (within 10% + 50 ms), and their call
    count against ``CompileService.stats()["searches"]``."""
    problems = []
    if plan_search_s is not None:
        spans = summary["wall_s"].get("planner.search", 0.0)
        if abs(spans - plan_search_s) > 0.1 * plan_search_s + 0.05:
            problems.append(f"planner.search spans {spans:.3f}s vs plans' "
                            f"search_time_seconds {plan_search_s:.3f}s")
    if service_searches is not None:
        calls = summary["calls"].get("planner.search", 0)
        if calls != service_searches:
            problems.append(f"planner.search calls {calls} != service "
                            f"searches {service_searches:.0f}")
    return problems
