"""Request sets and the three workloads of the compile-path benchmark.

Every workload draws its requests from ``random.Random`` seeded by the
workload name and ``--seed``, so a seed names one request list.  Draws are
stratified: a stratum fixes the model family, the strategy shape and a
narrow band of model sizes, and the seed picks the size inside the band
(and the pipeline's stage and micro-batch counts).  Every run therefore
covers every family x strategy pair, and two seeds differ only inside the
bands, which keeps run-level medians comparable across seeds.

A timed phase is a fixed number of whole rounds: of the request list for
``cold`` and ``tune``, of a Zipf block of the stream for ``warm_serve``.
``--seconds`` sets the count (:func:`rounds_for`), not a deadline, so the
same seed always runs the same operations, and the number that fail does
not depend on how fast the host runs.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro import Executor, ExecutorConfig, Planner, PlannerConfig
from repro.errors import ReproError
from repro.models.resnet import build_wide_resnet
from repro.models.rnn import build_rnn
from repro.runtime.cache import DEFAULT_PROGRAM_CACHE_CAPACITY
from repro.serve import CompileRequest, CompileResponse, CompileService
from repro.sim.engine import clear_compiled_cache, compiled_cache_info
from repro.tuner import Tuner, TunerBudget

import oracle
from spans import ROOT, Recorder

NPROC = os.cpu_count() or 1
# Set-up repetitions per run (setup_s is their median).  warm_serve's set-up
# is a cold compile of its whole request set, longer than its timed phase;
# repeating it would double the run, so it runs once.
SETUP_REPEATS = {"cold": 3, "tune": 3, "warm_serve": 1}
TUNE_CANDIDATES = 16

# (family, strategy shape, size band).  RNN sizes are (layers, hidden) and
# WResNet sizes (depth, widen); across strata they reach the paper's
# RNN-6-4K and WResNet-50-4 / 152-4.  Within a stratum the band is narrow
# (hidden sizes 1.5% apart), so a seed changes the inputs but not a
# run's simulated quality by more than a few percent.  WResNet widths are
# integers; they vary only where the strategy fails verification (see
# README.md), so they never enter the quality metrics.  Sizes also spread
# the strata's compile times evenly, so a round's median latency does not
# sit in a gap between two clusters.
COLD_STRATA = {
    "full": (
        ("rnn", "tofu", ((2, 1024), (2, 1040), (2, 1056))),
        ("rnn", "dp:2/tofu", ((3, 2048), (3, 2080), (3, 2112))),
        ("rnn", "pipeline", ((6, 4032), (6, 4096))),
        ("rnn", "machines:2/dp:2/tofu", ((2, 1024), (2, 1040), (2, 1056))),
        ("wresnet", "tofu", ((101, 3), (101, 4))),
        ("wresnet", "dp:2/tofu", ((101, 2), (101, 3))),
        ("wresnet", "pipeline", ((152, 4),)),
        ("wresnet", "machines:2/dp:2/tofu", ((50, 3), (50, 4))),
    ),
    "smoke": (
        ("rnn", "tofu", ((2, 128), (2, 192))),
        ("rnn", "dp:2/tofu", ((2, 128), (2, 256))),
        ("rnn", "pipeline", ((2, 128), (4, 128))),
        ("rnn", "machines:2/dp:2/tofu", ((2, 128),)),
        ("wresnet", "tofu", ((50, 1),)),
        ("wresnet", "pipeline", ((50, 1), (50, 2))),
    ),
}

# Models the ``tune`` workload sweeps: small enough that one 16-candidate
# sweep takes seconds, one stratum per family.
TUNE_STRATA = {
    "full": (("rnn", ((2, 512), (2, 520), (2, 528))), ("wresnet", ((50, 1),))),
    "smoke": (("rnn", ((2, 128), (2, 192))),),
}

# Smoke models shrink the inputs, not the structure: fewer RNN timesteps,
# smaller WResNet images and batches.
BUILD_OPTIONS = {
    "full": {"rnn": {}, "wresnet": {}},
    "smoke": {"rnn": {"seq_len": 3, "batch_size": 32},
              "wresnet": {"batch_size": 4, "image_size": 32}},
}

# Zipf exponent of the warm_serve stream and the length of one block of
# it.  The exponent, the block and the popularity ranks (the COLD_STRATA
# order) are assumptions, not measured traffic; README.md says why they
# were chosen.
ZIPF_S = 1.0
ZIPF_BLOCK = 20

# Nominal length of one round on a 2-vCPU host: a pass over the request
# list (cold, tune) or one Zipf block (warm_serve).  A run measures the
# fewest whole rounds that take at least ``--seconds`` there.
ROUND_SECONDS = {"cold": 16.0, "warm_serve": 10.0, "tune": 8.0}


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds of the timed phase for ``--seconds``: at least one."""
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


@dataclass(frozen=True)
class Request:
    family: str
    dims: Tuple[int, int]
    strategy: str

    @property
    def model(self) -> Tuple[str, Tuple[int, int]]:
        return (self.family, self.dims)

    @property
    def label(self) -> str:
        return f"{self.family}-{self.dims[0]}-{self.dims[1]} {self.strategy}"


PIPELINE_STAGES = (3, 4)


def _draw(rng: random.Random, family: str, shape: str, band) -> Request:
    """One request of a stratum.  A pipeline shape draws its stage count
    too, from the (size, stages) pairs that are valid: a pipeline needs at
    least one layer per stage (RNN layers are ``dims[0]``; every WResNet
    depth has more layers than the largest stage count)."""
    if shape != "pipeline":
        return Request(family, rng.choice(band), shape)
    dims, stages = rng.choice([
        (dims, stages) for dims in band for stages in PIPELINE_STAGES
        if family != "rnn" or stages <= dims[0]
    ])
    return Request(family, dims, f"pipeline:{stages}:1f1b:{2 * stages}")


def draw_requests(workload: str, seed: int, size: str) -> List[Request]:
    """One round of the workload's requests for ``seed``, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tune":
        requests = [
            Request(family, rng.choice(band), "auto")
            for family, band in TUNE_STRATA[size]
        ]
    else:
        requests = [
            _draw(rng, family, shape, band)
            for family, shape, band in COLD_STRATA[size]
        ]
    if workload != "warm_serve":
        rng.shuffle(requests)
    return requests


def zipf_counts(n: int, block: int) -> List[int]:
    """How often each of ``n`` requests appears in a block: the request of
    popularity rank ``r`` gets share ``1 / r**s`` (normalised), rounded to
    whole requests by largest remainder."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    shares = [block * w / sum(weights) for w in weights]
    counts = [math.floor(share) for share in shares]
    by_remainder = sorted(range(n), key=lambda i: counts[i] - shares[i])
    for index in by_remainder[: block - sum(counts)]:
        counts[index] += 1
    if min(counts) < 1:
        raise ValueError(f"a Zipf block of {block} leaves a request out")
    return counts


def zipf_block(requests: List[Request], seed: int) -> List[Request]:
    """One block of the warm_serve stream.  Each request appears its Zipf
    count of times, interleaved by smooth weighted round robin (which
    spreads each request evenly over the block), and the block is rotated
    by a seeded offset.  Every block holds the same mix, so a run of whole
    blocks serves the same requests, and as many failing ones, under every
    seed.  Ranks follow the strata order, so the same family x strategy
    pairs are popular under every seed."""
    counts = zipf_counts(len(requests), ZIPF_BLOCK)
    credits = [0] * len(requests)
    block = []
    for _ in range(ZIPF_BLOCK):
        for index, count in enumerate(counts):
            credits[index] += count
        chosen = max(range(len(requests)), key=credits.__getitem__)
        credits[chosen] -= ZIPF_BLOCK
        block.append(requests[chosen])
    offset = random.Random(f"warm_serve-stream:{seed}").randrange(ZIPF_BLOCK)
    return block[offset:] + block[:offset]


def build_graph(family: str, dims: Tuple[int, int], size: str):
    options = BUILD_OPTIONS[size][family]
    if family == "rnn":
        return build_rnn(num_layers=dims[0], hidden_size=dims[1], **options).graph
    return build_wide_resnet(depth=dims[0], widen=dims[1], **options).graph


def private_caches(directory: Optional[str] = None) -> Tuple[Planner, Executor]:
    """A planner and executor with empty caches of their own: disk-backed
    under ``directory`` (as with the CLI's ``--cache-dir``), else in memory."""
    if directory is None:
        return Planner(), Executor(
            ExecutorConfig(program_cache_capacity=DEFAULT_PROGRAM_CACHE_CAPACITY)
        )
    return (
        Planner(PlannerConfig(cache_dir=os.path.join(directory, "plans"))),
        Executor(ExecutorConfig(program_cache_dir=os.path.join(directory, "programs"))),
    )


def warm_up() -> None:
    """One small untimed compile per model family: the interval-analysis
    summaries of each operator are a process-level cache, so the first
    compile of a process pays for them and the timed ones must not."""
    for family, dims in (("rnn", (2, 64)), ("wresnet", (50, 1))):
        graph = build_graph(family, dims, "smoke")
        planner, executor = private_caches()
        repro.compile(graph, "tofu", num_workers=2, planner=planner, executor=executor)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass
class Row:
    """One timed operation and the oracle's verdict on it."""

    op: int
    request: str
    latency_s: float
    problems: List[str]
    outcome: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict[str, object]:
        row = {"op": self.op, "request": self.request,
               "latency_s": self.latency_s, "ok": self.ok,
               "problems": self.problems}
        if self.outcome is not None and self.ok:
            row["iteration_time"] = self.outcome["iteration_time"]
            row["peak_mem_gib"] = oracle.peak_gib(self.outcome)
        return row


@dataclass
class Phase:
    """A timed phase: its rows, operations per second and counters."""

    rows: List[Row]
    ops_per_s: float
    counts: Dict[str, float]


def gmean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Env:
    """Everything a workload's timed phase needs, built by :meth:`setup`."""

    def __init__(self, workload: str, seed: int, size: str, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.requests = draw_requests(workload, seed, size)
        self.graphs: Dict[Tuple[str, Tuple[int, int]], object] = {}
        self.fill: Dict[Request, object] = {}
        self.fill_problems: Dict[Request, List[str]] = {}
        self.cache_dirs: Optional[Tuple[str, str]] = None
        self.setup_times: List[float] = []
        self.verdicts: Dict[str, Tuple[Dict[str, object], List[str]]] = {}

    def setup(self) -> None:
        """Build graphs, warm up, and (warm_serve) fill the caches, several
        times; the last repetition's state is kept.  The oracle then checks
        the filled caches, outside the timed set-up."""
        for _ in range(SETUP_REPEATS[self.workload]):
            start = time.perf_counter()
            self.graphs = {
                request.model: build_graph(request.family, request.dims, self.size)
                for request in self.requests
            }
            if self.workload == "warm_serve":
                self._fill()  # compiles every request, so it warms up too
            else:
                warm_up()
            self.setup_times.append(time.perf_counter() - start)
        if self.workload == "warm_serve":
            self.fill_problems = self._check_fill()

    def _fill(self) -> None:
        if self.cache_dirs is not None:
            shutil.rmtree(os.path.dirname(self.cache_dirs[0]), ignore_errors=True)
        root = tempfile.mkdtemp(prefix="fill-", dir=self.out_dir)
        self.cache_dirs = (os.path.join(root, "plans"), os.path.join(root, "programs"))
        with CompileService(
            workers=1,
            plan_cache_dir=self.cache_dirs[0],
            program_cache_dir=self.cache_dirs[1],
        ) as service:
            pending = [
                (request, service.submit(self.compile_request(request)))
                for request in self.requests
            ]
            self.fill = {request: handle.result() for request, handle in pending}

    def _check_fill(self) -> Dict[Request, List[str]]:
        """The oracle's problems with each successful fill response.  The
        request is compiled again on a private planner and executor over the
        filled caches, which decodes the cached plan and program; the
        decoded model gets the full checks and must equal the response."""
        root = os.path.dirname(self.cache_dirs[0])
        problems = {}
        for request, response in self.fill.items():
            if not response.ok:
                continue
            graph = self.graphs[request.model]
            planner, executor = private_caches(root)
            try:
                model = repro.compile(
                    graph, request.strategy, planner=planner, executor=executor
                )
            except ReproError as exc:
                problems[request] = [f"fill: reading back raised {exc}"]
                continue
            found = oracle.check_model(model, graph) + oracle.compare_outcomes(
                oracle.model_outcome(model), oracle.payload_outcome(response.model)
            )
            misses = (planner.cache.info()["misses"]
                      + executor.program_cache.info()["misses"])
            if misses:
                found.append(f"fill: {misses} cache misses when read back")
            problems[request] = found
        return problems

    def check(self, label: str, outcome: Dict[str, object],
              full_check: Callable[[], List[str]]) -> List[str]:
        """The oracle's problems with one result.  The first result of a
        request gets the full checks; a later one inherits that verdict
        and must equal the first result (cold compiles are deterministic)."""
        if label not in self.verdicts:
            self.verdicts[label] = (outcome, full_check())
        first, problems = self.verdicts[label]
        return problems + oracle.compare_outcomes(outcome, first)

    def compile_request(self, request: Request, request_id=None) -> CompileRequest:
        return CompileRequest(
            graph=self.graphs[request.model],
            strategy=request.strategy,
            request_id=request_id,
        )

    def close(self) -> None:
        if self.cache_dirs is not None:
            shutil.rmtree(os.path.dirname(self.cache_dirs[0]), ignore_errors=True)


# ---------------------------------------------------------------------------
# cold and tune: sequential operations in whole rounds
# ---------------------------------------------------------------------------
def fresh_process_state() -> None:
    """Empty the process-wide simulator cache and collect garbage, so every
    operation starts alike and none pays for its predecessor's garbage."""
    clear_compiled_cache()
    gc.collect()


def cold_op(env: Env, request: Request, op: int, recorder: Recorder,
             counts: Dict[str, float]) -> Row:
    graph = env.graphs[request.model]
    with tempfile.TemporaryDirectory(prefix="cold-", dir=env.out_dir) as directory:
        planner, executor = private_caches(directory)
        fresh_process_state()
        model, error = None, None
        start = time.perf_counter()
        with recorder.span(ROOT, request=op):
            try:
                model = repro.compile(
                    graph, request.strategy, planner=planner, executor=executor
                )
            except ReproError as exc:
                error = f"error: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        _count_caches(counts, planner.cache.info(), executor.program_cache.info())
        counts["caching.bytes_written"] += (
            planner.cache.disk_bytes() + executor.program_cache.disk_bytes()
        )
    counts["graph.nodes"] += graph.num_nodes()
    if error is not None:
        return Row(op, request.label, latency, [error])
    counts["planner.search_time_seconds"] += (
        model.plan.search_time_seconds if model.plan is not None else 0.0
    )
    outcome = oracle.model_outcome(model)
    with recorder.paused():
        problems = env.check(
            request.label, outcome, lambda: oracle.check_model(model, graph)
        )
    return Row(op, request.label, latency, problems, outcome)


def tune_op(env: Env, request: Request, op: int, recorder: Recorder,
             counts: Dict[str, float]) -> Row:
    graph = env.graphs[request.model]
    planner, executor = private_caches()
    fresh_process_state()
    tuner = Tuner(budget=TunerBudget(max_candidates=TUNE_CANDIDATES), jobs=NPROC)
    model, error = None, None
    start = time.perf_counter()
    with recorder.span(ROOT, request=op):
        try:
            model = repro.compile(
                graph, "auto", planner=planner, executor=executor, tuner=tuner
            )
        except ReproError as exc:
            error = f"error: {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    _count_caches(counts, planner.cache.info(), executor.program_cache.info())
    counts["graph.nodes"] += graph.num_nodes()
    if error is not None:
        return Row(op, request.label, latency, [error])
    statuses = [o["status"] for o in model.metadata["tuner"]["outcomes"]]
    decided = sum(1 for status in statuses if status != "skipped")
    counts["tuner.decided"] += decided
    counts["tuner.evaluated"] += statuses.count("evaluated")
    label = f"{request.label} -> {model.strategy_text}"
    outcome = oracle.model_outcome(model)

    def full_check() -> List[str]:
        problems = oracle.check_model(model, graph)
        explicit_planner, explicit_executor = private_caches()
        try:
            explicit = repro.compile(
                graph, model.strategy_text,
                planner=explicit_planner, executor=explicit_executor,
            )
        except ReproError as exc:
            return problems + [f"wrong: the winner does not compile alone: {exc}"]
        return problems + oracle.compare_outcomes(
            outcome, oracle.model_outcome(explicit)
        )

    with recorder.paused():
        problems = env.check(label, outcome, full_check)
    return Row(op, label, latency, problems, outcome)


def _count_caches(counts: Dict[str, float], *infos: Dict[str, object]) -> None:
    for prefix, info in zip(("planner", "runtime"), infos):
        counts[f"{prefix}.cache_hits"] += info["hits"]
        counts[f"{prefix}.cache_lookups"] += info["hits"] + info["misses"]
    compiled = compiled_cache_info()
    counts["sim.compiled_hits"] += compiled["hits"]
    counts["sim.compiled_lookups"] += compiled["hits"] + compiled["misses"]


def run_rounds(env: Env, rounds: int, recorder: Recorder,
               traced: bool) -> Phase:
    """``rounds`` passes over ``env.requests``, one operation at a time."""
    op_fn: Callable = tune_op if env.workload == "tune" else cold_op
    rows: List[Row] = []
    counts: Dict[str, float] = defaultdict(float)
    recorder.enabled = traced
    for request in env.requests * rounds:
        rows.append(op_fn(env, request, len(rows), recorder, counts))
    recorder.enabled = False
    busy = sum(row.latency_s for row in rows)
    if env.workload == "tune":
        rate = counts["tuner.decided"] / busy
    else:
        rate = len(rows) / busy
    return Phase(rows, rate, counts)


# ---------------------------------------------------------------------------
# warm_serve: a closed loop of NPROC clients against a restarted service
# ---------------------------------------------------------------------------
def run_warm_serve(env: Env, rounds: int, recorder: Recorder,
                   traced: bool) -> Phase:
    """``rounds`` Zipf blocks of requests, sent by a closed loop of NPROC
    client threads to a service restarted over the filled caches."""
    assert env.cache_dirs is not None
    fresh_process_state()
    service = CompileService(
        workers=NPROC,
        plan_cache_dir=env.cache_dirs[0],
        program_cache_dir=env.cache_dirs[1],
    )
    if traced:
        # Served work runs on the service's pool threads; carry each
        # request's span context over to them.
        recorder.trace_service(service)
    stream = enumerate(zipf_block(env.requests, env.seed) * rounds)
    lock = threading.Lock()
    results: List[tuple] = []

    def client() -> None:
        while True:
            with lock:
                op, request = next(stream, (None, None))
            if request is None:
                return
            start = time.perf_counter()
            with recorder.span(ROOT, request=op):
                try:
                    response = service.compile(env.compile_request(request, str(op)))
                except Exception as exc:  # a client keeps serving; the row records it
                    response = CompileResponse(
                        status="error", error=f"{type(exc).__name__}: {exc}"
                    )
            results.append((op, request, time.perf_counter() - start, response))

    recorder.enabled = traced
    start = time.perf_counter()
    clients = [threading.Thread(target=client) for _ in range(NPROC)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    wall = time.perf_counter() - start
    recorder.enabled = False
    service.close()
    stats = service.stats()

    counts = defaultdict(float)
    rows = []
    for op, request, latency, response in sorted(results, key=lambda r: r[0]):
        counts["graph.nodes"] += env.graphs[request.model].num_nodes()
        reference = env.fill[request]
        if not response.ok:
            rows.append(Row(op, request.label, latency, [f"error: {response.error}"]))
            continue
        outcome = oracle.payload_outcome(response.model)
        if not reference.ok:
            problems = [f"wrong: served although the cold compile failed "
                        f"({reference.error})"]
        else:
            problems = env.fill_problems[request] + oracle.compare_outcomes(
                outcome, oracle.payload_outcome(reference.model)
            )
        rows.append(Row(op, request.label, latency, problems, outcome))
    _count_caches(counts, stats["plan_cache"], stats["program_cache"])
    counts["serve.searches"] += stats["searches"]
    counts["serve.deduped"] += stats["deduped"]
    counts["serve.requests"] += stats["requests"]
    return Phase(rows, len(rows) / wall, counts)


def run_phase(env: Env, rounds: int, recorder: Recorder, traced: bool) -> Phase:
    if env.workload == "warm_serve":
        return run_warm_serve(env, rounds, recorder, traced)
    return run_rounds(env, rounds, recorder, traced)
