"""The four workloads: set-up, closed-loop drivers and answer checks.

Every workload serves apb_small (``num_tuples=20000``: 278,622 clustered
fact rows) through one serving path with VCMC + two_level and preload
headroom 0.9, under the paper's 30/30/30/10 ``QueryStreamGenerator``
stream (``max_extent=2``).  The fact table and the pool of query
sessions are fixed; the workload seed orders the sessions and draws the
append batches.  All inputs are generated before anything is timed.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.approx.contract import approx
from repro.backend import BackendDatabase, CostModel, generate_fact_table
from repro.core.manager import AggregateCache
from repro.harness.config import ExperimentConfig
from repro.service import ConcurrentAggregateCache
from repro.sharding import ShardRouter
from repro.workload.stream import QueryStreamGenerator

from perfbench.truth import chunk_digest

SCALES = {
    "full": ExperimentConfig(num_tuples=20000),
    "tiny": ExperimentConfig(
        schema_name="apb_tiny", num_tuples=300, data_mode="uniform"
    ),
}

#: Cache budget of the single-process workloads, as a share of the base
#: level: smaller than the working set, so the cache churns.
CACHE_FRACTION = 0.3
#: Per-shard budget of ``sharded_fits`` (the paper's 25 MB equivalent,
#: weak-scaled): the base level fits in every worker.
SHARD_FRACTION = 1.15
NUM_SHARDS = 2
APPROX_FRACTION = 0.05
APPROX_CONTRACT = approx(max_rel_error=0.1, prefer_sample=True)
INGEST_CLIENTS = 2
#: ``ingest`` applies one append wave per this many queries: the client
#: that draws query ``APPEND_EVERY // 2 + k * APPEND_EVERY`` applies wave
#: ``k + 1`` before serving it.  Tying the waves to the query count, not
#: to one client's share of the queries, makes their number independent
#: of thread scheduling; the offset lands one wave in a 50-query warm-up.
APPEND_EVERY = 50
APPEND_ROWS = 300
#: Queries served before the timed window, so the preloaded cache has
#: taken its first query-driven admissions.
WARMUP_QUERIES = 50
#: Queries a run serves per second of ``--seconds``: about the rate each
#: path reached at the commit that added the benchmark, on a 2-core host.
#: The work of a run is fixed, so a faster program finishes sooner.
NOMINAL_QPS = {"session": 85, "sharded_fits": 44, "ingest": 55,
               "approx": 125}
#: A run is a pool of independent paper-stream sessions of this length.
SESSION_QUERIES = 50
#: Seed of the session pool.  The pool is the same for every workload
#: seed; the workload seed only orders it (and draws the append batches),
#: because which levels a stream happens to visit moves a 1,000-query
#: run's throughput by +-30% between seeds.
POOL_SEED = 20_000
#: A run stops after this many times ``--seconds`` even if its pool is
#: not used up (the run record then says ``truncated``).
TIME_CAP = 3

WORKLOADS = ("session", "sharded_fits", "ingest", "approx")


@dataclass
class Env:
    """What every set-up of one run shares."""

    config: ExperimentConfig
    schema: object
    """The schema the inputs, checks and size calibration use."""
    sizes: object
    """The calibrated size estimator, before any set-up has used it."""
    workdir: str

    def fresh(self):
        """A new schema and a copy of the calibrated estimator bound to it.
        The schema memoises chunk addressing, so reusing one across set-ups
        would let later passes run warmer than the first."""
        schema = self.config.make_schema()
        return schema, copy.deepcopy(self.sizes, {id(self.schema): schema})


@dataclass
class Server:
    """One set-up serving path."""

    call: object
    """``call(query) -> QueryResult``."""
    cache_bytes: int
    close: object
    service: object = None
    """The concurrent service (``ingest``) whose refreshes append."""
    replans: object = lambda: 0
    worker_pids: tuple = ()


def generate_facts(config: ExperimentConfig, schema):
    return generate_fact_table(
        schema,
        num_tuples=config.num_tuples,
        seed=config.seed,
        skew=config.skew,
        mode=config.data_mode,
        combo_density=config.combo_density,
        cell_fill=config.cell_fill,
    )


def build(name: str, env: Env) -> Server:
    """Generate the data, build the backend, preload the cache or the
    workers and pass the readiness barrier."""
    config = env.config
    schema, sizes = env.fresh()
    facts = generate_facts(config, schema)
    if name == "sharded_fits":
        return _build_sharded(env, schema, sizes, facts)
    backend = BackendDatabase(schema, facts, CostModel())
    capacity = max(int(backend.base_size_bytes * CACHE_FRACTION), 1)
    manager = AggregateCache(
        schema,
        backend,
        capacity,
        strategy="vcmc",
        policy="two_level",
        preload_headroom=config.preload_headroom,
        sizes=sizes,
        approx=APPROX_FRACTION if name == "approx" else None,
    )
    if name == "approx":
        return Server(
            call=lambda query: manager.query(query, APPROX_CONTRACT),
            cache_bytes=capacity,
            close=backend.close,
        )
    if name == "ingest":
        service = ConcurrentAggregateCache(manager)
        return Server(
            call=service.query,
            cache_bytes=capacity,
            close=backend.close,
            service=service,
            replans=lambda: service.replans,
        )
    return Server(call=manager.query, cache_bytes=capacity,
                  close=backend.close)


def _build_sharded(env: Env, schema, sizes, facts) -> Server:
    tmp = tempfile.mkdtemp(prefix="warehouse-", dir=env.workdir)
    path = os.path.join(tmp, "warehouse.rcol")
    warehouse = router = None
    try:
        warehouse = BackendDatabase(
            schema, facts, CostModel(), store="mmap", store_path=path
        )
        per_shard = max(int(warehouse.base_size_bytes * SHARD_FRACTION), 1)
        router = ShardRouter.spawn(
            NUM_SHARDS,
            schema,
            per_shard * NUM_SHARDS,
            store_path=path,
            cost_model=CostModel(),
            sizes=sizes,
            preload_headroom=env.config.preload_headroom,
            validate_aggregation=False,
        )
        # Readiness barrier: one stats round trip per shard returns only
        # after the worker's preload, so no timed query absorbs it.
        router.stats()
    except BaseException:
        if router is not None:
            router.close()
        if warehouse is not None:
            warehouse.close()
        shutil.rmtree(tmp, ignore_errors=True)
        raise

    def close():
        router.close()
        warehouse.close()
        shutil.rmtree(tmp, ignore_errors=True)

    return Server(
        call=router.query,
        cache_bytes=per_shard,
        close=close,
        worker_pids=tuple(shard.process.pid for shard in router.shards),
    )


# ---------------------------------------------------------------------- #
# inputs


def make_inputs(env: Env, workload: str, seed: int, seconds: float,
                passes: int = 1):
    """``(warm-up queries, sessions, append batches)``.

    The sessions are a fixed pool of ``SESSION_QUERIES``-query streams,
    each from the paper's 30/30/30/10 ``QueryStreamGenerator``.  Pass
    ``k`` of ``passes`` serves ``sessions[k::passes]``: the same pool
    sessions for every seed, in an order drawn from ``seed``.  Sessions
    differ a lot in cost, and each inherits the cache its predecessors
    left, so a seed that also dealt the sessions out to the passes moved
    ``sim_ms_per_query`` on ``ingest`` by 0.12 between seeds (quartile
    spread) where ordering within fixed passes moves it by 0.07."""
    sessions = max(1, round(seconds * NOMINAL_QPS[workload]
                            / SESSION_QUERIES))

    def session(pool_seed: int, length: int):
        return QueryStreamGenerator(
            env.schema, max_extent=env.config.max_extent, seed=pool_seed
        ).generate(length)

    pool = [session(POOL_SEED + k, SESSION_QUERIES) for k in range(sessions)]
    rng = np.random.default_rng(seed & 0xFFFF_FFFF_FFFF_FFFF)
    order = np.arange(sessions)
    for k in range(passes):
        order[k::passes] = rng.permutation(order[k::passes])
    ordered = [pool[k] for k in order]
    warmup = session(POOL_SEED - 1, WARMUP_QUERIES)
    waves = (sessions * SESSION_QUERIES + WARMUP_QUERIES) \
        // APPEND_EVERY
    batches = [
        generate_fact_table(
            env.schema,
            num_tuples=APPEND_ROWS,
            seed=int(rng.integers(0, 2**31)),
            mode="uniform",
        )
        for _ in range(waves + 1)
    ]
    return warmup, ordered, batches


# ---------------------------------------------------------------------- #
# closed-loop drivers


@dataclass
class Answer:
    """What the checks and metrics need from one ``QueryResult``; the
    chunk payloads are reduced to digests (see :mod:`perfbench.truth`)."""

    numbers: tuple[int, ...]
    digests: tuple[tuple, ...]
    estimated: tuple[tuple[int, float], ...]
    unanswered: tuple[int, ...]
    complete_hit: bool
    tuples_aggregated: int
    from_backend: int
    coverage: float


def summarize(schema, result) -> Answer:
    return Answer(
        numbers=tuple(chunk.number for chunk in result.chunks),
        digests=tuple(chunk_digest(schema, chunk) for chunk in result.chunks),
        estimated=tuple((e.number, e.sum_est) for e in result.estimated),
        unanswered=tuple(result.unanswered),
        complete_hit=result.complete_hit,
        tuples_aggregated=result.tuples_aggregated,
        from_backend=result.from_backend,
        coverage=result.coverage,
    )


@dataclass
class Record:
    """One query as the client saw it."""

    query: object
    answer: Answer | None
    error: str | None
    latency_s: float
    generations: tuple[int, int] = (0, 0)
    """First and last append generation published while in flight."""


@dataclass
class Run:
    records: list[Record] = field(default_factory=list)
    elapsed_s: float = 0.0
    append_latency_s: list[float] = field(default_factory=list)
    append_errors: list[str] = field(default_factory=list)
    generations: int = 0
    """Append waves applied (``ingest``)."""


def _serve(server: Server, query, index: int, tracer):
    if tracer is None:
        return server.call(query)
    return tracer.root("query", f"q{index}", server.call, query)


class AppendGate:
    """Lets an append wave start only when no query is in flight, and
    holds new queries back until it is done.

    ``ConcurrentAggregateCache`` fetches from the backend under no lock,
    and a fetch that straddles a refresh is admitted after the patch
    wave, so the cache keeps pre-append cells (see
    ``perfbench/README.md``).  With ``racing`` the gate does nothing and
    appends race the other client's queries, which reproduces that."""

    def __init__(self, racing: bool = False):
        self.racing = racing
        self._cond = threading.Condition()
        self._inflight = 0
        self._appending = False

    @contextlib.contextmanager
    def query(self):
        if not self.racing:
            with self._cond:
                while self._appending:
                    self._cond.wait()
                self._inflight += 1
        try:
            yield
        finally:
            if not self.racing:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    @contextlib.contextmanager
    def append(self):
        if not self.racing:
            with self._cond:
                while self._appending:
                    self._cond.wait()
                self._appending = True
                while self._inflight:
                    self._cond.wait()
        try:
            yield
        finally:
            if not self.racing:
                with self._cond:
                    self._appending = False
                    self._cond.notify_all()


def drive(server: Server, schema, queries, seconds=None, tracer=None,
          batches=(), run: Run | None = None,
          racing_appends: bool = False) -> Run:
    """Serve ``queries`` closed loop, stopping early once ``seconds`` have
    passed.  ``ingest`` runs :data:`INGEST_CLIENTS` client threads;
    append waves go between queries (see :data:`APPEND_EVERY` and
    :class:`AppendGate`).

    Each answer is digested right after its latency is taken.  With one
    client the digest time is left out of the run's clock; with two it
    stays in (a fraction of a millisecond per query)."""
    run = run if run is not None else Run()
    clients = INGEST_CLIENTS if server.service is not None else 1
    gate = AppendGate(racing_appends)
    issued = itertools.count()
    state = {"published": run.generations, "pending": run.generations}
    per_client: list[list[Record]] = [[] for _ in range(clients)]
    paused = [0.0]
    start = time.perf_counter()

    def client(k: int) -> None:
        records = per_client[k]
        while (seconds is None
               or time.perf_counter() - start - paused[0] < seconds):
            index = next(issued)
            if index >= len(queries):
                return
            if server.service is not None \
                    and index % APPEND_EVERY == APPEND_EVERY // 2 \
                    and state["pending"] < len(batches):
                with gate.append():
                    _append(server, batches, state, run, tracer)
            query = queries[index]
            with gate.query():
                first = state["published"]
                t0 = time.perf_counter()
                try:
                    result, error = _serve(server, query, index, tracer), None
                except Exception as exc:  # counted as a failed operation
                    result, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            answer = None if result is None else summarize(schema, result)
            if clients == 1:
                paused[0] += time.perf_counter() - t1
            records.append(Record(query, answer, error, t1 - t0,
                                  (first, state["pending"])))

    if clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    run.elapsed_s += time.perf_counter() - start - paused[0]
    for records in per_client:
        run.records.extend(records)
    run.generations = state["published"]
    return run


def _append(server: Server, batches, state, run: Run, tracer) -> None:
    """One delta refresh wave; generation bookkeeping brackets it so any
    query overlapping the refresh sees both generations in its window."""
    generation = state["pending"] + 1
    state["pending"] = generation
    batch = batches[generation - 1]
    t0 = time.perf_counter()
    try:
        if tracer is None:
            server.service.refresh_from_backend(batch, mode="delta")
        else:
            tracer.root("append", f"a{generation}",
                        server.service.refresh_from_backend, batch, "delta")
    except Exception as exc:  # counted as a failed operation
        run.append_errors.append(f"append {generation}: "
                                 f"{type(exc).__name__}: {exc}")
    run.append_latency_s.append(time.perf_counter() - t0)
    state["published"] = generation


# ---------------------------------------------------------------------- #
# answer checks


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    estimate_errors: list[float] = field(default_factory=list)
    examples: list[str] = field(default_factory=list)


def check_records(records, truth, schema, approximate: bool,
                  check: Check | None = None) -> Check:
    """Check every answer against the ground truth.  A failure is an
    exception, a wrong exact cell, or a chunk left unanswered (or, under
    an exact contract, estimated)."""
    check = check if check is not None else Check()
    for record in records:
        check.attempted += 1
        problem = _problem(record, truth, schema, approximate, check)
        if problem is not None:
            check.failed += 1
            if len(check.examples) < 5:
                check.examples.append(problem)
    return check


def _problem(record, truth, schema, approximate, check) -> str | None:
    if record.error is not None:
        return record.error
    answer = record.answer
    level = record.query.level
    numbers = record.query.chunk_numbers(schema)
    estimated = [number for number, _ in answer.estimated]
    if answer.unanswered:
        return f"unanswered chunks {list(answer.unanswered)}"
    if approximate:
        if sorted(answer.numbers + tuple(estimated)) != sorted(numbers):
            return "chunks + estimates do not partition the query"
    elif list(answer.numbers) != numbers or estimated:
        return "exact answer does not cover the query"
    first, last = record.generations
    if not any(
        all(truth.expected_digest(level, number, g) == got
            for number, got in zip(answer.numbers, answer.digests))
        for g in range(first, last + 1)
    ):
        return (f"cells differ from the truth at every generation "
                f"{first}..{last} ({record.query})")
    for number, estimate in answer.estimated:
        want = truth.chunk_total(level, number)
        if want != 0:
            check.estimate_errors.append(abs(estimate - want) / abs(want))
    return None
