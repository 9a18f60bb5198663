"""Thread-safe concurrent query serving over an :class:`AggregateCache`.

The sequential manager mutates shared state (cache entries, byte
accounting, virtual counts, CLOCK hands) on every query, so it cannot be
driven from several threads directly.  :class:`ConcurrentAggregateCache`
wraps one manager behind a readers-writer lock split along the paper's
four query phases:

* **lookup** and **aggregate** run under a *read* lock — they only read
  cache membership and count/cost state, so any number of queries may
  plan and aggregate concurrently;
* **admit/count-update** runs under the *write* lock — admissions,
  evictions and count/cost maintenance are serialised, which is what
  keeps the byte accounting and Property 1 exact;
* the **backend** phase runs under *no* lock at all, deduplicated by a
  single-flight table: concurrent misses on the same ``(level, chunk)``
  issue one backend fetch and share the resulting chunk.  A leader's
  flight sends all of its claimed keys in one ``BackendDatabase.fetch``
  call, so the whole led set is aggregated in a single batched
  ``rollup_many`` pass (see ``docs/perf.md``).

The phases themselves are the manager's one query pipeline
(:meth:`AggregateCache._answer`); this class is the lock and
single-flight policy it runs under.  Because the lookup and aggregate
phases are separate read-lock holds, a plan found in phase 1 can
reference a chunk that a racing writer evicts before phase 2
materialises it.  The batched plan executor therefore checks every
plan's leaves inside the aggregate hold and re-plans only the plans a
racing eviction invalidated (at most ``max_replans`` times each,
counted in ``replans``); a chunk that is genuinely no longer computable
falls back to the backend.  All surviving plans then execute in one
forest pass, so the service and the shard workers get the same
``rollup_many`` batching as the sequential manager.

``serve(queries, workers=N)`` drives a stream through a bounded thread
pool, returning per-query results in submission order.  With
``workers=1`` the results are identical — field for field — to running
the sequential manager over the same stream.

When the wrapped manager has ``degraded_mode`` set, a typed backend
fault (see :mod:`repro.faults`) during phase 3 degrades the query
instead of failing it: chunks still coverable by the cache are
aggregated under a read lock (exact answers), the rest are reported in
``QueryResult.unanswered``, and single-flight followers observe their
leader's failure without re-hitting the dead backend.  See
``docs/service.md`` for the locking design and ``docs/faults.md`` for
the degraded-result semantics.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Iterable, Sequence

from repro.adaptive.canonical import canonicalize
from repro.adaptive.precompute import AdaptiveActions, AdaptivePrecomputer
from repro.approx.contract import QueryContract
from repro.chunks.chunk import Chunk
from repro.core.manager import AggregateCache, QueryResult
from repro.core.plans import PlanNode
from repro.faults.errors import FaultError
from repro.schema.cube import Level
from repro.service.rwlock import ReadWriteLock
from repro.service.singleflight import SingleFlightTable
from repro.util.errors import ReproError
from repro.obs import span
from repro.workload.query import Query

Key = tuple[Level, int]


class ConcurrentAggregateCache:
    """A thread-safe serving layer over one :class:`AggregateCache`.

    Parameters
    ----------
    manager:
        The sequential manager to serve.  The wrapper takes over all
        query traffic; driving the wrapped manager directly from another
        thread at the same time voids the consistency guarantees.
    max_replans:
        How many times a chunk whose plan was invalidated by a racing
        eviction is re-planned before falling back to the backend.
    flight_timeout_s:
        Liveness backstop for single-flight followers; only fires if a
        leader thread died between claiming and publishing a fetch.
    adaptive:
        Optional :class:`~repro.adaptive.precompute.AdaptivePrecomputer`
        over the same manager.  When attached, every served query feeds
        its workload tracker (lock-free with respect to serving), and
        :meth:`idle_tick` runs one promote/demote cycle under the write
        lock — exclusive against all in-flight queries, exactly like a
        warehouse refresh.
    """

    def __init__(
        self,
        manager: AggregateCache,
        max_replans: int = 2,
        flight_timeout_s: float | None = 60.0,
        adaptive: AdaptivePrecomputer | None = None,
    ) -> None:
        self.manager = manager
        self.max_replans = max_replans
        self.flight_timeout_s = flight_timeout_s
        self.adaptive = adaptive
        self.flights = SingleFlightTable()
        self.replans = 0
        """Lifetime re-plans forced by racing evictions."""
        self._rw = ReadWriteLock()
        self._find_lock = threading.Lock()
        """Guards the strategy's per-find visit counters: ``find`` itself
        only reads count/cost state (safe under the read lock), but its
        ``last_find_visits`` bookkeeping is one shared slot."""
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # pass-through introspection

    @property
    def schema(self):
        return self.manager.schema

    @property
    def cache(self):
        return self.manager.cache

    @property
    def backend(self):
        return self.manager.backend

    @property
    def obs(self):
        return self.manager.obs

    @property
    def queries_run(self) -> int:
        return self.manager.queries_run

    @property
    def complete_hits(self) -> int:
        return self.manager.complete_hits

    @property
    def complete_hit_ratio(self) -> float:
        return self.manager.complete_hit_ratio

    def describe(self) -> str:
        return f"Concurrent[{self.manager.describe()}]"

    # ------------------------------------------------------------------ #
    # the serving driver

    def serve(
        self,
        queries: Iterable[Query],
        workers: int = 4,
        contract: QueryContract | None = None,
    ) -> list[QueryResult]:
        """Answer a stream of queries on a bounded thread pool.

        Results come back in submission order regardless of completion
        order, so per-stream accounting (hit ratios, per-query
        comparisons against a sequential run) is preserved.  An optional
        ``contract`` applies to every query of the stream.
        """
        queries = list(queries)
        obs = self.manager.obs
        if obs.enabled:
            obs.metrics.gauge("service.workers").set(workers)
        if workers <= 1:
            return [self.query(query, contract) for query in queries]
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        ) as pool:
            return list(
                pool.map(lambda query: self.query(query, contract), queries)
            )

    # ------------------------------------------------------------------ #
    # one query, phase by phase

    def query(
        self, query: Query, contract: QueryContract | None = None
    ) -> QueryResult:
        """Answer one query; safe to call from any number of threads.
        ``contract`` has :meth:`AggregateCache.query` semantics."""
        return self.query_subset(
            query, query.chunk_numbers(self.manager.schema), contract
        )

    def query_subset(
        self,
        query: Query,
        numbers: Sequence[int],
        contract: QueryContract | None = None,
    ) -> QueryResult:
        """Answer only the given chunk numbers of ``query``.

        This is the shard-local entry point of the fan-out router
        (:mod:`repro.sharding`): each worker serves exactly the slice of
        the canonical plan it owns, and the returned result's
        accounting — ``complete_hit``, ``coverage``, ``unanswered`` — is
        relative to that slice.  ``numbers`` must be chunk numbers of
        ``query.level``; with the full plan it is equivalent to
        :meth:`query`, field for field.
        """
        if not numbers:
            raise ReproError("query_subset needs at least one chunk number")
        manager = self.manager
        obs = manager.obs
        if self.adaptive is not None:
            self.adaptive.note_query(query)
        if obs.enabled:
            with self._inflight_lock:
                self._inflight += 1
                obs.metrics.gauge("service.queue_depth").set(self._inflight)
        try:
            with span(obs, "service", chunks=query.num_chunks):
                return manager._answer(query, list(numbers), contract, self)
        finally:
            if obs.enabled:
                with self._inflight_lock:
                    self._inflight -= 1
                    obs.metrics.gauge("service.queue_depth").set(
                        self._inflight
                    )

    def query_spec(self, spec) -> QueryResult:
        """Concurrent counterpart of :meth:`AggregateCache.query_spec`:
        canonicalize a user-shaped spec, then serve its chunk-aligned
        query — equivalent spellings share plan-cache memos and
        single-flight fetches."""
        return self.query(
            canonicalize(self.manager.schema, spec).to_query()
        )

    # ------------------------------------------------------------------ #
    # maintenance entry points (serialised against all serving)

    def idle_tick(self) -> AdaptiveActions:
        """Run one adaptive promote/demote cycle, exclusive against all
        in-flight queries.  No-op (empty actions) without an attached
        precomputer."""
        if self.adaptive is None:
            return AdaptiveActions()
        with self._rw.write_locked():
            return self.adaptive.run_idle_cycle()

    def refresh_from_backend(self, facts, mode: str = "delta"):
        """Warehouse refresh, exclusive against every in-flight query.

        The write lock quiesces all four query phases, so the append and
        its patch wave (``mode="delta"`` — resident chunks patched in
        place instead of evicted; see
        :meth:`AggregateCache.refresh_from_backend`) never interleave
        with a reader: a query observes the cache strictly before or
        strictly after the whole refresh.  Returns the manager's
        :class:`~repro.core.manager.RefreshOutcome`.
        """
        with self._rw.write_locked():
            outcome = self.manager.refresh_from_backend(facts, mode=mode)
            if self.adaptive is not None:
                self.adaptive.reconcile_pins()
            return outcome

    def invalidate_base_chunks(self, numbers: list[int]) -> int:
        with self._rw.write_locked():
            evicted = self.manager.invalidate_base_chunks(numbers)
            if self.adaptive is not None:
                # Forced eviction ignores pins; drop any bookkeeping for
                # chunks that no longer exist.
                self.adaptive.reconcile_pins()
            return evicted

    # ------------------------------------------------------------------ #
    # the query pipeline's lock and single-flight policy (see
    # AggregateCache._answer and its sequential counterpart)

    def _read(self):
        return self._rw.read_locked()

    def _write(self):
        return self._rw.write_locked()

    def _find(self, level: Level, number: int) -> tuple[PlanNode | None, int]:
        """One strategy lookup plus its visit count, atomically."""
        with self._find_lock:
            plan = self.manager.strategy.find(level, number)
            return plan, self.manager.strategy.last_find_visits

    def _count_replan(self) -> None:
        with self._find_lock:
            self.replans += 1
        obs = self.manager.obs
        if obs.enabled:
            obs.metrics.counter("service.replans").inc()

    def _retire(
        self, led: list[Key], error: BaseException | None = None
    ) -> None:
        """Retire the flights a query led: released once its admissions
        settled, abandoned when it failed on the way."""
        if error is None:
            self.flights.release(led)
        else:
            self.flights.abandon(led, error)

    def _fetch(
        self,
        level: Level,
        missing: Sequence[int],
        led: list[Key],
        degrade_ok: bool,
    ) -> tuple[list[Chunk], list[Chunk], float | None]:
        """Resolve the missing chunks through the single-flight table.

        ``led`` is the caller's (initially empty) flight guard: the keys
        this query claimed leadership of are appended in place, so they
        are visible to the caller's abandon handler even if this method
        raises.  Returns the chunks fetched for the led keys (to admit),
        the follower chunks shared from other queries' flights, and the
        milliseconds to charge the backend phase — the cost model's
        simulated time for a successful led fetch, else ``None`` (the
        span keeps its measured wall-clock wait).  A chunk whose
        resolution failed with a typed backend fault is simply absent
        when ``degrade_ok``; otherwise the fault propagates.

        A failed led fetch fails ONLY the led flights; joined flights
        are still awaited, because their leaders' backends may well have
        succeeded.  A failed follower wait, conversely, does not disturb
        this query's own led flights.
        """
        obs = self.manager.obs
        claimed, joined = self.flights.claim(
            [(level, number) for number in missing]
        )
        led.extend(claimed)
        fetched: list[Chunk] = []
        charge_ms = None
        if claimed:
            try:
                fetched, stats = self.manager.backend.fetch(claimed)
            except BaseException as exc:
                self.flights.fail(claimed, exc)
                led.clear()
                if not (degrade_ok and isinstance(exc, FaultError)):
                    raise
            else:
                charge_ms = stats.total_ms
                for key, chunk in zip(claimed, fetched):
                    self.flights.publish(key, chunk)
        if joined and obs.enabled:
            obs.metrics.counter("service.singleflight.shared").inc(
                len(joined)
            )
        shared: list[Chunk] = []
        for flight in joined.values():
            try:
                shared.append(self.flights.wait(flight, self.flight_timeout_s))
            except FaultError:
                if not degrade_ok:
                    raise
        return fetched, shared, charge_ms
