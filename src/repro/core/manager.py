"""The aggregate-aware cache manager — the middle tier of the paper's
three-tier system.

For every query: split it into chunks; look each chunk up with the
configured strategy (direct hit, computable-by-aggregation, or miss);
aggregate the computable ones in the cache; fetch all misses from the
backend in a single batched request; admit the new chunks (maintaining the
strategy's count/cost state); and reinforce the chunk groups that were
aggregated (two-level policy, rule 2).  Per-query wall-clock is split into
the paper's lookup / aggregation / update / backend phases (Figure 10).

Those four phases are written once, in :meth:`AggregateCache._answer`,
and run under a lock and single-flight policy: the sequential manager's
own policy takes no lock and fetches straight from the backend, while
:class:`~repro.service.ConcurrentAggregateCache` passes itself to hold
its readers-writer lock and deduplicate fetches.  Phase 2 and the
degraded-mode salvage both execute through one batched plan executor,
:meth:`AggregateCache._execute_plans_batched`, and every result — the
pipeline's and the shard router's merge — is built by
:func:`assemble_result`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.aggregation.aggregate import rollup_many
from repro.approx.answering import ApproxAnswerer, make_answerer
from repro.approx.contract import QueryContract, resolve_contract
from repro.approx.estimator import CellEstimate
from repro.backend.engine import BackendDatabase
from repro.cache.preload import choose_preload_level
from repro.cache.replacement import make_policy
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.store import ChunkCache
from repro.cache.values import CacheValueBackend, make_value_backend
from repro.chunks.chunk import Chunk, ChunkOrigin
from repro.core.plans import PlanCache, PlanNode
from repro.core.sizes import SizeEstimator
from repro.core.strategies import make_strategy
from repro.core.strategies.base import LookupStrategy
from repro.faults.errors import FaultError
from repro.obs import NULL_OBS, Observability, span
from repro.schema.cube import CubeSchema, Level
from repro.util.errors import ReproError
from repro.util.timers import TimeBreakdown
from repro.workload.query import Query

Key = tuple[Level, int]


@dataclass
class QueryResult:
    """Outcome and accounting of one query."""

    query: Query
    chunks: list[Chunk]
    complete_hit: bool
    """True when the whole query was answered from the cache (directly or
    by aggregation) — the paper's 'complete hit'."""
    breakdown: TimeBreakdown
    direct_hits: int = 0
    aggregated: int = 0
    from_backend: int = 0
    tuples_aggregated: int = 0
    lookup_visits: int = 0
    state_updates: int = 0
    reinforcements_skipped: int = 0
    """Group-reinforcement targets that were no longer resident when the
    reinforcement landed.  Always 0 in sequential use (reinforcement is
    applied before this query's own admissions can evict anything); under
    concurrent serving a racing eviction can make it positive."""
    degraded: bool = False
    """True when the backend failed during this query and the answer was
    assembled from the cache alone (``degraded_mode``).  Every chunk that
    *is* present is exact; ``unanswered`` lists the ones that are not."""
    coverage: float = 1.0
    """Fraction of the query's chunks answered *exactly*.  Populated on
    every result — 1.0 with ``unanswered == ()`` on a fully exact
    answer — so downstream consumers never need a degraded/approx
    branch."""
    unanswered: tuple[int, ...] = ()
    """Chunk numbers neither answered exactly nor estimated (missing
    from ``chunks`` and ``estimated``); empty on exact answers."""
    contract: str = "exact"
    """The requested contract mode (``exact`` when none was passed —
    the manager's ``degraded_mode`` may still degrade such queries)."""
    estimated: tuple[CellEstimate, ...] = ()
    """Per-chunk sample estimates (approx contracts only), in plan
    order.  ``chunks`` + ``estimated`` + ``unanswered`` partition the
    query's chunk numbers exactly."""

    def total_value(self) -> float:
        """Grand total of the measure over the exactly answered region."""
        return sum(chunk.total() for chunk in self.chunks)

    @property
    def answered_fraction(self) -> float:
        """Fraction answered exactly *or* approximately, of the chunks
        this result answers for — the whole query, or the slice of a
        :meth:`~repro.service.ConcurrentAggregateCache.query_subset`."""
        answered = len(self.chunks) + len(self.estimated)
        total = answered + len(self.unanswered)
        return answered / total if total else 1.0

    def estimate_total(self):
        """SUM over the whole answered region — exact chunk totals plus
        sample estimates — with its combined 95% half-width (0.0 when
        nothing was estimated).  Returns ``(estimate, half_width)``."""
        from repro.approx.estimator import combine_estimates

        exact = sum(chunk.total() for chunk in self.chunks)
        if not self.estimated:
            return exact, 0.0
        region = combine_estimates(self.estimated)
        return exact + region.sum_est, region.sum_half

    @property
    def total_ms(self) -> float:
        return self.breakdown.total_ms


@dataclass(frozen=True)
class QueryLogRecord:
    """One row of the manager's query log (``keep_log=True``)."""

    sequence: int
    level: Level
    num_chunks: int
    complete_hit: bool
    direct_hits: int
    aggregated: int
    from_backend: int
    lookup_ms: float
    aggregate_ms: float
    update_ms: float
    backend_ms: float
    tuples_aggregated: int
    cache_used_bytes: int
    coverage: float = 1.0
    estimated: int = 0

    @classmethod
    def from_result(
        cls, manager: "AggregateCache", result: "QueryResult"
    ) -> "QueryLogRecord":
        b = result.breakdown
        return cls(
            sequence=manager.queries_run,
            level=result.query.level,
            num_chunks=result.query.num_chunks,
            complete_hit=result.complete_hit,
            direct_hits=result.direct_hits,
            aggregated=result.aggregated,
            from_backend=result.from_backend,
            lookup_ms=b.lookup_ms,
            aggregate_ms=b.aggregate_ms,
            update_ms=b.update_ms,
            backend_ms=b.backend_ms,
            tuples_aggregated=result.tuples_aggregated,
            cache_used_bytes=manager.cache.used_bytes,
            coverage=result.coverage,
            estimated=len(result.estimated),
        )


def write_query_log_csv(records: list[QueryLogRecord], path) -> int:
    """Write a manager's query log as CSV; returns the row count."""
    import csv
    from dataclasses import asdict, fields
    from pathlib import Path

    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in fields(QueryLogRecord)])
        for record in records:
            row = asdict(record)
            row["level"] = ",".join(map(str, record.level))
            writer.writerow(row.values())
    return len(records)


def assemble_result(
    query: Query,
    numbers: Sequence[int],
    cells: Mapping[int, Chunk],
    estimates: Iterable[CellEstimate],
    breakdown: TimeBreakdown,
    contract: QueryContract | None,
    degraded: bool,
    **counters: int,
) -> QueryResult:
    """Build the :class:`QueryResult` for the chunk numbers ``numbers``
    (a whole query's plan or one slice of it, in plan order).

    ``cells`` holds the exactly answered chunks and ``estimates`` the
    sample estimates, in any order; ``counters`` are the remaining
    :class:`QueryResult` accounting fields.  Everything else derives
    from them: chunks and estimates in plan order, ``unanswered`` the
    rest of the plan, ``coverage`` the exactly answered share, and
    ``complete_hit`` — every chunk answered from the cache, with nothing
    fetched, estimated or left unanswered.
    """
    by_number = {estimate.number: estimate for estimate in estimates}
    chunks = [cells[n] for n in numbers if n in cells]
    return QueryResult(
        query=query,
        chunks=chunks,
        complete_hit=(
            not counters.get("from_backend") and len(chunks) == len(numbers)
        ),
        breakdown=breakdown,
        degraded=degraded,
        coverage=len(chunks) / len(numbers) if numbers else 1.0,
        unanswered=tuple(
            n for n in numbers if n not in cells and n not in by_number
        ),
        contract=contract.mode if contract is not None else "exact",
        estimated=tuple(by_number[n] for n in numbers if n in by_number),
        **counters,
    )


def estimate_chunks(
    answerer: ApproxAnswerer,
    level: Level,
    numbers: list[int],
    contract: QueryContract,
) -> tuple[list[CellEstimate], list[int]]:
    """Estimate the given chunks from the sample, splitting them into
    (accepted estimates, numbers whose estimate the contract's
    ``max_rel_error`` rejects)."""
    estimates = answerer.estimate(level, numbers)
    tolerance = contract.max_rel_error
    if tolerance is None:
        return estimates, []
    kept: list[CellEstimate] = []
    rejected: list[int] = []
    for number, estimate in zip(numbers, estimates):
        if estimate.rel_error <= tolerance:
            kept.append(estimate)
        else:
            rejected.append(number)
    return kept, rejected


@dataclass
class _PlanExecution:
    chunk: Chunk
    leaf_keys: set[Key] = field(default_factory=set)
    tuples_aggregated: int = 0
    direct: bool = False
    """A leaf plan: the chunk was read straight from the cache."""


@dataclass
class _QueryState:
    """What one query's phases have answered and charged so far."""

    cells: dict[int, Chunk] = field(default_factory=dict)
    computed: list[Chunk] = field(default_factory=list)
    reinforcements: list[tuple[set[Key], float]] = field(
        default_factory=list
    )
    direct_hits: int = 0
    tuples_aggregated: int = 0
    visits: int = 0


class _SequentialPolicy:
    """The lock and single-flight policy of a bare manager: none at all.

    :meth:`AggregateCache._answer` runs its phases through a policy:
    ``_read``/``_write`` give the phase holds, ``_find`` one strategy
    lookup with its visit count, ``_fetch`` resolves backend misses,
    ``_retire`` releases (or, on an error, abandons) the single-flight
    claims a query led, and a plan a racing writer invalidated is
    re-planned at most ``max_replans`` times, each counted by
    ``_count_replan``.  Here no lock is taken, misses go straight to
    ``backend.fetch`` and nothing can race, so the re-plan budget is 0;
    :class:`~repro.service.ConcurrentAggregateCache` is the concurrent
    policy.  A query builds its own: kept on the manager, the policy
    would close a reference cycle that holds a dropped manager's cache
    and backend until the cyclic collector runs.
    """

    max_replans = 0
    _NO_HOLD = nullcontext()

    def __init__(self, manager: "AggregateCache") -> None:
        self.manager = manager

    def _read(self):
        return self._NO_HOLD

    _write = _read

    def _find(self, level: Level, number: int) -> tuple[PlanNode | None, int]:
        strategy = self.manager.strategy
        plan = strategy.find(level, number)
        return plan, strategy.last_find_visits

    def _fetch(
        self,
        level: Level,
        missing: list[int],
        led: list[Key],
        degrade_ok: bool,
    ) -> tuple[list[Chunk], list[Chunk], float | None]:
        """``(chunks to admit, chunks shared from other queries'
        fetches, simulated ms to charge or None)``; a typed fault leaves
        every chunk unresolved when the contract may degrade."""
        try:
            fetched, stats = self.manager.backend.fetch(
                [(level, n) for n in missing]
            )
        except FaultError:
            if not degrade_ok:
                raise
            return [], [], None
        return fetched, [], stats.total_ms

    def _retire(
        self, led: list[Key], error: BaseException | None = None
    ) -> None:
        pass


@dataclass(frozen=True)
class RefreshOutcome:
    """What one warehouse refresh did to the backend and the cache."""

    affected: tuple[int, ...]
    """Base chunk numbers the append changed."""
    mode: str
    """``delta`` (in-place patch wave), ``refetch`` (in-place backend
    refetch of affected residents) or ``evict`` (legacy invalidation)."""
    patched: int = 0
    """Resident chunks patched in place by the delta roll-up wave."""
    refetched: int = 0
    """Resident chunks refreshed in place from the backend."""
    evicted: int = 0
    """Chunks evicted — every overlapping resident in ``evict`` mode,
    only capacity-overflow victims in the in-place modes."""
    generation: int = 0
    """The backend's refresh generation after the append."""
    tuples_added: int = 0
    """Net growth of the backend's distinct base-cell count."""


class AggregateCache:
    """An active chunk cache in front of a backend database.

    Parameters
    ----------
    schema, backend:
        The cube and the backend serving its fact table.
    capacity_bytes:
        Cache budget.
    strategy:
        Lookup strategy name (``esm``/``esmc``/``vcm``/``vcmc``/``noagg``)
        or a ready instance.
    policy:
        Replacement policy name (``benefit``/``two_level``) or instance.
    preload:
        Seed the cache with the best-fitting group-by (two-level rule 3).
    preload_headroom:
        Fraction of the capacity the pre-loaded group-by may occupy;
        below 1.0 leaves room for query-driven chunks before churn starts
        evicting the pre-loaded group.
    visit_budget:
        Optional per-lookup visit cap for the exhaustive strategies.
    cost_rel_tol:
        VCMC only: relative cost changes below this threshold are not
        propagated through the cost store, bounding maintenance work
        under churn at the price of slightly stale (never wrong-
        computability) cost estimates.  Set 0.0 for exact maintenance.
    use_cost_optimizer:
        The paper's Section 5.2 application of VCMC's maintained costs:
        when a chunk *is* computable from the cache but the estimated
        aggregation cost exceeds the estimated backend cost, send it to
        the backend anyway.  Off by default (matching the paper's
        experiments, which always aggregate when possible).
    plan_cache:
        Attach a generation-stamped :class:`~repro.core.plans.PlanCache`
        to the strategy (on by default): repeated lookups over lattice
        regions with no intervening relevant cache movement reuse their
        memoised plan/verdict instead of re-walking the lattice.  Plans
        stay exactly as correct as fresh ones — any insert or evict in a
        chunk region that could affect a memoised answer invalidates it.
        Pass a ready :class:`PlanCache` instance to control its region
        granularity (``max_regions_per_level=1`` reproduces the legacy
        per-level invalidation).
    degraded_mode:
        When the backend phase fails with a typed fault
        (:class:`~repro.faults.errors.FaultError` — transient errors,
        timeouts, corrupt payloads, an open circuit breaker), answer the
        query from the cache alone instead of raising: chunks the
        strategy can still compute are aggregated (exact answers), the
        rest are reported in :attr:`QueryResult.unanswered` with
        ``degraded=True`` and ``coverage < 1``.  Off by default — the
        pre-existing raise-through behaviour is unchanged unless opted
        in.  Pair with :class:`~repro.backend.ResilientBackend` so only
        post-retry failures degrade.
    approx:
        Enable the approximate answering tier (see :mod:`repro.approx`
        and ``docs/approx.md``): ``True`` maintains a reservoir sample
        at the default fraction, a float sets the fraction, a ready
        :class:`~repro.approx.answering.ApproxAnswerer` is used as-is.
        With it attached, ``query(..., contract=approx(...))`` fills
        backend misses (``prefer_sample``) or fault-unanswered chunks
        with Horvitz–Thompson estimates carrying 95% CIs.  The sample
        follows appends through :meth:`refresh_from_backend`.  ``None``
        (default) disables estimation; non-approx queries are
        bit-identical either way.
    approx_seed:
        Seed of the reservoir when ``approx`` asks this manager to
        build one (ignored for a ready answerer).
    cache_values:
        Where cached chunk payloads live (see :mod:`repro.cache.values`):
        ``None``/``"dict"`` keeps them on the Python heap (the default,
        unchanged behaviour), ``"shm"`` stores them in shared-memory
        segments and ``"spill"`` in per-chunk disk files the OS can page
        out.  A ready :class:`~repro.cache.values.CacheValueBackend`
        instance is accepted too.  Answers are identical across
        backends; only the payloads' residence changes.
    obs:
        An :class:`~repro.obs.Observability` handle, shared with the
        chunk store, the replacement policy and the lookup strategy.
        Defaults to the disabled no-op instance.
    """

    def __init__(
        self,
        schema: CubeSchema,
        backend: BackendDatabase,
        capacity_bytes: int,
        strategy: str | LookupStrategy = "vcmc",
        policy: str | ReplacementPolicy = "two_level",
        preload: bool = True,
        preload_headroom: float = 1.0,
        visit_budget: int | None = None,
        sizes: SizeEstimator | None = None,
        cost_rel_tol: float = 0.02,
        use_cost_optimizer: bool = False,
        keep_log: bool = False,
        plan_cache: bool | PlanCache = True,
        degraded_mode: bool = False,
        approx: "bool | float | ApproxAnswerer | None" = None,
        approx_seed: int = 7,
        cache_values: "str | CacheValueBackend | None" = None,
        obs: Observability | None = None,
    ) -> None:
        self.schema = schema
        self.backend = backend
        self.cost_model = backend.cost_model
        self.sizes = sizes or SizeEstimator(schema, backend.num_tuples)
        self.obs = obs or NULL_OBS
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.cache = ChunkCache(
            capacity_bytes,
            policy,
            schema.bytes_per_tuple,
            obs=self.obs,
            values=make_value_backend(cache_values),
        )
        if isinstance(strategy, str):
            strategy = make_strategy(
                strategy,
                schema,
                self.cache,
                self.sizes,
                visit_budget,
                cost_rel_tol=cost_rel_tol,
            )
        self.strategy = strategy
        self.strategy.obs = self.obs
        self.plan_cache: PlanCache | None = self.strategy.plan_cache
        if isinstance(plan_cache, PlanCache):
            self.plan_cache = plan_cache
            self.strategy.plan_cache = plan_cache
        elif plan_cache and self.plan_cache is None:
            self.plan_cache = PlanCache(schema)
            self.strategy.plan_cache = self.plan_cache
        self.use_cost_optimizer = use_cost_optimizer
        self.optimizer_redirects = 0
        """Chunks sent to the backend despite being cache-computable."""
        self.degraded_mode = degraded_mode
        self.degraded_queries = 0
        """Queries answered (fully or partially) without the backend
        after a backend fault (``degraded_mode`` only)."""
        self.approx: ApproxAnswerer | None = make_answerer(
            approx, schema, backend, seed=approx_seed
        )
        self.approx_queries = 0
        """Queries that returned at least one sample estimate."""
        self.keep_log = keep_log
        self.query_log: list[QueryLogRecord] = []
        """Structured per-query records when ``keep_log`` is set."""
        self.queries_run = 0
        self.complete_hits = 0
        self.preloaded_level: Level | None = None
        if preload:
            self.preloaded_level = self.preload(headroom=preload_headroom)

    # ------------------------------------------------------------------ #
    # pre-loading

    def preload(self, headroom: float = 1.0) -> Level | None:
        """Seed the cache with the group-by that fits and has the most
        lattice descendants.  Returns the chosen level (or None)."""
        level = choose_preload_level(
            self.schema, self.sizes, self.cache.capacity_bytes, headroom=headroom
        )
        if level is not None:
            self.preload_levels([level])
        return level

    def preload_levels(self, levels: list[Level]) -> list[Level]:
        """Pre-load several whole group-bys (e.g. an HRU-selected view
        set); returns the levels whose chunks were all admitted.

        Completeness is judged only after *every* chunk is in: an insert
        later in the sequence may evict an earlier chunk of the same (or
        an earlier) level, so a per-chunk membership check taken mid-loop
        can report a level complete that no longer is.
        """
        numbers_of: dict[Level, list[int]] = {}
        for level in levels:
            numbers = numbers_of.setdefault(level, [])
            for chunk in self.backend.compute_level(level):
                chunk.origin = ChunkOrigin.PRELOAD
                self._insert(chunk, benefit=chunk.compute_cost)
                numbers.append(chunk.number)
        loaded = [
            level
            for level, numbers in numbers_of.items()
            if all(self.cache.contains(level, n) for n in numbers)
        ]
        if loaded and self.preloaded_level is None:
            self.preloaded_level = loaded[0]
        return loaded

    # ------------------------------------------------------------------ #
    # the query path

    def query(
        self, query: Query, contract: QueryContract | None = None
    ) -> QueryResult:
        """Answer one query, returning its chunks and full accounting.

        ``contract`` selects the per-query answering tier (see
        :mod:`repro.approx.contract`): ``None`` keeps the legacy
        behaviour — ``degraded_mode`` decides between raise-through and
        exact-partial answers — while an explicit contract overrides
        the flag for this query, and an ``approx`` contract additionally
        estimates what cannot be answered exactly (requires ``approx=``
        at construction).
        """
        return self._answer(
            query, query.chunk_numbers(self.schema), contract,
            _SequentialPolicy(self),
        )

    def _answer(
        self,
        query: Query,
        numbers: Sequence[int],
        contract: QueryContract | None,
        policy,
    ) -> QueryResult:
        """The query pipeline: answer the chunk numbers ``numbers`` of
        ``query`` in the paper's four phases, under ``policy``'s phase
        holds and single-flight fetches (see :class:`_SequentialPolicy`).
        """
        level = query.level
        effective = resolve_contract(contract, self.degraded_mode)
        approx_mode = effective.wants_estimates and self.approx is not None
        breakdown = TimeBreakdown()
        state = _QueryState()
        obs = self.obs

        # Phase 1 — cache lookup: plan every chunk or leave it missing.
        redirects = 0
        with policy._read(), span(obs, "lookup") as lookup_span:
            plans = self._plan(level, numbers, policy, state)
            if self.use_cost_optimizer:
                for number, plan in list(plans.items()):
                    if not plan.is_leaf and self._backend_is_cheaper(
                        level, number, plan
                    ):
                        del plans[number]
                        redirects += 1
        breakdown.lookup_ms = lookup_span.elapsed_ms

        # Phase 2 — aggregate every computable chunk inside the cache, in
        # a fresh hold: all plans execute in one batched forest pass.
        with policy._read(), span(obs, "aggregate") as aggregate_span:
            self._aggregate(plans, policy, state)
        breakdown.aggregate_ms = aggregate_span.elapsed_ms

        # Phases 3 and 4 run under a flight guard: once this query has
        # claimed single-flight leaderships, ANY exception on the way to
        # the normal release must abandon them — failing unpublished
        # flights (waking waiters with the error) and retiring published
        # ones (whose chunks were never admitted).
        led: list[Key] = []
        try:
            # Phase 3 — one batched backend request for everything
            # missing.  The phase's charge is the cost model's simulated
            # milliseconds, not local wall-clock.  When the contract may
            # degrade, a typed backend fault does not abort the query:
            # the unresolved chunks are re-planned cache-only (exact
            # answers where the lattice still covers them), and the rest
            # are estimated or reported unanswered.
            missing = [n for n in numbers if n not in state.cells]
            estimated: list[CellEstimate] = []
            fetched: list[Chunk] = []
            shared: list[Chunk] = []
            degraded = False
            if missing and approx_mode and effective.prefer_sample:
                # The latency dial: estimate backend misses instead of
                # fetching them.  Chunks whose estimate is wider than
                # max_rel_error still go to the backend.
                estimated, missing = estimate_chunks(
                    self.approx, level, missing, effective
                )
            if missing:
                with span(
                    obs, "backend", chunks=len(missing)
                ) as backend_span:
                    fetched, shared, charge_ms = policy._fetch(
                        level, missing, led, effective.degrade_ok
                    )
                    if charge_ms is not None:
                        backend_span.record(charge_ms)
                breakdown.backend_ms = backend_span.elapsed_ms
                for chunk in itertools.chain(fetched, shared):
                    state.cells[chunk.number] = chunk
                failed = [n for n in missing if n not in state.cells]
                if failed:
                    degraded = True
                    with policy._read(), span(
                        obs, "aggregate"
                    ) as salvage_span:
                        self._aggregate(
                            self._plan(level, failed, policy, state),
                            policy,
                            state,
                        )
                    breakdown.aggregate_ms += salvage_span.elapsed_ms
                    leftovers = [n for n in failed if n not in state.cells]
                    if approx_mode and leftovers:
                        estimated.extend(
                            estimate_chunks(
                                self.approx, level, leftovers, effective
                            )[0]
                        )

            # Phase 4 — admit new chunks and maintain count/cost state.
            # Reinforcement is applied BEFORE the admissions: an insert
            # can evict the very leaves that were just aggregated, and
            # reinforcing first both protects the group during the victim
            # sweep and never silently drops a reinforcement for an
            # already-evicted leaf.  The flights this query led retire
            # only after its admissions settle, so late missers of the
            # same chunks share the fetch instead of repeating it.
            with policy._write():
                with span(obs, "update") as update_span:
                    skipped = 0
                    for leaf_keys, benefit in state.reinforcements:
                        skipped += self.cache.reinforce(leaf_keys, benefit)[1]
                    state_updates = self._admit_wave(state.computed + fetched)
                breakdown.update_ms = update_span.elapsed_ms
                policy._retire(led)
                led.clear()
                result = assemble_result(
                    query,
                    numbers,
                    state.cells,
                    estimated,
                    breakdown,
                    contract,
                    degraded,
                    direct_hits=state.direct_hits,
                    aggregated=len(state.computed),
                    from_backend=len(fetched) + len(shared),
                    tuples_aggregated=state.tuples_aggregated,
                    lookup_visits=state.visits,
                    state_updates=state_updates,
                    reinforcements_skipped=skipped,
                )
                self.optimizer_redirects += redirects
                self.queries_run += 1
                self.complete_hits += result.complete_hit
                self.degraded_queries += degraded
                self.approx_queries += bool(result.estimated)
                if obs.enabled:
                    self._emit_query_event(result)
                if self.keep_log:
                    self.query_log.append(
                        QueryLogRecord.from_result(self, result)
                    )
        except BaseException as exc:
            if led:
                policy._retire(led, exc)
            raise
        return result

    def _plan(
        self,
        level: Level,
        numbers: Iterable[int],
        policy,
        state: _QueryState,
    ) -> dict[int, PlanNode]:
        """One strategy lookup per chunk; the computable ones' plans."""
        plans: dict[int, PlanNode] = {}
        for number in numbers:
            plan, visits = policy._find(level, number)
            state.visits += visits
            if plan is not None:
                plans[number] = plan
        return plans

    def _aggregate(
        self, plans: dict[int, PlanNode], policy, state: _QueryState
    ) -> None:
        """Execute ``plans`` in one batch and fold the answers into
        ``state``; a chunk whose plan a racing eviction invalidated past
        the re-plan budget stays missing."""
        executions, visits = self._execute_plans_batched(
            list(plans.values()), policy
        )
        state.visits += visits
        for number, execution in zip(plans, executions):
            if execution is None:
                continue
            chunk = execution.chunk
            state.cells[number] = chunk
            if execution.direct:
                state.direct_hits += 1
                continue
            chunk.compute_cost = self.cost_model.aggregation_ms(
                execution.tuples_aggregated
            )
            state.computed.append(chunk)
            state.tuples_aggregated += execution.tuples_aggregated
            state.reinforcements.append(
                (execution.leaf_keys, chunk.compute_cost)
            )

    def _emit_query_event(self, result: QueryResult) -> None:
        """Record one query's accounting into the observability layer."""
        obs = self.obs
        b = result.breakdown
        obs.metrics.counter("query.count").inc()
        if result.complete_hit:
            obs.metrics.counter("query.complete_hits").inc()
        obs.metrics.counter("query.tuples_aggregated").inc(
            result.tuples_aggregated
        )
        obs.metrics.histogram("query.total_ms").observe(b.total_ms)
        obs.metrics.histogram("query.lookup_visits").observe(
            result.lookup_visits
        )
        obs.metrics.gauge("cache.used_bytes").set(self.cache.used_bytes)
        # Degraded/approx *counters* only move on degraded/approx
        # queries, so a fault-free exact run's metrics are bit-identical
        # to a build without those paths at all.  The event's coverage,
        # unanswered and estimated fields, by contrast, are populated on
        # EVERY query (1.0 / [] / 0 on exact answers) — consumers need
        # no branch, and the fault-free streams still compare equal
        # because both sides carry the same uniform fields.
        degraded_fields = {}
        if result.degraded:
            obs.metrics.counter("backend.degraded_queries").inc()
            obs.metrics.counter("backend.degraded_answers").inc(
                len(result.chunks)
            )
            obs.metrics.counter("backend.unanswered_chunks").inc(
                len(result.unanswered)
            )
            degraded_fields = dict(degraded=True)
        if result.estimated:
            obs.metrics.counter("approx.queries").inc()
            obs.metrics.counter("approx.estimated_chunks").inc(
                len(result.estimated)
            )
        obs.tracer.emit(
            "query",
            coverage=result.coverage,
            unanswered=list(result.unanswered),
            estimated=len(result.estimated),
            query_seq=self.queries_run,
            level=list(result.query.level),
            chunks=result.query.num_chunks,
            complete_hit=result.complete_hit,
            direct_hits=result.direct_hits,
            aggregated=result.aggregated,
            from_backend=result.from_backend,
            lookup_ms=b.lookup_ms,
            aggregate_ms=b.aggregate_ms,
            update_ms=b.update_ms,
            backend_ms=b.backend_ms,
            tuples_aggregated=result.tuples_aggregated,
            lookup_visits=result.lookup_visits,
            state_updates=result.state_updates,
            reinforcements_skipped=result.reinforcements_skipped,
            cache_used_bytes=self.cache.used_bytes,
            **degraded_fields,
        )

    def invalidate_base_chunks(self, numbers: list[int]) -> int:
        """Evict every cached chunk whose data overlaps the given base
        chunks (warehouse refresh).  Count/cost state is maintained
        through the ordinary eviction path, so Property 1 keeps holding.
        Returns the number of chunks evicted."""
        affected = set(numbers)
        base = self.schema.base_level
        victims: list[Key] = []
        for level, number in list(self.cache.resident_keys()):
            covering = self.schema.get_parent_chunk_numbers(
                level, number, base
            )
            if any(int(n) in affected for n in covering):
                victims.append((level, number))
        if victims:
            self.cache.evict_many(victims)
            self.strategy.on_evict_many(victims)
        return len(victims)

    def refresh_from_backend(self, facts, mode: str = "delta") -> RefreshOutcome:
        """Load new facts into the backend and reconcile the cache in one
        step.

        ``mode="delta"`` (the default) runs the incremental patch wave:
        the appended batch is clustered into base-chunk deltas and rolled
        up the lattice — every resident chunk whose data overlaps an
        affected base chunk is patched *in place* by merging its delta
        roll-up into the cached payload, preserving residency (and pins,
        CLOCK positions, benefits).  This is exact for the additive
        aggregates the cube stores (SUM in ``values``/``extras``, COUNT
        in ``counts``; AVG derives from them) — see ``docs/updates.md``
        for the exactness argument.

        ``mode="refetch"`` patches the same resident set by refetching
        the affected chunks from the backend instead of merging deltas —
        the fallback for non-additive aggregates (MIN/MAX), exact for
        *any* aggregate at the price of backend scans over only the
        affected chunks.

        ``mode="evict"`` is the legacy read-only-era behaviour: evict
        every overlapping resident chunk and let queries refetch.

        All modes keep Count/Cost state exact: the in-place modes leave
        residency untouched except for capacity-overflow victims, which
        (like ``evict``'s wave) go through the ordinary eviction
        cascades.  The size estimator is recalibrated incrementally from
        the batch and the cost store's size-derived surface is rebuilt,
        so cost/benefit decisions track the grown warehouse.
        """
        if mode not in ("delta", "refetch", "evict"):
            raise ReproError(
                f"unknown refresh mode {mode!r}; "
                "choose 'delta', 'refetch' or 'evict'"
            )
        append = self.backend.apply_append(facts)
        if self.approx is not None:
            # The reservoir sees every appended record, so estimates
            # keep tracking the grown warehouse (HT over the extended
            # record stream — see docs/approx.md).
            self.approx.observe_append(facts)
        patched = refetched = evicted = 0
        if mode == "delta":
            patched, evicted = self._patch_wave(append.deltas)
        elif mode == "refetch":
            refetched, evicted = self._refetch_affected(append.affected)
        else:
            evicted = self.invalidate_base_chunks(append.affected)
        self.sizes.observe_append(facts, self.backend.num_tuples)
        costs = getattr(self.strategy, "costs", None)
        if costs is not None:
            costs.recalibrate(self.cache.resident_keys())
        outcome = RefreshOutcome(
            affected=tuple(append.affected),
            mode=mode,
            patched=patched,
            refetched=refetched,
            evicted=evicted,
            generation=append.generation,
            tuples_added=append.tuples_added,
        )
        if self.obs.enabled:
            self.obs.metrics.counter("refresh.count").inc()
            self.obs.metrics.counter("refresh.patched").inc(patched)
            self.obs.metrics.counter("refresh.refetched").inc(refetched)
            self.obs.metrics.counter("refresh.evicted").inc(evicted)
            self.obs.tracer.emit(
                "refresh",
                mode=mode,
                affected=len(append.affected),
                patched=patched,
                refetched=refetched,
                evicted=evicted,
                generation=append.generation,
            )
        return outcome

    def _overlapping_residents(
        self, affected: set[int]
    ) -> dict[Level, list[tuple[int, list[int]]]]:
        """Resident chunks whose data overlaps the affected base chunks,
        grouped by level: ``{level: [(number, overlapping base numbers)]}``
        in resident-set order (deterministic under sequential use)."""
        base = self.schema.base_level
        by_level: dict[Level, list[tuple[int, list[int]]]] = {}
        for level, number in self.cache.resident_keys():
            covering = self.schema.get_parent_chunk_numbers(
                level, number, base
            )
            overlap = [int(n) for n in covering if int(n) in affected]
            if overlap:
                by_level.setdefault(level, []).append((number, overlap))
        return by_level

    def _patch_wave(self, deltas: dict[int, Chunk]) -> tuple[int, int]:
        """Roll the append's base-chunk deltas up to every overlapping
        resident chunk and merge them into the cached payloads in place.

        Two batched kernel passes per touched level: one
        :func:`rollup_many` aggregates each target's deltas up to its
        level, a second same-level pass merges ``[resident, delta]``
        additively (the same merge the backend applies to its own base
        chunks).  Residency, pins and replacement metadata are preserved
        — only capacity overflow (patches grow chunks) evicts, through
        the ordinary eviction cascade.  Returns ``(patched, evicted)``.
        """
        by_level = self._overlapping_residents(set(deltas))
        if not by_level:
            return 0, 0
        replacements: list[tuple[Key, Chunk]] = []
        for level in sorted(by_level, key=self.schema.level_index):
            targets = by_level[level]
            numbers = [number for number, _ in targets]
            delta_chunks = rollup_many(
                self.schema,
                level,
                numbers,
                [
                    [deltas[n] for n in overlap]
                    for _, overlap in targets
                ],
                origin=ChunkOrigin.CACHE_COMPUTED,
                obs=self.obs,
            )
            olds = [self.cache.peek(level, number) for number in numbers]
            merged = rollup_many(
                self.schema,
                level,
                numbers,
                [[old, delta] for old, delta in zip(olds, delta_chunks)],
                origin=ChunkOrigin.CACHE_COMPUTED,
                obs=self.obs,
            )
            for old, chunk in zip(olds, merged):
                # The patched chunk is the same cache citizen: keep its
                # origin class and recorded reproduction cost.
                chunk.origin = old.origin
                chunk.compute_cost = old.compute_cost
            replacements.extend(
                ((level, number), chunk)
                for number, chunk in zip(numbers, merged)
            )
        evicted_chunks = self.cache.replace_many(replacements)
        if evicted_chunks:
            self.strategy.on_evict_many(
                [chunk.key for chunk in evicted_chunks]
            )
        if self.plan_cache is not None:
            # Contents changed in exactly these regions; memos elsewhere
            # stay valid — no global invalidation storm.
            self.plan_cache.bump([key for key, _ in replacements])
        return len(replacements), len(evicted_chunks)

    def _refetch_affected(self, affected: list[int]) -> tuple[int, int]:
        """The non-additive fallback: replace every overlapping resident
        chunk's payload with a fresh backend computation, in one batched
        fetch.  Exact for any aggregate function; residency and pins are
        preserved exactly as in the delta wave.  Returns
        ``(refetched, evicted)``."""
        by_level = self._overlapping_residents(set(affected))
        keys: list[Key] = [
            (level, number)
            for level, targets in by_level.items()
            for number, _ in targets
        ]
        if not keys:
            return 0, 0
        fetched, _stats = self.backend.fetch(keys)
        replacements: list[tuple[Key, Chunk]] = []
        for key, chunk in zip(keys, fetched):
            old = self.cache.peek(*key)
            chunk.origin = old.origin
            chunk.compute_cost = old.compute_cost
            replacements.append((key, chunk))
        evicted_chunks = self.cache.replace_many(replacements)
        if evicted_chunks:
            self.strategy.on_evict_many(
                [chunk.key for chunk in evicted_chunks]
            )
        if self.plan_cache is not None:
            self.plan_cache.bump(keys)
        return len(keys), len(evicted_chunks)

    def range_query(
        self,
        level: Level,
        cell_ranges: tuple[tuple[int, int], ...],
    ) -> QueryResult:
        """Answer an arbitrary (non-chunk-aligned) rectangular selection.

        The chunk-based scheme's contract (DRSN98): fetch the covering
        chunks — which is where all the caching machinery applies — then
        slice the result cells down to the requested ordinal ranges.  The
        returned chunks contain only in-range cells; cached chunks are
        not modified.

        The sliced chunks go into a *copy* of the inner ``query()``
        result: by the time slicing happens, that result has already been
        appended to the query log and described by the obs ``query``
        event, and both deliberately describe the covering-chunk fetch
        (``num_chunks``, ``tuples_aggregated`` and the cache accounting
        all concern the chunk-aligned work the cache actually did, not
        the residual cell filter).  Mutating the logged object in place
        would silently de-sync it from those records.
        """
        query = Query.from_cell_ranges(self.schema, level, cell_ranges)
        result = self.query(query)
        sliced = [
            _slice_chunk(chunk, cell_ranges) for chunk in result.chunks
        ]
        return replace(result, chunks=sliced)

    def query_spec(self, spec) -> QueryResult:
        """Answer a user-shaped :class:`~repro.adaptive.canonical.QuerySpec`
        through the canonicalization layer: equivalent shapes (commuted
        group-by dimensions, contained ranges, AVG as SUM/COUNT) collapse
        onto one canonical chunk-aligned query, so they share plan-cache
        and single-flight keys."""
        from repro.adaptive.canonical import canonicalize

        return self.query(canonicalize(self.schema, spec).to_query())

    # ------------------------------------------------------------------ #
    # internals

    def _backend_is_cheaper(
        self, level: Level, number: int, plan: PlanNode
    ) -> bool:
        """The Section 5.2 cost gate: estimated aggregation vs backend ms.

        With VCMC the aggregation cost is the maintained ``Cost`` entry —
        an O(1) read; other strategies fall back to walking the plan.
        """
        costs = getattr(self.strategy, "costs", None)
        if costs is not None:
            agg_tuples = costs.cost(level, number)
        else:
            agg_tuples = plan.estimated_cost(self.sizes)
        agg_ms = self.cost_model.aggregation_ms(agg_tuples)
        scan = sum(
            self.sizes.chunk_tuples(self.schema.base_level, int(n))
            for n in self.schema.get_parent_chunk_numbers(
                level, number, self.schema.base_level
            )
        )
        returned = self.sizes.chunk_tuples(level, number)
        backend_ms = self.cost_model.backend_chunk_ms(scan, returned)
        return agg_ms > backend_ms

    def _execute_plans_batched(
        self, plans: Sequence[PlanNode], policy=None
    ) -> tuple[list[_PlanExecution | None], int]:
        """Materialise many plans with one kernel pass per lattice hop.

        Every plan's leaves are first checked against the cache.  A plan
        with a leaf that is no longer resident — a racing writer evicted
        it between the query's lookup and aggregate holds — is re-planned
        through ``policy``, at most ``policy.max_replans`` times, and
        dropped (``None``: its chunk falls back to the backend) when the
        budget is spent or the chunk is no longer computable; the other
        plans are left alone.  The combined forest of the surviving plans
        is then walked bottom-up in waves; every wave groups its nodes by
        (target level, source level) and executes each group as a single
        :func:`rollup_many` call.  A leaf plan is a direct read.  Per-plan
        results — chunk payloads, leaf keys and the per-hop tuple
        accounting — are identical (bit for bit) to executing each plan
        in a batch of its own: within a target, source rows keep their
        plan order.  Returns one execution per plan and the lattice
        visits the re-plans made.
        """
        policy = policy or _SequentialPolicy(self)
        plans = list(plans)
        leaves: dict[Key, Chunk] = {}

        def resident(plan: PlanNode) -> bool:
            for leaf in plan.leaves():
                key = (leaf.level, leaf.number)
                if key not in leaves:
                    chunk = self.cache.peek(*key)
                    if chunk is None:
                        return False
                    leaves[key] = chunk
            return True

        visits = 0
        for attempt in itertools.count():
            stale = [
                i
                for i, plan in enumerate(plans)
                if plan is not None and not resident(plan)
            ]
            if not stale:
                break
            for i in stale:
                if attempt >= policy.max_replans:
                    plans[i] = None
                    continue
                policy._count_replan()
                plans[i], found = policy._find(
                    plans[i].level, plans[i].number
                )
                visits += found

        inner: list[PlanNode] = []
        seen: set[PlanNode] = set()

        def collect(node: PlanNode) -> None:
            if node in seen:
                return
            seen.add(node)
            for child in node.inputs:
                collect(child)
            if not node.is_leaf:
                inner.append(node)  # post-order: children first

        for plan in plans:
            if plan is not None:
                collect(plan)

        materialised: dict[PlanNode, Chunk] = {}

        def resolve(node: PlanNode) -> Chunk:
            if node.is_leaf:
                return leaves[(node.level, node.number)]
            return materialised[node]

        # Wave k holds the nodes whose deepest inner descendant is k hops
        # away; post-order makes the depth computable in one sweep.
        depth: dict[PlanNode, int] = {}
        waves: dict[int, list[PlanNode]] = {}
        for node in inner:
            d = max(
                (depth[c] + 1 for c in node.inputs if not c.is_leaf),
                default=0,
            )
            depth[node] = d
            waves.setdefault(d, []).append(node)
        for d in sorted(waves):
            groups: dict[tuple[Level, Level], list[PlanNode]] = {}
            for node in waves[d]:
                assert node.source_level is not None
                groups.setdefault((node.level, node.source_level), []).append(
                    node
                )
            for (level, _), nodes in groups.items():
                chunks = rollup_many(
                    self.schema,
                    level,
                    [node.number for node in nodes],
                    [[resolve(c) for c in node.inputs] for node in nodes],
                    origin=ChunkOrigin.CACHE_COMPUTED,
                    obs=self.obs,
                )
                materialised.update(zip(nodes, chunks))

        executions: list[_PlanExecution | None] = []
        for plan in plans:
            if plan is None:
                executions.append(None)
                continue
            if plan.is_leaf:
                executions.append(
                    _PlanExecution(
                        chunk=self.cache.get(plan.level, plan.number),
                        direct=True,
                    )
                )
                continue
            leaf_keys: set[Key] = set()
            tuples = 0
            for node in plan.iter_nodes():
                if node.is_leaf:
                    leaf_keys.add((node.level, node.number))
                else:
                    tuples += sum(
                        resolve(c).size_tuples for c in node.inputs
                    )
            executions.append(
                _PlanExecution(
                    chunk=materialised[plan],
                    leaf_keys=leaf_keys,
                    tuples_aggregated=tuples,
                )
            )
        return executions, visits

    def _admit_wave(self, chunks: list[Chunk]) -> int:
        """Admit an aggregation/fetch wave: one batched cache admission,
        then one batched count/cost cascade per movement direction.

        The strategy sees the wave's NET movements: a chunk admitted and
        then displaced by a later admission of the same wave never
        existed as far as the summary state is concerned, and keys are
        cascaded evictions-first so the final state is exactly the state
        of the final resident set (the same fixpoint the per-chunk loop
        reaches, without N scalar cascades).

        Netting works off each key's ORDERED event sequence, not set
        membership: within one wave a key sees at most one insertion
        (wave keys are unique; re-offering a resident chunk is a refresh,
        not an event) but may be evicted, re-admitted by its own wave
        item, and evicted again — the ``[evict, insert, evict]`` pattern,
        reachable when a racing query admitted the chunk between this
        query's planning and its admission.  Set-based netting cancels
        that key out of both lists and strands its count/cost state; the
        first and last events give the true start/end residency.
        """
        if not chunks:
            return 0
        outcomes = self.cache.insert_many(
            [(chunk, chunk.compute_cost) for chunk in chunks]
        )
        # Per-key event streams in processing order; an item's victims
        # are evicted before the item itself lands.
        events: dict[Key, list[bool]] = {}
        order: list[Key] = []
        for chunk, outcome in zip(chunks, outcomes):
            for victim in outcome.evicted:
                events.setdefault(victim.key, []).append(False)
                order.append(victim.key)
            if outcome.inserted:
                events.setdefault(chunk.key, []).append(True)
                order.append(chunk.key)
        seen: set[Key] = set()
        net_inserted: list[Key] = []
        net_evicted: list[Key] = []
        for key in order:
            if key in seen:
                continue
            seen.add(key)
            stream = events[key]
            was_resident = not stream[0]  # first event an evict => was in
            is_resident = stream[-1]  # last event an insert => still in
            if is_resident and not was_resident:
                net_inserted.append(key)
            elif was_resident and not is_resident:
                net_evicted.append(key)
        updates = 0
        if net_evicted:
            updates += self.strategy.on_evict_many(net_evicted)
        if net_inserted:
            updates += self.strategy.on_insert_many(net_inserted)
        if updates and self.obs.enabled:
            self.obs.metrics.counter("strategy.state_updates").inc(updates)
            self.obs.tracer.emit(
                "strategy.update_wave",
                chunks=len(chunks),
                inserted=len(net_inserted),
                evictions=len(net_evicted),
                updates=updates,
            )
        return updates

    def _insert(self, chunk: Chunk, benefit: float) -> int:
        """Admit a chunk, keeping the strategy's summary state in sync."""
        outcome = self.cache.insert(chunk, benefit)
        updates = 0
        for evicted in outcome.evicted:
            updates += self.strategy.on_evict(evicted.level, evicted.number)
        if outcome.inserted:
            updates += self.strategy.on_insert(chunk.level, chunk.number)
        if updates and self.obs.enabled:
            self.obs.metrics.counter("strategy.state_updates").inc(updates)
            self.obs.tracer.emit(
                "strategy.update",
                level=list(chunk.level),
                number=chunk.number,
                updates=updates,
                evictions=len(outcome.evicted),
            )
        return updates

    # ------------------------------------------------------------------ #
    # introspection

    @property
    def complete_hit_ratio(self) -> float:
        return self.complete_hits / self.queries_run if self.queries_run else 0.0

    def describe(self) -> str:
        return (
            f"AggregateCache(strategy={self.strategy.name}, "
            f"policy={self.cache.policy.name}, "
            f"capacity={self.cache.capacity_bytes}B, "
            f"used={self.cache.used_bytes}B, chunks={len(self.cache)}, "
            f"preloaded={self.preloaded_level})"
        )


def _slice_chunk(
    chunk: Chunk, cell_ranges: tuple[tuple[int, int], ...]
) -> Chunk:
    """A copy of ``chunk`` containing only the cells inside the ranges."""
    mask = np.ones(chunk.size_tuples, dtype=bool)
    for axis, (lo, hi) in zip(chunk.coords, cell_ranges):
        mask &= (axis >= lo) & (axis < hi)
    if mask.all():
        # A fresh wrapper even when nothing is filtered: the chunk object
        # may be cache-resident, and handing it out would alias cache
        # state to callers free to mutate the result.  The arrays are
        # shared read-only; only the wrapper is new.
        return replace(chunk)
    return Chunk(
        level=chunk.level,
        number=chunk.number,
        coords=tuple(axis[mask] for axis in chunk.coords),
        values=chunk.values[mask],
        counts=chunk.counts[mask],
        origin=chunk.origin,
        compute_cost=chunk.compute_cost,
        extras=tuple(extra[mask] for extra in chunk.extras),
    )
