"""ConcurrentAggregateCache behaviour: sequential equivalence,
single-flight backend deduplication, and plan-vs-eviction revalidation."""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    Query,
    QueryStreamGenerator,
)
from tests.helpers import direct_aggregate, expected_cells_in_chunk


def make_manager(tiny_schema, tiny_facts, capacity_fraction=0.6, **kwargs):
    """A fresh manager on a fresh backend (isolated request accounting)."""
    backend = BackendDatabase(tiny_schema, tiny_facts, CostModel())
    capacity = max(int(backend.base_size_bytes * capacity_fraction), 1)
    kwargs.setdefault("strategy", "vcmc")
    kwargs.setdefault("policy", "two_level")
    return AggregateCache(tiny_schema, backend, capacity, **kwargs)


def stream_for(tiny_schema, n=80, seed=901):
    generator = QueryStreamGenerator(tiny_schema, max_extent=3, seed=seed)
    return list(generator.generate(n))


COMPARED_FIELDS = (
    "complete_hit",
    "direct_hits",
    "aggregated",
    "from_backend",
    "tuples_aggregated",
    "lookup_visits",
    "state_updates",
    "reinforcements_skipped",
)


def test_serve_with_one_worker_matches_sequential_manager(
    tiny_schema, tiny_facts
):
    stream = stream_for(tiny_schema)
    sequential = make_manager(tiny_schema, tiny_facts, keep_log=True)
    expected = [sequential.query(q) for q in stream]

    service = ConcurrentAggregateCache(
        make_manager(tiny_schema, tiny_facts, keep_log=True)
    )
    actual = service.serve(stream, workers=1)

    assert len(actual) == len(expected)
    for index, (a, b) in enumerate(zip(expected, actual)):
        for field in COMPARED_FIELDS:
            assert getattr(a, field) == getattr(b, field), (index, field)
        assert a.total_value() == pytest.approx(b.total_value())
        assert [c.key for c in a.chunks] == [c.key for c in b.chunks]
    # Manager-level accounting is identical too.
    assert service.queries_run == sequential.queries_run
    assert service.complete_hits == sequential.complete_hits
    assert (
        service.manager.optimizer_redirects == sequential.optimizer_redirects
    )
    assert service.cache.used_bytes == sequential.cache.used_bytes
    assert sorted(service.cache.resident_keys()) == sorted(
        sequential.cache.resident_keys()
    )
    assert len(service.manager.query_log) == len(sequential.query_log)
    for a_rec, b_rec in zip(sequential.query_log, service.manager.query_log):
        assert a_rec.sequence == b_rec.sequence
        assert a_rec.complete_hit == b_rec.complete_hit
        assert a_rec.from_backend == b_rec.from_backend
        assert a_rec.cache_used_bytes == b_rec.cache_used_bytes
    # Nothing should have needed the concurrency machinery.
    assert service.replans == 0
    assert service.flights.joined == 0
    assert service.flights.in_progress() == 0


def test_concurrent_misses_share_one_backend_fetch(tiny_schema, tiny_facts):
    # Capacity above the base size so every fetched chunk stays resident
    # (the follow-up query then proves the admissions landed).
    manager = make_manager(
        tiny_schema, tiny_facts, capacity_fraction=2.0, preload=False
    )
    service = ConcurrentAggregateCache(manager)
    backend = manager.backend

    # Gate the (single) leader's fetch open until every claimant has
    # either led or joined, so the dedup window is deterministic.
    original_fetch = backend.fetch
    fetch_calls = []
    calls_lock = threading.Lock()
    gate = threading.Event()

    def gated_fetch(requests):
        with calls_lock:
            fetch_calls.append(list(requests))
        assert gate.wait(timeout=10)
        return original_fetch(requests)

    backend.fetch = gated_fetch
    try:
        query = Query.full_level(tiny_schema, tiny_schema.base_level)
        workers = 4
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def worker(slot):
            barrier.wait(timeout=10)
            results[slot] = service.query(query)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(workers)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if service.flights.joined >= (workers - 1) * query.num_chunks:
                break
            time.sleep(0.005)
        gate.set()
        for t in threads:
            t.join(timeout=10)
    finally:
        del backend.fetch  # restore the class method

    assert len(fetch_calls) == 1, (
        "concurrent misses on the same chunks must issue one backend fetch"
    )
    assert backend.totals.requests == 1
    assert all(r is not None for r in results)
    reference = results[0].total_value()
    for result in results:
        assert result.from_backend == query.num_chunks
        assert result.total_value() == pytest.approx(reference)
    assert service.flights.joined == (len(results) - 1) * query.num_chunks
    assert service.flights.in_progress() == 0
    # The fetched chunks were admitted once and are now served from cache.
    followup = service.query(query)
    assert followup.complete_hit
    assert backend.totals.requests == 1


def test_plan_invalidated_by_racing_eviction_replans(
    tiny_schema, tiny_facts
):
    """Satellite: a plan leaf evicted between find and materialise must
    trigger a re-plan (or backend fallback), never a ReproError."""
    manager = make_manager(tiny_schema, tiny_facts, capacity_fraction=1.2)
    service = ConcurrentAggregateCache(manager)

    target = None
    for level in tiny_schema.all_levels():
        plan = manager.strategy.find(level, 0)
        if plan is not None and not plan.is_leaf:
            target = level
            break
    assert target is not None, "need a level answered by aggregation"

    original_find = service._find
    sabotaged = []

    def racing_find(level, number):
        plan, visits = original_find(level, number)
        if plan is not None and not plan.is_leaf and not sabotaged:
            # Simulate a concurrent writer: evict one plan leaf after the
            # plan was returned but before it is materialised.
            leaf = next(iter(plan.leaves()))
            manager.cache.evict(leaf.level, leaf.number)
            manager.strategy.on_evict(leaf.level, leaf.number)
            sabotaged.append(leaf)
        return plan, visits

    service._find = racing_find
    result = service.query(Query.full_level(tiny_schema, target))
    service._find = original_find

    assert sabotaged, "the race was never staged"
    assert service.replans >= 1
    reference = make_manager(tiny_schema, tiny_facts, capacity_fraction=1.2)
    expected = reference.query(Query.full_level(tiny_schema, target))
    assert result.total_value() == pytest.approx(expected.total_value())


def test_racing_eviction_replans_only_the_invalidated_plan(
    tiny_schema, tiny_facts
):
    """A racing eviction of a leaf that only one of several aggregated
    plans reads re-plans exactly that plan; every plan, the re-planned
    one included, still executes in one batch, and the answer is the
    ground truth."""
    manager = make_manager(
        tiny_schema, tiny_facts, capacity_fraction=3.0, preload=False
    )
    service = ConcurrentAggregateCache(manager)
    # Cache the base level and one level above it: plans read the upper
    # level, and the base level still covers a chunk whose upper-level
    # leaf disappears.
    base = tiny_schema.base_level
    upper = tiny_schema.children_of(base)[0]
    for level in (base, upper):
        service.query(Query.full_level(tiny_schema, level))

    victim = None
    for level in tiny_schema.all_levels():
        query = Query.full_level(tiny_schema, level)
        plans = [
            manager.strategy.find(level, n)
            for n in query.chunk_numbers(tiny_schema)
        ]
        aggregated = [p for p in plans if p is not None and not p.is_leaf]
        for plan in aggregated if len(aggregated) >= 2 else ():
            others = {
                (leaf.level, leaf.number)
                for other in aggregated
                if other is not plan
                for leaf in other.leaves()
            }
            unique = [
                leaf
                for leaf in plan.leaves()
                if leaf.level == upper
                and (leaf.level, leaf.number) not in others
            ]
            if unique:
                victim = (query, len(aggregated), plan.number, unique[0])
                break
        if victim is not None:
            break
    assert victim is not None, "need two aggregated plans, one leaf apart"
    query, num_aggregated, victim_number, leaf = victim

    original_find = service._find
    sabotaged = []

    def racing_find(level, number):
        plan, visits = original_find(level, number)
        if number == victim_number and not sabotaged:
            # A concurrent writer evicts the leaf after the lookup hold
            # returned the plan, before the aggregate hold executes it.
            manager.cache.evict(leaf.level, leaf.number)
            manager.strategy.on_evict(leaf.level, leaf.number)
            sabotaged.append(leaf)
        return plan, visits

    original_execute = manager._execute_plans_batched
    batches = []

    def recording_execute(plans, policy=None):
        executions, visits = original_execute(plans, policy)
        batches.append(executions)
        return executions, visits

    service._find = racing_find
    manager._execute_plans_batched = recording_execute
    try:
        result = service.query(query)
    finally:
        service._find = original_find
        del manager._execute_plans_batched

    assert sabotaged, "the race was never staged"
    assert service.replans == 1
    assert len(batches) == 1, "phase 2 must run as one batch"
    computed = [e for e in batches[0] if e is not None and not e.direct]
    assert len(computed) == num_aggregated
    assert result.aggregated == num_aggregated
    assert result.from_backend == 0
    assert [c.number for c in result.chunks] == list(
        query.chunk_numbers(tiny_schema)
    )
    truth = direct_aggregate(tiny_facts, query.level)
    for chunk in result.chunks:
        assert chunk.cell_dict() == pytest.approx(
            expected_cells_in_chunk(
                tiny_schema, truth, query.level, chunk.number
            )
        )
