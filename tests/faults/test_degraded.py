"""Degraded (cache-only) serving when the backend is down."""

from __future__ import annotations

import pytest

from repro import AggregateCache, ConcurrentAggregateCache, Query
from repro.faults import FailpointRegistry, TransientBackendError
from repro.harness.service_bench import (
    check_bytes_invariant,
    check_counts_invariant,
)
from repro.obs import Observability
from tests.helpers import direct_aggregate, expected_cells_in_chunk


def make_manager(tiny_schema, tiny_backend, **kwargs):
    kwargs.setdefault("capacity_bytes", 1 << 30)
    kwargs.setdefault("strategy", "vcmc")
    kwargs.setdefault("preload", False)
    kwargs.setdefault("degraded_mode", True)
    return AggregateCache(tiny_schema, tiny_backend, **kwargs)


def outage(registry=None):
    registry = registry or FailpointRegistry()
    registry.fail("backend.fetch", TransientBackendError)
    return registry


def test_default_mode_still_raises(tiny_schema, tiny_backend):
    manager = make_manager(tiny_schema, tiny_backend, degraded_mode=False)
    with outage().armed():
        with pytest.raises(TransientBackendError):
            manager.query(Query.full_level(tiny_schema, (1, 1, 0)))


def test_partial_coverage_answers_are_exact(
    tiny_schema, tiny_backend, tiny_facts
):
    manager = make_manager(tiny_schema, tiny_backend)
    level = tiny_schema.base_level
    warm = Query(level, ((1, 3), (0, 2), (0, 1)))
    manager.query(warm)
    cached = set(warm.chunk_numbers(tiny_schema))

    full = Query.full_level(tiny_schema, level)
    everything = full.chunk_numbers(tiny_schema)
    with outage().armed():
        result = manager.query(full)

    assert result.degraded
    assert not result.complete_hit
    assert set(result.unanswered) == set(everything) - cached
    assert result.coverage == pytest.approx(len(cached) / len(everything))
    assert len(result.chunks) + len(result.unanswered) == len(everything)
    truth = direct_aggregate(tiny_facts, level)
    for chunk in result.chunks:
        expected = expected_cells_in_chunk(
            tiny_schema, truth, level, chunk.number
        )
        assert chunk.cell_dict() == pytest.approx(expected)
    assert manager.degraded_queries == 1
    assert check_bytes_invariant(manager)
    assert check_counts_invariant(manager)


def test_recovery_after_outage_serves_the_gaps(tiny_schema, tiny_backend):
    manager = make_manager(tiny_schema, tiny_backend)
    level = tiny_schema.base_level
    warm = Query(level, ((1, 3), (0, 2), (0, 1)))
    manager.query(warm)
    full = Query.full_level(tiny_schema, level)
    with outage().armed():
        degraded = manager.query(full)
    assert degraded.unanswered

    healed = manager.query(full)  # failpoints disarmed: backend is back
    assert not healed.degraded
    assert healed.coverage == 1.0
    assert healed.unanswered == ()
    assert healed.from_backend == len(degraded.unanswered)
    assert len(healed.chunks) == full.num_chunks
    again = manager.query(full)
    assert again.complete_hit


def test_aggregation_salvage_gives_full_coverage(
    tiny_schema, tiny_backend, tiny_facts, monkeypatch
):
    # Redirect every computable chunk to the backend (the Section 5.2
    # cost gate, forced): phase 3 then fails, and the salvage pass must
    # recover the exact answers by aggregating inside the cache.
    manager = make_manager(
        tiny_schema, tiny_backend, use_cost_optimizer=True
    )
    manager.query(Query.full_level(tiny_schema, tiny_schema.base_level))
    monkeypatch.setattr(
        manager, "_backend_is_cheaper", lambda *args: True
    )
    level = (1, 1, 0)
    with outage().armed():
        result = manager.query(Query.full_level(tiny_schema, level))
    assert result.degraded
    assert result.unanswered == ()
    assert result.coverage == 1.0
    assert result.complete_hit  # every chunk answered, backend untouched
    assert result.aggregated == len(result.chunks)
    truth = direct_aggregate(tiny_facts, level)
    cells = {}
    for chunk in result.chunks:
        cells.update(chunk.cell_dict())
    assert cells == pytest.approx(truth)
    assert check_counts_invariant(manager)


def test_unknown_errors_propagate_even_in_degraded_mode(
    tiny_schema, tiny_backend
):
    manager = make_manager(tiny_schema, tiny_backend)
    registry = FailpointRegistry()
    registry.fail("backend.fetch", ValueError)  # not a FaultError
    with registry.armed():
        with pytest.raises(ValueError):
            manager.query(Query.full_level(tiny_schema, (1, 1, 0)))


def test_degraded_obs_accounting(tiny_schema, tiny_backend):
    obs = Observability.in_memory()
    manager = make_manager(tiny_schema, tiny_backend, obs=obs)
    level = tiny_schema.base_level
    warm = Query(level, ((1, 3), (0, 2), (0, 1)))
    manager.query(warm)
    full = Query.full_level(tiny_schema, level)
    with outage().armed():
        result = manager.query(full)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["backend.degraded_queries"] == 1
    assert counters["backend.degraded_answers"] == len(result.chunks)
    assert counters["backend.unanswered_chunks"] == len(result.unanswered)
    query_events = obs.ring_events("query")
    assert query_events[-1]["degraded"] is True
    assert query_events[-1]["unanswered"] == list(result.unanswered)
    assert "degraded" not in query_events[0]  # fault-free event untouched


def test_subset_answered_fraction_is_relative_to_the_slice(
    tiny_schema, tiny_backend
):
    """Regression: ``answered_fraction`` divided by the whole query's
    chunk count while ``unanswered`` is relative to a ``query_subset``
    slice, so a fully unanswered slice still reported most of the query
    answered."""
    service = ConcurrentAggregateCache(make_manager(tiny_schema, tiny_backend))
    query = Query.full_level(tiny_schema, tiny_schema.base_level)
    numbers = query.chunk_numbers(tiny_schema)
    assert len(numbers) > 2
    with outage().armed():
        result = service.query_subset(query, numbers[:2])
    assert result.degraded
    assert result.unanswered == tuple(numbers[:2])
    assert result.coverage == 0.0
    assert result.answered_fraction == 0.0
