"""Ground-truth differential suite: every serving path against numpy.

One seeded apb_tiny scenario — a query stream with one delta append wave
(``refresh_from_backend(mode="delta")``) and one backend outage window
(an armed ``backend.fetch`` failpoint) — runs through every serving
path:

* the sequential :class:`AggregateCache`;
* :class:`ConcurrentAggregateCache` at ``workers=1`` and ``workers=6``;
* a :class:`ShardRouter` over one and over two
  ``LocalShard(serialize=True)`` shards, and over two shards of which one
  is marked dead;

each on the dict and on the mmap chunk store.  Every exactly answered
cell must equal a brute-force numpy group-by over the fact table as it
stood (initial table merged with the wave once applied), and no chunk
reported unanswered or estimated may also appear among the exact ones.
Checking paths against the fact table rather than against each other
catches the bugs that all paths would share.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AggregateCache,
    BackendDatabase,
    ConcurrentAggregateCache,
    CostModel,
    QueryStreamGenerator,
    generate_fact_table,
)
from repro.backend.generator import merge_fact_tables
from repro.faults import FailpointRegistry, TransientBackendError
from repro.sharding import LocalShard, ShardRouter, WorkerSpec
from repro.sharding import build_shard_service

#: Queries before the append wave, during the outage window and after.
SEGMENTS = (8, 8, 8)
CAPACITY_FRACTION = 0.2

PATHS = (
    "manager",
    "service_w1",
    "service_w6",
    "router_1",
    "router_2",
    "router_2_dead",
)


def numpy_groupby(facts, level) -> dict[tuple[int, ...], tuple[float, int]]:
    """``{cell: (sum, count)}`` of the fact table rolled up to ``level``."""
    schema = facts.schema
    coords = np.stack(
        [
            dim.map_ordinals(dim.height, target, facts.coords[d])
            for d, (dim, target) in enumerate(zip(schema.dimensions, level))
        ],
        axis=1,
    )
    cells, inverse = np.unique(coords, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    sums = np.bincount(inverse, weights=facts.values, minlength=len(cells))
    counts = np.bincount(inverse, weights=facts.counts, minlength=len(cells))
    return {
        tuple(int(x) for x in cell): (float(s), int(n))
        for cell, s, n in zip(cells, sums, counts)
    }


def _backend(schema, facts, store):
    backend = BackendDatabase(schema, facts, CostModel(), store=store)
    capacity = max(int(backend.base_size_bytes * CAPACITY_FRACTION), 1)
    return backend, capacity


class ServingPath:
    """One serving path: ``serve(queries)``, ``refresh(wave)``, ``close()``.

    Each shard owns a private backend over the same facts, as a worker
    process does, so the append wave is applied once per shard.
    """

    def __init__(self, name, schema, facts, store):
        self.backends = []
        if name.startswith("router"):
            num_shards = 1 if name == "router_1" else 2
            shards = []
            for index in range(num_shards):
                backend, capacity = _backend(schema, facts, store)
                self.backends.append(backend)
                service = build_shard_service(
                    WorkerSpec(
                        index=index,
                        num_shards=num_shards,
                        schema=schema,
                        capacity_bytes=capacity,
                        backend=backend,
                        degraded_mode=True,
                    )
                )
                shards.append(LocalShard(index, service, serialize=True))
            self.router = ShardRouter(shards, schema)
            if name == "router_2_dead":
                self.router.shards[1].alive = False
            self.services = [
                shard.service for shard in shards if shard.alive
            ]
            self.serve = lambda queries: self.router.serve(queries, workers=1)
            return
        backend, capacity = _backend(schema, facts, store)
        self.backends.append(backend)
        manager = AggregateCache(
            schema, backend, capacity, degraded_mode=True
        )
        if name == "manager":
            self.services = [manager]
            self.serve = lambda queries: [manager.query(q) for q in queries]
            return
        service = ConcurrentAggregateCache(manager, flight_timeout_s=15.0)
        workers = 1 if name == "service_w1" else 6
        self.services = [service]
        self.serve = lambda queries: service.serve(queries, workers=workers)

    def refresh(self, wave) -> None:
        for service in self.services:
            service.refresh_from_backend(wave, mode="delta")

    def close(self) -> None:
        for backend in self.backends:
            backend.close()


def check(schema, truth_facts, queries, results, truths) -> None:
    assert len(results) == len(queries)
    for query, result in zip(queries, results):
        numbers = list(query.chunk_numbers(schema))
        answered = [chunk.number for chunk in result.chunks]
        estimated = [e.number for e in result.estimated]
        assert not set(answered) & set(result.unanswered)
        assert not set(answered) & set(estimated)
        assert sorted(answered + estimated + list(result.unanswered)) == sorted(
            numbers
        )
        assert answered == [n for n in numbers if n in set(answered)]
        key = (id(truth_facts), query.level)
        if key not in truths:
            truths[key] = numpy_groupby(truth_facts, query.level)
        cells = truths[key]
        for chunk in result.chunks:
            spans = schema.chunks.chunk_cell_spans(query.level, chunk.number)
            expected = {
                cell: value
                for cell, value in cells.items()
                if all(lo <= c < hi for c, (lo, hi) in zip(cell, spans))
            }
            got = {
                tuple(int(x) for x in cell): (float(v), int(n))
                for cell, v, n in zip(
                    zip(*chunk.coords), chunk.values, chunk.counts
                )
            }
            assert got == expected, (query, chunk.number)


@pytest.mark.parametrize("store", ("dict", "mmap"))
@pytest.mark.parametrize("path_name", PATHS)
@settings(
    max_examples=2,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    outage_start=st.integers(1, 4),
    outage_calls=st.integers(1, 6),
)
def test_every_path_matches_numpy_ground_truth(
    tiny_schema, tiny_facts, path_name, store, seed, outage_start,
    outage_calls,
):
    schema = tiny_schema
    stream = list(
        QueryStreamGenerator(schema, max_extent=3, seed=seed).generate(
            sum(SEGMENTS)
        )
    )
    before, during, after = (
        stream[: SEGMENTS[0]],
        stream[SEGMENTS[0]: SEGMENTS[0] + SEGMENTS[1]],
        stream[SEGMENTS[0] + SEGMENTS[1]:],
    )
    wave = generate_fact_table(schema, num_tuples=60, seed=seed + 1)
    appended = merge_fact_tables([tiny_facts, wave])
    truths: dict = {}
    path = ServingPath(path_name, schema, tiny_facts, store)
    try:
        check(schema, tiny_facts, before, path.serve(before), truths)
        path.refresh(wave)
        registry = FailpointRegistry()
        registry.fail(
            "backend.fetch",
            TransientBackendError,
            calls=range(outage_start, outage_start + outage_calls),
        )
        with registry.armed():
            results = path.serve(during)
        check(schema, appended, during, results, truths)
        check(schema, appended, after, path.serve(after), truths)
    finally:
        path.close()
