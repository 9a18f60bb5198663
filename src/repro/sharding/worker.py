"""The shard worker process: one cache stack, one pipe, one loop.

Each worker owns a full per-shard serving stack — its own
:class:`~repro.cache.store.ChunkCache`, count/cost stores, lookup
strategy, single-flight table and (optionally) circuit breaker and
adaptive precomputer — over a *private* backend handle.  With an
``mmap`` warehouse the handle is opened with
:meth:`~repro.backend.engine.BackendDatabase.from_columnar`, so all N
workers map the same read-only columnar file and share the OS page
cache; facts are never duplicated.  With a fork-inherited dict backend
(unit tests, tiny cubes) each worker simply keeps its copy-on-write
copy.

The loop is deliberately serial: one request in, one response out.
Concurrency lives at the router, which keeps every worker busy by
fanning out query slices from its own thread pool; inside a worker the
full four-phase locking of :class:`~repro.service.ConcurrentAggregateCache`
still applies, so a future multi-pipe worker would need no changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.adaptive.precompute import AdaptivePrecomputer
from repro.aggregation.aggregate import set_default_validation
from repro.approx.contract import decode_contract
from repro.backend.cost_model import CostModel
from repro.backend.engine import BackendDatabase
from repro.backend.resilient import ResilientBackend
from repro.core.manager import AggregateCache
from repro.core.sizes import SizeEstimator
from repro.schema.cube import CubeSchema
from repro.service.concurrent import ConcurrentAggregateCache
from repro.sharding.wire import ShardPartial, encode_partial
from repro.workload.query import Query


@dataclass
class WorkerSpec:
    """Everything a worker needs to build its shard-local stack.

    Specs are handed to the forked child through the ``Process`` args —
    with the fork start method nothing is pickled, the child inherits
    the objects copy-on-write — so live objects (schema, cost model,
    size estimator, even a dict-store backend) are allowed.
    """

    index: int
    num_shards: int
    schema: CubeSchema
    capacity_bytes: int
    """This shard's private cache budget (the fleet total divided by N)."""
    store_path: str | None = None
    """Path of the shared read-only columnar warehouse; each worker opens
    its own mapping.  ``None`` falls back to ``backend`` (fork-inherited)."""
    backend: BackendDatabase | None = None
    cost_model: CostModel | None = None
    sizes: SizeEstimator | None = None
    strategy: str = "vcmc"
    policy: str = "two_level"
    preload: bool = True
    preload_headroom: float = 1.0
    visit_budget: int | None = None
    degraded_mode: bool = False
    approx_fraction: float | None = None
    """Enable the approximate tier: every worker builds its own
    reservoir from its backend handle.  Workers stream the same
    warehouse in the same order with the same seed, so the N samples —
    and every estimate computed from them — are identical across the
    fleet and to a single-process manager (the sharded-parity
    guarantee)."""
    approx_seed: int = 7
    cache_values: str = "dict"
    max_replans: int = 2
    resilient: bool = False
    resilient_seed: int | None = None
    adaptive: bool = False
    adaptive_budget_fraction: float = 0.5
    validate_aggregation: bool = True
    extra_manager_kwargs: dict = field(default_factory=dict)


def build_shard_service(spec: WorkerSpec) -> ConcurrentAggregateCache:
    """Construct one shard's serving stack (also used in-process by
    :class:`~repro.sharding.router.LocalShard` and the merge tests)."""
    if spec.store_path is not None:
        backend: BackendDatabase = BackendDatabase.from_columnar(
            spec.schema, spec.store_path, cost_model=spec.cost_model
        )
    elif spec.backend is not None:
        backend = spec.backend
    else:
        raise ValueError("WorkerSpec needs a store_path or a backend")
    fetch_backend = backend
    if spec.resilient:
        fetch_backend = ResilientBackend(
            backend, seed=spec.resilient_seed
        )
    manager = AggregateCache(
        spec.schema,
        fetch_backend,
        spec.capacity_bytes,
        strategy=spec.strategy,
        policy=spec.policy,
        # Every shard preloads, in full, the level that fits its own
        # budget: a replicated summary tier (see docs/sharding.md).
        preload=spec.preload,
        preload_headroom=spec.preload_headroom,
        visit_budget=spec.visit_budget,
        sizes=spec.sizes,
        degraded_mode=spec.degraded_mode,
        approx=spec.approx_fraction,
        approx_seed=spec.approx_seed,
        cache_values=spec.cache_values,
        **spec.extra_manager_kwargs,
    )
    adaptive = None
    if spec.adaptive:
        # The precompute budget is naturally per-shard: the fraction
        # applies to this worker's own capacity (already the fleet total
        # divided by N), and its tracker sees only queries routed here.
        adaptive = AdaptivePrecomputer(
            manager, budget_fraction=spec.adaptive_budget_fraction
        )
    return ConcurrentAggregateCache(
        manager, max_replans=spec.max_replans, adaptive=adaptive
    )


def shard_stats(service: ConcurrentAggregateCache) -> dict:
    """One shard's lifetime accounting (the router's ``stats`` op)."""
    manager = service.manager
    return {
        "queries_run": manager.queries_run,
        "complete_hits": manager.complete_hits,
        "degraded_queries": manager.degraded_queries,
        "approx_queries": manager.approx_queries,
        "replans": service.replans,
        "cache_chunks": len(manager.cache),
        "cache_used_bytes": manager.cache.used_bytes,
        "cache_capacity_bytes": manager.cache.capacity_bytes,
        "value_backend": manager.cache.values.kind,
        "preloaded_level": manager.preloaded_level,
    }


def worker_main(conn, spec: WorkerSpec) -> None:
    """The child process entry point: serve pipe requests until EOF.

    Requests are ``(op, seq, *payload)`` tuples; every response is
    ``(seq, "ok", payload)`` or ``(seq, "err", (type_name, message))``.
    The loop is strictly serial, so responses leave in request order —
    the router relies on that to match sequence numbers without a
    reader thread.
    """
    set_default_validation(spec.validate_aggregation)
    service = build_shard_service(spec)
    backend = service.manager.backend

    def serve_slice(wire) -> tuple:
        level, ranges, numbers, contract = wire
        result = service.query_subset(
            Query(level=level, chunk_ranges=ranges),
            list(numbers),
            decode_contract(contract),
        )
        return encode_partial(ShardPartial.from_result(spec.index, result))

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op, seq = message[0], message[1]
            if op == "shutdown":
                conn.send((seq, "ok", None))
                break
            if op == "crash":
                # Simulated shard death for the degradation tests: hard
                # exit without draining the pipe or tearing down.
                os._exit(17)
            try:
                if op == "query":
                    payload = serve_slice(message[2])
                elif op == "query_batch":
                    # Many slices, one round trip: the pipe cost is paid
                    # once per batch instead of once per query.  Slices
                    # are served in order, so per-shard cache evolution
                    # matches the unbatched stream exactly.
                    payload = tuple(serve_slice(wire) for wire in message[2])
                elif op == "stats":
                    payload = shard_stats(service)
                elif op == "idle_tick":
                    actions = service.idle_tick()
                    payload = (
                        len(actions.promoted), len(actions.demoted)
                    )
                else:
                    raise ValueError(f"unknown shard op {op!r}")
            except BaseException as exc:  # noqa: BLE001 - reported via pipe
                conn.send((seq, "err", (type(exc).__name__, str(exc))))
            else:
                conn.send((seq, "ok", payload))
    finally:
        service.manager.cache.close()
        backend.close()
        conn.close()
