"""Which callables the traced run wraps, and the per-layer metrics.

Every metric is normalised per traced query (``/query``) unless its unit
says otherwise, so runs that complete different numbers of queries in the
same time stay comparable.  A layer that a workload bypasses reads 0.
"""

from __future__ import annotations

from repro.aggregation import aggregate as aggregate_module
from repro.approx.answering import ApproxAnswerer
from repro.backend.engine import BackendDatabase
from repro.cache.store import ChunkCache
from repro.core.costs import CostStore
from repro.core.plans import PlanCache
from repro.core.strategies.base import LookupStrategy
from repro.service.concurrent import ConcurrentAggregateCache
from repro.service.rwlock import ReadWriteLock
from repro.service.singleflight import SingleFlightTable
from repro.sharding import router as router_module
from repro.sharding.router import ProcessShard

#: Span names grouped into the layers the report names; a layer's self
#: time is the sum of its spans' self times.
LAYER_SPANS = {
    "strategies": ("strategies.find",),
    "plans": ("plans.lookup", "plans.store", "plans.bump"),
    "maint": ("maint",),
    "aggregation": ("aggregation.rollup_many",),
    "backend": ("backend.fetch", "backend.append"),
    "cache": ("cache.insert_many", "cache.evict_many",
              "cache.replace_many", "cache.reinforce"),
    "service": ("service.read_wait", "service.write_wait",
                "singleflight.claim", "singleflight.wait",
                "service.refresh"),
    "wire": ("wire.encode", "wire.decode"),
    "shard": ("shard.rpc",),
    "merge": ("merge",),
    "approx": ("approx.estimate",),
}


def install(tracer, max_rel_error: float | None) -> None:
    """Wrap every layer's public callables with ``tracer`` spans."""

    def visits(t, _, args, __):
        t.count("strategies.visits", args[0].last_find_visits)

    def plan_outcome(t, _, __, result):
        t.count(f"plans.{result[0].value}")

    def one_key(t, *_):
        t.count("maint.keys")

    def many_keys(t, _, args, __):
        t.count("maint.keys", len(args[1]))

    def rows(t, _, args, __):
        t.count("aggregation.rows",
                sum(c.size_tuples for srcs in args[3] for c in srcs))

    def fetched(t, _, __, result):
        stats = result[1]
        t.count("backend.sim_ms", stats.simulated_ms)
        t.count("backend.tuples_scanned", stats.tuples_scanned)

    def inserted(t, _, __, outcomes):
        t.count("cache.inserts", sum(1 for o in outcomes if o.inserted))
        t.count("cache.evictions", sum(len(o.evicted) for o in outcomes))

    def evicted(t, _, __, chunks):
        t.count("cache.evictions", len(chunks))

    def reinforced(t, _, __, result):
        t.count("cache.reinforce_skipped", result[1])

    def claimed(t, _, __, result):
        t.count("singleflight.led", len(result[0]))
        t.count("singleflight.joined", len(result[1]))

    def served(t, span_id, _, partial):
        lookup, aggregate, update, _backend = partial.breakdown_ms
        t.span_extra[span_id] = lookup + aggregate + update

    def merged(t, _, args, __):
        partials = args[2]
        t.count("shard.fanout", len(partials))
        for partial in partials:
            lookup, aggregate, update, _backend = partial.breakdown_ms
            t.count("shard.lookup_ms", lookup)
            t.count("shard.aggregate_ms", aggregate)
            t.count("shard.update_ms", update)

    def estimated(t, _, __, estimates):
        t.count("approx.chunks", len(estimates))
        t.count("approx.accepted", sum(
            1 for e in estimates
            if max_rel_error is None or e.rel_error <= max_rel_error
        ))

    tracer.wrap(LookupStrategy, "find", "strategies.find", visits)
    tracer.wrap(PlanCache, "lookup", "plans.lookup", plan_outcome)
    tracer.wrap(PlanCache, "store", "plans.store")
    tracer.wrap(PlanCache, "bump", "plans.bump")
    tracer.wrap(LookupStrategy, "on_insert", "maint", one_key)
    tracer.wrap(LookupStrategy, "on_evict", "maint", one_key)
    tracer.wrap(LookupStrategy, "on_insert_many", "maint", many_keys)
    tracer.wrap(LookupStrategy, "on_evict_many", "maint", many_keys)
    tracer.wrap(CostStore, "recalibrate", "maint", many_keys)
    tracer.wrap_bindings("repro", "rollup_many", "aggregation.rollup_many",
                         aggregate_module.rollup_many, rows)
    tracer.wrap(BackendDatabase, "fetch", "backend.fetch", fetched)
    tracer.wrap(BackendDatabase, "apply_append", "backend.append")
    tracer.wrap(ChunkCache, "insert_many", "cache.insert_many", inserted)
    tracer.wrap(ChunkCache, "evict_many", "cache.evict_many", evicted)
    tracer.wrap(ChunkCache, "replace_many", "cache.replace_many", evicted)
    tracer.wrap(ChunkCache, "reinforce", "cache.reinforce", reinforced)
    tracer.wrap(ReadWriteLock, "acquire_read", "service.read_wait")
    tracer.wrap(ReadWriteLock, "acquire_write", "service.write_wait")
    tracer.wrap(SingleFlightTable, "claim", "singleflight.claim", claimed)
    tracer.wrap(SingleFlightTable, "wait", "singleflight.wait")
    tracer.wrap(ConcurrentAggregateCache, "refresh_from_backend",
                "service.refresh")
    tracer.wrap_bindings("repro.sharding", "encode_query", "wire.encode",
                         router_module.encode_query)
    tracer.wrap_bindings("repro.sharding", "decode_partial", "wire.decode",
                         router_module.decode_partial)
    tracer.wrap_bindings("repro.sharding", "merge_partials", "merge",
                         router_module.merge_partials, merged)
    tracer.wrap(ProcessShard, "query_partial", "shard.rpc", served)
    tracer.wrap(ApproxAnswerer, "estimate", "approx.estimate", estimated)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, queries: int, replans: int,
                      overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    times = tracer.layer_times()
    c = tracer.counters
    n = max(queries, 1)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    def busy(name):
        return times.get(name, {}).get("busy_ms", 0.0)

    def self_ms(names):
        return sum(times.get(name, {}).get("self_ms", 0.0) for name in names)

    query_ms = _ratio(busy("query"), calls("query"))
    rpc_children = tracer.child_ms("shard.rpc")
    pipe_ms = sum(
        (end - start) * 1e3 - rpc_children.get(span_id, 0.0)
        - tracer.span_extra.get(span_id, 0.0)
        for span_id, name, start, end, _, _ in tracer.spans
        if name == "shard.rpc"
    )
    plan_lookups = c["plans.hit"] + c["plans.miss"] + c["plans.stale"]
    m = {
        "trace.query_ms": (query_ms, "ms"),
        "trace.overhead": (overhead, "ratio"),
        "strategies.find_calls": (calls("strategies.find") / n, "1/query"),
        "strategies.find_ms": (busy("strategies.find") / n, "ms"),
        "strategies.visits_per_find": (
            _ratio(c["strategies.visits"], calls("strategies.find")),
            "1/call"),
        "plans.hit_ratio": (_ratio(c["plans.hit"], plan_lookups), "ratio"),
        "plans.lookup_ms": (busy("plans.lookup") / n, "ms"),
        "plans.store_ms": (busy("plans.store") / n, "ms"),
        "plans.bump_ms": (busy("plans.bump") / n, "ms"),
        "maint.calls": (calls("maint") / n, "1/query"),
        "maint.ms": (busy("maint") / n, "ms"),
        "maint.keys_per_call": (
            _ratio(c["maint.keys"], calls("maint")), "keys/call"),
        "aggregation.calls": (
            calls("aggregation.rollup_many") / n, "1/query"),
        "aggregation.ms": (busy("aggregation.rollup_many") / n, "ms"),
        "aggregation.rows_per_call": (
            _ratio(c["aggregation.rows"], calls("aggregation.rollup_many")),
            "rows/call"),
        "backend.fetches": (calls("backend.fetch") / n, "1/query"),
        "backend.fetch_ms": (busy("backend.fetch") / n, "ms"),
        "backend.sim_ms": (c["backend.sim_ms"] / n, "ms"),
        "backend.tuples_scanned": (
            c["backend.tuples_scanned"] / n, "tuples/query"),
        "backend.append_ms": (
            _ratio(busy("backend.append"), calls("backend.append")),
            "ms/call"),
        "cache.insert_ms": (busy("cache.insert_many") / n, "ms"),
        "cache.inserts": (c["cache.inserts"] / n, "1/query"),
        "cache.evictions": (c["cache.evictions"] / n, "1/query"),
        "cache.replace_ms": (busy("cache.replace_many") / n, "ms"),
        "cache.reinforce_skipped": (
            c["cache.reinforce_skipped"] / n, "1/query"),
        "service.read_wait_ms": (busy("service.read_wait") / n, "ms"),
        "service.write_wait_ms": (busy("service.write_wait") / n, "ms"),
        "service.replans": (replans / n, "1/query"),
        "singleflight.join_ratio": (
            _ratio(c["singleflight.joined"],
                   c["singleflight.led"] + c["singleflight.joined"]),
            "ratio"),
        "singleflight.wait_ms": (busy("singleflight.wait") / n, "ms"),
        "service.refresh_ms": (
            _ratio(busy("service.refresh"), calls("service.refresh")),
            "ms/call"),
        "wire.encode_ms": (busy("wire.encode") / n, "ms"),
        "shard.rpc_ms": (busy("shard.rpc") / n, "ms"),
        "shard.pipe_ms": (pipe_ms / n, "ms"),
        "wire.decode_ms": (busy("wire.decode") / n, "ms"),
        "merge.ms": (busy("merge") / n, "ms"),
        "shard.fanout": (c["shard.fanout"] / n, "shards/query"),
        "shard.lookup_ms": (c["shard.lookup_ms"] / n, "ms"),
        "shard.aggregate_ms": (c["shard.aggregate_ms"] / n, "ms"),
        "shard.update_ms": (c["shard.update_ms"] / n, "ms"),
        "approx.calls": (calls("approx.estimate") / n, "1/query"),
        "approx.ms": (busy("approx.estimate") / n, "ms"),
        "approx.chunks": (c["approx.chunks"] / n, "1/query"),
        "approx.accept_ratio": (
            _ratio(c["approx.accepted"], c["approx.chunks"]), "ratio"),
    }
    for layer, names in LAYER_SPANS.items():
        layer_self = self_ms(names) / n
        m[f"{layer}.self_ms"] = (layer_self, "ms")
        m[f"{layer}.self_share"] = (_ratio(layer_self, query_ms), "ratio")
    m["trace.unattributed_share"] = (
        _ratio(self_ms(("query",)), busy("query")), "ratio")
    return m
