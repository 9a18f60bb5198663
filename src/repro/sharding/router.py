"""The fan-out/merge router: one query in, N shard slices out, one
merged :class:`~repro.core.manager.QueryResult` back.

The router computes a query's canonical chunk plan once, splits it by
:class:`~repro.sharding.ownership.ShardMap` ownership, sends each alive
shard its slice over a pipe (:class:`ProcessShard`) or a direct call
(:class:`LocalShard`), and merges the partials:

* **cells** — chunks are wholly owned, so the merge is a disjoint union
  ordered by the plan;  AVG over the merged region recomposes from the
  cells' SUM/COUNT exactly as :func:`repro.adaptive.aggregate_answer`
  does (see :meth:`ShardRouter.aggregate`);
* **accounting** — hit/aggregation/backend counters add; phase timings
  take the per-phase maximum (the slices ran in parallel);
* **failure** — a shard that stops answering (pipe EOF, RPC deadline,
  an injected ``shard.rpc`` fault) is marked dead and its chunks are
  reported exactly like the degraded service path reports a dead
  backend: ``degraded=True``, the chunks in ``unanswered``, ``coverage``
  the fraction of the plan actually answered.  Everything returned is
  exact — PR 5's exact-partial semantics, reused shard-wise.

With one shard the merge degenerates to field identity: a
``ShardRouter`` over one worker returns, field for field, what
:class:`~repro.service.ConcurrentAggregateCache` returns for the same
stream — the harness gates this in-run (``--shards 1``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.adaptive import SUM, aggregate_answer
from repro.adaptive.canonical import canonicalize
from repro.approx.answering import ApproxAnswerer
from repro.approx.contract import QueryContract
from repro.approx.estimator import CellEstimate
from repro.core.manager import (
    QueryResult,
    assemble_result,
    estimate_chunks,
)
from repro.faults.errors import ShardDeadError
from repro.faults.registry import failpoint
from repro.schema.cube import CubeSchema
from repro.service.concurrent import ConcurrentAggregateCache
from repro.sharding.ownership import ShardMap
from repro.sharding.wire import (
    ShardPartial,
    decode_partial,
    encode_query,
)
from repro.sharding.worker import WorkerSpec, shard_stats, worker_main
from repro.util.errors import ReproError
from repro.util.timers import TimeBreakdown
from repro.workload.query import Query


#: Accounting fields that add across shard partials.
_SUMMED = (
    "direct_hits",
    "aggregated",
    "from_backend",
    "tuples_aggregated",
    "lookup_visits",
    "state_updates",
    "reinforcements_skipped",
)


def merge_partials(
    query: Query,
    numbers: Sequence[int],
    partials: Sequence[ShardPartial],
    dead_numbers: Sequence[int] = (),
    extra_estimates: Sequence[CellEstimate] = (),
    contract: QueryContract | None = None,
) -> QueryResult:
    """Merge shard partials into one :class:`QueryResult`.

    ``numbers`` is the full canonical plan (all shards' slices in plan
    order); ``dead_numbers`` are chunks whose owner never answered;
    ``extra_estimates`` are router-side sample estimates covering some
    of the dead chunks (approx contracts with a router answerer).
    With a single partial covering the whole plan the merged result is
    field-identical to the shard's own result.  Per-chunk estimates —
    point values AND CI half-widths — pass through the merge untouched,
    so they are identical to the single-process path; region CIs then
    combine in quadrature (:func:`repro.approx.combine_estimates`),
    which is associative across any shard split.
    """
    breakdown = TimeBreakdown()
    for partial in partials:
        lookup, aggregate, update, backend = partial.breakdown_ms
        breakdown.lookup_ms = max(breakdown.lookup_ms, lookup)
        breakdown.aggregate_ms = max(breakdown.aggregate_ms, aggregate)
        breakdown.update_ms = max(breakdown.update_ms, update)
        breakdown.backend_ms = max(breakdown.backend_ms, backend)
    return assemble_result(
        query,
        numbers,
        {chunk.number: chunk for p in partials for chunk in p.chunks},
        itertools.chain(
            (e for p in partials for e in p.estimated), extra_estimates
        ),
        breakdown,
        contract,
        bool(dead_numbers) or any(p.degraded for p in partials),
        **{
            name: sum(getattr(p, name) for p in partials)
            for name in _SUMMED
        },
    )


def _build_router_answerer(
    schema: CubeSchema,
    store_path: str | None,
    backend,
    fraction: float,
    seed: int,
) -> ApproxAnswerer:
    """The router's own reservoir, built exactly like a worker's.

    The sample copies records into private arrays, so a temporary
    columnar handle can be closed as soon as the stream is done.
    """
    from repro.backend.engine import BackendDatabase

    if backend is not None:
        return ApproxAnswerer.from_backend(
            schema, backend, fraction=fraction, seed=seed
        )
    if store_path is None:
        raise ReproError(
            "approx_fraction needs a store_path or a backend to sample"
        )
    with BackendDatabase.from_columnar(schema, store_path) as handle:
        return ApproxAnswerer.from_backend(
            schema, handle, fraction=fraction, seed=seed
        )


class ProcessShard:
    """One worker process behind a duplex pipe.

    Requests are serialised per shard (one lock around send+receive):
    the worker's loop is serial anyway, so pipelining inside a shard
    buys nothing — cross-shard parallelism comes from the router's
    thread pool issuing different shards' requests concurrently.
    """

    def __init__(
        self, index: int, spec: WorkerSpec, ctx=None
    ) -> None:
        ctx = ctx or multiprocessing.get_context("fork")
        self.index = index
        self.alive = True
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn = parent_conn
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, spec),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def request(self, op: str, payload=None, timeout_s: float | None = 60.0):
        """One RPC round trip; raises :class:`ShardDeadError` when the
        worker cannot answer (killed, crashed, deadline exceeded)."""
        if not self.alive:
            raise ShardDeadError(f"shard {self.index} is marked dead")
        with self._lock:
            seq = next(self._seq)
            try:
                self._conn.send((op, seq, payload))
                if timeout_s is not None and not self._conn.poll(timeout_s):
                    raise ShardDeadError(
                        f"shard {self.index} did not answer {op!r} "
                        f"within {timeout_s}s"
                    )
                got_seq, status, body = self._conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise ShardDeadError(
                    f"shard {self.index} pipe broke during {op!r}: {exc}"
                ) from exc
        if got_seq != seq:
            raise ShardDeadError(
                f"shard {self.index} answered out of order "
                f"(got {got_seq}, expected {seq})"
            )
        if status == "err":
            name, message = body
            raise ReproError(f"shard {self.index} {name}: {message}")
        return body

    def query_partial(
        self,
        query: Query,
        numbers: Sequence[int],
        timeout_s=60.0,
        contract: QueryContract | None = None,
    ) -> ShardPartial:
        wire = self.request(
            "query",
            encode_query(
                query.level, query.chunk_ranges, numbers, contract
            ),
            timeout_s,
        )
        return decode_partial(wire)

    def query_batch(
        self,
        slices: Sequence[tuple[Query, Sequence[int]]],
        timeout_s=60.0,
        contract: QueryContract | None = None,
    ) -> list[ShardPartial]:
        """Serve many query slices in ONE round trip.

        The pipe round trip (~half a millisecond of pickling, wakeups
        and scheduling) dwarfs a small slice's serving cost, so the
        router amortises it across a whole batch; answers come back in
        slice order."""
        wire = self.request(
            "query_batch",
            tuple(
                encode_query(
                    query.level, query.chunk_ranges, numbers, contract
                )
                for query, numbers in slices
            ),
            timeout_s,
        )
        return [decode_partial(p) for p in wire]

    def stats(self, timeout_s=60.0) -> dict:
        return self.request("stats", timeout_s=timeout_s)

    def idle_tick(self, timeout_s=60.0) -> tuple[int, int]:
        return tuple(self.request("idle_tick", timeout_s=timeout_s))

    def crash(self) -> None:
        """Ask the worker to die mid-protocol (degradation tests)."""
        try:
            with self._lock:
                self._conn.send(("crash", next(self._seq), None))
        except (OSError, BrokenPipeError):
            pass

    def close(self, timeout_s: float = 5.0) -> None:
        if self.process.is_alive() and self.alive:
            try:
                self.request("shutdown", timeout_s=timeout_s)
            except (ShardDeadError, ReproError):
                pass
        self.alive = False
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout_s)
        self._conn.close()


class LocalShard:
    """An in-process shard: the same interface over a direct call.

    Used by the merge unit tests (no processes, no pipes) and as a
    zero-IPC single-shard mode; ``serialize=True`` round-trips every
    partial through the wire codec so tests exercise the exact bytes a
    :class:`ProcessShard` would move.
    """

    def __init__(
        self,
        index: int,
        service: ConcurrentAggregateCache,
        serialize: bool = False,
    ) -> None:
        self.index = index
        self.service = service
        self.serialize = serialize
        self.alive = True

    def query_partial(
        self,
        query: Query,
        numbers: Sequence[int],
        timeout_s=None,
        contract: QueryContract | None = None,
    ) -> ShardPartial:
        result = self.service.query_subset(query, list(numbers), contract)
        partial = ShardPartial.from_result(self.index, result)
        if self.serialize:
            from repro.sharding.wire import encode_partial

            partial = decode_partial(encode_partial(partial))
        return partial

    def query_batch(
        self,
        slices: Sequence[tuple[Query, Sequence[int]]],
        timeout_s=None,
        contract: QueryContract | None = None,
    ) -> list[ShardPartial]:
        return [
            self.query_partial(query, numbers, contract=contract)
            for query, numbers in slices
        ]

    def stats(self, timeout_s=None) -> dict:
        return shard_stats(self.service)

    def idle_tick(self, timeout_s=None) -> tuple[int, int]:
        actions = self.service.idle_tick()
        return (len(actions.promoted), len(actions.demoted))

    def close(self, timeout_s: float = 5.0) -> None:
        self.alive = False
        self.service.manager.cache.close()


class ShardRouter:
    """Fan a query stream out over N shards and merge the answers."""

    def __init__(
        self,
        shards: Sequence,
        schema: CubeSchema,
        rpc_timeout_s: float | None = 60.0,
        approx: ApproxAnswerer | None = None,
    ) -> None:
        if not shards:
            raise ReproError("a ShardRouter needs at least one shard")
        self.shards = list(shards)
        self.schema = schema
        self.shard_map = ShardMap(len(self.shards), schema)
        self.rpc_timeout_s = rpc_timeout_s
        self.approx = approx
        """Router-side answerer (same seed as the workers'): under an
        approx contract a DEAD shard's chunks are estimated here instead
        of reported unanswered, so shard death degrades coverage, not
        availability."""
        self.shard_deaths = 0
        """Shards marked dead after a failed RPC (lifetime count)."""
        self.queries_run = 0
        self._count_lock = threading.Lock()

    @classmethod
    def spawn(
        cls,
        num_shards: int,
        schema: CubeSchema,
        capacity_bytes: int,
        *,
        store_path: str | None = None,
        backend=None,
        rpc_timeout_s: float | None = 60.0,
        approx_fraction: float | None = None,
        approx_seed: int = 7,
        **spec_kwargs,
    ) -> "ShardRouter":
        """Fork ``num_shards`` workers splitting ``capacity_bytes``
        between them; remaining keyword arguments flow into each
        :class:`~repro.sharding.worker.WorkerSpec`.

        With ``approx_fraction`` set, every worker maintains the
        identically seeded reservoir (see :class:`WorkerSpec`) and the
        router builds its own copy for dead-shard estimation.
        """
        per_shard = max(1, capacity_bytes // num_shards)
        shards = [
            ProcessShard(
                index,
                WorkerSpec(
                    index=index,
                    num_shards=num_shards,
                    schema=schema,
                    capacity_bytes=per_shard,
                    store_path=store_path,
                    backend=backend,
                    approx_fraction=approx_fraction,
                    approx_seed=approx_seed,
                    **spec_kwargs,
                ),
            )
            for index in range(num_shards)
        ]
        approx = None
        if approx_fraction is not None:
            approx = _build_router_answerer(
                schema, store_path, backend, approx_fraction, approx_seed
            )
        return cls(
            shards, schema, rpc_timeout_s=rpc_timeout_s, approx=approx
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def alive_shards(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    # ------------------------------------------------------------------ #
    # serving

    def query(
        self, query: Query, contract: QueryContract | None = None
    ) -> QueryResult:
        """Answer one query: split by ownership, fan out, merge.
        ``contract`` (see :mod:`repro.approx.contract`) is forwarded to
        every shard; under ``approx`` a dead shard's chunks are filled
        from the router's own sample."""
        numbers = query.chunk_numbers(self.schema)
        by_owner = self.shard_map.split(query.level, numbers)
        partials: list[ShardPartial] = []
        dead_numbers: list[int] = []
        for index, owned in by_owner.items():
            shard = self.shards[index]
            try:
                if not shard.alive:
                    raise ShardDeadError(
                        f"shard {index} is marked dead"
                    )
                failpoint(
                    "shard.rpc", shard=index, op="query", chunks=len(owned)
                )
                partials.append(
                    shard.query_partial(
                        query, owned, self.rpc_timeout_s, contract
                    )
                )
            except ShardDeadError:
                self._mark_dead(shard)
                dead_numbers.extend(owned)
        with self._count_lock:
            self.queries_run += 1
        return self._merge(query, numbers, partials, dead_numbers, contract)

    def _merge(
        self, query, numbers, partials, dead_numbers, contract
    ) -> QueryResult:
        """:func:`merge_partials`, with a dead shard's chunks estimated
        from the router's own sample under an approx contract."""
        extra: Sequence[CellEstimate] = ()
        if dead_numbers and self.approx is not None and (
            contract is not None and contract.wants_estimates
        ):
            extra, _ = estimate_chunks(
                self.approx, query.level, list(dead_numbers), contract
            )
        return merge_partials(
            query, numbers, partials, dead_numbers, extra, contract
        )

    def _mark_dead(self, shard) -> None:
        if shard.alive:
            shard.alive = False
            with self._count_lock:
                self.shard_deaths += 1

    def serve(
        self,
        queries: Iterable[Query],
        workers: int = 4,
        batch_size: int | None = None,
        contract: QueryContract | None = None,
    ) -> list[QueryResult]:
        """Answer a stream, results in submission order.

        The throughput path is *batched*: the stream is cut into runs of
        ``batch_size`` queries, every shard receives its slices of a
        whole run in ONE pipe round trip (:meth:`ProcessShard.query_batch`
        — amortising the per-RPC pickling/wakeup cost that would
        otherwise dominate small queries), and runs are double-buffered —
        while the workers chew on run *k* the router merges run *k-1*,
        so router-side decode/merge overlaps shard-side serving.

        Each shard's RPCs go through its own single-thread dispatch
        queue, so a shard always serves run *k* before run *k+1* — its
        cache evolves exactly as it would under sequential serving (a
        shared pool would let two runs race for the shard's pipe lock,
        which has no FIFO guarantee).  Batched serving is therefore
        field-identical to ``workers=1``, just faster.

        ``batch_size=None`` picks a size that leaves every shard several
        round trips over the stream; ``batch_size=1`` with ``workers>1``
        falls back to per-query fan-out on a thread pool, and
        ``workers<=1`` serves strictly sequentially (the identity path).
        """
        queries = list(queries)
        if workers <= 1:
            return [self.query(query, contract) for query in queries]
        if batch_size is None:
            batch_size = max(
                1, min(32, -(-len(queries) // (2 * self.num_shards)))
            )
        if batch_size <= 1:
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-router"
            ) as pool:
                return list(
                    pool.map(lambda query: self.query(query, contract), queries)
                )
        out: list[QueryResult] = []
        pools = {
            shard.index: ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix=f"repro-shard-rpc-{shard.index}",
            )
            for shard in self.shards
        }
        try:
            pending = None
            for start in range(0, len(queries), batch_size):
                batch = queries[start:start + batch_size]
                dispatched = self._dispatch_batch(pools, batch, contract)
                if pending is not None:
                    out.extend(self._collect_batch(*pending))
                pending = dispatched
            if pending is not None:
                out.extend(self._collect_batch(*pending))
        finally:
            for pool in pools.values():
                pool.shutdown(wait=False)
        return out

    def _dispatch_batch(
        self,
        pools: dict[int, ThreadPoolExecutor],
        batch,
        contract: QueryContract | None = None,
    ):
        """Send every shard its slices of ``batch`` (one RPC each, on
        the shard's own FIFO queue) and return the handles; collection
        happens a batch later."""
        plans = [query.chunk_numbers(self.schema) for query in batch]
        by_shard: dict[int, list[tuple[int, Query, list[int]]]] = {}
        for pos, (query, numbers) in enumerate(zip(batch, plans)):
            split = self.shard_map.split(query.level, numbers)
            for index, owned in split.items():
                by_shard.setdefault(index, []).append(
                    (pos, query, owned)
                )
        futures = {
            index: (
                entries,
                pools[index].submit(
                    self._shard_batch, self.shards[index], entries, contract
                ),
            )
            for index, entries in by_shard.items()
        }
        return batch, plans, futures, contract

    def _shard_batch(
        self, shard, entries, contract: QueryContract | None = None
    ) -> list[ShardPartial]:
        if not shard.alive:
            raise ShardDeadError(f"shard {shard.index} is marked dead")
        failpoint(
            "shard.rpc",
            shard=shard.index,
            op="query_batch",
            chunks=sum(len(owned) for _, _, owned in entries),
        )
        return shard.query_batch(
            [(query, owned) for _, query, owned in entries],
            self.rpc_timeout_s,
            contract,
        )

    def _collect_batch(
        self, batch, plans, futures, contract=None
    ) -> list[QueryResult]:
        """Await one dispatched batch and merge per query; a shard dying
        mid-batch degrades every slice it owned, nothing else."""
        partials: list[list[ShardPartial]] = [[] for _ in batch]
        dead: list[list[int]] = [[] for _ in batch]
        for index, (entries, future) in futures.items():
            try:
                answers = future.result()
            except ShardDeadError:
                self._mark_dead(self.shards[index])
                for pos, _, owned in entries:
                    dead[pos].extend(owned)
                continue
            for (pos, _, _), partial in zip(entries, answers):
                partials[pos].append(partial)
        with self._count_lock:
            self.queries_run += len(batch)
        return [
            self._merge(query, plans[pos], partials[pos], dead[pos], contract)
            for pos, query in enumerate(batch)
        ]

    def query_spec(self, spec) -> QueryResult:
        """Canonicalize a user-shaped spec and serve its chunk-aligned
        query (the sharded counterpart of the service's ``query_spec``)."""
        return self.query(canonicalize(self.schema, spec).to_query())

    def aggregate(self, query: Query, aggregate=SUM):
        """Answer ``query`` and recompose one aggregate over the merged
        region — AVG from the cells' SUM/COUNT, as in
        :func:`repro.adaptive.aggregate_answer`."""
        result = self.query(query)
        return result, aggregate_answer(result.chunks, aggregate)

    # ------------------------------------------------------------------ #
    # maintenance / lifecycle

    def idle_tick(self) -> list[tuple[int, int]]:
        """Run one adaptive promote/demote cycle on every alive shard;
        returns ``(promoted, demoted)`` counts per shard."""
        return [
            shard.idle_tick(self.rpc_timeout_s)
            for shard in self.shards
            if shard.alive
        ]

    def stats(self) -> list[dict]:
        """Per-shard lifetime accounting (dead shards report ``None``)."""
        out: list[dict] = []
        for shard in self.shards:
            if not shard.alive:
                out.append({"shard": shard.index, "alive": False})
                continue
            stats = shard.stats(self.rpc_timeout_s)
            stats.update(shard=shard.index, alive=True)
            out.append(stats)
        return out

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
