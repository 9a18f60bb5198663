"""The ``kernel`` harness experiment: batched vs per-chunk kernel timings.

Three micro-benchmarks, each comparing the batched aggregation engine
against the equivalent per-chunk loop:

* **rollup** — aggregate every chunk of a bench level from its covering
  base chunks: N ``rollup_chunks`` calls vs one ``rollup_many`` pass.
* **backend_fetch** — the multi-chunk backend request: N single-chunk
  ``fetch`` round trips vs one batched ``fetch`` (real compute wall-clock
  only; the simulated connection/transfer charges are excluded).
* **phase2** — the manager's aggregate phase on a Figure-10-style plan
  set (base level cached, VCMC plans for the bench level): the batched
  executor ``_execute_plans_batched`` called once per plan vs once over
  the whole plan forest.

Each case runs at several dataset scales, because the two paths differ in
*regime*, not just constant factor: with small chunks (few rows per
target) the per-chunk loop is dominated by per-call overhead and batching
wins multiples; with dense full-level sweeps both paths are memory-bound
on the same group-by and batching wins only the per-call overhead it
amortises.  The cache serves both regimes — aggregated queries touch
small chunks, pre-loading sweeps dense levels — so the trajectory file
records the whole curve.

Output validation is disabled around every measured section (and
restored), matching how the paper's "aggregation time" is reported.  The
result renders as a table and exports as ``BENCH_kernel.json`` so future
changes have a perf trajectory to regress against; see ``docs/perf.md``.
"""

from __future__ import annotations

import gc
import json
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.aggregation import rollup_chunks, rollup_many, set_default_validation
from repro.core.manager import AggregateCache
from repro.harness.common import build_components
from repro.harness.config import ExperimentConfig
from repro.schema.cube import Level
from repro.util.tables import render_table
from repro.util.timers import Stopwatch


@dataclass
class KernelCase:
    """One batched-vs-per-chunk comparison at one dataset scale."""

    name: str
    tuples: int
    targets: int
    rows: int
    per_chunk_ms: float
    batched_ms: float

    @property
    def speedup(self) -> float:
        return self.per_chunk_ms / self.batched_ms if self.batched_ms > 0 else 0.0

    def ns_per_tuple(self, ms: float) -> float:
        return ms * 1e6 / self.rows if self.rows else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "tuples": self.tuples,
            "targets": self.targets,
            "rows": self.rows,
            "per_chunk_ms": self.per_chunk_ms,
            "batched_ms": self.batched_ms,
            "per_chunk_ns_per_tuple": self.ns_per_tuple(self.per_chunk_ms),
            "batched_ns_per_tuple": self.ns_per_tuple(self.batched_ms),
            "speedup": self.speedup,
        }


@dataclass
class KernelBenchResult:
    """All kernel cases plus the backend scan throughput."""

    config: ExperimentConfig
    level: Level
    repeats: int
    cases: list[KernelCase] = field(default_factory=list)
    scan_tuples_per_s: float = 0.0

    def case(self, name: str, tuples: int | None = None) -> KernelCase:
        """The case called ``name`` — smallest dataset scale by default."""
        matches = sorted(
            (c for c in self.cases if c.name == name), key=lambda c: c.tuples
        )
        if not matches:
            raise KeyError(name)
        if tuples is None:
            return matches[0]
        for case in matches:
            if case.tuples == tuples:
                return case
        raise KeyError((name, tuples))

    def to_json(self) -> dict:
        return {
            "schema": self.config.schema_name,
            "num_tuples": self.config.num_tuples,
            "bench_level": list(self.level),
            "repeats": self.repeats,
            "python": platform.python_version(),
            "kernels": [case.as_dict() for case in self.cases],
            "backend_scan_tuples_per_s": self.scan_tuples_per_s,
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def format(self) -> str:
        headers = [
            "Kernel", "Tuples", "Targets", "Rows",
            "Per-chunk (ms)", "Batched (ms)",
            "Per-chunk ns/row", "Batched ns/row", "Speedup",
        ]
        rows = [
            [
                case.name,
                case.tuples,
                case.targets,
                case.rows,
                f"{case.per_chunk_ms:.3f}",
                f"{case.batched_ms:.3f}",
                f"{case.ns_per_tuple(case.per_chunk_ms):.0f}",
                f"{case.ns_per_tuple(case.batched_ms):.0f}",
                f"{case.speedup:.1f}x",
            ]
            for case in self.cases
        ]
        table = render_table(
            headers,
            rows,
            title=(
                f"Kernel benchmark: batched vs per-chunk aggregation "
                f"(level {self.level}, best of {self.repeats})."
            ),
        )
        return table + (
            f"\nBackend scan throughput at full scale: "
            f"{self.scan_tuples_per_s / 1e6:.2f} M tuples/s."
        )


def pick_bench_level(schema) -> Level:
    """The non-base level with the most chunks (maximum per-call overhead
    exposure — the regime the batched kernel exists for); ties go to the
    more aggregated level, deterministically."""
    candidates = [l for l in schema.all_levels() if l != schema.base_level]
    return max(candidates, key=lambda l: (schema.num_chunks(l), [-x for x in l]))


def _best_of(repeats: int, run) -> float:
    gc.collect()  # keep collector pauses out of the timed sections
    best = float("inf")
    watch = Stopwatch()
    for _ in range(repeats):
        watch.restart()
        run()
        best = min(best, watch.elapsed_ms())
    return best


def _sweep_configs(config: ExperimentConfig) -> list[ExperimentConfig]:
    """Dataset scales to sweep: the overhead-bound small-chunk regime
    through the throughput-bound full-scale regime.

    The scaled-down points use the plain uniform generator, whose dataset
    size follows ``num_tuples`` directly (the clustered APB generator is
    density-driven and ignores it); the final point is the configuration
    as given.
    """
    sweep = [
        replace(config, num_tuples=tuples, data_mode="uniform")
        for tuples in (1_000, 10_000)
        if tuples < config.num_tuples
    ]
    sweep.append(config)
    return sweep


def _bench_scale(
    config: ExperimentConfig, repeats: int, result: KernelBenchResult
) -> None:
    """Run the three kernel cases for one dataset scale."""
    components = build_components(config)
    schema = components.schema
    backend = components.backend
    level = result.level
    tuples = config.num_tuples
    numbers = list(range(schema.num_chunks(level)))

    # Case 1 — the raw roll-up kernel, base chunks -> bench level.
    base = schema.base_level
    sources_per_target = []
    for number in numbers:
        covering = schema.get_parent_chunk_numbers(level, number, base)
        sources_per_target.append(
            [
                backend.base_chunk(int(n))
                for n in covering
                if not backend.base_chunk(int(n)).is_empty
            ]
        )
    rows = sum(
        c.size_tuples for sources in sources_per_target for c in sources
    )

    def per_chunk_rollup():
        for number, sources in zip(numbers, sources_per_target):
            rollup_chunks(schema, level, number, sources)

    def batched_rollup():
        rollup_many(schema, level, numbers, sources_per_target)

    result.cases.append(
        KernelCase(
            name="rollup",
            tuples=tuples,
            targets=len(numbers),
            rows=rows,
            per_chunk_ms=_best_of(repeats, per_chunk_rollup),
            batched_ms=_best_of(repeats, batched_rollup),
        )
    )

    # Case 2 — the multi-chunk backend fetch (compute wall-clock).
    requests = [(level, n) for n in numbers]

    def per_chunk_fetch():
        for request in requests:
            backend.fetch([request])

    def batched_fetch():
        backend.fetch(requests)

    result.cases.append(
        KernelCase(
            name="backend_fetch",
            tuples=tuples,
            targets=len(requests),
            rows=rows,
            per_chunk_ms=_best_of(repeats, per_chunk_fetch),
            batched_ms=_best_of(repeats, batched_fetch),
        )
    )
    if tuples == result.config.num_tuples:
        _, stats = backend.fetch(requests)
        if stats.compute_ms > 0:
            result.scan_tuples_per_s = stats.tuples_scanned / (
                stats.compute_ms / 1000.0
            )

    # Case 3 — the manager's phase-2 aggregation on VCMC plans with the
    # base level cached (the Figure-10 aggregation-time regime).
    manager = AggregateCache(
        schema,
        backend,
        capacity_bytes=1 << 34,
        strategy="vcmc",
        policy="benefit",
        preload=False,
    )
    manager.preload_levels([base])
    plans = [manager.strategy.find(level, n) for n in numbers]
    plans = [p for p in plans if p is not None and not p.is_leaf]
    plan_rows = sum(
        sum(
            manager.cache.peek(leaf.level, leaf.number).size_tuples
            for leaf in plan.leaves()
        )
        for plan in plans
    )

    def per_plan():
        for plan in plans:
            manager._execute_plans_batched([plan])

    def batched_plans():
        manager._execute_plans_batched(plans)

    result.cases.append(
        KernelCase(
            name="phase2",
            tuples=tuples,
            targets=len(plans),
            rows=plan_rows,
            per_chunk_ms=_best_of(repeats, per_plan),
            batched_ms=_best_of(repeats, batched_plans),
        )
    )


def run_kernel_benchmark(
    config: ExperimentConfig,
    repeats: int = 5,
    out_path: str | Path | None = None,
) -> KernelBenchResult:
    """Run all kernel cases across dataset scales; optionally export
    ``BENCH_kernel.json``."""
    level = pick_bench_level(build_components(config).schema)
    result = KernelBenchResult(config=config, level=level, repeats=repeats)
    previous = set_default_validation(False)
    try:
        for scale_config in _sweep_configs(config):
            _bench_scale(scale_config, repeats, result)
    finally:
        set_default_validation(previous)

    if out_path is not None:
        result.write_json(out_path)
    return result
