"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload session --seed 1 --seconds 15 --trace 0

``--trace 0`` serves the workload's seeded query pool in
:data:`PASSES` passes, each on a fresh set-up (``setup_s`` is the median
set-up), with no instrumentation, checks every answer against a
brute-force group-by of the fact table and prints the end-to-end metrics.
``--trace 1`` serves half the pool untraced, then the same half on a
fresh set-up with every layer wrapped in spans, and prints the per-layer
metrics and the tracing overhead.  See ``perfbench/README.md``.

Each metric is printed as ``<name> <value> <unit>`` after a ``record``
line describing the run; the last line is one JSON object with the
metrics ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Passes of a ``--trace 0`` run, each on its own set-up.  The cache's
#: contents drift with query order, so a few shorter passes from a fresh
#: preload vary less between seeds than one long one; their set-ups are
#: also the samples ``setup_s`` takes the median of.
PASSES = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: apb_tiny@300, for the smoke test")
    parser.add_argument("--race-appends", action="store_true",
                        help="ingest: let append waves race in-flight "
                             "queries (reproduces a known stale-cell "
                             "defect; not a benchmark setting)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import workloads
    from perfbench.truth import GroundTruth
    from repro.aggregation.aggregate import set_default_validation
    from repro.core.sizes import SizeEstimator

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_default_validation(False)
    workdir = ROOT / "perfbench-out"
    workdir.mkdir(exist_ok=True)

    config = workloads.SCALES[args.scale]
    schema = config.make_schema()
    facts = workloads.generate_facts(config, schema)
    # Size calibration is one deterministic pass per group-by; it runs
    # once per process and its time is added to every set-up sample.
    t0 = time.perf_counter()
    sizes = SizeEstimator.exact(schema, facts)
    calibrate_s = time.perf_counter() - t0
    env = workloads.Env(config, schema, sizes, str(workdir))
    warmup, sessions, batches = workloads.make_inputs(
        env, args.workload, args.seed, args.seconds,
        PASSES if args.trace == 0 else 1)
    cap_s = workloads.TIME_CAP * args.seconds
    record = run_record(args, config, facts)

    def flat(parts):
        return [query for part in parts for query in part]

    if args.trace == 0:
        passes = [
            serve(args.workload, env, warmup, flat(sessions[k::PASSES]),
                  batches, cap_s / PASSES, args.race_appends,
                  simulate=True)
            for k in range(PASSES)
        ]
    else:
        # Half the pool untraced, then the same half traced on a fresh
        # set-up: the difference is the tracing overhead.
        from perfbench.tracing import Tracer

        half = flat(sessions[:max(1, len(sessions) // 2)])
        passes = [
            serve(args.workload, env, warmup, half, batches, cap_s / 2,
                  args.race_appends),
            serve(args.workload, env, warmup, half, batches, cap_s / 2,
                  args.race_appends, tracer=Tracer()),
        ]

    truth = GroundTruth(schema, facts)
    for batch in batches[:max(p.timed.generations for p in passes)]:
        truth.add_batch(batch)
    approximate = args.workload == "approx"
    check = workloads.Check()
    for p in passes:
        workloads.check_records(p.warm.records, truth, schema, approximate,
                                check)
        workloads.check_records(p.timed.records, truth, schema, approximate,
                                p.check)
        check.attempted += p.check.attempted
        check.failed += p.check.failed
        check.examples += p.check.examples
        for run in (p.warm, p.timed):
            check.attempted += len(run.append_latency_s)
            check.failed += len(run.append_errors)
            check.examples += run.append_errors

    if args.trace == 0:
        setup_s = [calibrate_s + p.setup_s for p in passes]
        metrics, sim_ms = end_to_end(passes, check,
                                     statistics.median(setup_s))
        record["setup_s_samples"] = setup_s
        record["sim_ms_per_query_samples"] = sim_ms
        mode = "end_to_end"
    else:
        from perfbench import layers

        plain, traced = passes
        tracer = traced.tracer
        plain_qps = len(plain.timed.records) / plain.timed.elapsed_s
        traced_qps = len(traced.timed.records) / traced.timed.elapsed_s
        metrics = layers.per_layer_metrics(
            tracer, len(traced.timed.records), traced.replans,
            plain_qps / traced_qps - 1.0,
        )
        spans_path = workdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record.update(
            spans=len(tracer.spans),
            spans_share_query_ids=tracer.queries_sharing_ids(),
            spans_file=str(spans_path.relative_to(ROOT)),
            untraced_qps=plain_qps,
            traced_qps=traced_qps,
        )
        mode = "per_layer"

    record.update(
        attempted=check.attempted,
        failed=check.failed,
        failures=check.examples,
        cache_bytes=passes[-1].cache_bytes,
        queries=[len(p.timed.records) for p in passes],
        peak_rss_mb_after_pass=[p.rss_mb for p in passes],
        truncated=any(len(p.timed.records) < p.stream_len for p in passes),
    )
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    (workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"record": record, "metrics": {
         name: {"value": value, "unit": unit}
         for name, (value, unit) in metrics.items()
     }}, indent=1, sort_keys=True) + "\n")
    out = {}
    for entry in spec[mode]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"{entry['name']}: unit {unit!r}, "
                             f"BENCHMARK.json says {entry['unit']!r}")
        out[entry["name"]] = {"value": value, "unit": unit}
    correct = check.failed == 0 and record.get("spans_share_query_ids", True)
    print(json.dumps({"correct": bool(correct), "attempted": check.attempted,
                      "failed": check.failed, "metrics": out}))
    return 0


@dataclass
class Pass:
    """One set-up serving path: its warm-up and its measured queries."""

    warm: object
    timed: object
    stream_len: int
    setup_s: float
    replans: int
    rss_mb: float
    cache_bytes: int
    tracer: object
    check: object
    backend_sim_ms: float
    """Σ ``BackendRequestStats.simulated_ms`` of the measured queries."""


def serve(name, env, warmup, stream, batches, seconds, racing_appends,
          simulate=False, tracer=None) -> Pass:
    """Set the path up, warm it up, then serve ``stream`` (stopping early
    after ``seconds``)."""
    from perfbench import workloads

    t0 = time.perf_counter()
    server = workloads.build(name, env)
    setup_s = time.perf_counter() - t0
    try:
        warm = workloads.drive(server, env.schema, warmup, batches=batches,
                               racing_appends=racing_appends)
        replans = server.replans()
        with contextlib.ExitStack() as stack:
            charges: list[float] = []
            if simulate:
                stack.enter_context(simulated_charges(charges))
            if tracer is not None:
                from perfbench import layers

                stack.callback(tracer.unwrap)
                layers.install(tracer,
                               workloads.APPROX_CONTRACT.max_rel_error)
            timed = workloads.drive(
                server, env.schema, stream, seconds=seconds, tracer=tracer,
                batches=batches,
                run=workloads.Run(generations=warm.generations),
                racing_appends=racing_appends,
            )
        replans = server.replans() - replans
        rss_mb = peak_rss_mb(server.worker_pids)
    finally:
        server.close()
    return Pass(warm, timed, len(stream), setup_s, replans, rss_mb,
                server.cache_bytes, tracer, workloads.Check(), sum(charges))


@contextlib.contextmanager
def simulated_charges(charges: list[float]):
    """Collect ``BackendRequestStats.simulated_ms`` of every fetch.  The
    only hook in the untraced run: it reads the returned stats, no clock."""
    from repro.backend.engine import BackendDatabase

    original = BackendDatabase.fetch

    def fetch(self, requests):
        chunks, stats = original(self, requests)
        charges.append(stats.simulated_ms)
        return chunks, stats

    BackendDatabase.fetch = fetch
    try:
        yield charges
    finally:
        BackendDatabase.fetch = original


def end_to_end(passes: list[Pass], check, setup_s: float):
    """Every end-to-end metric as ``name -> (value, unit)``, over the
    measured queries of all passes, and each pass's own
    ``sim_ms_per_query`` (for the run record)."""
    import numpy as np

    from repro.backend import CostModel

    records = [r for p in passes for r in p.timed.records]
    answers = [r.answer for r in records if r.answer is not None]
    latencies_ms = np.array([r.latency_s * 1e3 for r in records])
    appends_s = [t for p in passes for t in p.timed.append_latency_s]
    estimate_errors = [e for p in passes for e in p.check.estimate_errors]
    n = max(len(answers), 1)
    cost = CostModel()
    sim_total_ms, sim_ms = 0.0, []
    for p in passes:
        done = [r.answer for r in p.timed.records if r.answer is not None]
        total = p.backend_sim_ms + sum(
            cost.aggregation_ms(a.tuples_aggregated) for a in done)
        sim_total_ms += total
        sim_ms.append(total / max(len(done), 1))
    metrics = {
        "setup_s": (setup_s, "s"),
        "qps": (len(records) / sum(p.timed.elapsed_s for p in passes), "1/s"),
        "query_p50_ms": (float(np.percentile(latencies_ms, 50)), "ms"),
        "query_p99_ms": (float(np.percentile(latencies_ms, 99)), "ms"),
        "failed_frac": (check.failed / max(check.attempted, 1), "ratio"),
        "complete_hit_ratio": (
            sum(a.complete_hit for a in answers) / n, "ratio"),
        "sim_ms_per_query": (sim_total_ms / n, "ms"),
        "backend_chunks_per_query": (
            sum(a.from_backend for a in answers) / n, "chunks"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
        "exact_coverage": (sum(a.coverage for a in answers) / n, "ratio"),
    }
    if appends_s:
        metrics["append_p50_ms"] = (statistics.median(appends_s) * 1e3, "ms")
    if estimate_errors:
        metrics["estimate_rel_err"] = (
            statistics.fmean(estimate_errors), "ratio")
    return metrics, sim_ms


def peak_rss_mb(worker_pids=()) -> float:
    """Peak resident memory (``VmHWM``) of this process plus its shard
    workers, read while the workers are still alive."""
    total_kb = 0
    for pid in ("self", *worker_pids):
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


def run_record(args, config, facts) -> dict:
    """What a comparison between two runs needs to be audited."""
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "race_appends": args.race_appends,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "schema": config.schema_name,
        "num_tuples": config.num_tuples,
        "fact_rows": facts.num_tuples,
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess);
    ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
