"""Smoke test of the benchmark: every workload at tiny size, both modes.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Every per-layer metric the traced run must print, on every workload.
LAYER_METRICS = (
    "strategies.find_calls", "strategies.find_ms",
    "strategies.visits_per_find",
    "plans.hit_ratio", "plans.store_ms", "plans.bump_ms",
    "maint.calls", "maint.ms", "maint.keys_per_call",
    "aggregation.calls", "aggregation.ms", "aggregation.rows_per_call",
    "backend.fetches", "backend.fetch_ms", "backend.sim_ms",
    "backend.tuples_scanned", "backend.append_ms",
    "cache.insert_ms", "cache.inserts", "cache.evictions",
    "cache.replace_ms", "cache.reinforce_skipped",
    "service.read_wait_ms", "service.write_wait_ms", "service.replans",
    "singleflight.join_ratio", "singleflight.wait_ms", "service.refresh_ms",
    "wire.encode_ms", "shard.rpc_ms", "shard.pipe_ms", "wire.decode_ms",
    "merge.ms", "shard.fanout",
    "shard.lookup_ms", "shard.aggregate_ms", "shard.update_ms",
    "approx.calls", "approx.ms", "approx.chunks", "approx.accept_ratio",
    "trace.overhead",
)

#: Printed only where they apply (see perfbench/README.md).
WORKLOAD_ONLY = {"ingest": ("append_p50_ms",), "approx": ("estimate_rel_err",)}


def run_bench(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    printed = {}
    for line in lines[1:-1]:
        name, value, unit = line.split()
        printed[name] = (float(value), unit)
    return json.loads(lines[0][len("record "):]), printed, json.loads(lines[-1])


def check_result(result, listed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    record, printed, result = run_bench(workload, 0)
    check_result(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert printed[metric["name"]][1] == metric["unit"]
    for name in ("query_p50_ms", "query_p99_ms", "complete_hit_ratio",
                 "exact_coverage", "failed_frac", "backend_chunks_per_query",
                 *WORKLOAD_ONLY.get(workload, ())):
        assert name in printed
    assert record["nproc"] >= 1 and record["cache_bytes"] > 0
    assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    record, printed, result = run_bench(workload, 1)
    check_result(result, SPEC["per_layer"])
    for name in LAYER_METRICS:
        assert name in printed, name
    assert record["spans"] > 0 and record["spans_share_query_ids"]
    assert (ROOT / record["spans_file"]).is_file()


def test_a_perturbed_cell_fails_the_check(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.truth import GroundTruth
    from repro.core.sizes import SizeEstimator

    config = workloads.SCALES["tiny"]
    schema = config.make_schema()
    facts = workloads.generate_facts(config, schema)
    env = workloads.Env(config, schema, SizeEstimator.exact(schema, facts),
                        str(tmp_path))
    warmup, sessions, _ = workloads.make_inputs(env, "session", 3, 1)
    queries = warmup + [query for session in sessions for query in session]
    server = workloads.build("session", env)
    try:
        results = [server.call(query) for query in queries]
    finally:
        server.close()

    def check(answers):
        records = [workloads.Record(q, workloads.summarize(schema, r), None, 0.0)
                   for q, r in zip(queries, answers)]
        return workloads.check_records(records, GroundTruth(schema, facts),
                                       schema, approximate=False)

    assert check(results).failed == 0
    index = next(i for i, r in enumerate(results)
                 if r.chunks and r.chunks[0].size_tuples)
    chunk = results[index].chunks[0]
    values = chunk.values.copy()
    values[0] += 1.0
    perturbed = list(results)
    perturbed[index] = dataclasses.replace(
        results[index],
        chunks=[dataclasses.replace(chunk, values=values),
                *results[index].chunks[1:]],
    )
    outcome = check(perturbed)
    assert outcome.failed == 1
    assert outcome.failed / outcome.attempted > 0
