"""End-to-end NL -> SQL benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nl2sql_repeat --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``nl2sql_repeat``
(open loop through a ``Gateway``), ``nl2sql_batch`` (offline
``translate_batch``) and ``cluster_mixed`` (closed loop on a 3-shard
``ClusterDatabase``).

``--trace 0`` sets up several times (``setup_s`` is their median),
measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` measures half the time untraced and half traced, on the
same inputs, and prints the per-layer metrics. Both check every answer;
the last line of standard output is one JSON object.

The translator is trained once per checkout into
``.bench_build/perfbench/translator`` by ``prepare.py``, in a child
process, so neither training time nor its memory shows in a run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
TRANSLATOR = BUILD / "translator"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("nl2sql_repeat", "nl2sql_batch", "cluster_mixed")
#: entity-table rows: small tables where serving dominates, large enough
#: on the cluster that SQL is most of each request
TABLE_ROWS = {"nl2sql_repeat": 200, "nl2sql_batch": 200, "cluster_mixed": 2000}
SETUPS = 3
PREPARE_TIMEOUT = 800

STAGES = (
    "loadgen.lag", "tokenizers.encode", "gateway.submit", "gateway.admit",
    "semcache.lookup", "gateway.queue_wait", "engine.service", "gateway.resume",
    "client.complete", "client.complete_batch", "tokenizers.decode",
    "text2sql.parse", "sql.execute", "sql.write", "cluster.execute",
    "cluster.write", "request",
)
STRATEGIES = ("scatter", "partial-aggregate", "gather", "single-shard")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def slo_limit_ms() -> float:
    """The latency limit, fixed once in BENCHMARK.json's metric name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        found = re.fullmatch(r"slo_attainment_(\d+)ms", metric["name"])
        if found:
            return float(found.group(1))
    raise ValueError("BENCHMARK.json names no slo_attainment_<N>ms metric")


def ensure_translator() -> None:
    if TRANSLATOR.exists():
        return
    staging = BUILD / f"translator.{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), str(staging)],
        env=env, check=True, timeout=PREPARE_TIMEOUT,
    )
    try:
        staging.rename(TRANSLATOR)
    except OSError:  # another run finished training first
        shutil.rmtree(staging, ignore_errors=True)


def percentile_ms(values, q):
    from repro.serving.loadgen import percentile

    return 1e3 * percentile(values, q) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def run_phase(workload, inputs, seconds, tracer, setups):
    import workloads as w

    if workload == "nl2sql_repeat":
        return w.run_open_loop(TRANSLATOR, inputs, seconds, tracer, setups)
    if workload == "nl2sql_batch":
        return w.run_batch(TRANSLATOR, inputs, seconds, tracer, setups)
    home = BUILD / "cluster" / str(os.getpid())
    try:
        return w.run_cluster(TRANSLATOR, inputs, seconds, tracer, setups, home)
    finally:
        shutil.rmtree(home.parent, ignore_errors=True)


def check_phase(workload, inputs, phase, record_key):
    """Run every answer check on one phase; returns (problems, accuracy)."""
    import checks
    import workloads as w

    problems = checks.warmup_disjoint(inputs.warmup, inputs.pool)
    problems += checks.all_answered(phase.ops)
    replayed, matches = checks.replay(lambda: w.build_database(inputs), phase.log)
    problems += replayed[:5]
    problems += checks.consistent_translations(phase.ops)[:5]
    digest = checks.translation_digest(phase.ops)
    problems += checks.digest_matches_record(BUILD / "digests" / f"{record_key}.json", digest)
    counters = phase.counters
    lookups = counters.get("semcache.lookups", 0.0)
    hit_rate = counters.get("semcache.hits", 0.0) / lookups if lookups else 0.0
    if workload == "nl2sql_repeat":
        print(f"semcache hit rate {hit_rate:.4f}, generated repeat share {phase.repeat_share:.4f}")
        problems += checks.repeat_hit_rate(hit_rate, phase.repeat_share)
        problems += checks.first_sends_miss(phase.ops)[:5]
    # Score each distinct question once, at its first answer: popular
    # repeats would otherwise let a few questions swing the share.
    first = {}
    for op in sorted((op for op in phase.ops if op.index in matches), key=lambda op: op.index):
        first.setdefault(op.question.text, matches[op.index])
    accuracy = sum(first.values()) / len(first) if first else 0.0
    print(f"exec_accuracy {accuracy:.4f} over {len(first)} distinct checked questions, "
          f"sql digest {digest[:16]}")
    return problems, accuracy


def accounting(name, phase):
    ops = phase.ops
    counts = {k: sum(op.outcome == k for op in ops) for k in ("shed", "expired", "failed")}
    succeeded = sum(op.outcome == "ok" for op in ops)
    print(f"phase {name}: sent {len(ops)} succeeded {succeeded} shed {counts['shed']} "
          f"expired {counts['expired']} failed {counts['failed']}")
    return len(ops), counts["shed"] + counts["expired"] + counts["failed"]


def read_latencies(phase):
    return [op.latency for op in phase.ops if op.question is not None and op.outcome == "ok"]


def end_to_end(phase, setup_times, accuracy, slo_ms):
    reads = [op for op in phase.ops if op.question is not None]
    latencies = read_latencies(phase)
    writes = [op.latency for op in phase.ops if op.question is None and op.outcome == "ok"]
    bad = sum(op.outcome != "ok" for op in phase.ops)
    within = sum(1 for value in latencies if value * 1e3 <= slo_ms)
    print(f"samples: {len(latencies)} reads, {len(writes)} writes over {phase.wall:.2f}s")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "latency_p90_ms": (percentile_ms(latencies, 90), "ms"),
        f"slo_attainment_{int(slo_ms)}ms": (within / len(reads), "fraction"),
        "throughput_qps": (len(latencies) / phase.wall, "questions/s"),
        "tokens_per_s": (phase.generated_tokens / phase.wall, "tokens/s"),
        "exec_accuracy": (accuracy, "fraction"),
        "success_rate": (1.0 - bad / len(phase.ops), "fraction"),
        "write_latency_p50_ms": (percentile_ms(writes, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(phase, system, tracer, untraced_p50_ms):
    from spans import summarize
    from workloads import MAX_BATCH

    spans = tracer.spans

    def span_mean(name, scale):
        return scale * mean([s.end - s.start for s in spans if s.name == name])

    c = phase.counters
    stages = summarize(spans, root="request")
    service = [s.end - s.start for s in spans if s.name == "engine.service" and s.rid is None]
    service = service or [s.end - s.start for s in spans if s.name == "client.complete_batch"]
    service = service or [s.end - s.start for s in spans if s.name == "client.complete"]
    steps = c.get("engine.decode_steps", 0.0)
    prompt = c.get("prefix.prompt_tokens", 0.0)
    lookups = c.get("semcache.lookups", 0.0)
    write_latencies = [op.latency for op in phase.ops if op.question is None]
    writes = len(write_latencies)
    queue_waits = getattr(system, "queue_waits", [])
    batch_sizes = getattr(system, "batch_sizes", [])
    traced_p50 = percentile_ms(read_latencies(phase), 50)
    metrics = {
        "engine.service_ms": (1e3 * mean(service), "ms"),
        "engine.decode_steps": (steps, "count"),
        "engine.prefill_chunks": (c.get("engine.prefill_chunks", 0.0), "count"),
        "engine.tokens_per_step": (c.get("engine.generated_tokens", 0.0) / steps if steps else 0.0, "tokens"),
        "gateway.admit_us": (span_mean("gateway.admit", 1e6), "us"),
        "gateway.queue_wait_p50_ms": (percentile_ms(queue_waits, 50), "ms"),
        "gateway.queue_wait_p99_ms": (percentile_ms(queue_waits, 99), "ms"),
        "gateway.batch_occupancy": (
            mean(batch_sizes) / MAX_BATCH, "fraction"),
        "gateway.shed": (c.get("gateway.shed", 0.0), "count"),
        "semcache.hit_rate": (c.get("semcache.hits", 0.0) / lookups if lookups else 0.0, "fraction"),
        "semcache.lookup_us": (span_mean("semcache.lookup", 1e6), "us"),
        "prefix.reuse_share": (c.get("prefix.reused_tokens", 0.0) / prompt if prompt else 0.0, "fraction"),
        "client.complete_ms": (span_mean("client.complete", 1e3), "ms"),
        "client.complete_batch_ms": (span_mean("client.complete_batch", 1e3), "ms"),
        "tokenizers.encode_us": (span_mean("tokenizers.encode", 1e6), "us"),
        "tokenizers.decode_us": (span_mean("tokenizers.decode", 1e6), "us"),
        "text2sql.parse_us": (span_mean("text2sql.parse", 1e6), "us"),
        "sql.execute_ms": (span_mean("sql.execute", 1e3), "ms"),
        "sql.rows_scanned": (mean(system.rows_scanned), "rows"),
        "cluster.execute_ms": (span_mean("cluster.execute", 1e3), "ms"),
        "cluster.write_ms": (span_mean("cluster.write", 1e3), "ms"),
        "cluster.shipped_bytes_per_write": (
            c.get("cluster.shipped_bytes", 0.0) / writes if writes else 0.0, "bytes"),
        "cluster.max_lag_records": (c.get("cluster.max_lag_records", 0.0), "count"),
        "writes.latency_p90_ms": (percentile_ms(write_latencies, 90), "ms"),
        "loadgen.lag_p99_ms": (percentile_ms(phase.lags, 99), "ms"),
        "trace.unattributed_share": (stages["unattributed_share"], "fraction"),
        "trace.overhead": (traced_p50 / untraced_p50_ms if untraced_p50_ms else 0.0, "ratio"),
    }
    for strategy in STRATEGIES:
        metrics[f"cluster.strategy.{strategy}"] = (c.get(f"cluster.strategy.{strategy}", 0.0), "count")
    for stage in STAGES:
        metrics[f"self.{stage}_ms"] = (stages.get(stage, 0.0), "ms")
    total = sum(stages.get(stage, 0.0) for stage in STAGES)
    print(f"stage self-times sum to {total:.3f} ms per request; "
          f"unattributed share {stages['unattributed_share']:.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        return fail(f"no program sources under {SRC}; run from the repository root")
    # One event loop plus one decode thread: keep BLAS single-threaded.
    # Set before numpy is first imported, and inherited by prepare.py.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Run on one CPU, before any thread starts (threads inherit it). The
    # program's threads take turns on the GIL, so a second CPU adds no
    # speed; it adds hand-offs between CPUs, which made the cluster
    # workload's latency differ by a third from one process to the next.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    slo_ms = slo_limit_ms()
    ensure_translator()

    import checks
    from inputs import make_inputs
    from repro.tokenizers.serialize import load_tokenizer
    from spans import NullTracer, Tracer

    inputs = make_inputs(args.seed, load_tokenizer(TRANSLATOR / "tokenizer.json"),
                         TABLE_ROWS[args.workload])
    key = f"{args.workload}-seed{args.seed}-s{args.seconds:g}-trace{args.trace}"
    problems = []
    if args.trace == 0:
        setup_times, phase, _ = run_phase(args.workload, inputs, args.seconds, NullTracer(), SETUPS)
        attempted, failed = accounting("measured", phase)
        found, accuracy = check_phase(args.workload, inputs, phase, key)
        problems += found
        metrics = end_to_end(phase, setup_times, accuracy, slo_ms)
    else:
        half = args.seconds / 2
        _, plain, _ = run_phase(args.workload, inputs, half, NullTracer(), 1)
        accounting("untraced", plain)
        found, _ = check_phase(args.workload, inputs, plain, key)
        problems += found
        tracer = Tracer()
        _, phase, system = run_phase(args.workload, inputs, half, tracer, 1)
        attempted, failed = accounting("traced", phase)
        found, _ = check_phase(args.workload, inputs, phase, key)
        problems += found
        if checks.translation_digest(plain.ops) != checks.translation_digest(phase.ops):
            problems.append("tracing changed the generated SQL")
        metrics = per_layer(phase, system, tracer, percentile_ms(read_latencies(plain), 50))
        if metrics["trace.unattributed_share"][0] > 0.05:
            problems.append("traced stages leave more than 5% of latency unattributed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
