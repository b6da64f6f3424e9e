"""SERVING — Batched decoding throughput: batching beats latency tuning.

The hosted-API deployments the paper leans on (GPT-3, Codex) serve many
callers' prompts through one model; throughput comes from batching, not
from making any single request faster. This benchmark measures decode
throughput (tokens/s) for the same request stream served sequentially
(one ``generate`` call per prompt) and through the batched engine at
microbatch sizes 4 and 8, plus the cost of priming the KV cache
token-at-a-time versus the chunked causal prefill, the prefix-cache
speedup on a few-shot text-to-SQL sweep whose prompts share a long
header, speculative decoding with a distilled 1-layer draft against
plain batched decode on that same sweep, and the int8 weight-quantization
kernel against the fp64 matmul it replaces.
Machine-readable results land in ``benchmarks/BENCH_serving.json`` via
the ``bench_metrics`` fixture.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import CompletionClient, ModelHub
from repro.autograd import no_grad
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.nn import quantize_weight
from repro.serving import BatchRequest, BatchScheduler, distill_draft
from repro.tokenizers import WhitespaceTokenizer

PROMPT_LEN = 16
NEW_TOKENS = 24
N_PROMPTS = 8


@pytest.fixture(scope="module")
def setup():
    model = GPTModel(ModelConfig.small(vocab_size=128), seed=0)
    rng = np.random.default_rng(0)
    prompts = [
        list(map(int, rng.integers(1, 128, size=PROMPT_LEN)))
        for _ in range(N_PROMPTS)
    ]
    return model, prompts


def _sequential_tokens_per_sec(model, prompts, config):
    start = time.perf_counter()
    total = sum(len(generate(model, p, config)) for p in prompts)
    return total / (time.perf_counter() - start)


def _batched_tokens_per_sec(model, prompts, config, batch_size):
    scheduler = BatchScheduler(model, max_batch_size=batch_size)
    for p in prompts:
        scheduler.submit(BatchRequest(p, config))
    start = time.perf_counter()
    results = scheduler.run()
    elapsed = time.perf_counter() - start
    total = sum(len(r.sequences[0]) for r in results.values())
    return total / elapsed


def test_bench_batch_throughput(benchmark, report_printer, bench_metrics, setup):
    model, prompts = setup
    config = GenerationConfig(max_new_tokens=NEW_TOKENS)

    sequential = _sequential_tokens_per_sec(model, prompts, config)
    batch4 = _batched_tokens_per_sec(model, prompts, config, 4)
    batch8 = benchmark.pedantic(
        _batched_tokens_per_sec,
        args=(model, prompts, config, 8),
        rounds=1,
        iterations=1,
    )

    report_printer(
        "SERVING: decode throughput vs batch size "
        f"({N_PROMPTS} prompts x {NEW_TOKENS} tokens)",
        [
            f"{'path':<28}{'tokens/s':>12}{'speedup':>10}",
            f"{'sequential (batch 1)':<28}{sequential:>12.0f}{1.0:>10.1f}x",
            f"{'batched (batch 4)':<28}{batch4:>12.0f}{batch4 / sequential:>10.1f}x",
            f"{'batched (batch 8)':<28}{batch8:>12.0f}{batch8 / sequential:>10.1f}x",
        ],
    )

    bench_metrics["decode_tokens_per_sec_sequential"] = round(sequential, 1)
    bench_metrics["decode_tokens_per_sec_batch8"] = round(batch8, 1)
    bench_metrics["decode_batch8_speedup"] = round(batch8 / sequential, 2)

    # Batched greedy decoding is output-identical to the per-prompt loop,
    # so the speedup is free: require >= 3x at microbatch 8.
    assert batch8 >= 3.0 * sequential
    assert batch4 > sequential


def _token_at_a_time_prefill(model, prompt):
    """The pre-serving priming loop: one forward per prompt token."""
    caches = model.init_cache(batch_size=1, capacity=len(prompt))
    with no_grad():
        for position, token in enumerate(prompt):
            logits = model.forward_chunk(
                np.array([[token]], dtype=np.int64),
                np.array([[position]]),
                caches,
                write_cols=np.array([position]),
                kv_len=position + 1,
            )
    return logits


def _chunked_prefill(model, prompt):
    """One causal forward over the whole prompt."""
    from repro.nn.attention import causal_mask

    length = len(prompt)
    caches = model.init_cache(batch_size=1, capacity=length)
    with no_grad():
        return model.forward_chunk(
            np.array([prompt], dtype=np.int64),
            np.arange(length)[None, :],
            caches,
            blocked=causal_mask(length)[None, None, :, :],
            write_cols=slice(0, length),
            kv_len=length,
        )


def test_bench_chunked_prefill(report_printer, bench_metrics, setup):
    model, _ = setup
    rng = np.random.default_rng(1)
    prompt = list(map(int, rng.integers(1, 128, size=60)))
    repeats = 5

    start = time.perf_counter()
    for _ in range(repeats):
        slow_logits = _token_at_a_time_prefill(model, prompt)
    token_at_a_time = (time.perf_counter() - start) / repeats

    start = time.perf_counter()
    for _ in range(repeats):
        chunk_logits = _chunked_prefill(model, prompt)
    chunked = (time.perf_counter() - start) / repeats

    report_printer(
        f"SERVING: prefill of a {len(prompt)}-token prompt",
        [
            f"{'path':<28}{'ms/prompt':>12}{'speedup':>10}",
            f"{'token-at-a-time priming':<28}{token_at_a_time * 1e3:>12.1f}"
            f"{1.0:>10.1f}x",
            f"{'chunked causal prefill':<28}{chunked * 1e3:>12.1f}"
            f"{token_at_a_time / chunked:>10.1f}x",
        ],
    )

    bench_metrics["prefill_speedup_chunked_vs_token_at_a_time"] = round(
        token_at_a_time / chunked, 2
    )

    # Same next-token logits, much less Python/per-step overhead.
    np.testing.assert_allclose(
        chunk_logits.data[0, -1], slow_logits.data[0, 0], atol=1e-9
    )
    assert chunked * 2.0 <= token_at_a_time


# -- prefix caching on a few-shot text2sql sweep ---------------------------
N_QUERIES = 20
FEWSHOT_SHOTS = [
    ("how many players are there", "select count ( * ) from players"),
    ("list all team names", "select name from teams"),
    ("which players scored over ten", "select name from players where goals > 10"),
    ("average age of players", "select avg ( age ) from players"),
    ("teams founded after 1990", "select name from teams where founded > 1990"),
    ("count teams per city", "select city , count ( * ) from teams group by city"),
    ("oldest player name", "select name from players order by age desc limit 1"),
    ("players on team five", "select name from players where team_id = 5"),
    ("total goals scored", "select sum ( goals ) from players"),
    ("cities with a team", "select distinct city from teams"),
]
QUESTIONS = [
    f"show players with number {i} on their shirt" for i in range(N_QUERIES)
]


def _fewshot_prompt(question: str) -> str:
    """The classic few-shot shape: shared worked examples, new question."""
    header = " ; ".join(f"q : {q} ; sql : {s}" for q, s in FEWSHOT_SHOTS)
    return f"{header} ; q : {question} ; sql :"


@pytest.fixture(scope="module")
def sweep_setup():
    prompts = [_fewshot_prompt(q) for q in QUESTIONS]
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train(prompts, vocab_size=512)
    longest = max(len(tokenizer.encode(p, add_bos=True).ids) for p in prompts)
    # Deep-and-narrow on purpose: the speculative benchmark needs a
    # target whose per-forward cost dwarfs the 1-layer draft's, and at
    # this scale forward cost is dominated by per-layer overhead, not
    # matmul width. The +40 headroom leaves room for a 32-token decode.
    config = ModelConfig(
        vocab_size=tokenizer.vocab_size,
        max_seq_len=longest + 40,
        dim=64,
        num_layers=12,
        num_heads=4,
        ff_dim=256,
        causal=True,
    )
    hub = ModelHub()
    hub.register("sql-bench", GPTModel(config, seed=0), tokenizer)
    return hub, prompts


def _sweep_seconds(client, prompts, max_tokens=6, **kwargs):
    start = time.perf_counter()
    responses = client.complete_batch(
        "sql-bench", prompts, max_tokens=max_tokens, **kwargs
    )
    return time.perf_counter() - start, [r.text for r in responses]


def test_bench_prefix_sweep(report_printer, bench_metrics, sweep_setup):
    """End-to-end few-shot sweep: prefix caching + continuous batching on
    vs. the plain microbatched path (the pre-prefix-cache baseline)."""
    hub, prompts = sweep_setup
    # Warm numpy/model code paths outside the timed region.
    CompletionClient(hub).complete_batch("sql-bench", prompts[:2], max_tokens=2)

    baseline_client = CompletionClient(hub, prefix_cache_bytes=0)
    base_s, base_texts = _sweep_seconds(
        baseline_client, prompts, prefix_caching=False, continuous=False
    )
    cached_client = CompletionClient(hub)
    opt_s, opt_texts = _sweep_seconds(cached_client, prompts)

    stats = cached_client.engine_stats("sql-bench")
    cache = cached_client.prefix_cache("sql-bench")
    hit_rate = cache.stats.hit_rate
    speedup = base_s / opt_s

    report_printer(
        f"SERVING: few-shot text2sql sweep ({N_QUERIES} queries, "
        f"{len(FEWSHOT_SHOTS)}-shot shared header)",
        [
            f"{'path':<34}{'seconds':>10}{'speedup':>10}",
            f"{'microbatched (PR4 baseline)':<34}{base_s:>10.2f}{1.0:>10.1f}x",
            f"{'prefix cache + continuous':<34}{opt_s:>10.2f}{speedup:>10.1f}x",
            f"prefix hits {stats.prefix_hits}, reused tokens "
            f"{stats.prefix_reused_tokens}, hit rate {hit_rate:.2f}",
        ],
    )

    bench_metrics["text2sql_sweep_seconds_baseline"] = round(base_s, 3)
    bench_metrics["text2sql_sweep_seconds_prefix_continuous"] = round(opt_s, 3)
    bench_metrics["text2sql_sweep_speedup"] = round(speedup, 2)
    bench_metrics["text2sql_sweep_prefix_hit_rate"] = round(hit_rate, 3)
    bench_metrics["text2sql_sweep_prefix_reused_tokens"] = int(
        stats.prefix_reused_tokens
    )

    # Same completions, at least twice the throughput (acceptance bar).
    assert opt_texts == base_texts
    assert speedup >= 2.0


# -- speculative decoding on the few-shot text2sql sweep -------------------
def test_bench_speculative_sweep(report_printer, bench_metrics, sweep_setup):
    """Draft-and-verify speculative decoding vs plain batched decode.

    Both sides run the barriered microbatch path with warm prefix
    caches, so the only difference in the timed region is who advances
    the decode: the target one token per forward, or a distilled
    one-layer draft proposing runs the target verifies in one chunk.
    Greedy outputs must be token-identical (acceptance bar).
    """
    hub, prompts = sweep_setup
    entry = hub.get("sql-bench")
    tokenizer = entry.tokenizer
    prompt_ids = [tokenizer.encode(p, add_bos=True).ids for p in prompts]
    draft = distill_draft(
        entry.model, prompt_ids, steps=60, max_new_tokens=32, seed=1
    )
    hub.register("sql-bench-draft", draft, tokenizer)

    base_client = CompletionClient(hub)
    spec_client = CompletionClient(
        hub, speculative_draft="sql-bench-draft", speculative_k=10
    )
    # Warm prefix caches (target and draft) and code paths outside the
    # timed region; the timed sweeps then measure decode, not prefill.
    _sweep_seconds(base_client, prompts, max_tokens=32, continuous=False)
    _sweep_seconds(spec_client, prompts, max_tokens=32)

    tokens_before = base_client.engine_stats("sql-bench").completion_tokens
    rounds = 5
    base_times, spec_times = [], []
    # Interleave the two sides so machine noise hits both equally;
    # min-of-N discards contention outliers.
    for _ in range(rounds):
        b_s, base_texts = _sweep_seconds(
            base_client, prompts, max_tokens=32, continuous=False
        )
        s_s, spec_texts = _sweep_seconds(
            spec_client, prompts, max_tokens=32
        )
        base_times.append(b_s)
        spec_times.append(s_s)
    sweep_tokens = (
        base_client.engine_stats("sql-bench").completion_tokens - tokens_before
    ) / rounds
    base_s, spec_s = min(base_times), min(spec_times)

    stats = spec_client.engine_stats("sql-bench")
    acceptance = stats.acceptance_rate
    base_tps = sweep_tokens / base_s
    spec_tps = sweep_tokens / spec_s
    speedup = spec_tps / base_tps

    report_printer(
        f"SERVING: speculative decoding, {N_QUERIES}-query text2sql sweep "
        "(1-layer distilled draft, k=10, 32 new tokens)",
        [
            f"{'path':<34}{'tokens/s':>10}{'speedup':>10}",
            f"{'plain batched decode':<34}{base_tps:>10.0f}{1.0:>10.2f}x",
            f"{'speculative (draft + verify)':<34}{spec_tps:>10.0f}"
            f"{speedup:>10.2f}x",
            f"draft acceptance {acceptance:.3f} "
            f"({stats.draft_accepted_tokens}/{stats.draft_tokens} proposals), "
            f"{stats.verify_forwards} verify forwards",
        ],
    )

    bench_metrics["speculative_acceptance_rate"] = round(acceptance, 3)
    bench_metrics["speculative_tokens_per_sec"] = round(spec_tps, 1)
    bench_metrics["speculative_vs_batched_speedup"] = round(speedup, 2)

    # Token-identical greedy output, a live draft (not the fallback
    # path), and at least 1.5x plain batched decode (acceptance bar).
    assert spec_texts == base_texts
    assert stats.verify_forwards > 0
    assert acceptance > 0
    assert speedup >= 1.5


# -- int8 weight quantization: kernel throughput and output identity -------
def test_bench_int8_matmul(report_printer, bench_metrics):
    """Dequantize-free int8 projection vs the fp64 baseline matmul."""
    rng = np.random.default_rng(3)
    weight = rng.normal(size=(512, 512))
    x = rng.normal(size=(256, 512))
    w_q, scales = quantize_weight(weight)
    w_q32 = w_q.astype(np.float32)
    x32 = x.astype(np.float32)
    repeats = 20

    def _fp64_seconds():
        start = time.perf_counter()
        for _ in range(repeats):
            x @ weight
        return time.perf_counter() - start

    def _int8_seconds():
        start = time.perf_counter()
        for _ in range(repeats):
            (x32 @ w_q32).astype(np.float64) * scales
        return time.perf_counter() - start

    _fp64_seconds(), _int8_seconds()  # warmup
    fp64_s = min(_fp64_seconds() for _ in range(5))
    int8_s = min(_int8_seconds() for _ in range(5))
    speedup = fp64_s / int8_s

    report_printer(
        "SERVING: int8 weight matmul (256x512 activations, 512x512 weight)",
        [
            f"{'kernel':<34}{'ms/matmul':>12}{'speedup':>10}",
            f"{'fp64 baseline':<34}{fp64_s / repeats * 1e3:>12.3f}"
            f"{1.0:>10.2f}x",
            f"{'int8 weights, fp32 accumulate':<34}"
            f"{int8_s / repeats * 1e3:>12.3f}{speedup:>10.2f}x",
        ],
    )

    bench_metrics["int8_matmul_speedup"] = round(speedup, 2)

    # The int8 path must not lose to the fp64 gemm it replaces
    # (10% tolerance for timer noise).
    assert int8_s <= fp64_s * 1.1


def test_bench_int8_sweep_identity(report_printer, bench_metrics, sweep_setup):
    """Quantized weights must keep the greedy sweep output-identical."""
    hub, prompts = sweep_setup
    base_client = CompletionClient(hub)
    quant_client = CompletionClient(hub, int8_weights=True)
    _, base_texts = _sweep_seconds(base_client, prompts, continuous=False)
    _, quant_texts = _sweep_seconds(quant_client, prompts, continuous=False)
    report = quant_client.quantization_report("sql-bench")

    report_printer(
        "SERVING: int8-quantized sweep vs fp64 weights",
        [
            f"quantized layers {len(report.layers)}, "
            f"compression {report.compression:.2f}x",
            f"max abs weight error {report.max_abs_error:.2e}",
            f"greedy output identical: {quant_texts == base_texts}",
        ],
    )

    bench_metrics["int8_max_abs_weight_error"] = round(
        report.max_abs_error, 6
    )
    bench_metrics["int8_weight_compression"] = round(report.compression, 2)

    assert quant_texts == base_texts
    assert 0.0 < report.max_abs_error < 0.05
