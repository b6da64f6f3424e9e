"""Tests for repro.serving.speculative: draft-and-verify decoding.

The load-bearing property everywhere: greedy speculative output is
**token-identical** to plain decoding — the draft model only changes how
many tokens each target forward advances, never which tokens come out.
Every identity test here asserts it against the cache-free re-encode
oracle ``generate(..., use_cache=False)``, across drafts of every
quality (always-wrong, perfect, distilled).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import CompletionClient, ModelHub
from repro.errors import GenerationError
from repro.generation import GenerationConfig, generate
from repro.models import GPTModel, ModelConfig
from repro.serving import (
    BatchRequest,
    BatchScheduler,
    PrefixCache,
    SpeculativeGenerator,
    distill_draft,
    draft_config,
    engine_serving_stats,
)


@pytest.fixture(scope="module")
def model():
    return GPTModel(ModelConfig.tiny(vocab_size=48), seed=7)


@pytest.fixture(scope="module")
def bad_draft(model):
    """A randomly initialised draft: proposes mostly wrong tokens."""
    return GPTModel(draft_config(model.config, num_layers=1), seed=99)


@pytest.fixture(scope="module")
def ragged_prompts():
    rng = np.random.default_rng(0)
    return [list(map(int, rng.integers(1, 48, size=n))) for n in (3, 9, 1, 12, 6, 4)]


@pytest.fixture(scope="module")
def distilled_draft(model, ragged_prompts):
    return distill_draft(model, ragged_prompts, steps=40, max_new_tokens=10)


def _expected(model, prompts, config, constraint=None, n=1):
    """The oracle: every choice of every prompt re-encoded alone."""
    return [
        [
            generate(
                model, p, dataclasses.replace(config, seed=config.seed + j),
                constraint, use_cache=False,
            )
            for j in range(n)
        ]
        for p in prompts
    ]


class EvenOnly:
    """Constraint fixture: only even ids, abort after six tokens."""

    def __init__(self, vocab):
        self.vocab = vocab

    def allowed_tokens(self, generated_ids):
        if len(generated_ids) >= 6:
            return []
        return list(range(0, self.vocab, 2))


def _mid_run_stop(model, prompts):
    """A greedy config whose stop id lands inside the first k=4 verify
    run: the third token of the first long-enough oracle stream."""
    config = GenerationConfig(max_new_tokens=10)
    for (seq,) in _expected(model, prompts, config):
        if len(seq) >= 4:
            return GenerationConfig(max_new_tokens=10, stop_ids=(seq[2],))
    raise AssertionError("no oracle stream is long enough to stop mid-run")


class TestSlottedCacheRewind:
    def test_truncated_columns_are_overwritten_not_reused(self, model):
        """Rejecting a speculated token is a length rewind: decoding a
        different token into the same column must give the same logits
        as never having decoded the rejected one."""
        from repro.autograd import no_grad
        from repro.nn import chunk_causal_mask

        caches = model.init_cache(batch_size=1, capacity=4)
        fresh = model.init_cache(batch_size=1, capacity=4)
        prompt = np.array([[5, 9, 2]])
        positions = np.arange(3)[None, :]
        blocked = chunk_causal_mask(0, 3)[None, None]

        def step(token, target):
            return model.forward_chunk(
                np.array([[token]]), np.array([[3]]), target,
                write_cols=np.array([3]), kv_len=4,
            )

        with no_grad():
            for target in (caches, fresh):
                model.forward_chunk(
                    prompt, positions, target, blocked=blocked,
                    write_cols=slice(0, 3), kv_len=3,
                )
            step(7, caches)  # optimistically decode 7, then reject it
            np.testing.assert_array_equal(
                step(11, caches).data, step(11, fresh).data
            )


class TestSpeculativeIdentity:
    """Satellite: edge-case sweep, every case asserting token-identity."""

    def test_always_wrong_draft_is_identical(self, model, bad_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        base = _expected(model, ragged_prompts, config)
        spec = SpeculativeGenerator(model, bad_draft, k=3)
        out = spec.generate([BatchRequest(p, config) for p in ragged_prompts])
        assert [r.sequences for r in out] == base
        # Even a useless draft must not fall back to plain decode.
        assert spec.stats.verify_forwards > 0
        assert spec.stats.draft_tokens > 0

    def test_perfect_draft_accepts_everything(self, model, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        base = _expected(model, ragged_prompts, config)
        spec = SpeculativeGenerator(model, model, k=4)
        out = spec.generate([BatchRequest(p, config) for p in ragged_prompts])
        assert [r.sequences for r in out] == base
        assert spec.stats.acceptance_rate == 1.0

    def test_distilled_draft_is_identical(self, model, distilled_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        base = _expected(model, ragged_prompts, config)
        spec = SpeculativeGenerator(model, distilled_draft, k=4)
        out = spec.generate([BatchRequest(p, config) for p in ragged_prompts])
        assert [r.sequences for r in out] == base
        assert spec.stats.acceptance_rate > 0.0

    def test_stop_token_inside_accepted_run(self, model, ragged_prompts):
        """A stop id hit mid-run must end the sequence exactly where the
        oracle ends it, discarding the speculated tail."""
        stopped = _mid_run_stop(model, ragged_prompts)
        base = _expected(model, ragged_prompts, stopped)
        spec = SpeculativeGenerator(model, model, k=4)
        out = spec.generate([BatchRequest(p, stopped) for p in ragged_prompts])
        assert [r.sequences for r in out] == base

    def test_constraints_and_multi_choice(self, model, distilled_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        constraint = EvenOnly(model.config.vocab_size)
        base = _expected(model, ragged_prompts, config, constraint, n=2)
        spec = SpeculativeGenerator(model, distilled_draft, k=3)
        out = spec.generate(
            [
                BatchRequest(p, config, constraint=constraint, n=2)
                for p in ragged_prompts
            ]
        )
        assert [r.sequences for r in out] == base
        for result in out:
            assert len(result.sequences) == 2
            for seq in result.sequences:
                assert all(t % 2 == 0 for t in seq)

    def test_sampled_requests_fall_back_to_plain_engine(self, model, bad_draft, ragged_prompts):
        config = GenerationConfig(
            max_new_tokens=8, strategy="sample", temperature=0.8, seed=5
        )
        base = _expected(model, ragged_prompts, config)
        spec = SpeculativeGenerator(model, bad_draft, k=3)
        out = spec.generate([BatchRequest(p, config) for p in ragged_prompts])
        assert [r.sequences for r in out] == base
        assert spec.stats.verify_forwards == 0  # no speculative work

    def test_oversized_prompt_uses_sequential_fallback(self, model, bad_draft):
        rng = np.random.default_rng(4)
        big = list(map(int, rng.integers(1, 48, size=60)))
        config = GenerationConfig(max_new_tokens=20)
        spec = SpeculativeGenerator(model, bad_draft, k=3)
        out = spec.generate([BatchRequest(big, config)])
        assert out[0].batched is False
        assert out[0].sequences == _expected(model, [big], config)[0]

    def test_speculative_path_exercised_guard(self, model, distilled_draft, ragged_prompts):
        """Tier-1 guard: the sweep must actually run the speculative
        loop — draft proposals made, verify forwards issued, and fewer
        target decode passes than tokens generated."""
        config = GenerationConfig(max_new_tokens=10)
        spec = SpeculativeGenerator(model, distilled_draft, k=4)
        spec.generate([BatchRequest(p, config) for p in ragged_prompts])
        stats = spec.stats
        assert stats.draft_tokens > 0
        assert stats.verify_forwards > 0
        assert stats.draft_accepted_tokens > 0
        # With any acceptance at all, verify rounds < generated tokens.
        assert stats.verify_forwards < stats.generated_tokens
        assert stats.sequential_fallbacks == 0
        assert stats.decode_steps == 0  # plain decode loop never ran


class TestSpeculativeBatchOfOne:
    """One request per call — how ``CompletionClient.complete`` drives a
    speculative engine."""

    @pytest.mark.parametrize("draft_name", ["bad_draft", "distilled_draft"])
    def test_each_prompt_alone_matches_oracle(
        self, request, model, ragged_prompts, draft_name
    ):
        draft = request.getfixturevalue(draft_name)
        config = GenerationConfig(max_new_tokens=10)
        spec = SpeculativeGenerator(model, draft, k=3)
        expected = _expected(model, ragged_prompts, config)
        for prompt, want in zip(ragged_prompts, expected):
            (result,) = spec.generate([BatchRequest(prompt, config)])
            assert result.sequences == want
        assert spec.stats.verify_forwards > 0

    def test_constraint_alone(self, model, bad_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        constraint = EvenOnly(model.config.vocab_size)
        spec = SpeculativeGenerator(model, bad_draft, k=3)
        expected = _expected(model, ragged_prompts[:3], config, constraint)
        for prompt, want in zip(ragged_prompts[:3], expected):
            (result,) = spec.generate(
                [BatchRequest(prompt, config, constraint=constraint)]
            )
            assert result.sequences == want

    def test_stop_inside_run_alone(self, model, ragged_prompts):
        stopped = _mid_run_stop(model, ragged_prompts)
        spec = SpeculativeGenerator(model, model, k=4)
        expected = _expected(model, ragged_prompts, stopped)
        for prompt, want in zip(ragged_prompts, expected):
            (result,) = spec.generate([BatchRequest(prompt, stopped)])
            assert result.sequences == want


class TestSpeculativeValidation:
    def test_nonpositive_k_rejected(self, model, bad_draft):
        with pytest.raises(GenerationError):
            SpeculativeGenerator(model, bad_draft, k=0)

    def test_vocab_mismatch_rejected(self, model):
        other = GPTModel(ModelConfig.tiny(vocab_size=32), seed=1)
        with pytest.raises(GenerationError):
            SpeculativeGenerator(model, other)

    def test_draft_config_bounds(self, model):
        assert draft_config(model.config, 1).num_layers == 1
        with pytest.raises(GenerationError):
            draft_config(model.config, 0)
        with pytest.raises(GenerationError):
            draft_config(model.config, model.config.num_layers + 1)

    def test_distill_requires_prompts(self, model):
        with pytest.raises(GenerationError):
            distill_draft(model, [])


class TestSpeculativeScheduler:
    def test_scheduler_with_draft_is_identical(self, model, distilled_draft, ragged_prompts):
        config = GenerationConfig(max_new_tokens=10)
        plain = BatchScheduler(model, max_batch_size=4)
        spec = BatchScheduler(
            model, max_batch_size=4, draft_model=distilled_draft, speculative_k=4
        )
        plain_tickets = [plain.submit(BatchRequest(p, config)) for p in ragged_prompts]
        spec_tickets = [spec.submit(BatchRequest(p, config)) for p in ragged_prompts]
        plain_results = plain.run()
        spec_results = spec.run()
        expected = _expected(model, ragged_prompts, config)
        assert [plain_results[t].sequences for t in plain_tickets] == expected
        assert [spec_results[t].sequences for t in spec_tickets] == expected
        assert spec.stats.verify_forwards > 0
        assert spec.stats.draft_tokens > 0
        assert 0.0 < spec.stats.acceptance_rate <= 1.0

    def test_continuous_with_draft_rejected(self, model, bad_draft):
        with pytest.raises(GenerationError):
            BatchScheduler(model, draft_model=bad_draft, continuous=True)

    def test_prefix_caches_stay_separate(self, model, distilled_draft, ragged_prompts):
        """Target and draft prefix caches must never mix K/V states."""
        config = GenerationConfig(max_new_tokens=6)
        target_cache = PrefixCache()
        draft_cache = PrefixCache()
        scheduler = BatchScheduler(
            model,
            draft_model=distilled_draft,
            prefix_cache=target_cache,
            draft_prefix_cache=draft_cache,
        )
        for p in ragged_prompts:
            scheduler.submit(BatchRequest(p, config))
        results = scheduler.run()
        assert [results[t].sequences for t in sorted(results)] == _expected(
            model, ragged_prompts, config
        )
        assert target_cache.stats.inserted_tokens > 0
        assert draft_cache.stats.inserted_tokens > 0


@pytest.fixture(scope="module")
def spec_hub(tiny_gpt, word_tokenizer, corpus):
    hub = ModelHub()
    hub.register("tiny-gpt", tiny_gpt, word_tokenizer)
    sentences = [" ".join(doc.split()[:4]) for doc in corpus[:8]]
    prompts = [
        word_tokenizer.encode(s, add_bos=True).ids for s in sentences
    ]
    draft = distill_draft(tiny_gpt, prompts, steps=40, max_new_tokens=8)
    hub.register("tiny-draft", draft, word_tokenizer)
    return hub, sentences[:6]


class TestSpeculativeClient:
    def test_complete_batch_identity_and_stats(self, spec_hub):
        hub, prompts = spec_hub
        base = CompletionClient(hub).complete_batch(
            "tiny-gpt", prompts, max_tokens=8
        )
        client = CompletionClient(
            hub, speculative_draft="tiny-draft", speculative_k=4
        )
        out = client.complete_batch("tiny-gpt", prompts, max_tokens=8)
        assert [r.text for r in out] == [r.text for r in base]
        stats = engine_serving_stats(client, "tiny-gpt")
        assert stats["verify_forwards"] > 0
        assert stats["draft_tokens"] > 0
        assert 0.0 < stats["acceptance_rate"] <= 1.0

    def test_complete_single_identity(self, spec_hub):
        hub, prompts = spec_hub
        base = CompletionClient(hub).complete("tiny-gpt", prompts[0], max_tokens=8)
        client = CompletionClient(hub, speculative_draft="tiny-draft")
        assert client.complete("tiny-gpt", prompts[0], max_tokens=8).text == base.text

    def test_sampled_batch_still_identical(self, spec_hub):
        hub, prompts = spec_hub
        base = CompletionClient(hub).complete_batch(
            "tiny-gpt", prompts, max_tokens=6, temperature=0.8, seed=3
        )
        client = CompletionClient(hub, speculative_draft="tiny-draft")
        out = client.complete_batch(
            "tiny-gpt", prompts, max_tokens=6, temperature=0.8, seed=3
        )
        assert [r.text for r in out] == [r.text for r in base]
