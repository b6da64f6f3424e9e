"""Speculative decoding: a draft model proposes, the target verifies.

Plain autoregressive decoding pays one full target-model forward per
token. Speculative decoding (the "draft-and-verify" scheme named as the
standard decode-speed rung by the implementation survey in PAPERS.md,
arXiv 2403.18969) breaks that serialization for *greedy* decoding
without changing a single output token:

1. a small **draft** model proposes ``k`` tokens autoregressively
   (cheap — the draft has fewer layers);
2. the **target** model scores the whole proposed run in **one** chunked
   forward over ``k + 1`` positions (barely more expensive than a
   single-token decode step, because the per-forward Python/BLAS
   overhead dominates at these widths);
3. the proposals are compared against the target's own greedy picks
   position by position: the accepted prefix is emitted as-is, the first
   mismatch is replaced by the **target's** token (so output never
   depends on draft quality), and when every proposal survives, the
   verify forward's last logits yield a free *bonus* token.

Because every emitted token is the target's greedy argmax given exactly
the tokens before it, the output is token-identical to
:class:`~repro.serving.engine.BatchedGenerator` — the draft only decides
how many tokens each target forward advances. Acceptance rate therefore
buys throughput, never correctness.

Cache discipline: draft and target each keep their own KV cache in the
slotted per-row layout of the serving engine, where rejecting a tail is
a per-row *length* rewind: stale columns beyond a row's verified length
are never attended (the blocked mask hides them) and the next verify
chunk overwrites them in place. A single sequence is a batch of one.

Sampled requests fall back to the plain engine (speculative identity
here is a greedy-argmax argument; matching a sampler's RNG stream
token-for-token is a different contract), as do requests that do not
fit either model's context window.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, cross_entropy, no_grad
from repro.errors import GenerationError
from repro.generation.decoding import GenerationConfig, _next_token
from repro.models.config import ModelConfig
from repro.models.gpt import GPTModel
from repro.serving.engine import (
    BatchedGenerator,
    BatchRequest,
    BatchResult,
    _ChoiceState,
    _compact,
    _fork,
)
from repro.serving.prefix import PrefixCache

#: default number of tokens the draft proposes per verify forward
DEFAULT_DRAFT_K = 4

#: filler id for rows whose draft aborted proposing early (constraint
#: dead end); never credited as accepted because the accept scan stops
#: before reaching it.
_PAD_TOKEN = 0


class SpeculativeGenerator:
    """Batched speculative decoding with the serving engine's contract.

    Drop-in alternative to :class:`~repro.serving.engine.BatchedGenerator`
    for the microbatching scheduler: same :meth:`generate` signature,
    same :class:`~repro.serving.engine.BatchResult` ordering, same
    ``stats`` object (the plain engine it wraps shares the instance, so
    fallback work and speculative work land in one
    :class:`~repro.serving.engine.GeneratorStats`).

    Greedy requests that fit both context windows run the speculative
    loop — including constraint masks (applied to draft proposals *and*
    verify picks) and ``n > 1`` choice forking. Everything else is
    served by the wrapped plain engine, so callers never see a behavior
    cliff. ``draft_prefix_cache`` gives the draft model its own prompt
    K/V reuse (draft and target states are different shapes and must
    never share a cache).

    Shared state: ``stats`` and both prefix caches mutate without
    synchronization, exactly like the plain engine — one caller at a
    time (see the :mod:`repro.analysis.concurrency` audit).
    """

    def __init__(
        self,
        model: GPTModel,
        draft: GPTModel,
        k: int = DEFAULT_DRAFT_K,
        prefill_chunk: Optional[int] = None,
        prefix_cache: Optional[PrefixCache] = None,
        draft_prefix_cache: Optional[PrefixCache] = None,
    ) -> None:
        if k <= 0:
            raise GenerationError("speculative k must be positive")
        if draft.config.vocab_size != model.config.vocab_size:
            raise GenerationError(
                f"draft vocab {draft.config.vocab_size} != "
                f"target vocab {model.config.vocab_size}"
            )
        self.model = model
        self.draft = draft
        self.k = k
        self.engine = BatchedGenerator(
            model, prefill_chunk=prefill_chunk, prefix_cache=prefix_cache
        )
        self.draft_engine = BatchedGenerator(
            draft, prefill_chunk=prefill_chunk, prefix_cache=draft_prefix_cache
        )
        # One stats surface: speculative counters and fallback work
        # accumulate on the same GeneratorStats instance.
        self.stats = self.engine.stats

    @property
    def prefix_cache(self) -> Optional[PrefixCache]:
        return self.engine.prefix_cache

    def generate(self, requests: Sequence[BatchRequest]) -> List[BatchResult]:
        """Serve ``requests`` in one batch; order follows the input."""
        results: List[Optional[BatchResult]] = [None] * len(requests)
        speculative: List[int] = []
        plain: List[int] = []
        for i, request in enumerate(requests):
            if request.config.strategy == "greedy" and self._fits(request):
                speculative.append(i)
            else:
                plain.append(i)
        if plain:
            served = self.engine.generate([requests[i] for i in plain])
            for i, result in zip(plain, served):
                results[i] = result
        if speculative:
            self.model.eval()
            self.draft.eval()
            with no_grad():
                served = self._run([requests[i] for i in speculative])
            for i, result in zip(speculative, served):
                results[i] = result
        return [r for r in results if r is not None]

    def _fits(self, request: BatchRequest) -> bool:
        max_len = min(
            self.model.config.max_seq_len, self.draft.config.max_seq_len
        )
        return len(request.prompt_ids) + request.config.max_new_tokens <= max_len

    # -- the speculative batch loop ----------------------------------------
    def _run(self, requests: Sequence[BatchRequest]) -> List[BatchResult]:
        prompt_lengths = np.array([len(r.prompt_ids) for r in requests])
        max_seq_len = min(
            self.model.config.max_seq_len, self.draft.config.max_seq_len
        )
        # Verify chunks may overshoot a row's own prompt+max_new end by
        # up to k - 1 columns (rows near retirement ride along with the
        # batch's uniform chunk width), so the slabs get k spare columns.
        capacity = int(
            min(
                max(
                    len(r.prompt_ids) + r.config.max_new_tokens
                    for r in requests
                )
                + self.k,
                max_seq_len,
            )
        )
        tcaches = self.model.init_cache(
            batch_size=len(requests), capacity=capacity
        )
        dcaches = self.draft.init_cache(
            batch_size=len(requests), capacity=capacity
        )
        self.engine._seed_shared_prefix(requests)
        next_logits = self.engine._prefill(requests, prompt_lengths, tcaches)
        self.draft_engine._seed_shared_prefix(requests)
        self.draft_engine._prefill(requests, prompt_lengths, dcaches)

        # committed[r] tokens per row = prompt + generated; invariant
        # between rounds: all but the LAST committed token sit verified
        # in the target cache (t_lens), the draft cache may trail by one
        # more (d_lens).
        caches = tcaches + dcaches
        states, (next_logits, t_lens) = _fork(
            list(enumerate(requests)), caches, (next_logits, prompt_lengths)
        )
        d_lens = t_lens.copy()

        results = [BatchResult(sequences=[]) for _ in requests]
        # Bootstrap: commit each row's first token from the prefill
        # logits (the plain engine's _advance handles stop/max/retire).
        keep = self.engine._advance(states, next_logits, results)
        states, (t_lens, d_lens) = _compact(keep, states, (t_lens, d_lens), caches)

        while states:
            self.stats.peak_active = max(self.stats.peak_active, len(states))
            committed_len = t_lens + 1
            remaining = np.array(
                [
                    s.config.max_new_tokens - len(s.generated)
                    for s in states
                ]
            )
            k_eff = int(
                min(
                    self.k,
                    max_seq_len - int(committed_len.max()),
                    int(remaining.max()) - 1,
                )
            )
            k_eff = max(k_eff, 0)
            proposals, valid_counts = self._propose(
                states, committed_len, d_lens, dcaches, k_eff
            )
            self.stats.draft_tokens += int(valid_counts.sum())
            logits = self._verify(states, committed_len, tcaches, k_eff, proposals)
            keep, accepted = self._accept(
                states, logits, proposals, valid_counts, k_eff, results
            )
            t_lens = committed_len + accepted
            if k_eff > 0:
                # Draft valid prefix: catch-up covered everything
                # committed, plus the accepted proposals it actually
                # forwarded (never the last one — its forward is skipped).
                d_lens = committed_len + np.minimum(accepted, k_eff - 1)
            states, (t_lens, d_lens) = _compact(
                keep, states, (t_lens, d_lens), caches
            )

        for result in results:
            result.sequences.sort(key=lambda pair: pair[0])
            result.sequences[:] = [seq for _, seq in result.sequences]
        return results

    def _propose(
        self,
        states: List[_ChoiceState],
        committed_len: np.ndarray,
        d_lens: np.ndarray,
        dcaches: list,
        k_eff: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draft-propose ``k_eff`` tokens per row; returns (B, k_eff) ids.

        First the draft catches up on committed tokens it has not seen
        (the previous round's correction/bonus token, and — after an
        all-accepted round — the last proposal it never forwarded): the
        catch-up chunk is right-aligned on each row's committed end, and
        rows needing fewer new columns simply rewrite their trailing
        verified columns with identical K/V, keeping the batch
        rectangular. Then proposals are decoded one draft forward at a
        time. ``valid_counts[r]`` < ``k_eff`` marks rows whose
        constraint cut proposing short (padding fills the rest).
        """
        rows = len(states)
        if k_eff == 0:
            return (
                np.zeros((rows, 0), dtype=np.int64),
                np.zeros(rows, dtype=np.int64),
            )
        committed = [list(s.prompt_ids) + s.generated for s in states]
        width = int((committed_len - d_lens).max())
        ids = np.zeros((rows, width), dtype=np.int64)
        for r in range(rows):
            ids[r] = committed[r][-width:]
        positions = (committed_len - width)[:, None] + np.arange(width)
        kv_len = int(committed_len.max())
        blocked = (
            np.arange(kv_len)[None, None, None, :]
            > positions[:, None, :, None]
        )
        logits = self.draft.forward_chunk(
            ids,
            positions,
            dcaches,
            blocked=blocked,
            write_cols=positions,
            kv_len=kv_len,
        )
        d_next = logits.data[:, -1]

        plain = all(s.constraint is None for s in states)
        proposals = np.full((rows, k_eff), _PAD_TOKEN, dtype=np.int64)
        valid_counts = np.zeros(rows, dtype=np.int64)
        alive = np.ones(rows, dtype=bool)
        for j in range(k_eff):
            if plain:
                picks: List[Optional[int]] = list(np.argmax(d_next, axis=-1))
            else:
                picks = [
                    _next_token(
                        d_next[r],
                        states[r].generated + list(proposals[r, :j][: valid_counts[r]]),
                        states[r].config,
                        states[r].constraint,
                        states[r].rng,
                    )
                    if alive[r]
                    else None
                    for r in range(rows)
                ]
            for r, pick in enumerate(picks):
                if not alive[r]:
                    continue
                if pick is None:
                    alive[r] = False
                    continue
                proposals[r, j] = int(pick)
                valid_counts[r] += 1
            if j == k_eff - 1 or not alive.any():
                break
            step_ids = proposals[:, j][:, None]
            cols = committed_len + j
            kv_len = int(cols.max()) + 1
            blocked = (
                np.arange(kv_len)[None, :] > cols[:, None]
            )[:, None, None, :]
            logits = self.draft.forward_chunk(
                step_ids,
                cols[:, None],
                dcaches,
                blocked=blocked,
                write_cols=cols,
                kv_len=kv_len,
            )
            d_next = logits.data[:, 0]
        return proposals, valid_counts

    def _verify(
        self,
        states: List[_ChoiceState],
        committed_len: np.ndarray,
        tcaches: list,
        k_eff: int,
        proposals: np.ndarray,
    ) -> np.ndarray:
        """One target forward over [last committed, proposals] per row."""
        rows = len(states)
        width = k_eff + 1
        ids = np.zeros((rows, width), dtype=np.int64)
        for r, state in enumerate(states):
            ids[r, 0] = (
                state.generated[-1] if state.generated else state.prompt_ids[-1]
            )
            ids[r, 1:] = proposals[r]
        positions = (committed_len - 1)[:, None] + np.arange(width)
        kv_len = int(committed_len.max()) + k_eff
        blocked = (
            np.arange(kv_len)[None, None, None, :]
            > positions[:, None, :, None]
        )
        hidden = self.model.encode_chunk(
            ids,
            positions,
            tcaches,
            blocked=blocked,
            write_cols=positions,
            kv_len=kv_len,
        )
        logits = self.model.logits_from_hidden(Tensor(hidden.data))
        self.stats.verify_forwards += 1
        return logits.data

    def _accept(
        self,
        states: List[_ChoiceState],
        logits: np.ndarray,
        proposals: np.ndarray,
        valid_counts: np.ndarray,
        k_eff: int,
        results: List[BatchResult],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scan each row's verify logits; emit tokens, retire finishers.

        Position ``j`` of a row's verify logits is the target's
        distribution after the committed tokens plus proposals
        ``0..j-1``, so the target's pick there is the *true* next token
        given everything before it — matching the proposal extends the
        accepted run, mismatching emits the pick as the correction and
        ends the round, and surviving all ``k_eff`` positions emits the
        final pick as the bonus token.
        """
        rows = len(states)
        keep = np.ones(rows, dtype=bool)
        accepted = np.zeros(rows, dtype=np.int64)
        plain = all(
            s.config.strategy == "greedy" and s.constraint is None
            for s in states
        )
        greedy_ids = np.argmax(logits, axis=-1) if plain else None
        for r, state in enumerate(states):
            for j in range(k_eff + 1):
                if greedy_ids is not None:
                    token: Optional[int] = int(greedy_ids[r, j])
                else:
                    token = _next_token(
                        logits[r, j],
                        state.generated,
                        state.config,
                        state.constraint,
                        state.rng,
                    )
                if token is None or token in state.config.stop_ids:
                    keep[r] = False
                    break
                state.generated.append(token)
                self.stats.generated_tokens += 1
                if len(state.generated) >= state.config.max_new_tokens:
                    keep[r] = False
                matched = (
                    j < valid_counts[r] and token == int(proposals[r, j])
                )
                if matched:
                    accepted[r] += 1
                    self.stats.draft_accepted_tokens += 1
                if not keep[r] or not matched:
                    break
            if not keep[r]:
                self.stats.retired_sequences += 1
                results[state.request_index].sequences.append(
                    (state.choice_index, state.generated)
                )
        return keep, accepted


def draft_config(config: ModelConfig, num_layers: int = 1) -> ModelConfig:
    """A draft variant of ``config``: same geometry, fewer layers."""
    if num_layers <= 0 or num_layers > config.num_layers:
        raise GenerationError(
            f"draft num_layers must be in 1..{config.num_layers}"
        )
    return dataclasses.replace(config, num_layers=num_layers)


def distill_draft(
    model: GPTModel,
    prompts: Sequence[Sequence[int]],
    num_layers: int = 1,
    steps: int = 60,
    lr: float = 3e-3,
    max_new_tokens: int = 16,
    seed: int = 1,
) -> GPTModel:
    """Train a small draft GPT to imitate ``model``'s greedy output.

    Generates the target's greedy continuations for ``prompts`` (one
    batched pass), then trains a fresh ``num_layers``-layer GPT with a
    causal-LM loss on the prompt+continuation rows. Because the verify
    step makes draft quality a pure throughput knob, even this few-step
    distillation is enough to push acceptance high on the workload it
    was fit to — the draft only has to predict the target's argmax, not
    its full distribution.
    """
    from repro.training.data import IGNORE_INDEX
    from repro.training.optim import AdamW

    if not prompts:
        raise GenerationError("distillation needs at least one prompt")
    draft = GPTModel(draft_config(model.config, num_layers), seed=seed)
    engine = BatchedGenerator(model)
    gen_config = GenerationConfig(max_new_tokens=max_new_tokens)
    served = engine.generate(
        [BatchRequest(list(p), gen_config) for p in prompts]
    )
    rows = [
        list(p) + result.sequences[0]
        for p, result in zip(prompts, served)
    ]
    width = max(len(row) for row in rows)
    ids = np.zeros((len(rows), width), dtype=np.int64)
    labels = np.full((len(rows), width), IGNORE_INDEX, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
        labels[i, : len(row) - 1] = row[1:]

    optimizer = AdamW(draft.parameters(), lr=lr)
    draft.train()
    for _ in range(steps):
        logits = draft(ids)
        flat = logits.reshape(-1, draft.config.vocab_size)
        loss = cross_entropy(
            flat, labels.reshape(-1), ignore_index=IGNORE_INDEX
        )
        optimizer.zero_grad()
        loss.backward()
        optimizer.clip_grad_norm(1.0)
        optimizer.step()
    draft.eval()
    return draft
