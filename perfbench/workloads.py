"""The three workloads: set-up, the measured phase, and what it recorded.

Each workload drives the paper's user path: question -> tokenizer ->
serving (a ``Gateway`` with a ``SemanticCache``, or a
``CompletionClient``) -> decode -> ``sql_to_engine_dialect`` -> SQL on
a single ``Database`` or a 3-shard ``ClusterDatabase``. Every workload
also carries a key-routed write stream, so each one measures the write
path its SQL layer offers.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

import repro.api.client as client_module
from repro.api import CompletionClient, ModelHub
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    GatewayOverloadError,
    ReproError,
)
from repro.generation import GenerationConfig
from repro.models.checkpoint import load_model
from repro.serving import BatchRequest, Gateway, GatewayRequest, PrefixCache, Replica
from repro.serving.semcache import SemanticCache
from repro.sql import Database
from repro.sql.cluster import ClusterDatabase
from repro.text2sql.translator import ClientTranslator, build_prompt
from repro.text2sql.workload import sql_to_engine_dialect
from repro.tokenizers.serialize import load_tokenizer

from inputs import Inputs, Question, WriteStream, poisson_arrivals, repeat_sequence, stratified
from spans import NullTracer, clock

ENGINE = "translator"
MAX_NEW_TOKENS = 40
MAX_BATCH = 8
#: open-loop arrival rate (operations/s), a fifth of the roughly 200
#: questions/s one replica serves. Cache hits run on the event loop and
#: wait for the GIL while the decode thread holds it; at 80/s, a second
#: busy process on the host tripled the median latency.
OPEN_LOOP_RATE = 40.0
#: the generator wakes this long before an operation is due and yields
#: to the event loop until then, so that the timer's rounding and the
#: host's delay in waking an idle CPU are not billed to the program
WAKE_EARLY = 0.002
#: share of open-loop arrivals that are writes
OPEN_LOOP_WRITE_SHARE = 0.125
#: distinct prompts per nl2sql_batch pass and per translate_batch call
BATCH_PASS = 1024
BATCH_CHUNK = 16
#: writes after each translate_batch chunk. The first one runs in caches
#: the decode has just filled with other data; with four, the median
#: write is one that runs after another write.
BATCH_WRITES = 4
#: questions per cluster_mixed cycle; one write follows every WRITE_EVERY
CLUSTER_CYCLE = 150
WRITE_EVERY = 3
CLUSTER_SHARDS = 3


@dataclass
class Op:
    """One operation the workload issued and what came back."""

    index: int
    question: Optional[Question]
    #: generated SQL for a question, the DML text for a write
    sql: str = ""
    engine_sql: str = ""
    #: served rows; None when the statement raised
    rows: Optional[list] = None
    error: str = ""
    #: ok | shed | expired | failed
    outcome: str = "ok"
    latency: float = 0.0
    #: True for the questions the answer checks cover
    checked: bool = False
    #: True when the gateway's semantic cache answered at admission
    cached: bool = False


@dataclass
class Phase:
    """Everything one measured phase recorded."""

    ops: List[Op] = field(default_factory=list)
    #: operations in the order their SQL ran (the replay order)
    log: List[Op] = field(default_factory=list)
    wall: float = 0.0
    generated_tokens: int = 0
    lags: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    repeat_share: float = 0.0


def build_database(inputs: Inputs) -> Database:
    db = Database()
    for statement in inputs.ddl:
        db.execute(statement)
    return db


class System:
    """One set-up of a workload's program stack.

    ``tracer`` wraps the layer entry points this system calls; with a
    :class:`~spans.NullTracer` nothing is wrapped.
    """

    def __init__(self, artifacts: Path, inputs: Inputs, tracer, sql_home: Optional[Path]):
        self.tracer = tracer
        self.inputs = inputs
        self.model = load_model(artifacts / "model.npz")
        self.tokenizer = load_tokenizer(artifacts / "tokenizer.json")
        self.db = build_database(inputs)
        self.cluster: Optional[ClusterDatabase] = None
        self.sql_home = sql_home
        if sql_home is not None:
            shutil.rmtree(sql_home, ignore_errors=True)
            self.cluster = ClusterDatabase.from_database(
                self.db, sql_home, num_shards=CLUSTER_SHARDS
            )
        self.parse = sql_to_engine_dialect
        self.write_stream = WriteStream(inputs.seed, inputs)
        self.rows_scanned: List[int] = []
        tracer.wrap(self.tokenizer, "encode", "tokenizers.encode")
        tracer.wrap(self.tokenizer, "decode", "tokenizers.decode")
        tracer.wrap(self, "parse", "text2sql.parse")
        self.traced = not isinstance(tracer, NullTracer)

    def start_measuring(self) -> None:
        """Forget what set-up and warm-up recorded, and move the objects
        set-up made out of the collector's way, so that a collection
        during the measured phase costs what the phase itself allocated."""
        self.tracer.spans.clear()
        self.rows_scanned.clear()
        gc.collect()
        gc.freeze()

    @property
    def sql(self):
        return self.cluster if self.cluster is not None else self.db

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            shutil.rmtree(self.sql_home, ignore_errors=True)

    # -- SQL ---------------------------------------------------------------
    def run_sql(self, op: Op, phase: Phase) -> None:
        """Execute ``op.engine_sql``; record rows (or the error) and log it."""
        kind = "write" if op.question is None else "execute"
        layer = "cluster" if self.cluster is not None else "sql"
        with self.tracer.span(f"{layer}.{kind}"):
            try:
                result = self.sql.execute(op.engine_sql)
            except ReproError as exc:
                op.error = f"{type(exc).__name__}: {exc}"
            else:
                op.rows = list(result.rows)
        phase.log.append(op)
        if op.question is None:
            if op.rows is None:
                op.outcome = "failed"
            return
        if op.rows is not None and self.traced:
            self.rows_scanned.append(self._rows_scanned())

    def _rows_scanned(self) -> int:
        if self.cluster is None:
            return self.db.explain_stats().rows_scanned
        stats = self.cluster.stats
        merged = stats.last_merge_stats.rows_scanned if stats.last_merge_stats else 0
        return sum(s.rows_scanned for s in stats.last_shard_stats) + merged

    def write(self, op: Op, phase: Phase) -> None:
        op.sql = op.engine_sql = self.write_stream.next()
        self.run_sql(op, phase)

    def answer(self, op: Op, text: str, phase: Phase) -> None:
        op.sql = text
        op.engine_sql = self.parse(text)
        self.run_sql(op, phase)

    def layer_counters(self) -> Dict[str, float]:
        counters: Dict[str, float] = {}
        if self.cluster is None:
            return counters
        for strategy, count in self.cluster.stats.by_strategy.items():
            counters[f"cluster.strategy.{strategy}"] = float(count)
        shipped = sum(s.replicator.stats.shipped_bytes for s in self.cluster.shards)
        counters["cluster.shipped_bytes"] = float(shipped)
        counters["cluster.max_lag_records"] = float(
            max(s.replicator.stats.max_lag_records for s in self.cluster.shards)
        )
        return counters


# -- open loop: nl2sql_repeat --------------------------------------------------
class GatewaySystem(System):
    """A ``Gateway`` with one ``Replica`` behind a ``SemanticCache``."""

    def __init__(self, artifacts, inputs, tracer):
        super().__init__(artifacts, inputs, tracer, sql_home=None)
        self.cache = SemanticCache()
        self.replica = Replica("r0", self.model, max_batch=MAX_BATCH, prefix_cache=PrefixCache())
        self.gateway = Gateway(
            [self.replica], max_queue=1024, completion_cache=self.cache
        )
        self.config = GenerationConfig(
            max_new_tokens=MAX_NEW_TOKENS,
            strategy="greedy",
            stop_ids=(self.tokenizer.vocab.eos_id,),
        )
        self.batch_sizes: List[int] = []
        self.queue_waits: List[float] = []
        self._admitted: Dict[int, float] = {}
        self._served: Dict[int, tuple] = {}
        if self.traced:
            self._trace_gateway()

    def _trace_gateway(self) -> None:
        tracer = self.tracer
        tracer.wrap(self.cache, "lookup", "semcache.lookup")
        admit = self.gateway.admit
        decode = self.replica.decode

        def traced_admit(request):
            with tracer.span("gateway.admit"):
                ticket = admit(request)
            self._admitted[id(request.request)] = clock()
            return ticket

        def traced_decode(requests, on_step):
            start = clock()
            out = decode(requests, on_step)
            end = clock()
            tracer.add("engine.service", start, end, None, None)
            for request in requests:
                self._served[id(request)] = (start, end)
            self.batch_sizes.append(len(requests))
            return out

        self.gateway.admit = traced_admit
        self.replica.decode = traced_decode

    def start_measuring(self) -> None:
        super().start_measuring()
        self.batch_sizes.clear()
        self.queue_waits.clear()

    async def start(self) -> None:
        await self.gateway.start()
        phase = Phase()
        await asyncio.gather(
            *[self.ask(Op(-1 - i, q), clock(), phase) for i, q in enumerate(self.inputs.warmup)]
        )
        failed = [op for op in phase.ops if op.outcome != "ok"]
        if failed:
            raise RuntimeError(f"warm-up request failed: {failed[0].error}")

    async def stop(self) -> None:
        await self.gateway.stop()

    async def ask(self, op: Op, due: float, phase: Phase) -> None:
        """Serve one question (or write) that was due at ``due``."""
        tracer = self.tracer
        fired = clock()
        phase.ops.append(op)
        with tracer.span("request", rid=op.index, start=due):
            current = tracer.current()
            tracer.add("loadgen.lag", due, fired, *(current or (None, None)))
            if op.question is None:
                self.write(op, phase)
            else:
                await self._ask_question(op, phase)
        op.latency = clock() - due

    async def _ask_question(self, op: Op, phase: Phase) -> None:
        tracer = self.tracer
        ids = self.tokenizer.encode(build_prompt(op.question.text), add_bos=True).ids
        request = BatchRequest(ids, self.config)
        with tracer.span("gateway.submit"):
            try:
                result = await self.gateway.submit(GatewayRequest(request))
            except (GatewayOverloadError, CircuitOpenError) as exc:
                op.outcome, op.error = "shed", str(exc)
                return
            except DeadlineExceededError as exc:
                op.outcome, op.error = "expired", str(exc)
                return
            except ReproError as exc:
                op.outcome, op.error = "failed", str(exc)
                return
            resumed = clock()
            op.cached = result.replica == "cache"
            if not op.cached:
                self.queue_waits.append(result.queue_wait)
            if self.traced:
                self._attribute(id(request), result.queue_wait, resumed)
        phase.generated_tokens += 0 if op.cached else len(result.sequences[0])
        self.answer(op, self.tokenizer.decode(result.sequences[0]), phase)

    def _attribute(self, key: int, queue_wait: float, resumed: float) -> None:
        """Split the submit span into queue wait, service and resume."""
        parent, rid = self.tracer.current()
        admitted = self._admitted.pop(key)
        self.tracer.add("gateway.queue_wait", admitted, admitted + queue_wait, parent, rid)
        served = self._served.pop(key, None)
        if served is not None:
            self.tracer.add("engine.service", served[0], served[1], parent, rid)
            self.tracer.add("gateway.resume", served[1], resumed, parent, rid)

    def layer_counters(self) -> Dict[str, float]:
        counters = super().layer_counters()
        gen = self.replica.scheduler.generator.stats
        sched = self.replica.scheduler.stats
        cache = self.cache.stats
        counters.update({
            "engine.decode_steps": float(gen.decode_steps),
            "engine.prefill_chunks": float(gen.prefill_chunks),
            "engine.generated_tokens": float(gen.generated_tokens),
            "prefix.reused_tokens": float(sched.prefix_reused_tokens),
            "prefix.prompt_tokens": float(sched.prompt_tokens),
            "semcache.lookups": float(cache.lookups),
            "semcache.hits": float(cache.hits),
            "gateway.shed": float(self.gateway.stats.shed),
        })
        return counters


def _open_loop_schedule(inputs: Inputs, seconds: float):
    """(due, question-or-None) pairs plus the generated repeat share."""
    times = poisson_arrivals(inputs.seed, OPEN_LOOP_RATE, seconds)
    writes = int(round(OPEN_LOOP_WRITE_SHARE * len(times)))
    is_write = np.random.default_rng([inputs.seed, 4]).permutation(len(times)) < writes
    reads = int((~is_write).sum())
    questions, repeats = repeat_sequence(inputs.seed, inputs.pool, reads)
    it = iter(questions)
    schedule = [(t, None if w else next(it)) for t, w in zip(times, is_write)]
    return schedule, repeats / max(1, reads)


async def _run_open_loop(system: GatewaySystem, seconds: float) -> Phase:
    schedule, repeat_share = _open_loop_schedule(system.inputs, seconds)
    system.start_measuring()
    counters_before = system.layer_counters()
    phase = Phase(repeat_share=repeat_share)
    tasks = []
    start = clock()
    for index, (offset, question) in enumerate(schedule):
        due = start + offset
        delay = due - clock() - WAKE_EARLY
        if delay > 0:
            await asyncio.sleep(delay)
        while clock() < due:
            await asyncio.sleep(0)
        phase.lags.append(clock() - due)
        op = Op(index, question, checked=question is not None)
        tasks.append(asyncio.ensure_future(system.ask(op, due, phase)))
    await asyncio.gather(*tasks)
    phase.wall = clock() - start
    phase.ops.sort(key=lambda op: op.index)
    phase.counters = _delta(counters_before, system.layer_counters())
    return phase


def run_open_loop(artifacts, inputs, seconds, tracer, setups):
    """Set up ``setups`` times (timing each), then measure on the last."""

    async def main():
        times = []
        for k in range(setups):
            began = clock()
            system = GatewaySystem(artifacts, inputs, tracer if k == setups - 1 else NullTracer())
            await system.start()
            times.append(clock() - began)
            if k < setups - 1:
                await system.stop()
        try:
            phase = await _run_open_loop(system, seconds)
        finally:
            await system.stop()
        return times, phase, system

    return asyncio.run(main())


# -- offline: nl2sql_batch -----------------------------------------------------
class ClientSystem(System):
    """A ``ClientTranslator`` over a ``CompletionClient`` and a model hub."""

    def __init__(self, artifacts, inputs, tracer, sql_home=None):
        super().__init__(artifacts, inputs, tracer, sql_home)
        self.hub = ModelHub()
        self.hub.register(ENGINE, self.model, self.tokenizer)
        #: engine counters of the schedulers ``complete_batch`` created
        self.generator_stats: list = []
        #: token counts of the clients already replaced
        self.retired = {"prompt": 0, "reused": 0, "completion": 0}
        self.client: Optional[CompletionClient] = None
        self.new_client()

    def new_client(self) -> None:
        """Serve through a new client, whose prefix cache is empty. The old
        one is dropped, so memory does not grow with the passes a run makes."""
        if self.client is not None:
            for name, value in self._client_tokens().items():
                self.retired[name] += value
        client = CompletionClient(self.hub)
        self.tracer.wrap(client, "complete", "client.complete")
        self.tracer.wrap(client, "complete_batch", "client.complete_batch")
        self.client = client
        self.translator = ClientTranslator(
            client, ENGINE, workload=None, max_new_tokens=MAX_NEW_TOKENS
        )

    def warm_up(self) -> None:
        phase = Phase()
        questions = [q.text for q in self.inputs.warmup]
        for op, text in zip(
            [Op(-1 - i, q) for i, q in enumerate(self.inputs.warmup)],
            self.translator.translate_batch(questions),
        ):
            self.answer(op, text, phase)
        self.translator.translate(self.inputs.warmup[0].text)

    def _client_tokens(self) -> Dict[str, int]:
        stats = self.client.engine_stats(ENGINE)
        return {
            "prompt": stats.prompt_tokens,
            "reused": stats.prefix_reused_tokens,
            "completion": stats.completion_tokens,
        }

    def layer_counters(self) -> Dict[str, float]:
        counters = super().layer_counters()
        tokens = {name: self.retired[name] + value for name, value in self._client_tokens().items()}
        generators = self.generator_stats
        counters.update({
            "prefix.reused_tokens": float(tokens["reused"]),
            "prefix.prompt_tokens": float(tokens["prompt"]),
            "client.completion_tokens": float(tokens["completion"]),
            "engine.decode_steps": float(sum(g.decode_steps for g in generators)),
            "engine.prefill_chunks": float(sum(g.prefill_chunks for g in generators)),
            "engine.generated_tokens": float(sum(g.generated_tokens for g in generators)),
        })
        return counters


class _RecordingScheduler(client_module.BatchScheduler):
    """``BatchScheduler`` that registers its generator's counters so traced
    runs can read the engine counters of the schedulers ``complete_batch``
    creates."""

    registry: Optional[list] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if _RecordingScheduler.registry is not None:
            _RecordingScheduler.registry.append(self.generator.stats)


def _setup_many(factory, setups):
    times = []
    system = None
    for k in range(setups):
        began = clock()
        system = factory(k == setups - 1)
        times.append(clock() - began)
        if k < setups - 1:
            system.close()
    return times, system


def run_batch(artifacts, inputs, seconds, tracer, setups):
    def factory(last):
        system = ClientSystem(artifacts, inputs, tracer if last else NullTracer())
        system.warm_up()
        return system

    times, system = _setup_many(factory, setups)
    traced = system.traced
    if traced:
        _RecordingScheduler.registry = system.generator_stats
        original, client_module.BatchScheduler = client_module.BatchScheduler, _RecordingScheduler
    try:
        phase = _run_batch(system, seconds)
    finally:
        if traced:
            client_module.BatchScheduler = original
            _RecordingScheduler.registry = None
        system.close()
    return times, phase, system


def _run_batch(system: ClientSystem, seconds: float) -> Phase:
    pool = system.inputs.pool[:BATCH_PASS]
    if len(pool) < BATCH_PASS:
        raise RuntimeError(f"the pool holds {len(pool)} prompts, a pass needs {BATCH_PASS}")
    system.start_measuring()
    counters_before = system.layer_counters()
    phase = Phase()
    start = clock()
    index = itertools.count()
    first_pass = True
    while True:
        for offset in range(0, len(pool), BATCH_CHUNK):
            if not first_pass and clock() - start >= seconds:
                break
            _batch_chunk(system, pool[offset: offset + BATCH_CHUNK], index, first_pass, phase)
        first_pass = False
        if clock() - start >= seconds:
            break
        system.new_client()
    phase.wall = clock() - start
    phase.counters = _delta(counters_before, system.layer_counters())
    phase.generated_tokens = int(phase.counters.get("client.completion_tokens", 0))
    return phase


def _batch_chunk(system, chunk, index, checked, phase) -> None:
    tracer = system.tracer
    ops = [Op(next(index), q, checked=checked) for q in chunk]
    began = clock()
    with tracer.span("request", rid=ops[0].index):
        texts = system.translator.translate_batch([q.text for q in chunk])
        for op, text in zip(ops, texts):
            system.answer(op, text, phase)
            op.latency = clock() - began
        phase.ops.extend(ops)
        for _ in range(BATCH_WRITES):
            op = Op(next(index), None)
            written = clock()
            system.write(op, phase)
            op.latency = clock() - written
            phase.ops.append(op)


# -- closed loop: cluster_mixed ------------------------------------------------
def _cluster_ops(inputs: Inputs) -> Iterator[Optional[Question]]:
    """The analyst session: the cycle's questions, a write after every
    ``WRITE_EVERY`` of them, repeated."""
    cycle = stratified(inputs.pool, CLUSTER_CYCLE)
    while True:
        for position, question in enumerate(cycle):
            yield question
            if position % WRITE_EVERY == WRITE_EVERY - 1:
                yield None


def run_cluster(artifacts, inputs, seconds, tracer, setups, home: Path):
    def factory(last):
        system = ClientSystem(
            artifacts, inputs, tracer if last else NullTracer(), sql_home=home
        )
        system.warm_up()
        return system

    times, system = _setup_many(factory, setups)
    try:
        phase = _run_cluster(system, seconds)
    finally:
        system.close()
    return times, phase, system


def _run_cluster(system: ClientSystem, seconds: float) -> Phase:
    tracer = system.tracer
    system.start_measuring()
    counters_before = system.layer_counters()
    phase = Phase()
    start = clock()
    reads = 0
    for index, question in enumerate(_cluster_ops(system.inputs)):
        # Stop only between cycles, so every run asks the same mix.
        at_boundary = question is not None and reads and reads % CLUSTER_CYCLE == 0
        if at_boundary and clock() - start >= seconds:
            break
        op = Op(index, question, checked=question is not None and reads < CLUSTER_CYCLE)
        sent = clock()
        with tracer.span("request", rid=index):
            if question is None:
                system.write(op, phase)
            else:
                reads += 1
                text = system.translator.translate(question.text)
                system.answer(op, text, phase)
        op.latency = clock() - sent
        phase.ops.append(op)
    phase.wall = clock() - start
    phase.counters = _delta(counters_before, system.layer_counters())
    phase.generated_tokens = int(phase.counters.get("client.completion_tokens", 0))
    return phase


def _delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    keep_max = ("cluster.max_lag_records",)
    return {
        key: value if key in keep_max else value - before.get(key, 0.0)
        for key, value in after.items()
    }
