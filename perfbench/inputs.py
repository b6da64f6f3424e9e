"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and the
translator's vocabulary: the database contents, the distinct question
pool, the warm-up prompts, the open-loop arrival schedule, the repeat
pattern and the write stream. The program under test receives only
these generated inputs.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.text2sql import generate_workload
from repro.text2sql.translator import build_prompt

#: ``generate_workload`` picks the schema domain as ``seed % 3``; every
#: seed maps onto domain 0 (employees/departments), the one the
#: translator is trained on, so the seed varies data and questions only.
DOMAIN_STRIDE = 3
#: questions drawn per template; the generator samples with replacement,
#: so this many draws yields most of its distinct questions
POOL_DRAWS = 3000
INSERT_BATCH = 500
#: warm-up prompts, taken out of the pool before any workload uses it
WARMUP_PROMPTS = 16


def data_seed(seed: int) -> int:
    return DOMAIN_STRIDE * (seed + 1)


@dataclass(frozen=True)
class Question:
    text: str
    gold: str
    prompt_ids: Tuple[int, ...]


@dataclass
class Inputs:
    """One seed's database script, question pool and warm-up prompts."""

    seed: int
    entity_table: str
    key_column: str
    update_column: str
    keys: List[str]
    categories: List[str]
    #: CREATE TABLE + batched INSERT statements that build the database
    ddl: List[str]
    warmup: List[Question]
    pool: List[Question]


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def database_script(db) -> List[str]:
    """CREATE/INSERT statements that rebuild ``db`` table by table."""
    script = []
    for name in db.table_names():
        table = db.table(name)
        columns = ", ".join(
            f"{c.name} {c.sql_type.value}" for c in table.schema.columns
        )
        script.append(f"CREATE TABLE {name} ({columns})")
        rows = list(table.rows)
        for start in range(0, len(rows), INSERT_BATCH):
            values = ", ".join(
                "(" + ", ".join(_literal(v) for v in row) + ")"
                for row in rows[start: start + INSERT_BATCH]
            )
            script.append(f"INSERT INTO {name} VALUES {values}")
    return script


def make_inputs(seed: int, tokenizer, num_rows: int) -> Inputs:
    """Build the seed's database script and its distinct question pool.

    A question is kept only when every word is in the tokenizer's
    vocabulary (an unknown word would collapse onto ``[UNK]`` and make
    two questions one prompt) and its prompt ids are new. The pool is
    shuffled by the seed; its first prompts become the warm-up set, so
    warm-up never uses a prompt of the measured pool.
    """
    workload = generate_workload(
        seed=data_seed(seed), num_rows=num_rows, examples_per_template=POOL_DRAWS
    )
    vocab = set(tokenizer.vocab.tokens())
    seen = set()
    pool: List[Question] = []
    for example in workload.examples:
        if not set(example.question.lower().split()) <= vocab:
            continue
        ids = tuple(tokenizer.encode(build_prompt(example.question), add_bos=True).ids)
        if ids in seen:
            continue
        seen.add(ids)
        pool.append(Question(example.question, example.sql, ids))
    order = np.random.default_rng(seed).permutation(len(pool))
    pool = [pool[i] for i in order]
    entity = workload.db.table(workload.entity_table)
    return Inputs(
        seed=seed,
        entity_table=workload.entity_table,
        key_column=entity.schema.columns[0].name,
        update_column=workload.num_cols[0],
        keys=list(entity.column_values(entity.schema.columns[0].name)),
        categories=sorted(set(entity.column_values(workload.cat_col))),
        ddl=database_script(workload.db),
        warmup=pool[:WARMUP_PROMPTS],
        pool=pool[WARMUP_PROMPTS:],
    )


def sql_shape(sql: str) -> str:
    """Gold SQL with its numbers and quoted values masked."""
    return re.sub(r"' [^']*? '", "'V'", re.sub(r"\b\d+\b", "N", sql))


def stratified(pool: Sequence[Question], count: int) -> List[Question]:
    """``count`` questions taken round-robin across gold-SQL shapes.

    Query shapes differ widely in SQL cost, so a random sample would
    give every seed another mix; taking shapes in turn gives every seed
    the same one.
    """
    groups = defaultdict(list)
    for question in pool:
        groups[sql_shape(question.gold)].append(question)
    picked: List[Question] = []
    depth = 0
    while len(picked) < count:
        layer = [members[depth] for _, members in sorted(groups.items()) if depth < len(members)]
        if not layer:
            break
        picked.extend(layer[: count - len(picked)])
        depth += 1
    return picked


def poisson_arrivals(seed: int, rate: float, seconds: float) -> List[float]:
    """Open-loop due times (seconds from start) of a Poisson process,
    conditioned on its expected count: given the count, the arrival
    times are independent and uniform over the window. Every seed then
    sends the same number of operations in a run of a given length."""
    rng = np.random.default_rng([seed, 1])
    return sorted(float(t) for t in rng.uniform(0.0, seconds, int(round(rate * seconds))))


def repeat_sequence(
    seed: int, pool: Sequence[Question], count: int, zipf_s: float = 1.1,
) -> Tuple[List[Question], int]:
    """``count`` questions of which two in every three repeat an earlier one.

    A repeat picks among the distinct questions sent so far by a Zipf
    law over their first-sent order (early questions are the popular
    ones). The fixed pattern gives every seed the same repeat share.
    New questions are sent in :func:`stratified` order, so the popular
    ranks hold the same query shapes, and cost about the same, on every
    seed. Returns the sequence and its number of repeats.
    """
    rng = np.random.default_rng([seed, 2])
    sent: List[Question] = []
    sequence: List[Question] = []
    fresh = iter(stratified(pool, len(pool)))
    repeats = 0
    for position in range(count):
        if position % 3:
            weights = 1.0 / np.arange(1, len(sent) + 1) ** zipf_s
            pick = int(rng.choice(len(sent), p=weights / weights.sum()))
            sequence.append(sent[pick])
            repeats += 1
            continue
        question = next(fresh)
        sent.append(question)
        sequence.append(question)
    return sequence, repeats


class WriteStream:
    """Key-routed DML on the entity table.

    Every sixth statement is an INSERT and three statements later a
    DELETE removes that row again, so table sizes stay steady however
    long a run lasts; the rest are UPDATEs. Every statement names its
    row by the partition key (the first column), so a cluster routes it
    to one shard. Mostly one kind of statement keeps the write-latency
    percentiles inside one mode of their distribution.
    """

    KINDS = ("update", "insert", "update", "update", "delete", "update")

    def __init__(self, seed: int, inputs: Inputs):
        self._rng = np.random.default_rng([seed, 3])
        self._inputs = inputs
        self._count = 0
        self._last_insert: Optional[str] = None

    def next(self) -> str:
        table, key = self._inputs.entity_table, self._inputs.key_column
        kind = self.KINDS[self._count % len(self.KINDS)]
        self._count += 1
        if kind == "insert":
            self._last_insert = f"bench{self._count}"
            category = self._inputs.categories[
                int(self._rng.integers(len(self._inputs.categories)))
            ]
            a, b = (int(v) for v in self._rng.integers(10, 100, size=2))
            return (
                f"INSERT INTO {table} VALUES "
                f"('{self._last_insert}', '{category}', {a}, {b})"
            )
        if kind == "delete":
            return f"DELETE FROM {table} WHERE {key} = '{self._last_insert}'"
        keys = self._inputs.keys
        target = keys[int(self._rng.integers(len(keys)))]
        value = int(self._rng.integers(10, 100))
        column = self._inputs.update_column
        return f"UPDATE {table} SET {column} = {value} WHERE {key} = '{target}'"
