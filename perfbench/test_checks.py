"""Each answer check fails when an answer is corrupted.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``
"""

from __future__ import annotations

from types import SimpleNamespace

import checks
import inputs
from repro.sql import Database
from repro.text2sql import generate_workload
from repro.text2sql.translator import build_prompt
from repro.tokenizers import WhitespaceTokenizer
from spans import Span, summarize


def make_db():
    db = Database()
    db.execute("CREATE TABLE emp (name TEXT, dept TEXT, salary INT)")
    db.execute(
        "INSERT INTO emp VALUES ('a', 'x', 10), ('b', 'x', 20), "
        "('c', 'y', 20), ('d', 'y', 30)"
    )
    return db


def op(index, engine_sql, rows, sql="", gold=None, checked=False, text="q"):
    question = SimpleNamespace(text=text, gold=gold) if gold is not None else None
    return SimpleNamespace(
        index=index, engine_sql=engine_sql, rows=rows, sql=sql or engine_sql,
        question=question, checked=checked, outcome="ok",
    )


def test_same_answer_compares_bags_and_sort_groups():
    db = make_db()
    assert checks.same_answer([("a",), ("b",)], [("b",), ("a",)], None)
    assert not checks.same_answer([("a",), ("a",)], [("b",), ("a",)], None)
    query = "SELECT name FROM emp ORDER BY salary DESC"
    groups = checks.sort_groups(db, query)
    # b and c tie on salary 20: either order is a correct answer.
    expected = [("d",), ("b",), ("c",), ("a",)]
    assert checks.same_answer([("d",), ("c",), ("b",), ("a",)], expected, groups)
    assert not checks.same_answer([("c",), ("d",), ("b",), ("a",)], expected, groups)
    limited = checks.sort_groups(db, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2")
    assert checks.same_answer([("d",), ("c",)], [("d",), ("b",)], limited)
    assert not checks.same_answer([("d",), ("a",)], [("d",), ("b",)], limited)


def test_replay_fails_on_a_corrupted_row_and_scores_translations():
    select = "SELECT name FROM emp WHERE salary > 15"
    log = [
        op(0, "INSERT INTO emp VALUES ('e', 'x', 40)", []),
        op(1, select, [("b",), ("c",), ("d",), ("e",)], gold="select name from emp where salary > 15", checked=True),
        op(2, "SELECT name FROM emp WHERE salary > 35", [("e",)],
           sql="select name from emp where salary > 35", gold="select name from emp where salary > 15", checked=True),
    ]
    problems, matches = checks.replay(make_db, log)
    assert problems == []
    assert matches == {1: True, 2: False}
    log[1].rows = [("b",), ("c",), ("d",), ("a",)]
    problems, _ = checks.replay(make_db, log)
    assert len(problems) == 1 and "op 1" in problems[0]


def test_replay_fails_when_only_one_side_raised():
    problems, _ = checks.replay(make_db, [op(0, "SELECT nope FROM emp", [("a",)])])
    assert problems


def test_digest_and_record_catch_a_changed_translation(tmp_path):
    ops = [op(0, "", None, sql="select 1", gold="g", checked=True)]
    first = checks.translation_digest(ops)
    record = tmp_path / "digest.json"
    assert checks.digest_matches_record(record, first) == []
    assert checks.digest_matches_record(record, first) == []
    ops[0].sql = "select 2"
    second = checks.translation_digest(ops)
    assert second != first
    assert checks.digest_matches_record(record, second)


def test_a_question_translated_two_ways_fails():
    ops = [
        op(0, "", None, sql="select a", gold="g", text="same"),
        op(1, "", None, sql="select b", gold="g", text="same"),
    ]
    assert checks.consistent_translations(ops)
    ops[1].sql = "select a"
    assert checks.consistent_translations(ops) == []


def test_workload_definition_checks():
    first = op(0, "", [], gold="g", text="q1")
    repeat = op(1, "", [], gold="g", text="q1")
    first.cached, repeat.cached = False, True
    assert checks.first_sends_miss([repeat, first]) == []
    first.cached = True
    assert checks.first_sends_miss([repeat, first])
    assert checks.repeat_hit_rate(0.5, 0.6) == []
    assert checks.repeat_hit_rate(0.61, 0.6)
    q = SimpleNamespace(prompt_ids=(1, 2))
    assert checks.warmup_disjoint([q], [SimpleNamespace(prompt_ids=(1, 3))]) == []
    assert checks.warmup_disjoint([q], [q])
    shed = op(0, "", None, gold="g", checked=True)
    assert checks.all_answered([shed]) == []
    shed.outcome = "shed"
    assert checks.all_answered([shed])


def test_inputs_are_seeded_distinct_and_keep_warmup_out_of_the_pool():
    workload = generate_workload(seed=0, examples_per_template=40)
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train([build_prompt(e.question) for e in workload.examples], vocab_size=2048)
    first = inputs.make_inputs(1, tokenizer, num_rows=30)
    again = inputs.make_inputs(1, tokenizer, num_rows=30)
    assert first.pool == again.pool and first.ddl == again.ddl
    ids = [q.prompt_ids for q in first.warmup + first.pool]
    assert len(ids) == len(set(ids))
    assert checks.warmup_disjoint(first.warmup, first.pool) == []
    sequence, repeats = inputs.repeat_sequence(1, first.pool, 300)
    assert repeats == 200 == 300 - len(set(sequence))


def test_write_stream_keeps_the_table_size():
    workload = generate_workload(seed=0, examples_per_template=2)
    tokenizer = WhitespaceTokenizer(lowercase=True)
    tokenizer.train([build_prompt(e.question) for e in workload.examples], vocab_size=2048)
    spec = inputs.make_inputs(2, tokenizer, num_rows=30)
    db = Database()
    for statement in spec.ddl:
        db.execute(statement)
    stream = inputs.WriteStream(2, spec)
    for _ in range(30):
        db.execute(stream.next())
    assert len(db.table(spec.entity_table)) == 30


def test_unattributed_share_counts_gaps_between_stages():
    spans = [
        Span(1, None, 7, "request", 0.0, 10.0),
        Span(2, 1, 7, "encode", 0.0, 4.0),
        Span(3, 1, 7, "sql", 5.0, 10.0),
        Span(4, 3, 7, "scan", 6.0, 8.0),
    ]
    summary = summarize(spans, root="request")
    assert abs(summary["unattributed_share"] - 0.1) < 1e-12
    del summary["unattributed_share"]
    # mean self milliseconds per request
    assert {k: round(v) for k, v in summary.items()} == {
        "request": 1000, "encode": 4000, "sql": 3000, "scan": 2000,
    }
