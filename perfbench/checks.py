"""Answer checks that can fail.

Each function returns a list of problems; an empty list means the check
passed. A run is correct only when every check returns no problems.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.sql.ast import SelectItem, SelectQuery
from repro.sql.parser import parse_sql
from repro.text2sql.evaluate import execution_match


def sort_groups(db, sql: str) -> Optional[List[Counter]]:
    """The result rows of an ORDER BY query, grouped by equal sort keys.

    Rows that tie on every sort key may come back in any order, and a
    LIMIT may cut a tie group anywhere, so a sharded engine can
    legitimately return other rows than a single node. Returns None for
    a query without ORDER BY (or one this rewrite cannot widen).
    """
    try:
        query = parse_sql(sql)
    except ReproError:
        return None
    if not isinstance(query, SelectQuery) or not query.order_by or query.distinct:
        return None
    width = len(query.items)
    widened = dataclasses.replace(
        query,
        items=query.items + tuple(SelectItem(item.expr) for item in query.order_by),
        limit=None,
    )
    try:
        rows = db.execute(widened.sql()).rows
    except ReproError:
        return None
    groups: List[Counter] = []
    last = object()
    for row in rows:
        key = tuple(row[width:])
        if key != last:
            groups.append(Counter())
            last = key
        groups[-1][tuple(row[:width])] += 1
    return groups


def same_answer(served: Sequence, expected: Sequence, groups: Optional[List[Counter]]) -> bool:
    """Bags must match; sorted results must list the sort groups in order,
    each complete except the last one a LIMIT cut."""
    served = [tuple(row) for row in served]
    if groups is None:
        return Counter(served) == Counter(tuple(row) for row in expected)
    if len(served) != len(expected):
        return False
    position = 0
    for group in groups:
        if position == len(served):
            break
        size = sum(group.values())
        segment = Counter(served[position: position + size])
        if size <= len(served) - position:
            if segment != group:
                return False
        elif segment - group:
            return False
        position += min(size, len(served) - position)
    return position == len(served)


def replay(make_db: Callable, log: Sequence) -> Tuple[List[str], Dict[int, bool]]:
    """Re-run the logged statements, in order, on a fresh single node.

    Every served result must equal the replay's (rows for reads, success
    or failure for any statement). For each checked question, the
    translation is also scored with ``execution_match`` against the
    database in the state that question saw. Returns (problems,
    {op index: answer matched gold}).
    """
    db = make_db()
    problems: List[str] = []
    matches: Dict[int, bool] = {}
    for op in log:
        try:
            rows: Optional[list] = list(db.execute(op.engine_sql).rows)
        except ReproError:
            rows = None
        if (rows is None) != (op.rows is None) or (
            rows is not None
            and not same_answer(op.rows, rows, sort_groups(db, op.engine_sql))
        ):
            problems.append(
                f"op {op.index}: served rows differ from the single-node "
                f"replay of {op.engine_sql!r}"
            )
        if op.checked:
            matches[op.index] = bool(op.sql) and execution_match(
                db, op.sql, op.question.gold
            )
    return problems, matches


def translation_digest(ops: Sequence) -> str:
    """SHA-256 over (index, question, generated SQL) of the checked ops."""
    digest = hashlib.sha256()
    for op in sorted((op for op in ops if op.checked), key=lambda op: op.index):
        digest.update(f"{op.index}\t{op.question.text}\t{op.sql}\n".encode())
    return digest.hexdigest()


def consistent_translations(ops: Sequence) -> List[str]:
    """Greedy decoding is deterministic: a question asked twice must get
    the same SQL both times, whichever path (cache, batch) served it."""
    seen: Dict[str, set] = defaultdict(set)
    for op in ops:
        if op.question is not None and op.outcome == "ok":
            seen[op.question.text].add(op.sql)
    return [
        f"question {text!r} was translated {len(sqls)} different ways"
        for text, sqls in seen.items()
        if len(sqls) > 1
    ]


def digest_matches_record(record: Path, digest: str) -> List[str]:
    """Compare with the digest an earlier run of the same inputs stored;
    store it when this is the first such run."""
    if record.exists():
        stored = json.loads(record.read_text())["digest"]
        if stored != digest:
            return [f"SQL digest {digest[:12]} differs from {stored[:12]} of an earlier run"]
        return []
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"digest": digest}))
    return []


def first_sends_miss(ops: Sequence) -> List[str]:
    """A prompt the gateway has not seen before must miss the semantic
    cache: only a repeat may be answered at admission."""
    seen = set()
    hits = []
    for op in sorted(ops, key=lambda op: op.index):
        if op.question is None:
            continue
        if op.cached and op.question.text not in seen:
            hits.append(op.index)
        seen.add(op.question.text)
    if hits:
        return [f"{len(hits)} first sends of a prompt hit the cache (first: op {hits[0]})"]
    return []


def repeat_hit_rate(hit_rate: float, repeat_share: float) -> List[str]:
    if hit_rate > repeat_share:
        return [
            f"cache hit rate {hit_rate:.4f} exceeds the generated repeat "
            f"share {repeat_share:.4f}"
        ]
    return []


def warmup_disjoint(warmup: Sequence, pool: Sequence) -> List[str]:
    overlap = {q.prompt_ids for q in warmup} & {q.prompt_ids for q in pool}
    if overlap:
        return [f"{len(overlap)} warm-up prompts are also in the measured pool"]
    return []


def all_answered(ops: Sequence) -> List[str]:
    missing = [op.index for op in ops if op.checked and op.outcome != "ok"]
    if missing:
        return [f"{len(missing)} checked questions got no answer (first: op {missing[0]})"]
    return []
