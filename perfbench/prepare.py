"""Train the benchmark's text-to-SQL translator once and store it.

Usage: ``PYTHONPATH=src python3 perfbench/prepare.py <output-dir>``

Writes ``model.npz`` (``save_model``, which records the weights' digest)
and ``tokenizer.json``. The training questions are drawn from the same
schema domain as every workload seed, with enough draws per template
that their words cover the question pools the workloads use.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.models.checkpoint import save_model
from repro.text2sql import generate_workload
from repro.text2sql.translator import train_translator
from repro.tokenizers.serialize import save_tokenizer

TRAIN_SEED = 0
TRAIN_DRAWS = 150
TRAIN_STEPS = 2000


def prepare(out: Path) -> None:
    workload = generate_workload(seed=TRAIN_SEED, examples_per_template=TRAIN_DRAWS)
    translator = train_translator(
        workload, workload.examples, steps=TRAIN_STEPS, seed=TRAIN_SEED
    )
    out.mkdir(parents=True, exist_ok=True)
    save_tokenizer(translator.tokenizer, out / "tokenizer.json")
    save_model(translator.model, out / "model.npz")


if __name__ == "__main__":
    prepare(Path(sys.argv[1]))
