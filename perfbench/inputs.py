"""Seeded benchmark inputs, generated once per seed and cached.

Everything lives under ``.perfbench/inputs`` in the checkout.  A cache
entry is a directory named after its kind, size and seed; it counts as
present only once its ``done`` marker exists, and entries of the same
kind for other seeds are deleted, so the cache holds one seed per kind.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path
from typing import Callable

from freqgap.corpus import count_corpus
from freqgap.counting import CounterConfig, CountTable
from freqgap.demo import generate_demo_corpus, generate_throughput_corpus
from freqgap.pipeline import STANDARD_KS
from freqgap.tasks import ALL_TASKS, build_fewshot_prompts, build_task, save_bundles
from freqgap.util import derive_seed, sha256_file

from stub_server import prompt_digest

# demo-run: the dense demo corpus the whole pipeline runs on.
DEMO_MB = 24
# count-sparse: the flat throughput corpus.
SPARSE_MB = 100
# Per-layer rates: small corpora of both shapes.
LAYER_MB = 4
# eval-http: bundles drawn across every task and k from a small demo corpus.
EVAL_CORPUS_MB = 2
EVAL_BUNDLES = 500


def _cached(root: Path, kind: str, seed: int, build: Callable[[Path], None]) -> Path:
    entry = root / f"{kind}-s{seed}"
    if (entry / "done").exists():
        return entry
    root.mkdir(parents=True, exist_ok=True)
    for stale in root.glob(f"{kind}-s*"):
        shutil.rmtree(stale)
    entry.mkdir()
    build(entry)
    (entry / "done").write_text("")
    return entry


def demo_corpus(root: Path, seed: int, size_mb: float = DEMO_MB) -> Path:
    entry = _cached(
        root, f"demo-{size_mb}mb", seed,
        lambda d: generate_demo_corpus(d, size_mb=size_mb, seed=seed),
    )
    return entry / "demo.jsonl"


def sparse_corpus(root: Path, seed: int, size_mb: float = SPARSE_MB) -> Path:
    entry = _cached(
        root, f"sparse-{size_mb}mb", seed,
        lambda d: generate_throughput_corpus(
            d / "sparse.jsonl", size_bytes=int(size_mb * 1_000_000), seed=seed
        ),
    )
    return entry / "sparse.jsonl"


def sparse_reference(root: Path, seed: int, corpus: Path) -> dict:
    """Digest and document count of a shards=1 count of the sparse corpus."""

    def build(entry: Path) -> None:
        table = entry / "counts.tsv"
        meta = count_corpus(corpus, "jsonl", CounterConfig(), table, shards=1)
        reference = {"sha256": sha256_file(table), "documents": meta.documents}
        (entry / "reference.json").write_text(json.dumps(reference))

    entry = _cached(root, f"sparse-ref-{SPARSE_MB}mb", seed, build)
    return json.loads((entry / "reference.json").read_text())


def eval_bundles(root: Path, seed: int) -> tuple[Path, Path]:
    """(bundles.jsonl, answers.json) for the eval-http workload.

    Bundles whose prompt text is shared with another bundle are left
    out (the two "#" tasks render identical zero-shot prompts), so the
    stub can key its answers and its fault schedule by prompt alone.
    """

    def build(entry: Path) -> None:
        corpus = generate_demo_corpus(entry / "corpus", size_mb=EVAL_CORPUS_MB, seed=seed)
        table_path = entry / "counts" / "counts.tsv"
        count_corpus(corpus, "jsonl", CounterConfig(), table_path)
        table = CountTable.load(table_path)
        pool = []
        for task_id in ALL_TASKS:
            dataset = build_task(table, task_id)
            for k in STANDARD_KS:
                pool.extend(
                    build_fewshot_prompts(
                        dataset, k, seed=0, shot_seed=derive_seed(seed, task_id, k)
                    )
                )
        uses: dict[str, int] = {}
        for b in pool:
            uses[b.rendered] = uses.get(b.rendered, 0) + 1
        unique = [b for b in pool if uses[b.rendered] == 1]
        chosen = random.Random(seed).sample(unique, EVAL_BUNDLES)
        save_bundles(chosen, entry / "bundles.jsonl")
        answers = {prompt_digest(b.rendered): b.gold for b in chosen}
        (entry / "answers.json").write_text(json.dumps(answers))
        shutil.rmtree(entry / "corpus")
        shutil.rmtree(entry / "counts")

    entry = _cached(root, f"eval-{EVAL_BUNDLES}", seed, build)
    return entry / "bundles.jsonl", entry / "answers.json"
