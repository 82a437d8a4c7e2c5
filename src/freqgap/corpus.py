"""Corpus input and sharded parallel counting.

Two corpus formats: a directory tree of UTF-8 plain-text files (one
document per file) and newline-delimited JSON records with a "text"
field (one document per record).  Gzip-compressed files are accepted in
both.  Documents that fail UTF-8 decoding or JSON parsing are skipped
and counted.

Every jsonl file, compressed or not, is read by one buffered line loop.
An uncompressed file of at least _SPLIT_MIN_BYTES is cut into one byte
range per shard; a line belongs to the range holding its first byte, so
every line is read exactly once whatever the cuts.

Shards are counted by independent worker processes; each worker spills
its partial tables to disk as sorted files named by (partition, spill
sequence) and the parent merges them with merge_sorted_count_files, so
output bytes are identical regardless of the shard partitioning.
Table files, spills included, are written by counting.write_table.
"""

from __future__ import annotations

import gzip
import json
import logging
import math
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path
from typing import Iterable, Iterator

from .counting import (
    CounterConfig,
    CountMeta,
    _ShardAccumulator,
    combine_metas,
    copy_count_file,
    merge_sorted_count_files,
    read_meta,
    table_file,
)

log = logging.getLogger(__name__)

CORPUS_FORMATS = ("text", "jsonl")

# Uncompressed jsonl files at least this large are split into byte ranges.
_SPLIT_MIN_BYTES = 8 << 20

# Spill partial tables once this many distinct keys accumulate.
DEFAULT_SPILL_THRESHOLD = 4_000_000


@dataclass(frozen=True)
class ShardUnit:
    """One independently readable slice of the corpus."""

    path: str
    fmt: str
    start: int = 0
    end: float = math.inf  # inf: to EOF


def _list_files(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    files = [p for p in root.rglob("*") if p.is_file() and not p.name.startswith(".")]
    files.sort(key=lambda p: p.relative_to(root).as_posix())
    return files


def corpus_units(path: Path | str, fmt: str, shards: int = 1) -> list[ShardUnit]:
    """Deterministic list of shard units for a corpus."""
    if fmt not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format: {fmt!r}")
    root = Path(path)
    if not root.exists():
        raise FileNotFoundError(f"corpus path does not exist: {root}")
    units: list[ShardUnit] = []
    for file in _list_files(root):
        size = file.stat().st_size
        splittable = fmt == "jsonl" and file.suffix != ".gz" and size >= _SPLIT_MIN_BYTES
        ranges = max(shards, 1) if splittable else 1
        cuts = [i * (size // ranges) for i in range(ranges)] + [math.inf]
        units.extend(ShardUnit(str(file), fmt, a, b) for a, b in zip(cuts, cuts[1:]))
    return units


def _iter_jsonl_lines(unit: ShardUnit) -> Iterator[bytes]:
    """The unit's lines, each with its newline; a range's last line runs past its end."""
    path = Path(unit.path)
    with (gzip.open if path.suffix == ".gz" else open)(path, "rb") as f:
        if unit.start > 0:
            f.seek(unit.start - 1)
            if f.read(1) != b"\n":
                f.readline()
        pos = f.tell()
        for line in f:
            if pos >= unit.end:
                break
            pos += len(line)
            yield line


def iter_unit_documents(unit: ShardUnit, meta: CountMeta) -> Iterator[str]:
    """Decode one shard unit into document texts, adding skipped records
    to meta.skipped_documents."""
    if unit.fmt == "text":
        path = Path(unit.path)
        raw = gzip.open(path, "rb").read() if path.suffix == ".gz" else path.read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            meta.skipped_documents += 1
            return
        yield text
        return
    loads = json.loads
    for line in _iter_jsonl_lines(unit):
        if not line.strip():
            continue
        try:
            record = loads(line.decode("utf-8"))
            text = record["text"]
            if not isinstance(text, str):
                raise TypeError
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            meta.skipped_documents += 1
            continue
        yield text


def _count_units(
    units: list[ShardUnit],
    config: CounterConfig,
    spill_dir: str,
    spill_threshold: int,
    partition: int,
) -> tuple[list[str], CountMeta]:
    acc = _ShardAccumulator(config)
    spills: list[str] = []

    def spill() -> None:
        path = Path(spill_dir) / f"spill-{partition:05d}-{len(spills):05d}.tsv"
        acc.spill(path)
        spills.append(str(path))

    documents = (text for unit in units for text in iter_unit_documents(unit, acc.meta))
    acc.add_documents(documents, spill_threshold, spill)
    spill()
    return spills, acc.meta


def _init_worker(parent: int) -> None:
    """Count pool initializer: a worker takes SIGTERM's default action, and
    exits once its parent is gone, busy or idle."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def count_corpus(
    path: Path | str,
    fmt: str,
    config: CounterConfig,
    out: Path | str,
    shards: int = 1,
    workers: int | None = None,
    spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
) -> CountMeta:
    """Count a corpus into a sorted table file at `out` (plus meta sidecar)."""
    out = Path(out)
    units = corpus_units(path, fmt, shards)
    step = max(shards, 1)
    partitions = [units[i::step] for i in range(min(step, len(units)))]
    named = CountMeta(corpus=Path(path).name, config_digest=config.digest())  # before the fork
    with tempfile.TemporaryDirectory(prefix="freqgap-spill-") as spill_dir:
        args = (partitions, repeat(config), repeat(spill_dir), repeat(spill_threshold), count())
        if len(partitions) <= 1:
            results = list(map(_count_units, *args))
        else:
            # Unlike multiprocessing.Pool, an executor fails the count with
            # BrokenProcessPool when a worker dies (SIGKILL, OOM) instead
            # of waiting forever for its task.
            nproc = min(workers or os.cpu_count() or 1, len(partitions))
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                nproc, mp_context=fork, initializer=_init_worker, initargs=(os.getpid(),)
            ) as pool:
                try:
                    results = list(pool.map(_count_units, *args))
                except BaseException:
                    # Interrupted (Ctrl-C, or SIGTERM under the CLI) or a
                    # worker lost: end the other workers now, not after
                    # their partitions.
                    for child in multiprocessing.active_children():
                        child.terminate()
                    raise
        spills = [Path(p) for paths, _ in results for p in paths]
        meta = combine_metas([named] + [shard_meta for _, shard_meta in results])
        if len(spills) == 1:  # one sorted spill holding each key once
            copy_count_file(spills[0], out, meta)
        else:
            merge_sorted_count_files(spills, out, meta)
    log.info(
        "counted %s: %d documents, %d tokens, %d skipped -> %s",
        path, meta.documents, meta.tokens, meta.skipped_documents, out,
    )
    return meta


def iter_corpus_documents(path: Path | str, fmt: str) -> Iterator[str]:
    """All documents of a corpus in deterministic order."""
    skipped = CountMeta(corpus="", config_digest="")
    for unit in corpus_units(path, fmt, shards=1):
        yield from iter_unit_documents(unit, skipped)


def merge_table_files(inputs: Iterable[Path | str], out: Path | str) -> CountMeta:
    """Merge serialized count tables, enforcing config-digest equality."""
    paths = [table_file(p) for p in inputs]
    if not paths:
        raise ValueError("no input tables")
    meta = combine_metas([read_meta(p) for p in paths])
    merge_sorted_count_files(paths, Path(out), meta)
    return meta
