"""Corpus input and sharded parallel counting.

Two corpus formats: a directory tree of UTF-8 plain-text files (one
document per file) and newline-delimited JSON records with a "text"
field (one document per record).  Gzip-compressed files are accepted in
both.  Documents that fail UTF-8 decoding or JSON parsing are skipped
and counted.

Shards are counted by independent worker processes; each worker spills
its partial tables to disk as sorted files named by (partition, spill
sequence) and the parent merges them with merge_sorted_count_files, so
output bytes are identical regardless of the shard partitioning.
Table files, spills included, are written by counting.write_table.
"""

from __future__ import annotations

import gc
import gzip
import json
import logging
import multiprocessing
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .counting import (
    CounterConfig,
    CountMeta,
    _ShardAccumulator,
    combine_metas,
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


@dataclass
class ReadStats:
    documents: int = 0
    skipped: int = 0


@dataclass(frozen=True)
class ShardUnit:
    """One independently readable slice of the corpus."""

    path: str
    fmt: str
    start: int = 0
    end: int = -1  # -1: to EOF


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
        splittable = (
            fmt == "jsonl"
            and shards > 1
            and file.suffix != ".gz"
            and size >= _SPLIT_MIN_BYTES
        )
        if splittable:
            step = size // shards
            cuts = [i * step for i in range(shards)] + [size]
            for a, b in zip(cuts, cuts[1:]):
                units.append(ShardUnit(str(file), fmt, a, b))
        else:
            units.append(ShardUnit(str(file), fmt))
    return units


def partition_units(units: list[ShardUnit], shards: int) -> list[list[ShardUnit]]:
    return [units[i::shards] for i in range(shards)]


_READ_BLOCK = 8 << 20


def _iter_jsonl_lines(unit: ShardUnit) -> Iterator[bytes]:
    path = Path(unit.path)
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as f:
            yield from f
        return
    # Block reads with a line buffer; a line belongs to the range
    # holding its first byte, so the final partial line is completed
    # past the range end.
    with open(path, "rb") as f:
        budget = unit.end if unit.end >= 0 else path.stat().st_size
        if unit.start > 0:
            f.seek(unit.start - 1)
            if f.read(1) != b"\n":
                f.readline()
        budget -= f.tell()
        leftover = b""
        while budget > 0:
            block = f.read(min(_READ_BLOCK, budget))
            if not block:
                break
            budget -= len(block)
            lines = (leftover + block).split(b"\n")
            leftover = lines.pop()
            yield from lines
        if leftover:
            yield leftover + (f.readline() or b"")


def iter_unit_documents(unit: ShardUnit, stats: ReadStats) -> Iterator[str]:
    """Decode one shard unit into document texts, counting skipped records."""
    if unit.fmt == "text":
        path = Path(unit.path)
        raw = gzip.open(path, "rb").read() if path.suffix == ".gz" else path.read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            stats.skipped += 1
            return
        stats.documents += 1
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
            stats.skipped += 1
            continue
        stats.documents += 1
        yield text


def _count_units(
    units: list[ShardUnit],
    config: CounterConfig,
    spill_dir: str,
    spill_threshold: int,
    partition: int,
) -> tuple[list[str], int, int, int]:
    # The counting loop allocates no reference cycles, so generational
    # GC only costs time here.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        acc = _ShardAccumulator(config)
        stats = ReadStats()
        spills: list[str] = []

        def spill() -> None:
            path = Path(spill_dir) / f"spill-{partition:05d}-{len(spills):05d}.tsv"
            acc.spill(path)
            spills.append(str(path))

        for unit in units:
            for text in iter_unit_documents(unit, stats):
                acc.add_document(text)
                if acc.size >= spill_threshold:
                    spill()
        spill()
        return spills, acc.documents, acc.tokens, stats.skipped
    finally:
        if gc_was_enabled:
            gc.enable()


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
    partitions = [p for p in partition_units(units, max(shards, 1)) if p]
    digest = config.digest()
    with tempfile.TemporaryDirectory(prefix="freqgap-spill-") as spill_dir:
        results = []
        if len(partitions) <= 1:
            for i, part in enumerate(partitions):
                results.append(_count_units(part, config, spill_dir, spill_threshold, i))
        else:
            nproc = min(workers or os.cpu_count() or 1, len(partitions))
            with multiprocessing.get_context("fork").Pool(nproc) as pool:
                jobs = [
                    (part, config, spill_dir, spill_threshold, i)
                    for i, part in enumerate(partitions)
                ]
                results = pool.starmap(_count_units, jobs)
        spills: list[Path] = []
        metas = [CountMeta(corpus=Path(path).name, config_digest=digest)]
        for paths, documents, tokens, skipped in results:
            spills.extend(Path(p) for p in paths)
            metas.append(CountMeta("", digest, documents, tokens, skipped))
        meta = combine_metas(metas)
        merge_sorted_count_files(spills, out, meta)
    log.info(
        "counted %s: %d documents, %d tokens, %d skipped -> %s",
        path, meta.documents, meta.tokens, meta.skipped_documents, out,
    )
    return meta


def iter_corpus_documents(path: Path | str, fmt: str, stats: ReadStats | None = None) -> Iterator[str]:
    """All documents of a corpus in deterministic order."""
    stats = stats if stats is not None else ReadStats()
    for unit in corpus_units(path, fmt, shards=1):
        yield from iter_unit_documents(unit, stats)


def merge_table_files(inputs: Iterable[Path | str], out: Path | str) -> CountMeta:
    """Merge serialized count tables, enforcing config-digest equality."""
    paths = [table_file(p) for p in inputs]
    if not paths:
        raise ValueError("no input tables")
    meta = combine_metas([read_meta(p) for p in paths])
    merge_sorted_count_files(paths, Path(out), meta)
    return meta
