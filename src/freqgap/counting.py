"""Windowed co-occurrence counting of number and time-unit terms.

Counts are exact: the unigram count of a term is its number of token
positions; the pair count of {a, b} is the number of unordered position
pairs (i, j), i < j, lying in one window inside one document; triples
need the full span inside one window.  Windows never cross document
boundaries.

Two counting passes are supported: the default pass emits unigrams plus
(number, number) pairs with both values below 10,000 and all
(number, unit) pairs; a targeted pass emits unigrams plus exactly the
requested term sets (pairs and triples).

A table file is a `key<TAB>count` TSV sorted by key string plus a
`.meta.json` sidecar.  write_table is its one writer, combine_metas the
one combination of provenance, merge_sorted_count_files the one merge.
"""

from __future__ import annotations

import heapq
import json
import logging
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .terms import UNIT_BASE, UNITS, key_str, parse_key, term_set, unit_term
from .util import atomic_open, canonical_json, sha256_text

log = logging.getLogger(__name__)

# Edge punctuation stripped from tokens before term extraction.
STRIP_CHARS = ".,;:!?()\"'[]"

# Default pair family: (number, number) pairs keep both values below this.
NN_PAIR_MAX = 10_000

DEFAULT_UNIT_LEXICON: tuple[tuple[str, str], ...] = tuple((u, u + "s") for u in UNITS)


class ConfigDigestMismatch(ValueError):
    """Raised when tables from incompatible counting runs are combined."""


@dataclass(frozen=True)
class CounterConfig:
    """Counting parameters; the digest of these fields keys merge compatibility.

    window_rule selects the co-occurrence span semantics: "span" counts
    positions i < j with j - i <= window - 1 (both terms inside one
    contiguous window of `window` tokens); "distance" relaxes this to
    j - i <= window for sensitivity checks.
    """

    window: int = 5
    max_number_digits: int = 6
    unit_lexicon: tuple[tuple[str, str], ...] = DEFAULT_UNIT_LEXICON
    target_sets: frozenset[tuple[int, ...]] | None = None
    window_rule: str = "span"

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if not 1 <= self.max_number_digits <= 12:
            raise ValueError("max_number_digits must be in 1..12")
        if self.window_rule not in ("span", "distance"):
            raise ValueError("window_rule must be 'span' or 'distance'")
        for singular, _plural in self.unit_lexicon:
            if singular not in UNITS:
                raise ValueError(f"unknown unit in lexicon: {singular!r}")

    @property
    def max_distance(self) -> int:
        return self.window - 1 if self.window_rule == "span" else self.window

    def with_targets(self, targets: Iterable[tuple[int, ...]]) -> "CounterConfig":
        return replace(self, target_sets=frozenset(term_set(t) for t in targets))

    def digest(self) -> str:
        targets = None
        if self.target_sets is not None:
            targets = sorted(key_str(t) for t in self.target_sets)
        return sha256_text(
            canonical_json(
                {
                    "window": self.window,
                    "window_rule": self.window_rule,
                    "max_number_digits": self.max_number_digits,
                    "unit_lexicon": [list(pair) for pair in self.unit_lexicon],
                    "targets": targets,
                }
            )
        )


@lru_cache(maxsize=None)
def _form_codes(lexicon: tuple[tuple[str, str], ...]) -> dict[str, int]:
    codes: dict[str, int] = {}
    for singular, plural in lexicon:
        code = unit_term(singular)
        codes[singular.lower()] = code
        codes[plural.lower()] = code
    return codes


def tokenize(text: str) -> list[tuple[str, int]]:
    """Whitespace tokenization: maximal non-whitespace runs with 0-based positions."""
    return [(token, i) for i, token in enumerate(text.split())]


def extract_term(token: str, config: CounterConfig) -> int | None:
    """Term code for a token, or None.

    Strips edge punctuation, then accepts all-ASCII-digit remainders of
    at most max_number_digits digits as numbers and (case-folded)
    lexicon forms as units.
    """
    stripped = token.strip(STRIP_CHARS)
    if not stripped:
        return None
    if stripped.isascii() and stripped.isdigit():
        if len(stripped) <= config.max_number_digits:
            return int(stripped)
        return None
    return _form_codes(config.unit_lexicon).get(stripped.lower())


_TERM_FLAG = b"\x01"


class _SurfaceCache(dict):
    """Maps token surface forms to a one-byte is-a-term flag.

    Joining the flags of a whole document gives a bytes mask whose
    term positions bytes.find locates at C speed; the shifted codes
    (code + 1) of term surfaces live in the side table `codes`.
    Classification happens once per surface form via extract_term; the
    caches are dropped wholesale, between documents, if an adversarial
    vocabulary grows them past the cap.
    """

    _CAP = 1_000_000

    def __init__(self, config: CounterConfig) -> None:
        super().__init__()
        self._config = config
        self.codes: dict[str, int] = {}

    def __missing__(self, token: str) -> bytes:
        code = extract_term(token, self._config)
        if code is None:
            flag = b"\x00"
        else:
            flag = _TERM_FLAG
            self.codes[token] = code + 1
        self[token] = flag
        return flag


class TermScanner:
    """Single-pass extraction of (token position, term code) from a document.

    Equivalent to running extract_term over tokenize (the test suite
    asserts this); classification is memoized per surface form and the
    per-token work happens inside split/map/join/find.
    """

    def __init__(self, config: CounterConfig) -> None:
        self._cache = _SurfaceCache(config)

    def scan_shifted(self, text: str) -> tuple[list[tuple[int, int]], int]:
        """Return ([(position, code + 1), ...], total token count) for one
        document; codes stay shifted by +1 for the counting hot path."""
        cache = self._cache
        if len(cache) >= cache._CAP:
            cache.clear()
            cache.codes.clear()
        tokens = text.split()
        flags = b"".join(map(cache.__getitem__, tokens))
        terms = []
        append = terms.append
        codes = cache.codes
        find = flags.find
        pos = find(_TERM_FLAG)
        while pos >= 0:
            append((pos, codes[tokens[pos]]))
            pos = find(_TERM_FLAG, pos + 1)
        return terms, len(tokens)


@dataclass
class CountMeta:
    corpus: str
    config_digest: str
    documents: int = 0
    tokens: int = 0
    skipped_documents: int = 0


@dataclass
class CountTable:
    """Exact term-set counts plus provenance; immutable after finalization."""

    entries: dict[tuple[int, ...], int]
    meta: CountMeta

    @classmethod
    def empty(cls, config: CounterConfig, corpus: str = "") -> "CountTable":
        return cls({}, CountMeta(corpus=corpus, config_digest=config.digest()))

    def query(self, key: Iterable[int]) -> int:
        """Frequency of a term set; 0 for absent keys."""
        return self.entries.get(term_set(key), 0)

    def save(self, path: Path | str) -> None:
        write_table(path, _sorted_lines(self.entries), self.meta)

    @classmethod
    def load(cls, path: Path | str) -> "CountTable":
        path = table_file(path)
        entries = {parse_key(key): count for key, count in _iter_count_lines(path)}
        return cls(entries, read_meta(path))


def table_file(path: Path | str) -> Path:
    """The table file itself, given it or the directory holding counts.tsv."""
    path = Path(path)
    return path / "counts.tsv" if path.is_dir() else path


def _meta_path(table_path: Path) -> Path:
    return table_path.with_suffix(".meta.json")


def read_meta(table_path: Path | str) -> CountMeta:
    return CountMeta(**json.loads(_meta_path(Path(table_path)).read_text()))


def _sorted_lines(entries: dict[tuple[int, ...], int]) -> list[tuple[str, int]]:
    return sorted((key_str(k), v) for k, v in entries.items())


def write_table(
    path: Path | str, lines: Iterable[tuple[str, int]], meta: CountMeta | None = None
) -> None:
    """Write (key, count) lines, already sorted by key string, as a table
    file; with meta, also write its sidecar."""
    path = Path(path)
    with atomic_open(path) as f:
        f.writelines(f"{key}\t{count}\n" for key, count in lines)
    if meta is not None:
        with atomic_open(_meta_path(path)) as f:
            f.write(canonical_json(asdict(meta)))


def combine_metas(metas: Sequence[CountMeta]) -> CountMeta:
    """Provenance of the sum of tables counted under one configuration:
    distinct corpus names joined by '+', document and token totals summed."""
    if len({m.config_digest for m in metas}) > 1:
        raise ConfigDigestMismatch("cannot combine tables counted under different configurations")
    return CountMeta(
        corpus="+".join(dict.fromkeys(m.corpus for m in metas if m.corpus)),
        config_digest=metas[0].config_digest,
        documents=sum(m.documents for m in metas),
        tokens=sum(m.tokens for m in metas),
        skipped_documents=sum(m.skipped_documents for m in metas),
    )


def merge(a: CountTable, b: CountTable) -> CountTable:
    """Pointwise sum of two tables counted under the same configuration."""
    meta = combine_metas([a.meta, b.meta])
    entries = dict(a.entries)
    for key, count in b.entries.items():
        entries[key] = entries.get(key, 0) + count
    return CountTable(entries, meta)


def top_numbers(
    table: CountTable,
    k: int,
    max_digits: int | None = None,
    cooccur_with: str | int | None = None,
) -> list[int]:
    """The k most frequent numbers, by unigram count or by pair count with a unit.

    Restricted to values with at most max_digits digits; ordered by
    descending count with ties broken by ascending value; shorter than k
    when fewer numbers qualify.
    """
    cap = UNIT_BASE if max_digits is None else 10**max_digits
    ranked: list[tuple[int, int]] = []
    if cooccur_with is None:
        for key, count in table.entries.items():
            if len(key) == 1 and key[0] < cap:
                ranked.append((key[0], count))
    else:
        unit = unit_term(cooccur_with) if isinstance(cooccur_with, str) else cooccur_with
        for key, count in table.entries.items():
            if len(key) == 2 and key[1] == unit and key[0] < min(cap, UNIT_BASE):
                ranked.append((key[0], count))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return [value for value, _count in ranked[:k]]


class _ShardAccumulator:
    """Streaming counter for one shard, with optional spill-to-disk."""

    def __init__(self, config: CounterConfig) -> None:
        self.config = config
        self.scanner = TermScanner(config)
        self.uni: dict[int, int] = defaultdict(int)
        self.pairs: dict[tuple[int, int], int] = defaultdict(int)
        self.triples: dict[tuple[int, int, int], int] = defaultdict(int)
        self.documents = 0
        self.tokens = 0
        if config.target_sets is None:
            self.pair_targets = None
            self.triple_targets: frozenset = frozenset()
        else:
            self.pair_targets = frozenset(t for t in config.target_sets if len(t) == 2)
            self.triple_targets = frozenset(t for t in config.target_sets if len(t) == 3)

    def add_document(self, text: str) -> None:
        # Codes in `terms` are shifted by +1 (see _SurfaceCache); all
        # comparisons against UNIT_BASE / NN_PAIR_MAX shift accordingly
        # and keys are unshifted only when actually emitted.
        terms, total = self.scanner.scan_shifted(text)
        self.documents += 1
        self.tokens += total
        if not terms:
            return
        maxdist = self.config.max_distance
        uni = self.uni
        pairs = self.pairs
        lo = 0
        if self.pair_targets is None:
            for idx, (p, c) in enumerate(terms):
                uni[c] += 1
                lo_p = p - maxdist
                while terms[lo][0] < lo_p:
                    lo += 1
                if lo == idx:
                    continue
                c_unit = c > UNIT_BASE
                c_small = c <= NN_PAIR_MAX
                for j in range(lo, idx):
                    d = terms[j][1]
                    if d > UNIT_BASE:
                        if c_unit:
                            continue
                    elif not (c_unit or (c_small and d <= NN_PAIR_MAX)):
                        continue
                    pairs[(d - 1, c - 1) if d <= c else (c - 1, d - 1)] += 1
        else:
            pair_targets = self.pair_targets
            triple_targets = self.triple_targets
            triples = self.triples
            for idx, (p, c) in enumerate(terms):
                uni[c] += 1
                lo_p = p - maxdist
                while terms[lo][0] < lo_p:
                    lo += 1
                for j in range(lo, idx):
                    d = terms[j][1]
                    key = (d - 1, c - 1) if d <= c else (c - 1, d - 1)
                    if key in pair_targets:
                        pairs[key] += 1
                    if triple_targets:
                        for i2 in range(lo, j):
                            key3 = tuple(sorted((terms[i2][1] - 1, d - 1, c - 1)))
                            if key3 in triple_targets:
                                triples[key3] += 1

    @property
    def size(self) -> int:
        return len(self.uni) + len(self.pairs) + len(self.triples)

    def entries(self) -> dict[tuple[int, ...], int]:
        # unigram keys are stored shifted; unshift on the way out
        out: dict[tuple[int, ...], int] = {(c - 1,): n for c, n in self.uni.items()}
        out.update(self.pairs)
        out.update(self.triples)
        return out

    def spill(self, path: Path) -> None:
        """Write the accumulated counts as a sorted partial table and reset."""
        lines = _sorted_lines(self.entries())
        write_table(path, lines)
        self.uni.clear()
        self.pairs.clear()
        self.triples.clear()


def count_shard(
    documents: Iterable[str], config: CounterConfig, corpus: str = ""
) -> CountTable:
    """Count one shard of documents in memory."""
    acc = _ShardAccumulator(config)
    for text in documents:
        acc.add_document(text)
    meta = CountMeta(
        corpus=corpus,
        config_digest=config.digest(),
        documents=acc.documents,
        tokens=acc.tokens,
    )
    return CountTable(acc.entries(), meta)


def _iter_count_lines(path: Path) -> Iterator[tuple[str, int]]:
    with open(path, encoding="utf-8") as f:
        for line in f:
            key, _, count = line.rstrip("\n").partition("\t")
            yield key, int(count)


def _sum_sorted(streams: list[Iterator[tuple[str, int]]]) -> Iterator[tuple[str, int]]:
    current: str | None = None
    total = 0
    for key, count in heapq.merge(*streams):
        if key == current:
            total += count
        else:
            if current is not None:
                yield current, total
            current, total = key, count
    if current is not None:
        yield current, total


def merge_sorted_count_files(inputs: list[Path], out: Path, meta: CountMeta) -> None:
    """K-way streaming merge of sorted key/count files, summing equal keys,
    into the table `out` with meta as its sidecar."""
    write_table(out, _sum_sorted([_iter_count_lines(p) for p in inputs]), meta)
