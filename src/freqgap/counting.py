"""Windowed co-occurrence counting of number and time-unit terms.

Counts are exact: the unigram count of a term is its number of token
positions; the pair count of {a, b} is the number of unordered position
pairs (i, j), i < j, with j - i <= window - 1 inside one document, that
is, both terms inside one window of `window` tokens; triples need the
full span inside one window.  Windows never cross document boundaries.

One window loop counts every table: all unigrams, the default pair
family ((number, number) pairs with both values below 10,000 and all
(number, unit) pairs) and CONVERSION_TRIPLES, {x1, u, f} and
{x1, u, x1*f} for each time-unit conversion's unit u and factor f,
1 <= x1 <= 99.  The two numbers of such a triple form a default-family
pair, so the loop looks triples up only on number pairs it counts.  A
targeted config (with_targets) runs the same loop, then keeps the
unigrams and exactly the targets; a target outside those families is
rejected when the config is made.  CountTable.select makes the same
selection from a counted table.

Every document is counted by one compiled kernel, _count.c, called
through ctypes: it scans the terms, runs the window loop and counts into
a table keyed by packed 64-bit ints, exactly as TermScanner and
_ShardAccumulator.add_document do in Python for any Unicode text.  It
takes documents in batches of about _BATCH_BYTES, and JSONL as the raw
bytes of whole lines, whose records it decodes as record_text does; a
line it cannot decide exactly (nested deeper than its limit, or holding
an integer literal longer than the lowest int_max_str_digits) is
decoded by record_text.  The library is built with cc when this module
is imported and __pycache__ holds none for the source's hash and the
machine type; otherwise the import reads the source and does one stat,
and ctypes loads the library at the first count.  Building here, not in
the first count, keeps the compiler's time and memory out of the count
workers.  The Python scan, window loop and record_text are the
reference the tests compare the kernel with, and the path every
document takes where no library can be built; the first count of such
a process logs a warning saying why.

A table file is a `key<TAB>count` TSV sorted by key string plus a
`.meta.json` sidecar.  write_table is its one writer, combine_metas the
one combination of provenance, merge_sorted_count_files the one merge.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import math
import os
import shutil
import tempfile
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from functools import cached_property, lru_cache
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .terms import CONVERSION_MAX_DIGITS, CONVERSION_TASKS, UNIT_BASE, UNITS, key_str
from .terms import parse_key, term_set, unit_term
from .util import atomic_open, canonical_json, sha256_text

log = logging.getLogger(__name__)

# Edge punctuation stripped from tokens before term extraction.
STRIP_CHARS = ".,;:!?()\"'[]"

# Default pair family: (number, number) pairs keep both values below this.
NN_PAIR_MAX = 10_000

# Unit surface forms, (singular, plural); matched case-folded.
UNIT_LEXICON: tuple[tuple[str, str], ...] = tuple((u, u + "s") for u in UNITS)
_FORM_CODES = {
    form: unit_term(singular) for singular, plural in UNIT_LEXICON for form in (singular, plural)
}

CONVERSION_TRIPLES: frozenset[tuple[int, ...]] = frozenset(
    term_set((x1, unit_term(unit), y))
    for unit, factor in CONVERSION_TASKS.values()
    for x1 in range(1, 10**CONVERSION_MAX_DIGITS)
    for y in (factor, x1 * factor)
)


# A conversion triple is found from its anchor, its two numbers in sorted
# order: anchor -> {third (unit) code + 1: triple}.
_TRIPLE_ANCHORS: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
for _triple in CONVERSION_TRIPLES:
    _TRIPLE_ANCHORS.setdefault(_triple[:2], {})[_triple[2] + 1] = _triple


def counted(key: tuple[int, ...]) -> bool:
    """Whether the window loop counts the sorted term set `key`: every
    unigram, the default pair family and the conversion triples."""
    if len(key) == 2:
        a, b = key
        return a < UNIT_BASE <= b or b < NN_PAIR_MAX
    return len(key) == 1 or key in CONVERSION_TRIPLES


class ConfigDigestMismatch(ValueError):
    """Raised when tables from incompatible counting runs are combined."""


@dataclass(frozen=True)
class CounterConfig:
    """Counting parameters; the digest of these fields keys merge compatibility.

    Two terms co-occur when their positions lie at most window - 1
    apart.  target_sets, when set, keeps the unigrams and exactly these
    term sets; each must be one the window loop counts.
    """

    window: int = 5
    max_number_digits: int = 6
    target_sets: frozenset[tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if not 1 <= self.max_number_digits <= 12:
            raise ValueError("max_number_digits must be in 1..12")
        outside = sorted(key_str(t) for t in self.target_sets or () if not counted(t))
        if outside:
            raise ValueError(f"{len(outside)} targets outside the counted term sets: {outside[0]}")

    def with_targets(self, targets: Iterable[tuple[int, ...]]) -> "CounterConfig":
        return replace(self, target_sets=frozenset(term_set(t) for t in targets))

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # Cached, and pickled with the config, so a count worker hashes
        # nothing: a sha256 in a forked worker maps ~0.7 MB more pages.
        targets = None
        if self.target_sets is not None:
            targets = sorted(key_str(t) for t in self.target_sets)
        return sha256_text(
            canonical_json(
                {
                    "window": self.window,
                    "window_rule": "span",  # constant; keeps existing tables' digests valid
                    "max_number_digits": self.max_number_digits,
                    "unit_lexicon": [list(pair) for pair in UNIT_LEXICON],
                    "triple_family": [CONVERSION_MAX_DIGITS, list(CONVERSION_TASKS.values())],
                    "targets": targets,
                }
            )
        )


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
    return _FORM_CODES.get(stripped.lower())


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
    """Single-pass extraction of (token position, term code) from a document:
    the Python reference of the kernel's scan.

    Equivalent to running extract_term over the whitespace-split tokens
    (the test suite asserts this); classification is memoized per
    surface form and the per-token work happens inside split/map/join/find.
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


_KERNEL_SOURCE = Path(__file__).with_name("_count.c")

# Documents go to the kernel in batches of about this many bytes.
_BATCH_BYTES = 1 << 18
_INT64_MAX = 2**63 - 1


def _build_kernel(source: Path, path: Path) -> None:
    """Compile `source` into the shared library `path` through a temp file
    beside it, so that concurrent builds each leave one whole file."""
    import subprocess

    path.parent.mkdir(exist_ok=True)
    if shutil.which("cc") is None:
        raise OSError("no C compiler: cc is not on PATH")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-o", tmp, str(source)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        first = exc.stderr.decode(errors="replace").strip().partition("\n")[0]
        raise OSError(f"cc failed: {first}") from exc
    except subprocess.SubprocessError as exc:
        raise OSError(f"cc failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _kernel_path(source: Path = _KERNEL_SOURCE) -> tuple[Path | None, str]:
    """The library compiled from `source`, in the __pycache__ beside it
    under a name keyed by the source's hash and the machine type; built
    when missing.  (None, why) where no library can be built."""
    try:
        tag = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
        path = source.parent / "__pycache__" / f"{source.stem}-{tag}-{os.uname().machine}.so"
        if not path.exists():
            _build_kernel(source, path)
    except OSError as exc:
        return None, str(exc)
    return path, ""


# Built at import; a failure is reported at the first count (see _kernel).
_KERNEL_PATH, _NO_KERNEL = _kernel_path()

_FALLBACK = "counting in Python, several times slower"


@lru_cache(maxsize=None)
def _kernel():
    """The kernel library, loaded with ctypes and given the term rules;
    None where there is none, which logs one warning per process."""
    if _KERNEL_PATH is None:
        log.warning("no counting kernel (%s): %s", _NO_KERNEL, _FALLBACK)
        return None
    import ctypes

    try:
        lib = ctypes.CDLL(str(_KERNEL_PATH))
    except OSError as exc:
        log.warning("the counting kernel does not load (%s): %s", exc, _FALLBACK)
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for name, restype, argtypes in (
        ("fg_setup", ctypes.c_int, [ctypes.c_char_p, i64, ctypes.c_char_p, ptr, ptr,
                                    i64, i64, i64, i64, ptr, i64]),
        ("fg_unicode_tables", i64, [ptr, ptr, ptr]),
        ("fg_new", ptr, [i64, i64]),
        ("fg_free", None, [ptr]),
        ("fg_clear", ctypes.c_int, [ptr]),
        ("fg_size", i64, [ptr]),
        ("fg_dump", i64, [ptr, ptr]),
        ("fg_count", i64, [ptr, ctypes.c_char_p, i64, i64, i64, ptr]),
        ("fg_count_jsonl", i64, [ptr, ctypes.c_char_p, i64, i64, i64, ptr]),
    ):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    forms = [form.encode("ascii") for form in _FORM_CODES]
    width = max(map(len, forms))
    lens = array("q", map(len, forms))
    codes = array("q", _FORM_CODES.values())
    triples = array("q", chain.from_iterable(sorted(CONVERSION_TRIPLES)))
    status = lib.fg_setup(
        STRIP_CHARS.encode("ascii"), len(STRIP_CHARS),
        b"".join(form.ljust(width, b"\0") for form in forms),
        lens.buffer_info()[0], codes.buffer_info()[0], len(forms), width,
        UNIT_BASE, NN_PAIR_MAX, triples.buffer_info()[0], len(CONVERSION_TRIPLES),
    )
    if status != 0:
        raise ValueError("the term rules do not fit the counting kernel")
    return lib


def _batches(texts: Iterable[str]) -> Iterator[bytes]:
    """The documents' UTF-8 encodings, lone surrogates passed through,
    joined by 0xFF (a byte no such encoding holds), about _BATCH_BYTES
    at a time."""
    batch: list[bytes] = []
    size = 0
    for text in texts:
        data = text.encode("utf-8", "surrogatepass")
        batch.append(data)
        size += len(data)
        if size >= _BATCH_BYTES:
            yield b"\xff".join(batch)
            batch, size = [], 0
    if batch:
        yield b"\xff".join(batch)


def record_text(line: bytes) -> str | None:
    """The document of a JSONL line, json.loads(line.decode("utf-8"))["text"];
    None when the line is skipped: not UTF-8 or JSON, nested past the
    recursion limit, no object, or without a string "text"."""
    try:
        text = json.loads(line.decode("utf-8"))["text"]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, RecursionError):
        return None
    return text if isinstance(text, str) else None


def jsonl_documents(blocks: Iterable[bytes], meta: "CountMeta") -> Iterator[str]:
    """The documents of JSONL `blocks` (runs of whole lines), decoded in
    Python; adds each skipped line to meta.skipped_documents.  A line that
    bytes.strip() empties is no record."""
    for block in blocks:
        for line in block.split(b"\n"):
            if line.strip():
                text = record_text(line)
                if text is None:
                    meta.skipped_documents += 1
                else:
                    yield text


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

    def save(self, path: Path | str) -> "CountTable":
        write_table(path, _sorted_lines(self.entries.items()), self.meta)
        return self

    def select(self, targeted: CounterConfig) -> "CountTable":
        """The table a count of this table's corpus under `targeted` gives.
        This table must be counted under `targeted` without targets."""
        if self.meta.config_digest != replace(targeted, target_sets=None).digest():
            raise ConfigDigestMismatch("table was counted under another configuration")
        entries = dict(_select(self.entries.items(), targeted.target_sets))
        return CountTable(entries, replace(self.meta, config_digest=targeted.digest()))

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


def _select(items: Iterable[tuple[tuple[int, ...], int]], targets: frozenset) -> Iterator:
    """The unigrams and the target term sets among (key, count) items."""
    return ((key, n) for key, n in items if len(key) == 1 or key in targets)


def _sorted_lines(items: Iterable[tuple[tuple[int, ...], int]]) -> list[tuple[str, int]]:
    return sorted((key_str(k), v) for k, v in items)


def write_table(
    path: Path | str, lines: Iterable[tuple[str, int]], meta: CountMeta | None = None
) -> None:
    """Write (key, count) lines, already sorted by key string, as a table
    file; with meta, also write its sidecar."""
    path = Path(path)
    with atomic_open(path) as f:
        f.writelines(f"{key}\t{count}\n" for key, count in lines)
    if meta is not None:
        _write_meta(path, meta)


def _write_meta(table_path: Path, meta: CountMeta) -> None:
    with atomic_open(_meta_path(table_path)) as f:
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
    """Streaming counter for one shard, with optional spill-to-disk; the
    reader adds the shard's skipped records to its meta.

    add_documents and add_jsonl count every document with the compiled
    kernel where it loads, and with add_document, the Python reference
    (after record_text for JSONL), where it does not.
    """

    def __init__(self, config: CounterConfig, corpus: str = "") -> None:
        self.config = config
        self.meta = CountMeta(corpus=corpus, config_digest=config.digest())
        self._lib = _kernel()
        if self._lib is not None:
            self._counter = self._lib.fg_new(config.window, config.max_number_digits)
            if not self._counter:
                raise MemoryError("counting kernel out of memory")
        self.scanner = TermScanner(config)
        self.uni: dict[int, int] = defaultdict(int)
        self.pairs: dict[tuple[int, int], int] = defaultdict(int)
        self.triples: dict[tuple[int, ...], int] = defaultdict(int)

    def __del__(self) -> None:
        if getattr(self, "_counter", None):
            self._lib.fg_free(self._counter)

    def add_documents(
        self,
        texts: Iterable[str],
        spill_threshold: float = math.inf,
        spill: Callable[[], None] | None = None,
    ) -> None:
        """Count `texts`; after each document that leaves the table with at
        least spill_threshold keys, call spill."""
        if self._lib is None:
            for text in texts:
                self.add_document(text)
                if self.size >= spill_threshold:
                    spill()
            return
        limit = min(spill_threshold, _INT64_MAX)
        totals = array("q", [0, 0])  # documents, tokens
        for batch in _batches(texts):
            start = 0
            while True:
                end = self._lib.fg_count(
                    self._counter, batch, start, len(batch), limit, totals.buffer_info()[0]
                )
                if end < 0:
                    raise MemoryError("counting kernel out of memory")
                if self.size >= spill_threshold:
                    spill()
                if end == len(batch):
                    break
                start = end + 1
        self.meta.documents += totals[0]
        self.meta.tokens += totals[1]

    def add_jsonl(
        self,
        blocks: Iterable[bytes],
        spill_threshold: float = math.inf,
        spill: Callable[[], None] | None = None,
    ) -> None:
        """Count the records of JSONL `blocks` (runs of whole lines) as
        add_documents counts jsonl_documents(blocks), adding skipped lines
        to meta.  The kernel reads the bytes; a line it hands back is
        decoded by record_text."""
        if self._lib is None:
            self.add_documents(jsonl_documents(blocks, self.meta), spill_threshold, spill)
            return
        lib, counter = self._lib, self._counter
        limit = min(spill_threshold, _INT64_MAX)
        totals = array("q", [0, 0, 0, 0])  # documents, tokens, skipped, handed back
        address = totals.buffer_info()[0]
        for block in blocks:
            start = 0
            while start < len(block):
                start = lib.fg_count_jsonl(counter, block, start, len(block), limit, address)
                if start < 0:
                    raise MemoryError("counting kernel out of memory")
                if totals[3]:  # the line at start is handed back
                    totals[3] = 0
                    end = block.find(b"\n", start) + 1 or len(block)
                    text = record_text(block[start:end])
                    if text is None:
                        totals[2] += 1
                    else:
                        data = text.encode("utf-8", "surrogatepass")
                        if lib.fg_count(counter, data, 0, len(data), limit, address) < 0:
                            raise MemoryError("counting kernel out of memory")
                    start = end
                if self.size >= spill_threshold:
                    spill()
        self.meta.documents += totals[0]
        self.meta.tokens += totals[1]
        self.meta.skipped_documents += totals[2]

    def add_document(self, text: str) -> None:
        """Count one document in Python: the reference path."""
        # Codes in `terms` are shifted by +1 (see _SurfaceCache); all
        # comparisons against UNIT_BASE / NN_PAIR_MAX shift accordingly
        # and keys are unshifted only when actually emitted.
        terms, total = self.scanner.scan_shifted(text)
        self.meta.documents += 1
        self.meta.tokens += total
        if not terms:
            return
        maxdist = self.config.window - 1
        uni = self.uni
        pairs = self.pairs
        anchors = _TRIPLE_ANCHORS
        unit_base = UNIT_BASE  # locals, read once per pair
        nn_max = NN_PAIR_MAX
        lo = 0
        for idx, (p, c) in enumerate(terms):
            uni[c] += 1
            lo_p = p - maxdist
            while terms[lo][0] < lo_p:
                lo += 1
            if lo == idx:
                continue
            c_unit = c > unit_base
            c_small = c <= nn_max
            for j in range(lo, idx):
                d = terms[j][1]
                if d > unit_base:
                    if c_unit:
                        continue
                elif not c_unit:
                    # number pairs are the only anchors; the branches stay
                    # apart to keep (number, unit) pairs cheap
                    if c_small and d <= nn_max:
                        key = (d - 1, c - 1) if d <= c else (c - 1, d - 1)
                        pairs[key] += 1
                        thirds = anchors.get(key)
                        if thirds is not None:
                            self._add_triples(terms, lo, j, idx, thirds)
                    continue
                key = (d - 1, c - 1) if d <= c else (c - 1, d - 1)
                pairs[key] += 1

    def _add_triples(self, terms: list, lo: int, j: int, idx: int, thirds: dict) -> None:
        """Count the triples of anchor (j, idx) and a third term in the
        window.  The third may lie before, between or after the anchor; it
        sorts last by (code, position), which counts each triple once."""
        maxdist = self.config.window - 1
        pj, d = terms[j]
        top = max((d, pj), terms[idx][::-1])
        for i3 in range(lo, len(terms)):
            q, e = terms[i3]
            if q - pj > maxdist:
                break
            triple = thirds.get(e)
            if triple is not None and (e, q) > top:
                self.triples[triple] += 1

    @property
    def size(self) -> int:
        if self._lib is not None:
            return self._lib.fg_size(self._counter)
        return len(self.uni) + len(self.pairs) + len(self.triples)

    def _items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """The accumulated (key, count)s, of the targets if there are any."""
        if self._lib is not None:
            rows = array("q", [0]) * (4 * self.size)
            self._lib.fg_dump(self._counter, rows.buffer_info()[0])
            it = iter(rows)  # (t0, t1, t2, count), -1 for absent terms
            items = (
                ((a,) if b < 0 else (a, b) if c < 0 else (a, b, c), n)
                for a, b, c, n in zip(it, it, it, it)
            )
        else:
            # unigram keys are stored shifted; unshift on the way out
            items = chain(
                (((c - 1,), n) for c, n in self.uni.items()),
                self.pairs.items(),
                self.triples.items(),
            )
        targets = self.config.target_sets
        return items if targets is None else _select(items, targets)

    def entries(self) -> dict[tuple[int, ...], int]:
        return dict(self._items())

    def spill(self, path: Path) -> None:
        """Write the accumulated counts as a sorted partial table and reset."""
        write_table(path, _sorted_lines(self._items()))
        if self._lib is not None and self._lib.fg_clear(self._counter) != 0:
            raise MemoryError("counting kernel out of memory")
        self.uni.clear()
        self.pairs.clear()
        self.triples.clear()


def count_shard(
    documents: Iterable[str], config: CounterConfig, corpus: str = ""
) -> CountTable:
    """Count one shard of documents in memory."""
    acc = _ShardAccumulator(config, corpus)
    acc.add_documents(documents)
    return CountTable(acc.entries(), acc.meta)


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


def copy_count_file(source: Path, out: Path, meta: CountMeta) -> None:
    """One sorted key/count file is already a table: copy its bytes into
    the table `out`, committed atomically (the source may be on another
    filesystem), with meta as its sidecar."""
    with open(source, "rb") as src, atomic_open(out, "wb") as dst:
        shutil.copyfileobj(src, dst)
    _write_meta(out, meta)
