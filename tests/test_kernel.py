"""The compiled counting kernel (src/freqgap/_count.c) against the Python
reference path and the brute-force oracle, on mixed-script text."""

import ctypes
import json
import logging
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import freqgap
import freqgap.corpus as corpus_mod
import freqgap.counting as counting_mod
from freqgap.corpus import count_corpus
from freqgap.counting import (
    CONVERSION_TRIPLES,
    STRIP_CHARS,
    UNIT_LEXICON,
    CounterConfig,
    _ShardAccumulator,
    count_shard,
)
from freqgap.terms import unit_term
from helpers import oracle_count, python_path, random_corpus, tokenize

pytestmark = pytest.mark.skipif(
    counting_mod._kernel() is None, reason="no C compiler: every count runs in Python"
)

KELVIN = "\u212a"


@lru_cache(maxsize=None)
def split_points() -> tuple[str, ...]:
    """The characters str.split() splits on, asked of this Python."""
    return tuple(ch for ch in map(chr, range(0x110000)) if len(f"a{ch}b".split()) == 2)


@lru_cache(maxsize=None)
def ascii_lowering() -> dict[str, str]:
    """The non-ASCII characters whose str.lower() is ASCII, and that lower."""
    return {
        ch: ch.lower() for ch in map(chr, range(0x80, 0x110000)) if ch.lower().isascii()
    }


def both_paths(documents, config):
    kernel = count_shard(documents, config)
    with python_path():
        python = count_shard(documents, config)
    return kernel, python


# --- mixed-script documents -----------------------------------------------

_FORMS = [form for pair in UNIT_LEXICON for form in pair]


def _unit_spelling(form, upper, kelvin):
    chars = [c.upper() if u else c for c, u in zip(form, upper)]
    return "".join(KELVIN if c in "kK" and k else c for c, k in zip(chars, kelvin))


_UNITS = st.builds(
    _unit_spelling,
    st.sampled_from(_FORMS + ["week", "weeks"]),
    st.lists(st.booleans(), min_size=7, max_size=7),
    st.lists(st.booleans(), min_size=7, max_size=7),
)
_DIGITS = st.text("0123456789", min_size=1, max_size=13)
# NUL, lone surrogates, CJK, emoji, other scripts' digits, characters
# whose lower() is not ASCII, and zero-width or former space characters
# that str.split() does not split on.
_EXOTIC = st.sampled_from([
    "\x00", "\ud800", "\udfff", "\udc00", "\u6642\u9593", "\u5e74", "\u23f0", "\U0001f550",
    "\u00e9", "\u0663", "\u00b2", "\u0130", "\u200b", "\u180e", "\ufeff", KELVIN, "k", "x", "ok",
])
_EDGES = st.text(STRIP_CHARS, max_size=3)
_CORES = st.one_of(
    _DIGITS, _UNITS, _EXOTIC, st.sampled_from(["9999", "10000", "0", "00"]),
    st.lists(st.one_of(_DIGITS, _UNITS, _EXOTIC), min_size=2, max_size=3).map("".join),
)
_TOKENS = st.builds(lambda a, core, b: a + core + b, _EDGES, _CORES, _EDGES)
_GAPS = st.one_of(
    st.sampled_from(split_points()), st.lists(st.sampled_from(split_points()), max_size=3).map("".join)
)
_DOCUMENTS = st.builds(
    lambda lead, pieces: lead + "".join(token + gap for token, gap in pieces),
    _GAPS,
    st.lists(st.tuples(_TOKENS, _GAPS), max_size=40),
)


def _targets(entries, rng):
    """Some of a table's counted term sets, and some conversion triples."""
    keys = sorted(k for k in entries if len(k) > 1)
    return rng.sample(keys, len(keys) // 2) + rng.sample(sorted(CONVERSION_TRIPLES), 5)


@settings(max_examples=150, deadline=None)
@given(
    documents=st.lists(_DOCUMENTS, max_size=6),
    window=st.integers(2, 8),
    digits=st.integers(1, 12),
    targeted=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
def test_kernel_matches_python_and_oracle_on_mixed_script(documents, window, digits, targeted, rng):
    config = CounterConfig(window=window, max_number_digits=digits)
    if targeted:
        with python_path():
            config = config.with_targets(_targets(count_shard(documents, config).entries, rng))
    kernel, python = both_paths(documents, config)
    assert kernel.entries == python.entries == oracle_count(documents, config)
    assert kernel.meta == python.meta
    assert kernel.meta.documents == len(documents)
    assert kernel.meta.tokens == sum(len(tokenize(d)) for d in documents)


@pytest.mark.parametrize("window", range(2, 9))
def test_kernel_matches_python_on_dense_random_corpora(window):
    documents = random_corpus(random.Random(window), 200, max_tokens=80)
    documents.append(" ".join(["60", "minutes", "1", "60", "hour", "24", "days", "2"] * 9))
    config = CounterConfig(window=window)
    kernel, python = both_paths(documents, config)
    assert kernel.entries == python.entries == oracle_count(documents, config)
    assert kernel.meta == python.meta


def test_kelvin_sign_spells_week():
    table = count_shard([f"3 wee{KELVIN}", f"2 WEE{KELVIN}S", f"wee{KELVIN}"], CounterConfig())
    week = unit_term("week")
    assert table.query((week,)) == 3
    assert table.query((3, week)) == table.query((2, week)) == 1


# --- 64-byte chunk boundaries ------------------------------------------------

# The kernel reads a document 64 bytes at a time: these pieces lie across
# offsets 63/64/65 and 127/128 of a document.  Terms in any case (KELVIN
# SIGN in "week" among them), with strip bytes around them, digit runs,
# and spaces of one, two and three bytes.
_BOUNDARY_PIECES = ["12", "(Hours)", "WEE" + KELVIN + "S", "wee" + KELVIN, "1234567890123",
                    "\x85", "\xa0", "\u2000", "\u3000", "7\u3000Days", "\xa0mInUtEs\u2000", "3\x85"]
_BOUNDARY_SPACES = st.sampled_from(["\x85", "\xa0", "\u2000", "\u3000", " ", "\t", "\x1c"])


def _utf8_len(text):
    return len(text.encode("utf-8", "surrogatepass"))


def boundary_documents():
    """Each boundary piece starting at every offset that puts byte 64 or
    128 inside it or next to it, after a space and after a digit, in
    documents of 63-65 and 127-129 bytes where the piece fits."""
    words, tail = "1 day " * 30, " 3 weeks" * 30
    documents = []
    for piece in _BOUNDARY_PIECES + ["7", "s"]:
        width = _utf8_len(piece)
        for boundary in (64, 128):
            for start in range(max(boundary - width - 1, 1), boundary + 2):
                for head in (words[: start - 1] + " ", words[: start - 1] + "1"):
                    for size in (boundary - 1, boundary, boundary + 1, start + width):
                        if size >= start + width:
                            documents.append(head + piece + tail[: size - start - width])
    return documents


@st.composite
def _boundary_document(draw):
    """Pieces lying across offset 63, 64, 65, 127 or 128, padded with ASCII
    to 63-65 or 127-129 bytes when they fit."""
    piece = "".join(draw(st.lists(st.one_of(_TOKENS, _BOUNDARY_SPACES), min_size=1, max_size=4)))
    offset = draw(st.sampled_from([63, 64, 65, 127, 128]))
    start = max(offset - draw(st.integers(0, _utf8_len(piece))), 0)
    document = draw(st.text("ab1 .", min_size=start, max_size=start)) + piece
    sizes = [size for size in (63, 64, 65, 127, 128, 129) if size >= _utf8_len(document)]
    if sizes:
        pad = draw(st.sampled_from(sizes)) - _utf8_len(document)
        document += draw(st.text("s2 (", min_size=pad, max_size=pad))
    return document


def test_kernel_matches_python_and_oracle_on_the_boundary_documents():
    documents = boundary_documents()
    for window in (2, 5):
        config = CounterConfig(window=window)
        kernel, python = both_paths(documents, config)
        assert kernel.entries == python.entries == oracle_count(documents, config)
        assert kernel.meta == python.meta


@settings(max_examples=300, deadline=None)
@given(documents=st.lists(_boundary_document(), min_size=1, max_size=4), window=st.integers(2, 6))
def test_kernel_matches_python_and_oracle_across_chunk_boundaries(documents, window):
    config = CounterConfig(window=window)
    kernel, python = both_paths(documents, config)
    assert kernel.entries == python.entries == oracle_count(documents, config)
    assert kernel.meta == python.meta
    assert kernel.meta.tokens == sum(len(tokenize(d)) for d in documents)


@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(documents=st.lists(_DOCUMENTS, min_size=1, max_size=40))
def test_mixed_script_jsonl_counts_the_same_bytes_on_both_paths_and_shardings(
    tmp_path, monkeypatch, documents
):
    # Lone surrogates reach the counter through the jsonl escapes; byte
    # ranges down to 256 bytes make shards 2 and 4 cut the file.
    monkeypatch.setattr(corpus_mod, "_SPLIT_MIN_BYTES", 256)
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    corpus = root / "mixed.jsonl"
    corpus.write_text("".join(json.dumps({"text": d}) + "\n" for d in documents))
    outputs = set()
    for path in (nullcontext, python_path):
        for shards in (1, 2, 4):
            out = root / f"{path.__name__}-{shards}" / "counts.tsv"
            with path():
                count_corpus(corpus, "jsonl", CounterConfig(), out, shards=shards, workers=2)
            outputs.add((out.read_bytes(), out.with_suffix(".meta.json").read_bytes()))
    assert len(outputs) == 1


# --- JSONL records ------------------------------------------------------------

_RAW = st.sampled_from([
    b"1", b"7", b"12", b"30", b" ", b"hours", b"Minutes", b"wee", b"k", b"\x7f",
    *(chr(cp).encode() for cp in (0xE9, 0x3000, 0x212A, 0x1F550)),
])


def _escapes(*points, upper=False):
    """The \\uXXXX escapes of the code points."""
    return b"".join((b"\\u%04X" if upper else b"\\u%04x") % cp for cp in points)


_ESCAPES = st.sampled_from([
    rb'\"', rb"\\", rb"\/", rb"\b", rb"\f", rb"\n", rb"\r", rb"\t",
    *(_escapes(cp) for cp in (0, 0x37, 0x20, 0xE9, 0x212A, 0x3000)),
    _escapes(0xE9, upper=True), _escapes(0x212A, upper=True),
    _escapes(0xD83D, 0xDE00), _escapes(0xD83D, 0xDE00, upper=True),  # a pair: one character
    _escapes(0xD800), _escapes(0xDFFF), _escapes(0xDC00, 0xD800),  # lone surrogates
    _escapes(0xD800, 0xD800, 0xDC00),
])
# what json.loads or the strict UTF-8 decoder refuses in a string
_FAULT_BYTES = [
    rb"\x", rb"\u12g4", rb"\u12", b"\x01", b"\t", b"\x1f", b"\xff", b"\x80", b"\xc0\xaf",
    b"\xe0\x80\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xf5\x80\x80\x80", b"\xe2\x82",
]
_FAULTS = st.sampled_from(_FAULT_BYTES)
_STRINGS = st.builds(
    lambda pieces, faults, at: b'"' + b"".join(pieces[:at] + faults + pieces[at:]) + b'"',
    st.lists(st.one_of(_RAW, _RAW, _ESCAPES), max_size=12),
    st.one_of(st.just([]), st.just([]), st.just([]), st.tuples(_FAULTS).map(list)),
    st.integers(0, 12),
)
_SCALARS = st.one_of(
    st.sampled_from([
        b"0", b"-1", b"12", b"1.5", b"-0.0e+3", b"1E5", b"NaN", b"Infinity", b"-Infinity",
        b"true", b"false", b"null", b"7" * 640, b"-" + b"7" * 640, b"7" * 641,
        b"-" + b"7" * 641, b"1" * 641 + b".5", b"1" * 641 + b"e2",
    ]),
    st.sampled_from([b"01", b"1.", b"-", b"nan", b"1e", b"+1"]),  # no JSON
)
# nested past the kernel's depth limit, and less
_NESTED = st.builds(
    lambda depth, array: b"[" * depth + b"]" * depth if array else b'{"a": ' * depth + b"1" + b"}" * depth,
    st.integers(1, 70),
    st.booleans(),
)
_KEYS = st.sampled_from(
    [b'"text"', b'"meta"', b'"id"', b'"' + _escapes(0x74) + b'ext"', b'"te' + _escapes(0x78) + b't"', b'"Text"']
)
_WS = st.sampled_from([b"", b" ", b"\t", b"\r", b" \t"])
_TEXT_MEMBERS = st.builds(lambda s: b'"text": ' + s, _STRINGS)
_MEMBERS = st.one_of(
    _TEXT_MEMBERS,
    st.builds(
        lambda key, a, value, b: key + a + b":" + b + value,
        _KEYS, _WS, st.one_of(_STRINGS, _SCALARS, _NESTED), _WS,
    ),
)
_RECORDS = st.builds(
    lambda members, text, at: b"{" + b", ".join(members[:at] + [text] + members[at:]) + b"}",
    st.lists(_MEMBERS, max_size=3),
    _TEXT_MEMBERS,
    st.integers(0, 3),
)
_ODD_LINES = [
    b"", b"\x0b", b"\x0c", b"\r", b" \x0c\t", b"\x1c", b"[1]", b'"text"', b"7", b"null",
    b"not json", b"\xef\xbb\xbf", b'\x00{"text": "1 hours"}',
]
_LINES = st.one_of(
    _RECORDS,
    _RECORDS,
    _RECORDS,
    st.just(b"{}"),
    st.builds(
        lambda before, record, after: before + record + after,
        st.sampled_from([b" ", b"\t", b"\xef\xbb\xbf", b"\r"]),
        _RECORDS,
        st.sampled_from([b" ", b"\r", b" x", b"\x0b", b",", b"{}"]),
    ),
    st.builds(lambda record, cut: record[:cut], _RECORDS, st.integers(0, 30)),
    st.sampled_from(_ODD_LINES),
)
# always in the corpus: a duplicate "text" (string then number and number
# then string), integers of 640 and 641 digits, NaN, a BOM, lines of one
# \x0b or \x0c, and each fault in an otherwise good record
_FIXED_LINES = [b'{"text": "1 hours' + fault + b' 2"}' for fault in _FAULT_BYTES] + [
    b'{"text": "3 hours", "text": 5}',
    b'{"text": 5, "text": "4 days"}',
    b'{"n": ' + b"9" * 640 + b', "text": "6 weeks"}',
    b'{"n": ' + b"9" * 641 + b', "text": "6 weeks"}',
    b'{"x": NaN, "text": "7 minutes"}',
    b'\xef\xbb\xbf{"text": "8 days"}',
    b"\x0b",
    b"\x0c",
]
# the sanitized run's corpus: the fixed and odd lines, escapes of spaces,
# KELVIN SIGN and surrogates, and a line nested too deep for the kernel
JSONL_EDGE_DATA = b"".join(line + b"\r\n" for line in _FIXED_LINES) + b"\n".join(_ODD_LINES + [
    b'{"text": "' + _escapes(0x3000) + b"7" + _escapes(0xD83D, 0xDE00) + b" wee" + _escapes(0x212A)
    + b" " + _escapes(0xD800) + b" 3" + _escapes(0xA0) + b'days\\t9 hours"}',
    b'{"a": ' + b"[" * 70 + b"]" * 70 + b', "text": "1 day"}',
])


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    lines=st.lists(st.tuples(_LINES, st.sampled_from([b"\n", b"\r\n"])), max_size=12),
    last_newline=st.booleans(),
)
def test_kernel_decodes_jsonl_records_as_json_loads_does(tmp_path, lines, last_newline):
    data = b"".join(line + end for line, end in [(line, b"\r\n") for line in _FIXED_LINES] + lines)
    if not last_newline:
        data = data.rstrip(b"\n")
    jsonl_counts_agree(Path(tempfile.mkdtemp(dir=tmp_path)), data)


def jsonl_counts_agree(root, data):
    """Counts the JSONL bytes data on both paths into root: the same table
    and meta, with the documents, skipped lines and tokens that
    record_text gives."""
    records = [line for line in data.split(b"\n") if line.strip()]
    texts = [text for text in map(counting_mod.record_text, records) if text is not None]
    corpus = root / "c.jsonl"
    corpus.write_bytes(data)
    written = []
    for path in (nullcontext, python_path):
        out = root / path.__name__ / "counts.tsv"
        with path():
            meta = count_corpus(corpus, "jsonl", CounterConfig(), out)
        written.append((out.read_bytes(), meta))
    assert written[0] == written[1]
    assert (written[0][1].documents, written[0][1].skipped_documents) == (
        len(texts), len(records) - len(texts)
    )
    assert written[0][1].tokens == sum(len(text.split()) for text in texts)


def test_an_ascii_corpus_reaches_json_loads_on_no_line(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a line went through json.loads")

    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": i, "meta": {"n": [i, 1.5, None]}, "text": f"{i} hours \"{i}\"\t{i}"}) + "\n"
        for i in range(50)
    ))
    monkeypatch.setattr(json, "loads", refuse)
    for shards in (1, 2):
        meta = count_corpus(corpus, "jsonl", CounterConfig(), tmp_path / f"o{shards}" / "counts.tsv",
                            shards=shards, workers=2)
        assert (meta.documents, meta.skipped_documents) == (50, 0)


# --- the kernel's Unicode facts ---------------------------------------------


def _kernel_unicode_tables():
    lib = counting_mod._kernel()
    spaces = (ctypes.c_uint32 * 64)()
    lower_from = (ctypes.c_uint32 * 64)()
    lower_to = (ctypes.c_ubyte * 64)()
    sizes = lib.fg_unicode_tables(
        ctypes.addressof(spaces), ctypes.addressof(lower_from), ctypes.addressof(lower_to)
    )
    n_spaces, n_lowers = sizes >> 8, sizes & 0xFF
    return (
        {chr(c) for c in spaces[:n_spaces]},
        {chr(c): chr(t) for c, t in zip(lower_from[:n_lowers], lower_to[:n_lowers])},
    )


def test_kernel_unicode_tables_match_this_python():
    # A Python whose str.split() or str.lower() changes fails here, not in
    # a count that silently differs from the reference path.
    spaces, lowering = _kernel_unicode_tables()
    assert spaces == set(split_points())
    assert len(spaces) == 29
    assert lowering == ascii_lowering() == {KELVIN: "k"}


def test_kernel_splits_on_exactly_the_split_points():
    documents = ["1" + chr(c) + "2" for c in range(0x110000)]
    table = count_shard(documents, CounterConfig())
    assert table.meta.tokens == len(documents) + len(split_points())
    assert table.query((1, 2)) == len(split_points())


# --- where the library comes from ------------------------------------------


def test_every_document_goes_through_the_kernel(tmp_path, monkeypatch):
    def refuse(self, text):
        raise AssertionError("a document took the Python path")

    monkeypatch.setattr(_ShardAccumulator, "add_document", refuse)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps({"text": f"{i} hours {i}"}) + "\n" for i in range(50)))
    for shards in (1, 2):
        count_corpus(corpus, "jsonl", CounterConfig(), tmp_path / f"o{shards}" / "counts.tsv",
                     shards=shards, workers=2)
    count_shard(["5 days"], CounterConfig())


def test_without_a_library_count_corpus_writes_the_same_bytes(tmp_path):
    documents = random_corpus(random.Random(4), 200, max_tokens=60)
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps({"text": d}) + "\n" for d in documents))
    targeted = CounterConfig().with_targets([(7, 60, unit_term("minute")), (3, unit_term("hour"))])
    for i, config in enumerate((CounterConfig(), targeted)):
        for shards in (1, 2):
            written = []
            for path in (nullcontext, python_path):
                out = tmp_path / f"{path.__name__}-{i}-{shards}" / "counts.tsv"
                with path():
                    count_corpus(corpus, "jsonl", config, out, shards=shards, workers=2,
                                 spill_threshold=50)
                written.append((out.read_bytes(), out.with_suffix(".meta.json").read_bytes()))
            assert written[0] == written[1]


def test_spill_points_are_those_of_the_python_path(tmp_path):
    documents = [f"{i} hours {i + 1} days" for i in range(40)]
    spills = {}
    for path in (nullcontext, python_path):
        written = spills[path] = []
        with path():
            acc = _ShardAccumulator(CounterConfig())

            def spill():
                target = tmp_path / f"{path.__name__}-{len(written)}.tsv"
                acc.spill(target)
                written.append(target.read_bytes())

            acc.add_documents(iter(documents), 25, spill)
            spill()
    assert len(spills[nullcontext]) > 3
    assert spills[nullcontext] == spills[python_path]


def test_no_compiler_leaves_no_library_and_no_temp_file(tmp_path, monkeypatch):
    source = tmp_path / "_count.c"
    shutil.copy(counting_mod._KERNEL_SOURCE, source)
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert counting_mod._kernel_path(source) == (None, "no C compiler: cc is not on PATH")
    assert list((tmp_path / "__pycache__").iterdir()) == []


@pytest.mark.parametrize("cause", ["no compiler", "build fails", "does not load"])
def test_a_count_without_the_kernel_warns_once_why(tmp_path, monkeypatch, caplog, cause):
    source = tmp_path / "_count.c"
    if cause == "no compiler":
        shutil.copy(counting_mod._KERNEL_SOURCE, source)
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    else:
        source.write_text("this is no C\n")
    library, why = counting_mod._kernel_path(source)
    monkeypatch.setenv("PATH", os.environ["PATH"])
    if cause == "does not load":
        library, why = tmp_path / "_count.so", "not a library"
        library.write_bytes(b"not a library")
    assert (library is None) == (cause != "does not load")
    monkeypatch.setattr(counting_mod, "_KERNEL_PATH", library)
    monkeypatch.setattr(counting_mod, "_NO_KERNEL", why)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2):  # two partitions, counted by forked workers
        (corpus / f"{i}.jsonl").write_text(json.dumps({"text": f"{i} hours"}) + "\n")
    counting_mod._kernel.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=counting_mod.__name__):
            for shards in (1, 2):
                count_corpus(corpus, "jsonl", CounterConfig(), tmp_path / f"o{shards}" / "counts.tsv",
                             shards=shards, workers=2)
    finally:
        counting_mod._kernel.cache_clear()
    (warning,) = [r for r in caplog.records if r.levelno >= logging.WARNING]
    message = warning.getMessage()
    assert "counting in Python" in message
    assert {"no compiler": "cc is not on PATH", "build fails": "cc failed: ",
            "does not load": "does not load"}[cause] in message


_COLD_COUNT = """
import os, sys, time
go = sys.argv[1]
while not os.path.exists(go):
    time.sleep(0.005)
import freqgap.counting as counting
from freqgap.corpus import count_corpus
from freqgap.counting import CounterConfig
assert counting._kernel() is not None
count_corpus(sys.argv[2], "jsonl", CounterConfig(), sys.argv[3], shards=2, workers=2)
"""


def test_two_processes_on_a_cold_cache_build_one_library(tmp_path):
    # A checkout without the compiled library: both processes find it
    # missing at import and build it; each build goes through its own temp
    # file, so one whole library results.
    package = Path(freqgap.__file__).parent
    src = tmp_path / "src"
    shutil.copytree(package, src / "freqgap", ignore=shutil.ignore_patterns("__pycache__"))
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps({"text": f"{i} hours {i % 7} days"}) + "\n" for i in range(99)))
    go = tmp_path / "go"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _COLD_COUNT, str(go), str(corpus), str(tmp_path / f"out{i}.tsv")],
            env=env, stderr=subprocess.PIPE,
        )
        for i in range(2)
    ]
    time.sleep(0.3)
    go.touch()
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr.decode()
    built = sorted(p.name for p in (src / "freqgap" / "__pycache__").iterdir())
    assert len(built) == 1 and built[0].startswith("_count-") and built[0].endswith(".so"), built
    expected = tmp_path / "expected.tsv"
    count_corpus(corpus, "jsonl", CounterConfig(), expected)
    assert (tmp_path / "out0.tsv").read_bytes() == (tmp_path / "out1.tsv").read_bytes()
    assert (tmp_path / "out0.tsv").read_bytes() == expected.read_bytes()


# --- the source under the compiler's checks -----------------------------------


def _cc(*args):
    return subprocess.run(["cc", *args], capture_output=True, text=True, timeout=120)


def test_the_kernel_compiles_without_warnings(tmp_path):
    build = _cc("-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
                "-o", str(tmp_path / "count.so"), str(counting_mod._KERNEL_SOURCE))
    assert build.returncode == 0, build.stderr


_SANITIZED_RUN = """
import sys
from pathlib import Path
import freqgap.counting as counting
counting._KERNEL_PATH = Path(sys.argv[1])
import test_kernel as t
assert counting._kernel()._name == sys.argv[1]
t.test_kernel_matches_python_and_oracle_on_the_boundary_documents()
for window in range(2, 9):
    t.test_kernel_matches_python_on_dense_random_corpora(window)
t.jsonl_counts_agree(Path(sys.argv[2]), t.JSONL_EDGE_DATA)
"""


def test_the_kernel_matches_python_under_the_address_and_undefined_behaviour_sanitizers(tmp_path):
    # Shifts by 64 and reads past a buffer are what mask code gets wrong:
    # the sanitized library ends the run at the first.
    libasan = _cc("-print-file-name=libasan.so").stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("cc has no libasan")
    library = tmp_path / "count-sanitized.so"
    build = _cc("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                "-shared", "-fPIC", "-o", str(library), str(counting_mod._KERNEL_SOURCE))
    if build.returncode != 0:
        pytest.skip(f"no sanitized build: {build.stderr.strip().partition(chr(10))[0]}")
    (tmp_path / "jsonl").mkdir()
    paths = [str(Path(freqgap.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "LD_PRELOAD": libasan,
           "ASAN_OPTIONS": "detect_leaks=0"}
    run = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, str(library), str(tmp_path / "jsonl")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-4000:]
