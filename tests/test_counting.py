import gzip
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import freqgap
import freqgap.corpus as corpus_mod
import freqgap.counting as counting_mod
from freqgap.corpus import count_corpus, merge_table_files
from freqgap.counting import (
    CONVERSION_TRIPLES,
    ConfigDigestMismatch,
    CounterConfig,
    CountMeta,
    CountTable,
    TermScanner,
    _SurfaceCache,
    count_shard,
    extract_term,
    merge,
    top_numbers,
)
from freqgap.terms import term_set, unit_term
from helpers import (
    FAMILY_TRIPLES,
    in_default_families,
    oracle_count,
    python_path,
    random_corpus,
    tokenize,
)

CFG = CounterConfig()


# --- tokenize -----------------------------------------------------------


def test_tokenize_splits_on_whitespace():
    assert tokenize("23 times 18") == [("23", 0), ("times", 1), ("18", 2)]


def test_tokenize_empty_document():
    assert tokenize("") == []


def test_tokenize_all_whitespace_classes():
    assert tokenize("a\n b\tc") == [("a", 0), ("b", 1), ("c", 2)]


# --- extract_term -------------------------------------------------------


@pytest.mark.parametrize(
    "token,expected",
    [
        ("18?", 18),
        ("Hours", unit_term("hour")),
        ("1234567", None),
        ("007", 7),
        ("999999", 999_999),
        ("1,000", None),
        ('"1000"', 1000),
        ("23.45", None),
        ("$23", None),
        ("hOuRs", unit_term("hour")),
        ("decade", unit_term("decade")),
        ("hourly", None),
        ("...", None),
        ("", None),
        ("60s", None),
        ("hours'", unit_term("hour")),
        ("²³", None),
        ("٣", None),
    ],
)
def test_extract_term_cases(token, expected):
    assert extract_term(token, CFG) == expected


def test_extract_term_respects_max_digits():
    cfg = CounterConfig(max_number_digits=3)
    assert extract_term("999", cfg) == 999
    assert extract_term("1000", cfg) is None


@given(st.text(max_size=120))
def test_scanner_matches_reference_extraction(text):
    scanner = TermScanner(CFG)
    expected = [
        (pos, code)
        for token, pos in tokenize(text)
        if (code := extract_term(token, CFG)) is not None
    ]
    shifted, total = scanner.scan_shifted(text)
    assert [(pos, code - 1) for pos, code in shifted] == expected
    assert total == len(tokenize(text))


def test_scanner_cache_cap_keeps_codes_of_the_current_document(monkeypatch):
    # the cap is applied between documents: a document that grows the
    # cache past it still gets the codes of all its terms
    monkeypatch.setattr(_SurfaceCache, "_CAP", 3)
    scanner = TermScanner(CFG)
    assert scanner.scan_shifted("7 a b c d") == ([(0, 8)], 5)
    assert scanner.scan_shifted("e f 8 hours") == ([(2, 9), (3, unit_term("hour") + 1)], 4)


# --- count_shard --------------------------------------------------------


def test_count_shard_worked_example():
    table = count_shard(["23 times 18 is 414"], CFG)
    assert table.query((23,)) == 1
    assert table.query((18,)) == 1
    assert table.query((414,)) == 1
    assert table.query((23, 18)) == 1
    assert table.query((23, 414)) == 1  # positions 0 and 4: distance 4 <= 4
    assert table.query((18, 414)) == 1
    assert table.meta.tokens == 5
    assert table.meta.documents == 1


def test_count_shard_empty_corpus():
    table = count_shard([], CFG)
    assert table.entries == {}
    assert table.meta.documents == 0


def test_count_shard_same_value_pairs():
    table = count_shard(["7 7"], CFG)
    assert table.query((7,)) == 2
    assert table.query((7, 7)) == 1


def test_window_bounds_pairs():
    # positions 0 and 5: distance 5 exceeds window 5 (span rule)
    table = count_shard(["1 x x x x 2"], CFG)
    assert table.query((1, 2)) == 0
    table = count_shard(["1 x x x 2"], CFG)
    assert table.query((1, 2)) == 1


def test_windows_do_not_cross_documents():
    table = count_shard(["1 2", "3 4"], CFG)
    assert table.query((1, 2)) == 1
    assert table.query((2, 3)) == 0


def test_default_families():
    table = count_shard(["9999 10000 hours"], CFG)
    # both-small number pairs only
    assert table.query((9999, 10000)) == 0
    # all (number, unit) pairs
    assert table.query((9999, unit_term("hour"))) == 1
    assert table.query((10000, unit_term("hour"))) == 1
    # unigrams unrestricted
    assert table.query((10000,)) == 1
    table = count_shard(["seconds minutes"], CFG)
    assert table.query((unit_term("second"), unit_term("minute"))) == 0


def test_targeted_pass_emits_only_targets_and_unigrams():
    hour = unit_term("hour")
    cfg = CFG.with_targets([term_set((3, 180)), term_set((3, 180, hour))])
    table = count_shard(["3 hours 180 4"], cfg)
    assert table.query((3, 180)) == 1
    assert table.query((3, 180, hour)) == 1
    assert table.query((180, 4)) == 0  # in window but not targeted
    assert table.query((3, hour)) == 0
    assert table.query((4,)) == 1  # unigrams always emitted


def test_triple_span_rule():
    minute = unit_term("minute")
    cfg = CFG.with_targets([term_set((5, 60, minute))])
    table = count_shard(["5 x x 60 minutes"], cfg)  # span 0..4 == window
    assert table.query((5, 60, minute)) == 1
    table = count_shard(["5 x x x 60 minutes"], cfg)  # span 5 > 4
    assert table.query((5, 60, minute)) == 0


# --- the conversion-triple family and the selection ---------------------


def test_default_pass_counts_conversion_triples():
    minute, hour = unit_term("minute"), unit_term("hour")
    table = count_shard(["3 hours is 180 minutes"], CFG)
    assert table.query((3, 180, hour)) == 1  # {x1, u, x1 * f}
    assert table.query((3, 180, minute)) == 1  # positions 0, 3, 4: span 4
    assert table.query((3, 60, hour)) == 0
    assert {k for k in table.entries if len(k) == 3} == {
        term_set((3, 180, hour)), term_set((3, 180, minute))
    }
    # 7 units x 99 first operands x 2, less x1 = 1 (where f == x1 * f) and
    # {4, month, 16} and {7, week, 49}, which are {f, u, f * f} as well
    assert len(CONVERSION_TRIPLES) == 7 * 99 * 2 - 7 - 2


@pytest.mark.parametrize("order", list(itertools.permutations(["5", "minutes", "60"])))
def test_conversion_triple_counted_once_in_any_order(order):
    table = count_shard([" ".join(order)], CFG)
    assert table.query((5, 60, unit_term("minute"))) == 1


def test_repeated_terms_count_each_position_triple_once():
    # C(3, 2) position pairs of three 60s, each with the one unit
    minute = unit_term("minute")
    cfg = CFG.with_targets([(60, 60, minute)])
    assert count_shard(["60 60 60 minutes"], cfg).query((60, 60, minute)) == 3
    assert count_shard(["60 60 minutes"], CFG).query((60, 60, minute)) == 1
    assert count_shard(["7 7 7 7"], CFG).query((7, 7)) == 6


def test_counter_digest_names_the_triple_family(monkeypatch):
    before = CounterConfig().digest()
    monkeypatch.setattr(counting_mod, "CONVERSION_TASKS", {"min_sec": ("minute", 60)})
    assert CounterConfig().digest() != before


def _targets_strategy():
    number = st.integers(0, 120)
    big = st.integers(10_000, 999_999)
    unit = st.sampled_from([unit_term(u) for u in ("minute", "hour", "day", "year")])
    family = st.sampled_from(sorted(CONVERSION_TRIPLES))
    key = st.one_of(
        st.tuples(number),
        st.tuples(number, st.one_of(number, unit)),  # default-family pairs
        st.tuples(unit, unit),  # unit-unit pairs
        st.tuples(number, big),  # number pairs past NN_PAIR_MAX
        family,
        st.tuples(number, number, st.one_of(number, unit)),  # mostly outside the family
        st.tuples(number, unit, unit),
    )
    return st.lists(key, max_size=25)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 8]), _targets_strategy())
@settings(max_examples=60, deadline=None)
def test_targeted_count_equals_oracle_for_any_targets(seed, window, targets):
    rng = random.Random(seed)
    docs = random_corpus(rng, rng.randrange(1, 10))
    docs += ["60 minutes 5 hours 300 seconds", "7 weeks 49 days 7 7"]
    default = CounterConfig(window=window)
    keys = {term_set(t) for t in targets}
    countable = {key for key in keys if in_default_families(key)}
    if countable != keys:
        with pytest.raises(ValueError, match="outside the counted term sets"):
            default.with_targets(keys)
    cfg = default.with_targets(countable)
    table = count_shard(docs, cfg)
    assert table.entries == oracle_count(docs, cfg)
    selected = count_shard(docs, default).select(cfg)
    assert selected.entries == table.entries
    assert selected.meta == table.meta


def test_selection_raises_for_a_target_outside_the_counted_families():
    hour = unit_term("hour")
    table = count_shard(["5 hours 3 days"], CFG)
    assert table.select(CFG.with_targets([(5, hour)])).query((5, hour)) == 1
    for outside in [
        (hour, unit_term("day")),  # unit-unit pair
        (5, 10_000),  # number pair past NN_PAIR_MAX
        (3, 5, hour),  # triple outside the conversion family
    ]:
        with pytest.raises(ValueError, match="outside the counted term sets"):
            table.select(CFG.with_targets([outside]))


def test_selection_rejects_a_table_of_another_configuration():
    table = count_shard(["5 hours"], CounterConfig(window=7))
    with pytest.raises(ConfigDigestMismatch):
        table.select(CFG.with_targets([(5, unit_term("hour"))]))


# --- merge and query ----------------------------------------------------


def test_merge_identity():
    table = count_shard(["23 times 18"], CFG)
    merged = merge(table, count_shard([], CFG))
    assert merged.entries == table.entries
    assert merged.meta.documents == table.meta.documents


def test_merge_rejects_config_mismatch():
    a = count_shard(["1"], CFG)
    b = count_shard(["1"], CounterConfig(window=7))
    with pytest.raises(ConfigDigestMismatch):
        merge(a, b)


@given(st.lists(st.text(max_size=40), max_size=8), st.lists(st.text(max_size=40), max_size=8))
@settings(max_examples=30)
def test_merge_commutes(docs_a, docs_b):
    a = count_shard(docs_a, CFG)
    b = count_shard(docs_b, CFG)
    ab, ba = merge(a, b), merge(b, a)
    assert ab.entries == ba.entries
    assert ab.meta.tokens == ba.meta.tokens


def test_shard_and_merge_equals_single_pass():
    rng = random.Random(7)
    docs = random_corpus(rng, 400, max_tokens=40)  # ~10k tokens
    whole = count_shard(docs, CFG)
    merged = count_shard([], CFG)
    for i in range(5):
        merged = merge(merged, count_shard(docs[i::5], CFG))
    assert merged.entries == whole.entries
    assert merged.meta.tokens == whole.meta.tokens
    assert merged.meta.documents == whole.meta.documents


def test_query_missing_key_is_zero():
    assert count_shard([], CFG).query((23,)) == 0


def test_query_is_symmetric():
    table = count_shard(["23 18"], CFG)
    assert table.query((23, 18)) == table.query((18, 23)) == 1


# --- top_numbers --------------------------------------------------------


def _table_from_counts(unigrams=None, pairs=None):
    entries = {}
    for value, count in (unigrams or {}).items():
        entries[(value,)] = count
    for key, count in (pairs or {}).items():
        entries[term_set(key)] = count
    empty = CountTable.empty(CFG)
    return CountTable(entries, empty.meta)


def test_top_numbers_ranked_by_count():
    table = _table_from_counts({5: 3, 7: 1})
    assert top_numbers(table, 2) == [5, 7]


def test_top_numbers_tie_broken_by_value():
    table = _table_from_counts({5: 3, 7: 3})
    assert top_numbers(table, 1) == [5]


def test_top_numbers_short_when_few_qualify():
    table = _table_from_counts({v: v for v in range(1, 80)})
    assert len(top_numbers(table, 200, max_digits=2)) == 79


def test_top_numbers_max_digits():
    table = _table_from_counts({5: 1, 123: 5})
    assert top_numbers(table, 10, max_digits=2) == [5]


def test_top_numbers_cooccur_with_unit():
    hour = unit_term("hour")
    table = _table_from_counts(
        {5: 100, 24: 1},
        {(24, hour): 9, (5, hour): 2, (5, unit_term("day")): 50},
    )
    assert top_numbers(table, 10, cooccur_with="hour") == [24, 5]
    assert top_numbers(table, 10, cooccur_with=hour) == [24, 5]


# --- oracle equivalence and invariants ----------------------------------


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 8]))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_default_pass(seed, window):
    rng = random.Random(seed)
    docs = random_corpus(rng, rng.randrange(1, 12))
    cfg = CounterConfig(window=window)
    assert count_shard(docs, cfg).entries == oracle_count(docs, cfg)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 8]))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_targeted_pass(seed, window):
    rng = random.Random(seed)
    docs = random_corpus(rng, rng.randrange(1, 10))
    values = [rng.randrange(0, 120) for _ in range(6)] + [unit_term("hour"), unit_term("year")]
    pairs = {term_set(rng.sample(values, 2)) for _ in range(12)}
    small_triples = sorted(t for t in FAMILY_TRIPLES if t[1] < 120)
    targets = {t for t in pairs if in_default_families(t)} | set(rng.sample(small_triples, 12))
    cfg = CounterConfig(window=window).with_targets(targets)
    assert count_shard(docs, cfg).entries == oracle_count(docs, cfg)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_adding_documents_never_decreases_counts(seed):
    rng = random.Random(seed)
    docs = random_corpus(rng, 8)
    some, more = docs[:4], docs
    t1, t2 = count_shard(some, CFG), count_shard(more, CFG)
    for key, count in t1.entries.items():
        assert t2.entries.get(key, 0) >= count


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_pair_count_bound(seed):
    # each occurrence of a term pairs with at most 2 * (window - 1)
    # occurrences of another within the window
    rng = random.Random(seed)
    docs = random_corpus(rng, 6)
    table = count_shard(docs, CFG)
    bound = 2 * (CFG.window - 1)
    for key, count in table.entries.items():
        if len(key) == 2:
            a, b = key
            assert count <= min(table.query((a,)), table.query((b,))) * bound


# --- serialization and corpus counting ----------------------------------


def test_table_save_load_roundtrip(tmp_path):
    table = count_shard(["23 times 18 is 414", "5 hours"], CFG)
    path = tmp_path / "counts.tsv"
    table.save(path)
    loaded = CountTable.load(path)
    assert loaded.entries == table.entries
    assert loaded.meta == table.meta


def test_table_serialization_sorted_lexicographically(tmp_path):
    table = count_shard(["2 10 9"], CFG)
    path = tmp_path / "counts.tsv"
    table.save(path)
    keys = [line.split("\t")[0] for line in path.read_text().splitlines()]
    assert keys == sorted(keys)
    assert "10" in keys and "2" in keys  # string sort: "10" < "2"


def _write_corpus(tmp_path, docs, files=4):
    root = tmp_path / "corpus"
    root.mkdir()
    for i in range(files):
        chunk = docs[i::files]
        (root / f"part{i}.jsonl").write_text(
            "".join('{"text": %s}\n' % _json_str(d) for d in chunk)
        )
    return root


def _json_str(s):
    return json.dumps(s)


def test_count_corpus_bit_identical_across_shardings(tmp_path):
    rng = random.Random(3)
    docs = random_corpus(rng, 300, max_tokens=50)
    root = _write_corpus(tmp_path, docs)
    outputs = []
    for shards in (1, 2, 5):
        out = tmp_path / f"out{shards}" / "counts.tsv"
        count_corpus(root, "jsonl", CFG, out, shards=shards)
        outputs.append((out.read_bytes(), out.with_suffix(".meta.json").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_count_corpus_matches_count_shard(tmp_path):
    rng = random.Random(11)
    docs = random_corpus(rng, 100, max_tokens=30)
    root = _write_corpus(tmp_path, docs)
    out = tmp_path / "out" / "counts.tsv"
    count_corpus(root, "jsonl", CFG, out, shards=3)
    direct = count_shard(docs, CFG)
    assert CountTable.load(out).entries == direct.entries


def test_count_corpus_spill_threshold(tmp_path):
    rng = random.Random(5)
    docs = random_corpus(rng, 80, max_tokens=30)
    root = _write_corpus(tmp_path, docs)
    small = tmp_path / "small" / "counts.tsv"
    count_corpus(root, "jsonl", CFG, small, shards=2, spill_threshold=10)
    big = tmp_path / "big" / "counts.tsv"
    count_corpus(root, "jsonl", CFG, big, shards=2)
    assert small.read_bytes() == big.read_bytes()


def test_a_one_spill_count_copies_its_spill_and_more_spills_merge(tmp_path, monkeypatch):
    rng = random.Random(8)
    docs = random_corpus(rng, 120, max_tokens=30)
    root = _write_corpus(tmp_path, docs)

    def table(name, **kwargs):
        out = tmp_path / name / "counts.tsv"
        count_corpus(root, "jsonl", CFG, out, **kwargs)
        return out.read_bytes(), out.with_suffix(".meta.json").read_bytes()

    merged = table("two", shards=2)
    merges = []
    real_merge = corpus_mod.merge_sorted_count_files

    def merge(inputs, out, meta):
        merges.append(len(inputs))
        real_merge(inputs, out, meta)

    monkeypatch.setattr(corpus_mod, "merge_sorted_count_files", merge)
    assert table("one", shards=1) == merged
    assert merges == []  # the one spill was copied, not merged
    # A tiny threshold spills several times in the one partition: they merge.
    assert table("spilled", shards=1, spill_threshold=10) == merged
    assert len(merges) == 1 and merges[0] > 1
    assert not list((tmp_path / "one").glob("*.tmp"))


def test_count_corpus_spills_stay_distinct_past_1000_partitions(tmp_path):
    # Spill names once keyed on len(spills) * 1000 + worker, so partition
    # 1000's first spill overwrote partition 0's second one.
    root = tmp_path / "corpus"
    root.mkdir()
    for i in range(1001):
        (root / f"doc{i:04d}.txt").write_text(f"{i % 97} hours and {i % 13} days")
    sharded = tmp_path / "sharded" / "counts.tsv"
    count_corpus(root, "text", CFG, sharded, shards=1001, workers=2, spill_threshold=1)
    single = tmp_path / "single" / "counts.tsv"
    count_corpus(root, "text", CFG, single, shards=1)
    assert sharded.read_bytes() == single.read_bytes()


_LOST_WORKER = """
import os, signal, sys
import freqgap.corpus as corpus
from freqgap.counting import CounterConfig

count_units = corpus._count_units

def count_or_die(units, config, spill_dir, spill_threshold, partition):
    if partition == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return count_units(units, config, spill_dir, spill_threshold, partition)

corpus._count_units = count_or_die
corpus.count_corpus(sys.argv[1], "jsonl", CounterConfig(), sys.argv[2], shards=2, workers=2)
"""


def test_count_corpus_fails_when_a_worker_is_lost(tmp_path):
    root = _write_corpus(tmp_path, random_corpus(random.Random(2), 40, max_tokens=20))
    temp = tmp_path / "tmp"
    temp.mkdir()
    src = str(Path(freqgap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(temp)}
    argv = [sys.executable, "-c", _LOST_WORKER, str(root), str(tmp_path / "out" / "counts.tsv")]
    proc = subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the count and any worker left waiting
        proc.wait()
        pytest.fail("count_corpus hung after losing a worker")
    assert proc.returncode != 0
    assert b"BrokenProcessPool" in stderr
    assert list(temp.iterdir()) == []  # the spill directory is removed
    assert not (tmp_path / "out" / "counts.tsv").exists()


def test_text_format_one_document_per_file(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a.txt").write_text("1 2")
    (root / "b.txt").write_text("2 3")
    out = tmp_path / "out" / "counts.tsv"
    meta = count_corpus(root, "text", CFG, out)
    table = CountTable.load(out)
    assert table.query((1, 2)) == 1
    assert table.query((2, 3)) == 1
    assert table.query((2,)) == 2
    assert meta.documents == 2


def test_gzip_and_invalid_utf8_handling(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    with gzip.open(root / "a.txt.gz", "wb") as f:
        f.write("5 hours".encode())
    (root / "bad.txt").write_bytes(b"\xff\xfe broken")
    out = tmp_path / "out" / "counts.tsv"
    meta = count_corpus(root, "text", CFG, out)
    assert meta.documents == 1
    assert meta.skipped_documents == 1
    assert CountTable.load(out).query((5, unit_term("hour"))) == 1


def test_jsonl_skips_malformed_records(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "data.jsonl").write_bytes(
        b'{"text": "1 2"}\nnot json\n{"no_text": 1}\n{"text": "3 4"}\n\xff\xfe\n'
    )
    out = tmp_path / "out" / "counts.tsv"
    meta = count_corpus(root, "jsonl", CFG, out)
    assert meta.documents == 2
    assert meta.skipped_documents == 3


@pytest.mark.parametrize("path", [nullcontext, python_path])
@pytest.mark.parametrize("nested", [
    b"[" * 100_000 + b"]" * 100_000,
    b'{"meta": ' + b"[" * 100_000 + b"]" * 100_000 + b', "text": "9 days"}',
])
def test_a_deeply_nested_line_is_one_skipped_document(tmp_path, path, nested):
    # json.loads raises RecursionError on such a line, not ValueError
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(b'{"text": "1 hours"}\n' + nested + b'\n{"text": "2 days"}\n')
    with path():
        meta = count_corpus(corpus, "jsonl", CFG, tmp_path / "out" / "counts.tsv")
    assert (meta.documents, meta.skipped_documents) == (2, 1)
    assert CountTable.load(tmp_path / "out").query((2, unit_term("day"))) == 1


def _cut_corpus(tmp_path, repeats):
    """A document of `repeats` sentences, an empty line, a non-ASCII one,
    and a last line without its newline, with their texts; and cut lists
    that put range starts on every byte, inside lines and on line starts."""
    texts = ["1 2", "12 minutes make a longer line than the others " * repeats, "x", "30 hours \u00e9"]
    data = b"\n".join(json.dumps({"text": t}).encode() for t in texts[:2])
    data += b"\n\n" + b"\n".join(json.dumps({"text": t}).encode() for t in texts[2:])
    path = tmp_path / "data.jsonl"
    path.write_bytes(data)
    assert [json.loads(line)["text"] for line in data.splitlines() if line] == texts
    size = len(data)
    cut_lists = [[0, size]] + [[0, c, size] for c in range(1, size)]
    cut_lists += [[0, c, c + 9, size] for c in range(1, size - 9, 7)]
    return path, texts, cut_lists


@pytest.mark.parametrize("repeats", [1, 5, 64])
def test_byte_range_units_read_the_lines_of_a_plain_read(tmp_path, repeats):
    from freqgap.corpus import ShardUnit, iter_unit_documents

    path, texts, cut_lists = _cut_corpus(tmp_path, repeats)
    for cuts in cut_lists:
        meta = CountMeta(corpus="", config_digest="")
        read = [
            text
            for a, b in zip(cuts, cuts[1:])
            for text in iter_unit_documents(ShardUnit(str(path), "jsonl", a, b), meta)
        ]
        assert read == texts, cuts
        assert meta.skipped_documents == 0


@pytest.mark.parametrize("repeats", [1, 5, 64])
def test_lines_across_read_blocks_and_range_cuts_count_as_a_plain_read(
    tmp_path, monkeypatch, repeats
):
    # Each cut list is counted as one partition of its ranges, read in
    # blocks of 1, 5 and 64 bytes and the default: lines straddle blocks
    # and range ends.
    from freqgap.corpus import ShardUnit

    path, _, cut_lists = _cut_corpus(tmp_path, repeats)
    with python_path():
        expected_meta = count_corpus(path, "jsonl", CFG, tmp_path / "expected" / "counts.tsv")
    expected = (tmp_path / "expected" / "counts.tsv").read_bytes()
    assert (expected_meta.documents, expected_meta.skipped_documents) == (4, 0)
    out = tmp_path / "out" / "counts.tsv"
    for i, cuts in enumerate(cut_lists):
        units = [ShardUnit(str(path), "jsonl", a, b) for a, b in zip(cuts, cuts[1:])]
        monkeypatch.setattr(corpus_mod, "corpus_units", lambda *args: units)
        monkeypatch.setattr(corpus_mod, "_BLOCK_BYTES", (1, 5, 64, 1 << 18)[i % 4])
        meta = count_corpus(path, "jsonl", CFG, out)
        assert (out.read_bytes(), meta) == (expected, expected_meta), cuts


_SPLIT_TOKENS = ["1", "7", "12", "30", "99", "1234", "hours", "Minutes", "day", "é", "30é", "٣", "(7)"]
_SPLIT_LINES = st.one_of(
    st.builds(
        lambda tokens, ascii_only: json.dumps({"text": " ".join(tokens)}, ensure_ascii=ascii_only),
        st.lists(st.sampled_from(_SPLIT_TOKENS), max_size=20),
        st.booleans(),
    ).map(str.encode),
    st.sampled_from([b"", b"  ", b"not json", b'{"no_text": 1}', b'{"text": 5}', b"\xff 3 hours"]),
)


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    # (lines, whether the last one ends in a newline) per file
    files=st.lists(
        st.tuples(st.lists(_SPLIT_LINES, max_size=30), st.booleans()), min_size=1, max_size=3
    ),
    gz=st.booleans(),
    shard_counts=st.lists(st.integers(2, 8), min_size=1, max_size=3, unique=True),
)
def test_count_corpus_is_shard_invariant_over_byte_ranges(
    tmp_path, monkeypatch, files, gz, shard_counts
):
    # every uncompressed file is cut into byte ranges, down to more
    # ranges than bytes; the first file is gzipped when gz holds
    monkeypatch.setattr(corpus_mod, "_SPLIT_MIN_BYTES", 1)
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    corpus = root / "corpus"
    corpus.mkdir()
    for i, (lines, final_newline) in enumerate(files):
        data = b"\n".join(lines) + b"\n" * final_newline
        if gz and i == 0:
            (corpus / "part0.jsonl.gz").write_bytes(gzip.compress(data, mtime=0))
        else:
            (corpus / f"part{i}.jsonl").write_bytes(data)

    def count(shards):
        out = root / f"shards{shards}" / "counts.tsv"
        count_corpus(corpus, "jsonl", CFG, out, shards=shards, workers=2)
        return out.read_bytes(), out.with_suffix(".meta.json").read_bytes()

    expected = count(1)
    for shards in shard_counts:
        assert count(shards) == expected, shards


def test_merge_table_files(tmp_path):
    a = count_shard(["1 2"], CFG, corpus="a")
    b = count_shard(["2 3"], CFG, corpus="b")
    a.save(tmp_path / "a.tsv")
    b.save(tmp_path / "b.tsv")
    merged_path = tmp_path / "merged.tsv"
    meta = merge_table_files([tmp_path / "a.tsv", tmp_path / "b.tsv"], merged_path)
    table = CountTable.load(merged_path)
    assert table.query((2,)) == 2
    assert meta.documents == 2
    assert meta.corpus == "a+b"


def test_merge_table_files_rejects_mismatch(tmp_path):
    a = count_shard(["1 2"], CFG)
    b = count_shard(["2 3"], CounterConfig(window=9))
    a.save(tmp_path / "a.tsv")
    b.save(tmp_path / "b.tsv")
    with pytest.raises(ConfigDigestMismatch):
        merge_table_files([tmp_path / "a.tsv", tmp_path / "b.tsv"], tmp_path / "m.tsv")
