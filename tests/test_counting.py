import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqgap.corpus import count_corpus, merge_table_files
from freqgap.counting import (
    ConfigDigestMismatch,
    CounterConfig,
    CountTable,
    TermScanner,
    _SurfaceCache,
    count_shard,
    extract_term,
    merge,
    tokenize,
    top_numbers,
)
from freqgap.terms import term_set, unit_term
from helpers import oracle_count, random_corpus

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


def test_distance_window_rule():
    cfg = CounterConfig(window_rule="distance")
    table = count_shard(["1 x x x x 2"], cfg)
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
    targets = [term_set((1, 2)), term_set((1, 2, 3))]
    cfg = CFG.with_targets(targets)
    table = count_shard(["1 2 3 4"], cfg)
    assert table.query((1, 2)) == 1
    assert table.query((1, 2, 3)) == 1
    assert table.query((2, 3)) == 0  # in window but not targeted
    assert table.query((4,)) == 1  # unigrams always emitted


def test_triple_span_rule():
    cfg = CFG.with_targets([term_set((1, 2, 3))])
    table = count_shard(["1 x x 2 3"], cfg)  # span 0..4 == window
    assert table.query((1, 2, 3)) == 1
    table = count_shard(["1 x x x 2 3"], cfg)  # span 5 > 4
    assert table.query((1, 2, 3)) == 0


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


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 8]), st.sampled_from(["span", "distance"]))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_default_pass(seed, window, rule):
    rng = random.Random(seed)
    docs = random_corpus(rng, rng.randrange(1, 12))
    cfg = CounterConfig(window=window, window_rule=rule)
    assert count_shard(docs, cfg).entries == oracle_count(docs, cfg)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 8]))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_targeted_pass(seed, window):
    rng = random.Random(seed)
    docs = random_corpus(rng, rng.randrange(1, 10))
    values = [rng.randrange(0, 120) for _ in range(6)] + [unit_term("hour"), unit_term("year")]
    targets = {term_set(rng.sample(values, rng.choice([2, 3]))) for _ in range(12)}
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
    # each occurrence of a term pairs with at most 2 * max_distance
    # occurrences of another within the window
    rng = random.Random(seed)
    docs = random_corpus(rng, 6)
    table = count_shard(docs, CFG)
    bound = 2 * CFG.max_distance
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
    import json

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
    import gzip

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
