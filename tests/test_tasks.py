import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqgap.counting import CounterConfig, CountTable
from freqgap.tasks import (
    ALL_TASKS,
    ARITH_TASKS,
    CONVERSION_TASKS,
    DatasetError,
    build_fewshot_prompts,
    build_task,
    compute_answer,
    derive_query_sets,
    load_bundles,
    load_dataset,
    make_instance,
    render_prompt,
    save_bundles,
    save_dataset,
)
from freqgap.terms import key_str, term_set, term_str, unit_term
from freqgap.util import sha256_text, sorted_json

GOLDEN = Path(__file__).parent / "golden" / "prompts.txt"

# (task_id, x, factor) pairs covering all 11 templates, in golden-file order
GOLDEN_CASES = [
    ("mult", (23, 18), None),
    ("add", (23, 18), None),
    ("mult_hash", (23, 18), None),
    ("add_hash", (23, 18), None),
    ("min_sec", (10, unit_term("minute")), 60),
    ("hour_min", (24, unit_term("hour")), 60),
    ("day_hour", (2, unit_term("day")), 24),
    ("week_day", (6, unit_term("week")), 7),
    ("month_week", (7, unit_term("month")), 4),
    ("year_month", (5, unit_term("year")), 12),
    ("decade_year", (3, unit_term("decade")), 10),
]


def _synthetic_table(n_small=100, unit_values=None):
    """Count table with n_small qualifying arithmetic operands and optional
    per-unit co-occurrence counts."""
    entries = {}
    for rank, value in enumerate(range(n_small)):
        entries[(value,)] = 1000 - rank
    for unit, values in (unit_values or {}).items():
        code = unit_term(unit)
        for rank, value in enumerate(values):
            entries[term_set((value, code))] = 500 - rank
    meta = CountTable.empty(CounterConfig()).meta
    return CountTable(entries, meta)


# --- templates ----------------------------------------------------------


def test_rendered_prompts_match_goldens():
    lines = []
    for task_id, x, factor in GOLDEN_CASES:
        inst = make_instance(task_id, x, factor=factor)
        lines.append(render_prompt(inst, with_answer=False))
        lines.append(render_prompt(inst, with_answer=True))
    assert "\n".join(lines) + "\n" == GOLDEN.read_text()


def test_worked_example_exact():
    inst = make_instance("mult", (23, 18))
    assert render_prompt(inst, with_answer=False) == "Q: What is 23 times 18? A:"
    assert render_prompt(inst, with_answer=True) == "Q: What is 23 times 18? A: 414"


def test_hash_template_replaces_operator():
    inst = make_instance("mult_hash", (23, 18))
    assert " # " in render_prompt(inst, with_answer=False)
    assert "times" not in render_prompt(inst, with_answer=False)


# --- answers ------------------------------------------------------------


def test_answer_rules():
    assert compute_answer("mult", (23, 18), None) == 414
    assert compute_answer("add", (0, 1), None) == 1
    assert compute_answer("hour_min", (24, unit_term("hour")), 60) == 1440
    assert compute_answer("decade_year", (3, unit_term("decade")), 10) == 30


@given(st.integers(0, 99), st.integers(1, 50))
def test_answers_recompute(x1, x2):
    for task_id in ("mult", "add", "mult_hash", "add_hash"):
        inst = make_instance(task_id, (x1, x2))
        assert inst.y == compute_answer(task_id, inst.x, inst.factor)


def test_factor_table():
    expected = {
        "min_sec": 60,
        "hour_min": 60,
        "day_hour": 24,
        "week_day": 7,
        "month_week": 4,
        "year_month": 12,
        "decade_year": 10,
    }
    assert {t: f for t, (_u, f) in CONVERSION_TASKS.items()} == expected


# --- dataset builders ---------------------------------------------------


def test_arithmetic_full_cross_product():
    table = _synthetic_table(n_small=100)
    dataset = build_task(table, "mult")
    assert len(dataset) == 5000
    assert all(inst.y == inst.x[0] * inst.x[1] for inst in dataset)
    # ordered by (x1 rank, x2); rank here follows descending count = ascending value
    assert dataset[0].x == (0, 1)
    assert dataset[49].x == (0, 50)
    assert dataset[50].x == (1, 1)


def test_arithmetic_filters_x1_below_100():
    entries = {(v,): 10 for v in (5, 40, 99, 100, 12345)}
    table = CountTable(entries, CountTable.empty(CounterConfig()).meta)
    dataset = build_task(table, "add")
    assert sorted({inst.x[0] for inst in dataset}) == [5, 40, 99]


def test_arithmetic_empty_table_is_error():
    with pytest.raises(DatasetError):
        build_task(CountTable.empty(CounterConfig()), "mult")


def test_operation_inference_shares_triples():
    table = _synthetic_table(n_small=10)
    arith = build_task(table, "mult")
    hashed = build_task(table, "mult_hash")
    assert len(hashed) == len(arith) == 500
    assert [(i.x, i.y) for i in hashed] == [(i.x, i.y) for i in arith]
    assert all(i.task_id == "mult_hash" for i in hashed)


def test_conversion_dataset():
    table = _synthetic_table(unit_values={"hour": [24, 2, 48]})
    dataset = build_task(table, "hour_min")
    assert [(i.x1, i.y) for i in dataset] == [(24, 1440), (2, 120), (48, 2880)]
    assert all(i.factor == 60 for i in dataset)
    assert all(i.x[1] == unit_term("hour") for i in dataset)


def test_conversion_caps_at_two_digits_and_drops_zero():
    table = _synthetic_table(unit_values={"day": [0, 7, 123]})
    dataset = build_task(table, "day_hour")
    assert [i.x1 for i in dataset] == [7]


def test_conversion_shorter_when_few_qualify():
    table = _synthetic_table(unit_values={"minute": list(range(1, 80))})
    dataset = build_task(table, "min_sec")
    assert len(dataset) == 79


def test_conversion_unknown_pair_is_error():
    with pytest.raises(DatasetError):
        build_task(_synthetic_table(), "sec_min")


def test_build_task_dispatch():
    table = _synthetic_table(n_small=12, unit_values={u: [1, 2, 3] for u, _ in CONVERSION_TASKS.values()})
    for task_id in ALL_TASKS:
        dataset = build_task(table, task_id)
        assert all(inst.task_id == task_id for inst in dataset)


# --- few-shot prompts ---------------------------------------------------


def _tiny_dataset(n=30):
    return [make_instance("mult", (x1, 7)) for x1 in range(n)]


def test_zero_shot_is_bare_question():
    dataset = _tiny_dataset()
    bundles = build_fewshot_prompts(dataset, 0, seed=3)
    assert len(bundles) == len(dataset)
    assert bundles[0].rendered == render_prompt(dataset[0], with_answer=False)


def test_fewshot_prompt_layout():
    dataset = _tiny_dataset()
    bundles = build_fewshot_prompts(dataset, 2, seed=0)
    lines = bundles[0].rendered.split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("Q: ") and " A: " in lines[0]
    assert lines[1].startswith("Q: ") and " A: " in lines[1]
    assert lines[2].endswith(" A:")


def test_fewshot_deterministic():
    dataset = _tiny_dataset()
    a = build_fewshot_prompts(dataset, 4, seed=1)
    b = build_fewshot_prompts(dataset, 4, seed=1)
    assert a == b
    c = build_fewshot_prompts(dataset, 4, seed=2)
    assert a != c


def test_fewshot_excludes_test_instance_from_shots():
    dataset = _tiny_dataset()
    for bundle in build_fewshot_prompts(dataset, 8, seed=5):
        assert bundle.test_instance not in bundle.shots
        assert len(bundle.shots) == 8


def test_fewshot_counts():
    dataset = [make_instance("mult", (x1, x2)) for x1 in range(100) for x2 in range(1, 51)]
    bundles = build_fewshot_prompts(dataset, 16, seed=0)
    assert len(bundles) == 4984


def test_fewshot_k_too_large_is_error():
    with pytest.raises(DatasetError):
        build_fewshot_prompts(_tiny_dataset(5), 5, seed=0)


@given(st.integers(0, 2**31 - 1), st.integers(0, 16))
@settings(max_examples=25)
def test_fewshot_shot_draw_is_uniform_subset(seed, k):
    dataset = _tiny_dataset(20)
    if k >= len(dataset):
        return
    bundles = build_fewshot_prompts(dataset, k, seed=seed)
    assert len(bundles) == len(dataset) - k
    shots = set(bundles[0].shots) if bundles else set()
    assert len(shots) == k


def test_template_fidelity_reparse():
    # an answered arithmetic example recovers (x1, op word, x2, y)
    pattern = re.compile(r"^Q: What is (\d+) (times|plus|#) (\d+)\? A: (\d+)$")
    for task_id in ("mult", "add", "mult_hash", "add_hash"):
        inst = make_instance(task_id, (37, 21))
        m = pattern.match(render_prompt(inst, with_answer=True))
        assert m is not None
        assert (int(m[1]), int(m[3]), int(m[4])) == (37, 21, inst.y)


# --- query sets ---------------------------------------------------------


def test_derive_query_sets_arithmetic():
    inst = make_instance("mult", (23, 18))
    keys = derive_query_sets([[inst]])
    assert keys == sorted(
        [term_set((23,)), term_set((23, 18)), term_set((23, 414))], key=key_str
    )


def test_derive_query_sets_conversion():
    inst = make_instance("hour_min", (24, unit_term("hour")), factor=60)
    keys = set(derive_query_sets([[inst]]))
    assert keys == {
        term_set((24, unit_term("hour"))),
        term_set((24, unit_term("hour"), 60)),
        term_set((24, unit_term("hour"), 1440)),
    }


def test_derive_query_sets_deduplicates():
    a = make_instance("mult", (23, 18))
    b = make_instance("mult_hash", (23, 18))
    keys = derive_query_sets([[a], [b]])
    assert len(keys) == 3


# --- file round trips ---------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    table = _synthetic_table(n_small=5, unit_values={"hour": [7, 9]})
    for task_id in ("mult", "hour_min"):
        dataset = build_task(table, task_id)
        path = tmp_path / f"{task_id}.jsonl"
        save_dataset(dataset, path)
        assert load_dataset(path) == dataset


def test_bundle_roundtrip(tmp_path):
    # one file holds several shot sets, interleaved the way perfbench's
    # eval input samples them
    table = _synthetic_table(n_small=5, unit_values={"hour": [7, 9, 12, 15, 31, 44]})
    shot_sets = [
        build_fewshot_prompts(_tiny_dataset(10), 2, seed=1),
        build_fewshot_prompts(build_task(table, "hour_min"), 4, seed=0, shot_seed=5),
        build_fewshot_prompts(build_task(table, "add_hash"), 0, seed=2),
        build_fewshot_prompts(build_task(table, "mult"), 8, seed=3, shot_seed=9),
    ]
    bundles = [b for shot_set in shot_sets for b in shot_set]
    random.Random(0).shuffle(bundles)
    path = tmp_path / "bundles.jsonl"
    save_bundles(bundles, path)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == len(bundles)
    assert sum('"shots"' in line for line in lines) == len(shot_sets)

    def fields(b):
        return (
            b.rendered, b.k, b.seed, b.gold, b.test_instance.instance_id,
            sha256_text(b.rendered)[:16],
        )

    loaded = load_bundles(path)
    assert [fields(b) for b in loaded] == [fields(b) for b in bundles]
    save_bundles(loaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def _bundle_line(bundle, shot_set, first_of_set):
    """A save_bundles line built the plain way: sorted_json of its record dict."""

    def instance_record(inst, **fields):
        record = {"instance_id": inst.instance_id, "task_id": inst.task_id,
                  "x": [term_str(c) for c in inst.x], **fields}
        if inst.factor is not None:
            record["factor"] = inst.factor
        return record

    record = instance_record(bundle.test_instance, seed=bundle.seed, k=bundle.k,
                             gold=bundle.gold, shot_set=shot_set)
    if first_of_set:
        record["shots"] = [instance_record(s, y=s.y) for s in bundle.shots]
    return sorted_json(record) + "\n"


_INSTANCES = st.one_of(  # arithmetic ones have no factor; conversions a factor and a unit term
    st.builds(
        lambda task_id, x1, x2: make_instance(task_id, (x1, x2)),
        st.sampled_from(ARITH_TASKS), st.integers(0, 99), st.integers(1, 50),
    ),
    st.builds(
        lambda task_id, x1: make_instance(task_id, (x1, unit_term(CONVERSION_TASKS[task_id][0]))),
        st.sampled_from(sorted(CONVERSION_TASKS)), st.integers(1, 99),
    ),
)


@given(
    st.lists(
        st.tuples(
            st.lists(_INSTANCES, min_size=1, max_size=10, unique_by=lambda i: i.instance_id),
            st.integers(0, 4),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_bundle_lines_are_the_sorted_json_of_their_records(tmp_path_factory, draws):
    bundles = [
        b for dataset, k, seed in draws
        for b in build_fewshot_prompts(dataset, min(k, len(dataset) - 1), seed)
    ]
    expected, set_index = [], {}
    for b in bundles:
        first = id(b.shots) not in set_index
        index = set_index.setdefault(id(b.shots), len(set_index))
        expected.append(_bundle_line(b, index, first))
    directory = tmp_path_factory.mktemp("bundles")
    fragments = {}  # shared by two files, as run_prompts shares one per dataset
    for name in ("a.jsonl", "b.jsonl"):
        save_bundles(bundles, directory / name, fragments)
        assert (directory / name).read_text().splitlines(keepends=True) == expected
    save_bundles(load_bundles(directory / "a.jsonl"), directory / "again.jsonl")
    assert (directory / "again.jsonl").read_bytes() == (directory / "a.jsonl").read_bytes()


def test_load_bundles_names_the_file_of_a_line_without_its_shot_set(tmp_path):
    path = tmp_path / "bundles.jsonl"
    save_bundles(build_fewshot_prompts(_tiny_dataset(6), 2, seed=1), path)
    first, *rest = [json.loads(line) for line in path.read_text().splitlines()]

    def rejected(*lines):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        problem = f"{path}: line 2 names no shot set of its k={lines[-1]['k']}"
        with pytest.raises(DatasetError, match=re.escape(problem)):
            load_bundles(path)

    no_set = {k: v for k, v in rest[0].items() if k != "shot_set"}
    rejected(first, {**rest[0], "k": 3})
    rejected(first, no_set)
    rejected(first, {**rest[0], "shot_set": 1})
    rejected(first, {**no_set, "prompt": "Q: What is 3 times 7? A:"})  # the whole-prompt layout


def test_instance_ids_stable():
    a = make_instance("mult", (23, 18))
    b = make_instance("mult", (23, 18))
    c = make_instance("add", (23, 18))
    assert a.instance_id == b.instance_id != c.instance_id
