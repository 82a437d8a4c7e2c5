"""The 11 numerical-reasoning datasets, their prompts, and the grouping
keys that pick each task's term sets for the report's gaps, the targeted
count and the freq_logistic mock.

Three families: arithmetic (mult, add), operation inference (the same
instances with the operator replaced by "#"), and time-unit conversion
(one instance per qualifying first operand, answer = operand times a
fixed factor).  First operands come from corpus statistics: global
top-200 numbers under 100 for arithmetic, top-200 two-digit numbers
co-occurring with the source unit for conversions.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .counting import CountTable, top_numbers
from .terms import CONVERSION_MAX_DIGITS, CONVERSION_TASKS, key_str, parse_key, parse_term
from .terms import term_set, term_str, term_value, unit_term
from .util import atomic_open, sorted_json


class DatasetError(ValueError):
    pass


ARITH_TASKS = ("mult", "add", "mult_hash", "add_hash")

ALL_TASKS: tuple[str, ...] = ARITH_TASKS + tuple(CONVERSION_TASKS)

TEMPLATES: dict[str, str] = {
    "mult": "Q: What is {x1} times {x2}? A:",
    "add": "Q: What is {x1} plus {x2}? A:",
    "mult_hash": "Q: What is {x1} # {x2}? A:",
    "add_hash": "Q: What is {x1} # {x2}? A:",
    "min_sec": "Q: What is {x1} minutes in seconds? A:",
    "hour_min": "Q: What is {x1} hours in minutes? A:",
    "day_hour": "Q: What is {x1} days in hours? A:",
    "week_day": "Q: What is {x1} weeks in days? A:",
    "month_week": "Q: What is {x1} months in weeks? A:",
    "year_month": "Q: What is {x1} years in months? A:",
    "decade_year": "Q: What is {x1} decades in years? A:",
}

# Arithmetic first operands: numbers below this bound drawn from the
# global top-200; second operands span 1..50.
ARITH_X1_BOUND = 100
ARITH_X2_RANGE = range(1, 51)
TOP_K = 200


@dataclass(frozen=True, slots=True)
class TaskInstance:
    """One reasoning question: input term codes, answer, stable identity."""

    task_id: str
    x: tuple[int, ...]
    y: int
    factor: int | None = None
    instance_id: str = ""

    @property
    def x1(self) -> int:
        return term_value(self.x[0])


# Grouping keys: the instance terms that a frequency is counted over.
GROUPING_KEYS = ("x1", "x1x2", "x1y", "x1x2x3", "x1x2y")


def resolve_grouping(instance: TaskInstance, key: str) -> tuple[int, ...]:
    """Term set selected by a grouping key; raises if a role is missing."""
    x1 = instance.x[0]
    if key == "x1":
        return term_set((x1,))
    if key == "x1x2":
        return term_set((x1, instance.x[1]))
    if key == "x1y":
        return term_set((x1, instance.y))
    if key == "x1x2x3":
        if instance.factor is None:
            raise DatasetError(
                f"grouping key x1x2x3 needs an implicit factor; "
                f"{instance.task_id} has none"
            )
        return term_set((x1, instance.x[1], instance.factor))
    if key == "x1x2y":
        return term_set((x1, instance.x[1], instance.y))
    raise DatasetError(f"unknown grouping key: {key!r}")


def grouping_applies(task_id: str, key: str) -> bool:
    return key != "x1x2x3" or task_id in CONVERSION_TASKS


def default_keys(task_id: str) -> tuple[str, ...]:
    """A task's grouping keys by default; the first drives the freq_logistic mock."""
    if task_id in CONVERSION_TASKS:
        return ("x1x2", "x1x2x3", "x1x2y")
    return ("x1", "x1x2", "x1y")


def instance_id_for(task_id: str, x: tuple[int, ...]) -> str:
    raw = "|".join([task_id] + [term_str(c) for c in x])
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def compute_answer(task_id: str, x: tuple[int, ...], factor: int | None) -> int:
    x1 = term_value(x[0])
    if task_id in ARITH_TASKS:
        x2 = term_value(x[1])
        return x1 * x2 if task_id.startswith("mult") else x1 + x2
    if task_id in CONVERSION_TASKS:
        assert factor is not None
        return x1 * factor
    raise DatasetError(f"unknown task: {task_id!r}")


def make_instance(task_id: str, x: tuple[int, ...], factor: int | None = None) -> TaskInstance:
    if factor is None and task_id in CONVERSION_TASKS:
        factor = CONVERSION_TASKS[task_id][1]
    return TaskInstance(
        task_id=task_id,
        x=x,
        y=compute_answer(task_id, x, factor),
        factor=factor,
        instance_id=instance_id_for(task_id, x),
    )


def build_task(table: CountTable, task_id: str) -> list[TaskInstance]:
    """One task's dataset: for the arithmetic family, top first operands
    (< 100) crossed with second operands 1..50; for a conversion, one
    instance per two-digit number co-occurring with the source unit."""
    if task_id in ARITH_TASKS:
        operands = [v for v in top_numbers(table, TOP_K) if v < ARITH_X1_BOUND]
        if not operands:
            raise DatasetError(
                "no qualifying first operands: corpus has no counted numbers below "
                f"{ARITH_X1_BOUND} in its top {TOP_K}"
            )
        return [make_instance(task_id, (x1, x2)) for x1 in operands for x2 in ARITH_X2_RANGE]
    if task_id not in CONVERSION_TASKS:
        raise DatasetError(f"unknown task: {task_id!r}")
    source_unit, factor = CONVERSION_TASKS[task_id]
    unit = unit_term(source_unit)
    instances = []
    for x1 in top_numbers(table, TOP_K, max_digits=CONVERSION_MAX_DIGITS, cooccur_with=unit):
        if x1 == 0:
            continue  # operands are positive
        instances.append(make_instance(task_id, (x1, unit), factor=factor))
    if not instances:
        raise DatasetError(
            f"no qualifying operands for {task_id}: no two-digit numbers "
            f"co-occur with {source_unit!r}"
        )
    return instances


def render_prompt(instance: TaskInstance, with_answer: bool) -> str:
    template = TEMPLATES[instance.task_id]
    if instance.task_id in CONVERSION_TASKS:
        question = template.format(x1=term_value(instance.x[0]))
    else:
        question = template.format(
            x1=term_value(instance.x[0]), x2=term_value(instance.x[1])
        )
    if with_answer:
        return f"{question} {instance.y}"
    return question


def render_shot_block(shots: Sequence[TaskInstance]) -> str:
    """The answered shots, one per line, that open every prompt of a draw."""
    return "".join(render_prompt(s, with_answer=True) + "\n" for s in shots)


@dataclass(frozen=True, slots=True)
class PromptBundle:
    """One test question plus its k answered in-context examples.

    The bundles of one shot draw share its shots and its rendered
    shot_block; k is the number of shots.
    """

    test_instance: TaskInstance
    shots: tuple[TaskInstance, ...]
    seed: int
    shot_block: str

    @property
    def k(self) -> int:
        return len(self.shots)

    @property
    def gold(self) -> int:
        return self.test_instance.y

    @property
    def rendered(self) -> str:
        return self.shot_block + render_prompt(self.test_instance, with_answer=False)


def _sample_indices(n: int, k: int, seed: int) -> list[int]:
    # Fisher-Yates over Random.random() only: random() is the one RNG
    # method with a cross-version stability guarantee.
    rng = random.Random(seed)
    idx = list(range(n))
    for i in range(k):
        j = i + int(rng.random() * (n - i))
        if j >= n:
            j = n - 1
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def build_fewshot_prompts(
    dataset: Sequence[TaskInstance], k: int, seed: int, shot_seed: int | None = None
) -> list[PromptBundle]:
    """One uniform k-subset of the dataset becomes the shots; every other
    instance becomes a test bundle.

    `seed` labels the bundles; `shot_seed` (defaults to `seed`) drives
    the draw, letting callers decorrelate draws across tasks and k.
    """
    if k < 0:
        raise DatasetError("k must be non-negative")
    if k >= len(dataset):
        raise DatasetError(f"k={k} must be smaller than the dataset ({len(dataset)})")
    draw = _sample_indices(len(dataset), k, seed if shot_seed is None else shot_seed)
    shot_set = set(draw)
    shots = tuple(dataset[i] for i in draw)
    shot_block = render_shot_block(shots)
    return [
        PromptBundle(instance, shots, seed, shot_block)
        for i, instance in enumerate(dataset)
        if i not in shot_set
    ]


def derive_query_sets(datasets: Iterable[Sequence[TaskInstance]]) -> list[tuple[int, ...]]:
    """Deduplicated term sets whose frequencies the gap analysis needs:
    each instance's term sets under its task's default_keys."""
    keys = {
        resolve_grouping(inst, key)
        for dataset in datasets
        for inst in dataset
        for key in default_keys(inst.task_id)
    }
    return sorted(keys, key=key_str)


# ---------------------------------------------------------------------------
# File formats


def _answered_record(inst: TaskInstance) -> dict:
    record = {
        "instance_id": inst.instance_id,
        "task_id": inst.task_id,
        "x": [term_str(c) for c in inst.x],
        "y": inst.y,
    }
    if inst.factor is not None:
        record["factor"] = inst.factor
    return record


def _instance_from_record(rec: dict, y: int) -> TaskInstance:
    return TaskInstance(
        task_id=rec["task_id"],
        x=tuple(parse_term(t) for t in rec["x"]),
        y=y,
        factor=rec.get("factor"),
        instance_id=rec["instance_id"],
    )


def save_dataset(instances: Sequence[TaskInstance], path: Path | str) -> None:
    with atomic_open(path) as f:
        for inst in instances:
            f.write(sorted_json(_answered_record(inst)) + "\n")


def load_dataset(path: Path | str) -> list[TaskInstance]:
    with open(path, encoding="utf-8") as f:
        return [_instance_from_record(rec, rec["y"]) for rec in map(json.loads, f)]


def _bundle_fragments(inst: TaskInstance) -> tuple[str, str]:
    """The JSON of a test instance's bundle lines around their per-line
    fields (k, seed, shot_set, shots): before them the keys that sort
    first (factor, gold, instance_id), after them task_id and x."""
    head = {"gold": inst.y, "instance_id": inst.instance_id}
    if inst.factor is not None:
        head["factor"] = inst.factor
    tail = {"task_id": inst.task_id, "x": [term_str(c) for c in inst.x]}
    return sorted_json(head)[:-1] + ", ", sorted_json(tail)[1:] + "\n"


def save_bundles(
    bundles: Sequence[PromptBundle],
    path: Path | str,
    fragments: dict[TaskInstance, tuple[str, str]] | None = None,
) -> None:
    """One bundle per line (layout in README.md): the test instance, so
    evaluation runs without a dataset join, its k, and the index of its
    shot set, whose instances the set's first line carries.

    Each line is sorted_json of that record, assembled from the JSON
    fragments of its test instance; `fragments` keeps them across calls,
    so a caller writing several files of one dataset encodes each
    instance once.
    """
    if fragments is None:
        fragments = {}
    set_index: dict[int, int] = {}  # id(bundle.shots) -> shot_set
    with atomic_open(path) as f:
        for b in bundles:
            inst = b.test_instance
            ends = fragments.get(inst)
            if ends is None:
                ends = fragments[inst] = _bundle_fragments(inst)
            index = set_index.get(id(b.shots))
            shots = ""
            if index is None:
                index = set_index[id(b.shots)] = len(set_index)
                shots = f', "shots": {sorted_json([_answered_record(s) for s in b.shots])}'
            head, tail = ends
            f.write(f'{head}"k": {b.k}, "seed": {b.seed}, "shot_set": {index}{shots}, {tail}')


def load_bundles(path: Path | str) -> list[PromptBundle]:
    """Bundles of a save_bundles file.  Raises DatasetError on a line
    without a shot set read at or before it, or whose k is not its set's
    number of shots."""
    shot_sets: dict[int, tuple[tuple[TaskInstance, ...], str]] = {}
    bundles = []
    with open(path, encoding="utf-8") as f:
        for line, rec in enumerate(map(json.loads, f), 1):
            if "shots" in rec and "shot_set" in rec:
                shots = tuple(_instance_from_record(s, s["y"]) for s in rec["shots"])
                shot_sets[rec["shot_set"]] = (shots, render_shot_block(shots))
            shot_set = shot_sets.get(rec.get("shot_set"))
            if shot_set is None or len(shot_set[0]) != rec["k"]:
                raise DatasetError(f"{path}: line {line} names no shot set of its k={rec['k']}")
            shots, block = shot_set
            inst = _instance_from_record(rec, rec["gold"])
            bundles.append(PromptBundle(inst, shots, rec["seed"], block))
    return bundles


def save_targets(keys: Sequence[tuple[int, ...]], path: Path | str) -> None:
    with atomic_open(path) as f:
        for key in keys:
            f.write(key_str(key) + "\n")


def load_targets(path: Path | str) -> list[tuple[int, ...]]:
    with open(path, encoding="utf-8") as f:
        return [parse_key(line.strip()) for line in f if line.strip()]
