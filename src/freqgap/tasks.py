"""The 11 numerical-reasoning datasets and their prompts.

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


def instance_id_for(task_id: str, x: tuple[int, ...]) -> str:
    raw = "|".join([task_id] + [term_str(c) for c in x])
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def compute_answer(task_id: str, x: tuple[int, ...], factor: int | None) -> int:
    x1 = term_value(x[0])
    if task_id in ("mult", "mult_hash"):
        return x1 * term_value(x[1])
    if task_id in ("add", "add_hash"):
        return x1 + term_value(x[1])
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


def _arith_operands(table: CountTable) -> list[int]:
    qualifying = [v for v in top_numbers(table, TOP_K) if v < ARITH_X1_BOUND]
    if not qualifying:
        raise DatasetError(
            "no qualifying first operands: corpus has no counted numbers below "
            f"{ARITH_X1_BOUND} in its top {TOP_K}"
        )
    return qualifying


def _arith_instances(table: CountTable, op: str, task_id: str) -> list[TaskInstance]:
    if op not in ("mult", "add"):
        raise DatasetError(f"unknown arithmetic op: {op!r}")
    return [
        make_instance(task_id, (x1, x2))
        for x1 in _arith_operands(table)
        for x2 in ARITH_X2_RANGE
    ]


def build_arithmetic(table: CountTable, op: str) -> list[TaskInstance]:
    """Cross product of top first operands (< 100) with second operands 1..50."""
    return _arith_instances(table, op, op)


def build_operation_inference(table: CountTable, op: str) -> list[TaskInstance]:
    """Same operands and answers as arithmetic, rendered with '#' instead."""
    return _arith_instances(table, op, op + "_hash")


def build_time_conversion(table: CountTable, task_id: str) -> list[TaskInstance]:
    """One instance per two-digit number co-occurring with the source unit."""
    if task_id not in CONVERSION_TASKS:
        raise DatasetError(f"unknown conversion task: {task_id!r}")
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


def build_task(table: CountTable, task_id: str) -> list[TaskInstance]:
    if task_id in ("mult", "add"):
        return build_arithmetic(table, task_id)
    if task_id in ("mult_hash", "add_hash"):
        return build_operation_inference(table, task_id[: -len("_hash")])
    return build_time_conversion(table, task_id)


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
    """Deduplicated term sets whose frequencies the gap analysis needs.

    Arithmetic-family instances contribute {x1}, {x1,x2}, {x1,y};
    conversions contribute {x1,x2}, {x1,x2,x3}, {x1,x2,y}.
    """
    keys: set[tuple[int, ...]] = set()
    for dataset in datasets:
        for inst in dataset:
            x1 = inst.x[0]
            x2 = inst.x[1]
            if inst.task_id in CONVERSION_TASKS:
                keys.add(term_set((x1, x2)))
                keys.add(term_set((x1, x2, inst.factor)))
                keys.add(term_set((x1, x2, inst.y)))
            else:
                keys.add(term_set((x1,)))
                keys.add(term_set((x1, x2)))
                keys.add(term_set((x1, inst.y)))
    return sorted(keys, key=key_str)


# ---------------------------------------------------------------------------
# File formats


def _instance_record(inst: TaskInstance) -> dict:
    record = {
        "instance_id": inst.instance_id,
        "task_id": inst.task_id,
        "x": [term_str(c) for c in inst.x],
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


def _answered_record(inst: TaskInstance) -> dict:
    return {**_instance_record(inst), "y": inst.y}


def save_dataset(instances: Sequence[TaskInstance], path: Path | str) -> None:
    with atomic_open(path) as f:
        for inst in instances:
            f.write(sorted_json(_answered_record(inst)) + "\n")


def load_dataset(path: Path | str) -> list[TaskInstance]:
    with open(path, encoding="utf-8") as f:
        return [_instance_from_record(rec, rec["y"]) for rec in map(json.loads, f)]


def save_bundles(bundles: Sequence[PromptBundle], path: Path | str) -> None:
    """One bundle per line (layout in README.md): the test instance, so
    evaluation runs without a dataset join, its k, and the index of its
    shot set, whose instances the set's first line carries."""
    set_index: dict[int, int] = {}  # id(bundle.shots) -> shot_set
    with atomic_open(path) as f:
        for b in bundles:
            record = {
                **_instance_record(b.test_instance), "seed": b.seed, "k": b.k, "gold": b.gold
            }
            index = set_index.get(id(b.shots))
            if index is None:
                index = set_index[id(b.shots)] = len(set_index)
                record["shots"] = [_answered_record(s) for s in b.shots]
            record["shot_set"] = index
            f.write(sorted_json(record) + "\n")


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
