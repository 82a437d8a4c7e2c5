"""Span tracing by wrapping freqgap's public functions from outside.

A ``Tracer`` replaces each listed function, in every loaded freqgap
module that references it, with a wrapper that records a span: id,
parent id, name, start, end, and an optional size taken from the call
(items returned, bytes hashed).  Spans stay in memory until ``dump``.
A layer's self time is the summed duration of its spans minus the time
covered by their direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

LAYERS = ("pipeline", "corpus", "counting", "tasks", "client", "analysis")


def _count(result: Any, *_args: Any, **_kwargs: Any) -> int:
    return len(result)


def _file_bytes(_result: Any, path: Any, *_args: Any, **_kwargs: Any) -> int:
    return os.path.getsize(path)


# layer -> [(attribute in freqgap.<layer>, size of a call or None)].
# Only calls at layer boundaries are listed; per-record helpers would
# add a span per record and swamp the run being measured.  Generator
# functions are left out: their span would end before any work.
WRAPPED: dict[str, list[tuple[str, Callable | None]]] = {
    "pipeline": [("run_pipeline", None), ("sha256_file", _file_bytes)],
    "corpus": [
        ("count_corpus", None),
        ("corpus_units", _count),
        ("merge_sorted_count_files", None),
    ],
    "counting": [("count_shard", None), ("top_numbers", _count), ("CountTable.load", None)],
    "tasks": [
        ("build_task", _count),
        ("save_dataset", None),
        ("load_dataset", _count),
        ("derive_query_sets", _count),
        ("save_targets", None),
        ("load_targets", _count),
        ("build_fewshot_prompts", _count),
        ("save_bundles", None),
        ("load_bundles", _count),
    ],
    "client": [("evaluate", _count), ("save_records", None), ("load_records", _count)],
    "analysis": [
        ("build_report", _count),
        ("write_report", None),
        ("aggregate", _count),
        ("performance_gap", None),
        ("bin_accuracy", None),
        ("trend_fit", None),
    ],
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    size: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            n = size(result, *args, **kwargs) if size is not None else None
            self.spans.append(Span(span_id, parent, name, start, end, n))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever freqgap refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "freqgap" or n.startswith("freqgap.")]
        for layer, entries in WRAPPED.items():
            home = sys.modules[f"freqgap.{layer}"]
            for attr, size in entries:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    traced = self.wrap(f"{layer}.{attr}", original.__func__, size)
                    self._set(cls, meth, classmethod(traced))
                    continue
                original = getattr(home, attr)
                traced = self.wrap(f"{layer}.{attr}", original, size)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, traced)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def self_time_by_layer(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            out[s.layer] += s.duration - child_time[s.id]
        return out

    def summary(self) -> dict:
        """Span count, per-name calls / total seconds / summed sizes, and
        self time per layer."""
        by_name: dict[str, dict] = {}
        for s in self.spans:
            entry = by_name.setdefault(s.name, {"calls": 0, "total_s": 0.0, "size": 0})
            entry["calls"] += 1
            entry["total_s"] += s.duration
            entry["size"] += s.size or 0
        return {
            "spans": len(self.spans),
            "by_name": by_name,
            "self_s": self.self_time_by_layer(),
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps(s.__dict__) + "\n")
