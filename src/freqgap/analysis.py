"""Performance-gap analysis: joins eval records with term frequencies.

The unit of analysis is the group: all scored records whose instance
maps to the same term set under a grouping key.  Each group carries its
corpus frequency and mean accuracy; the performance gap is the mean
accuracy of the top frequency decile minus the bottom decile, so it
depends only on the frequency ORDER.  Group accuracies are kept as
exact rationals so partition identities and decile means are exact.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .client import EvalRecord
from .counting import CountTable
from .tasks import CONVERSION_TASKS, TaskInstance
from .terms import term_set
from .util import atomic_open, canonical_json

log = logging.getLogger(__name__)

GROUPING_KEYS = ("x1", "x1x2", "x1y", "x1x2x3", "x1x2y")

# Per-family defaults mirror the report tables: unigram-based gaps for
# arithmetic, pair/triple-based gaps for conversions.
ARITH_KEYS = ("x1", "x1x2", "x1y")
CONVERSION_KEYS = ("x1x2", "x1x2x3", "x1x2y")

REPORT_COLUMNS = ("task_id", "k", "acc") + tuple(f"gap_{key}" for key in GROUPING_KEYS)


class AnalysisError(ValueError):
    pass


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
            raise AnalysisError(
                f"grouping key x1x2x3 needs an implicit factor; "
                f"{instance.task_id} has none"
            )
        return term_set((x1, instance.x[1], instance.factor))
    if key == "x1x2y":
        return term_set((x1, instance.x[1], instance.y))
    raise AnalysisError(f"unknown grouping key: {key!r}")


def grouping_applies(task_id: str, key: str) -> bool:
    return key != "x1x2x3" or task_id in CONVERSION_TASKS


def default_keys(task_id: str) -> tuple[str, ...]:
    return CONVERSION_KEYS if task_id in CONVERSION_TASKS else ARITH_KEYS


@dataclass(frozen=True)
class AccuracyPoint:
    """One group: a term set, its corpus frequency, and mean correctness."""

    key: tuple[int, ...]
    freq: int
    n: int
    acc: Fraction

    def __post_init__(self) -> None:
        if self.n < 1:
            raise AnalysisError("accuracy point needs at least one record")
        if not 0 <= self.acc <= 1:
            raise AnalysisError("accuracy must lie in [0, 1]")


def aggregate(
    records: Iterable[EvalRecord],
    instances_by_id: Mapping[str, TaskInstance],
    counts: CountTable,
    key: str,
) -> list[AccuracyPoint]:
    """Pool records into one accuracy point per distinct term set."""
    sums: dict[tuple[int, ...], list[int]] = {}
    for rec in records:
        inst = instances_by_id.get(rec.instance_id)
        if inst is None:
            raise AnalysisError(f"record references unknown instance {rec.instance_id}")
        group = resolve_grouping(inst, key)
        cell = sums.setdefault(group, [0, 0])
        cell[0] += 1 if rec.correct else 0
        cell[1] += 1
    return [
        AccuracyPoint(key=group, freq=counts.query(group), n=n, acc=Fraction(c, n))
        for group, (c, n) in sorted(sums.items())
    ]


def _by_frequency(points: Sequence[AccuracyPoint]) -> list[AccuracyPoint]:
    return sorted(points, key=lambda p: (p.freq, p.key))


def performance_gap(points: Sequence[AccuracyPoint]) -> float:
    """Mean accuracy of the top frequency decile minus the bottom decile.

    Deciles hold ceil(N/10) groups each; groups are ordered by frequency
    with ties broken by canonical key, and decile means are unweighted
    over groups.
    """
    n = len(points)
    if n < 10:
        raise AnalysisError(f"performance gap needs at least 10 groups, got {n}")
    ordered = _by_frequency(points)
    m = -(-n // 10)
    bottom = sum(p.acc for p in ordered[:m]) / m
    top = sum(p.acc for p in ordered[-m:]) / m
    return float(top - bottom)


@dataclass(frozen=True)
class Bin:
    index: int
    mean_freq: float
    mean_acc: Fraction
    n: int


def bin_accuracy(points: Sequence[AccuracyPoint], num_bins: int = 10) -> list[Bin]:
    """Contiguous equal-count frequency bins; the remainder goes to the
    lowest bins, one extra group each.  Bin accuracy is weighted by n."""
    n = len(points)
    if n < num_bins:
        raise AnalysisError(f"need at least {num_bins} groups to form bins, got {n}")
    ordered = _by_frequency(points)
    base, rem = divmod(n, num_bins)
    bins = []
    start = 0
    for index in range(num_bins):
        size = base + (1 if index < rem else 0)
        chunk = ordered[start : start + size]
        start += size
        total_n = sum(p.n for p in chunk)
        weighted = sum(p.acc * p.n for p in chunk)
        bins.append(
            Bin(
                index=index,
                mean_freq=sum(p.freq for p in chunk) / size,
                mean_acc=weighted / total_n,
                n=total_n,
            )
        )
    return bins


def trend_fit(points: Sequence[AccuracyPoint]) -> tuple[float, float]:
    """Least squares of accuracy against log10(freq+1), weighted by n."""
    if len({p.freq for p in points}) < 2:
        raise AnalysisError("trend fit needs at least two distinct frequencies")
    sw = swx = swy = swxx = swxy = 0.0
    for p in points:
        w = p.n
        x = math.log10(p.freq + 1)
        y = float(p.acc)
        sw += w
        swx += w * x
        swy += w * y
        swxx += w * x * x
        swxy += w * x * y
    denom = sw * swxx - swx * swx
    slope = (sw * swxy - swx * swy) / denom
    intercept = (swy - slope * swx) / sw
    return slope, intercept


@dataclass
class GapReport:
    """Per-(task, k) accuracy, gaps, and plot data."""

    task_id: str
    k: int
    seeds: tuple[int, ...]
    n_records: int
    overall_acc: Fraction | None
    gaps: dict[str, float | None] = field(default_factory=dict)
    trends: dict[str, tuple[float, float] | None] = field(default_factory=dict)
    bins: dict[str, list[Bin]] = field(default_factory=dict)
    per_seed_gaps: dict[str, list[float] | None] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.n_records > 0


def build_report(
    records: Sequence[EvalRecord],
    instances_by_id: Mapping[str, TaskInstance],
    counts: CountTable,
    tasks: Sequence[str],
    ks: Sequence[int],
    keys: Sequence[str] | None = None,
    num_bins: int = 10,
) -> list[GapReport]:
    """Gap reports for every requested (task, k) cell.

    Cells without records come back empty (blank row, run incomplete).
    Seeds are pooled into the group accuracies; per-seed gaps are kept
    as a dispersion diagnostic.
    """
    by_cell: dict[tuple[str, int], list[EvalRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.task_id, rec.k), []).append(rec)

    reports = []
    for task_id in tasks:
        for k in ks:
            cell = by_cell.get((task_id, k), [])
            seeds = tuple(sorted({r.seed for r in cell}))
            if not cell:
                reports.append(
                    GapReport(task_id=task_id, k=k, seeds=(), n_records=0, overall_acc=None)
                )
                continue
            report = GapReport(
                task_id=task_id,
                k=k,
                seeds=seeds,
                n_records=len(cell),
                overall_acc=Fraction(sum(1 for r in cell if r.correct), len(cell)),
            )
            for key in keys or default_keys(task_id):
                if not grouping_applies(task_id, key):
                    continue
                points = aggregate(cell, instances_by_id, counts, key)
                try:
                    report.gaps[key] = performance_gap(points)
                except AnalysisError:
                    report.gaps[key] = None
                try:
                    report.bins[key] = bin_accuracy(points, num_bins)
                except AnalysisError:
                    report.bins[key] = []
                try:
                    report.trends[key] = trend_fit(points)
                except AnalysisError:
                    report.trends[key] = None
                report.per_seed_gaps[key] = _per_seed_gaps(
                    cell, seeds, instances_by_id, counts, key
                )
            reports.append(report)
    return reports


def _per_seed_gaps(
    cell: Sequence[EvalRecord],
    seeds: Sequence[int],
    instances_by_id: Mapping[str, TaskInstance],
    counts: CountTable,
    key: str,
) -> list[float] | None:
    gaps = []
    for seed in seeds:
        subset = [r for r in cell if r.seed == seed]
        try:
            gaps.append(performance_gap(aggregate(subset, instances_by_id, counts, key)))
        except AnalysisError:
            return None
    return gaps


# ---------------------------------------------------------------------------
# Emission


def _pct(value: Fraction | float | None) -> str:
    if value is None:
        return ""
    return f"{100 * float(value):.1f}"


def _pct_row(task_id: str, k: int, acc: Fraction | float | None, gaps: Mapping) -> list:
    """One REPORT_COLUMNS row, accuracy and gaps in percent."""
    return [task_id, k, _pct(acc)] + [_pct(gaps.get(key)) for key in GROUPING_KEYS]


def _trend_json(trend: tuple[float, float] | None) -> dict | None:
    return None if trend is None else {"slope": trend[0], "intercept": trend[1]}


def write_report(
    reports: Sequence[GapReport],
    out_dir: Path | str,
    label: str = "",
) -> None:
    """Emit report.csv (percentages), report.json (full precision), and
    per-(task, k, key) plot CSVs with trend sidecars."""
    out_dir = Path(out_dir)
    incomplete = any(not r.complete for r in reports)

    with atomic_open(out_dir / "report.csv") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow(_pct_row(r.task_id, r.k, r.overall_acc, r.gaps))

    rows = []
    for r in reports:
        rows.append(
            {
                "task_id": r.task_id,
                "k": r.k,
                "seeds": list(r.seeds),
                "n_records": r.n_records,
                "acc": None if r.overall_acc is None else float(r.overall_acc),
                "gaps": r.gaps,
                "trends": {key: _trend_json(t) for key, t in r.trends.items()},
                "per_seed_gaps": {
                    key: None if g is None else [float(x) for x in g]
                    for key, g in r.per_seed_gaps.items()
                },
                "per_seed_gap_variance": {
                    key: (
                        statistics.pvariance(g)
                        if g is not None and len(g) > 1
                        else None
                    )
                    for key, g in r.per_seed_gaps.items()
                },
            }
        )
    payload = {"label": label, "incomplete": incomplete, "rows": rows}
    with atomic_open(out_dir / "report.json") as f:
        f.write(canonical_json(payload))

    plots = out_dir / "plots"
    for r in reports:
        for key, bins in r.bins.items():
            if not bins:
                continue
            stem = f"{r.task_id}_k{r.k}_{key}"
            with atomic_open(plots / f"{stem}.csv") as f:
                writer = csv.writer(f, lineterminator="\n")
                writer.writerow(["bin_index", "mean_freq", "mean_acc", "n"])
                for b in bins:
                    writer.writerow(
                        [b.index, repr(b.mean_freq), repr(float(b.mean_acc)), b.n]
                    )
            with atomic_open(plots / f"{stem}.trend.json") as f:
                f.write(canonical_json(_trend_json(r.trends.get(key))))

    if incomplete:
        log.warning("report incomplete: some requested (task, k) cells had no records")


def compare_runs(run_dirs: Sequence[Path | str], out_dir: Path | str) -> None:
    """Side-by-side comparison of several runs' reports (model-size study).

    Emits a long-format comparison.csv with a run column and a wide
    acc_by_run.csv with one accuracy column per run.
    """
    out_dir = Path(out_dir)
    runs = []
    for d in run_dirs:
        d = Path(d)
        path = d / "report.json" if (d / "report.json").exists() else d / "report" / "report.json"
        payload = json.loads(path.read_text())
        runs.append((payload.get("label") or d.name, payload["rows"]))

    with atomic_open(out_dir / "comparison.csv") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("run",) + REPORT_COLUMNS)
        for label, rows in runs:
            for row in rows:
                pct = _pct_row(row["task_id"], row["k"], row["acc"], row["gaps"])
                writer.writerow([label] + pct)

    cells: dict[tuple[str, int], dict[str, float | None]] = {}
    labels = [label for label, _rows in runs]
    for label, rows in runs:
        for row in rows:
            cells.setdefault((row["task_id"], row["k"]), {})[label] = row["acc"]
    with atomic_open(out_dir / "acc_by_run.csv") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["task_id", "k"] + labels)
        for (task_id, k), accs in sorted(cells.items()):
            writer.writerow([task_id, k] + [_pct(accs.get(label)) for label in labels])
