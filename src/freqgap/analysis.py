"""Performance-gap analysis: joins eval records with term frequencies.

The unit of analysis is the group: all scored records whose instance
maps to the same term set under a grouping key (freqgap.tasks defines
the keys and each task's defaults).  Each group carries its corpus
frequency and its (correct, n) record counts; the performance gap is
the mean accuracy of the top frequency decile minus the bottom decile,
so it depends only on the frequency ORDER.  Decile and bin means are
exact rationals built from those counts, so partition identities and
decile means are exact.

build_report reads a RecordTally of the records.  Each (task, grouping
key)'s groups are built once: numbered in term-set order, with their
frequencies and frequency order, for all of the task's ks and seeds.
Each (task, k, key) cell then counts (correct, n) per group number, and
the shared order, cut down to the cell's groups, serves the gap, the
bins and the per-seed gaps; pooled groups are sums over seeds.
aggregate, performance_gap, bin_accuracy and trend_fit expose the same
arithmetic on AccuracyPoints.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .client import EvalRecord, RecordTally
from .counting import CountTable
from .tasks import GROUPING_KEYS, TaskInstance, default_keys, grouping_applies, resolve_grouping
from .util import atomic_open, canonical_json

log = logging.getLogger(__name__)

REPORT_COLUMNS = ("task_id", "k", "acc") + tuple(f"gap_{key}" for key in GROUPING_KEYS)


class AnalysisError(ValueError):
    pass


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


# The gap, bin and trend arithmetic runs on group rows (freq, term set,
# correct, n).  Rows counted from records hold integer counts; rows of
# AccuracyPoints hold correct = acc * n.
def _point_rows(points: Iterable[AccuracyPoint]) -> list[tuple]:
    return [(p.freq, p.key, p.acc * p.n, p.n) for p in points]


def _rows(correct: Counter, total: Counter, counts: CountTable) -> list[tuple]:
    """Rows in term-set order.  Term sets from resolve_grouping are
    canonical, so the table is read without re-canonicalizing them."""
    freq = counts.entries.get
    return [(freq(key, 0), key, correct[key], n) for key, n in sorted(total.items())]


def _by_frequency(rows: Iterable[tuple]) -> list[tuple]:
    return sorted(rows, key=itemgetter(0, 1))


def _instance(instances_by_id: Mapping[str, TaskInstance], instance_id: str) -> TaskInstance:
    inst = instances_by_id.get(instance_id)
    if inst is None:
        raise AnalysisError(f"record references unknown instance {instance_id}")
    return inst


def aggregate(
    records: Iterable[EvalRecord],
    instances_by_id: Mapping[str, TaskInstance],
    counts: CountTable,
    key: str,
) -> list[AccuracyPoint]:
    """Pool records into one accuracy point per distinct term set."""
    correct: Counter = Counter()
    total: Counter = Counter()
    for rec in records:
        group = resolve_grouping(_instance(instances_by_id, rec.instance_id), key)
        total[group] += 1
        correct[group] += rec.correct
    return [
        AccuracyPoint(key=group, freq=freq, n=n, acc=Fraction(c, n))
        for freq, group, c, n in _rows(correct, total, counts)
    ]


def performance_gap(points: Sequence[AccuracyPoint]) -> float:
    """Mean accuracy of the top frequency decile minus the bottom decile.

    Deciles hold ceil(N/10) groups each; groups are ordered by frequency
    with ties broken by canonical key, and decile means are unweighted
    over groups.
    """
    return _gap(_by_frequency(_point_rows(points)))


def _gap(ordered: Sequence[tuple]) -> float:
    n = len(ordered)
    if n < 10:
        raise AnalysisError(f"performance gap needs at least 10 groups, got {n}")
    m = -(-n // 10)
    return float((_acc_sum(ordered[-m:]) - _acc_sum(ordered[:m])) / m)


def _acc_sum(rows: Iterable[tuple]) -> Fraction:
    """The exact sum of the rows' accuracies, one Fraction per distinct n."""
    correct_by_n: dict = defaultdict(int)
    for _f, _g, c, n in rows:
        correct_by_n[n] += c
    return sum(Fraction(c, n) for n, c in correct_by_n.items())


@dataclass(frozen=True)
class Bin:
    index: int
    mean_freq: float
    mean_acc: Fraction
    n: int


def bin_accuracy(points: Sequence[AccuracyPoint], num_bins: int = 10) -> list[Bin]:
    """Contiguous equal-count frequency bins; the remainder goes to the
    lowest bins, one extra group each.  Bin accuracy is weighted by n."""
    return _bins(_by_frequency(_point_rows(points)), num_bins)


def _bins(ordered: Sequence[tuple], num_bins: int) -> list[Bin]:
    n = len(ordered)
    if n < num_bins:
        raise AnalysisError(f"need at least {num_bins} groups to form bins, got {n}")
    base, rem = divmod(n, num_bins)
    bins = []
    start = 0
    for index in range(num_bins):
        size = base + (1 if index < rem else 0)
        freqs, _keys, correct, ns = zip(*ordered[start : start + size])
        start += size
        bins.append(Bin(index, sum(freqs) / size, Fraction(sum(correct), sum(ns)), sum(ns)))
    return bins


def trend_fit(points: Sequence[AccuracyPoint]) -> tuple[float, float]:
    """Least squares of accuracy against log10(freq+1), weighted by n."""
    return _trend(_point_rows(points))


def _trend(rows: Sequence[tuple], log_freqs: Sequence[float] | None = None) -> tuple:
    """The fit over rows in term-set order; log_freqs[g] is log10(freq+1)
    of the row of group number g, where rows name their group by number."""
    if len({freq for freq, _g, _c, _n in rows}) < 2:
        raise AnalysisError("trend fit needs at least two distinct frequencies")
    if log_freqs is None:
        xs = [math.log10(freq + 1) for freq, _g, _c, _n in rows]
    else:
        xs = [log_freqs[g] for _f, g, _c, _n in rows]
    sw = swx = swy = swxx = swxy = 0.0
    for (_freq, _group, c, w), x in zip(rows, xs):
        y = float(c / w)
        wx = w * x  # w * x * x is (w * x) * x: the same floats
        sw += w
        swx += wx
        swy += w * y
        swxx += wx * x
        swxy += wx * y
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
    tally: RecordTally,
    instances_by_id: Mapping[str, TaskInstance],
    counts: CountTable,
    tasks: Sequence[str],
    ks: Sequence[int],
    keys: Sequence[str] | None = None,
    num_bins: int = 10,
) -> list[GapReport]:
    """Gap reports for every requested (task, k) cell.

    Cells without records come back empty (blank row, run incomplete);
    records of other tasks or ks are ignored.  Seeds are pooled into the
    group accuracies; per-seed gaps are kept as a dispersion diagnostic.
    """
    wanted_ks = set(ks)
    keys_of = {
        t: [key for key in keys or default_keys(t) if grouping_applies(t, key)] for t in tasks
    }
    # task -> k -> seed -> (instance ids, correct flags)
    cells: dict = defaultdict(lambda: defaultdict(dict))
    for (task_id, k, seed), (instance_ids, oks, _errored) in tally.items():
        if task_id in keys_of and k in wanted_ks:
            cells[task_id][k][seed] = (instance_ids, oks)

    reports = []
    for task_id in tasks:
        by_k = cells.get(task_id, {})
        instance_ids = list(dict.fromkeys(chain.from_iterable(
            ids for by_seed in by_k.values() for ids, _oks in by_seed.values()
        )))
        instances = [_instance(instances_by_id, i) for i in instance_ids]
        groupings = [_Grouping(key, instance_ids, instances, counts) for key in keys_of[task_id]]
        for k in ks:
            by_seed = by_k.get(k)
            if by_seed is None:
                reports.append(GapReport(task_id, k, seeds=(), n_records=0, overall_acc=None))
                continue
            seeds = tuple(sorted(by_seed))
            lists = [by_seed[seed] for seed in seeds]
            n_records = sum(len(ids) for ids, _oks in lists)
            hits = sum(oks.count(1) for _ids, oks in lists)
            report = GapReport(task_id, k, seeds, n_records, Fraction(hits, n_records))
            for key, grouping in zip(keys_of[task_id], groupings):
                rows = grouping.rows(*grouping.tally(lists))
                ordered = grouping.by_frequency(rows)
                report.gaps[key] = _or_none(_gap, ordered)
                report.bins[key] = _or_none(_bins, ordered, num_bins) or []
                report.trends[key] = _or_none(_trend, rows, grouping.log_freqs)
                if len(seeds) == 1:  # the seed's groups are the pooled groups
                    gap = report.gaps[key]
                    report.per_seed_gaps[key] = None if gap is None else [gap]
                else:
                    per_seed = (grouping.tally([pair]) for pair in lists)
                    report.per_seed_gaps[key] = _or_none(_seed_gaps, ordered, per_seed)
            reports.append(report)
    return reports


class _Grouping:
    """A task's groups under one grouping key, built once for all of its
    (k, seed) cells: groups are numbered in term-set order, and each has
    its frequency and log10(freq+1); `order` is the frequency order of
    all of them.  Rows name their group by its number, so a cell's rows
    sort as rows of term sets do."""

    def __init__(
        self,
        key: str,
        instance_ids: Sequence[str],
        instances: Sequence[TaskInstance],
        counts: CountTable,
    ):
        sets = [resolve_grouping(inst, key) for inst in instances]
        canonical = sorted(set(sets))
        number = {term_set: g for g, term_set in enumerate(canonical)}
        self.group_of = dict(zip(instance_ids, map(number.__getitem__, sets)))
        # Term sets from resolve_grouping are canonical, so the table is
        # read without re-canonicalizing them.
        freq = counts.entries.get
        self.freqs = [freq(term_set, 0) for term_set in canonical]
        self.log_freqs = [math.log10(f + 1) for f in self.freqs]
        self.order = sorted(range(len(canonical)), key=self.freqs.__getitem__)

    def tally(self, lists: Iterable[tuple[list, bytearray]]) -> tuple[Counter, Counter]:
        """(correct, n) per group, pooled over (instance ids, correct flags) lists."""
        correct: Counter = Counter()
        total: Counter = Counter()
        for instance_ids, oks in lists:
            groups = list(map(self.group_of.__getitem__, instance_ids))
            total.update(groups)
            correct.update(compress(groups, oks))
        return correct, total

    def rows(self, correct: Counter, total: Counter) -> list[tuple]:
        """The groups' rows in term-set order."""
        freqs, hits = self.freqs, correct.get  # a Counter's [] of a missing key runs Python
        return [(freqs[g], g, hits(g, 0), n) for g, n in sorted(total.items())]

    def by_frequency(self, rows: Sequence[tuple]) -> list[tuple]:
        row_of = {row[1]: row for row in rows}
        return [row_of[g] for g in self.order if g in row_of]


def _seed_gaps(ordered: Sequence[tuple], per_seed: Iterable[tuple[Counter, Counter]]) -> list:
    """Each seed's gap over its own groups, taken in the pooled frequency order."""
    return [
        _gap([(freq, g, correct.get(g, 0), n[g]) for freq, g, _c, _n in ordered if g in n])
        for correct, n in per_seed
    ]


def _or_none(fn, *args):
    """fn(*args), or None where there are too few groups for it."""
    try:
        return fn(*args)
    except AnalysisError:
        return None


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
                "per_seed_gaps": r.per_seed_gaps,
                "per_seed_gap_variance": {
                    key: statistics.pvariance(g) if g and len(g) > 1 else None
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
