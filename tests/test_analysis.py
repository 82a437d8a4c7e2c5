import csv
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqgap.analysis import (
    GROUPING_KEYS,
    AccuracyPoint,
    AnalysisError,
    GapReport,
    _by_frequency,
    _gap,
    _point_rows,
    aggregate,
    bin_accuracy,
    build_report,
    compare_runs,
    default_keys,
    grouping_applies,
    performance_gap,
    resolve_grouping,
    trend_fit,
    write_report,
)
from freqgap.client import EvalRecord, RecordTally
from freqgap.counting import CounterConfig, CountTable
from freqgap.tasks import DatasetError, make_instance
from freqgap.terms import term_set, unit_term


def _point(key, freq, n=1, acc=1):
    return AccuracyPoint(key=(key,), freq=freq, n=n, acc=Fraction(acc))


def _freq_points(pairs):
    return [
        AccuracyPoint(key=(i,), freq=freq, n=1, acc=Fraction(acc))
        for i, (freq, acc) in enumerate(pairs)
    ]


freq_sets = st.lists(
    st.tuples(st.integers(0, 10**9), st.fractions(min_value=0, max_value=1)),
    min_size=10,
    max_size=60,
)


# --- performance gap -------------------------------------------------------


def test_gap_twenty_point_example_exact():
    points = _freq_points([(w, Fraction(w, 20)) for w in range(1, 21)])
    assert performance_gap(points) == 0.9


def test_gap_constant_accuracy_is_zero():
    points = _freq_points([(w, Fraction(1, 3)) for w in range(1, 15)])
    assert performance_gap(points) == 0.0


def test_gap_requires_ten_groups():
    with pytest.raises(AnalysisError):
        performance_gap(_freq_points([(w, 1) for w in range(9)]))


def test_gap_decile_size_is_ceiling():
    # 11 points -> deciles of 2
    accs = [0, 0] + [Fraction(1, 2)] * 7 + [1, 1]
    points = _freq_points([(w, a) for w, a in enumerate(accs)])
    assert performance_gap(points) == 1.0


def test_gap_tie_break_by_key_is_deterministic():
    points = [
        AccuracyPoint(key=(i,), freq=5, n=1, acc=Fraction(i % 2))
        for i in range(20)
    ]
    assert performance_gap(points) == performance_gap(list(reversed(points)))


@given(freq_sets)
@settings(max_examples=60)
def test_gap_invariant_under_monotone_reindexing(pairs):
    points = _freq_points(pairs)
    doubled = [
        AccuracyPoint(key=p.key, freq=2 * p.freq, n=p.n, acc=p.acc) for p in points
    ]
    squared = [
        AccuracyPoint(key=p.key, freq=p.freq**2, n=p.n, acc=p.acc) for p in points
    ]
    assert performance_gap(points) == performance_gap(doubled) == performance_gap(squared)


@given(freq_sets)
@settings(max_examples=60)
def test_gap_antisymmetric_under_accuracy_flip(pairs):
    points = _freq_points(pairs)
    flipped = [
        AccuracyPoint(key=p.key, freq=p.freq, n=p.n, acc=1 - p.acc) for p in points
    ]
    assert performance_gap(flipped) == -performance_gap(points)
    assert -1.0 <= performance_gap(points) <= 1.0


@given(freq_sets, st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_gap_permutation_invariant(pairs, rng):
    points = _freq_points(pairs)
    shuffled = list(points)
    rng.shuffle(shuffled)
    assert performance_gap(shuffled) == performance_gap(points)


def _gap_oracle(points):
    # independent direct enumeration: repeatedly take extremes
    remaining = {(p.freq, p.key): p.acc for p in points}
    m = math.ceil(len(points) / 10)
    bottom = []
    for _ in range(m):
        low = min(remaining)
        bottom.append(remaining.pop(low))
    remaining = {(p.freq, p.key): p.acc for p in points}
    top = []
    for _ in range(m):
        high = max(remaining)
        top.append(remaining.pop(high))
    return float(sum(top) / m - sum(bottom) / m)


@given(freq_sets)
@settings(max_examples=50)
def test_gap_matches_enumeration_oracle(pairs):
    points = _freq_points(pairs)[:30]
    if len(points) < 10:
        return
    assert performance_gap(points) == _gap_oracle(points)


# (correct, n) of a group with n in 1..6, so that deciles repeat denominators
group_counts = st.integers(1, 6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))


@given(st.lists(group_counts, min_size=10, max_size=80))
@settings(max_examples=100)
def test_gap_sums_per_denominator_as_the_plain_fraction_sum(counts):
    m = -(-len(counts) // 10)

    def reference(rows):  # one Fraction per row
        mean = lambda part: sum(Fraction(c, n) for _f, _g, c, n in part) / m
        return float(mean(rows[-m:]) - mean(rows[:m]))

    rows = [(i, (i,), c, n) for i, (c, n) in enumerate(counts)]  # integer rows, in order
    points = [AccuracyPoint((i,), i, n, Fraction(c, n)) for i, (c, n) in enumerate(counts)]
    point_rows = _by_frequency(_point_rows(points))  # correct = acc * n, a Fraction
    assert _gap(rows) == reference(rows)
    assert _gap(point_rows) == reference(point_rows) == _gap(rows)


# --- binning ---------------------------------------------------------------


def test_bins_twenty_points_into_ten_pairs():
    points = _freq_points([(w, Fraction(w, 20)) for w in range(20)])
    bins = bin_accuracy(points, 10)
    assert [b.n for b in bins] == [2] * 10
    assert [b.index for b in bins] == list(range(10))


def test_bins_remainder_spread_over_lowest():
    points = _freq_points([(w, 1) for w in range(23)])
    sizes = [b.n for b in bin_accuracy(points, 10)]
    assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


def test_bins_require_enough_points():
    with pytest.raises(AnalysisError):
        bin_accuracy(_freq_points([(w, 1) for w in range(5)]), 10)


def test_bin_means():
    points = [
        AccuracyPoint(key=(0,), freq=0, n=1, acc=Fraction(0)),
        AccuracyPoint(key=(1,), freq=10, n=3, acc=Fraction(1)),
    ]
    (bin0, bin1) = bin_accuracy(points, 2)
    assert bin0.mean_freq == 0 and bin1.mean_freq == 10
    assert bin0.mean_acc == 0 and bin1.mean_acc == 1
    assert bin0.n == 1 and bin1.n == 3


@given(
    st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(1, 40),
            st.fractions(min_value=0, max_value=1),
        ),
        min_size=10,
        max_size=80,
    ),
    st.integers(2, 10),
)
@settings(max_examples=60)
def test_bin_partition_identity(triples, num_bins):
    points = [
        AccuracyPoint(key=(i,), freq=w, n=n, acc=acc)
        for i, (w, n, acc) in enumerate(triples)
    ]
    if len(points) < num_bins:
        return
    bins = bin_accuracy(points, num_bins)
    total_n = sum(p.n for p in points)
    overall = sum(p.acc * p.n for p in points) / total_n
    binned = sum(b.mean_acc * b.n for b in bins) / sum(b.n for b in bins)
    assert binned == overall  # exact, rational arithmetic
    assert abs(float(binned) - float(overall)) < 1e-12


# --- trend fit --------------------------------------------------------------


def test_trend_exact_line():
    points = [
        AccuracyPoint(key=(i,), freq=w, n=1, acc=Fraction(1, 10) * i)
        for i, w in enumerate([0, 9, 99, 999, 9999])
    ]
    # acc = 0.1 * log10(freq + 1) exactly on these points
    slope, intercept = trend_fit(points)
    assert slope == pytest.approx(0.1, abs=1e-9)
    assert intercept == pytest.approx(0.0, abs=1e-9)


def test_trend_two_points():
    points = [
        AccuracyPoint(key=(0,), freq=0, n=1, acc=Fraction(0)),
        AccuracyPoint(key=(1,), freq=99, n=1, acc=Fraction(1)),
    ]
    slope, intercept = trend_fit(points)
    assert slope == pytest.approx(0.5)
    assert intercept == pytest.approx(0.0)


def test_trend_degenerate_frequencies():
    points = [_point(i, 5) for i in range(5)]
    with pytest.raises(AnalysisError):
        trend_fit(points)


def test_trend_noise_slope_near_zero():
    # frequency-independent accuracies over log-spread frequencies
    rng = random.Random(0)
    points = [
        AccuracyPoint(
            key=(i,),
            freq=int(10 ** (6 * rng.random())),
            n=1,
            acc=Fraction(rng.randrange(0, 101), 100),
        )
        for i in range(1000)
    ]
    slope, _ = trend_fit(points)
    assert abs(slope) < 0.02


def test_trend_weighting_by_n():
    # heavy accurate point at high frequency pulls the slope up
    base = [
        AccuracyPoint(key=(0,), freq=0, n=1, acc=Fraction(1, 2)),
        AccuracyPoint(key=(1,), freq=9, n=1, acc=Fraction(1, 2)),
        AccuracyPoint(key=(2,), freq=99, n=1, acc=Fraction(0)),
        AccuracyPoint(key=(3,), freq=99, n=50, acc=Fraction(1)),
    ]
    slope_heavy, _ = trend_fit(base)
    slope_light, _ = trend_fit(base[:3])
    assert slope_heavy > slope_light


# --- aggregation ------------------------------------------------------------


def _record(inst, seed=0, k=2, correct=True):
    return EvalRecord(
        instance_id=inst.instance_id,
        task_id=inst.task_id,
        k=k,
        seed=seed,
        prompt_digest="d",
        raw_output=f" {inst.y if correct else inst.y + 1}",
        extracted=inst.y if correct else inst.y + 1,
        correct=correct,
        latency=0.0,
    )


def _tally(records):
    tally = RecordTally()
    tally.add(records)
    return tally


def _counts_table(entries):
    return CountTable(
        {term_set(k): v for k, v in entries.items()},
        CountTable.empty(CounterConfig()).meta,
    )


def test_aggregate_pools_seeds_per_group():
    instances = {}
    records = []
    for x2 in range(1, 51):
        inst = make_instance("mult", (23, x2))
        instances[inst.instance_id] = inst
        for seed in range(5):
            records.append(_record(inst, seed=seed))
    counts = _counts_table({(23,): 777})
    points = aggregate(records, instances, counts, "x1")
    assert len(points) == 1
    assert points[0].n == 250
    assert points[0].freq == 777
    assert points[0].acc == 1


def test_aggregate_single_record():
    inst = make_instance("add", (3, 4))
    points = aggregate(
        [_record(inst)], {inst.instance_id: inst}, _counts_table({}), "x1"
    )
    assert points == [
        AccuracyPoint(key=term_set((3,)), freq=0, n=1, acc=Fraction(1))
    ]


def test_aggregate_by_pair_groups_per_instance():
    instances = {}
    records = []
    for x2 in (1, 2):
        inst = make_instance("mult", (9, x2))
        instances[inst.instance_id] = inst
        for seed in range(3):
            records.append(_record(inst, seed=seed, correct=(x2 == 1)))
    points = aggregate(records, instances, _counts_table({}), "x1x2")
    assert len(points) == 2
    assert {p.n for p in points} == {3}
    assert {p.acc for p in points} == {Fraction(0), Fraction(1)}


def test_aggregate_unknown_instance_errors():
    inst = make_instance("mult", (1, 2))
    with pytest.raises(AnalysisError):
        aggregate([_record(inst)], {}, _counts_table({}), "x1")


def test_resolve_grouping_keys():
    conv = make_instance("hour_min", (24, unit_term("hour")), factor=60)
    assert resolve_grouping(conv, "x1") == term_set((24,))
    assert resolve_grouping(conv, "x1x2") == term_set((24, unit_term("hour")))
    assert resolve_grouping(conv, "x1x2x3") == term_set((24, unit_term("hour"), 60))
    assert resolve_grouping(conv, "x1x2y") == term_set((24, unit_term("hour"), 1440))
    arith = make_instance("mult", (23, 18))
    assert resolve_grouping(arith, "x1y") == term_set((23, 414))
    with pytest.raises(DatasetError):
        resolve_grouping(arith, "x1x2x3")
    with pytest.raises(DatasetError):
        resolve_grouping(arith, "x2")


def test_default_keys_per_family():
    assert default_keys("mult") == ("x1", "x1x2", "x1y")
    assert default_keys("hour_min") == ("x1x2", "x1x2x3", "x1x2y")


# --- reports ----------------------------------------------------------------


def _full_run(correct=True):
    instances = {}
    records = []
    for x1 in range(12):
        inst = make_instance("mult", (x1, 2))
        instances[inst.instance_id] = inst
        for seed in range(2):
            records.append(_record(inst, seed=seed, correct=correct))
    counts = _counts_table({(x1,): 10 * (x1 + 1) for x1 in range(12)})
    return records, instances, counts


def test_build_report_perfect():
    records, instances, counts = _full_run(correct=True)
    (report,) = build_report(_tally(records), instances, counts, ["mult"], [2])
    assert report.overall_acc == 1
    assert report.gaps == {"x1": 0.0, "x1x2": 0.0, "x1y": 0.0}
    assert report.seeds == (0, 1)
    assert report.complete


def test_build_report_missing_cell_flagged():
    records, instances, counts = _full_run()
    reports = build_report(_tally(records), instances, counts, ["mult"], [2, 4])
    assert reports[0].complete
    assert not reports[1].complete
    assert reports[1].overall_acc is None


def test_write_report_layout(tmp_path):
    records, instances, counts = _full_run()
    reports = build_report(_tally(records), instances, counts, ["mult"], [2])
    write_report(reports, tmp_path, label="unit-test")

    with open(tmp_path / "report.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == [
        "task_id", "k", "acc",
        "gap_x1", "gap_x1x2", "gap_x1y", "gap_x1x2x3", "gap_x1x2y",
    ]
    assert rows[1][:4] == ["mult", "2", "100.0", "0.0"]

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["label"] == "unit-test"
    assert payload["incomplete"] is False
    assert payload["rows"][0]["acc"] == 1.0
    assert payload["rows"][0]["gaps"]["x1"] == 0.0

    plot = tmp_path / "plots" / "mult_k2_x1.csv"
    with open(plot) as f:
        plot_rows = list(csv.reader(f))
    assert plot_rows[0] == ["bin_index", "mean_freq", "mean_acc", "n"]
    assert len(plot_rows) == 11
    trend = json.loads((tmp_path / "plots" / "mult_k2_x1.trend.json").read_text())
    assert set(trend) == {"slope", "intercept"}


def test_percentages_one_decimal(tmp_path):
    records, instances, counts = _full_run()
    # make one third of records wrong: acc = 2/3 -> "66.7"
    for i, r in enumerate(records):
        if i % 3 == 0:
            r.correct = False
    reports = build_report(_tally(records), instances, counts, ["mult"], [2])
    write_report(reports, tmp_path)
    row = (tmp_path / "report.csv").read_text().splitlines()[1]
    assert row.split(",")[2] == "66.7"


def test_compare_runs(tmp_path):
    records, instances, counts = _full_run()
    for i, label in enumerate(["model-a", "model-b"]):
        run_dir = tmp_path / f"run{i}"
        reports = build_report(_tally(records), instances, counts, ["mult"], [2])
        write_report(reports, run_dir, label=label)
    compare_runs([tmp_path / "run0", tmp_path / "run1"], tmp_path / "cmp")
    comparison = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
    assert comparison[0].startswith("run,task_id,k,acc")
    assert len(comparison) == 3
    wide = (tmp_path / "cmp" / "acc_by_run.csv").read_text().splitlines()
    assert wide[0] == "task_id,k,model-a,model-b"
    assert wide[1] == "mult,2,100.0,100.0"


def test_per_seed_gap_diagnostic():
    records, instances, counts = _full_run()
    (report,) = build_report(_tally(records), instances, counts, ["mult"], [2])
    assert report.per_seed_gaps["x1"] == [0.0, 0.0]


# --- one-pass build_report against the per-key, per-seed composition ---------


def _or_none(fn, *args):
    try:
        return fn(*args)
    except AnalysisError:
        return None


def _reference_report(records, instances, counts, tasks, ks, keys, num_bins):
    """aggregate -> performance_gap / bin_accuracy / trend_fit per (task, k,
    key), with per-seed gaps from each seed's own subset of the records."""
    reports = []
    for task_id in tasks:
        for k in ks:
            cell = [r for r in records if r.task_id == task_id and r.k == k]
            if not cell:
                reports.append(GapReport(task_id, k, (), 0, None))
                continue
            seeds = tuple(sorted({r.seed for r in cell}))
            report = GapReport(
                task_id, k, seeds, len(cell), Fraction(sum(r.correct for r in cell), len(cell))
            )
            for key in keys or default_keys(task_id):
                if not grouping_applies(task_id, key):
                    continue
                points = aggregate(cell, instances, counts, key)
                report.gaps[key] = _or_none(performance_gap, points)
                report.bins[key] = _or_none(bin_accuracy, points, num_bins) or []
                report.trends[key] = _or_none(trend_fit, points)
                per_seed = [
                    _or_none(
                        performance_gap,
                        aggregate([r for r in cell if r.seed == s], instances, counts, key),
                    )
                    for s in seeds
                ]
                report.per_seed_gaps[key] = None if None in per_seed else per_seed
            reports.append(report)
    return reports


_CONVERSION = "hour_min"


def _instance_for(task_id, x1, x2):
    if task_id == _CONVERSION:
        return make_instance(task_id, (x1, unit_term("hour")))
    return make_instance(task_id, (x1, x2))


def _one_pass_inputs(draws, salt):
    """Records from (task, x1, x2, k, seed, correct) draws.  Only instances of
    requested cells (mult or hour_min, k in 0/2) go into the instance map, so
    resolving any other record raises.  Frequencies are salted hashes with
    many ties."""
    records, instances = [], {}
    for task_id, x1, x2, k, seed, correct in draws:
        inst = _instance_for(task_id, x1, x2)
        if task_id in ("mult", _CONVERSION) and k in (0, 2):
            instances[inst.instance_id] = inst
        records.append(_record(inst, seed=seed, k=k, correct=correct))
    counts = _counts_table(
        {
            resolve_grouping(inst, key): hash((salt, resolve_grouping(inst, key))) % 7
            for inst in instances.values()
            for key in GROUPING_KEYS
            if key != "x1x2x3" or inst.task_id == _CONVERSION
        }
    )
    return records, instances, counts


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["mult", _CONVERSION, "add"]),
            st.integers(0, 30),
            st.integers(1, 4),
            st.sampled_from([0, 2, 4]),
            st.integers(0, 2),
            st.booleans(),
        ),
        min_size=1,
        max_size=300,
    ),
    st.sampled_from([None, ("x1",), ("x1", "x1x2x3"), GROUPING_KEYS]),
    st.integers(2, 10),
    st.integers(0, 1000),
)
@settings(max_examples=80, deadline=None)
def test_build_report_equals_reference_composition(draws, keys, num_bins, salt):
    draws = draws + [("mult", 0, 1, 2, 0, True), ("mult", 1, 1, 2, 1, False)]  # >= 2 seeds
    records, instances, counts = _one_pass_inputs(draws, salt)
    tasks, ks = ["mult", _CONVERSION], [0, 2]
    assert build_report(_tally(records), instances, counts, tasks, ks, keys, num_bins) == (
        _reference_report(records, instances, counts, tasks, ks, keys, num_bins)
    )


def test_build_report_keeps_each_cell_to_its_own_groups_under_the_task_order():
    seeds = range(5)
    draws = (
        # mult k=0 and k=2: 12 x1 groups in every seed, accuracy by seed
        [
            ("mult", x1, 1 + x1 % 2, k, s, (x1 * (s + 1) + k) % 3 == 0)
            for k in (0, 2) for x1 in range(12) for s in seeds
        ]
        # groups only in mult's k=2 cell: x1=20 in seed 3 alone, x1=21 in every seed
        + [("mult", 20, 1, 2, 3, True)]
        + [("mult", 21, 3, 2, s, s % 2 == 0) for s in seeds]
        # hour_min k=0: 10 groups in every seed and one in seed 4 alone
        + [(_CONVERSION, x1, 1, 0, s, x1 % 2 == s % 2) for x1 in range(10) for s in seeds]
        + [(_CONVERSION, 30, 1, 0, 4, True)]
    )
    records, instances, counts = _one_pass_inputs(draws, salt=2)
    tasks, ks = ["mult", _CONVERSION], [0, 2, 4]  # k=4 has no records
    reports = build_report(_tally(records), instances, counts, tasks, ks)
    assert reports == _reference_report(records, instances, counts, tasks, ks, None, 10)
    mult0, mult2, mult4, hour_min0, hour_min2, _ = reports
    assert mult0.seeds == mult2.seeds == tuple(seeds) == hour_min0.seeds
    assert not mult4.complete and not hour_min2.complete
    for report in (mult0, mult2, hour_min0):  # every record in one bin, no empty group
        for bins in report.bins.values():
            assert sum(b.n for b in bins) == report.n_records
    assert len(mult0.per_seed_gaps["x1"]) == 5 and len(hour_min0.per_seed_gaps["x1x2"]) == 5


def test_build_report_one_pass_edge_cells():
    draws = (
        # mult k=0: three seeds with 15 groups each and seed-dependent accuracy
        [("mult", x1, 1, 0, s, x1 > 10 or (x1 + s) % 4 == 0) for x1 in range(15) for s in range(3)]
        # mult k=2: seed 0 has 12 x1 groups, seed 1 only 3
        + [("mult", x1, 1, 2, 0, x1 % 3 == 0) for x1 in range(12)]
        + [("mult", x1, 2, 2, 1, True) for x1 in range(3)]
        # hour_min k=2: 4 groups, too few for a gap or bins
        + [(_CONVERSION, x1, 1, 2, s, s == 0) for x1 in range(4) for s in (0, 1)]
        # an unrequested task and an unrequested k, with unknown instances
        + [("add", 5, 5, 2, 0, True), ("mult", 99, 1, 4, 0, True)]
    )
    records, instances, counts = _one_pass_inputs(draws, salt=1)
    tasks, ks, keys = ["mult", _CONVERSION], [0, 2], ("x1", "x1x2x3")
    reports = build_report(_tally(records), instances, counts, tasks, ks, keys)
    assert reports == _reference_report(records, instances, counts, tasks, ks, keys, 10)
    mult0, mult2, _, hour_min2 = reports
    assert len(mult0.per_seed_gaps["x1"]) == 3 and len(set(mult0.per_seed_gaps["x1"])) > 1
    assert set(mult2.gaps) == {"x1"}  # x1x2x3 does not apply to arithmetic
    assert mult2.gaps["x1"] is not None and mult2.per_seed_gaps["x1"] is None
    assert hour_min2.gaps == {"x1": None, "x1x2x3": None}
    assert hour_min2.bins == {"x1": [], "x1x2x3": []}
    assert mult2.n_records == 15 and hour_min2.n_records == 8
