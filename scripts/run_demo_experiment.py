#!/usr/bin/env python3
"""End-to-end offline experiment: does the gap metric recover a planted effect?

Generates the demo corpus (log-linear frequency skew), runs the full
pipeline against the freq_logistic mock (correct with probability
sigmoid(a*log10(freq+1)+b) per group), then compares the measured
performance gap per task against the closed form implied by the mock.
The run's stage seconds are timed by scripts/bench.py (its paper-run).
"""

import argparse
import json
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from freqgap.analysis import AccuracyPoint, aggregate, performance_gap, trend_fit
from freqgap.client import MockPolicy, load_records, logistic_accuracy
from freqgap.counting import CountTable
from freqgap.demo import generate_demo_corpus
from freqgap.pipeline import RunConfig, run_pipeline
from freqgap.tasks import ALL_TASKS, default_keys, load_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("demo-experiment"))
    parser.add_argument("--size-mb", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mock-a", type=float, default=1.0)
    parser.add_argument("--mock-b", type=float, default=-3.0)
    parser.add_argument("--mock-seed", type=int, default=6)
    args = parser.parse_args()

    corpus = generate_demo_corpus(args.workdir / "corpus", size_mb=args.size_mb, seed=args.seed)
    config = RunConfig(
        corpus_path=corpus,
        corpus_format="jsonl",
        out=args.workdir / "run",
        mock=MockPolicy("freq_logistic", a=args.mock_a, b=args.mock_b, seed=args.mock_seed),
    )
    run_pipeline(config)

    out = config.out
    counts = CountTable.load(out / "counts" / "pass2" / "counts.tsv")
    records = load_records(out / "records" / "records.jsonl")
    by_task = defaultdict(list)
    for record in records:
        by_task[record.task_id].append(record)

    print(f"\n{'task':<12} {'measured':>9} {'closed-form':>12} {'deviation':>10} {'slope':>8}")
    for task_id in ALL_TASKS:
        instances = {
            i.instance_id: i for i in load_dataset(out / "datasets" / f"{task_id}.jsonl")
        }
        points = aggregate(by_task[task_id], instances, counts, default_keys(task_id)[0])
        measured = performance_gap(points)
        expected = performance_gap(
            [
                AccuracyPoint(p.key, p.freq, 1, Fraction(logistic_accuracy(config.mock, p.freq)))
                for p in points
            ]
        )
        slope, _ = trend_fit(points)
        print(
            f"{task_id:<12} {measured:>9.3f} {expected:>12.3f} "
            f"{measured - expected:>+10.3f} {slope:>8.3f}"
        )

    report = json.loads((out / "report" / "report.json").read_text())
    print(f"\nper-(task, k) report: {out / 'report' / 'report.csv'}")
    print(f"rows: {len(report['rows'])}, incomplete: {report['incomplete']}")


if __name__ == "__main__":
    main()
