"""Command-line interface: freqgap <subcommand>.

Each stage subcommand checks its arguments and then runs the same stage
body as `freqgap run` (see freqgap.pipeline).

Exit codes: 0 success, 1 usage or config error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .analysis import GROUPING_KEYS, compare_runs
from .client import EndpointConfig, MockPolicy, load_records
from .corpus import count_corpus, merge_table_files
from .counting import CounterConfig, table_file
from .demo import generate_demo_corpus
from .pipeline import (
    ConfigError,
    run_analyze,
    run_eval,
    run_gen,
    run_pipeline,
    run_prompts,
    run_targets,
    scorer_digest,
    validate_config,
)
from .tasks import ALL_TASKS, load_targets
from .util import sha256_file

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="freqgap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"freqgap {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count term co-occurrences over a corpus")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--format", choices=("text", "jsonl"), default="jsonl")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--max-digits", type=int, default=6)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--targets", type=Path, help="term-set file for a targeted pass")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("merge", help="merge count tables")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("inputs", nargs="+", type=Path)

    p = sub.add_parser("gen", help="build a task dataset from counts")
    p.add_argument("--counts", required=True, type=Path)
    p.add_argument("--task", required=True, choices=ALL_TASKS)
    p.add_argument("--out", required=True, type=Path, help="output directory")

    p = sub.add_parser("targets", help="derive the term sets the counter must target")
    p.add_argument("--datasets", required=True, type=Path, help="dataset directory")
    p.add_argument("--out", required=True, type=Path, help="output file")

    p = sub.add_parser("prompts", help="assemble k-shot prompt bundles")
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path, help="output directory")

    p = sub.add_parser("eval", help="score prompt bundles against an endpoint or mock")
    p.add_argument("--bundles", required=True, type=Path, help="bundle file or directory")
    p.add_argument("--endpoint", help="completion endpoint base URL")
    p.add_argument("--model", help="model name sent to the endpoint")
    p.add_argument("--mock", help="perfect | always_wrong | freq_logistic:A,B[,SEED]")
    p.add_argument("--counts", type=Path, help="count table for the freq_logistic mock")
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--max-in-flight", type=int, default=4)
    p.add_argument("--max-new-tokens", type=int, default=8)
    p.add_argument("--max-attempts", type=int, default=4)
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--no-resume", action="store_true")

    p = sub.add_parser("analyze", help="compute accuracy, gaps, bins, and trends")
    p.add_argument("--records", required=True, type=Path)
    p.add_argument("--datasets", required=True, type=Path)
    p.add_argument("--counts", required=True, type=Path)
    p.add_argument("--keys", help=f"comma list from {','.join(GROUPING_KEYS)} (default: per family)")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--ks", help="comma list of shot counts (default: those present)")
    p.add_argument("--label", default="")
    p.add_argument("--out", required=True, type=Path, help="output directory")

    p = sub.add_parser("compare", help="side-by-side report of several runs")
    p.add_argument("--runs", required=True, nargs="+", type=Path)
    p.add_argument("--out", required=True, type=Path, help="output directory")

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, type=Path)
    p.add_argument("--force", action="store_true", help="ignore a stale manifest")

    p = sub.add_parser("demo-corpus", help="generate the offline demo corpus")
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--size-mb", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_count(args) -> int:
    config = CounterConfig(window=args.window, max_number_digits=args.max_digits)
    if args.targets is not None:
        config = config.with_targets(load_targets(args.targets))
    count_corpus(
        args.corpus,
        args.format,
        config,
        args.out / "counts.tsv",
        shards=args.shards,
        workers=args.workers,
    )
    return 0


def _cmd_merge(args) -> int:
    merge_table_files(args.inputs, args.out)
    return 0


def _cmd_gen(args) -> int:
    run_gen(args.counts, [args.task], args.out)
    return 0


def _cmd_targets(args) -> int:
    paths = sorted(args.datasets.glob("*.jsonl"))
    if not paths:
        raise UsageError(f"no dataset files under {args.datasets}")
    run_targets(paths, args.out)
    return 0


def _cmd_prompts(args) -> int:
    run_prompts([args.dataset], [args.k], args.seeds, args.base_seed, args.out)
    return 0


def _cmd_eval(args) -> int:
    if (args.endpoint is None) == (args.mock is None):
        raise UsageError("give exactly one of --endpoint or --mock")
    paths = sorted(args.bundles.glob("*.jsonl")) if args.bundles.is_dir() else [args.bundles]
    mock = endpoint = None
    if args.mock is not None:
        mock = MockPolicy.parse(args.mock)
        if mock.kind == "freq_logistic" and args.counts is None:
            raise UsageError("freq_logistic mock needs --counts")
    else:
        if not args.model:
            raise UsageError("--endpoint needs --model")
        endpoint = EndpointConfig(
            base_url=args.endpoint,
            model_name=args.model,
            max_new_tokens=args.max_new_tokens,
            max_in_flight=args.max_in_flight,
            max_attempts=args.max_attempts,
            timeout=args.timeout,
        )
    inputs = {path.name: sha256_file(path) for path in paths}
    if args.counts is not None:
        inputs["counts"] = sha256_file(table_file(args.counts))
    inputs["scorer"] = scorer_digest(mock, endpoint)
    records_path = args.out / "records.jsonl"
    records = run_eval(
        paths, records_path, inputs, mock, endpoint, args.counts, resume=not args.no_resume
    )
    log.info("%d records -> %s", len(records), records_path)
    return 0


def _cmd_analyze(args) -> int:
    records = load_records(args.records)
    if not records:
        raise UsageError(f"no records under {args.records}")
    keys = args.keys.split(",") if args.keys else None
    if keys is not None:
        bad = [key for key in keys if key not in GROUPING_KEYS]
        if bad:
            raise UsageError(f"unknown grouping keys: {bad}")
    ks = [int(k) for k in args.ks.split(",")] if args.ks else None
    run_analyze(
        records, sorted(args.datasets.glob("*.jsonl")), args.counts, args.out,
        args.label, ks=ks, keys=keys, bins=args.bins,
    )
    return 0


def _cmd_compare(args) -> int:
    compare_runs(args.runs, args.out)
    return 0


def _cmd_run(args) -> int:
    config, warnings = validate_config(args.config)
    for warning in warnings:
        log.warning("%s", warning)
    run_pipeline(config, force=args.force)
    return 0


def _cmd_demo_corpus(args) -> int:
    generate_demo_corpus(args.out, size_mb=args.size_mb, seed=args.seed)
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "merge": _cmd_merge,
    "gen": _cmd_gen,
    "targets": _cmd_targets,
    "prompts": _cmd_prompts,
    "eval": _cmd_eval,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "run": _cmd_run,
    "demo-corpus": _cmd_demo_corpus,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"freqgap: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"freqgap: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # stage failure: report, don't traceback
        print(f"freqgap: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
