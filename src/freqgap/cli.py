"""Command-line interface: freqgap <subcommand>.

Each stage subcommand checks its arguments and then runs the same stage
body as `freqgap run` (see freqgap.pipeline).

Exit codes: 0 success, 1 usage or config error, 2 stage failure, 143
when `count` or `run` is ended by SIGTERM.
"""

from __future__ import annotations

import argparse
import logging
import math
import signal
import sys
from pathlib import Path

from . import __version__
from .analysis import compare_runs
from .client import EndpointConfig, MockPolicy, load_tally
from .corpus import CORPUS_FORMATS, count_corpus, merge_table_files
from .counting import CounterConfig, CountTable
from .demo import generate_demo_corpus
from .pipeline import (
    CONFIG_FIELDS,
    ConfigError,
    RunConfig,
    run_analyze,
    run_eval,
    run_gen,
    run_pipeline,
    run_prompts,
    run_targets,
    scorer_digest,
    validate_config,
)
from .tasks import ALL_TASKS, GROUPING_KEYS, load_bundles, load_dataset, load_targets
from .util import sha256_file

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Terminated(BaseException):
    """Raised by SIGTERM during `count` and `run`, so that they unwind as on
    Ctrl-C: count workers are ended and spill files removed."""


def _raise_terminated(signum, frame):
    raise _Terminated


def _check_flag(flag: str, key: str, value) -> None:
    """A usage error naming `flag` if the config file's `key` field would reject `value`."""
    problem = next(row for row in CONFIG_FIELDS if row.key == key).problem(value)
    if problem is not None:
        raise UsageError(f"{flag}: {problem}")


def _jsonl_files(directory: Path, what: str) -> list[Path]:
    paths = sorted(directory.glob("*.jsonl"))
    if not paths:
        raise UsageError(f"no {what} files under {directory}")
    return paths


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
    p.add_argument("--format", choices=CORPUS_FORMATS, default="jsonl")
    p.add_argument("--window", type=int, default=CounterConfig.window)
    p.add_argument("--max-digits", type=int, default=CounterConfig.max_number_digits)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--targets", type=Path, help="term-set file for a targeted pass")
    p.add_argument("--shards", type=int, default=RunConfig.shards)
    p.add_argument("--workers", type=int, default=None, help="count processes (default: every CPU)")

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
    p.add_argument("--seeds", type=int, default=RunConfig.seeds)
    p.add_argument("--base-seed", type=int, default=RunConfig.seed)
    p.add_argument("--out", required=True, type=Path, help="output directory")

    p = sub.add_parser("eval", help="score prompt bundles against an endpoint or mock")
    p.add_argument("--bundles", required=True, type=Path, help="bundle file or directory")
    p.add_argument("--endpoint", help="completion endpoint base URL")
    p.add_argument("--model", help="model name sent to the endpoint")
    p.add_argument("--mock", help="perfect | always_wrong | freq_logistic:A,B[,SEED]")
    p.add_argument("--counts", type=Path, help="count table for the freq_logistic mock")
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--max-in-flight", type=int, default=EndpointConfig.max_in_flight)
    p.add_argument("--max-new-tokens", type=int, default=EndpointConfig.max_new_tokens)
    p.add_argument("--max-attempts", type=int, default=EndpointConfig.max_attempts)
    p.add_argument("--timeout", type=float, default=EndpointConfig.timeout)
    p.add_argument("--no-resume", action="store_true")

    p = sub.add_parser("analyze", help="compute accuracy, gaps, bins, and trends")
    p.add_argument("--records", required=True, type=Path)
    p.add_argument("--datasets", required=True, type=Path)
    p.add_argument("--counts", required=True, type=Path)
    p.add_argument("--keys", help=f"comma list from {','.join(GROUPING_KEYS)} (default: per family)")
    p.add_argument("--bins", type=int, default=RunConfig.bins)
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
    _check_flag("--shards", "shards", args.shards)
    if args.workers is not None and args.workers < 1:  # left out, it means every CPU
        raise UsageError("--workers: must be >= 1")
    try:
        config = CounterConfig(window=args.window, max_number_digits=args.max_digits)
        if args.targets is not None:
            config = config.with_targets(load_targets(args.targets))
    except ValueError as exc:  # a window, digit limit or target the counter rejects
        raise UsageError(str(exc)) from exc
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
    run_gen(CountTable.load(args.counts), [args.task], args.out)
    return 0


def _cmd_targets(args) -> int:
    run_targets([load_dataset(p) for p in _jsonl_files(args.datasets, "dataset")], args.out)
    return 0


def _cmd_prompts(args) -> int:
    _check_flag("--k", "ks", [args.k])
    _check_flag("--seeds", "seeds", args.seeds)
    run_prompts([load_dataset(args.dataset)], [args.k], args.seeds, args.base_seed, args.out)
    return 0


def _cmd_eval(args) -> int:
    if (args.endpoint is None) == (args.mock is None):
        raise UsageError("give exactly one of --endpoint or --mock")
    paths = _jsonl_files(args.bundles, "bundle") if args.bundles.is_dir() else [args.bundles]
    mock = endpoint = None
    if args.mock is None and not args.model:
        raise UsageError("--endpoint needs --model")
    try:  # a mock spec or endpoint value the scorer classes reject
        if args.mock is not None:
            mock = MockPolicy.parse(args.mock)
        elif not 0 < args.timeout < math.inf:  # EndpointConfig's check, named by its flag
            raise UsageError("--timeout: must be a finite number > 0")
        else:
            endpoint = EndpointConfig(
                base_url=args.endpoint,
                model_name=args.model,
                max_new_tokens=args.max_new_tokens,
                max_in_flight=args.max_in_flight,
                max_attempts=args.max_attempts,
                timeout=args.timeout,
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    reads_counts = mock is not None and mock.reads_counts
    if reads_counts and args.counts is None:
        raise UsageError("freq_logistic mock needs --counts")
    inputs = {}
    if endpoint is not None:  # the journal's fingerprint; a mock keeps no journal
        inputs = {path.name: sha256_file(path) for path in paths}
        inputs["scorer"] = scorer_digest(mock, endpoint)
    records_path = args.out / "records.jsonl"
    bundles = [b for path in paths for b in load_bundles(path)]
    counts = CountTable.load(args.counts) if reads_counts else None  # others ignore counts
    run_eval(bundles, records_path, inputs, mock, endpoint, counts, resume=not args.no_resume)
    log.info("%d records -> %s", len(bundles), records_path)  # one per bundle
    return 0


def _cmd_analyze(args) -> int:
    _check_flag("--bins", "bins", args.bins)
    keys = args.keys.split(",") if args.keys else None
    if keys is not None:
        bad = [key for key in keys if key not in GROUPING_KEYS]
        if bad:
            raise UsageError(f"unknown grouping keys: {bad}")
        if len(set(keys)) < len(keys):
            raise UsageError("--keys: must not repeat an entry")
    try:
        ks = [int(k) for k in args.ks.split(",")] if args.ks else None
    except ValueError as exc:
        raise UsageError(f"--ks: {exc}") from exc
    if ks is not None:
        _check_flag("--ks", "ks", ks)
    tally = load_tally(args.records)
    if not tally:
        raise UsageError(f"no records under {args.records}")
    datasets = [load_dataset(p) for p in _jsonl_files(args.datasets, "dataset")]
    counts = CountTable.load(args.counts)
    run_analyze(tally, datasets, counts, args.out, args.label, ks=ks, keys=keys, bins=args.bins)
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
    handler = None
    if args.command in ("count", "run"):
        handler = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"freqgap: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # stage failure: report, don't traceback
        print(f"freqgap: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    except _Terminated:
        print("freqgap: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        if handler is not None:
            signal.signal(signal.SIGTERM, handler)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
