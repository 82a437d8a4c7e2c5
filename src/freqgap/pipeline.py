"""End-to-end run orchestration: count, generate, target, recount, prompt,
evaluate, analyze, with a manifest that makes completed stages resumable.
The stage bodies (run_gen ... run_analyze) are shared with the CLI.

Every stage writes its artifacts atomically and records their content
digests plus the digests of its inputs; a stage is skipped on re-run
only when both sides still match.  The corpus itself is fingerprinted
by file paths and sizes (not content), which is cheap and adequate for
an append-only corpus directory.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from . import __version__
from .analysis import build_report, write_report
from .client import EndpointConfig, EvalRecord, MockPolicy, evaluate, load_records, save_records
from .corpus import CORPUS_FORMATS, corpus_units, count_corpus
from .counting import CounterConfig, CountTable
from .tasks import (
    ALL_TASKS,
    build_fewshot_prompts,
    build_task,
    derive_query_sets,
    load_bundles,
    load_dataset,
    load_targets,
    save_bundles,
    save_dataset,
    save_targets,
)
from .util import atomic_open, canonical_json, derive_seed, sha256_file, sha256_text

log = logging.getLogger(__name__)

STANDARD_KS = (0, 2, 4, 8, 16)


class ConfigError(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("invalid config:\n" + "\n".join(f"  {d}" for d in diagnostics))
        self.diagnostics = diagnostics


class PipelineError(RuntimeError):
    pass


@dataclass
class RunConfig:
    corpus_path: Path
    corpus_format: str
    out: Path
    window: int = 5
    max_number_digits: int = 6
    tasks: tuple[str, ...] = ALL_TASKS
    ks: tuple[int, ...] = STANDARD_KS
    seeds: int = 5
    seed: int = 0
    bins: int = 10
    shards: int = 1
    mock: MockPolicy | None = None
    endpoint: EndpointConfig | None = None

    def counter_config(self) -> CounterConfig:
        return CounterConfig(window=self.window, max_number_digits=self.max_number_digits)

    def label(self) -> str:
        if self.endpoint is not None:
            return self.endpoint.model_name
        return f"mock:{self.mock.kind}"

    def digest(self) -> str:
        return sha256_text(canonical_json(self.to_dict()))

    def to_dict(self) -> dict:
        data: dict[str, Any] = {
            "corpus": {"path": str(self.corpus_path), "format": self.corpus_format},
            "out": str(self.out),
            "window": self.window,
            "max_number_digits": self.max_number_digits,
            "tasks": list(self.tasks),
            "ks": list(self.ks),
            "seeds": self.seeds,
            "seed": self.seed,
            "bins": self.bins,
            "shards": self.shards,
        }
        if self.mock is not None:
            data["mock"] = _mock_fields(self.mock)
        if self.endpoint is not None:
            data["endpoint"] = _endpoint_fields(self.endpoint)
        return data


def _mock_fields(mock: MockPolicy) -> dict:
    return {"kind": mock.kind, "a": mock.a, "b": mock.b, "seed": mock.seed}


def _endpoint_fields(ep: EndpointConfig) -> dict:
    return {
        "base_url": ep.base_url,
        "model_name": ep.model_name,
        "max_new_tokens": ep.max_new_tokens,
        "max_in_flight": ep.max_in_flight,
        "max_attempts": ep.max_attempts,
        "timeout": ep.timeout,
    }


def scorer_digest(mock: MockPolicy | None, endpoint: EndpointConfig | None) -> str:
    """Fingerprint of the scorer's settings, for the eval journal rule."""
    fields = _mock_fields(mock) if mock is not None else _endpoint_fields(endpoint)
    return sha256_text(canonical_json(fields))


def _check_fields(
    obj: dict, allowed: dict[str, type | tuple[type, ...]], prefix: str, diags: list[str]
) -> None:
    for name in obj:
        if name not in allowed:
            diags.append(f"{prefix}{name}: unknown field")
    for name, types in allowed.items():
        if name in obj and not isinstance(obj[name], types):
            type_names = types.__name__ if isinstance(types, type) else "/".join(
                t.__name__ for t in types
            )
            diags.append(f"{prefix}{name}: expected {type_names}")


def parse_config(data: dict) -> tuple[RunConfig, list[str]]:
    """Validated RunConfig plus warnings; raises ConfigError with one
    diagnostic per problem."""
    diags: list[str] = []
    warnings: list[str] = []
    _check_fields(
        data,
        {
            "corpus": dict,
            "out": str,
            "window": int,
            "max_number_digits": int,
            "tasks": list,
            "ks": list,
            "seeds": int,
            "seed": int,
            "bins": int,
            "shards": int,
            "mock": dict,
            "endpoint": dict,
        },
        "",
        diags,
    )

    corpus = data.get("corpus")
    if not isinstance(corpus, dict):
        diags.append("corpus: required object with path and format")
        corpus = {}
    _check_fields(corpus, {"path": str, "format": str}, "corpus.", diags)
    if "path" not in corpus:
        diags.append("corpus.path: required")
    fmt = corpus.get("format", "jsonl")
    if fmt not in CORPUS_FORMATS:
        diags.append(f"corpus.format: must be one of {'/'.join(CORPUS_FORMATS)}")
    if not isinstance(data.get("out"), str):
        diags.append("out: required string")

    window = data.get("window", 5)
    if isinstance(window, int) and window < 2:
        diags.append("window: must be >= 2")
    digits = data.get("max_number_digits", 6)
    if isinstance(digits, int) and not 1 <= digits <= 12:
        diags.append("max_number_digits: must be in 1..12")

    tasks = data.get("tasks", list(ALL_TASKS))
    if isinstance(tasks, list):
        unknown = [t for t in tasks if t not in ALL_TASKS]
        if unknown:
            diags.append(f"tasks: unknown task ids {unknown}")
        if not tasks:
            diags.append("tasks: must not be empty")

    ks = data.get("ks", list(STANDARD_KS))
    if isinstance(ks, list):
        if not ks or not all(isinstance(k, int) and k >= 0 for k in ks):
            diags.append("ks: must be a non-empty list of non-negative integers")
        elif not set(ks) <= set(STANDARD_KS):
            warnings.append(
                f"ks: {sorted(set(ks) - set(STANDARD_KS))} departs from the "
                f"standard shot counts {list(STANDARD_KS)}"
            )

    seeds = data.get("seeds", 5)
    if isinstance(seeds, int) and seeds < 1:
        diags.append("seeds: must be >= 1")
    bins = data.get("bins", 10)
    if isinstance(bins, int) and bins < 2:
        diags.append("bins: must be >= 2")
    shards = data.get("shards", 1)
    if isinstance(shards, int) and shards < 1:
        diags.append("shards: must be >= 1")

    mock_data = data.get("mock")
    endpoint_data = data.get("endpoint")
    if (mock_data is None) == (endpoint_data is None):
        diags.append("exactly one of mock or endpoint is required")

    mock = None
    if isinstance(mock_data, dict):
        _check_fields(
            mock_data,
            {"kind": str, "a": (int, float), "b": (int, float), "seed": int},
            "mock.",
            diags,
        )
        try:
            mock = MockPolicy(
                kind=mock_data.get("kind", ""),
                a=float(mock_data.get("a", 0.0)),
                b=float(mock_data.get("b", 0.0)),
                seed=mock_data.get("seed", 0),
            )
        except (ValueError, TypeError) as exc:
            diags.append(f"mock.kind: {exc}")

    endpoint = None
    if isinstance(endpoint_data, dict):
        _check_fields(
            endpoint_data,
            {
                "base_url": str,
                "model_name": str,
                "max_new_tokens": int,
                "max_in_flight": int,
                "max_attempts": int,
                "timeout": (int, float),
                "completions_path": str,
            },
            "endpoint.",
            diags,
        )
        for required in ("base_url", "model_name"):
            if required not in endpoint_data:
                diags.append(f"endpoint.{required}: required")
        if not diags:
            endpoint = EndpointConfig(**endpoint_data)

    if diags:
        raise ConfigError(diags)
    config = RunConfig(
        corpus_path=Path(corpus["path"]),
        corpus_format=fmt,
        out=Path(data["out"]),
        window=window,
        max_number_digits=digits,
        tasks=tuple(tasks),
        ks=tuple(ks),
        seeds=seeds,
        seed=data.get("seed", 0),
        bins=bins,
        shards=shards,
        mock=mock,
        endpoint=endpoint,
    )
    return config, warnings


def validate_config(path: Path | str) -> tuple[RunConfig, list[str]]:
    """Parse and invariant-check a config file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config must be a JSON object"])
    return parse_config(data)


@dataclass
class RunManifest:
    config_digest: str
    tool_version: str = __version__
    created_at: float = field(default_factory=time.time)
    stages: dict[str, dict] = field(default_factory=dict)


def _corpus_signature(config: RunConfig) -> str:
    units = corpus_units(config.corpus_path, config.corpus_format)
    listing = [[Path(u.path).name, Path(u.path).stat().st_size] for u in units]
    return sha256_text(canonical_json(listing))


class _Runner:
    def __init__(self, out: Path, manifest: RunManifest):
        self.out = out
        self.manifest = manifest

    def stage(
        self,
        name: str,
        inputs: dict[str, str],
        artifacts: list[Path],
        run: Callable[[], None],
    ) -> None:
        recorded = self.manifest.stages.get(name)
        rels = [str(p.relative_to(self.out)) for p in artifacts]
        if recorded is not None and recorded.get("inputs") == inputs:
            existing = recorded.get("artifacts", {})
            if set(existing) == set(rels) and all(
                (self.out / rel).exists() and sha256_file(self.out / rel) == digest
                for rel, digest in existing.items()
            ):
                log.info("stage %s: up to date, skipping", name)
                return
        log.info("stage %s: running", name)
        started = time.time()
        run()
        digests = {}
        for rel, path in zip(rels, artifacts):
            if not path.exists():
                raise PipelineError(f"stage {name} did not produce {path}")
            digests[rel] = sha256_file(path)
        self.manifest.stages[name] = {
            "inputs": inputs,
            "artifacts": digests,
            "started_at": started,
            "completed_at": time.time(),
        }
        with atomic_open(self.out / "manifest.json") as f:
            f.write(canonical_json(asdict(self.manifest)))

    def artifact_digests(self, name: str) -> dict[str, str]:
        return dict(self.manifest.stages[name]["artifacts"])


# ---------------------------------------------------------------------------
# Stage bodies, shared by run_pipeline and the stage-by-stage CLI


def _dataset_file(directory: Path, task_id: str) -> Path:
    return directory / f"{task_id}.jsonl"


def _prompt_file(directory: Path, task_id: str, k: int, seed: int) -> Path:
    return directory / f"{task_id}_k{k}_seed{seed}.jsonl"


def run_gen(counts: Path, tasks: Iterable[str], out_dir: Path) -> None:
    """Build each task's dataset from a count table into out_dir."""
    table = CountTable.load(counts)
    for task_id in tasks:
        instances = build_task(table, task_id)
        save_dataset(instances, _dataset_file(out_dir, task_id))
        log.info("%s: %d instances", task_id, len(instances))


def run_targets(dataset_paths: Iterable[Path], out: Path) -> None:
    """Write the term sets the targeted count pass needs for these datasets."""
    save_targets(derive_query_sets(load_dataset(p) for p in dataset_paths), out)


def run_prompts(
    dataset_paths: Iterable[Path], ks: Sequence[int], seeds: int, base_seed: int, out_dir: Path
) -> None:
    """Write the k-shot bundles of every dataset, k and prompt seed s < seeds;
    draws are seeded per (task, k, s), decorrelating tasks and shot counts."""
    for path in dataset_paths:
        dataset = load_dataset(path)
        task_id = dataset[0].task_id if dataset else path.stem
        for k in ks:
            for s in range(seeds):
                bundles = build_fewshot_prompts(
                    dataset, k, seed=s, shot_seed=derive_seed(base_seed, task_id, k, s)
                )
                save_bundles(bundles, _prompt_file(out_dir, task_id, k, s))


def run_eval(
    bundle_paths: Iterable[Path],
    records_path: Path,
    inputs: dict[str, str],
    mock: MockPolicy | None = None,
    endpoint: EndpointConfig | None = None,
    counts: Path | None = None,
    resume: bool = True,
) -> list[EvalRecord]:
    """Score the bundles into records_path, journaling beside it.

    `inputs` fingerprints what the records depend on (prompt files, count
    table, scorer); a journal written under other inputs is discarded.
    """
    journal = records_path.with_name("journal.jsonl")
    journal_inputs = records_path.with_name("journal.inputs.json")
    current = canonical_json(inputs)
    if journal.exists() and (
        not journal_inputs.exists() or journal_inputs.read_text() != current
    ):
        journal.unlink()
    with atomic_open(journal_inputs) as f:
        f.write(current)
    bundles = []
    for path in bundle_paths:
        bundles.extend(load_bundles(path))
    table = CountTable.load(counts) if mock is not None and counts is not None else None
    records = evaluate(
        bundles, endpoint=endpoint, mock=mock, counts=table, journal=journal, resume=resume
    )
    save_records(records, records_path)
    return records


def run_analyze(
    records: Sequence[EvalRecord],
    dataset_paths: Iterable[Path],
    counts: Path,
    out_dir: Path,
    label: str,
    tasks: Sequence[str] | None = None,
    ks: Sequence[int] | None = None,
    keys: Sequence[str] | None = None,
    bins: int = 10,
) -> None:
    """Write the gap report of records joined with their dataset instances.

    tasks default to those present in the datasets (in ALL_TASKS order),
    ks to those present in the records.
    """
    instances = {}
    for path in dataset_paths:
        for inst in load_dataset(path):
            instances[inst.instance_id] = inst
    if tasks is None:
        present = {inst.task_id for inst in instances.values()}
        tasks = [t for t in ALL_TASKS if t in present]
    if ks is None:
        ks = sorted({r.k for r in records})
    reports = build_report(records, instances, CountTable.load(counts), tasks, ks, keys, bins)
    write_report(reports, out_dir, label=label)


def run_pipeline(config: RunConfig, force: bool = False) -> RunManifest:
    """Execute count -> gen -> targets -> count -> prompts -> eval -> analyze.

    Stages whose recorded input and artifact digests still match are
    skipped; a manifest from a different config refuses to resume
    unless force is set.
    """
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    config_digest = config.digest()
    manifest_path = out / "manifest.json"
    manifest = RunManifest(config_digest=config_digest)
    if manifest_path.exists() and not force:
        previous = RunManifest(**json.loads(manifest_path.read_text()))
        if previous.config_digest != config_digest:
            raise PipelineError(
                f"{out} holds a run with a different config digest "
                f"({previous.config_digest[:12]} != {config_digest[:12]}); "
                "use a clean output directory or --force"
            )
        manifest = previous

    runner = _Runner(out, manifest)
    counter = config.counter_config()
    corpus_sig = _corpus_signature(config)
    base_inputs = {"corpus": corpus_sig, "config": config_digest}

    pass1 = out / "counts" / "pass1" / "counts.tsv"
    runner.stage(
        "count_pass1",
        base_inputs,
        [pass1, pass1.with_suffix(".meta.json")],
        lambda: count_corpus(
            config.corpus_path, config.corpus_format, counter, pass1, shards=config.shards
        ),
    )

    datasets_dir = out / "datasets"
    dataset_paths = [_dataset_file(datasets_dir, t) for t in config.tasks]
    runner.stage(
        "gen",
        {**base_inputs, **runner.artifact_digests("count_pass1")},
        dataset_paths,
        lambda: run_gen(pass1, config.tasks, datasets_dir),
    )

    targets_path = out / "targets.txt"
    runner.stage(
        "targets",
        runner.artifact_digests("gen"),
        [targets_path],
        lambda: run_targets(dataset_paths, targets_path),
    )

    pass2 = out / "counts" / "pass2" / "counts.tsv"
    runner.stage(
        "count_pass2",
        {**base_inputs, **runner.artifact_digests("targets")},
        [pass2, pass2.with_suffix(".meta.json")],
        lambda: count_corpus(
            config.corpus_path,
            config.corpus_format,
            counter.with_targets(load_targets(targets_path)),
            pass2,
            shards=config.shards,
        ),
    )

    prompts_dir = out / "prompts"
    prompt_paths = [
        _prompt_file(prompts_dir, t, k, s)
        for t in config.tasks
        for k in config.ks
        for s in range(config.seeds)
    ]
    runner.stage(
        "prompts",
        {**runner.artifact_digests("gen"), "seed": str(config.seed)},
        prompt_paths,
        lambda: run_prompts(dataset_paths, config.ks, config.seeds, config.seed, prompts_dir),
    )

    records_path = out / "records" / "records.jsonl"
    eval_inputs = {
        **runner.artifact_digests("prompts"),
        **runner.artifact_digests("count_pass2"),
        "scorer": scorer_digest(config.mock, config.endpoint),
    }
    runner.stage(
        "eval",
        eval_inputs,
        [records_path],
        lambda: run_eval(
            prompt_paths, records_path, eval_inputs, config.mock, config.endpoint, pass2
        ),
    )

    report_dir = out / "report"
    runner.stage(
        "analyze",
        {**runner.artifact_digests("eval"), **runner.artifact_digests("count_pass2")},
        [report_dir / "report.csv", report_dir / "report.json"],
        lambda: run_analyze(
            load_records(records_path),
            dataset_paths,
            pass2,
            report_dir,
            config.label(),
            config.tasks,
            config.ks,
            bins=config.bins,
        ),
    )

    return runner.manifest
