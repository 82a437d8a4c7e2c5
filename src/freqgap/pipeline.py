"""End-to-end run orchestration: count, generate, target, select the
targeted counts, prompt, evaluate, analyze, with a manifest that makes
completed stages resumable.  The stage bodies (run_gen ... run_analyze)
are shared with the CLI.  The corpus is read once: the targeted table
(stage count_pass2) is selected from the pass-1 table.

A stage hands its result (a count table, the datasets, the bundles,
the tally of the records) to the stages after it in memory; a consumer
reads its producer's files only when the producer was skipped as up to
date.  Eval scores and writes one prompt file's records at a time, so
a run never holds all of its records.

Every stage writes its artifacts atomically and records their content
digests plus the digests of its inputs; a stage is skipped on re-run
only when both sides still match.  The corpus itself is fingerprinted
by relative file paths, sizes and modification times (not content),
which is cheap and catches any rewrite that updates the mtime.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import time
from dataclasses import MISSING, asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import __version__
from .analysis import build_report, write_report
from .client import EndpointConfig, EvalRecord, EvalState, MockPolicy, RecordTally, evaluate
from .client import load_tally, save_records
from .corpus import CORPUS_FORMATS, corpus_units, count_corpus
from .counting import CounterConfig, CountTable
from .tasks import (
    ALL_TASKS,
    DatasetError,
    PromptBundle,
    TaskInstance,
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
    out: Path
    corpus_format: str = "jsonl"
    window: int = CounterConfig.window
    max_number_digits: int = CounterConfig.max_number_digits
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
        """The config-file form: parse_config(config.to_dict())[0] == config."""
        data = _object_dict(self, "")
        data["corpus"] = _object_dict(self, "corpus")
        if self.mock is not None:
            data["mock"] = _object_dict(self.mock, "mock")
        if self.endpoint is not None:
            data["endpoint"] = _object_dict(self.endpoint, "endpoint")
        return data


# ---------------------------------------------------------------------------
# The config file: one row per field, with its JSON type and its check


def _at_least(low: int) -> Callable[[Any], str | None]:
    return lambda value: None if value >= low else f"must be >= {low}"


def _one_of(choices: Sequence[str]) -> Callable[[Any], str | None]:
    return lambda value: None if value in choices else f"must be one of {'/'.join(choices)}"


def _distinct(ok: Callable[[Any], bool], problem: str) -> Callable[[list], str | None]:
    """Check of a non-empty list without repeats whose items all pass ok."""

    def check(items: list) -> str | None:
        bad = [x for x in items if not ok(x)]
        if bad or not items:
            return problem.format(bad) if bad else "must not be empty"
        return "must not repeat an entry" if len(set(items)) < len(items) else None

    return check


# The JSON types a field of each type accepts; JSON true is not an int.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), Path: (str,), tuple: (list,)}


class _Field(NamedTuple):
    """A config-file field; a dotted key sits in a nested object.  Left
    out, it takes the default of the attribute it sets; an attribute
    without one makes it required."""

    key: str
    kind: type
    check: Callable[[Any], str | None] | None = None

    @property
    def section(self) -> str:
        return self.key.rpartition(".")[0]

    @property
    def attr(self) -> str:
        """corpus.path sets RunConfig.corpus_path; mock.a sets MockPolicy.a."""
        name = self.key.rpartition(".")[2]
        return "corpus_" + name if self.section == "corpus" else name

    def problem(self, value: Any) -> str | None:
        types = _JSON_TYPES[self.kind]
        if type(value) not in types:
            return "expected " + "/".join(t.__name__ for t in types)
        return None if self.check is None else self.check(value)


CONFIG_FIELDS = (
    _Field("corpus.path", Path),
    _Field("corpus.format", str, _one_of(CORPUS_FORMATS)),
    _Field("out", Path),
    _Field("window", int, _at_least(2)),
    _Field("max_number_digits", int, lambda n: None if 1 <= n <= 12 else "must be in 1..12"),
    _Field("tasks", tuple, _distinct(lambda t: t in ALL_TASKS, "unknown task ids {}")),
    _Field("ks", tuple, _distinct(lambda k: type(k) is int and k >= 0, "invalid shot counts {}")),
    _Field("seeds", int, _at_least(1)),
    _Field("seed", int),
    _Field("bins", int, _at_least(2)),
    _Field("shards", int, _at_least(1)),
    _Field("mock.kind", str),
    _Field("mock.a", float),
    _Field("mock.b", float),
    _Field("mock.seed", int),
    _Field("endpoint.base_url", str),
    _Field("endpoint.model_name", str),
    _Field("endpoint.max_new_tokens", int),
    _Field("endpoint.max_in_flight", int),
    _Field("endpoint.max_attempts", int),
    _Field("endpoint.timeout", float),
    _Field("endpoint.completions_path", str),
)
_SECTION_TYPES = {
    "": RunConfig, "corpus": RunConfig, "mock": MockPolicy, "endpoint": EndpointConfig
}


def _object_dict(obj: Any, section: str) -> dict:
    """The config-file object of one section, read from obj's attributes."""
    data = {}
    for row in CONFIG_FIELDS:
        if row.section == section:
            value = getattr(obj, row.attr)
            data[row.key.rpartition(".")[2]] = (
                str(value) if row.kind is Path else list(value) if row.kind is tuple else value
            )
    return data


def scorer_digest(mock: MockPolicy | None, endpoint: EndpointConfig | None) -> str:
    """Fingerprint of the scorer's settings, for the eval journal rule."""
    fields = _object_dict(mock, "mock") if mock is not None else _object_dict(endpoint, "endpoint")
    return sha256_text(canonical_json(fields))


def parse_config(data: dict) -> tuple[RunConfig, list[str]]:
    """Validated RunConfig plus warnings; raises ConfigError with one
    diagnostic per problem."""
    diags: list[str] = []
    given: dict[str, Any] = {}  # dotted key -> JSON value
    for name, value in data.items():
        if name in ("corpus", "mock", "endpoint"):
            if isinstance(value, dict):
                given.update((f"{name}.{k}", v) for k, v in value.items())
            else:
                diags.append(f"{name}: expected object")
        else:
            given[name] = value
    if ("mock" in data) == ("endpoint" in data):
        diags.append("exactly one of mock or endpoint is required")

    rows = {row.key: row for row in CONFIG_FIELDS}
    diags.extend(f"{key}: unknown field" for key in given if key not in rows)
    values: dict[str, dict[str, Any]] = {section: {} for section in _SECTION_TYPES}
    for row in CONFIG_FIELDS:
        if row.key in given:
            problem = row.problem(given[row.key])
            if problem is None:
                values[row.section][row.attr] = row.kind(given[row.key])
            else:
                diags.append(f"{row.key}: {problem}")
        elif row.section in ("", "corpus") or isinstance(data.get(row.section), dict):
            if _SECTION_TYPES[row.section].__dataclass_fields__[row.attr].default is MISSING:
                diags.append(f"{row.key}: required")
    if diags:
        raise ConfigError(diags)

    section = "mock" if "mock" in data else "endpoint"
    try:  # MockPolicy and EndpointConfig check their own values
        scorer = _SECTION_TYPES[section](**values[section])
    except ValueError as exc:
        raise ConfigError([f"{section}: {exc}"]) from exc
    config = RunConfig(**values[""], **values["corpus"], **{section: scorer})
    warnings = []
    if not set(config.ks) <= set(STANDARD_KS):
        warnings.append(
            f"ks: {sorted(set(config.ks) - set(STANDARD_KS))} departs from the "
            f"standard shot counts {list(STANDARD_KS)}"
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
    """Each corpus file's path relative to the corpus root, size and mtime."""
    root = config.corpus_path if config.corpus_path.is_dir() else config.corpus_path.parent
    listing = []
    for unit in corpus_units(config.corpus_path, config.corpus_format):
        path = Path(unit.path)
        st = path.stat()
        listing.append([path.relative_to(root).as_posix(), st.st_size, st.st_mtime_ns])
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
        run: Callable[[], Any],
        load: Callable[[], Any] = lambda: None,
    ) -> Callable[[], Any]:
        """run() and record its artifacts, unless the stage is up to date
        and skipped.  What the stage hands the stages after it: run()'s
        result, or, when the stage was skipped or run() returned None,
        load()'s, read at most once."""
        recorded = self.manifest.stages.get(name)
        rels = [str(p.relative_to(self.out)) for p in artifacts]
        if recorded is not None and recorded.get("inputs") == inputs:
            existing = recorded.get("artifacts", {})
            if set(existing) == set(rels) and all(
                (self.out / rel).exists() and sha256_file(self.out / rel) == digest
                for rel, digest in existing.items()
            ):
                log.info("stage %s: up to date, skipping", name)
                return functools.cache(load)
        log.info("stage %s: running", name)
        started = time.time()
        result = run()
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
        return functools.cache(load) if result is None else lambda: result

    def artifact_digests(self, name: str) -> dict[str, str]:
        return dict(self.manifest.stages[name]["artifacts"])


# ---------------------------------------------------------------------------
# Stage bodies, shared by run_pipeline and the stage-by-stage CLI


def _dataset_file(directory: Path, task_id: str) -> Path:
    return directory / f"{task_id}.jsonl"


def _prompt_file(directory: Path, task_id: str, k: int, seed: int) -> Path:
    return directory / f"{task_id}_k{k}_seed{seed}.jsonl"


Datasets = Sequence[Sequence[TaskInstance]]


def run_gen(table: CountTable, tasks: Iterable[str], out_dir: Path) -> Datasets:
    """Build each task's dataset from a count table into out_dir, and
    return them."""
    datasets = []
    for task_id in tasks:
        instances = build_task(table, task_id)
        save_dataset(instances, _dataset_file(out_dir, task_id))
        log.info("%s: %d instances", task_id, len(instances))
        datasets.append(instances)
    return datasets


def run_targets(datasets: Datasets, out: Path) -> list[tuple[int, ...]]:
    """Write and return the term sets the targeted count pass needs."""
    targets = derive_query_sets(datasets)
    save_targets(targets, out)
    return targets


def run_prompts(
    datasets: Datasets, ks: Sequence[int], seeds: int, base_seed: int, out_dir: Path
) -> list[PromptBundle]:
    """Write and return the k-shot bundles of every dataset, k and prompt
    seed s < seeds; draws are seeded per (task, k, s), decorrelating tasks
    and shot counts."""
    written = []
    for dataset in datasets:
        if not dataset:
            raise DatasetError("a dataset without instances has no prompts")
        task_id = dataset[0].task_id
        fragments: dict = {}  # shared by the dataset's files: each instance is encoded once
        for k in ks:
            for s in range(seeds):
                bundles = build_fewshot_prompts(
                    dataset, k, seed=s, shot_seed=derive_seed(base_seed, task_id, k, s)
                )
                save_bundles(bundles, _prompt_file(out_dir, task_id, k, s), fragments)
                written.extend(bundles)
    return written


def run_eval(
    bundles: Sequence[PromptBundle],
    records_path: Path,
    inputs: dict[str, str],
    mock: MockPolicy | None = None,
    endpoint: EndpointConfig | None = None,
    counts: CountTable | None = None,
    resume: bool = True,
) -> RecordTally:
    """Score the bundles into records_path and return their tally;
    counts are the freq_logistic mock's table.

    Bundles are scored one prompt file, one (task_id, k, seed), at a time
    in that key's order, and each file's records are written before the
    next file is scored.  One EvalState serves the whole eval: it reads
    the journal once, and each test instance is prepared once per task,
    not once per file.  An endpoint eval journals beside records_path
    until records_path is written.  `inputs` fingerprints what the
    records depend on (prompt files, count table, scorer) in
    journal.inputs.json: under the same inputs an eval resumes from the
    journal, or else from records_path; under other inputs both are
    discarded.  A mock is deterministic and scoring it again is cheaper
    than writing every record twice, so it keeps no journal, and it
    removes the fingerprint of the records it replaces.
    """
    journal = records_path.with_name("journal.jsonl")
    fingerprint = records_path.with_name("journal.inputs.json")
    current = canonical_json(inputs) if endpoint is not None else None
    if fingerprint.exists() and fingerprint.read_text() == current:
        if not journal.exists() and records_path.exists():
            os.replace(records_path, journal)
    else:
        fingerprint.unlink(missing_ok=True)
        journal.unlink(missing_ok=True)
        if endpoint is not None:
            records_path.unlink(missing_ok=True)
            with atomic_open(fingerprint) as f:
                f.write(current)
    if not resume:
        journal.unlink(missing_ok=True)
    state = EvalState(mock, counts, journal)
    files: dict[tuple[str, int, int], list[PromptBundle]] = {}
    for bundle in bundles:
        files.setdefault((bundle.test_instance.task_id, bundle.k, bundle.seed), []).append(bundle)
    tally = RecordTally()

    def scored() -> Iterator[EvalRecord]:  # binds no record, so a file's records die with it
        for key in sorted(files):
            yield from tally.add(evaluate(
                files.pop(key), endpoint=endpoint, mock=mock, counts=counts, resume=True,
                journal=journal if endpoint is not None else None, state=state,
            ))

    save_records(scored(), records_path)
    journal.unlink(missing_ok=True)
    return tally


def run_analyze(
    tally: RecordTally,
    datasets: Datasets,
    counts: CountTable,
    out_dir: Path,
    label: str,
    tasks: Sequence[str] | None = None,
    ks: Sequence[int] | None = None,
    keys: Sequence[str] | None = None,
    bins: int = 10,
) -> None:
    """Write the gap report of a tally joined with its dataset instances.

    tasks default to those present in the datasets (in ALL_TASKS order),
    ks to those present in the tally.
    """
    instances = {inst.instance_id: inst for dataset in datasets for inst in dataset}
    if tasks is None:
        present = {inst.task_id for inst in instances.values()}
        tasks = [t for t in ALL_TASKS if t in present]
    if ks is None:
        ks = sorted({k for _task, k, _seed in tally})
    reports = build_report(tally, instances, counts, tasks, ks, keys, bins)
    write_report(reports, out_dir, label=label)


def run_pipeline(config: RunConfig, force: bool = False) -> RunManifest:
    """Execute count -> gen -> targets -> select -> prompts -> eval -> analyze.

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

    def count_pass1() -> None:  # gen or count_pass2, whichever runs first, loads the table
        count_corpus(config.corpus_path, config.corpus_format, counter, pass1, shards=config.shards)

    table1 = runner.stage(
        "count_pass1",
        {**base_inputs, "counter": counter.digest()},
        [pass1, pass1.with_suffix(".meta.json")],
        count_pass1,
        load=lambda: CountTable.load(pass1),
    )

    datasets_dir = out / "datasets"
    dataset_paths = [_dataset_file(datasets_dir, t) for t in config.tasks]
    datasets = runner.stage(
        "gen", {**base_inputs, **runner.artifact_digests("count_pass1")}, dataset_paths,
        lambda: run_gen(table1(), config.tasks, datasets_dir),
        load=lambda: [load_dataset(p) for p in dataset_paths],
    )

    targets_path = out / "targets.txt"
    targets = runner.stage(
        "targets",
        runner.artifact_digests("gen"),
        [targets_path],
        lambda: run_targets(datasets(), targets_path),
        load=lambda: load_targets(targets_path),
    )

    pass2 = out / "counts" / "pass2" / "counts.tsv"
    table2 = runner.stage(  # for eval and analyze
        "count_pass2",
        {**runner.artifact_digests("count_pass1"), **runner.artifact_digests("targets")},
        [pass2, pass2.with_suffix(".meta.json")],
        lambda: table1().select(counter.with_targets(targets())).save(pass2),
        load=lambda: CountTable.load(pass2),
    )
    table1 = targets = None  # count_pass2 was their last reader

    prompts_dir = out / "prompts"
    prompt_paths = [
        _prompt_file(prompts_dir, t, k, s)
        for t in config.tasks
        for k in config.ks
        for s in range(config.seeds)
    ]
    bundles = runner.stage(
        "prompts",
        {**runner.artifact_digests("gen"), "seed": str(config.seed)},
        prompt_paths,
        lambda: run_prompts(datasets(), config.ks, config.seeds, config.seed, prompts_dir),
        load=lambda: [b for p in prompt_paths for b in load_bundles(p)],
    )

    records_path = out / "records" / "records.jsonl"
    eval_inputs = {
        **runner.artifact_digests("prompts"),
        **runner.artifact_digests("count_pass2"),
        "scorer": scorer_digest(config.mock, config.endpoint),
    }
    tally = runner.stage(
        "eval",
        eval_inputs,
        [records_path],
        lambda: run_eval(
            bundles(), records_path, eval_inputs, config.mock, config.endpoint,
            table2() if config.mock is not None and config.mock.reads_counts else None,
        ),
        load=lambda: load_tally(records_path),
    )
    bundles = None  # analyze's peak memory does not hold them

    report_dir = out / "report"
    runner.stage(
        "analyze",
        {**runner.artifact_digests("eval"), **runner.artifact_digests("count_pass2")},
        [report_dir / "report.csv", report_dir / "report.json"],
        lambda: run_analyze(
            tally(), datasets(), table2(), report_dir, config.label(), config.tasks,
            config.ks, bins=config.bins,
        ),
    )

    return runner.manifest
