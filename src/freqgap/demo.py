"""Synthetic corpora with planted frequency skew.

The demo corpus lets the whole pipeline run offline: numbers below 100
appear with log-linearly skewed unigram frequencies spanning about
three decades, and each time unit co-occurs with two-digit numbers
whose pair frequencies span a heavy top tier plus a log-spaced tail.
A separate flat generator emits multi-gigabyte corpora fast enough for
throughput benchmarks.

Determinism: only Random.random() is consumed (the one generator
method with a cross-version stability guarantee), so a seed pins the
corpus bytes.
"""

from __future__ import annotations

import json
import logging
import random
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path
from typing import Sequence

from .terms import UNITS
from .util import atomic_open

log = logging.getLogger(__name__)

FILLER_WORDS = (
    "the of and to in that it was for on are as with they at be this have from "
    "or one had by word but not what all were we when your can said there use "
    "an each which she do how their if will up other about out many then them "
    "these so some her would make like him into has look two more write go see "
    "number no way could people my than first water been call who oil its now "
    "find long down did get come made may part over new sound take only little "
    "work know place years live me back give most very after things our just "
    "name good sentence man think say great where help through much before "
    "line right too means old any same tell boy follow came want show also "
    "around form three small set put end does another well large must big even "
    "such because turn here why ask went men read need land different home us "
    "move try kind hand picture again change off play spell air away animal "
    "house point page letter mother answer found study still learn should "
    "america world government development information university experience "
    "community president question business interest national important "
    "possible available research education everything understand themselves "
    "considered particular knowledge sometimes treatment increase described "
    "material military analysis practice physical evidence economic standard "
    "language century function professor original approach happened certainly "
    "structure industry difference necessary personal property building "
    "situation production activity politics remember together special "
    "several against between through during without however although system "
    "program problem company service student family general public history"
).split()

_PUNCT_PREFIX = ("", "", "", "", "", "", "", "(", '"')
_PUNCT_SUFFIX = ("", "", "", "", "", "", ",", ".", ")", "?", ":")


class _Rng:
    """Stable helpers layered over Random.random()."""

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed).random

    def uniform(self) -> float:
        return self._random()

    def below(self, n: int) -> int:
        i = int(self._random() * n)
        return n - 1 if i >= n else i

    def pick(self, seq: Sequence):
        return seq[self.below(len(seq))]

    def shuffled(self, seq: Sequence) -> list:
        items = list(seq)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


class _WeightedPool:
    """Samples values by fixed weights via cumulative-sum bisection."""

    def __init__(self, values: Sequence[int], weights: Sequence[float]) -> None:
        self.values = list(values)
        self._cum = list(accumulate(weights))
        self._total = self._cum[-1]

    def sample(self, rng: _Rng) -> int:
        i = bisect_right(self._cum, rng.uniform() * self._total)
        return self.values[min(i, len(self.values) - 1)]


def _log_spaced_weights(n: int, decades: float) -> list[float]:
    if n == 1:
        return [1.0]
    return [10 ** (-decades * i / (n - 1)) for i in range(n)]


def _wrap(token: str, rng: _Rng) -> str:
    return rng.pick(_PUNCT_PREFIX) + token + rng.pick(_PUNCT_SUFFIX)


ARITH_POOL_SIZE = 70  # distinct numbers below 100 in the demo corpus
SKEW_DECADES = 3.0  # the decades their unigram frequencies span
POOL_DOCS = 2048  # distinct document lines of the throughput corpus


def generate_demo_corpus(
    out_dir: Path | str,
    size_mb: float = 10.0,
    seed: int = 0,
) -> Path:
    """Write a demo corpus as one jsonl file and return its path.

    Plants ARITH_POOL_SIZE distinct numbers below 100 with log-linear
    unigram skew, and pairs every two-digit number with every time unit
    at frequencies mixing a heavy top tier with a log-spaced tail.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "demo.jsonl"
    rng = _Rng(seed)

    small_values = rng.shuffled(range(100))[:ARITH_POOL_SIZE]
    arith = _WeightedPool(small_values, _log_spaced_weights(ARITH_POOL_SIZE, SKEW_DECADES))

    unit_pools = {}
    for unit in UNITS:
        values = rng.shuffled(range(1, 100))
        # Heavy head so the frequent pairs sit decades above the tail.
        weights = [4.0] * 11 + _log_spaced_weights(88, 2.5)
        unit_pools[unit] = _WeightedPool(values, weights)

    unit_words = {u: (u, u + "s") for u in UNITS}
    target_bytes = int(size_mb * 1_000_000)
    written = 0
    with atomic_open(path) as f:
        while written < target_bytes:
            tokens = []
            for _ in range(60 + rng.below(120)):
                r = rng.uniform()
                if r < 0.050:
                    tokens.append(_wrap(str(arith.sample(rng)), rng))
                    if rng.uniform() < 0.15:
                        tokens.append(str(arith.sample(rng)))
                elif r < 0.155:
                    unit = UNITS[rng.below(len(UNITS))]
                    singular, plural = unit_words[unit]
                    tokens.append(str(unit_pools[unit].sample(rng)))
                    word = plural if rng.uniform() < 0.7 else singular
                    if rng.uniform() < 0.12:
                        word = word.capitalize()
                    tokens.append(_wrap(word, rng))
                elif r < 0.160:
                    tokens.append(str(100 + rng.below(999_900)))
                else:
                    tokens.append(FILLER_WORDS[rng.below(len(FILLER_WORDS))])
            line = json.dumps({"text": " ".join(tokens)}) + "\n"
            f.write(line)
            written += len(line)
    log.info("demo corpus: %.1f MB at %s", written / 1e6, path)
    return path


def generate_throughput_corpus(
    out_path: Path | str,
    size_bytes: int = 1_000_000_000,
    seed: int = 0,
) -> Path:
    """Write a large flat jsonl corpus quickly by sampling from a pool of
    pre-serialized document lines."""
    out_path = Path(out_path)
    rng = _Rng(seed)
    numbers = [str(rng.below(100_000)) for _ in range(500)]
    unit_words = [u + "s" for u in UNITS] + list(UNITS)

    pool: list[bytes] = []
    for _ in range(POOL_DOCS):
        tokens = []
        for _ in range(300 + rng.below(300)):
            r = rng.uniform()
            if r < 0.03:
                tokens.append(rng.pick(numbers))
            elif r < 0.045:
                tokens.append(rng.pick(numbers))
                tokens.append(rng.pick(unit_words))
            else:
                tokens.append(FILLER_WORDS[rng.below(len(FILLER_WORDS))])
        pool.append((json.dumps({"text": " ".join(tokens)}) + "\n").encode("ascii"))

    written = 0
    with atomic_open(out_path, "wb") as f:
        batch: list[bytes] = []
        batch_bytes = 0
        while written < size_bytes:
            line = pool[rng.below(POOL_DOCS)]
            batch.append(line)
            batch_bytes += len(line)
            written += len(line)
            if batch_bytes >= (16 << 20):
                f.write(b"".join(batch))
                batch = []
                batch_bytes = 0
        f.write(b"".join(batch))
    log.info("throughput corpus: %.2f GB at %s", written / 1e9, out_path)
    return out_path
