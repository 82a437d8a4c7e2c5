"""Shared test helpers: the brute-force counting oracle and corpus builders.

The oracle enumerates position pairs and triples directly from the
reference tokenizer and term extractor, so it shares no windowing or
aggregation code with the production counter.
"""

from __future__ import annotations

import random

from freqgap.counting import NN_PAIR_MAX, CounterConfig, extract_term
from freqgap.terms import CONVERSION_TASKS, UNIT_BASE, unit_term

# {x1, unit, factor} and {x1, unit, x1 * factor}, 1 <= x1 <= 99
FAMILY_TRIPLES = {
    tuple(sorted((x1, unit_term(unit), y)))
    for unit, factor in CONVERSION_TASKS.values()
    for x1 in range(1, 100)
    for y in (factor, x1 * factor)
}


def tokenize(text: str) -> list[tuple[str, int]]:
    """Whitespace tokenization: maximal non-whitespace runs with 0-based positions."""
    return [(token, i) for i, token in enumerate(text.split())]


def in_default_families(key: tuple[int, ...]) -> bool:
    """Whether the default pass counts the sorted term set `key`: every
    unigram, (number, unit) pairs, number pairs below NN_PAIR_MAX and
    FAMILY_TRIPLES."""
    if len(key) == 3:
        return key in FAMILY_TRIPLES
    units = sum(code >= UNIT_BASE for code in key)
    return len(key) == 1 or units == 1 or (units == 0 and max(key) < NN_PAIR_MAX)


def oracle_count(documents, config: CounterConfig) -> dict[tuple[int, ...], int]:
    """Exact counts by direct enumeration of in-window position tuples.

    The default pass counts the default families; a targeted pass counts
    exactly its targets (plus unigrams)."""
    maxdist = config.window - 1
    wanted = in_default_families if config.target_sets is None else config.target_sets.__contains__
    counts: dict[tuple[int, ...], int] = {}

    def bump(key: tuple[int, ...]) -> None:
        counts[key] = counts.get(key, 0) + 1

    for text in documents:
        terms = []
        for token, pos in tokenize(text):
            code = extract_term(token, config)
            if code is not None:
                terms.append((pos, code))
        for a, (pa, ca) in enumerate(terms):
            bump((ca,))
            for b in range(a + 1, len(terms)):
                pb, cb = terms[b]
                if pb - pa > maxdist:
                    break
                pair = tuple(sorted((ca, cb)))
                if wanted(pair):
                    bump(pair)
                for c in range(b + 1, len(terms)):
                    pc, cc = terms[c]
                    if pc - pa > maxdist:
                        break
                    triple = tuple(sorted((ca, cb, cc)))
                    if wanted(triple):
                        bump(triple)
    return counts


UNIT_SURFACES = [
    "second", "seconds", "minute", "minutes", "hour", "hours", "Hours",
    "day", "days", "week", "weeks", "month", "months", "year", "years",
    "YEARS", "decade", "decades", "hOuRs",
]

FILLER = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "said", "today", "monday", "weekend", "yearly", "hourly", "x86",
]

ODDBALLS = ["1,000", "23.45", "a23", "...", "$5", "12345678", "0007", "(23)", "18?"]


def random_token(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.20:
        return str(rng.randrange(0, 120))
    if r < 0.28:
        return str(rng.randrange(0, 2_000_000))
    if r < 0.38:
        return rng.choice(UNIT_SURFACES)
    if r < 0.44:
        token = str(rng.randrange(0, 100))
        return rng.choice(["(", '"', "["]) + token + rng.choice([")", ",", ".", "?", "]"])
    if r < 0.50:
        return rng.choice(ODDBALLS)
    return rng.choice(FILLER)


def random_corpus(rng: random.Random, n_docs: int, max_tokens: int = 60) -> list[str]:
    docs = []
    for _ in range(n_docs):
        n = rng.randrange(0, max_tokens)
        sep = "\n" if rng.random() < 0.1 else " "
        docs.append(sep.join(random_token(rng) for _ in range(n)))
    return docs
