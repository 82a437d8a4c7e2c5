"""Term coding for numbers and time-unit words.

Terms are packed into plain ints so the counting hot path stays cheap:
a number term is its own value, a unit term lives above UNIT_BASE in
lexicon order.  A term set is a sorted tuple of codes (a multiset of
size 1-3); the sort gives the canonical key ordering: numbers ascending
by value, then units in lexicon order.
"""

from __future__ import annotations

from typing import Iterable

UNITS: tuple[str, ...] = (
    "second",
    "minute",
    "hour",
    "day",
    "week",
    "month",
    "year",
    "decade",
)

# Number codes must stay below UNIT_BASE; caps max_number_digits at 12.
UNIT_BASE = 10**12

# The time-unit conversion tasks: task_id -> (source unit, implicit
# conversion factor); first operands are positive, of at most
# CONVERSION_MAX_DIGITS digits.
CONVERSION_TASKS: dict[str, tuple[str, int]] = {
    "min_sec": ("minute", 60),
    "hour_min": ("hour", 60),
    "day_hour": ("day", 24),
    "week_day": ("week", 7),
    "month_week": ("month", 4),
    "year_month": ("year", 12),
    "decade_year": ("decade", 10),
}
CONVERSION_MAX_DIGITS = 2

_UNIT_INDEX = {name: i for i, name in enumerate(UNITS)}


def unit_term(name: str) -> int:
    """Code for a time-unit term, given its singular form."""
    try:
        return UNIT_BASE + _UNIT_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown time unit: {name!r}") from None


def term_value(code: int) -> int:
    """Integer value of a number term."""
    if code >= UNIT_BASE:
        raise ValueError("not a number term")
    return code


def term_str(code: int) -> str:
    """Serialized form: '23' for numbers, 'u:hour' for units."""
    if code >= UNIT_BASE:
        return "u:" + UNITS[code - UNIT_BASE]
    return str(code)


def parse_term(text: str) -> int:
    """Inverse of term_str."""
    if text.startswith("u:"):
        return unit_term(text[2:])
    value = int(text)
    if not 0 <= value < UNIT_BASE:
        raise ValueError(f"number term out of range: {text}")
    if text != str(value):
        raise ValueError(f"non-canonical number form: {text!r}")
    return value


def term_set(codes: Iterable[int]) -> tuple[int, ...]:
    """Canonical key for a multiset of 1-3 term codes."""
    key = tuple(sorted(codes))
    if not 1 <= len(key) <= 3:
        raise ValueError(f"term set must have 1-3 terms, got {len(key)}")
    return key


def key_str(key: tuple[int, ...]) -> str:
    """Serialized key: terms joined by '|' in canonical order."""
    return "|".join(term_str(c) for c in key)


def parse_key(text: str) -> tuple[int, ...]:
    """Inverse of key_str; validates canonical ordering."""
    codes = tuple(parse_term(part) for part in text.split("|"))
    if codes != tuple(sorted(codes)) or not 1 <= len(codes) <= 3:
        raise ValueError(f"non-canonical key: {text!r}")
    return codes
