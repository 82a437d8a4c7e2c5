import pytest
from hypothesis import given
from hypothesis import strategies as st

from freqgap.terms import (
    UNIT_BASE,
    UNITS,
    key_str,
    parse_key,
    parse_term,
    term_set,
    term_str,
    term_value,
    unit_term,
)

numbers = st.integers(min_value=0, max_value=999_999)
units = st.sampled_from(UNITS)
codes = st.one_of(numbers, units.map(unit_term))


def test_number_codes_are_values():
    assert parse_term("23") == 23
    assert term_value(23) == 23


def test_unit_codes_follow_lexicon_order():
    assert unit_term("second") == UNIT_BASE
    assert unit_term("decade") == UNIT_BASE + len(UNITS) - 1
    assert term_str(unit_term("hour")) == "u:hour"


def test_unknown_unit_rejected():
    with pytest.raises(ValueError):
        unit_term("fortnight")


def test_number_range_enforced():
    with pytest.raises(ValueError):
        parse_term("-1")
    with pytest.raises(ValueError):
        parse_term(str(UNIT_BASE))
    with pytest.raises(ValueError):
        term_value(UNIT_BASE)


def test_canonical_order_numbers_before_units():
    key = term_set((unit_term("hour"), 24, 60))
    assert key == (24, 60, unit_term("hour"))
    assert key_str(key) == "24|60|u:hour"


def test_term_set_is_symmetric():
    assert term_set((23, 18)) == term_set((18, 23))
    assert key_str(term_set((23, 18))) == "18|23"


def test_term_set_allows_duplicates():
    assert term_set((7, 7)) == (7, 7)
    assert key_str((7, 7)) == "7|7"


def test_term_set_size_bounds():
    with pytest.raises(ValueError):
        term_set(())
    with pytest.raises(ValueError):
        term_set((1, 2, 3, 4))


def test_parse_term_rejects_non_canonical():
    with pytest.raises(ValueError):
        parse_term("007")
    with pytest.raises(ValueError):
        parse_term("u:lightyear")


@given(st.lists(codes, min_size=1, max_size=3))
def test_key_roundtrip(code_list):
    key = term_set(code_list)
    assert parse_key(key_str(key)) == key


@given(codes)
def test_term_roundtrip(code):
    assert parse_term(term_str(code)) == code
