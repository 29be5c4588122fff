"""``to_json`` against ``json.dumps(indent=2, sort_keys=True)``.

``to_json`` writes reports with its own recursive writer; the oracle is
the standard library's encoder. Both must give the same bytes for every
payload of dicts, lists, strings, ints, bools and None. The examples are
derandomized, so every run checks the same cases.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progtariff.fileio import to_json

from oracles import desk_to_json

# Quotes, backslashes, control characters, DEL, non-ASCII text, a
# character outside the BMP and both halves of a lone surrogate pair.
awkward = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "한", "😀", "\ud800", "\udfff"])
text = st.text(st.one_of(st.characters(), awkward), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    text,
)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(text, max_size=5),
        st.dictionaries(text, inner, max_size=5),
    ),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(text, payloads, max_size=4))
def test_writer_matches_json_dumps(payload):
    assert to_json(payload) == desk_to_json(payload)


def test_writer_matches_json_dumps_on_fixed_shapes():
    payload = {
        "empty_dict": {},
        "empty_list": [],
        "nested": [[], {}, [[]], {"a": {}}],
        "mixed": ["a", 1, None, True, False, {"b": ["c"]}, -(10**30)],
        "strings": ["0.00", "p/q", 'say "hi"', "back\\slash", "\x01", "ü", "\udc00"],
        "z": None,
        "A": False,
    }
    assert to_json(payload) == desk_to_json(payload)
    assert to_json({}) == "{}\n"


def test_int_past_display_limit_is_input_error():
    huge = 10 ** sys.get_int_max_str_digits()
    for payload in ({"bound": huge}, {"tiers": [{"upper_kwh": huge}]}, {"x": ["a", -huge]}):
        with pytest.raises(ValueError, match=r"^amount too large to display: more than \d+ digits$"):
            to_json(payload)
