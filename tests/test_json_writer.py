"""``to_json`` and ``write_json`` against ``json.dumps(indent=2, sort_keys=True)``.

Both render reports with one recursive writer of their own: ``to_json``
gathers its text into one string, and ``write_json``, which the CLI
uses, writes it to a stream in chunks. The oracle is the standard
library's encoder. All must give the same bytes for every payload of
dicts, lists, strings, ints, bools and None. The examples are
derandomized, so every run checks the same cases.
"""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progtariff import fileio
from progtariff.fileio import to_json, write_json

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


class Recorder:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def streamed(payload, chunk_chars):
    """The writes of ``write_json(payload)`` with chunks of *chunk_chars*."""
    stream = Recorder()
    with mock.patch.object(fileio, "JSON_CHUNK_CHARS", chunk_chars):
        write_json(payload, stream)
    return stream.writes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(text, payloads, max_size=4), st.integers(3, 8))
def test_streamed_writer_matches_json_dumps(payload, chunks):
    # The chunk size is cut to a fraction of the text, so each payload is
    # several chunks long and every chunk but the last is full.
    expected = desk_to_json(payload)
    writes = streamed(payload, max(1, len(expected) // chunks))
    assert "".join(writes) == expected
    assert len(writes) > 1 or len(expected) < chunks
    assert all(len(piece) >= max(1, len(expected) // chunks) for piece in writes[:-1])


def test_streamed_writer_at_its_own_chunk_size():
    # A report-like payload over five chunks long, at the real chunk size.
    consumers = [
        {"id": f"c{index:04d}", "slot_charges": [f"{index}.{slot:02d}" for slot in range(120)]}
        for index in range(300)
    ]
    payload = {"consumers": consumers, "grid": {"slots": 120}}
    expected = desk_to_json(payload)
    writes = streamed(payload, fileio.JSON_CHUNK_CHARS)
    assert len(expected) > 5 * fileio.JSON_CHUNK_CHARS
    assert "".join(writes) == expected == to_json(payload)
    assert len(writes) > 5
    chunk = fileio.JSON_CHUNK_CHARS
    assert all(chunk <= len(piece) < 2 * chunk for piece in writes[:-1])


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
