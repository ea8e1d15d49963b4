"""The streamed JSON writer writes exactly the bytes ``json.dump`` writes."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import jsonio
from repro.sim.engine import _write_checkpoint_payload
from repro.store.index import StoreIndex

_KEYS = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=24,
)


def _both(value: object):
    expected, streamed = io.StringIO(), io.StringIO()
    json.dump(value, expected)
    jsonio.dump(value, streamed)
    return expected.getvalue(), streamed.getvalue()


@settings(max_examples=150)
@given(_VALUES)
def test_streamed_writer_matches_json_dump(value):
    expected, streamed = _both(value)
    assert streamed == expected


def test_edge_values_match_json_dump():
    nan, inf = float("nan"), float("inf")
    value = {
        "a": {1: [nan, inf, -inf], 2.5: None, True: False, None: {}, nan: []},
        -0.0: [[], {}, (1, "é☃"), {"deep": {"deeper": [1]}}],
        False: -inf,
    }
    expected, streamed = _both(value)
    assert streamed == expected
    for scalar in (nan, None, True, 3, "s", [], {}):
        assert _both(scalar)[1] == _both(scalar)[0]


def test_unencodable_key_raises_like_json_dump():
    with pytest.raises(TypeError, match="keys must be str"):
        json.dump({(1, 2): 0}, io.StringIO())
    with pytest.raises(TypeError, match="keys must be str"):
        jsonio.dump({(1, 2): 0}, io.StringIO())


def test_file_writers_match_json_dump(tmp_path):
    """The checkpoint writer and the store-index snapshot both stream."""
    checkpoint = {
        "version": 1,
        "dies": {"0": [0.5, float("nan")], "1": []},
        "sketches": {"0:1": {"bins": [1, 2], "count": 2}},
    }
    path = tmp_path / "checkpoint.json"
    _write_checkpoint_payload(str(path), checkpoint)
    assert path.read_text(encoding="utf-8") == json.dumps(checkpoint)

    index = StoreIndex(
        entries={"k1": {"segment": "s.jsonl", "offset": 0, "seq": 0}},
        segments={"s.jsonl": 120},
        total_records=1,
    )
    path = tmp_path / "index.json"
    index.save(str(path))
    expected = {
        "schema_version": json.loads(path.read_text())["schema_version"],
        "segments": index.segments,
        "entries": index.entries,
        "total_records": index.total_records,
    }
    assert path.read_text(encoding="utf-8") == json.dumps(expected)


# Floats whose text is easy to get wrong, next to the ints they equal.
_SPECIAL = st.sampled_from(
    [0.0, -0.0, 0, 1, 1.0, float("nan"), float("inf"), float("-inf"), 5e-324]
)
_SCALARS = st.one_of(_LEAVES, _SPECIAL)


@st.composite
def _documents_with_shared_lists(draw):
    """A dict of dicts whose leaves -- dict leaves, and dicts and lists
    nested deeper -- hold the same few list objects in several places."""
    pool = draw(st.lists(st.lists(_SCALARS, max_size=5), min_size=1, max_size=3))
    shared = st.sampled_from(pool)
    nested = st.recursive(
        st.one_of(_SCALARS, shared),
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(_KEYS, inner, max_size=3),
        ),
        max_leaves=6,
    )
    dict_leaves = st.dictionaries(
        _KEYS, st.one_of(shared, _SCALARS, nested), min_size=1, max_size=5
    )
    return draw(
        st.dictionaries(
            _KEYS,
            st.dictionaries(_KEYS, st.one_of(dict_leaves, nested), max_size=4),
            min_size=1,
            max_size=4,
        )
    )


@settings(max_examples=100)
@given(_documents_with_shared_lists())
def test_shared_lists_match_json_dumps(value):
    streamed = io.StringIO()
    jsonio.dump(value, streamed)
    assert streamed.getvalue() == json.dumps(value)


def test_a_shared_list_is_encoded_once_per_dump(monkeypatch):
    grid = [0.0, -0.0, 0.5, float("inf"), float("nan"), 1]
    value = {
        "sketches": {
            f"0:{n}": {"edges": grid, "bins": {n: 1.0}, "count": 1, "max": -0.0}
            for n in range(4)
        },
        "other": {"a": {"first": 1, "edges": grid, "last": [grid, grid]}},
    }
    encoded = []
    real = jsonio._leaf_encoder

    def counting():
        encode = real()

        def wrapped(item):
            encoded.append(item)
            return encode(item)

        return wrapped

    monkeypatch.setattr(jsonio, "_leaf_encoder", counting)
    for _ in range(2):
        streamed = io.StringIO()
        jsonio.dump(value, streamed)
        assert streamed.getvalue() == json.dumps(value)
    # Once per dump call: the memo does not outlive the call.
    assert sum(item is grid for item in encoded) == 2
