"""The canonical report writer against json.dumps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matlen.reports import canonical_json
from reference import canonical_json as reference_json

# Quotes, backslashes, control characters, DEL and non-ASCII text (BMP and
# astral), mixed with arbitrary characters.
TRICKY = '"\\/\x00\x01\x1f\x7f\b\f\n\r\t é€ 😀'
text = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=8)
ints = st.integers() | st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**40, -(10**40)])
leaves = st.none() | st.booleans() | ints | text
int_lists = st.lists(ints, max_size=5)


def trees():
    return st.recursive(
        leaves | int_lists | st.lists(int_lists, max_size=4),
        lambda children: st.lists(children, max_size=4) | st.dictionaries(text, children, max_size=4),
        max_leaves=25,
    )


class TestCanonicalJson:
    @settings(max_examples=200, deadline=None)
    @given(body=st.dictionaries(text, trees(), max_size=5))
    @example(body={})
    @example(body={"": {}, "a": [], "b": [[]], "c": [{}], "d": {"e": {"f": [[], {}]}}})
    @example(body={"m": [[[0, -1], [2**64, 3]], [[]], []], "flags": [1, True, 0, None]})
    @example(body={'k"\\\x00é😀': 'v"\\\x1f ', "\n": "\t"})
    def test_matches_json_dumps(self, body):
        assert canonical_json(body) == reference_json(body)

    @pytest.mark.parametrize(
        "value",
        [
            1.5,
            float("nan"),
            (1, 2),
            np.int64(3),
            np.float64(0.5),
            np.bool_(True),
            {1: "int key"},
            {None: "None key"},
            [1, 2, np.int64(3)],
            {"deep": [{"x": (0,)}]},
        ],
        ids=repr,
    )
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError):
            canonical_json({"value": value})
