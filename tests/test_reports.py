"""The canonical report writer against json.dumps."""

import bisect
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matlen.reports
from matlen.cli import main
from matlen.reports import Summary, canonical_json, make_report, write_canonical_json
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
        expected = reference_json(body)
        assert canonical_json(body) == expected
        # Chunked at nearly every list element, the text joins to the same bytes.
        with mock.patch.object(matlen.reports, "WRITE_FRAGMENTS", 1):
            assert canonical_json(body) == expected

    @settings(max_examples=200, deadline=None)
    @given(body=st.dictionaries(text, trees(), max_size=5), data=st.data())
    @example(body={"a": [], "b": [[]], "c": [{}], "d": [1, 2], "e": [[1], [], [2, [3]]]}, data=None)
    def test_iterators_are_written_as_lists(self, body, data):
        # Each list, chosen by Hypothesis (every one in the examples), is
        # replaced by an iterator over its elements, empty ones included.
        def lazy(o):
            if type(o) is dict:
                return {k: lazy(v) for k, v in o.items()}
            if type(o) is not list:
                return o
            items = [lazy(x) for x in o]
            return iter(items) if data is None or data.draw(st.booleans()) else items

        expected = reference_json(body)
        assert canonical_json(lazy(body)) == expected
        with mock.patch.object(matlen.reports, "WRITE_FRAGMENTS", 1):
            assert canonical_json(lazy(body)) == expected

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


def test_large_report_reaches_the_sink_in_bounded_chunks(tmp_path):
    out = tmp_path / "report.json"
    args = ["fuzz", "--count", "25", "--family", "RANDOM,T10,T12,THM39", "--n", "4", "--out", str(out)]
    assert main(args) == 0
    text = out.read_text()
    body = json.loads(text)
    assert len(body["instances"]) == 100

    def chunks(fragments):
        sink = []
        with mock.patch.object(matlen.reports, "WRITE_FRAGMENTS", fragments):
            write_canonical_json(body, sink.append)
        assert "".join(sink) == text
        return sink

    def list_elements(o):
        # Elements of the lists a chunk may end before: all but lists of ints.
        if type(o) is dict:
            return sum(map(list_elements, o.values()))
        if type(o) is list and {type(x) for x in o} != {int}:
            return len(o) + sum(map(list_elements, o))
        return 0

    # At 0 the writer hands its text over before every list element, in
    # pieces. A chunk at any threshold t is a run of these pieces, and of at
    # most t + 1 of them, since each piece holds at least one fragment.
    pieces = chunks(0)
    assert len(pieces) == 1 + list_elements(body)
    piece_ends = list(itertools.accumulate(map(len, pieces)))
    for fragments in (matlen.reports.WRITE_FRAGMENTS, 16):
        sent = chunks(fragments)
        assert len(sent) > 1
        start = 0
        for end in itertools.accumulate(map(len, sent)):
            first, last = bisect.bisect_right(piece_ends, start), bisect.bisect_left(piece_ends, end)
            assert piece_ends[last] == end
            assert last - first + 1 <= fragments + 1
            start = end


class TestSummary:
    def records(self):
        return [
            {"index": 0, "n": 4, "skipped": "no generating set", "retries": 64},
            {"n": 4, "length_report": {"length": 7}, "flags": ["length_exceeds_2n_minus_2"], "retries": 2},
            {"index": 7, "n": 4, "length_report": {"length": 5}, "violations": [{"bound": "b"}]},
            {"index": 9, "n": 6, "length_report": {"length": None}, "flags": ["length_exceeds_2n_minus_2"]},
            {"n": 6, "length_report": {"length": 9}, "warnings": ["w"]},
        ]

    def test_list_and_iterator_give_one_summary(self):
        summaries = []
        for instances in (self.records(), iter(self.records())):
            summary = Summary()
            report = make_report("fuzz", {}, instances, summary)
            assert report["summary"] is summary.fields
            # A list is folded at once; an iterator as the writer takes it.
            assert (summary.fields["instances"] == 5) == (type(instances) is list)
            text = canonical_json(report)
            assert json.loads(text)["summary"] == summary.fields
            summaries.append((text, summary.warned))
        assert summaries[0] == summaries[1]
        assert json.loads(summaries[0][0])["summary"] == {
            "instances": 5,
            "evaluated": 4,
            "skipped": 1,
            "violation_count": 1,
            "max_length_by_n": {"4": 7, "6": 9},
            # The record without an index is the first evaluated one.
            "paz_conjecture_flags": [0, 9],
            "generation_retries": 66,
        }
        assert summaries[0][1] is True
