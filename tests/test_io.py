import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from riskdist.errors import InputFormatError
from riskdist.io import dump_report, load_measure, load_space
from riskdist.numerics import parse_scalar


def reference(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control characters, non-ASCII (BMP and astral)
TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀"]),
        st.characters(),
    ),
    max_size=8,
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, 0.1, 1.0, 5e-324]),
    TEXT,
)
TREES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(TEXT, max_size=4),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(deadline=None, max_examples=400)
@given(TREES)
def test_dump_report_is_the_json_module_text(tree):
    assert dump_report(tree) == reference(tree)


@pytest.mark.parametrize(
    "tree",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [{}], "d": [[]], "e": {"f": {"g": []}}},
        {"k": [True, 1, None, False, 0]},
        {"x": [-0.0, 1e300, float("inf"), float("-inf"), float("nan")]},
        {'q"\\\n\x01é😀': ['q"\\\n\x01é😀', "", "plain"]},
        (("a", "b"), ("c",)),
        "top-level string",
        12,
    ],
)
def test_edge_trees(tree):
    assert dump_report(tree) == reference(tree)


def test_non_string_keys_are_written_as_json_writes_them():
    tree = {
        "i": {10: "ten", 2: "two", -1: "minus"},
        "f": {2.5: "a", 0.5: "b", float("inf"): "c"},
        "n": {None: "none"},
        "t": {True: 1, False: 0},
    }
    assert dump_report(tree) == reference(tree)


def test_subclasses_of_leaves_are_written_as_their_base():
    from enum import IntEnum

    class Label(str):
        pass

    class Level(IntEnum):
        LOW = 1
        HIGH = 20

    class Real(float):
        pass

    tree = {
        "str": [Label("a"), Label("é")],
        "int": [Level.HIGH, Level.LOW, 3],
        "float": Real(0.5),
        "keys": {Label("b"): 1, Label("a"): 2},
        "int keys": {Level.HIGH: "h", Level.LOW: "l"},
    }
    assert dump_report(tree) == reference(tree)


def test_values_json_cannot_write_are_refused():
    for bad in ({"x": Fraction(1, 2)}, [object()], {"s": {1, 2}}, {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            json.dumps(bad)
        with pytest.raises(TypeError):
            dump_report(bad)


class TestCapacityTables:
    """Choquet tables are read through a per-space key table and a per-table
    parse memo; what they accept and build is what key-by-key parsing does."""

    def test_every_spelling_of_a_key_builds_the_same_capacity(self, p3):
        canonical = {"a": "1/4", "b": "1/4", "c": "1/2", "a,b": "1/2",
                     "a,c": "3/4", "b,c": "3/4", "a,b,c": 1}
        respelled = {"": 0, " a": "1/4", "b ": "1/4", "c": 0.5, "b,a": "1/2",
                     "c, a": "3/4", "b,c": "3/4", "c,b,a": "1"}
        first = load_measure({"type": "choquet", "capacity": canonical}, p3)
        second = load_measure({"type": "choquet", "capacity": respelled}, p3)
        assert first.capacity.table == second.capacity.table

    @pytest.mark.parametrize(
        "first, second",
        [("a,b", "b,a"), ("a,b", "b, a"), ("b", " b"), ("", " ")],
    )
    def test_two_keys_naming_one_subset_are_refused(self, p3, first, second):
        # the last key used to win silently: v({a, b}) = 3/8 here
        table = {"a": "1/4", "b": "1/4", "c": "1/2", "a,b": "1/2",
                 "a,c": "3/4", "b,c": "3/4", "a,b,c": 1}
        table[first] = table.get(first, 0)
        table[second] = "3/8" if first else 0
        with pytest.raises(InputFormatError, match="name one subset") as err:
            load_measure({"type": "choquet", "capacity": table}, p3)
        assert repr(first) in str(err.value) and repr(second) in str(err.value)

    def test_the_empty_set_may_be_given_once_or_left_out(self, p3):
        table = {"a": "1/4", "b": "1/4", "c": "1/2", "a,b": "1/2",
                 "a,c": "3/4", "b,c": "3/4", "a,b,c": 1}
        given = load_measure({"type": "choquet", "capacity": {"": 0, **table}}, p3)
        left_out = load_measure({"type": "choquet", "capacity": table}, p3)
        assert given.capacity.table == left_out.capacity.table
        assert left_out.capacity.table[0] == 0

    def test_each_distinct_string_is_parsed_once(self, p3, monkeypatch):
        import riskdist.io

        seen = []

        def counting(value):
            seen.append(value)
            return parse_scalar(value)

        monkeypatch.setattr(riskdist.io, "parse_scalar", counting)
        table = {"a": "1/2", "b": "1/2", "c": "1/2", "a,b": "1/2",
                 "a,c": 1, "b,c": 1, "a,b,c": 1}
        mu = load_measure({"type": "choquet", "capacity": table}, p3)
        assert sorted(map(str, seen)) == ["1", "1", "1", "1/2"]
        assert mu.capacity.table[0b011] == Fraction(1, 2)

    def test_a_json_true_is_refused_after_an_equal_number(self, p3):
        table = {"a": 0, "b": 0, "c": 0, "a,b": 1, "a,c": 1, "b,c": True, "a,b,c": 1}
        with pytest.raises(InputFormatError):
            load_measure({"type": "choquet", "capacity": table}, p3)

    @pytest.mark.parametrize(
        "labels, error",
        [
            (["a ", "b"], "unknown point label 'a'"),
            ([" a", "b"], "unknown point label 'a'"),
            # a blank key is the empty set, so no key names the blank point
            (["", "b"], "missing 1 subsets"),
        ],
    )
    def test_blank_or_padded_labels_read_keys_label_by_label(self, labels, error):
        space = load_space({"points": labels, "dist": [[0, 1], [1, 0]]})
        assert space._subset_masks == {}
        table = {labels[0]: 0, "b": 0, f"{labels[0]},b": 1}
        with pytest.raises(InputFormatError, match=error):
            load_measure({"type": "choquet", "capacity": table}, space)

    def test_keys_past_the_point_guard_are_not_tabulated(self):
        labels = [f"p{i}" for i in range(13)]
        dist = [[0 if i == j else 1 for j in range(13)] for i in range(13)]
        space = load_space({"points": labels, "dist": dist})
        assert space._subset_masks == {}
        # a choquet spec is refused before its 2^13 table is allocated
        with pytest.raises(InputFormatError, match="capacity tables are guarded to 12 points"):
            load_measure({"type": "choquet", "capacity": {"p0": 1}}, space)
