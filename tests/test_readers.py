"""Fuzzing the document readers: whatever the input, only FormatError escapes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow.errors import FormatError
from mbqcflow.flows import flow_from_json
from mbqcflow.graphs import (Graph, MeasurementLabel, OpenGraph, VertexNames,
                             expect_json, open_graph_from_json)
from mbqcflow.patterns import parse, pattern_from_json
from mbqcflow.synthesis import strategy_from_json

OG = OpenGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), 0b001, 0b100,
               {0: MeasurementLabel.XY, 1: MeasurementLabel.X},
               names=("a", "b", "c"))

READERS = {
    "graph": open_graph_from_json,
    "flow": lambda doc: flow_from_json(doc, OG),
    "strategy": lambda doc: strategy_from_json(doc, OG),
    "pattern": pattern_from_json,
    "mcpat": parse,
}

NAME = st.sampled_from(["a", "b", "c"])
LABEL = st.sampled_from(["X", "XY", "Z"])
ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | NAME
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NAME | st.text(max_size=2), inner, max_size=3),
    max_leaves=10)


def near(shape):
    """Mostly values of the shape a reader expects, sometimes any JSON value."""
    return st.sampled_from([shape, shape, shape, ANY]).flatmap(lambda s: s)


VERTICES = near(st.permutations(["a", "b", "c"]) | st.lists(NAME, unique=True, max_size=3))
NAMES = near(st.lists(NAME, max_size=3))
PAIRS = near(st.lists(NAMES, max_size=3))


def name_map(values):
    return near(st.dictionaries(NAME | st.text(max_size=2), values, max_size=3))


ANGLE = near(st.fixed_dictionaries({"num": near(st.integers(-3, 3))},
                                   optional={"den": near(st.integers(-1, 3))})
             | st.fixed_dictionaries({"radians": near(st.floats())}))
COMMAND = near(
    st.fixed_dictionaries({"type": st.just("N"), "qubit": near(NAME)})
    | st.fixed_dictionaries({"type": st.just("E"), "qubits": NAMES})
    | st.fixed_dictionaries({"type": st.just("M"), "qubit": near(NAME),
                             "label": near(LABEL), "angle": ANGLE})
    | st.fixed_dictionaries({"type": st.sampled_from("XZ"), "qubit": near(NAME),
                             "signal": near(NAME)}))
DOCUMENTS = {
    "graph": st.fixed_dictionaries(
        {"vertices": VERTICES, "edges": PAIRS, "inputs": NAMES, "outputs": NAMES},
        optional={"labels": name_map(near(LABEL))}),
    "flow": st.fixed_dictionaries({"p": name_map(NAMES)}, optional={"order": PAIRS}),
    "strategy": st.fixed_dictionaries({"x": name_map(NAMES), "z": name_map(NAMES)}),
    "pattern": st.fixed_dictionaries(
        {"vertices": VERTICES, "input": NAMES, "output": NAMES,
         "commands": near(st.lists(COMMAND, max_size=4))}),
}


def _read(kind, doc):
    try:
        READERS[kind](doc)
    except FormatError:
        pass


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_json_documents_raise_only_format_error(kind, data):
    doc = data.draw(near(DOCUMENTS[kind]))
    _read(kind, doc)
    _read(kind, json.dumps(doc))


@settings(max_examples=300, deadline=None)
@given(COMMAND | ANGLE.map(lambda angle: {"type": "M", "qubit": "b", "label": "XY",
                                          "angle": angle}))
def test_pattern_commands_raise_only_format_error(command):
    _read("pattern", {"vertices": ["a", "b", "c"], "input": ["a"], "output": ["c"],
                      "commands": [command]})


def _outcome(read):
    try:
        return [tuple(pair) for pair in read()]
    except FormatError as e:
        return str(e)


PAIR_LIKE = (st.lists(NAME | st.sampled_from(["zz", "ab"]), max_size=3)
             | st.sampled_from(["ab", "bc"])  # two names when unpacked, but no array
             | st.dictionaries(NAME, st.none(), min_size=2, max_size=2))


@settings(max_examples=500, deadline=None)
@given(near(st.lists(near(PAIR_LIKE), max_size=4)))
def test_bulk_pairs_match_the_per_pair_path(value):
    """The same id pairs, or the same error message, as resolving every pair
    name by name."""
    names = VertexNames(["a", "b", "c"])
    per_pair = _outcome(lambda: [names.ids(pair, "edge", 2)
                                 for pair in expect_json(value, list, "edges")])
    assert _outcome(lambda: names.pairs(value, "edges", "edge")) == per_pair
    assert _outcome(lambda: names.pairs(json.loads(json.dumps(value)), "edges", "edge")) == per_pair


def test_over_long_json_integer_is_a_format_error():
    for kind in ("graph", "flow", "strategy", "pattern"):
        with pytest.raises(FormatError):
            READERS[kind]("1" * 5000)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(READERS)), st.text())
def test_text_raises_only_format_error(kind, text):
    _read(kind, text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["N a", "E a b", "E a a", "M a XY 1/0 pi",
                                 "M a X 1e400", "X b s(a)", "Z c s(q)",
                                 "vertices: a b", "input: a", "output: c",
                                 "M b 3 0", "Q"]), max_size=6))
def test_mcpat_lines_raise_only_format_error(lines):
    _read("mcpat", "\n".join(lines))
