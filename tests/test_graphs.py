"""Open graphs, odd neighbourhoods and the JSON boundary."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow.errors import FormatError
from mbqcflow.gf2 import members
from mbqcflow.graphs import (Graph, MeasurementLabel, OpenGraph, bipartition,
                             closed_odd_neighborhood, odd_neighborhood,
                             open_graph_from_json, open_graph_to_json)


def random_graph(draw, n):
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                edges.append((a, b))
    return Graph.from_edges(n, edges)


graph_strategy = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.builds(
        lambda bits: Graph.from_edges(
            n, [(a, b) for i, (a, b) in enumerate(
                (a, b) for a in range(n) for b in range(a + 1, n))
                if (bits >> i) & 1]),
        st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1)))


class TestMeasurementLabel:
    def test_from_string_normalizes(self):
        assert MeasurementLabel.from_string("yx") is MeasurementLabel.XY
        assert MeasurementLabel.from_string("ZX") is MeasurementLabel.XZ
        assert MeasurementLabel.from_string("z") is MeasurementLabel.Z
        for lab in MeasurementLabel:
            for order in itertools.permutations(lab.axes):
                for cases in itertools.product((str.upper, str.lower), repeat=len(order)):
                    text = "".join(case(a) for case, a in zip(cases, order))
                    assert MeasurementLabel.from_string(text) is lab, text

    def test_from_string_rejects_garbage(self):
        with pytest.raises(FormatError):
            MeasurementLabel.from_string("W")
        with pytest.raises(FormatError):
            MeasurementLabel.from_string("XYZ")

    def test_to_string_roundtrip(self):
        for lab in MeasurementLabel:
            assert MeasurementLabel.from_string(lab.to_string()) is lab

    def test_classification(self):
        assert MeasurementLabel.X.is_pauli and not MeasurementLabel.X.is_plane
        assert MeasurementLabel.XY.is_plane and not MeasurementLabel.XY.is_pauli
        assert MeasurementLabel.XZ.is_real
        assert MeasurementLabel.X.is_real and MeasurementLabel.Z.is_real
        assert not MeasurementLabel.Y.is_real
        assert not MeasurementLabel.XY.is_real
        assert not MeasurementLabel.YZ.is_real


class TestGraph:
    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_edges_sorted_pairs(self):
        g = Graph.from_edges(4, [(2, 0), (3, 1)])
        assert g.edges() == [(0, 2), (1, 3)]

    def test_neighbors(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.neighbors(1) == 0b101
        with pytest.raises(ValueError):
            g.neighbors(3)


@settings(max_examples=150, deadline=None)
@given(graph_strategy, st.integers(min_value=0), st.integers(min_value=0))
def test_odd_neighborhood_is_linear(g, a_raw, b_raw):
    a = a_raw & g.all_vertices
    b = b_raw & g.all_vertices
    assert odd_neighborhood(g, a ^ b) == \
        odd_neighborhood(g, a) ^ odd_neighborhood(g, b)


@settings(max_examples=150, deadline=None)
@given(graph_strategy, st.integers(min_value=0))
def test_odd_neighborhood_matches_counting(g, a_raw):
    a = a_raw & g.all_vertices
    expect = 0
    for v in range(g.n):
        if (g.adjacency[v] & a).bit_count() % 2:
            expect |= 1 << v
    assert odd_neighborhood(g, a) == expect
    assert closed_odd_neighborhood(g, a) == expect ^ a


@settings(max_examples=150, deadline=None)
@given(graph_strategy)
def test_bipartition_is_correct(g):
    sides = bipartition(g)
    if sides is None:
        # must contain an odd cycle; verify with a parity-BFS oracle
        import networkx as nx
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert not nx.is_bipartite(h)
        return
    side0, side1 = sides
    assert side0 & side1 == 0
    assert side0 | side1 == g.all_vertices
    for a, b in g.edges():
        assert ((side0 >> a) & 1) != ((side0 >> b) & 1)


def make_open_graph():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    labels = {0: MeasurementLabel.XY, 1: MeasurementLabel.Z,
              2: MeasurementLabel.XZ}
    return OpenGraph(g, inputs=0b0001, outputs=0b1000, labels=labels,
                     names=("a", "b", "c", "d"))


class TestOpenGraph:
    def test_masks(self):
        og = make_open_graph()
        assert og.measured == 0b0111
        assert og.non_inputs == 0b1110
        assert og.is_real is False  # XY label is not real
        assert og.all_pauli is False and og.all_planar is False

    def test_label_lookups(self):
        og = make_open_graph()
        assert og.label_preimage(MeasurementLabel.Z) == 0b0010
        assert og.axis_vertices("X") == 0b0101
        assert og.axis_vertices("Z") == 0b0110

    def test_labels_must_cover_measured(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            OpenGraph(g, 0, 0b10, {})
        with pytest.raises(ValueError):
            OpenGraph(g, 0, 0b10, {0: MeasurementLabel.X,
                                    1: MeasurementLabel.X})

    def test_input_output_overlap_allowed(self):
        g = Graph.from_edges(2, [(0, 1)])
        og = OpenGraph(g, inputs=0b10, outputs=0b10,
                       labels={0: MeasurementLabel.XY})
        assert og.measured == 0b01

    def test_json_roundtrip(self):
        og = make_open_graph()
        doc = open_graph_to_json(og)
        back = open_graph_from_json(doc)
        assert back == og
        assert open_graph_to_json(back) == doc

    def test_json_rejects_unknown_vertex(self):
        doc = open_graph_to_json(make_open_graph())
        doc["edges"].append(["a", "zz"])
        with pytest.raises(FormatError):
            open_graph_from_json(doc)

    def test_json_rejects_bad_string(self):
        with pytest.raises(FormatError):
            open_graph_from_json("{not json")
        with pytest.raises(FormatError):
            open_graph_from_json("[1,2]")
