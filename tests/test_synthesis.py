"""Correction synthesis, bipartite normal form and parallelization."""

import itertools
import random

import pytest

from mbqcflow.errors import ContractError, FormatError
from mbqcflow.flows import CorrectionFlow, PartialOrder, verify_real_pauli_flow
from mbqcflow.gf2 import members
from mbqcflow.graphs import Graph, MeasurementLabel, OpenGraph, odd_neighborhood
from mbqcflow.instances import InstanceSpec, generate_instance
from mbqcflow.search import find_pauli_flow, find_pauli_flow_bruteforce
from mbqcflow.synthesis import (CorrectionStrategy, bipartite_normal_form,
                                completed_order, is_extensive,
                                normal_form_equations_hold, linearize,
                                parallel_measurement_order, parallelize,
                                strategy_from_json, strategy_order,
                                strategy_to_json, synthesize_corrections)


def single_edge_instance():
    """u -- o with u X-labelled; the smallest instance with a flow."""
    g = Graph.from_edges(2, [(0, 1)])
    og = OpenGraph(g, 0, 0b10, {0: MeasurementLabel.X})
    f = CorrectionFlow({0: 0b10}, PartialOrder.empty(2))
    return og, f


class TestSynthesize:
    def test_single_edge(self):
        og, f = single_edge_instance()
        s = synthesize_corrections(og, f)
        assert s.x == {0: 0b10}  # the output is always "above"
        assert s.z == {0: 0}     # Odd({o}) = {u} and u is not above itself

    def test_invalid_flow_rejected(self):
        og, _ = single_edge_instance()
        bad = CorrectionFlow({0: 0}, PartialOrder.empty(2))
        with pytest.raises(ContractError):
            synthesize_corrections(og, bad)

    def test_targets_always_above(self):
        """Every correction target is an output or later in the completed order."""
        rng = random.Random(11)
        checked = 0
        for seed in range(200):
            spec = InstanceSpec(n=rng.randint(3, 5), seed=seed,
                                n_inputs=rng.randint(0, 1), n_outputs=1)
            og = generate_instance(spec)
            if og is None:
                continue
            r = find_pauli_flow(og)
            if not r.found:
                continue
            s = synthesize_corrections(og, r.flow)
            total = completed_order(og, r.flow)
            for u in s.x:
                for v in members(s.x[u] | s.z[u]):
                    assert ((og.outputs >> v) & 1) or total.less(u, v)
            assert is_extensive(s, og, total)
            checked += 1
        assert checked >= 20

    def test_drops_only_earlier_vertices(self):
        """x(u) and z(u) recover p(u) and Odd(p(u)) once earlier vertices
        are added back."""
        spec = InstanceSpec(n=5, seed=0, n_inputs=1, n_outputs=2)
        og = generate_instance(spec)
        r = find_pauli_flow_bruteforce(og)
        assert r.found
        s = synthesize_corrections(og, r.flow)
        total = completed_order(og, r.flow)
        for u in s.x:
            not_above = ~(og.outputs | total.succ[u]) & ((1 << og.n) - 1)
            assert s.x[u] | (r.flow.p[u] & not_above) == r.flow.p[u]
            odd = odd_neighborhood(og.graph, r.flow.p[u])
            assert s.z[u] | (odd & not_above) == odd


class TestOrders:
    def test_linearize_extends_order(self):
        order = PartialOrder.from_pairs(4, [(2, 0)])
        seq = linearize(order, 0b0111)
        assert sorted(seq) == [0, 1, 2]
        assert seq.index(2) < seq.index(0)
        # smallest id first among available vertices
        assert seq == [1, 2, 0]

    def test_linearize_is_lexicographically_smallest(self):
        rng = random.Random(7)
        for _ in range(40):
            rank = rng.sample(range(6), 6)  # pairs rise in rank, so never cycle
            pairs = [tuple(sorted(rng.sample(range(6), 2), key=rank.__getitem__))
                     for _ in range(4)]
            order = PartialOrder.from_pairs(6, pairs)
            domain = rng.randrange(1 << 6)
            extensions = [list(seq) for seq in itertools.permutations(members(domain))
                          if not any(order.less(b, a) for i, a in enumerate(seq)
                                     for b in seq[i + 1:])]
            assert linearize(order, domain) == min(extensions)

    def test_completed_order_total(self):
        og, f = single_edge_instance()
        assert completed_order(og, f).is_total_on(og.measured)

    def test_strategy_order_cycle(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        og = OpenGraph(g, 0, 0b100,
                       {0: MeasurementLabel.XY, 1: MeasurementLabel.XY})
        s = CorrectionStrategy({0: 0b010, 1: 0b001}, {0: 0, 1: 0})
        with pytest.raises(ContractError):
            strategy_order(s, og)
        assert not is_extensive(s, og)


def bipartite_real_instances(count, seed=0):
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < count * 400:
        tries += 1
        n = rng.choice([4, 5, 6, 6, 7])
        spec = InstanceSpec(n=n, seed=rng.randrange(10**6), bipartite=True,
                            n_inputs=rng.randint(0, 1),
                            n_outputs=max(1, n // 2 - 1),
                            labels=("X", "Z", "XZ"))
        og = generate_instance(spec)
        if og is None:
            continue
        r = find_pauli_flow(og)
        if r.found:
            out.append((og, r.flow))
    return out


class TestNormalForm:
    def test_single_edge(self):
        og, f = single_edge_instance()
        p = bipartite_normal_form(og, f)
        assert p == {0: 0b10}
        assert normal_form_equations_hold(og, p)

    def test_preconditions(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])  # triangle
        og = OpenGraph(g, 0, 0b100,
                       {0: MeasurementLabel.X, 1: MeasurementLabel.X})
        f = CorrectionFlow({0: 0, 1: 0}, PartialOrder.empty(3))
        with pytest.raises(ContractError):
            bipartite_normal_form(og, f)
        og2, f2 = single_edge_instance()
        og_nonreal = OpenGraph(og2.graph, 0, 0b10, {0: MeasurementLabel.XY})
        with pytest.raises(ContractError):
            bipartite_normal_form(og_nonreal, f2)
        bad = CorrectionFlow({0: 0}, PartialOrder.empty(2))
        with pytest.raises(ContractError):
            bipartite_normal_form(og2, bad)

    def test_equations_and_flow_on_random_instances(self):
        cases = bipartite_real_instances(25, seed=5)
        assert len(cases) >= 15
        for og, f in cases:
            p = bipartite_normal_form(og, f)
            assert normal_form_equations_hold(og, p)
            empty = CorrectionFlow(p, PartialOrder.empty(og.n))
            assert verify_real_pauli_flow(og, empty)


class TestParallelize:
    def test_single_edge(self):
        og, f = single_edge_instance()
        p = bipartite_normal_form(og, f)
        s = parallelize(og, p)
        assert s.x == {0: 0b10} and s.z == {0: 0}

    def test_requires_normal_form(self):
        og, f = single_edge_instance()
        with pytest.raises(ContractError):
            parallelize(og, {0: 0})

    def test_targets_in_outputs(self):
        for og, f in bipartite_real_instances(25, seed=6):
            p = bipartite_normal_form(og, f)
            s = parallelize(og, p)
            for u in s.x:
                assert (s.x[u] | s.z[u]) & ~og.outputs == 0
            assert is_extensive(s, og, PartialOrder.empty(og.n))

    def test_measurement_order_pairs(self):
        """Dropped corrections target same-axis vertices, and each implied
        pair really corresponds to a dropped correction."""
        for og, f in bipartite_real_instances(15, seed=7):
            p = bipartite_normal_form(og, f)
            try:
                order = parallel_measurement_order(og, p)
            except ContractError:
                continue  # cyclic implication: legal, just unordered
            only_x = og.label_preimage(MeasurementLabel.X)
            only_z = og.label_preimage(MeasurementLabel.Z)
            for u in sorted(og.labels):
                for v in members(p[u] & only_x & ~(1 << u)):
                    assert order.less(v, u)
                for v in members(odd_neighborhood(og.graph, p[u])
                                 & only_z & ~(1 << u)):
                    assert order.less(v, u)


def test_strategy_json_roundtrip():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    og = OpenGraph(g, 0, 0b100,
                   {0: MeasurementLabel.XY, 1: MeasurementLabel.X})
    s = CorrectionStrategy({0: 0b010, 1: 0b100}, {0: 0b100, 1: 0})
    doc = strategy_to_json(s, og.names)
    back = strategy_from_json(doc, og)
    assert back == s
    with pytest.raises(FormatError):
        strategy_from_json({"x": {}}, og)
    with pytest.raises(FormatError):
        strategy_from_json({"x": {"9": []}, "z": {}}, og)
