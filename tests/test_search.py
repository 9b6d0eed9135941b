"""Flow search: soundness, agreement with exhaustive enumeration, depth."""

import itertools
import random

import pytest

from mbqcflow.errors import CapacityError
from mbqcflow.flows import (CorrectionFlow, PartialOrder, flow_to_json,
                            verify_pauli_flow)
from mbqcflow.gf2 import mask_of, members, solve
from mbqcflow.graphs import Graph, MeasurementLabel, OpenGraph
from mbqcflow.instances import InstanceSpec, generate_instance
from mbqcflow.search import (find_pauli_flow, find_pauli_flow_bruteforce,
                             flow_depth)
from mbqcflow.synthesis import linearize


def exhaustive_flow_exists(og):
    """Direct enumeration oracle: every p map against every total order."""
    vs = members(og.measured)
    allowed = [c & ~og.inputs for c in range(1 << og.n)]
    allowed = sorted(set(allowed))
    for perm in itertools.permutations(vs):
        order = PartialOrder.from_pairs(
            og.n, [(perm[i], perm[j]) for i in range(len(perm))
                   for j in range(i + 1, len(perm))])
        for combo in itertools.product(allowed, repeat=len(vs)):
            f = CorrectionFlow(dict(zip(vs, combo)), order)
            if verify_pauli_flow(og, f):
                return True
    return False


def small_instances(count, seed=0, n_range=(3, 5)):
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < count * 50:
        tries += 1
        n = rng.randint(*n_range)
        spec = InstanceSpec(n=n, seed=rng.randrange(10**6),
                            n_inputs=rng.randint(0, 1),
                            n_outputs=rng.randint(1, 2))
        og = generate_instance(spec)
        if og is not None:
            out.append(og)
    return out


def test_bruteforce_flows_are_valid():
    for og in small_instances(60, seed=1):
        r = find_pauli_flow_bruteforce(og)
        if r.found:
            assert verify_pauli_flow(og, r.flow)
            assert r.flow.order.is_total_on(og.measured)


def test_bruteforce_agrees_with_direct_enumeration():
    checked = 0
    for og in small_instances(40, seed=2, n_range=(3, 3)):
        expect = exhaustive_flow_exists(og)
        got = find_pauli_flow_bruteforce(og).found
        assert got == expect, og
        checked += 1
    assert checked == 40


def seven_measured_instances(count, seed):
    """n = 8 with one input and one output: exactly seven measured vertices,
    one more than the brute-force oracle's default bound."""
    rng = random.Random(seed)
    return [generate_instance(InstanceSpec(n=8, seed=rng.randrange(10**6),
                                           n_inputs=1, n_outputs=1,
                                           reject_input_z=True))
            for _ in range(count)]


def test_layered_agrees_with_bruteforce():
    for og in small_instances(80, seed=3) + seven_measured_instances(40, seed=4):
        r = find_pauli_flow(og)
        b = find_pauli_flow_bruteforce(og, oc_bound=7)
        assert r.status in ("found", "none")
        assert r.found == b.found
        if r.found:
            assert verify_pauli_flow(og, r.flow)


def per_vertex_round(og, remaining):
    """Reference round: one `gf2.solve` per vertex of `remaining`, with u's
    axis rows (rhs 1) followed by the other vertices' rows (rhs 0).  Maps
    each solvable u to its particular solution, as a vertex mask."""
    ic = members(og.non_inputs)

    def rows(u):
        sets = {"X": og.graph.adjacency[u], "Y": og.graph.adjacency[u] ^ (1 << u),
                "Z": 1 << u}
        return [mask_of(i for i, v in enumerate(ic) if sets[a] >> v & 1)
                for a in "XYZ" if a in og.labels[u].axes]

    layer = {}
    for u in remaining:
        own = rows(u)
        others = [r for w in remaining if w != u for r in rows(w)]
        sol = solve(own + others, [1] * len(own) + [0] * len(others), len(ic))
        if sol is not None:
            layer[u] = mask_of(ic[i] for i in members(sol[0]))
    return layer


def test_round_elimination_matches_per_vertex_solves():
    """Each round's shared elimination gives every vertex the verdict and
    p(u) of its own solve.  For a flow, the rounds are rebuilt from the
    order (a round's vertices have exactly the earlier rounds' vertices as
    successors); for `none`, the reference rounds run until one solves
    nothing."""
    rng = random.Random(8)
    statuses = set()
    for _ in range(320):
        n = rng.randint(3, 10)
        og = generate_instance(InstanceSpec(
            n=n, seed=rng.randrange(10**6), n_inputs=rng.randint(0, 2),
            n_outputs=rng.randint(1, 3), edge_probability=rng.choice((0.3, 0.5))))
        r = find_pauli_flow(og)
        statuses.add(r.status)
        remaining = sorted(og.labels)
        rounds = solves = 0
        while remaining:
            rounds += 1
            solves += len(remaining)
            layer = per_vertex_round(og, remaining)
            if not layer:
                break
            if r.found:
                earlier = mask_of(og.labels) & ~mask_of(remaining)
                assert {u for u in remaining if r.flow.order.succ[u] == earlier} == set(layer)
                assert {u: r.flow.p[u] for u in layer} == layer
            remaining = [u for u in remaining if u not in layer]
        assert r.found == (not remaining)
        assert r.stats == {"rounds": rounds, "solves": solves}
    assert statuses == {"found", "none"}


def grid_cluster(rows, cols, seed):
    """rows x cols cluster state, inputs the first column and outputs the
    last, XY labels except 30 % of the measured non-input vertices, which
    become X or Y; each row's successor is a causal flow."""
    def index(i, j):
        return i * cols + j

    edges = [(index(i, j), index(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(index(i, j), index(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    labels = {index(i, j): MeasurementLabel.XY for i in range(rows) for j in range(cols - 1)}
    rng = random.Random(seed)
    eligible = [index(i, j) for i in range(rows) for j in range(1, cols - 1)]
    for u in rng.sample(eligible, round(0.3 * len(eligible))):
        labels[u] = MeasurementLabel.X if rng.random() < 0.5 else MeasurementLabel.Y
    return OpenGraph(Graph.from_edges(rows * cols, edges),
                     mask_of(index(i, 0) for i in range(rows)),
                     mask_of(index(i, cols - 1) for i in range(rows)), labels)


def test_grid_with_256_vertices():
    og = grid_cluster(16, 16, seed=16)
    r = find_pauli_flow(og)
    assert r.found
    assert verify_pauli_flow(og, r.flow)


def test_require_pairs_restricts_orders():
    # fork instance: flow exists, but not with vertex 0 before vertex 1
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    og = OpenGraph(g, 0, 0b100, {0: MeasurementLabel.XY,
                                 1: MeasurementLabel.X})
    assert find_pauli_flow_bruteforce(og).found
    assert find_pauli_flow_bruteforce(og, require_pairs=[(0, 1)]).status == "none"
    restricted = find_pauli_flow_bruteforce(og, require_pairs=[(1, 0)])
    assert restricted.found
    assert restricted.flow.order.less(1, 0)


def test_capacity_bounds_enforced():
    g = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
    labels = {i: MeasurementLabel.XY for i in range(7)}
    og = OpenGraph(g, 0, 1 << 7, labels)
    with pytest.raises(CapacityError):
        find_pauli_flow_bruteforce(og)
    # the layered search itself still runs; this line graph has a causal flow
    r = find_pauli_flow(og)
    assert r.found
    assert verify_pauli_flow(og, r.flow)


def test_none_is_proven_beyond_bruteforce_bound():
    # a 9-vertex XY path into an output has a flow, an isolated X vertex has
    # none, and a disjoint union has a flow only if every component has one
    path = OpenGraph(Graph.from_edges(9, [(i, i + 1) for i in range(8)]), 0,
                     1 << 8, {i: MeasurementLabel.XY for i in range(8)})
    assert find_pauli_flow(path).found
    labels = dict(path.labels)
    labels[9] = MeasurementLabel.X
    union = OpenGraph(Graph.from_edges(10, [(i, i + 1) for i in range(8)]), 0,
                      1 << 8, labels)
    assert len(union.labels) == 9
    assert find_pauli_flow(union).status == "none"


def test_no_measured_vertices():
    g = Graph.from_edges(2, [(0, 1)])
    og = OpenGraph(g, 0, 0b11, {})
    r = find_pauli_flow_bruteforce(og)
    assert r.found and r.flow.p == {}
    assert flow_depth(r.flow) == 0


def test_flow_depth_examples():
    order = PartialOrder.from_pairs(4, [(0, 1), (1, 2)])
    f = CorrectionFlow({0: 0, 1: 0, 2: 0}, order)
    assert flow_depth(f) == 2
    f2 = CorrectionFlow({0: 0, 1: 0, 2: 0}, PartialOrder.empty(4))
    assert flow_depth(f2) == 0
    # antichain pairs: depth counts the longest chain only
    order3 = PartialOrder.from_pairs(4, [(0, 2), (1, 2)])
    f3 = CorrectionFlow({0: 0, 1: 0, 2: 0}, order3)
    assert flow_depth(f3) == 1


def test_flow_depth_of_long_chains():
    """No recursion: a chain far longer than the interpreter's stack limit,
    with ids rising or falling along it."""
    chain = CorrectionFlow(dict.fromkeys(range(3000), 0),
                           PartialOrder.chain(3000, range(3000)))
    assert flow_depth(chain) == 2999
    falling = CorrectionFlow(dict.fromkeys(range(3000), 0),
                             PartialOrder.chain(3000, range(2999, -1, -1)))
    assert flow_depth(falling) == 2999
    for f, order in [(chain, list(range(3000))), (falling, list(range(2999, -1, -1)))]:
        assert linearize(f.order, (1 << 3000) - 1) == order
        names = tuple(map(str, range(3000)))
        assert flow_to_json(f, names)["order"] == [[names[a], names[b]]
                                                   for a, b in sorted(zip(order, order[1:]))]
