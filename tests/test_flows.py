"""Flow verification: partial orders, both checkers, frozen instances."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from importlib import resources

from mbqcflow.errors import ContractError, CycleError, FormatError
from mbqcflow.flows import (CorrectionFlow, PartialOrder, flow_from_json,
                            flow_to_json, input_label_constraint,
                            verify_causal_flow, verify_gflow,
                            verify_pauli_flow, verify_pauli_flow_original,
                            verify_real_pauli_flow)
from mbqcflow.gf2 import mask_of, members
from mbqcflow.graphs import (Graph, MeasurementLabel, OpenGraph,
                             closed_odd_neighborhood, odd_neighborhood,
                             open_graph_from_json)
from mbqcflow.instances import InstanceSpec, generate_instance
from mbqcflow.search import find_pauli_flow



@st.composite
def orders(draw):
    """A random partial order: pairs oriented by a drawn ranking, so acyclic."""
    n = draw(st.integers(1, 7))
    rank = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    return PartialOrder.from_pairs(n, [tuple(sorted(pair, key=rank.__getitem__))
                                       for pair in pairs if pair[0] != pair[1]])


def warshall(n, rows):
    """Reference closure: Warshall's n passes, then the lowest vertex in its
    own closed row names the cycle."""
    rows = list(rows)
    for k in range(n):
        for u in range(n):
            if (rows[u] >> k) & 1:
                rows[u] |= rows[k]
    for u, row in enumerate(rows):
        if (row >> u) & 1:
            raise ValueError(f"order has a cycle through vertex {u}")
    return tuple(rows)


@st.composite
def relations(draw):
    """A relation as successor rows, mostly oriented low to high id so that
    both acyclic and cyclic ones (self-loops included) are common."""
    n = draw(st.integers(1, 9))
    rows = [0] * n
    for a, b, flip in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              st.integers(0, 3)), max_size=2 * n)):
        a, b = (a, b) if a <= b or not flip else (b, a)
        rows[a] |= 1 << b
    return n, rows


@st.composite
def layered_covers(draw):
    """Cover rows of a layered order over shuffled ids: each vertex of a
    layer points to one of a few subsets of the next layer (the whole layer
    first), so siblings share rows; sometimes a back edge closes a cycle."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    layers, start = [], 0
    for size in sizes:
        layers.append(ids[start:start + size])
        start += size
    rows = [0] * n
    for layer, above in zip(layers, layers[1:]):
        choices = [sum(1 << v for v in above)]
        choices += [sum(1 << v for v in draw(st.sets(st.sampled_from(above), min_size=1)))
                    for _ in range(draw(st.integers(0, 2)))]
        for u in layer:
            rows[u] = draw(st.sampled_from(choices))
    if len(layers) > 1 and draw(st.booleans()):
        a = draw(st.sampled_from(layers[draw(st.integers(1, len(layers) - 1))]))
        rows[a] |= 1 << draw(st.sampled_from(layers[0]))
    return n, rows


@st.composite
def shared_row_relations(draw):
    """A drawn relation (cycles and self-loops included) whose rows are then
    copied onto other vertices."""
    n, rows = draw(relations())
    for _ in range(draw(st.integers(1, n))):
        rows[draw(st.integers(0, n - 1))] = rows[draw(st.integers(0, n - 1))]
    return n, rows


def grid_open_graph(rows, cols):
    """rows x cols cluster state, inputs the first column and outputs the last."""
    def index(i, j):
        return i * cols + j

    edges = [(index(i, j), index(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(index(i, j), index(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return OpenGraph(Graph.from_edges(rows * cols, edges),
                     sum(1 << index(i, 0) for i in range(rows)),
                     sum(1 << index(i, cols - 1) for i in range(rows)),
                     {index(i, j): MeasurementLabel.XY
                      for i in range(rows) for j in range(cols - 1)})


class TestPartialOrder:
    def test_from_pairs_closes_transitively(self):
        o = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        assert o.less(0, 2)
        assert not o.less(2, 0)
        assert o.pred[2] == 0b011
        assert (0, 2) in o.pairs()

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            PartialOrder.from_pairs(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            PartialOrder.from_pairs(1, [(0, 0)])

    def test_constructor_rejects_unclosed_relation(self):
        # 0 < 1 and 1 < 2 without 0 < 2
        with pytest.raises(ValueError):
            PartialOrder(3, (0b010, 0b100, 0))
        assert PartialOrder(3, (0b110, 0b100, 0)).less(0, 2)

    def test_chain_is_the_closed_total_order(self):
        o = PartialOrder.chain(4, [2, 0, 3])
        assert o == PartialOrder.from_pairs(4, [(2, 0), (0, 3)])
        with pytest.raises(ValueError):
            PartialOrder.chain(3, [0, 1, 0])

    def test_empty(self):
        o = PartialOrder.empty(4)
        assert not any(o.less(a, b) for a in range(4) for b in range(4))
        assert o.is_total_on(0b0001)
        assert not o.is_total_on(0b0011)

    def test_is_total_on(self):
        o = PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
        assert o.is_total_on(0b111)

    def test_unchecked_constructors_keep_their_errors(self):
        with pytest.raises(ValueError, match="cycle through vertex 3"):
            PartialOrder.chain(5, [3, 1, 3])
        with pytest.raises(ValueError, match="^order has a cycle through vertex 1$"):
            PartialOrder.from_pairs(4, [(3, 2), (2, 1), (1, 2)])
        with pytest.raises(ValueError, match="^order has a cycle through vertex 0$"):
            PartialOrder.from_pairs(3, [(2, 0), (0, 1), (1, 2)])
        with pytest.raises(ValueError, match="out of range"):
            PartialOrder.from_pairs(2, [(0, 2)])

    @settings(max_examples=200, deadline=None)
    @given(orders())
    def test_pred_is_the_transpose_of_succ(self, o):
        n = o.n
        for u in range(n):
            assert o.pred[u] == sum(
                1 << v for v in range(n) if (o.succ[v] >> u) & 1)

    @settings(max_examples=200, deadline=None)
    @given(orders(), st.integers(0, 127))
    def test_is_total_on_and_minimal_match_their_definitions(self, o, domain):
        domain &= (1 << o.n) - 1
        vs = members(domain)
        assert o.is_total_on(domain) == all(
            a == b or o.less(a, b) or o.less(b, a) for a in vs for b in vs)
        assert members(o.minimal(domain)) == [
            b for b in vs if not any(o.less(a, b) for a in vs)]

    @settings(max_examples=500, deadline=None)
    @given(relations())
    def test_closure_matches_warshall(self, relation):
        """Same closed rows as Warshall's closure, or the same cycle message,
        on relations drawn with cycles and self-loops."""
        n, rows = relation
        try:
            expected = warshall(n, rows)
        except ValueError as e:
            with pytest.raises(CycleError, match=f"^{e}$"):
                PartialOrder._close(n, list(rows))
        else:
            assert PartialOrder._close(n, list(rows)).succ == expected

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(layered_covers(), shared_row_relations()))
    def test_shared_rows_close_like_warshall(self, relation):
        """Vertices with equal relation rows share one closed row: on layered
        cover documents (siblings share their cover row) and on relations
        with copied rows, cycles included, the rows and cycle messages are
        Warshall's."""
        n, rows = relation
        try:
            expected = warshall(n, rows)
        except ValueError as e:
            with pytest.raises(CycleError, match=f"^{e}$"):
                PartialOrder._close(n, list(rows))
        else:
            assert PartialOrder._close(n, list(rows)).succ == expected

    def test_layered_cover_of_a_grid_flow(self):
        """The cover rows of a 12x12 grid's layered flow order close to it."""
        og = grid_open_graph(12, 12)
        order = find_pauli_flow(og).flow.order
        cover = [order.minimal(row) for row in order.succ]
        assert len(set(cover)) < og.n // 2  # siblings share rows
        assert PartialOrder._close(og.n, cover) == order
        assert PartialOrder._close(og.n, cover).succ == warshall(og.n, cover)

    @pytest.mark.parametrize("order", [range(3000), range(2999, -1, -1),
                                       random.Random(3).sample(range(3000), 3000)],
                             ids=["rising", "falling", "shuffled"])
    def test_closure_of_long_chains(self, order):
        """Closed rows and cover rows of 3000-chains close to the chain, with
        no recursion, whichever way the ids run along it."""
        order = list(order)
        chain = PartialOrder.chain(3000, order)
        assert PartialOrder._close(3000, list(chain.succ)) == chain
        cover = [0] * 3000
        for a, b in zip(order, order[1:]):
            cover[a] = 1 << b
        assert PartialOrder._close(3000, cover) == chain
        cover[order[-1]] = 1 << order[1500]  # closes a cycle through order[1500:]
        with pytest.raises(CycleError, match=f"vertex {min(order[1500:])}$"):
            PartialOrder._close(3000, cover)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    max_size=8))
    def test_closure_is_transitive_and_irreflexive(self, pairs):
        try:
            o = PartialOrder.from_pairs(5, pairs)
        except ValueError:
            return
        for a in range(5):
            assert not o.less(a, a)
            for b in range(5):
                for c in range(5):
                    if o.less(a, b) and o.less(b, c):
                        assert o.less(a, c)


def load_counterexample(stem):
    data = resources.files("mbqcflow").joinpath("data")
    return open_graph_from_json(data.joinpath(f"{stem}.json").read_text())


class TestFrozenInstances:
    """The two bundled open graphs behave exactly as documented."""

    def test_fork_no_flow_with_forced_order(self):
        og = load_counterexample("counterexample1")
        # vertices named "1","2","3" -> ids 0,1,2; outputs = {"3"}
        assert og.labels[0] is MeasurementLabel.XY
        assert og.labels[1] is MeasurementLabel.X
        # exhaustive: no p map makes a flow whose order puts 0 before 1
        order = PartialOrder.from_pairs(3, [(0, 1)])
        found = []
        for p0 in range(8):
            for p1 in range(8):
                f = CorrectionFlow({0: p0, 1: p1}, order)
                if verify_pauli_flow(og, f):
                    found.append(f)
        assert found == []

    def test_fork_flow_exists_with_other_order(self):
        og = load_counterexample("counterexample1")
        order = PartialOrder.from_pairs(3, [(1, 0)])
        hits = [
            (p0, p1)
            for p0 in range(8) for p1 in range(8)
            if verify_pauli_flow(og, CorrectionFlow({0: p0, 1: p1}, order))
        ]
        assert hits

    def test_path_no_flow_with_forced_order(self):
        og = load_counterexample("counterexample2")
        assert og.labels[0] is MeasurementLabel.YZ
        assert og.labels[1] is MeasurementLabel.Z
        order = PartialOrder.from_pairs(3, [(0, 1)])
        for p0 in range(8):
            for p1 in range(8):
                f = CorrectionFlow({0: p0, 1: p1}, order)
                assert not verify_pauli_flow(og, f)


def all_small_open_graphs(n, max_labelled=3):
    """Every open graph on n vertices (used at n <= 3 here; acceptance
    re-runs this at n = 4)."""
    pair_list = [(a, b) for a in range(n) for b in range(a + 1, n)]
    labels_pool = list(MeasurementLabel)
    for bits in range(1 << len(pair_list)):
        g = Graph.from_edges(
            n, [e for i, e in enumerate(pair_list) if (bits >> i) & 1])
        for outputs in range(1 << n):
            measured = g.all_vertices & ~outputs
            vs = members(measured)
            if len(vs) > max_labelled:
                continue
            for inputs in range(1 << n):
                for combo in itertools.product(labels_pool, repeat=len(vs)):
                    yield OpenGraph(g, inputs, outputs, dict(zip(vs, combo)))


def some_orders(n, domain):
    vs = members(domain)
    yield PartialOrder.empty(n)
    for perm in itertools.permutations(vs):
        yield PartialOrder.from_pairs(
            n, [(perm[i], perm[i + 1]) for i in range(len(perm) - 1)])
    if len(vs) >= 3:
        yield PartialOrder.from_pairs(n, [(vs[0], vs[2])])


def test_checkers_agree_on_small_instances():
    """Simplified and literal definitions coincide (sampled; the acceptance
    suite runs the exhaustive n = 4 version)."""
    rng = random.Random(7)
    cases = 0
    for og in all_small_open_graphs(3):
        if rng.random() > 0.05:
            continue
        vs = members(og.measured)
        for order in some_orders(og.n, og.measured):
            for _ in range(4):
                p = {u: rng.randrange(1 << og.n) & ~og.inputs for u in vs}
                f = CorrectionFlow(p, order)
                a = bool(verify_pauli_flow(og, f))
                b = bool(verify_pauli_flow_original(og, f))
                assert a == b, (og, p, order.pairs())
                cases += 1
    assert cases > 500


def test_well_formedness_contract():
    og = load_counterexample("counterexample1")
    order = PartialOrder.empty(3)
    with pytest.raises(ContractError):
        verify_pauli_flow(og, CorrectionFlow({0: 0}, order))  # missing vertex 1
    with pytest.raises(ContractError):
        verify_pauli_flow(og, CorrectionFlow({0: 1 << 5, 1: 0}, order))
    for pair in [(0, 2), (2, 0)]:  # relates an output, above or below
        bad_order = PartialOrder.from_pairs(3, [pair])
        with pytest.raises(ContractError,
                           match="order must relate non-output vertices only"):
            verify_pauli_flow(og, CorrectionFlow({0: 0, 1: 0}, bad_order))


def test_specialized_checkers_guard_labels():
    og = load_counterexample("counterexample1")  # has an XY label: not real
    f = CorrectionFlow({0: 0, 1: 0}, PartialOrder.empty(3))
    with pytest.raises(ContractError):
        verify_real_pauli_flow(og, f)
    og2 = load_counterexample("counterexample2")  # has a Z label: not planar
    f2 = CorrectionFlow({0: 0, 1: 0}, PartialOrder.empty(3))
    with pytest.raises(ContractError):
        verify_gflow(og2, f2)
    with pytest.raises(ContractError):
        verify_causal_flow(og2, f2)


def test_causal_flow_singleton_requirement():
    g = Graph.from_edges(2, [(0, 1)])
    og = OpenGraph(g, 0, 0b10, {0: MeasurementLabel.XY})
    ok = verify_causal_flow(
        og, CorrectionFlow({0: 0b10}, PartialOrder.empty(2)))
    assert ok
    bad = verify_causal_flow(
        og, CorrectionFlow({0: 0b00}, PartialOrder.empty(2)))
    assert not bad and bad.condition == "singleton"


def test_input_label_constraint():
    g = Graph.from_edges(2, [(0, 1)])
    og = OpenGraph(g, inputs=0b01, outputs=0b10, labels={0: MeasurementLabel.Z})
    v = input_label_constraint(og)
    assert not v and v.condition == "input-Z"
    og2 = OpenGraph(g, inputs=0b01, outputs=0b10, labels={0: MeasurementLabel.XY})
    assert input_label_constraint(og2)


def test_flow_json_roundtrip():
    og = load_counterexample("counterexample1")
    f = CorrectionFlow({0: 0b010, 1: 0b100},
                       PartialOrder.from_pairs(3, [(1, 0)]))
    doc = flow_to_json(f, og.names)
    back = flow_from_json(doc, og)
    assert back == f
    with pytest.raises(FormatError):
        flow_from_json({"p": {"zz": []}}, og)
    with pytest.raises(FormatError):
        flow_from_json("{bad", og)


def test_flow_json_cycle_names_the_vertex():
    og = OpenGraph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 0, 0b1000,
                   dict.fromkeys(range(3), MeasurementLabel.XY), names=("a", "b", "c", "d"))
    doc = {"p": {"a": ["b"], "b": ["c"], "c": ["d"]}, "order": [["c", "b"], ["b", "c"]]}
    with pytest.raises(FormatError, match="^order has a cycle through vertex b$"):
        flow_from_json(doc, og)


def flow_documents():
    """Found flows of random instances and of grids, with their open graphs."""
    for seed in range(60):
        og = generate_instance(InstanceSpec(n=3 + seed % 8, seed=seed, n_inputs=seed % 3,
                                            n_outputs=1 + seed % 2))
        found = find_pauli_flow(og)
        if found.found:
            yield og, found.flow
    for rows, cols in [(4, 8), (6, 12)]:
        og = grid(rows, cols, 1)
        yield og, find_pauli_flow(og).flow


def thinned_flow_documents():
    """The flow documents' orders closed from random parts (a third, two
    thirds, nine tenths) of their cover pairs: mostly no longer weak orders."""
    rng = random.Random(5)
    for og, f in flow_documents():
        covers = [(u, v) for u, row in enumerate(f.order.succ) if row
                  for v in members(f.order.minimal(row))]
        for keep in (0.3, 0.6, 0.9):
            yield og, CorrectionFlow(f.p, PartialOrder.from_pairs(
                og.n, [pair for pair in covers if rng.random() < keep]))


def is_weak_on(order, domain):
    """No row leaves `domain`, and incomparable vertices of `domain` have
    equal rows above and below."""
    if any(row & ~domain or row and not (domain >> u) & 1 for u, row in enumerate(order.succ)):
        return False
    return all(order.succ[u] == order.succ[v] and order.pred[u] == order.pred[v]
               for u, v in itertools.combinations(members(domain), 2)
               if not (order.less(u, v) or order.less(v, u)))


def test_flow_json_writes_layers_exactly_for_weak_orders():
    """Weak orders are written as layers, earliest measured first, each layer
    wholly below the next; both kinds of document read back to the flow."""
    kinds = {"layers": 0, "order": 0}
    for og, f in itertools.chain(flow_documents(), thinned_flow_documents()):
        doc = flow_to_json(f, og.names)
        kind, = set(doc) - {"p"}
        assert (kind == "layers") == is_weak_on(f.order, mask_of(f.p))
        assert flow_from_json(doc, og) == f
        assert flow_from_json(json.loads(json.dumps(doc)), og) == f
        kinds[kind] += 1
        if kind == "layers":
            layers = [[og.names.index(a) for a in layer] for layer in doc["layers"]]
            assert sorted(sum(layers, [])) == sorted(f.p)
            assert all(layer == sorted(layer) for layer in layers)
            assert all(f.order.less(u, v) for i, layer in enumerate(layers)
                       for later in layers[i + 1:] for u in layer for v in later)
    assert kinds["layers"] > 40 and kinds["order"] > 20, kinds


def test_flow_json_writes_the_cover_relation():
    """On orders that are not weak, the emitted pairs close to the order, and
    none is implied by two others."""
    seen = 0
    for og, f in thinned_flow_documents():
        doc = flow_to_json(f, og.names)
        if "order" not in doc:
            continue
        pairs = [(og.names.index(a), og.names.index(b)) for a, b in doc["order"]]
        assert pairs == sorted(pairs)
        assert PartialOrder.from_pairs(og.n, pairs) == f.order
        assert not [(a, b) for a, b in pairs if f.order.succ[a] & f.order.pred[b]]
        seen += len(pairs)
    assert seen > 400


def test_full_pair_documents_still_read():
    """A document listing every pair of the order reads to the same flow."""
    for og, f in flow_documents():
        doc = {"p": flow_to_json(f, og.names)["p"],
               "order": [[og.names[a], og.names[b]] for a, b in f.order.pairs()]}
        assert flow_from_json(doc, og) == f == flow_from_json(flow_to_json(f, og.names), og)


ABCD = OpenGraph(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 0, 0b1000,
                 dict.fromkeys(range(3), MeasurementLabel.XY), names=("a", "b", "c", "d"))
P = {"a": ["b"], "b": ["c"], "c": ["d"]}


@pytest.mark.parametrize("layers, message", [
    ("abc", "layers must be a JSON array"),
    (["abc"], "layer must be a JSON array"),
    ([["a"], "bc"], "layer must be a JSON array"),
    ([["a", "zz"]], "unknown vertex 'zz'"),
    ([["a", 3]], "unknown vertex 3"),
    ([["a", "b"], ["a"]], "layers list vertex 'a' twice"),
    ([["c", "c"]], "layers list vertex 'c' twice"),
    ([["a"], ["d"]], "layers list vertex 'd', which is not measured"),
    ([["d", "a"], ["a"]], "layers list vertex 'd', which is not measured"),
    ([["b", "a"], ["a", "d"]], "layers list vertex 'a' twice"),
])
def test_layers_reader_rejects(layers, message):
    with pytest.raises(FormatError) as e:
        flow_from_json({"p": P, "layers": layers}, ABCD)
    assert str(e.value) == message


def test_layers_and_order_are_exclusive():
    with pytest.raises(FormatError, match="^flow document holds both 'order' and 'layers'$"):
        flow_from_json({"p": P, "layers": [], "order": []}, ABCD)


def test_layers_may_leave_vertices_out():
    """Unlisted vertices are above and below none; an empty list is the empty order."""
    assert flow_from_json({"p": P, "layers": []}, ABCD).order == PartialOrder.empty(4)
    order = flow_from_json({"p": P, "layers": [["c"], [], ["a"]]}, ABCD).order
    assert order == PartialOrder.from_pairs(4, [(2, 0)])


def verify_pauli_flow_pairwise(og, f):
    """Reference: the per-axis conditions checked pair by pair, v ascending."""
    k_of = {"X": odd_neighborhood, "Y": closed_odd_neighborhood,
            "Z": lambda g, c: c}
    vs = sorted(f.p)
    for u in vs:
        pred = f.order.pred[u]
        for axis in sorted(og.labels[u].axes):
            k = k_of[axis]
            if not (k(og.graph, f.p[u]) >> u) & 1:
                return (False, u, f"c_{axis}", None)
            for v in vs:
                if v != u and not (pred >> v) & 1 and (k(og.graph, f.p[v]) >> u) & 1:
                    return (False, u, f"c_{axis}", v)
    return (True, None, None, None)


def grid(rows, cols, seed):
    """Cluster state with inputs in the first column and outputs in the last;
    30 % of the inner measured vertices relabelled X or Y."""
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    labels = {i * cols + j: MeasurementLabel.XY for i in range(rows) for j in range(cols - 1)}
    rng = random.Random(seed)
    inner = [i * cols + j for i in range(rows) for j in range(1, cols - 1)]
    for u in rng.sample(inner, round(0.3 * len(inner))):
        labels[u] = rng.choice([MeasurementLabel.X, MeasurementLabel.Y])
    return OpenGraph(Graph.from_edges(rows * cols, edges),
                     sum(1 << (i * cols) for i in range(rows)),
                     sum(1 << (i * cols + cols - 1) for i in range(rows)), labels)


def mutants(og, f, rng, count):
    """The flow itself, then flows with one correction-set bit flipped, with
    the order emptied, or with a random order."""
    yield f
    vs = sorted(f.p)
    free = members(og.non_inputs)
    for _ in range(count):
        p = dict(f.p)
        u = rng.choice(vs)
        p[u] ^= 1 << rng.choice(free) if free else 0
        yield CorrectionFlow(p, f.order)
    yield CorrectionFlow(f.p, PartialOrder.empty(og.n))
    yield CorrectionFlow(f.p, PartialOrder.chain(og.n, rng.sample(vs, len(vs))))


def test_hit_masks_match_the_pairwise_reference():
    """Same verdict, vertex, condition and witness as the pair-by-pair walk,
    on random flows and on mutants of found flows, failing ones included."""
    rng = random.Random(11)
    seen = failing = 0
    for seed in range(300):
        og = generate_instance(InstanceSpec(
            n=3 + seed % 8, seed=seed, n_inputs=rng.randrange(3),
            n_outputs=rng.randrange(1, 3), bipartite=seed % 3 == 0))
        found = find_pauli_flow(og)
        flows = list(mutants(og, found.flow, rng, 2)) if found.found else []
        vs = members(og.measured)
        for _ in range(3):
            p = {u: rng.randrange(1 << og.n) & ~og.inputs for u in vs}
            flows.append(CorrectionFlow(p, PartialOrder.chain(og.n, rng.sample(vs, len(vs)))))
        for f in flows:
            v = verify_pauli_flow(og, f)
            assert (v.ok, v.vertex, v.condition, v.witness) == verify_pauli_flow_pairwise(og, f)
            seen += 1
            failing += not v.ok
    for rows, cols in [(4, 8), (5, 10), (6, 12), (8, 16)]:
        og = grid(rows, cols, 1)
        for f in mutants(og, find_pauli_flow(og).flow, rng, 6):
            v = verify_pauli_flow(og, f)
            assert (v.ok, v.vertex, v.condition, v.witness) == verify_pauli_flow_pairwise(og, f)
            seen += 1
            failing += not v.ok
    assert seen >= 1000 and failing >= 500, (seen, failing)
