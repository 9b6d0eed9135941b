"""Verification of Pauli flows, gflows and causal flows on open graphs.

Two independent checkers are provided: `verify_pauli_flow` evaluates the
three simplified conditions (one per Pauli axis), `verify_pauli_flow_original`
evaluates the nine-condition definition literally.  They are kept separate on
purpose so that tests can confront them on exhaustively enumerated instances.

Flow documents (`flow_to_json`, `flow_from_json`) write a weak order, whose
layers each sit wholly below the next (every order `find_pauli_flow`
returns), as its `"layers"`, one name list per layer, earliest measured
first: linear in n, where the covering pairs of two consecutive layers are
their product.  Any other order is written as its covering pairs,
`"order"`.  The reader takes either, never both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ContractError, CycleError, FormatError
from .gf2 import mask_of, members
from .graphs import (MeasurementLabel, OpenGraph, VertexNames, odd_neighborhood,
                     read_document)


@dataclass(frozen=True)
class PartialOrder:
    """Strict partial order over vertex ids, stored transitively closed.

    succ[u] is the bitmask of vertices v with u < v; `pred` is its transpose.
    The constructor checks, in one pass, that u is never in succ[u] and that
    succ[v] is a subset of succ[u] for every v in succ[u].  Rows closed by
    construction skip it (`_closed`): `chain`, the layered order of
    `find_pauli_flow` and of a `"layers"` flow document, a join already
    inside its order (`measurement_order`), and `from_pairs` and the other
    joins via `_close`, a depth-first closure that closes each row once,
    skips covered successors and takes the lowest or highest pending one,
    whichever has the larger row, so chains close in linear time either way
    (`minimal` walks alike).
    A closed row, the set reachable from u, depends only on u's relation
    row, so vertices with equal relation rows share one: the siblings of a
    layered cover-pair document close once per layer, not once per vertex.
    A cycle's frames fold into one, so rows are the reachable sets of
    Warshall's closure and CycleError names its vertex, the lowest u in u's row.
    """

    n: int
    succ: Tuple[int, ...]

    def __post_init__(self):
        if len(self.succ) != self.n:
            raise ValueError("succ row count does not match n")
        for u, row in enumerate(self.succ):
            if row >> self.n:
                raise ValueError(f"succ row {u} references vertices >= n")
            if (row >> u) & 1:
                raise CycleError(u)
            if any(self.succ[v] & ~row for v in members(row)):
                raise ValueError("succ relation is not transitively closed")

    @classmethod
    def _closed(cls, n: int, succ: Tuple[int, ...]) -> "PartialOrder":
        out = object.__new__(cls)  # closed by construction: not re-checked
        out.__dict__.update(n=n, succ=succ)
        return out

    @classmethod
    def _close(cls, n: int, rows: List[int]) -> "PartialOrder":
        closed = [None if row else 0 for row in rows]  # rows without successors are closed
        memo = {}  # relation row -> its closed row, shared by all vertices with that row
        for root in range(n - 1, -1, -1):
            if closed[root] is None:
                closed[root] = memo.get(rows[root])
            if closed[root] is not None:
                continue
            stack, active = [[1 << root, rows[root], 0]], 1 << root  # [vertices, pending, row]
            while closed[root] is None:
                group, todo, acc = stack[-1]
                while todo:
                    lo, hi = (todo & -todo).bit_length() - 1, todo.bit_length() - 1
                    if closed[lo] is not None and closed[hi] is not None:
                        w = lo if closed[lo] >= closed[hi] else hi
                        acc |= closed[w] | 1 << w
                        todo &= ~acc
                        continue
                    w = lo if closed[lo] is None else hi
                    stack[-1][1:] = todo, acc
                    if (active >> w) & 1:  # a cycle: fold the frames down to w's into one
                        while not (stack[-1][0] >> w) & 1:
                            top = stack.pop()
                            stack[-1] = [a | b for a, b in zip(stack[-1], top)]
                        group, todo, acc = stack[-1]
                        stack[-1] = [group, todo & ~(acc | group), acc | group]
                    elif rows[w] in memo:
                        closed[w] = memo[rows[w]]
                    else:
                        stack.append([1 << w, rows[w], 0])
                        active |= 1 << w
                    break
                else:
                    for u in members(group):
                        closed[u] = memo[rows[u]] = acc
                    active &= ~group
                    stack.pop()
        for u, row in enumerate(closed):
            if (row >> u) & 1:
                raise CycleError(u)  # the lowest vertex in its own row
        return cls._closed(n, tuple(closed))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Tuple[int, int]]) -> "PartialOrder":
        succ = [0] * n
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"order pair ({a},{b}) out of range")
            succ[a] |= 1 << b
        return cls._close(n, succ)

    @classmethod
    def chain(cls, n: int, sequence: Sequence[int]) -> "PartialOrder":
        """Total order sequence[0] < sequence[1] < ... on the listed vertices."""
        succ = [0] * n
        later = 0
        for u in reversed(sequence):
            if (later >> u) & 1:
                raise CycleError(u)
            succ[u] = later
            later |= 1 << u
        return cls._closed(n, tuple(succ))

    @classmethod
    def empty(cls, n: int) -> "PartialOrder":
        return cls._closed(n, (0,) * n)

    @cached_property
    def pred(self) -> Tuple[int, ...]:
        """pred[u] is the bitmask of v with v < u."""
        return tuple(mask_of(v for v, row in enumerate(self.succ) if (row >> u) & 1)
                     for u in range(self.n))

    def less(self, a: int, b: int) -> bool:
        return bool((self.succ[a] >> b) & 1)

    def pairs(self) -> List[Tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in members(self.succ[a])]

    def is_total_on(self, domain: int) -> bool:
        return all((self.succ[a] | self.pred[a] | 1 << a) & domain == domain
                   for a in members(domain))

    def minimal(self, mask: int) -> int:
        """The minimal vertices of `mask`, found by any walk order: walk the
        lowest or highest vertex left, whichever has the larger row, skip all above."""
        succ, above, rest = self.succ, 0, mask
        while rest:
            lo, hi = (rest & -rest).bit_length() - 1, rest.bit_length() - 1
            w = lo if succ[lo] >= succ[hi] else hi
            above |= succ[w]
            rest &= ~(above | 1 << w)
        return mask & ~above


@dataclass(frozen=True)
class CorrectionFlow:
    """Candidate flow witness: correction-set map p plus a strict partial order."""

    p: Mapping[int, int]
    order: PartialOrder


@dataclass(frozen=True)
class Verdict:
    """Outcome of a flow check, carrying the first violation found."""

    ok: bool
    vertex: Optional[int] = None
    condition: Optional[str] = None
    witness: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "valid"
        loc = f"vertex {self.vertex}, condition {self.condition}"
        if self.witness is not None:
            loc += f", witness vertex {self.witness}"
        return f"violated at {loc}"


_OK = Verdict(True)


def _check_well_formed(og: OpenGraph, f: CorrectionFlow) -> None:
    measured = og.measured
    if set(f.p) != set(members(measured)):
        raise ContractError("flow domain must be exactly the non-output vertices")
    for u, c in f.p.items():
        if c >> og.n:
            raise ContractError(f"p({u}) references vertices out of range")
        if c & og.inputs:
            raise ContractError(f"p({u}) intersects the inputs")
    if f.order.n != og.n:
        raise ContractError("order size does not match the graph")
    for u, row in enumerate(f.order.succ):
        if row and not ((measured >> u) & 1 and row & measured == row):
            raise ContractError("order must relate non-output vertices only")


def verify_pauli_flow(og: OpenGraph, f: CorrectionFlow) -> Verdict:
    """Check the three per-axis flow conditions for every measured vertex.

    For axis A in the label of u, with K_A the odd neighbourhood (X), closed
    odd neighbourhood (Y) or the set itself (Z): u must lie in K_A(p(u)) and
    outside K_A(p(v)) for every measured v != u with not(v < u).  One pass
    over v computes each K_A(p(v)) once and collects own[A] = {u : u in
    K_A(p(u))} and hit[A] = {u : u in K_A(p(v)) for some such v}.  The
    conditions hold exactly when, for each axis A, no vertex whose label has
    A lies outside own[A] or inside hit[A]: three mask tests.  Only when one
    fails are u and its axes walked in ascending order, so the first
    violation is that walk's; a hit's witness is the lowest such v.
    """
    _check_well_formed(og, f)
    succ, odds = f.order.succ, {}
    own_x = own_y = own_z = hit_x = hit_y = hit_z = 0
    for v, c in f.p.items():
        bit, odd = 1 << v, odd_neighborhood(og.graph, c)
        odds[v], free = odd, ~(bit | succ[v])
        own_x |= odd & bit
        own_y |= (odd ^ c) & bit
        own_z |= c & bit
        hit_x |= odd & free
        hit_y |= (odd ^ c) & free
        hit_z |= c & free
    if not (og.axis_vertices("X") & (~own_x | hit_x) or og.axis_vertices("Y") & (~own_y | hit_y)
            or og.axis_vertices("Z") & (~own_z | hit_z)):
        return _OK
    own, hit = {"X": own_x, "Y": own_y, "Z": own_z}, {"X": hit_x, "Y": hit_y, "Z": hit_z}
    for u in sorted(f.p):
        for axis in sorted(og.labels[u].axes):
            if not (own[axis] >> u) & 1:
                return Verdict(False, u, f"c_{axis}")
            if (hit[axis] >> u) & 1:
                k = {"X": odds, "Y": {v: odds[v] ^ c for v, c in f.p.items()}, "Z": f.p}[axis]
                return Verdict(False, u, f"c_{axis}", min(
                    v for v, kv in k.items()
                    if v != u and not (succ[v] >> u) & 1 and (kv >> u) & 1))
    return _OK


def verify_pauli_flow_original(og: OpenGraph, f: CorrectionFlow) -> Verdict:
    """Check the original nine-condition flow definition, evaluated literally."""
    _check_well_formed(og, f)
    L = MeasurementLabel
    measured_list = sorted(f.p)
    for u in measured_list:
        pu = f.p[u]
        odd_pu = odd_neighborhood(og.graph, pu)
        for v in measured_list:
            if v == u:
                continue
            lam_v = og.labels[v]
            # v <= u  iff  not (u < v)
            v_le_u = not f.order.less(u, v)
            if (pu >> v) & 1 and lam_v not in (L.X, L.Y) and not f.order.less(u, v):
                return Verdict(False, u, "P1", v)
            if v_le_u and lam_v not in (L.Y, L.Z) and (odd_pu >> v) & 1:
                return Verdict(False, u, "P2", v)
            if v_le_u and lam_v is L.Y and ((pu >> v) & 1) != ((odd_pu >> v) & 1):
                return Verdict(False, u, "P3", v)
        lam_u = og.labels[u]
        in_pu = bool((pu >> u) & 1)
        in_odd = bool((odd_pu >> u) & 1)
        if lam_u is L.XY and not (not in_pu and in_odd):
            return Verdict(False, u, "P4")
        if lam_u is L.XZ and not (in_pu and in_odd):
            return Verdict(False, u, "P5")
        if lam_u is L.YZ and not (in_pu and not in_odd):
            return Verdict(False, u, "P6")
        if lam_u is L.X and not in_odd:
            return Verdict(False, u, "P7")
        if lam_u is L.Z and not in_pu:
            return Verdict(False, u, "P8")
        if lam_u is L.Y and not ((not in_pu and in_odd) or (in_pu and not in_odd)):
            return Verdict(False, u, "P9")
    return _OK


def verify_real_pauli_flow(og: OpenGraph, f: CorrectionFlow) -> Verdict:
    """Flow check specialized to real open graphs (labels within {X, Z})."""
    if not og.is_real:
        raise ContractError("open graph has a non-real measurement label")
    return verify_pauli_flow(og, f)


def verify_gflow(og: OpenGraph, f: CorrectionFlow) -> Verdict:
    """Flow check restricted to planar labels (a Pauli flow on planes is a gflow)."""
    if not og.all_planar:
        raise ContractError("gflow requires every label to be a measurement plane")
    return verify_pauli_flow(og, f)


def verify_causal_flow(og: OpenGraph, f: CorrectionFlow) -> Verdict:
    """Gflow check with every correction set a singleton."""
    if not og.all_planar:
        raise ContractError("causal flow requires every label to be a measurement plane")
    _check_well_formed(og, f)
    for u in sorted(f.p):
        if f.p[u].bit_count() != 1:
            return Verdict(False, u, "singleton")
    return verify_pauli_flow(og, f)


def input_label_constraint(og: OpenGraph) -> Verdict:
    """Necessary condition for flow existence: no measured input carries axis Z.

    Any measured input u has p(u) inside the input complement, so u is not in
    p(u) and the Z-axis condition cannot hold.
    """
    for u in sorted(members(og.inputs & og.measured)):
        if "Z" in og.labels[u].axes:
            return Verdict(False, u, "input-Z")
    return _OK


def _layers(order: PartialOrder, domain: int) -> Optional[List[int]]:
    """The layers of `order` (masks, earliest measured first) when it is a
    weak order on `domain`: every row outside `domain` is empty and every
    row inside is the union of the layers after its own.  Else None."""
    layer_of: Dict[int, int] = {}  # row -> the vertices of domain with that row
    for u, row in enumerate(order.succ):
        if (domain >> u) & 1:
            layer_of[row] = layer_of.get(row, 0) | 1 << u
        elif row:
            return None
    layers, above = [], 0
    for row in sorted(layer_of, key=int.bit_count):  # the last layer first
        if row != above:
            return None
        layers.append(layer_of[row])
        above |= layer_of[row]
    return layers[::-1]


def flow_to_json(f: CorrectionFlow, names: Tuple[str, ...]) -> dict:
    """A weak order on p's domain (every `find_pauli_flow` order is one) is
    written as `"layers"`, name lists earliest measured first; any other
    order as its covering pairs (u, v), v minimal in succ[u].  The layers
    list p's domain, which `flow_from_json` requires to be measured, as it
    is in every well-formed flow."""
    order = f.order
    doc = {"p": {names[u]: [names[v] for v in members(c)] for u, c in sorted(f.p.items())}}
    layers = _layers(order, mask_of(f.p))
    if layers is not None:
        doc["layers"] = [[names[v] for v in members(layer)] for layer in layers]
        return doc

    @cache  # rows repeat along layered orders
    def cover(row: int) -> List[str]:
        return [names[v] for v in members(order.minimal(row))]

    doc["order"] = [[names[u], v] for u, row in enumerate(order.succ) if row
                    for v in cover(row)]
    return doc


def _order_of_layers(layers: List[List[int]], og: OpenGraph) -> PartialOrder:
    """The weak order whose layers of ids are listed earliest measured first:
    succ[u] is the union of the layers after u's, and an unlisted vertex
    has an empty row.

    One pass from the last layer back, closed and acyclic by construction:
    for v in succ[u], v's layer comes after u's, so succ[v] lies in succ[u];
    and u, listed once, is in no layer after its own.  An id listed twice or
    not measured raises FormatError, the first such one in document order."""
    succ, above, measured = [0] * og.n, 0, og.measured
    for ids in reversed(layers):
        mask = mask_of(ids)
        if mask & above or mask & ~measured or mask.bit_count() != len(ids):
            _reject_misplaced(layers, og)
        for u in ids:
            succ[u] = above
        above |= mask
    return PartialOrder._closed(og.n, tuple(succ))


def _reject_misplaced(layers: List[List[int]], og: OpenGraph) -> None:
    """Raise FormatError for the first id, in document order, listed twice or
    not measured."""
    seen = 0
    for u in chain.from_iterable(layers):
        if (seen >> u) & 1:
            raise FormatError(f"layers list vertex {og.names[u]!r} twice")
        if not (og.measured >> u) & 1:
            raise FormatError(f"layers list vertex {og.names[u]!r}, which is not measured")
        seen |= 1 << u


def flow_from_json(doc: Union[str, dict], og: OpenGraph) -> CorrectionFlow:
    """The order is read from `"layers"` (see flow_to_json) or from
    `"order"`, which may list any pairs whose closure is the order; a
    document without either has the empty order."""
    doc = read_document(doc, "flow", ("p",))
    if "order" in doc and "layers" in doc:
        raise FormatError("flow document holds both 'order' and 'layers'")
    names = VertexNames(og.names)
    p = names.masks(doc["p"], "p")
    if "layers" in doc:
        return CorrectionFlow(p, _order_of_layers(names.lists(doc["layers"], "layers", "layer"), og))
    pairs = names.pairs(doc.get("order", []), "order", "order pair")
    try:
        order = PartialOrder.from_pairs(og.n, pairs)
    except CycleError as e:
        raise FormatError(f"order has a cycle through vertex {og.names[e.vertex]}") from e
    return CorrectionFlow(p, order)
