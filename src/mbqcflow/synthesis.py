"""From flows to correction strategies, bipartite normal forms, parallelization.

A valid flow yields the correction maps x(u) = p(u) above u and
z(u) = Odd(p(u)) above u.  The flow order lives on the measured vertices
only; output vertices are treated as above every measured vertex, since
corrections on them are always applicable.

On bipartite real open graphs the flow can be rebuilt into a normal form
whose two defining set equations force all corrections (after removing
same-axis Pauli vertices) onto the outputs, so every measurement can be
scheduled in a single round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .errors import ContractError
from .flows import (CorrectionFlow, PartialOrder, verify_pauli_flow,
                    verify_real_pauli_flow)
from .gf2 import members
from .graphs import (MeasurementLabel, OpenGraph, VertexNames, bipartition,
                     odd_neighborhood, read_document)


@dataclass(frozen=True)
class CorrectionStrategy:
    """Per-measured-vertex X and Z correction target sets (bitmasks)."""

    x: Mapping[int, int]
    z: Mapping[int, int]

    def targets(self, u: int) -> int:
        return self.x[u] | self.z[u]


def strategy_order(strategy: CorrectionStrategy, og: OpenGraph) -> PartialOrder:
    """Transitive closure of the correcting-vertex relation on measured vertices.

    Raises ContractError when the relation is cyclic (strategy not extensive).
    """
    rows, measured = [0] * og.n, og.measured
    for u, row in strategy.x.items():
        rows[u] = (row | strategy.z[u]) & measured
    try:
        return PartialOrder._close(og.n, rows)
    except ValueError as e:
        raise ContractError(f"strategy is not extensive: {e}") from e


def is_extensive(strategy: CorrectionStrategy, og: OpenGraph,
                 order: Optional[PartialOrder] = None) -> bool:
    """Extensivity: targets of u sit strictly above u (outputs always do).

    Since `order` is transitively closed, it contains every targeting pair
    exactly when it contains their closure, strategy_order(strategy, og)."""
    try:
        induced = strategy_order(strategy, og)
    except ContractError:
        return False
    return order is None or not any(row & ~order.succ[u]
                                    for u, row in enumerate(induced.succ))


def linearize(order: PartialOrder, domain: int) -> List[int]:
    """The lexicographically smallest linear extension of `order` on the
    vertices of `domain` (bitmask): each step places the smallest id whose
    predecessors in `domain` are all placed; placing u frees only vertices
    of succ[u], and none while they all lie above the next ready vertex."""
    ready, out, succ = order.minimal(domain), [], order.succ
    while ready:
        pick = (ready & -ready).bit_length() - 1
        out.append(pick)
        ready &= ~(1 << pick)
        freed = succ[pick] & domain
        if freed and (not ready or freed & ~succ[(ready & -ready).bit_length() - 1]):
            ready = order.minimal(ready | freed)
    return out


def completed_order(og: OpenGraph, f: CorrectionFlow) -> PartialOrder:
    """The total measurement order used by synthesize_corrections.

    Robustness of the synthesized strategy is relative to this order: the
    corrections it drops are exactly those onto earlier vertices of this
    sequence.
    """
    return PartialOrder.chain(og.n, linearize(f.order, og.measured))


def synthesize_corrections(og: OpenGraph, f: CorrectionFlow) -> CorrectionStrategy:
    """Correction maps guaranteed sound by a valid flow.

    The flow order is first completed to a total measurement order (this
    preserves flow validity: a larger order only weakens the conditions);
    x(u) then keeps the vertices of p(u) measured after u, z(u) those of
    Odd(p(u)); output vertices always count as after.  Taking the completed
    order rather than the flow order itself matters: vertices incomparable
    to u would otherwise receive no correction, which breaks the truncations
    of the computation in which they are still unmeasured.
    """
    verdict = verify_pauli_flow(og, f)
    if not verdict:
        raise ContractError(f"flow is not valid: {verdict.describe()}")
    later = completed_order(og, f).succ
    x: Dict[int, int] = {}
    z: Dict[int, int] = {}
    for u in sorted(f.p):
        above = later[u] | og.outputs
        x[u] = f.p[u] & above
        z[u] = odd_neighborhood(og.graph, f.p[u]) & above
    return CorrectionStrategy(x, z)


def normal_form_equations_hold(og: OpenGraph, p: Mapping[int, int]) -> bool:
    """Exact set equations of the bipartite real normal form.

    Odd(p(u)) minus (outputs and Z-labelled vertices) must be {u} minus the
    Z-labelled vertices, and symmetrically for p(u) with X.
    """
    only_x = og.label_preimage(MeasurementLabel.X)
    only_z = og.label_preimage(MeasurementLabel.Z)
    for u in sorted(og.labels):
        bit = 1 << u
        lhs1 = odd_neighborhood(og.graph, p[u]) & ~(og.outputs | only_z)
        if lhs1 != bit & ~only_z:
            return False
        lhs2 = p[u] & ~(og.outputs | only_x)
        if lhs2 != bit & ~only_x:
            return False
    return True


def bipartite_normal_form(og: OpenGraph, g0: CorrectionFlow) -> Dict[int, int]:
    """Rebuild a flow map on a bipartite real open graph into normal form.

    p(u) starts from g(u) and folds in the built set of each X-axis vertex
    v != u in Odd(g(u)) (its opposite-side part) and of each Z-axis vertex
    v != u in g(u) (its same-side part).  Conditions P1 and P2 of the flow
    put every such v strictly above u, so walking any linear extension of
    the flow order in reverse builds each p(v) before it is folded in, and
    every such walk gives the same map.  The two defining set equations
    hold exactly for the result.
    """
    sides = bipartition(og.graph)
    if sides is None:
        raise ContractError("graph is not bipartite")
    if not verify_real_pauli_flow(og, g0):  # raises on a non-real label
        raise ContractError("g0 is not a valid flow")
    side0, side1 = sides
    x_axis = og.axis_vertices("X")
    z_axis = og.axis_vertices("Z")
    g = og.graph

    processed: Dict[int, int] = {}
    for u in reversed(linearize(g0.order, og.measured)):
        acc = g0.p[u]
        for v in members(odd_neighborhood(g, g0.p[u]) & ~(1 << u) & x_axis):
            acc ^= processed[v] & _other_side(v, side0, side1)
        for v in members(g0.p[u] & ~(1 << u) & z_axis):
            acc ^= processed[v] & _same_side(v, side0, side1)
        processed[u] = acc
    return processed


def _same_side(v: int, side0: int, side1: int) -> int:
    return side0 if (side0 >> v) & 1 else side1


def _other_side(v: int, side0: int, side1: int) -> int:
    return side1 if (side0 >> v) & 1 else side0


def parallelize(og: OpenGraph, p: Mapping[int, int]) -> CorrectionStrategy:
    """Depth-one strategy from a normal-form map: all targets are outputs.

    x'(u) drops the X-labelled Pauli vertices and u itself from p(u);
    z'(u) drops the Z-labelled ones from Odd(p(u)).  The normal-form
    equations force both into the output set, so the strategy is extensive
    with respect to the empty order.
    """
    if not normal_form_equations_hold(og, p):
        raise ContractError("map does not satisfy the normal-form set equations")
    only_x = og.label_preimage(MeasurementLabel.X)
    only_z = og.label_preimage(MeasurementLabel.Z)
    x: Dict[int, int] = {}
    z: Dict[int, int] = {}
    for u in sorted(og.labels):
        x[u] = p[u] & ~(only_x | (1 << u))
        z[u] = odd_neighborhood(og.graph, p[u]) & ~(only_z | (1 << u))
    return CorrectionStrategy(x, z)


def parallel_measurement_order(og: OpenGraph, p: Mapping[int, int]) -> PartialOrder:
    """Measurement precedence implied by the corrections a depth-one strategy drops.

    The parallelized strategy omits corrections onto same-axis Pauli
    vertices (X on X-labelled members of p(u), Z on Z-labelled members of
    Odd(p(u))); the omission is harmless only once those vertices have been
    measured, so they must precede u.  Raises ContractError when the implied
    relation is cyclic.
    """
    only_x = og.label_preimage(MeasurementLabel.X)
    only_z = og.label_preimage(MeasurementLabel.Z)
    rows = [0] * og.n
    for u in sorted(og.labels):
        bit = 1 << u
        for v in members((p[u] & only_x | odd_neighborhood(og.graph, p[u]) & only_z) & ~bit):
            rows[v] |= bit
    try:
        return PartialOrder._close(og.n, rows)
    except ValueError as e:
        raise ContractError(f"dropped corrections imply a cyclic order: {e}") from e


def strategy_to_json(strategy: CorrectionStrategy, names: Tuple[str, ...]) -> dict:
    return {
        "x": {names[u]: [names[v] for v in members(m)]
              for u, m in sorted(strategy.x.items())},
        "z": {names[u]: [names[v] for v in members(m)]
              for u, m in sorted(strategy.z.items())},
    }


def strategy_from_json(doc: Union[str, dict], og: OpenGraph) -> CorrectionStrategy:
    doc = read_document(doc, "strategy", ("x", "z"))
    names = VertexNames(og.names)
    x, z = (names.masks(doc[key], key) for key in ("x", "z"))
    return CorrectionStrategy(x, z)
