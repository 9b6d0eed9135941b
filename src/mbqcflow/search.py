"""Search for Pauli flows: an exact layered GF(2) search plus an exhaustive oracle.

K_A(p) is Odd(p) for axis X, Odd(p) xor p for Y and p for Z.  A flow puts each
measured u in K_A(p(u)) and outside K_A(p(v)) for every measured v != u with
not(v < u), for each axis A of u's label.  `find_pauli_flow` peels layers
from the outputs inward: each round assigns p(u) to every vertex u of the
remaining set R whose system (u in its own K_A, every other w in R outside
its K_B) has a solution inside the input complement.

One elimination decides a round.  Its systems share their rows (one per axis
of each vertex of R) and differ only in the right-hand side (1 on u's own
rows), so the rows are eliminated once with one right-hand-side bit per
vertex of R.  u is unsolvable exactly when its bit survives on a row
eliminated to zero; otherwise p(u) is the reduced-echelon solution, zero on
every free column.  Each pivot is its row's highest bit, so the reduced form
depends only on the row space, and p(u) is what `gf2.solve` returns for u's
system alone.

Soundness: the order puts v < u exactly when v was solved in a later round.
So every v != u with not(v < u) was solved while u was still in R, and p(v)
keeps u out of each K_A(p(v)).

Completeness (Mhalla & Perdrix 2008): in any flow, a vertex that is maximal
among R under its order solves its system for R, and the system depends only
on R.  So while a flow exists every round solves a vertex; a round that
solves none proves that no flow exists.  Which solution a round picks does
not matter to this argument.

`find_pauli_flow_bruteforce` decides existence by enumerating total orders
(any flow order extends to a total order, and coarser orders only weaken the
conditions); it is kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapacityError
from .flows import CorrectionFlow, PartialOrder
from .gf2 import echelon, mask_of, members
from .graphs import OpenGraph

BRUTE_FORCE_OC_BOUND = 6
BRUTE_FORCE_IC_BOUND = 8


@dataclass
class FlowSearchResult:
    """Search outcome: status is 'found' (with its flow) or 'none' (proved)."""

    status: str
    flow: Optional[CorrectionFlow] = None
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.status == "found"


def _candidate_tables(og: OpenGraph):
    """Odd neighbourhoods of every subset of the input complement.

    Returns (candidate masks in increasing value order, dict mask -> odd mask).
    """
    ic = members(og.non_inputs)
    odd = {0: 0}
    masks = [0]
    for v in ic:
        bit = 1 << v
        row = og.graph.adjacency[v]
        for m in list(masks):
            odd[m | bit] = odd[m] ^ row
            masks.append(m | bit)
    masks.sort()
    return masks, odd


def find_pauli_flow_bruteforce(
    og: OpenGraph,
    require_pairs: Sequence[Tuple[int, int]] = (),
    oc_bound: int = BRUTE_FORCE_OC_BOUND,
    ic_bound: int = BRUTE_FORCE_IC_BOUND,
) -> FlowSearchResult:
    """Exact existence decision by enumerating total orders of the measured set.

    For a fixed total order the conditions decouple per vertex: p(u) must put
    u in its own membership set and avoid the membership sets of every vertex
    measured before u.  `require_pairs` restricts the enumeration to orders
    containing the given a-before-b constraints.
    """
    oc = sorted(og.labels)
    ic_size = og.non_inputs.bit_count()
    if len(oc) > oc_bound or ic_size > ic_bound:
        raise CapacityError(
            f"brute force bounded to |O^c| <= {oc_bound} and |I^c| <= {ic_bound}")
    candidates, odd = _candidate_tables(og)
    stats = {"orders": 0, "candidate_tests": 0}
    if not oc:
        return FlowSearchResult(
            "found", CorrectionFlow({}, PartialOrder.empty(og.n)), stats)

    axis_mask = {a: og.axis_vertices(a) for a in "XYZ"}

    for perm in permutations(oc):
        if any(perm.index(a) >= perm.index(b) for a, b in require_pairs):
            continue
        stats["orders"] += 1
        chosen: Dict[int, int] = {}
        prefix = 0  # vertices measured before the current position
        ok = True
        for u in perm:
            fx = prefix & axis_mask["X"]
            fy = prefix & axis_mask["Y"]
            fz = prefix & axis_mask["Z"]
            axes = og.labels[u].axes
            bit = 1 << u
            best = None
            best_key = None
            for c in candidates:
                stats["candidate_tests"] += 1
                oc_mask = odd[c]
                codd = oc_mask ^ c
                if "X" in axes and not (oc_mask & bit):
                    continue
                if "Y" in axes and not (codd & bit):
                    continue
                if "Z" in axes and not (c & bit):
                    continue
                if oc_mask & fx or codd & fy or c & fz:
                    continue
                key = (c.bit_count(), c)
                if best_key is None or key < best_key:
                    best, best_key = c, key
            if best is None:
                ok = False
                break
            chosen[u] = best
            prefix |= bit
        if ok:
            flow = CorrectionFlow(chosen, PartialOrder.chain(og.n, perm))
            return FlowSearchResult("found", flow, stats)
    return FlowSearchResult("none", stats=stats)


def find_pauli_flow(og: OpenGraph) -> FlowSearchResult:
    """Decide whether `og` has a Pauli flow (exact; see the module docstring).

    One GF(2) elimination per round.  The vertices solved in one round share
    a layer; later layers are measured earlier.  p(u) is the reduced-echelon
    solution of u's system (free variables zero) at every size.  `stats`
    counts rounds and systems decided (the sum of |R| over the rounds).
    """
    ncols = og.n  # vertex-id columns: the empty input columns leave p unchanged
    adjacency = og.graph.adjacency

    def axis_rows(u: int) -> List[int]:
        sets = {"X": adjacency[u], "Y": adjacency[u] ^ (1 << u), "Z": 1 << u}
        return [sets[a] & og.non_inputs for a in "XYZ" if a in og.labels[u].axes]

    rows_of = {u: axis_rows(u) for u in og.labels}
    remaining = sorted(og.labels)
    chosen: Dict[int, int] = {}
    succ = [0] * og.n
    solved = 0  # vertices of earlier rounds: all of them are measured later
    stats = {"rounds": 0, "solves": 0}
    while remaining:
        stats["rounds"] += 1
        stats["solves"] += len(remaining)
        pivots, stuck = echelon([row | 1 << (ncols + k) for k, u in enumerate(remaining)
                                 for row in rows_of[u]], ncols)
        p = [0] * len(remaining)
        for col, row in pivots.items():
            for k in members((row >> ncols) & ~stuck):
                p[k] |= 1 << col
        layer = {u: p[k] for k, u in enumerate(remaining) if not stuck >> k & 1}
        if not layer:
            return FlowSearchResult("none", stats=stats)
        for u in layer:
            succ[u] = solved
        solved |= mask_of(layer)
        chosen.update(layer)
        remaining = [u for u in remaining if u not in layer]
    flow = CorrectionFlow(chosen, PartialOrder._closed(og.n, tuple(succ)))
    return FlowSearchResult("found", flow, stats)


def flow_depth(f: CorrectionFlow) -> int:
    """Length of the longest chain in the flow order (0 when empty): one
    less than the number of rounds that strip the minimal vertices."""
    todo, rounds = mask_of(f.p), 0
    while todo:
        todo &= ~f.order.minimal(todo)
        rounds += 1
    return max(rounds - 1, 0)
