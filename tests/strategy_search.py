"""Exhaustive refutation of correction strategies on real open graphs.

`refute_all_strategies` proves that NO extensive correction strategy makes an
open graph's MBQC robustly deterministic, without enumerating the strategy
space directly.  It searches depth-first over linear measurement orders while
tracking the all-outcomes-zero stabilizer state (which no correction ever
touches) for every input setting and Pauli instantiation of the labels:

* Every extensive strategy admits a linearization of its induced order, and
  every prefix of that linearization is a lowerset, hence a truncation that
  robust determinism requires to be strongly deterministic.
* Strong determinism of the prefix ending at u forces (a) the outcome at u to
  be uniform on the zero path and (b) the correction Pauli C(u) -- whose
  support can only contain vertices not yet measured -- to map the outcome-1
  stabilizer group onto the outcome-0 group: C(u) must anticommute with the
  measured observable and commute with every other generator of the collapsed
  state.  Condition (b) is an affine GF(2) system in the X/Z masks of C(u).
* Both conditions are necessary, and the system only relaxes the strategy's
  actual support constraint, so if every linear order dies at some prefix
  under some setting, every extensive strategy fails on some truncation.

A surviving order is returned as a witness (the instance may then admit a
robustly deterministic strategy; with a Pauli flow it certainly does).
"""

from itertools import product
from typing import Dict, List, Optional, Tuple

from mbqcflow.gf2 import mask_of, members, solve
from mbqcflow.graphs import MeasurementLabel, OpenGraph
from mbqcflow.stabilizer import (PauliOperator, StabilizerState,
                                 initial_stabilizers)

from oracles import (_product, _supported_combinations, collapse,
                     measure_outcome)

_CHOICES = {
    MeasurementLabel.X: (("X", 1), ("X", -1)),
    MeasurementLabel.Z: (("Z", 1), ("Z", -1)),
    MeasurementLabel.XZ: (("X", 1), ("X", -1), ("Z", 1), ("Z", -1)),
}


def observable_choices(label: MeasurementLabel, qubit: int) -> Tuple[PauliOperator, ...]:
    """Signed Pauli observables a real label can be instantiated to."""
    if label not in _CHOICES:
        raise ValueError(f"label {label.to_string()} is not real")
    return tuple(PauliOperator.single(axis, qubit, sign)
                 for axis, sign in _CHOICES[label])


def _correction_feasible(states: List[StabilizerState],
                         observables: List[PauliOperator],
                         support: int, n: int) -> bool:
    """Is there one Pauli C with the given support mapping, for every
    (state, m) pair, the outcome-1 branch onto the outcome-0 branch on the
    not-yet-measured qubits (the measured ones are discarded)?

    The two branches share every generator except the signed observable, so
    an element h of the subgroup supported on `support` picks up a relative
    sign exactly when its expansion uses the observable generator; C must
    reproduce that sign: symplectic(C, h) = [expansion of h uses m].

    Variables: bit b of C.x is column b, bit b of C.z is column n + b.
    symplectic(C, g) = |C.x & g.z| + |C.z & g.x| parity = row (g.z | g.x<<n).
    """
    rows: List[int] = []
    rhs: List[int] = []
    outside = ((1 << n) - 1) & ~support
    for b in members(outside):
        rows.append(1 << b)
        rhs.append(0)
        rows.append(1 << (n + b))
        rhs.append(0)
    for state, m in zip(states, observables):
        post = collapse(state, m, 0)
        gens = post.generators
        # the collapsed state holds the (signed) observable itself as one
        # generator; independence makes the unsigned match unique
        pivot = next(i for i, g in enumerate(gens)
                     if g.x == m.x and g.z == m.z)
        for combo in _supported_combinations(gens, support, n):
            h = _product(gens, combo)
            rows.append(h.z | (h.x << n))
            rhs.append((combo >> pivot) & 1)
    return solve(rows, rhs, 2 * n) is not None


def refute_all_strategies(og: OpenGraph) -> Optional[Tuple[int, ...]]:
    """None when no extensive strategy can be robustly deterministic;
    otherwise a surviving measurement order (inconclusive witness)."""
    n = og.n
    measured = sorted(og.labels)
    ins = members(og.inputs)

    # Root settings: one per |0>/|+> input preparation.  Observables are
    # instantiated lazily as vertices enter the prefix, so settings that only
    # differ outside the prefix are never duplicated.
    roots = []
    for zero_bits in range(1 << len(ins)):
        zero_inputs = mask_of(v for k, v in enumerate(ins)
                              if (zero_bits >> k) & 1)
        roots.append(initial_stabilizers(og, zero_inputs))

    def extend(states: List[StabilizerState], prefix: Tuple[int, ...],
               remaining: List[int]) -> Optional[Tuple[int, ...]]:
        if not remaining:
            return prefix
        for u in remaining:
            choices = observable_choices(og.labels[u], u)
            next_states: List[StabilizerState] = []
            next_obs: List[PauliOperator] = []
            dead = False
            for state in states:
                for m in choices:
                    if measure_outcome(state, m) is not None:
                        dead = True  # zero path hits a certain outcome
                        break
                    next_states.append(state)
                    next_obs.append(m)
                if dead:
                    break
            if dead:
                continue
            support = ((1 << n) - 1) & ~mask_of(prefix + (u,))
            if not _correction_feasible(next_states, next_obs, support, n):
                continue
            collapsed = [collapse(s, m, 0)
                         for s, m in zip(next_states, next_obs)]
            witness = extend(collapsed, prefix + (u,),
                             [v for v in remaining if v != u])
            if witness is not None:
                return witness
        return None

    return extend(roots, (), measured)


# ---------------------------------------------------------------------------
# Literal strategy enumeration (tiny instances only; used to cross-validate
# the refuter in the test suite).


def _acyclic(targets: Dict[int, int], measured: List[int]) -> bool:
    succ = {u: targets[u] for u in measured}
    color = {}

    def visit(u):
        color[u] = 1
        for v in members(succ[u]):
            if v in succ:
                if color.get(v) == 1:
                    return False
                if v not in color and not visit(v):
                    return False
        color[u] = 2
        return True

    return all(visit(u) for u in measured if u not in color)


def enumerate_extensive_strategies(og: OpenGraph):
    """All extensive (x, z) strategies; exponential, keep |O^c| <= 2."""
    measured = sorted(og.labels)
    universe = (1 << og.n) - 1
    for xs in product(range(universe + 1), repeat=len(measured)):
        for zs in product(range(universe + 1), repeat=len(measured)):
            x = dict(zip(measured, xs))
            z = dict(zip(measured, zs))
            if any((x[u] | z[u]) & (1 << u) for u in measured):
                continue
            targets = {u: (x[u] | z[u]) & og.measured for u in measured}
            if not _acyclic(targets, measured):
                continue
            yield x, z
