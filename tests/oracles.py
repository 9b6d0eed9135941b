"""Branch-exact stabilizer runs and dense-vector helpers: the test oracles
of `mbqcflow.stabilizer`.

The library ships only the probe, which decides every outcome branch of a
Pauli run in one symbolic pass.  `pauli_runs` runs each branch as its own
stabilizer state, and `state_distance` compares such a state with a dense
state vector from the simulator; numpy is needed only for the latter.
`_supported_combinations` and `correction_operator` are the by-generator
forms of what the probe reads off its per-qubit columns.

Updates are built unchecked (`StabilizerState._unchecked`).  `apply_pauli`
flips signs, `reorder_generators` multiplies and swaps, and `collapse`
multiplies the generators anticommuting with m by the pivot (so they commute
with m and stay Hermitian) and puts +-m, checked by `measure_outcome`, in its
place.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from mbqcflow.errors import ContractError
from mbqcflow.gf2 import echelon, mask_of, members, solve
from mbqcflow.patterns import Mbqc, measurement_linearization
from mbqcflow.stabilizer import (PauliOperator, StabilizerState,
                                 initial_stabilizers, measurement_operator)


def _supported_combinations(generators: Sequence[PauliOperator], support: int,
                           n: int) -> List[int]:
    """Basis of the index sets (bitmasks over `generators`) whose product
    acts only inside `support`: the nullspace of the generators' X and Z bits
    on the n - |support| qubits outside it."""
    rows = []
    for b in members(((1 << n) - 1) & ~support):
        rows.append(mask_of(i for i, g in enumerate(generators) if (g.x >> b) & 1))
        rows.append(mask_of(i for i, g in enumerate(generators) if (g.z >> b) & 1))
    sol = solve(rows, [0] * len(rows), len(generators))
    assert sol is not None  # homogeneous system
    return sol[1]


def correction_operator(strategy, u: int) -> PauliOperator:
    """Pauli applied when the outcome at u is 1: X on x(u), Z on z(u)."""
    return PauliOperator(0, strategy.x[u], strategy.z[u])


def _product(generators: Sequence[PauliOperator], combo: int) -> PauliOperator:
    """Product of the generators whose indices are set in `combo`."""
    prod = PauliOperator.identity()
    for i in members(combo):
        prod = prod * generators[i]
    return prod


def _indexed_rows(generators: Sequence[PauliOperator], n: int) -> List[int]:
    """Row x | z << n of each generator i, with bit 2n + i marking it."""
    return [g.x | g.z << n | 1 << (2 * n + i) for i, g in enumerate(generators)]


def apply_pauli(state: StabilizerState, p: PauliOperator) -> StabilizerState:
    """Conjugate the state by a Pauli unitary: anticommuting generators flip sign."""
    gens = [g if g.commutes(p) else g.negate() for g in state.generators]
    return StabilizerState._unchecked(state.n, gens)


def measure_outcome(state: StabilizerState, m: PauliOperator) -> Optional[int]:
    """0/1 when measuring m has a determined outcome, None when uniform.

    m must be Hermitian and inside the register.  If it commutes with all n
    independent generators, it is up to phase a product of them, and that
    product is Hermitian like m, so the two phases differ by 0 or 2."""
    if not m.is_hermitian:
        raise ContractError("measurement operator must be Hermitian")
    if (m.x | m.z) >> state.n:
        raise ContractError("measurement operator acts outside the register")
    if any(not g.commutes(m) for g in state.generators):
        return None
    n = state.n
    pivots, combo = echelon(_indexed_rows(state.generators, n) + [m.x | m.z << n], 2 * n)
    assert len(pivots) == n  # m's row reduced to zero: m is in the span
    return 0 if _product(state.generators, combo).phase == m.phase else 1


def collapse(state: StabilizerState, m: PauliOperator, outcome: int) -> StabilizerState:
    """Post-measurement state for the branch with the given outcome bit; m is
    checked by `measure_outcome`.  A determined outcome returns the state."""
    det = measure_outcome(state, m)
    if det is not None:
        if det != outcome:
            raise ContractError("collapse onto a zero-probability branch")
        return state
    anti = [i for i, g in enumerate(state.generators) if not g.commutes(m)]
    pivot = anti[0]
    gens = list(state.generators)
    for i in anti[1:]:
        gens[i] = gens[i] * gens[pivot]
    gens[pivot] = m if outcome == 0 else m.negate()
    return StabilizerState._unchecked(state.n, gens)


def reorder_generators(state: StabilizerState,
                       measurements: Sequence[PauliOperator]) -> StabilizerState:
    """Rewrite the generator list so generator i anticommutes with measurement
    i (when any generator from position i on does) and later generators
    commute with it.

    For each i in order: among positions j >= i whose generator anticommutes
    with measurements[i], the first is the pivot; it multiplies the others and
    is swapped into position i.  The group is unchanged.
    """
    gens = list(state.generators)
    for i, m in enumerate(measurements):
        if i >= len(gens):
            break
        anti = [j for j in range(i, len(gens)) if not gens[j].commutes(m)]
        if not anti:
            continue
        pivot = anti[0]
        for j in anti[1:]:
            gens[j] = gens[j] * gens[pivot]
        gens[i], gens[pivot] = gens[pivot], gens[i]
    return StabilizerState._unchecked(state.n, gens)


def canonical_generators(generators: Sequence[PauliOperator], n: int) -> Tuple[PauliOperator, ...]:
    """Unique generating set of the signed group: one product per echelon pivot.

    Two generator lists span the same signed stabilizer group exactly when
    their canonical forms are equal.
    """
    pivots, _ = echelon(_indexed_rows(generators, n), 2 * n)
    return tuple(_product(generators, pivots[col] >> 2 * n) for col in sorted(pivots))


def restricted_generators(state: StabilizerState, support: int) -> List[PauliOperator]:
    """Generators of the subgroup acting only inside `support`.

    Solves for all generator products whose X and Z masks vanish outside the
    support; the result still acts on the full register.
    """
    return [_product(state.generators, combo)
            for combo in _supported_combinations(state.generators, support, state.n)]


def output_group_signature(state: StabilizerState, outputs: int) -> Tuple[PauliOperator, ...]:
    """Canonical form of the subgroup supported on the output qubits."""
    return canonical_generators(restricted_generators(state, outputs), state.n)


# ---------------------------------------------------------------------------
# Dense-vector interface (for cross-checking against the simulator)


def _parity(indices: np.ndarray, mask: int) -> np.ndarray:
    p = np.zeros_like(indices)
    for b in members(mask):
        p ^= (indices >> b) & 1
    return p


def apply_pauli_to_vector(p: PauliOperator, psi: np.ndarray) -> np.ndarray:
    """(i^phase X_x Z_z) psi on a little-endian 2^n state vector."""
    idx = np.arange(psi.shape[0])
    src = idx ^ p.x
    signs = 1.0 - 2.0 * _parity(src, p.z)
    return (1j ** p.phase) * signs * psi[src]


def projector_overlap(psi: np.ndarray, generators: Sequence[PauliOperator]) -> float:
    """<psi| P |psi> for P the projector onto the joint +1 eigenspace."""
    phi = np.asarray(psi, dtype=complex)
    for g in generators:
        phi = (phi + apply_pauli_to_vector(g, phi)) / 2
    return float(np.real(np.vdot(psi, phi)))


def state_distance(psi: np.ndarray, state: StabilizerState) -> float:
    """Projector infidelity 1 - <psi|P|psi> of a normalized psi with the
    (rank-one) stabilizer projector P.

    Zero exactly when psi lies in the joint +1 eigenspace; unlike norm-based
    distances there is no square root to amplify rounding noise, so exact
    matches stay at machine epsilon.
    """
    overlap = min(1.0, max(0.0, projector_overlap(psi, state.generators)))
    return float(1.0 - overlap)


def pauli_runs(
    m: Mbqc,
    zero_inputs: int,
    observables: Optional[Dict[int, PauliOperator]] = None,
) -> List[Tuple[Dict[int, int], StabilizerState]]:
    """All outcome branches of a Pauli run with corrections applied.

    Branch-exact: each branch is its own state, run by `collapse` and
    `apply_pauli`.  It is the oracle for the probe's symbolic run and is
    checked against the dense simulator.

    `observables` overrides the measured operator per vertex (used to
    instantiate plane labels); by default every label must be a Pauli axis
    with an exact angle.  Returns (outcome map, final state) per branch;
    measured qubits stay in the register.
    """
    og = m.og
    if observables is None:
        if not og.all_pauli:
            raise ContractError("stabilizer runs need Pauli labels everywhere")
        observables = {u: measurement_operator(og.labels[u], m.angles[u], u)
                       for u in og.labels}
    order = measurement_linearization(m)
    start = initial_stabilizers(og, zero_inputs)
    branches: List[Tuple[Dict[int, int], StabilizerState]] = [({}, start)]
    for u in order:
        obs = observables[u]
        corr = correction_operator(m.strategy, u)
        nxt: List[Tuple[Dict[int, int], StabilizerState]] = []
        for outcomes, state in branches:
            det = measure_outcome(state, obs)
            results = (det,) if det is not None else (0, 1)
            for s in results:
                post = collapse(state, obs, s)
                if s:
                    post = apply_pauli(post, corr)
                nxt.append(({**outcomes, u: s}, post))
        branches = nxt
    return branches

