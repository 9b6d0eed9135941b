"""Pauli operators, stabilizer groups, stabilizer runs and a robustness probe.

A Pauli operator is stored as i^phase * X_x * Z_z with bitmasks x, z and
phase mod 4.  Stabilizer states are n independent commuting Hermitian
generators; measurements update the generator list exactly (no sampling), so
every outcome branch can be explored.

A state is checked once, by its public constructor.  Graph states and
updates are built unchecked (`_unchecked`): each has n independent commuting
Hermitian generators (Aaronson & Gottesman 2004).  `apply_pauli` flips signs,
`reorder_generators` multiplies and swaps, and `collapse` multiplies the
generators anticommuting with m by the pivot (so they commute with m and stay
Hermitian) and puts +-m, checked by `measure_outcome`, in its place.

The probe decides all outcome branches of a Pauli run in one pass.  Which
generators anticommute with an observable or a correction depends only on
X/Z masks, and collapse and correction change only signs, so every branch
has the same X/Z structure: an outcome is random in all branches or
determined in all.  Each generator's sign is then an affine GF(2) form in the
outcome bits: collapse gives the pivot its outcome bit, a product XORs its
factors' forms (its phase adds a structure-only constant), and a correction
on outcome 1 adds the bit to each generator it anticommutes with.  The
output subgroup's signed group is fixed by the signs of a basis of supported
combinations, and every outcome vector occurs, so that group is the same in
every branch iff each basis combination's form is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractError
from .gf2 import echelon, mask_of, members, rank, solve
from .graphs import MeasurementLabel, OpenGraph
from .patterns import Angle, Mbqc, measurement_linearization


@dataclass(frozen=True)
class PauliOperator:
    """i^phase * X_x * Z_z on qubits 0..n-1 (n implicit in the masks)."""

    phase: int  # mod 4
    x: int
    z: int

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase % 4)

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        # Z_{z1} X_{x2} = (-1)^{|z1 & x2|} X_{x2} Z_{z1}
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliOperator(phase, self.x ^ other.x, self.z ^ other.z)

    def commutes(self, other: "PauliOperator") -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    @property
    def is_hermitian(self) -> bool:
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1 for a Hermitian operator relative to i^{|x&z|} X_x Z_z."""
        if not self.is_hermitian:
            raise ContractError("sign is only defined for Hermitian operators")
        return 1 if (self.phase - (self.x & self.z).bit_count()) % 4 == 0 else -1

    def negate(self) -> "PauliOperator":
        return PauliOperator(self.phase + 2, self.x, self.z)

    @classmethod
    def identity(cls) -> "PauliOperator":
        return cls(0, 0, 0)

    @classmethod
    def single(cls, axis: str, qubit: int, sign: int = 1) -> "PauliOperator":
        bit = 1 << qubit
        phase = 0 if sign > 0 else 2
        if axis == "X":
            return cls(phase, bit, 0)
        if axis == "Z":
            return cls(phase, 0, bit)
        if axis == "Y":
            return cls(phase + 1, bit, bit)  # Y = i X Z
        raise ValueError(f"unknown axis {axis!r}")

    def describe(self, n: int) -> str:
        sign = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase]
        body = []
        for q in range(n):
            xb, zb = (self.x >> q) & 1, (self.z >> q) & 1
            body.append({(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}[(xb, zb)])
        return sign + "".join(body)


def measurement_operator(label: MeasurementLabel, angle: Angle, qubit: int) -> PauliOperator:
    """Measured observable of a Pauli label as a signed single-qubit Pauli."""
    if not label.is_pauli:
        raise ContractError("only Pauli labels have a stabilizer observable")
    if not angle.is_zero_or_pi:
        raise ContractError(f"Pauli label needs an exact angle 0 or pi, got {angle}")
    sign = 1 if angle.exact % 2 == 0 else -1
    return PauliOperator.single(label.to_string(), qubit, sign)


@dataclass
class StabilizerState:
    """n commuting independent Hermitian generators on n qubits."""

    n: int
    generators: List[PauliOperator]

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise ContractError("need exactly n generators")
        for i, g in enumerate(self.generators):
            if not g.is_hermitian:
                raise ContractError(f"generator {i} is not Hermitian")
            if (g.x | g.z) >> self.n:
                raise ContractError(f"generator {i} acts outside the register")
            for h in self.generators[i + 1:]:
                if not g.commutes(h):
                    raise ContractError("generators must pairwise commute")
        if rank(g.x | (g.z << self.n) for g in self.generators) != self.n:
            raise ContractError("generators must be independent")

    @classmethod
    def _unchecked(cls, n: int, generators: List[PauliOperator]) -> "StabilizerState":
        """A state whose generators are valid by construction: not checked."""
        out = object.__new__(cls)
        out.n, out.generators = n, generators
        return out


def _product(generators: Sequence[PauliOperator], combo: int) -> PauliOperator:
    """Product of the generators whose indices are set in `combo`."""
    prod = PauliOperator.identity()
    for i in members(combo):
        prod = prod * generators[i]
    return prod


def _indexed_rows(generators: Sequence[PauliOperator], n: int) -> List[int]:
    """Row x | z << n of each generator i, with bit 2n + i marking it."""
    return [g.x | g.z << n | 1 << (2 * n + i) for i, g in enumerate(generators)]


def initial_stabilizers(og: OpenGraph, zero_inputs: int = 0) -> StabilizerState:
    """Graph state over og with the inputs in `zero_inputs` prepared in |0>.

    Qubits in `zero_inputs` (a subset of the inputs) keep the generator Z_u;
    every other qubit contributes X_u Z_{N(u)}.  Unchecked, as they are
    Hermitian (no self-loops), commute (N is symmetric; only X_u Z_{N(u)} has
    X on u) and are independent (a product's X part names its X-type factors).
    """
    if zero_inputs & ~og.inputs:
        raise ContractError("zero_inputs must be a subset of the inputs")
    gens = []
    for u in range(og.n):
        if (zero_inputs >> u) & 1:
            gens.append(PauliOperator(0, 0, 1 << u))
        else:
            gens.append(PauliOperator(0, 1 << u, og.graph.adjacency[u]))
    return StabilizerState._unchecked(og.n, gens)


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


# ---------------------------------------------------------------------------
# Robustness probe for Pauli-measured runs


def correction_operator(strategy, u: int) -> PauliOperator:
    """Pauli applied when the outcome at u is 1: X on x(u), Z on z(u)."""
    return PauliOperator(0, strategy.x[u], strategy.z[u])


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


def _pauli_instantiations(m: Mbqc) -> List[Dict[int, PauliOperator]]:
    """The settings of the labels: one X/Z observable per measured vertex.

    Pauli-labelled vertices keep their fixed observable; each {X,Z}-plane
    vertex takes +X or +Z, the first such vertex varying fastest.  Its -X and
    -Z instantiations need no settings of their own: an observable's sign
    moves only the phase constant of the generator it becomes, never which
    generators anticommute nor any sign form, so `_signed_run` gives every
    sign choice the verdict of its axes.  In the full +-X/+-Z enumeration
    (choices +X, -X, +Z, -Z, the first vertex fastest) each axis choice comes
    first with all signs +, and those settings come in the order of this
    list, so the first failing setting, the one the probe reports, is the
    same.
    """
    og = m.og
    fixed: Dict[int, PauliOperator] = {}
    free: List[int] = []
    for u, lab in sorted(og.labels.items()):
        if lab.is_pauli:
            fixed[u] = measurement_operator(lab, m.angles[u], u)
        else:
            free.append(u)
    out = []
    for combo in range(1 << len(free)):
        asg = dict(fixed)
        for k, u in enumerate(free):
            asg[u] = PauliOperator.single("Z" if combo >> k & 1 else "X", u)
        out.append(asg)
    return out


def _signed_run(m: Mbqc, order: Sequence[int], start: Sequence[PauliOperator],
                observables: Dict[int, PauliOperator]) -> Optional[str]:
    """The probe's verdict on one setting, for all outcome branches at once.

    Runs the branch-independent X/Z structure once; forms[i] is the linear
    part of generator i's sign over the outcome bits (bit u for the outcome
    at u), and its constant part stays in the operator's phase.
    """
    gens = list(start)
    forms = [0] * len(gens)
    for u in order:
        obs = observables[u]
        anti = [i for i, g in enumerate(gens) if not g.commutes(obs)]
        if not anti:
            return "deterministic outcome"
        pivot = anti[0]
        for i in anti[1:]:
            gens[i] = gens[i] * gens[pivot]
            forms[i] ^= forms[pivot]
        gens[pivot], forms[pivot] = obs, 1 << u  # -obs on outcome 1
        corr = correction_operator(m.strategy, u)
        for i, g in enumerate(gens):
            if not g.commutes(corr):
                forms[i] ^= 1 << u  # negated on outcome 1, as in apply_pauli
    for combo in _supported_combinations(gens, m.og.outputs, m.og.n):
        form = 0
        for i in members(combo):
            form ^= forms[i]
        if form:
            return "branch-dependent output state"
    return None


def pauli_robustness_probe(m: Mbqc) -> dict:
    """Fast necessary condition for robust determinism of a real MBQC.

    Enumerates every input setting (each input in |0> or |+>) and every +X/+Z
    instantiation of the {X,Z}-plane labels (their signs cannot change the
    verdict; see `_pauli_instantiations`); each measurement outcome must be
    uniformly random and all branches must end with the same signed
    stabilizer subgroup on the outputs.  The first failing setting, in that
    order, is reported.

    One symbolic run per setting decides all 2^|O^c| branches (see the module
    docstring): an outcome is determined in every branch or in none, and the
    output subgroups agree in every branch exactly when each supported
    combination's sign form is 0.  `pauli_runs` is the branch-exact oracle.
    """
    og = m.og
    if not og.is_real:
        raise ContractError("probe requires real labels (within {X, Z})")
    instantiations = _pauli_instantiations(m)
    order = measurement_linearization(m)
    ins = members(og.inputs)
    for zero_bits in range(1 << len(ins)):
        zero_inputs = mask_of(v for k, v in enumerate(ins) if (zero_bits >> k) & 1)
        start = initial_stabilizers(og, zero_inputs).generators
        for observables in instantiations:
            reason = _signed_run(m, order, start, observables)
            if reason is not None:
                return {"ok": False, "reason": reason,
                        "zero_inputs": [og.names[v] for v in members(zero_inputs)],
                        "observables": {og.names[u]: p.describe(og.n)
                                        for u, p in sorted(observables.items())}}
    return {"ok": True, "reason": None}
