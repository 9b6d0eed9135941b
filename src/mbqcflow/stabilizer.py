"""Pauli operators, stabilizer states and a robustness probe for real MBQC.

A Pauli operator is stored as i^phase * X_x * Z_z with bitmasks x, z and
phase mod 4.  A stabilizer state is n independent commuting Hermitian
generators (Aaronson & Gottesman 2004), checked once by its public
constructor; graph states are valid by construction and built unchecked
(`_unchecked`).  All arithmetic here is on integer bitmasks.

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
every branch iff each basis combination's form is 0.  The branch-exact runs
it is checked against, one state per branch, live with the tests
(`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .errors import ContractError
from .gf2 import mask_of, members, rank, solve
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


# ---------------------------------------------------------------------------
# Robustness probe for Pauli-measured runs


def correction_operator(strategy, u: int) -> PauliOperator:
    """Pauli applied when the outcome at u is 1: X on x(u), Z on z(u)."""
    return PauliOperator(0, strategy.x[u], strategy.z[u])


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
                forms[i] ^= 1 << u  # conjugated by corr on outcome 1
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
    combination's sign form is 0.  `pauli_runs` in `tests/oracles.py` is the
    branch-exact oracle.
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
