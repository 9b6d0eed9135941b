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
factors' forms, and a correction on outcome 1 adds the bit to each generator
it anticommutes with.  Only the forms' linear parts can differ between
branches, so phases and constant parts are dropped.  The probe keeps this
tableau by qubit, as columns over the generator indices (the column layout
of Aaronson & Gottesman): xcol[b] and zcol[b] hold the generators with X and
with Z on qubit b, and fcol[v] those whose form holds outcome bit v.  The
generators anticommuting with X_u are zcol[u], those anticommuting with Z_u
are xcol[u], and a correction's are the XOR of zcol over its X targets and
xcol over its Z targets.  The products supported on the outputs are the
index sets orthogonal to every xcol[b] and zcol[b] off the outputs; every
outcome vector occurs, so the output group's signs are the same in every
branch iff each of their forms is 0, that is iff each fcol[v] lies in the
row space of those columns (the orthogonal complement of that set).  The
branch-exact runs it is checked against, one state per branch, live with
the tests (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ContractError
from .gf2 import echelon, mask_of, members, rank
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




# ---------------------------------------------------------------------------
# Robustness probe for Pauli-measured runs


def _pauli_instantiations(m: Mbqc) -> List[int]:
    """The settings of the labels, each the mask of the measured vertices
    observed in Z; every other measured vertex is observed in X.

    Pauli-labelled vertices keep their fixed axis; each {X,Z}-plane vertex
    takes +X or +Z, the first such vertex varying fastest.  Signs need no
    settings of their own: an observable's sign moves only the constant part
    of the sign form of the generator it becomes, never which generators
    anticommute nor any linear part, so `_signed_run` gives every sign choice
    the verdict of its axes.  In the full +-X/+-Z enumeration (choices +X,
    -X, +Z, -Z, the first vertex fastest) each axis choice comes first with
    all signs +, and those settings come in the order of this list, so the
    first failing setting, the one the probe reports, is the same.
    """
    labels = m.og.labels
    fixed = mask_of(u for u, lab in labels.items() if lab is MeasurementLabel.Z)
    free = [u for u, lab in sorted(labels.items()) if not lab.is_pauli]
    return [fixed | mask_of(u for k, u in enumerate(free) if combo >> k & 1)
            for combo in range(1 << len(free))]


def _signed_run(order: Sequence[int], xcol: List[int], zcol: List[int],
                zmeasured: int, targets: Dict[int, Tuple[List[int], List[int]]],
                outside: Sequence[int]) -> Optional[str]:
    """The probe's verdict on one setting, for all outcome branches at once.

    xcol and zcol are the start columns (see the module docstring); u is
    observed in Z when bit u of `zmeasured` is set, else in X.  The lowest
    anticommuting generator is the pivot: it multiplies the others and is
    replaced by the observable, with form bit u.  The correction of u on
    outcome 1, X on targets[u][0] and Z on targets[u][1], then flips u's bit
    in the forms of the generators it anticommutes with.
    """
    fcol = [0] * len(xcol)
    for u in order:
        z_observed = zmeasured >> u & 1
        anti = xcol[u] if z_observed else zcol[u]
        if not anti:
            return "deterministic outcome"
        pivot = anti & -anti
        # The other anticommuting generators times the pivot; the pivot cleared.
        xcol = [col ^ anti if col & pivot else col for col in xcol]
        zcol = [col ^ anti if col & pivot else col for col in zcol]
        fcol = [col ^ anti if col & pivot else col for col in fcol]
        (zcol if z_observed else xcol)[u] |= pivot
        flip = pivot  # -observable on outcome 1
        x_targets, z_targets = targets[u]
        for b in x_targets:
            flip ^= zcol[b]
        for b in z_targets:
            flip ^= xcol[b]
        fcol[u] = flip
    # The products supported on the outputs are the combinations orthogonal
    # to the rows xcol[b], zcol[b] of the other qubits; all their forms are 0
    # exactly when every fcol[v] lies in the row space of those rows.
    pivots, _ = echelon((col for b in outside for col in (xcol[b], zcol[b])), len(xcol))
    pivot_cols = mask_of(pivots)
    for form in fcol:
        while form & pivot_cols:  # reduced rows: each step clears one pivot column
            form ^= pivots[(form & pivot_cols).bit_length() - 1]
        if form:
            return "branch-dependent output state"
    return None


def _observable(m: Mbqc, u: int, zmeasured: int) -> PauliOperator:
    """The signed observable of u in the setting `zmeasured`."""
    label = m.og.labels[u]
    if label.is_pauli:
        return measurement_operator(label, m.angles[u], u)
    return PauliOperator.single("Z" if zmeasured >> u & 1 else "X", u)


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
    output subgroups agree in every branch exactly when each outcome bit's
    column lies in the row space of the non-output columns.  `pauli_runs` in
    `tests/oracles.py` is the branch-exact oracle.
    """
    og = m.og
    if not og.is_real:
        raise ContractError("probe requires real labels (within {X, Z})")
    instantiations = _pauli_instantiations(m)
    order = measurement_linearization(m)
    targets = {u: (members(m.strategy.x[u]), members(m.strategy.z[u])) for u in order}
    outside = members(og.measured)
    adjacency = og.graph.adjacency
    ins = members(og.inputs)
    for zero_bits in range(1 << len(ins)):
        zero_inputs = mask_of(v for k, v in enumerate(ins) if (zero_bits >> k) & 1)
        # initial_stabilizers by qubit: X_b Z_N(b) for b in |+>, Z_b for b in |0>
        xcol = [0 if zero_inputs >> b & 1 else 1 << b for b in range(og.n)]
        zcol = [adjacency[b] & ~zero_inputs | zero_inputs & 1 << b for b in range(og.n)]
        for zmeasured in instantiations:
            reason = _signed_run(order, xcol, zcol, zmeasured, targets, outside)
            if reason is not None:
                return {"ok": False, "reason": reason,
                        "zero_inputs": [og.names[v] for v in members(zero_inputs)],
                        "observables": {og.names[u]: _observable(m, u, zmeasured).describe(og.n)
                                        for u in sorted(og.labels)}}
    return {"ok": True, "reason": None}
