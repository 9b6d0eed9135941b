"""Dense state-vector execution of patterns and determinism checks.

States are numpy tensors with one axis of size 2 per live qubit plus a final
axis of input columns, so a pattern run computes every branch map A_s (one
per outcome string) as a 2^{|O|} x 2^{|I|} matrix.  Row/column indices are
little-endian over the sorted qubit ids.

Determinism is tested per input vector (branch outputs pairwise proportional),
strong determinism adds equal norms; on real open graphs the test vectors are
real, since branch phases may legitimately depend on the input there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, ContractError
from .gf2 import members
from .graphs import MeasurementLabel, OpenGraph
from .patterns import (Angle, CorrectX, CorrectZ, Entangle, Measure, Mbqc, New,
                       Pattern, measurement_order, to_pattern, validate)
from .synthesis import CorrectionStrategy

DEFAULT_CAPACITY = 12
DEFAULT_TOL = 1e-9

_SQRT_HALF = 1 / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _bloch_vector(label: MeasurementLabel, angle: Angle) -> Tuple[float, float, float]:
    c, s = math.cos(angle.radians), math.sin(angle.radians)
    if label is MeasurementLabel.XY:
        return (c, s, 0.0)
    if label is MeasurementLabel.YZ:
        return (0.0, c, s)
    if label is MeasurementLabel.XZ:
        return (s, 0.0, c)  # cos a Z + sin a X
    if not angle.is_zero_or_pi:
        raise ContractError(
            f"label {label.to_string()} needs an exact angle 0 or pi, got {angle}")
    sign = 1.0 if angle.exact % 2 == 0 else -1.0
    if label is MeasurementLabel.X:
        return (sign, 0.0, 0.0)
    if label is MeasurementLabel.Y:
        return (0.0, sign, 0.0)
    return (0.0, 0.0, sign)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    for a in v:
        if abs(a) > 1e-12:
            return v * (a.conjugate() / abs(a))
    return v


def eigenpair(label: MeasurementLabel, angle: Angle) -> Tuple[np.ndarray, np.ndarray]:
    """(+1, -1) eigenvectors of the measured observable.

    The observable is n.(X, Y, Z) with n the Bloch vector of the label/angle
    pair.  Each eigenvector is normalized with its first non-negligible
    amplitude real positive.
    """
    nx, ny, nz = _bloch_vector(label, angle)
    theta = math.atan2(math.hypot(nx, ny), nz)
    phi = math.atan2(ny, nx)
    e = complex(math.cos(phi), math.sin(phi))
    plus = np.array([math.cos(theta / 2), e * math.sin(theta / 2)], dtype=complex)
    minus = np.array([math.sin(theta / 2), -e * math.cos(theta / 2)], dtype=complex)
    return _fix_phase(plus), _fix_phase(minus)


@dataclass
class Branch:
    """One measurement branch: outcome bits and the resulting (unnormalized)
    state matrix over the surviving qubits."""

    outcomes: Dict[int, int]
    order: Tuple[int, ...]
    qubits: Tuple[int, ...]  # sorted ids of surviving qubits, little-endian rows
    state: np.ndarray  # shape (2**len(qubits), n_input_columns)

    @property
    def key(self) -> Tuple[int, ...]:
        return tuple(self.outcomes[u] for u in self.order)


def _apply_single(state: np.ndarray, ax: int, gate: np.ndarray) -> np.ndarray:
    out = np.tensordot(gate, state, axes=([1], [ax]))
    return np.moveaxis(out, 0, ax)


def run_pattern(
    pat: Pattern,
    input_state: Optional[np.ndarray] = None,
    keep_measured: bool = False,
    capacity: int = DEFAULT_CAPACITY,
) -> List[Branch]:
    """Execute every branch of a valid pattern.

    `input_state` is a 2^{|I|} x d matrix of input columns (little-endian over
    the sorted input ids); the default is the identity, so each branch state
    is the branch map itself.  With `keep_measured` qubits stay in their
    post-measurement eigenstate instead of being traced out.
    """
    verdict = validate(pat)
    if not verdict:
        raise ContractError(f"pattern is not valid: {verdict.message}")
    ins = members(pat.inputs)
    d_in = 1 << len(ins)
    if input_state is None:
        input_state = np.eye(d_in, dtype=complex)
    else:
        input_state = np.asarray(input_state, dtype=complex)
        if input_state.ndim == 1:
            input_state = input_state[:, None]
        if input_state.shape[0] != d_in:
            raise ContractError(
                f"input state must have 2**{len(ins)} rows, got {input_state.shape[0]}")
    ncols = input_state.shape[1]
    # Axis i of the initial tensor carries bit len(ins)-1-i of the row index,
    # i.e. input qubit ins[len(ins)-1-i].
    state = input_state.reshape((2,) * len(ins) + (ncols,))
    axes = [ins[len(ins) - 1 - i] for i in range(len(ins))]
    if len(axes) > capacity:
        raise CapacityError(f"simulation bounded to {capacity} qubits")

    plus = np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex)
    results: List[Branch] = []

    def finish(state, axes, outcomes, order):
        keep = sorted(axes)
        perm = [axes.index(q) for q in reversed(keep)] + [len(axes)]
        mat = np.transpose(state, perm).reshape((1 << len(keep), ncols))
        results.append(Branch(dict(outcomes), tuple(order), tuple(keep), mat))

    def run(state, axes, i, outcomes, order):
        while i < len(pat.commands):
            cmd = pat.commands[i]
            i += 1
            if isinstance(cmd, New):
                if len(axes) + 1 > capacity:
                    raise CapacityError(f"simulation bounded to {capacity} qubits")
                state = np.multiply.outer(plus, state)
                axes = [cmd.qubit] + axes
            elif isinstance(cmd, Entangle):
                sl = [slice(None)] * state.ndim
                sl[axes.index(cmd.a)] = 1
                sl[axes.index(cmd.b)] = 1
                state = state.copy()
                state[tuple(sl)] *= -1
            elif isinstance(cmd, Measure):
                ax = axes.index(cmd.qubit)
                vecs = eigenpair(cmd.label, cmd.angle)
                for bit, v in enumerate(vecs):
                    if keep_measured:
                        proj = np.outer(v, v.conjugate())
                        sub = _apply_single(state, ax, proj)
                        sub_axes = list(axes)
                    else:
                        sub = np.tensordot(v.conjugate(), state, axes=([0], [ax]))
                        sub_axes = axes[:ax] + axes[ax + 1:]
                    run(sub, sub_axes, i, {**outcomes, cmd.qubit: bit},
                        order + [cmd.qubit])
                return
            elif isinstance(cmd, CorrectX):
                if outcomes[cmd.signal]:
                    state = _apply_single(state, axes.index(cmd.qubit), _X)
            elif isinstance(cmd, CorrectZ):
                if outcomes[cmd.signal]:
                    state = _apply_single(state, axes.index(cmd.qubit), _Z)
        finish(state, axes, outcomes, order)

    run(state, axes, 0, {}, [])
    return results


def branch_map(pat: Pattern, capacity: int = DEFAULT_CAPACITY) -> Dict[Tuple[int, ...], np.ndarray]:
    """Branch maps keyed by outcome bits in measurement order."""
    return {b.key: b.state for b in run_pattern(pat, capacity=capacity)}


def branches_complete(branches: Sequence[Branch], tol: float = DEFAULT_TOL) -> bool:
    """Sum of A_s^dagger A_s over all branches is the identity."""
    if not branches:
        return False
    d = branches[0].state.shape[1]
    acc = np.zeros((d, d), dtype=complex)
    for b in branches:
        acc += b.state.conj().T @ b.state
    return bool(np.allclose(acc, np.eye(d), atol=tol))


def _test_vectors(d: int, real: bool, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cols = [np.eye(d)]
    cols.append(np.full((d, 1), 1 / math.sqrt(d)))
    r = rng.normal(size=(d, 2))
    if not real:
        r = r + 1j * rng.normal(size=(d, 2))
    cols.append(r / np.linalg.norm(r, axis=0))
    return np.hstack(cols).astype(complex)


def _proportional(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= tol or nb <= tol:
        return True
    return abs(abs(np.vdot(a, b)) - na * nb) <= tol * na * nb + tol


def check_deterministic(pat: Pattern, tol: float = DEFAULT_TOL, seed: int = 0,
                        capacity: int = DEFAULT_CAPACITY) -> bool:
    """Every input is sent, up to scale, to the same output on all branches."""
    d_in = 1 << pat.inputs.bit_count()
    tests = _test_vectors(d_in, real=False, seed=seed)
    branches = run_pattern(pat, input_state=tests, capacity=capacity)
    ref = branches[0].state
    for b in branches[1:]:
        for j in range(tests.shape[1]):
            if not _proportional(ref[:, j], b.state[:, j], tol):
                return False
    return True


def check_strong_deterministic(pat: Pattern, tol: float = DEFAULT_TOL,
                               real_inputs: bool = False, seed: int = 0,
                               capacity: int = DEFAULT_CAPACITY) -> bool:
    """Determinism with all branches equally likely on every input.

    In the default (complex-input) mode the branch maps must agree up to one
    global phase.  With `real_inputs` the phase may depend on the input, so
    the check is per real test vector: proportional and equal norm.
    """
    d_in = 1 << pat.inputs.bit_count()
    if real_inputs:
        tests = _test_vectors(d_in, real=True, seed=seed)
        branches = run_pattern(pat, input_state=tests, capacity=capacity)
        ref = branches[0].state
        for b in branches[1:]:
            for j in range(tests.shape[1]):
                a, c = ref[:, j], b.state[:, j]
                if abs(np.linalg.norm(a) - np.linalg.norm(c)) > tol:
                    return False
                if not _proportional(a, c, tol):
                    return False
        return True
    branches = run_pattern(pat, capacity=capacity)
    ref = branches[0].state
    idx = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    if abs(ref[idx]) <= tol:
        return all(np.allclose(b.state, 0, atol=tol) for b in branches)
    for b in branches[1:]:
        c = b.state[idx] / ref[idx]
        if abs(abs(c) - 1) > tol:
            return False
        if not np.allclose(b.state, c * ref, atol=tol):
            return False
    return True


def _lowersets(vertices: Sequence[int], order) -> List[Tuple[int, ...]]:
    """All downward-closed subsets of the measured vertices."""
    out = []
    vs = list(vertices)
    for mask in range(1 << len(vs)):
        sel = {vs[i] for i in range(len(vs)) if (mask >> i) & 1}
        if all(not (order.less(u, v) and u not in sel) for v in sel for u in vs):
            out.append(tuple(sorted(sel)))
    return out


def _truncate(m: Mbqc, keep: Sequence[int]) -> OpenGraph:
    og = m.og
    drop = og.measured
    for u in keep:
        drop &= ~(1 << u)
    return OpenGraph(og.graph, og.inputs, og.outputs | drop,
                     {u: og.labels[u] for u in keep}, og.names)


def _angle_assignments(m: Mbqc, keep: Sequence[int], samples: int, seed: int) -> List[Dict[int, Angle]]:
    """Angle choices for a truncation: fixed grid plus random draws.

    Pauli-labelled vertices only ever take the exact angles 0 and pi.
    """
    rng = np.random.default_rng(seed)
    og = m.og
    out: List[Dict[int, Angle]] = []

    def build(planar_angle: Optional[Angle], pauli_mode: str) -> Dict[int, Angle]:
        asg = {}
        for u in keep:
            if og.labels[u].is_pauli:
                if pauli_mode == "zero":
                    asg[u] = Angle.from_fraction(0)
                elif pauli_mode == "pi":
                    asg[u] = Angle.from_fraction(1)
                elif pauli_mode == "random":
                    asg[u] = Angle.from_fraction(int(rng.integers(2)))
                else:
                    asg[u] = m.angles[u]
            elif planar_angle is None:
                asg[u] = m.angles[u]
            else:
                asg[u] = planar_angle
        return asg

    out.append(build(None, "original"))
    out.append(build(Angle.from_fraction(0), "zero"))
    out.append(build(Angle.from_fraction(1), "pi"))
    out.append(build(Angle.from_fraction(1, 4), "original"))
    out.append(build(Angle.from_fraction(1, 2), "original"))
    for _ in range(samples):
        asg = {}
        for u in keep:
            if og.labels[u].is_pauli:
                asg[u] = Angle.from_fraction(int(rng.integers(2)))
            else:
                asg[u] = Angle.from_radians(float(rng.uniform(0, 2 * math.pi)))
        out.append(asg)
    return out


def check_robust_deterministic(m: Mbqc, angle_samples: int = 20, seed: int = 0,
                               tol: float = DEFAULT_TOL,
                               capacity: int = DEFAULT_CAPACITY,
                               order=None) -> dict:
    """Strong determinism of every lowerset truncation under sampled angles.

    Truncations are downward-closed sets of the strategy-induced order,
    joined with `order` when one is given.  Passing the measurement order a
    strategy was synthesized for restricts the truncations to abort points
    of the actual computation; corrections deliberately dropped onto
    earlier-measured same-axis Pauli vertices are only sound there.

    Returns a JSON-able report {"ok", "checks", "failure"}; `failure` names
    the offending truncation and angle assignment when one is found.
    """
    og = m.og
    induced = measurement_order(m, order)
    real_mode = og.is_real
    checks = 0
    for keep in _lowersets(sorted(og.labels), induced):
        sub_og = _truncate(m, keep)
        sub_strategy = CorrectionStrategy(
            {u: m.strategy.x[u] for u in keep},
            {u: m.strategy.z[u] for u in keep})
        for angles in _angle_assignments(m, keep, angle_samples, seed + len(keep)):
            sub = Mbqc(sub_og, angles, sub_strategy)
            pat = to_pattern(sub, order)
            checks += 1
            if not check_strong_deterministic(pat, tol=tol, real_inputs=real_mode,
                                              seed=seed, capacity=capacity):
                return {
                    "ok": False,
                    "checks": checks,
                    "failure": {
                        "measured": [og.names[u] for u in keep],
                        "angles": {og.names[u]: str(a) for u, a in angles.items()},
                        "real_inputs": real_mode,
                    },
                }
    return {"ok": True, "checks": checks, "failure": None}
