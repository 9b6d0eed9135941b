"""Dense state-vector execution of patterns and determinism checks.

One engine runs a pattern on every outcome branch, and on a stack of
measurement-angle assignments, at once.  Its tensor has these axes, in order:

* one angle-assignment axis A (size 1 until the first measurement
  broadcasts it out);
* one outcome axis of size 2 per measurement done so far;
* one axis of size 2 per live qubit;
* one axis of input columns.

`N` stacks a |+> axis and `E` flips the sign of its (1, 1) slice.  `M u`
moves u's axis to the front and contracts it, in one batched matmul, with
the (A, 2, 2) stack of conjugated (+, -) eigenvectors; the contracted axis
is u's outcome axis.  `X`/`Z` with signal s flip u's axis, or the sign of
its 1 slice, on the slice where s's outcome is 1.  The result, read as
(A, 2^k, 2^{|O|}, cols), holds every branch map A_s as a 2^{|O|} x cols
matrix, one per outcome string s in lexicographic measurement order.  Row
and column indices are little-endian over the sorted qubit ids.

`capacity` bounds the outcome axes plus the live-qubit axes, the log2 of the
tensor's rows per assignment and input column.  A measurement trades a live
axis for an outcome axis, so the count never drops; for a standard pattern
of n qubits it is n.

Determinism is tested per input vector (branch outputs pairwise proportional),
strong determinism adds equal norms; on real open graphs the test vectors are
real, since branch phases may legitimately depend on the input there.

The robustness check builds one pattern, the one `to_pattern` builds;
`_truncate` reads each lowerset K of the measurement order off it by
dropping every `M v` with v outside K and every correction v signals, so
those qubits become outputs.  That is what `to_pattern` builds for the
truncated MBQC (K measured, strategy restricted to K): (1) K is downward
closed, so every chain below a vertex of K stays in K and the truncated
order is the full one restricted to K; when the full smallest linear
extension places some k2 in K, each smaller k1 in K with its predecessors
(all in K) placed is available too, so K comes in its own smallest order.
(2) It is valid: kept commands keep their order, each kept correction's
signal is in K and measured before it, and exactly K is measured.

The check runs the full pattern once, pausing before each `M` and at the
end (`_abort_points`).  When K is the first j vertices of the measurement
sequence, its truncation is the command prefix that ends just before the
(j+1)-th `M`: the pattern puts every N and E first and each `M u` directly
before the corrections u signals, so the commands before that point are
the N and E commands and the M u of each u in K with its corrections, all
of which `_truncate` keeps, and the commands after it are the M v of each
v outside K with its corrections, all of which it drops.  The tensor at
that pause is therefore, bit for bit, the one `_run` returns for the
truncation.  Every other lowerset, which exists only when the order is not
total, runs as a filter.  All angle assignments ride on the A axis: an
assignment changes only the eigenvectors a measurement contracts with, so
slice a is the run of the pattern built with assignment a.  One stream of
assignments over all measured vertices serves every truncation, since a
truncation contracts only with the rows of its own measured qubits; K is
checked under that stream restricted to K.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, ContractError
from .gf2 import mask_of, members
from .graphs import MeasurementLabel
from .patterns import (PI_ANGLE, ZERO_ANGLE, Angle, CorrectX, CorrectZ,
                       Entangle, Measure, Mbqc, New, Pattern, _require_valid,
                       _standard_pattern, measurement_order)

DEFAULT_CAPACITY = 12
DEFAULT_TOL = 1e-9

_SQRT_HALF = 1 / math.sqrt(2)
_QUARTER_PI = Angle.from_fraction(1, 4)
_HALF_PI = Angle.from_fraction(1, 2)


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


def _bases(pat: Pattern, assignments: Sequence[Dict[int, Angle]]) -> Dict[int, np.ndarray]:
    """(A, 2, 2) conjugated (+, -) eigenvector rows of every measured qubit,
    one slice per angle assignment (the pattern's own angles where the
    assignment does not name the qubit).  Each (label, angle) pair's rows
    are computed once."""
    known: Dict[Tuple[MeasurementLabel, Angle], np.ndarray] = {}

    def rows(label: MeasurementLabel, angle: Angle) -> np.ndarray:
        if (label, angle) not in known:
            known[label, angle] = np.array(eigenpair(label, angle)).conj()
        return known[label, angle]

    measures = [cmd for cmd in pat.commands if isinstance(cmd, Measure)]
    stack = np.array([[rows(cmd.label, asg.get(cmd.qubit, cmd.angle))
                       for asg in assignments] for cmd in measures])
    return {cmd.qubit: stack[i] for i, cmd in enumerate(measures)}


def _abort_points(pat: Pattern, columns: np.ndarray, bases: Dict[int, np.ndarray],
                  capacity: int, keep_measured: bool = False
                  ) -> Iterator[Callable[[], Tuple[np.ndarray, List[int], Tuple[int, ...]]]]:
    """Run a valid pattern on every branch and every angle assignment,
    pausing before each `M` and at the end.

    `columns` is the 2^{|I|} x d input matrix and `bases[u]` the (A, 2, 2)
    stack of conjugated eigenvector rows of measured qubit u.  Each pause
    yields a reader of the run so far: it returns the (A, 2^k, 2^q, d)
    tensor of branch maps, the measurement order and the q sorted qubit ids
    of the rows, as `_run` returns them for the pattern cut at that point.
    Call it before resuming: `E`, `X` and `Z` write the tensor in place, and
    the reader's tensor may be a view of it.  With `keep_measured` each
    measured qubit is tensored back on in its outcome's eigenstate before
    the last pause.
    """
    def require_width(width: int) -> None:
        if width > capacity:
            raise CapacityError(f"simulation bounded to {capacity} outcome and qubit axes")

    ins = members(pat.inputs)
    require_width(len(ins))
    ncols = columns.shape[1]
    # Axis 1+i of the initial tensor carries bit len(ins)-1-i of the row
    # index, i.e. input qubit ins[len(ins)-1-i].
    t = np.array(columns, dtype=complex).reshape((1,) + (2,) * len(ins) + (ncols,))
    live = ins[::-1]  # qubit of each live axis; they follow the outcome axes
    order: List[int] = []  # measured qubits; axis 1 holds the newest outcome

    def outcome_axis(s: int) -> int:
        return len(order) - order.index(s)

    def qubit_axis(q: int) -> int:
        return 1 + len(order) + live.index(q)

    def read() -> Tuple[np.ndarray, List[int], Tuple[int, ...]]:
        k = len(order)
        keep = tuple(sorted(live))
        perm = ([0] + list(range(k, 0, -1)) + [qubit_axis(q) for q in reversed(keep)]
                + [t.ndim - 1])
        return (np.transpose(t, perm).reshape((t.shape[0], 1 << k, 1 << len(keep), ncols)),
                order, keep)

    for cmd in pat.commands:
        idx = [slice(None)] * t.ndim
        if isinstance(cmd, New):
            require_width(len(order) + len(live) + 1)
            half = t * _SQRT_HALF
            t = np.stack((half, half), axis=1 + len(order))
            live.insert(0, cmd.qubit)
        elif isinstance(cmd, Entangle):
            idx[qubit_axis(cmd.a)] = idx[qubit_axis(cmd.b)] = 1
            t[tuple(idx)] *= -1
        elif isinstance(cmd, Measure):
            yield read
            t = np.moveaxis(t, qubit_axis(cmd.qubit), 1)
            shape = t.shape
            t = bases[cmd.qubit] @ t.reshape(shape[0], 2, -1)
            t = t.reshape(t.shape[:1] + shape[1:])
            live.remove(cmd.qubit)
            order.append(cmd.qubit)
        elif isinstance(cmd, CorrectX):
            idx[outcome_axis(cmd.signal)] = 1
            idx[qubit_axis(cmd.qubit)] = 0
            lo = tuple(idx)
            idx[qubit_axis(cmd.qubit)] = 1
            hi = tuple(idx)
            flipped = t[hi].copy()
            t[hi] = t[lo]
            t[lo] = flipped
        elif isinstance(cmd, CorrectZ):
            idx[outcome_axis(cmd.signal)] = 1
            idx[qubit_axis(cmd.qubit)] = 1
            t[tuple(idx)] *= -1
    if keep_measured:
        for u in order:
            shape = [1] * (t.ndim + 1)
            shape[0] = bases[u].shape[0]
            shape[outcome_axis(u)] = shape[1 + len(order)] = 2
            t = np.expand_dims(t, 1 + len(order)) * bases[u].conj().reshape(shape)
            live.insert(0, u)
    yield read


def _run(pat: Pattern, columns: np.ndarray, bases: Dict[int, np.ndarray],
         capacity: int, keep_measured: bool = False
         ) -> Tuple[np.ndarray, List[int], Tuple[int, ...]]:
    """The whole run of `_abort_points`: its last reader, read."""
    for read in _abort_points(pat, columns, bases, capacity, keep_measured):
        pass
    return read()


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


def _branch_tensor(pat: Pattern, columns: np.ndarray, capacity: int) -> np.ndarray:
    """(2^k, 2^{|O|}, cols) branch maps of a pattern at its own angles."""
    _require_valid(pat)
    return _run(pat, columns, _bases(pat, [{}]), capacity)[0][0]


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
    post-measurement eigenstate instead of being traced out.  Branches come
    in lexicographic order of their outcome bits in measurement order.
    """
    _require_valid(pat)
    d_in = 1 << pat.inputs.bit_count()
    if input_state is None:
        input_state = np.eye(d_in, dtype=complex)
    else:
        input_state = np.asarray(input_state, dtype=complex)
        if input_state.ndim == 1:
            input_state = input_state[:, None]
        if input_state.shape[0] != d_in:
            raise ContractError(
                f"input state must have 2**{pat.inputs.bit_count()} rows, "
                f"got {input_state.shape[0]}")
    t, order, qubits = _run(pat, input_state, _bases(pat, [{}]), capacity,
                            keep_measured)
    keys = itertools.product((0, 1), repeat=len(order))
    return [Branch(dict(zip(order, key)), tuple(order), qubits, state)
            for key, state in zip(keys, t[0])]


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


def _proportional(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Column-wise test that a and b (rows on axis -2) are proportional;
    a column that is zero on either side passes."""
    na, nb = np.linalg.norm(a, axis=-2), np.linalg.norm(b, axis=-2)
    inner = np.abs(np.sum(a.conj() * b, axis=-2))
    return (na <= tol) | (nb <= tol) | (np.abs(inner - na * nb) <= tol * na * nb + tol)


def check_deterministic(pat: Pattern, tol: float = DEFAULT_TOL, seed: int = 0,
                        capacity: int = DEFAULT_CAPACITY) -> bool:
    """Every input is sent, up to scale, to the same output on all branches.

    Each input column is compared with a branch that is nonzero on it, so a
    zero-probability branch never stands in as the reference.
    """
    d_in = 1 << pat.inputs.bit_count()
    out = _branch_tensor(pat, _test_vectors(d_in, real=False, seed=seed), capacity)
    ref = np.argmax(np.linalg.norm(out, axis=1) > tol, axis=0)  # per column
    cols = np.arange(out.shape[2])
    return bool(_proportional(out[ref, :, cols].T, out, tol).all())


def _strong_failures(out: np.ndarray, real_inputs: bool, tol: float) -> np.ndarray:
    """Per angle assignment of an (A, branches, rows, cols) tensor: True
    where its branches are not strongly deterministic (see
    check_strong_deterministic)."""
    ref = out[:, :1]
    if real_inputs:
        norm_gap = np.abs(np.linalg.norm(ref, axis=-2) - np.linalg.norm(out, axis=-2))
        bad = (norm_gap > tol) | ~_proportional(ref, out, tol)
        return bad.any(axis=(1, 2))
    n_asg, n_branch = out.shape[:2]
    flat = out.reshape(n_asg, n_branch, -1)
    pick = np.argmax(np.abs(flat[:, 0]), axis=1)  # largest entry of branch 0
    pivot = flat[np.arange(n_asg), 0, pick]
    zero = np.abs(pivot) <= tol
    ratio = flat[np.arange(n_asg), :, pick] / np.where(zero, 1, pivot)[:, None]
    phase_bad = (np.abs(np.abs(ratio) - 1) > tol).any(axis=1)
    scaled = ratio[:, :, None, None] * ref
    far = np.abs(out - scaled) > tol + 1e-5 * np.abs(scaled)  # np.allclose's test
    nonzero = (np.abs(out) > tol).any(axis=(1, 2, 3))
    return np.where(zero, nonzero, phase_bad | far.any(axis=(1, 2, 3)))


def check_strong_deterministic(pat: Pattern, tol: float = DEFAULT_TOL,
                               real_inputs: bool = False, seed: int = 0,
                               capacity: int = DEFAULT_CAPACITY) -> bool:
    """Determinism with all branches equally likely on every input.

    In the default (complex-input) mode the branch maps must agree up to one
    global phase, read off the largest entry of the first branch.  With
    `real_inputs` the phase may depend on the input, so the check is per
    real test vector: proportional and equal norm.
    """
    d_in = 1 << pat.inputs.bit_count()
    columns = _test_vectors(d_in, real=True, seed=seed) if real_inputs else np.eye(d_in)
    out = _branch_tensor(pat, columns, capacity)
    return not _strong_failures(out[None], real_inputs, tol)[0]


def _lowersets(vertices: Sequence[int], order) -> List[Tuple[int, ...]]:
    """All downward-closed subsets of the measured vertices, in the order of
    their bitmasks over `vertices`.

    Indices are decided from the highest down, 0 before 1, so the sets come
    in increasing mask order.  `required` collects the predecessors of the
    indices taken, which can no longer be left out; an index can be taken
    only when none of its predecessors above it was left out.  Every partial
    choice this allows completes (add the predecessors still required, a
    closed set since the order is), so the work is O(m) per lowerset, not
    per each of the 2^m masks.
    """
    vs = list(vertices)
    below = [sum(1 << i for i, u in enumerate(vs) if order.less(u, v)) for v in vs]
    out: List[Tuple[int, ...]] = []
    stack = [(len(vs) - 1, 0, 0)]  # (next index, taken, required)
    while stack:
        i, taken, required = stack.pop()
        if i < 0:
            out.append(tuple(sorted(vs[j] for j in members(taken))))
            continue
        if not (below[i] & ~taken) >> i:  # pushed first, so taken after leaving i out
            stack.append((i - 1, taken | 1 << i, required | below[i]))
        if not (required >> i) & 1:
            stack.append((i - 1, taken, required))
    return out


def _truncate(pat: Pattern, keep: int) -> Pattern:
    """`pat` without the measurements outside `keep` (a bitmask) and the
    corrections they signal (see the module docstring)."""
    def kept(cmd) -> bool:
        if isinstance(cmd, (CorrectX, CorrectZ)):
            return bool(keep >> cmd.signal & 1)
        return not isinstance(cmd, Measure) or bool(keep >> cmd.qubit & 1)

    # A list, not an iterator: tuple() resizing fills CPython's tuple free lists.
    return Pattern(pat.n, tuple([cmd for cmd in pat.commands if kept(cmd)]),
                   pat.inputs, ((1 << pat.n) - 1) & ~keep, pat.names)


def _angle_assignments(m: Mbqc, measured: Sequence[int], samples: int,
                       seed: int) -> List[Dict[int, Angle]]:
    """Angle choices for the `measured` vertices: fixed grid plus random
    draws, in that vertex order.

    Pauli-labelled vertices only ever take the exact angles 0 and pi.
    """
    rng = np.random.default_rng(seed)
    og = m.og
    out: List[Dict[int, Angle]] = []

    def build(planar_angle: Optional[Angle], pauli_angle: Optional[Angle]) -> Dict[int, Angle]:
        asg = {}
        for u in measured:
            if og.labels[u].is_pauli:
                asg[u] = m.angles[u] if pauli_angle is None else pauli_angle
            else:
                asg[u] = m.angles[u] if planar_angle is None else planar_angle
        return asg

    out.append(build(None, None))
    out.append(build(ZERO_ANGLE, ZERO_ANGLE))
    out.append(build(PI_ANGLE, PI_ANGLE))
    out.append(build(_QUARTER_PI, None))
    out.append(build(_HALF_PI, None))
    for _ in range(samples):
        asg = {}
        for u in measured:
            if og.labels[u].is_pauli:
                asg[u] = (ZERO_ANGLE, PI_ANGLE)[int(rng.integers(2))]
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

    One stream of angle assignments over all measured vertices is drawn per
    check; each truncation K is checked under that stream restricted to K.
    The full pattern runs once, and each truncation that is a prefix of its
    measurement sequence is read off that run where it pauses before the
    next `M` (a command prefix; see the module docstring).  Every other
    truncation, which exists only when the order is not total, runs as a
    filter of the pattern.  Truncations are checked in increasing mask
    order, all assignments at once; `checks` counts (truncation,
    assignment) pairs up to and including the first failing one.  The
    pattern is valid unchecked: one N per non-input, one E per edge, and
    each M u is followed by corrections on targets in the graph (checked by
    Mbqc) that the joined order measures after u, or never when they are
    outputs.

    Returns a JSON-able report {"ok", "checks", "failure"}; `failure` names
    the offending truncation and angle assignment when one is found.
    """
    og = m.og
    induced = measurement_order(m, order)
    full = _standard_pattern(m, induced)  # to_pattern(m, order), order built once
    real_mode = og.is_real
    d_in = 1 << og.inputs.bit_count()
    columns = _test_vectors(d_in, real=True, seed=seed) if real_mode else np.eye(d_in)
    measured = sorted(og.labels)
    assignments = _angle_assignments(m, measured, angle_samples, seed)
    bases = _bases(full, assignments)
    prefixes = _abort_points(full, columns, bases, capacity)
    prefix_masks = itertools.accumulate(
        (1 << cmd.qubit for cmd in full.commands if isinstance(cmd, Measure)),
        operator.or_, initial=0)
    prefix = next(prefix_masks)  # the next prefix the run pauses at
    checks = 0
    for keep in _lowersets(measured, induced):
        mask = mask_of(keep)
        if mask == prefix:
            out = next(prefixes)()[0]
            prefix = next(prefix_masks, None)
        else:
            out = _run(_truncate(full, mask), columns, bases, capacity)[0]
        failed = np.flatnonzero(_strong_failures(out, real_mode, tol))
        if failed.size:
            angles = assignments[failed[0]]
            return {
                "ok": False,
                "checks": checks + int(failed[0]) + 1,
                "failure": {
                    "measured": [og.names[u] for u in keep],
                    "angles": {og.names[u]: str(angles[u]) for u in keep},
                    "real_inputs": real_mode,
                },
            }
        checks += len(assignments)
    return {"ok": True, "checks": checks, "failure": None}
