"""Dense state-vector execution of patterns and determinism checks.

One engine runs a pattern on every outcome branch, and on a stack of
measurement-angle assignments, at once.  Its tensor has these axes, in order:

* one angle-assignment axis A (size 1 until the first measurement
  broadcasts it out);
* one axis of size 2 per live qubit;
* one axis of input columns;
* one outcome axis of size 2 per measurement done so far, oldest first.

`N` stacks a |+> axis and `E` flips the sign of its (1, 1) slice.  `M u`
moves u's axis last and contracts it, in one batched matmul, with the
(A, 2, 2) stack of conjugated (+, -) eigenvectors; the contracted axis,
now last, is u's outcome axis.  `X`/`Z` with signal s flip u's axis, or the
sign of its 1 slice, on the slice where s's outcome is 1.  The engine
reads the tensor in one layout, itself reshaped with no copy to
(A, 2^q, cols, 2^k): rows big-endian over the q live qubits in their axis
order, then the input columns, then every branch map A_s, one per outcome
string s in lexicographic measurement order.  Only `run_pattern` sorts
the rows, little-endian over the sorted qubit ids, for the branch states
it returns.

The dtype follows the inputs: the tensor is float64 when the input columns
and every eigenbasis are real, complex128 otherwise.  The real labels X, Z
and XZ have Bloch vectors with no Y part, so phi is 0 or pi and their
eigenvectors are real at every angle; N, E, X and Z keep a real tensor
real.  So on a real open graph, whose test vectors are real, the
robustness check runs in float64 end to end.

`capacity` bounds the outcome axes plus the live-qubit axes, the log2 of the
tensor's rows per assignment and input column.  A measurement trades a live
axis for an outcome axis, so the count never drops; for a standard pattern
of n qubits it is n.  The inputs are live from the start, so every entry
point checks |I| against `capacity` before it builds the 2^|I| input
columns.

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
checked under that stream restricted to K.  The stream is an (A, m) array
of radians, and one `_eigen_rows` call turns all of it into eigenbases.

The determinism tests read each branch's rows in the run's own order;
branch 0 is the all-zero outcome string.  The complex-input strong test
compares entries one by one and reduces with `any`, so the row order
matters to it only through its pivot, the first largest entry of branch 0
when several entries have the same magnitude; the other tests sum over
the rows of each column in that order.
"""


from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, ContractError
from .gf2 import mask_of, members
from .graphs import MeasurementLabel
from .patterns import (PI_ANGLE, TWO_PI, ZERO_ANGLE, Angle, CorrectX, CorrectZ,
                       Entangle, Measure, Mbqc, New, Pattern, _require_valid,
                       _standard_pattern, measurement_order)

DEFAULT_CAPACITY = 12
DEFAULT_TOL = 1e-9

_SQRT_HALF = 1 / math.sqrt(2)
_QUARTER_PI = Angle.from_fraction(1, 4)
_HALF_PI = Angle.from_fraction(1, 2)
_GRID = (ZERO_ANGLE, PI_ANGLE, _QUARTER_PI, _HALF_PI)  # rows 1-4 of the angle stream

# Bloch axes (x, y, z) = (0, 1, 2) of each label: the vector is
# cos(angle) along the first and, on planes, sin(angle) along the second.
_COS_AXIS = {MeasurementLabel.XY: 0, MeasurementLabel.YZ: 1, MeasurementLabel.XZ: 2,
             MeasurementLabel.X: 0, MeasurementLabel.Y: 1, MeasurementLabel.Z: 2}
_SIN_AXIS = {MeasurementLabel.XY: 1, MeasurementLabel.YZ: 2, MeasurementLabel.XZ: 0}


def _radians(label: MeasurementLabel, angle: Angle) -> float:
    if label.is_pauli and not angle.is_zero_or_pi:
        raise ContractError(
            f"label {label.to_string()} needs an exact angle 0 or pi, got {angle}")
    return angle.radians


def _eigen_rows(labels: Sequence[MeasurementLabel], radians: np.ndarray) -> np.ndarray:
    """(len(labels), A, 2, 2) conjugated (+1, -1) eigenvector rows of the
    observables n.(X, Y, Z), one row of A angles (radians) per label.

    n is the Bloch vector of the label at the angle: cos along the label's
    first axis plus, on planes, sin along its second.  Pauli labels come
    at exactly 0 or pi (`_radians` and `_angle_stream` see to it), where
    cos is exactly +-1.  With theta and phi the polar angles of n, the
    eigenvectors are (cos theta/2, e^{i phi} sin theta/2) and
    (sin theta/2, -e^{i phi} cos theta/2) (see `_phased_rows`).  The stack
    is float64 when every label is real (X, Z, XZ: n has no y part, so phi
    is 0 or pi and e^{i phi} is cos phi) and complex128 otherwise.  A real
    label's rows are computed in real arithmetic in either stack, so they
    are the same bits in a complex stack as in a real one.
    """
    radians = np.asarray(radians, dtype=float)
    bloch = np.zeros((3,) + radians.shape)
    bloch[[_COS_AXIS[lab] for lab in labels], range(len(labels))] = np.cos(radians)
    planes = [i for i, lab in enumerate(labels) if not lab.is_pauli]
    bloch[[_SIN_AXIS[labels[i]] for i in planes], planes] = np.sin(radians[planes])
    nx, ny, nz = bloch
    theta = np.arctan2(np.hypot(nx, ny), nz)
    phi = np.arctan2(ny, nx)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.cos(phi)
    if all(lab.is_real for lab in labels):
        return _phased_rows(c, s, e)
    vecs = _phased_rows(c, s, e + 1j * np.sin(phi))
    real = [i for i, lab in enumerate(labels) if lab.is_real]
    vecs[real] = _phased_rows(c[real], s[real], e[real])
    return vecs


def _phased_rows(c: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Conjugated rows of the eigenvectors (c, e s) and (s, -e c), each
    multiplied by the phase that makes its first amplitude above 1e-12 real
    positive; in the dtype of e."""
    vecs = np.empty(c.shape + (2, 2), e.dtype)  # [eigenvector, amplitude]
    vecs[..., 0, 0], vecs[..., 0, 1] = c, e * s
    vecs[..., 1, 0], vecs[..., 1, 1] = s, -e * c
    lead = np.where(np.abs(vecs[..., :1]) > 1e-12, vecs[..., :1], vecs[..., 1:])
    vecs *= lead.conj() / np.abs(lead)
    return vecs.conj()


def eigenpair(label: MeasurementLabel, angle: Angle) -> Tuple[np.ndarray, np.ndarray]:
    """(+1, -1) eigenvectors of the measured observable (see `_eigen_rows`).

    Each is normalized with its first non-negligible amplitude real
    positive; float64 for the real labels X, Z and XZ, complex128 otherwise.
    """
    plus, minus = _eigen_rows([label], [[_radians(label, angle)]])[0, 0].conj()
    return plus, minus


def _bases(pat: Pattern) -> Dict[int, np.ndarray]:
    """(1, 2, 2) conjugated (+, -) eigenvector rows of every measured qubit
    at the pattern's own angle."""
    measures = [cmd for cmd in pat.commands if isinstance(cmd, Measure)]
    radians = [_radians(cmd.label, cmd.angle) for cmd in measures]
    stack = _eigen_rows([cmd.label for cmd in measures],
                        np.reshape(radians, (len(measures), 1)))
    return dict(zip((cmd.qubit for cmd in measures), stack))


def _require_width(width: int, capacity: int) -> None:
    """Raise CapacityError when `width` axes exceed `capacity`; callers bound
    the input count this way before they build 2^|I| input columns."""
    if width > capacity:
        raise CapacityError(f"simulation bounded to {capacity} outcome and qubit axes")


def _abort_points(pat: Pattern, columns: np.ndarray, bases: Dict[int, np.ndarray],
                  capacity: int) -> Iterator[Tuple[np.ndarray, List[int], Tuple[int, ...]]]:
    """Run a valid pattern on every branch and every angle assignment,
    pausing before each `M` and at the end.

    `columns` is the 2^{|I|} x d input matrix and `bases[u]` the (A, 2, 2)
    stack of conjugated eigenvector rows of measured qubit u; the tensor
    takes their common dtype, float64 when both are real.  Each pause
    yields the run's own tensor reshaped, with no copy, to (A, 2^q, d, 2^k),
    the measurement order and the q live qubits: rows big-endian over the
    live qubits as listed, branches in lexicographic measurement order.
    Read it before resuming: `E`, `X` and `Z` write the tensor in place.
    """
    ins = members(pat.inputs)
    _require_width(len(ins), capacity)
    ncols = columns.shape[1]
    # Axis 1+i of the initial tensor carries bit len(ins)-1-i of the row
    # index, i.e. input qubit ins[len(ins)-1-i].
    dtype = np.result_type(columns, *bases.values())
    t = np.array(columns, dtype=dtype).reshape((1,) + (2,) * len(ins) + (ncols,))
    live = ins[::-1]  # qubit of each live axis; they follow the assignment axis
    order: List[int] = []  # measured qubits; their outcome axes follow the columns

    def outcome_axis(s: int) -> int:
        return 2 + len(live) + order.index(s)

    def qubit_axis(q: int) -> int:
        return 1 + live.index(q)

    def pause() -> Tuple[np.ndarray, List[int], Tuple[int, ...]]:
        return t.reshape((t.shape[0], 1 << len(live), ncols, 1 << len(order))), order, tuple(live)

    for cmd in pat.commands:
        idx = [slice(None)] * t.ndim
        if isinstance(cmd, New):
            _require_width(len(order) + len(live) + 1, capacity)
            t = (t * _SQRT_HALF)[:, None].repeat(2, axis=1)
            live.insert(0, cmd.qubit)
        elif isinstance(cmd, Entangle):
            idx[qubit_axis(cmd.a)] = idx[qubit_axis(cmd.b)] = 1
            t[tuple(idx)] *= -1
        elif isinstance(cmd, Measure):
            yield pause()
            ax = qubit_axis(cmd.qubit)
            t = t.transpose([*range(ax), *range(ax + 1, t.ndim), ax])  # u's axis last
            shape = t.shape
            t = t.reshape(shape[0], -1, 2) @ bases[cmd.qubit].swapaxes(1, 2)
            t = t.reshape(t.shape[:1] + shape[1:])
            live.remove(cmd.qubit)
            order.append(cmd.qubit)
        elif isinstance(cmd, CorrectX):
            idx[outcome_axis(cmd.signal)] = 1
            sl = tuple(idx)
            t[sl] = np.flip(t[sl], qubit_axis(cmd.qubit))
        elif isinstance(cmd, CorrectZ):
            idx[outcome_axis(cmd.signal)] = 1
            idx[qubit_axis(cmd.qubit)] = 1
            t[tuple(idx)] *= -1
    yield pause()


def _run(pat: Pattern, columns: np.ndarray, bases: Dict[int, np.ndarray],
         capacity: int) -> Tuple[np.ndarray, List[int], Tuple[int, ...]]:
    """The whole run of `_abort_points`: its last pause."""
    for end in _abort_points(pat, columns, bases, capacity):
        pass
    return end


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
    States are float64 when the input and every measured label are real
    (X, Z, XZ), complex128 otherwise.
    """
    _require_valid(pat)
    _require_width(pat.inputs.bit_count(), capacity)
    d_in = 1 << pat.inputs.bit_count()
    if input_state is None:
        input_state = np.eye(d_in)
    else:
        input_state = np.asarray(input_state)
        input_state = input_state.astype(complex if np.iscomplexobj(input_state) else float)
        if input_state.ndim == 1:
            input_state = input_state[:, None]
        if input_state.shape[0] != d_in:
            raise ContractError(
                f"input state must have 2**{pat.inputs.bit_count()} rows, "
                f"got {input_state.shape[0]}")
    bases = _bases(pat)
    t, order, live = _run(pat, input_state, bases, capacity)
    k, live = len(order), list(live)
    t = t[0].reshape((2,) * len(live) + (-1,) + (2,) * k)  # qubits, columns, outcomes
    if keep_measured:  # each measured qubit in its outcome's eigenstate
        for i, u in enumerate(order):
            shape = [1] * (t.ndim + 1)
            shape[0] = shape[i - k] = 2
            t = t[None] * bases[u][0].conj().T.reshape(shape)
            live.insert(0, u)
    qubits = tuple(sorted(live))
    perm = [*range(len(live) + 1, t.ndim), *map(live.index, reversed(qubits)), len(live)]
    states = t.transpose(perm).reshape(1 << k, 1 << len(qubits), -1)
    keys = itertools.product((0, 1), repeat=k)
    return [Branch(dict(zip(order, key)), tuple(order), qubits, state)
            for key, state in zip(keys, states)]


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
    return np.hstack(cols)  # float64 when real


def _proportional(inner: np.ndarray, na: np.ndarray, nb: np.ndarray,
                  tol: float) -> np.ndarray:
    """Vectors with norms na and nb and inner product magnitude `inner` are
    proportional; a zero vector on either side passes."""
    return (na <= tol) | (nb <= tol) | (np.abs(inner - na * nb) <= tol * na * nb + tol)


def check_deterministic(pat: Pattern, tol: float = DEFAULT_TOL, seed: int = 0,
                        capacity: int = DEFAULT_CAPACITY) -> bool:
    """Every input is sent, up to scale, to the same output on all branches.

    Each input column is compared with a branch that is nonzero on it, so a
    zero-probability branch never stands in as the reference.
    """
    _require_valid(pat)
    _require_width(pat.inputs.bit_count(), capacity)
    d_in = 1 << pat.inputs.bit_count()
    columns = _test_vectors(d_in, real=False, seed=seed)
    out = _run(pat, columns, _bases(pat), capacity)[0][0]  # (rows, cols, branches)
    norms = np.linalg.norm(out, axis=0)  # (cols, branches)
    cols = np.arange(out.shape[1])
    ref = np.argmax(norms > tol, axis=1)  # a nonzero branch per column
    inner = np.abs(np.sum(out[:, cols, ref, None].conj() * out, axis=0))
    return bool(_proportional(inner, norms[cols, ref, None], norms, tol).all())


def _strong_failures(out: np.ndarray, real_inputs: bool, tol: float) -> np.ndarray:
    """Per angle assignment of an (A, rows, cols, branches) tensor, as
    `_abort_points` yields it: True where its branches are not strongly
    deterministic (see check_strong_deterministic).  Branch 0, the
    reference, is the all-zero outcome string.

    The complex-input test is np.allclose's, |out - c ref| <= tol + 1e-5
    |c ref| entrywise, with c a branch's ratio to the reference at the
    pivot, the largest entry of the reference.  Where every entry of
    out - c ref has real and imaginary parts within tol/2, it is within
    tol/sqrt(2) < tol, so the test holds; only assignments with a larger
    part are tested exactly, on the branches that have one.  |out| is read
    only where a pivot is zero.
    """
    if real_inputs:
        ref = out[..., :1]
        na, nb = np.linalg.norm(ref, axis=1), np.linalg.norm(out, axis=1)
        inner = np.abs(np.sum(ref.conj() * out, axis=1))
        bad = (np.abs(na - nb) > tol) | ~_proportional(inner, na, nb, tol)
        return bad.any(axis=(1, 2))
    n_asg, n_branch = out.shape[0], out.shape[-1]
    flat = out.reshape(n_asg, -1, n_branch)
    ref = flat[..., 0]
    asg = np.arange(n_asg)
    pick = np.abs(ref).argmax(axis=1)
    pivot = ref[asg, pick]
    zero = np.abs(pivot) <= tol
    pivot[zero] = 1
    ratio = flat[asg, pick] / pivot[:, None]
    bad = (np.abs(np.abs(ratio) - 1) > tol).any(axis=1)
    gap = ref[:, :, None] * ratio[:, None]
    np.subtract(flat, gap, out=gap)
    parts = gap.view(np.float64)  # (A, entries, branches x (re, im))
    np.abs(parts, out=parts)
    loose = parts.reshape(n_asg, -1).max(axis=1) > tol / 2
    for a in (loose & ~(bad | zero)).nonzero()[0]:
        b = (parts[a] > tol / 2).reshape(gap.shape[1:] + (-1,)).any(axis=(0, 2)).nonzero()[0]
        scaled = ratio[a, b] * ref[a, :, None]
        bad[a] = (np.abs(flat[a][:, b] - scaled) > tol + 1e-5 * np.abs(scaled)).any()
    if zero.any():
        bad[zero] = (np.abs(flat[zero]) > tol).any(axis=(1, 2))
    return bad


def check_strong_deterministic(pat: Pattern, tol: float = DEFAULT_TOL,
                               real_inputs: bool = False, seed: int = 0,
                               capacity: int = DEFAULT_CAPACITY) -> bool:
    """Determinism with all branches equally likely on every input.

    In the default (complex-input) mode the branch maps must agree up to one
    global phase, read off the largest entry of the first branch.  With
    `real_inputs` the phase may depend on the input, so the check is per
    real test vector: proportional and equal norm.
    """
    _require_valid(pat)
    _require_width(pat.inputs.bit_count(), capacity)
    d_in = 1 << pat.inputs.bit_count()
    columns = _test_vectors(d_in, real=True, seed=seed) if real_inputs else np.eye(d_in)
    out = _run(pat, columns, _bases(pat), capacity)[0]
    return not _strong_failures(out, real_inputs, tol)[0]


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


def _angle_stream(m: Mbqc, measured: Sequence[int], samples: int, seed: int) -> np.ndarray:
    """(5 + samples, len(measured)) radians: the Mbqc's own angles, the
    grid rows 0, pi, pi/4 and pi/2, then `samples` random draws.

    Pauli-labelled vertices only ever take exactly 0 and pi: they keep
    their own angle in the pi/4 and pi/2 rows and draw 0 or pi by
    `integers(2)`; planes draw `uniform(0, 2 pi)`, taken mod 2 pi as
    `Angle.from_radians` does.  The draws go vertex by vertex, row by row,
    from one `default_rng(seed)`.
    """
    og = m.og
    pauli = [og.labels[u].is_pauli for u in measured]
    own = [m.angles[u].radians for u in measured]
    rows = [own, [ZERO_ANGLE.radians] * len(own), [PI_ANGLE.radians] * len(own)]
    rows += [[a if p else g.radians for a, p in zip(own, pauli)] for g in _GRID[2:]]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        rows.append([PI_ANGLE.radians * int(rng.integers(2)) if p
                     else float(rng.uniform(0, 2 * math.pi)) % TWO_PI for p in pauli])
    return np.array(rows)


def _assignment(m: Mbqc, measured: Sequence[int], stream: np.ndarray,
                row: int) -> Dict[int, Angle]:
    """Row `row` of the angle stream as `Angle`s, for a report: the Mbqc's
    own angles and the grid angles as they are, draws as 0 or pi on Pauli
    labels and `Angle.from_radians` on planes."""
    out = {}
    for u, value in zip(measured, stream[row].tolist()):
        pauli = m.og.labels[u].is_pauli
        if row == 0 or (pauli and row in (3, 4)):
            out[u] = m.angles[u]
        elif row < 5:
            out[u] = _GRID[row - 1]
        else:
            out[u] = (PI_ANGLE if value else ZERO_ANGLE) if pauli else Angle.from_radians(value)
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
    check, as an (A, m) array of radians (`_angle_stream`); each truncation
    K is checked under that stream restricted to K, and `Angle`s are built
    only for the assignment a failure names.  The eigenbases of all
    measured qubits under all assignments come from one `_eigen_rows` call.
    On a real open graph the test vectors, the bases and the run are
    float64, otherwise complex128.  The full pattern runs once, and each
    truncation that is a prefix of its measurement sequence is read off
    that run where it pauses before the next `M` (a command prefix; see the
    module docstring), as the run's own tensor without a copy.  Every other
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
    _require_width(og.inputs.bit_count(), capacity)
    d_in = 1 << og.inputs.bit_count()
    columns = _test_vectors(d_in, real=True, seed=seed) if real_mode else np.eye(d_in)
    measured = sorted(og.labels)
    stream = _angle_stream(m, measured, angle_samples, seed)
    bases = dict(zip(measured, _eigen_rows([og.labels[u] for u in measured], stream.T)))
    prefixes = _abort_points(full, columns, bases, capacity)
    prefix_masks = itertools.accumulate(
        (1 << cmd.qubit for cmd in full.commands if isinstance(cmd, Measure)),
        operator.or_, initial=0)
    prefix = next(prefix_masks)  # the next prefix the run pauses at
    checks = 0
    for keep in _lowersets(measured, induced):
        mask = mask_of(keep)
        if mask == prefix:
            out = next(prefixes)[0]
            prefix = next(prefix_masks, None)
        else:
            out = _run(_truncate(full, mask), columns, bases, capacity)[0]
        failed = _strong_failures(out, real_mode, tol).nonzero()[0]
        if failed.size:
            angles = _assignment(m, measured, stream, int(failed[0]))
            return {
                "ok": False,
                "checks": checks + int(failed[0]) + 1,
                "failure": {
                    "measured": [og.names[u] for u in keep],
                    "angles": {og.names[u]: str(angles[u]) for u in keep},
                    "real_inputs": real_mode,
                },
            }
        checks += len(stream)
    return {"ok": True, "checks": checks, "failure": None}
