"""State-vector semantics: branch maps, determinism checks, robustness.

The oracle here is an independently written full-register simulator using
explicit index arithmetic on 2^n amplitude arrays (no shared code with the
tensor implementation under test).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow import statevec
from mbqcflow.errors import CapacityError, ContractError
from mbqcflow.flows import PartialOrder
from mbqcflow.gf2 import mask_of, members
from mbqcflow.graphs import Graph, MeasurementLabel, OpenGraph
from mbqcflow.instances import InstanceSpec, generate_instance
from mbqcflow.patterns import (Angle, CorrectX, CorrectZ, Entangle, Mbqc,
                               Measure, New, Pattern, ZERO_ANGLE, PI_ANGLE,
                               _standard_pattern, measurement_order, parse,
                               print_pattern, to_pattern, validate)
from mbqcflow.search import find_pauli_flow, find_pauli_flow_bruteforce
from mbqcflow.statevec import (_abort_points, _angle_stream, _assignment, _bases,
                               _eigen_rows, _lowersets, _run, _test_vectors, _truncate,
                               branch_map, branches_complete, check_deterministic,
                               check_robust_deterministic,
                               check_strong_deterministic, eigenpair,
                               run_pattern)
from mbqcflow.synthesis import (CorrectionStrategy, completed_order,
                                synthesize_corrections)

SQ2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# independent oracle

def observable_matrix(label, angle):
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    c, s = math.cos(angle.radians), math.sin(angle.radians)
    if label is MeasurementLabel.XY:
        return c * X + s * Y
    if label is MeasurementLabel.YZ:
        return c * Y + s * Z
    if label is MeasurementLabel.XZ:
        return c * Z + s * X
    sign = c  # cos(0) = 1, cos(pi) = -1
    return sign * {MeasurementLabel.X: X, MeasurementLabel.Y: Y,
                   MeasurementLabel.Z: Z}[label]


def oracle_branches(pat):
    """Full 2^n-register execution; returns {outcome-frozenset: matrix}."""
    n = pat.n
    ins = members(pat.inputs)
    d_in = 1 << len(ins)
    psi0 = np.zeros((1 << n, d_in), dtype=complex)
    for r in range(d_in):
        idx = 0
        for j, q in enumerate(ins):
            if (r >> j) & 1:
                idx |= 1 << q
        psi0[idx, r] = 1.0
    results = {}

    def emit(psi, live, outcomes):
        keep = sorted(live)
        rows = np.zeros((1 << len(keep), d_in), dtype=complex)
        for i in range(1 << n):
            if any(((i >> q) & 1) and q not in live for q in range(n)):
                continue
            r = 0
            for j, q in enumerate(keep):
                if (i >> q) & 1:
                    r |= 1 << j
            rows[r] += psi[i]
        results[frozenset(outcomes.items())] = rows

    def step(psi, live, k, outcomes):
        while k < len(pat.commands):
            cmd = pat.commands[k]
            k += 1
            if isinstance(cmd, New):
                q = cmd.qubit
                new = np.zeros_like(psi)
                for i in range(1 << n):
                    if not (i >> q) & 1:
                        new[i] += psi[i] * SQ2
                        new[i | (1 << q)] += psi[i] * SQ2
                psi = new
                live = live | {q}
            elif isinstance(cmd, Entangle):
                psi = psi.copy()
                for i in range(1 << n):
                    if (i >> cmd.a) & 1 and (i >> cmd.b) & 1:
                        psi[i] *= -1
            elif isinstance(cmd, Measure):
                q = cmd.qubit
                vecs = eigenpair(cmd.label, cmd.angle)
                for bit, v in enumerate(vecs):
                    new = np.zeros_like(psi)
                    for i in range(1 << n):
                        if not (i >> q) & 1:
                            new[i] = (v[0].conjugate() * psi[i]
                                      + v[1].conjugate() * psi[i | (1 << q)])
                    step(new, live - {q}, k, {**outcomes, q: bit})
                return
            elif isinstance(cmd, CorrectX):
                if outcomes[cmd.signal]:
                    q = cmd.qubit
                    new = psi.copy()
                    for i in range(1 << n):
                        new[i] = psi[i ^ (1 << q)]
                    psi = new
            elif isinstance(cmd, CorrectZ):
                if outcomes[cmd.signal]:
                    q = cmd.qubit
                    psi = psi.copy()
                    for i in range(1 << n):
                        if (i >> q) & 1:
                            psi[i] *= -1
        emit(psi, live, outcomes)

    step(psi0, set(ins), 0, {})
    return results


def reference_eigenpair(label, radians):
    """(+1, -1) eigenvectors of one label at one angle, scalar by scalar:
    Bloch vector, polar angles, then the first amplitude above 1e-12 made
    real positive."""
    c, s = math.cos(radians), math.sin(radians)
    n = {MeasurementLabel.XY: (c, s, 0.0), MeasurementLabel.YZ: (0.0, c, s),
         MeasurementLabel.XZ: (s, 0.0, c), MeasurementLabel.X: (c, 0.0, 0.0),
         MeasurementLabel.Y: (0.0, c, 0.0), MeasurementLabel.Z: (0.0, 0.0, c)}[label]
    theta = math.atan2(math.hypot(n[0], n[1]), n[2])
    phi = math.atan2(n[1], n[0])
    e = complex(math.cos(phi), math.sin(phi))
    out = []
    for v in ([math.cos(theta / 2), e * math.sin(theta / 2)],
              [math.sin(theta / 2), -e * math.cos(theta / 2)]):
        v = np.array(v, dtype=complex)
        a = next(a for a in v if abs(a) > 1e-12)
        out.append(v * (a.conjugate() / abs(a)))
    return out


# ---------------------------------------------------------------------------


class TestEigenpair:
    @pytest.mark.parametrize("label", list(MeasurementLabel))
    def test_matches_numpy_eigendecomposition(self, label):
        angles = ([ZERO_ANGLE, PI_ANGLE] if label.is_pauli else
                  [ZERO_ANGLE, Angle.from_fraction(1, 4),
                   Angle.from_radians(1.1), Angle.from_radians(4.0)])
        for angle in angles:
            obs = observable_matrix(label, angle)
            plus, minus = eigenpair(label, angle)
            assert np.allclose(obs @ plus, plus, atol=1e-12)
            assert np.allclose(obs @ minus, -minus, atol=1e-12)
            assert abs(np.vdot(plus, minus)) < 1e-12
            assert abs(np.linalg.norm(plus) - 1) < 1e-12

    def test_phase_convention(self):
        for label in MeasurementLabel:
            for angle in ([ZERO_ANGLE, PI_ANGLE] if label.is_pauli
                          else [Angle.from_radians(2.5)]):
                for v in eigenpair(label, angle):
                    first = next(a for a in v if abs(a) > 1e-12)
                    assert abs(first.imag) < 1e-12 and first.real > 0

    def test_x_basis(self):
        plus, minus = eigenpair(MeasurementLabel.X, ZERO_ANGLE)
        assert np.allclose(plus, [SQ2, SQ2])
        assert np.allclose(minus, [SQ2, -SQ2])

    def test_x_pi_swaps_roles(self):
        plus, minus = eigenpair(MeasurementLabel.X, PI_ANGLE)
        assert np.allclose(plus, [SQ2, -SQ2])

    def test_pauli_needs_exact_angle(self):
        with pytest.raises(ContractError):
            eigenpair(MeasurementLabel.Z, Angle.from_radians(0.5))

    def test_stacked_bases_match_per_pair_reference(self):
        """One `_eigen_rows` call over all labels and angles gives, within
        1e-15, the per-pair reference's conjugated rows, at the phase-fix
        corners (theta 0 or pi) too; the stack is real exactly when every
        label is."""
        rng = np.random.default_rng(17)
        plane_angles = ([0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2]
                        + list(rng.uniform(0, 2 * math.pi, 20)))
        labels, radians = [], []
        for label in MeasurementLabel:
            labels.append(label)
            radians.append([0.0, math.pi] * 12 + [0.0] if label.is_pauli else plane_angles)
        stack = statevec._eigen_rows(labels, np.array(radians))
        assert stack.shape == (6, len(plane_angles), 2, 2) and stack.dtype == complex
        for label, row, rows in zip(labels, radians, stack):
            for angle, got in zip(row, rows):
                expect = np.array(reference_eigenpair(label, angle)).conj()
                assert np.abs(got - expect).max() <= 1e-15, (label, angle)
        real = [lab for lab in labels if lab.is_real]
        assert statevec._eigen_rows(real, np.array([[0.0, math.pi]] * 3)).dtype == np.float64

    @pytest.mark.parametrize("label, angle", [
        (MeasurementLabel.XZ, 0.0), (MeasurementLabel.XZ, math.pi),
        (MeasurementLabel.YZ, math.pi / 2), (MeasurementLabel.YZ, 3 * math.pi / 2),
        (MeasurementLabel.X, 0.0), (MeasurementLabel.X, math.pi),
        (MeasurementLabel.Z, 0.0), (MeasurementLabel.Z, math.pi)])
    def test_phase_fix_corners(self, label, angle):
        """Where one amplitude vanishes the other is made real positive, as
        the per-pair reference does."""
        got = statevec._eigen_rows([label], np.array([[angle]]))[0, 0].conj()
        for v, expect in zip(got, reference_eigenpair(label, angle)):
            assert np.abs(v - expect).max() <= 1e-15
            first = next(a for a in v if abs(a) > 1e-12)
            assert abs(first.imag) < 1e-15 and first.real > 0


class TestKnownPatterns:
    def test_measure_x_pi_forces_outcome(self):
        # N 1, N 2, M 1 X pi: the s=0 branch has probability 0 and the
        # output qubit is left in (|0> + |1>)/sqrt(2)
        pat = parse("N 1\nN 2\nM 1 X 1 pi\n")
        bm = branch_map(pat)
        assert np.allclose(bm[(0,)], 0, atol=1e-12)
        assert np.allclose(bm[(1,)], [[SQ2], [SQ2]])

    def test_correction_flips_phase(self):
        pat = parse("N 1\nN 2\nM 1 X 1 pi\nZ 2 s(1)\n")
        bm = branch_map(pat)
        assert np.allclose(bm[(1,)], [[SQ2], [-SQ2]])

    def test_constant_to_plus(self):
        # input qubit 1 measured in the XY plane at angle 0: every input is
        # sent to |+> on the fresh qubit (deterministic, not invertible)
        pat = parse("input: 1\nN 2\nM 1 XY 0\n")
        bm = branch_map(pat)
        assert np.allclose(bm[(0,)], np.array([[SQ2], [SQ2]]) @
                           np.array([[SQ2, SQ2]]))
        assert check_deterministic(pat)
        assert not check_strong_deterministic(pat)  # branch 1 differs

    def test_remote_hadamard(self):
        pat = parse("input: 1\nN 2\nE 1 2\nM 1 X 0\nX 2 s(1)\n")
        bm = branch_map(pat)
        H = np.array([[1, 1], [1, -1]]) / 2  # Hadamard / sqrt(2)
        assert np.allclose(bm[(0,)], H, atol=1e-12)
        assert check_strong_deterministic(pat)

    def test_empty_pattern_identity(self):
        pat = Pattern(1, (), inputs=0b1, outputs=0b1)
        bm = branch_map(pat)
        assert np.allclose(bm[()], np.eye(2))

    def test_y_measurement_real_only(self):
        # N 2, M 1 Y 0 on an input qubit: strong for real inputs, but branch
        # probabilities depend on complex inputs
        pat = parse("input: 1\nN 2\nM 1 Y 0\n")
        assert check_strong_deterministic(pat, real_inputs=True)
        assert not check_strong_deterministic(pat, real_inputs=False)

    def test_uncorrected_pattern_not_deterministic(self):
        pat = parse("input: 1\nN 2\nE 1 2\nM 1 XY 1/4 pi\n")
        assert not check_deterministic(pat)

    def test_zero_first_branch_does_not_hide_disagreement(self):
        # M 3 X pi on a fresh |+> never gives outcome 0, so every branch
        # with s_3 = 0 is zero; the two live branches still disagree
        pat = parse("input: 1\nN 2\nN 3\nE 1 2\nM 3 X 1 pi\n"
                    "M 1 XY 1/4 pi\n")
        assert np.allclose(branch_map(pat)[(0, 0)], 0)
        assert not check_deterministic(pat)
        assert not check_strong_deterministic(pat)
        assert not check_strong_deterministic(pat, real_inputs=True)

    def test_zero_branches_beside_deterministic_ones(self):
        pat = parse("input: 1\nN 2\nN 3\nE 1 2\nM 3 X 1 pi\n"
                    "M 1 X 0\nX 2 s(1)\n")
        assert check_deterministic(pat)
        assert not check_strong_deterministic(pat)


def random_patterns(count, seed=0):
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < count * 60:
        tries += 1
        spec = InstanceSpec(n=rng.randint(3, 5), seed=rng.randrange(10**6),
                            n_inputs=rng.randint(0, 2), n_outputs=1)
        og = generate_instance(spec)
        if og is None:
            continue
        r = find_pauli_flow_bruteforce(og)
        if not r.found:
            continue
        strat = synthesize_corrections(og, r.flow)
        angles = {}
        for u, lab in og.labels.items():
            if lab.is_pauli:
                angles[u] = ZERO_ANGLE if rng.random() < 0.5 else PI_ANGLE
            else:
                angles[u] = Angle.from_radians(rng.uniform(0, 2 * math.pi))
        m = Mbqc(og, angles, strat)
        out.append((m, to_pattern(m, r.flow.order), r.flow))
    return out


def assert_matches_oracle(pat, input_state=None):
    """Every branch of run_pattern equals the oracle's branch map applied
    to the input columns, and branches come in lexicographic key order."""
    expect = oracle_branches(pat)
    branches = run_pattern(pat, input_state=input_state)
    keys = [b.key for b in branches]
    assert keys == sorted(keys)
    assert len(keys) == 1 << len(branches[0].order)
    cols = (np.eye(1 << pat.inputs.bit_count()) if input_state is None
            else np.asarray(input_state, dtype=complex).reshape(len(input_state), -1))
    got = {frozenset(b.outcomes.items()): b.state for b in branches}
    assert set(got) == set(expect)
    for k in got:
        assert np.allclose(got[k], expect[k] @ cols, atol=1e-9)
    return branches


# Patterns that create qubits after measuring others, correct fresh qubits
# before entangling them, and correct from a zero-probability outcome.
NON_STANDARD = [
    "input: 1\nN 2\nE 1 2\nM 1 XY 1/4 pi\nX 2 s(1)\nN 3\nE 2 3\n"
    "M 2 XY 1/3 pi\nX 3 s(2)\nZ 3 s(1)\n",
    "N 1\nN 2\nE 1 2\nM 1 XZ 2/3 pi\nN 3\nZ 3 s(1)\nE 2 3\nM 3 Y 0\n"
    "X 2 s(3)\nZ 2 s(1)\n",
    "input: 1 2\nE 1 2\nM 1 XY 1/4 pi\nN 3\nE 2 3\nX 2 s(1)\n"
    "M 2 X 1 pi\nZ 3 s(2)\nX 3 s(1)\nN 4\nE 3 4\nM 3 YZ 1/5 pi\n"
    "X 4 s(3)\n",
    "input: 1\nN 2\nM 2 X 1 pi\nN 3\nE 1 3\nX 3 s(2)\nM 1 XY 3/4 pi\n"
    "Z 3 s(1)\nZ 3 s(2)\n",
]

# Zero-probability branches: a fresh |+> measured along X at angle pi
# (outcome 0 impossible) or at angle 0 (outcome 1 impossible).
ZERO_BRANCHES = [
    "input: 1\nN 2\nN 3\nE 1 2\nM 3 X 1 pi\nM 1 XY 1/4 pi\nX 2 s(3)\n",
    "N 1\nN 2\nN 3\nE 2 3\nM 1 X 0\nZ 2 s(1)\nM 2 X 1 pi\n"
    "X 3 s(2)\nZ 3 s(1)\n",
    "input: 1\nN 2\nM 2 X 0\nN 3\nE 1 3\nM 1 Y 1 pi\nX 3 s(2)\n"
    "X 3 s(1)\n",
]


class TestAgainstOracle:
    def test_branch_states_match(self):
        cases = random_patterns(30, seed=21)
        assert len(cases) >= 25
        for _, pat, _ in cases:
            assert_matches_oracle(pat)

    @pytest.mark.parametrize("text", NON_STANDARD)
    def test_non_standard_patterns(self, text):
        assert_matches_oracle(parse(text))

    @pytest.mark.parametrize("text", ZERO_BRANCHES)
    def test_zero_probability_branches(self, text):
        branches = assert_matches_oracle(parse(text))
        assert any(np.allclose(b.state, 0) for b in branches)
        assert branches_complete(branches)

    def test_vector_inputs(self):
        rng = np.random.default_rng(7)
        texts = NON_STANDARD + ZERO_BRANCHES
        texts += [print_pattern(pat) for _, pat, _ in random_patterns(6, seed=32)]
        for text in texts:
            pat = parse(text)
            d = 1 << pat.inputs.bit_count()
            vec = rng.normal(size=d) + 1j * rng.normal(size=d)
            assert_matches_oracle(pat, input_state=vec)
            assert_matches_oracle(pat, input_state=rng.normal(size=(d, 3)))

    def test_keep_measured_matches_oracle(self):
        texts = NON_STANDARD + ZERO_BRANCHES
        texts += [print_pattern(pat) for _, pat, _ in random_patterns(6, seed=33)]
        for text in texts:
            pat = parse(text)
            bases = {c.qubit: eigenpair(c.label, c.angle)
                     for c in pat.commands if isinstance(c, Measure)}
            live = members(pat.outputs)
            expect = oracle_branches(pat)
            branches = run_pattern(pat, keep_measured=True)
            for b in branches:
                assert b.qubits == tuple(sorted(live + list(bases)))
                mat = expect[frozenset(b.outcomes.items())]
                full = np.zeros((1 << len(b.qubits), mat.shape[1]), dtype=complex)
                for row in range(len(full)):
                    bits = {q: (row >> j) & 1 for j, q in enumerate(b.qubits)}
                    amp = 1
                    for u, vecs in bases.items():
                        amp *= vecs[b.outcomes[u]][bits[u]]
                    live_row = sum(bits[q] << j for j, q in enumerate(live))
                    full[row] = amp * mat[live_row]
                assert np.allclose(b.state, full, atol=1e-9)

    def test_completeness(self):
        for _, pat, _ in random_patterns(10, seed=22):
            assert branches_complete(run_pattern(pat))

    def test_keep_measured_projects(self):
        # vertices header pins ids: qubit "1" (measured) is id 0, "2" is id 1
        pat = parse("vertices: 1 2\ninput: 1\nN 2\nE 1 2\nM 1 X 0\nX 2 s(1)\n")
        branches = run_pattern(pat, keep_measured=True)
        assert all(b.qubits == (0, 1) for b in branches)
        plus, minus = eigenpair(MeasurementLabel.X, ZERO_ANGLE)
        dropped = {b.key: b.state for b in run_pattern(pat)}
        for b in branches:
            v = plus if b.key == (0,) else minus
            # kept state: eigenvector on id 0 (row bit 0) tensor the
            # contracted state on id 1 (row bit 1)
            full = np.zeros((4, 2), dtype=complex)
            for r2 in range(2):
                for r1 in range(2):
                    full[r1 | (r2 << 1)] = v[r1] * dropped[b.key][r2]
            assert np.allclose(b.state, full, atol=1e-12)


class TestInputHandling:
    def test_vector_input(self):
        pat = parse("input: 1\nN 2\nE 1 2\nM 1 X 0\nX 2 s(1)\n")
        phi = np.array([0.6, 0.8], dtype=complex)
        branches = run_pattern(pat, input_state=phi)
        H = np.array([[1, 1], [1, -1]]) / 2
        for b in branches:
            assert np.allclose(b.state[:, 0], H @ phi, atol=1e-12)

    def test_bad_shape_rejected(self):
        pat = parse("input: 1\nN 2\nE 1 2\nM 1 X 0\n")
        with pytest.raises(ContractError):
            run_pattern(pat, input_state=np.ones(4))

    def test_invalid_pattern_rejected(self):
        pat = Pattern(1, (New(0),), inputs=0b1, outputs=0b1)
        with pytest.raises(ContractError):
            run_pattern(pat)

    def test_capacity(self):
        cmds = tuple(New(i) for i in range(5))
        pat = Pattern(5, cmds, inputs=0, outputs=0b11111)
        with pytest.raises(CapacityError):
            run_pattern(pat, capacity=4)


def interleaved_chain(n):
    """N 0; M 0; N 1; M 1; ...: one live qubit at a time, n outcomes."""
    cmds = []
    for i in range(n):
        cmds += [New(i), Measure(i, MeasurementLabel.XY, Angle.from_fraction(1, 4))]
    return Pattern(n, tuple(cmds), inputs=0, outputs=0)


def grid(rows, cols):
    """rows x cols cluster state, inputs the first column and outputs the
    last, every measured vertex XY at angle pi/4."""
    def index(i, j):
        return i * cols + j

    edges = [(index(i, j), index(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(index(i, j), index(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    measured = [index(i, j) for i in range(rows) for j in range(cols - 1)]
    og = OpenGraph(Graph.from_edges(rows * cols, edges),
                   mask_of(index(i, 0) for i in range(rows)),
                   mask_of(index(i, cols - 1) for i in range(rows)),
                   {u: MeasurementLabel.XY for u in measured})
    flow = find_pauli_flow(og).flow
    m = Mbqc(og, {u: Angle.from_fraction(1, 4) for u in measured},
             synthesize_corrections(og, flow))
    return m, completed_order(og, flow)


class TestCapacity:
    def test_outcome_axes_count(self):
        # outcome axes count towards capacity: 13 sequential measurements
        # exceed the default of 12 although one qubit is live at a time
        with pytest.raises(CapacityError):
            run_pattern(interleaved_chain(13))
        with pytest.raises(CapacityError):
            run_pattern(interleaved_chain(5), capacity=4)
        assert len(run_pattern(interleaved_chain(4), capacity=4)) == 16

    def test_grid_2x7_robust_at_capacity_14(self):
        m, order = grid(2, 7)
        with pytest.raises(CapacityError):
            check_robust_deterministic(m, angle_samples=3, order=order)
        rep = check_robust_deterministic(m, angle_samples=3, order=order,
                                         capacity=14)
        assert rep["ok"], rep["failure"]
        # one total order over 12 measured vertices: 13 truncations of 8
        assert rep["checks"] == 13 * 8


def reference_deterministic(pat, tol, seed):
    """Per input column: the first branch with norm above tol is the
    reference, and every branch is proportional to it."""
    maps = oracle_branches(pat)
    measured = [c.qubit for c in pat.commands if isinstance(c, Measure)]
    tests = _test_vectors(1 << pat.inputs.bit_count(), real=False, seed=seed)
    states = [maps[k] @ tests for k in sorted(
        maps, key=lambda k: tuple(dict(k)[u] for u in measured))]
    for j in range(tests.shape[1]):
        ref = next((s[:, j] for s in states if np.linalg.norm(s[:, j]) > tol), None)
        if ref is not None and not all(reference_proportional(ref, s[:, j], tol)
                                       for s in states):
            return False
    return True


def test_deterministic_matches_reference():
    """`check_deterministic` gives the per-column verdict of the oracle's
    branch maps on the oracle corpora and one-target mutants of them."""
    rng = random.Random(71)
    pats = [parse(text) for text in NON_STANDARD + ZERO_BRANCHES]
    for count, seed in ((30, 21), (10, 22), (6, 32), (6, 33)):
        for m, pat, _ in random_patterns(count, seed=seed):
            pats.append(pat)
            pats += [to_pattern(mut) for mut in one_target_mutants(m, rng, 2)]
    verdicts = []
    for i, pat in enumerate(pats):
        got = check_deterministic(pat, seed=i)
        assert got == reference_deterministic(pat, 1e-9, i), print_pattern(pat)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


class TestImplications:
    def test_strong_implies_deterministic(self):
        for _, pat, _ in random_patterns(10, seed=23):
            if check_strong_deterministic(pat):
                assert check_deterministic(pat)

    def test_robust_implies_strong_full_set(self):
        for m, pat, flow in random_patterns(6, seed=24):
            rep = check_robust_deterministic(m, angle_samples=3, seed=1,
                                             order=flow.order)
            if rep["ok"]:
                real = m.og.is_real
                assert check_strong_deterministic(pat, real_inputs=real)


class TestRobustness:
    def test_synthesized_patterns_robust(self):
        for m, _, flow in random_patterns(8, seed=25):
            rep = check_robust_deterministic(m, angle_samples=4, seed=2,
                                             order=flow.order)
            assert rep["ok"], rep["failure"]
            assert rep["checks"] > 0

    def test_dropping_corrections_breaks_robustness(self):
        # remote Hadamard chain: removing the corrections must be caught
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        og = OpenGraph(g, 0b001, 0b100,
                       {0: MeasurementLabel.XY, 1: MeasurementLabel.XY})
        angles = {0: Angle.from_fraction(1, 4), 1: Angle.from_fraction(1, 4)}
        bare = Mbqc(og, angles, CorrectionStrategy({0: 0, 1: 0}, {0: 0, 1: 0}))
        rep = check_robust_deterministic(bare, angle_samples=4, seed=3)
        assert not rep["ok"]
        assert rep["failure"]["measured"] is not None

    def test_inexact_pauli_angle_rejected_before_truncations(self):
        # truncation {0} fails without corrections, but the X-labelled
        # vertex 1 at angle pi/2 is rejected when the Mbqc is built, so no
        # robustness check can start
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        og = OpenGraph(g, 0b001, 0b100,
                       {0: MeasurementLabel.XY, 1: MeasurementLabel.X})
        angles = {0: Angle.from_fraction(1, 4), 1: Angle.from_fraction(1, 2)}
        with pytest.raises(ContractError, match="exact angle 0 or pi"):
            Mbqc(og, angles, CorrectionStrategy({0: 0, 1: 0}, {0: 0, 1: 0}))

    def test_conflicting_order_rejected(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        og = OpenGraph(g, 0b001, 0b100,
                       {0: MeasurementLabel.XY, 1: MeasurementLabel.XY})
        m = Mbqc(og, {0: ZERO_ANGLE, 1: ZERO_ANGLE},
                 CorrectionStrategy({0: 0b010, 1: 0b100}, {0: 0, 1: 0}))
        rev = PartialOrder.from_pairs(3, [(1, 0)])
        with pytest.raises(ContractError):
            check_robust_deterministic(m, angle_samples=1, order=rev)


# ---------------------------------------------------------------------------
# reference robustness check: one pattern per (truncation, assignment), each
# run on the oracle and compared branch by branch; every truncation K takes
# the one stream of assignments drawn over all measured vertices,
# restricted to K


def reference_lowersets(vertices, order):
    out = []
    vs = list(vertices)
    for mask in range(1 << len(vs)):
        sel = {vs[i] for i in range(len(vs)) if (mask >> i) & 1}
        if all(not (order.less(u, v) and u not in sel) for v in sel for u in vs):
            out.append(tuple(sorted(sel)))
    return out


def reference_proportional(a, b, tol):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= tol or nb <= tol:
        return True
    return abs(abs(np.vdot(a, b)) - na * nb) <= tol * na * nb + tol


def reference_strong(pat, real_inputs, tol, seed):
    maps = oracle_branches(pat)
    measured = [c.qubit for c in pat.commands if isinstance(c, Measure)]
    states = [maps[k] for k in sorted(
        maps, key=lambda k: tuple(dict(k)[u] for u in measured))]
    if real_inputs:
        tests = _test_vectors(1 << pat.inputs.bit_count(), real=True, seed=seed)
        states = [s @ tests for s in states]
        for b in states[1:]:
            for j in range(tests.shape[1]):
                a, c = states[0][:, j], b[:, j]
                if abs(np.linalg.norm(a) - np.linalg.norm(c)) > tol:
                    return False
                if not reference_proportional(a, c, tol):
                    return False
        return True
    ref = states[0]
    idx = np.unravel_index(np.argmax(np.abs(ref)), ref.shape)
    if abs(ref[idx]) <= tol:
        return all(np.allclose(b, 0, atol=tol) for b in states)
    for b in states[1:]:
        c = b[idx] / ref[idx]
        if abs(abs(c) - 1) > tol:
            return False
        if not np.allclose(b, c * ref, atol=tol):
            return False
    return True


def reference_robust(m, angle_samples, seed, tol, order):
    og = m.og
    real_mode = og.is_real
    checks = 0
    induced = measurement_order(m, order)
    full = to_pattern(m, order)
    stream = angle_rows(m, angle_samples, seed)
    for keep in reference_lowersets(sorted(og.labels), induced):
        sub_og = OpenGraph(og.graph, og.inputs, og.outputs | (og.measured & ~mask_of(keep)),
                           {u: og.labels[u] for u in keep}, og.names)
        strategy = CorrectionStrategy({u: m.strategy.x[u] for u in keep},
                                      {u: m.strategy.z[u] for u in keep})
        # the checked truncation is a filter of the full pattern
        own = to_pattern(Mbqc(sub_og, {u: m.angles[u] for u in keep}, strategy), order)
        assert _truncate(full, mask_of(keep)) == own and validate(own)
        for drawn in stream:
            angles = {u: drawn[u] for u in keep}
            pat = to_pattern(Mbqc(sub_og, angles, strategy), order)
            checks += 1
            verdict = validate(pat)
            if not verdict:
                raise ContractError(f"pattern is not valid: {verdict.message}")
            if not reference_strong(pat, real_mode, tol, seed):
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


def angle_rows(m, samples, seed):
    """Every row of the angle stream over all measured vertices as `Angle`s."""
    measured = sorted(m.og.labels)
    stream = _angle_stream(m, measured, samples, seed)
    return [_assignment(m, measured, stream, row) for row in range(len(stream))]


def stream_bases(m, samples, seed):
    """The eigenbases of every measured vertex under the angle stream, as
    the robustness check builds them."""
    measured = sorted(m.og.labels)
    stream = _angle_stream(m, measured, samples, seed)
    return dict(zip(measured, _eigen_rows([m.og.labels[u] for u in measured], stream.T)))


def report_or_error(check, m, **kw):
    try:
        return check(m, **kw)
    except ContractError as e:
        return ("ContractError", str(e))


def one_target_mutants(m, rng, count):
    """Strategies with one correction target toggled; non-extensive ones
    are skipped."""
    out = []
    labels = sorted(m.og.labels)
    while len(out) < count:
        u, v = rng.choice(labels), rng.randrange(m.og.n)
        x, z = dict(m.strategy.x), dict(m.strategy.z)
        side = x if rng.random() < 0.5 else z
        side[u] ^= 1 << v
        try:
            out.append(Mbqc(m.og, m.angles, CorrectionStrategy(x, z)))
        except (ValueError, ContractError):
            continue
    return out


def test_robust_reports_match_reference():
    """The batched check reports what the one-pattern-per-assignment loop on
    the oracle reports: verdict, checks count and failing truncation and
    angles, or the same ContractError."""
    rng = random.Random(41)
    cases = random_patterns(100, seed=41)
    assert len(cases) >= 100
    reports = []
    for i, (m, _, flow) in enumerate(cases):
        orders = [flow.order, completed_order(m.og, flow), None]
        mutants = one_target_mutants(m, rng, 1)
        runs = [(m, o) for o in orders] + [(mut, flow.order) for mut in mutants]
        for mbqc, order in runs:
            kw = dict(angle_samples=1, seed=i, tol=1e-9, order=order)
            got = report_or_error(check_robust_deterministic, mbqc, **kw)
            assert got == report_or_error(reference_robust, mbqc, **kw)
            reports.append(got)
    assert any(isinstance(r, dict) and not r["ok"] for r in reports)
    assert any(isinstance(r, dict) and r["ok"] for r in reports)


# ---------------------------------------------------------------------------
# one run per check: lowersets, prefixes read off the run, run counts


@st.composite
def orders(draw):
    """(vertices, order): a chain, an antichain or a random order over n
    ids, and a subset of them as the vertices."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["chain", "antichain", "random"]))
    rank = draw(st.permutations(range(n)))
    if kind == "chain":
        order = PartialOrder.chain(n, rank)
    elif kind == "antichain":
        order = PartialOrder.empty(n)
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)) if n else []
        order = PartialOrder.from_pairs(
            n, [(rank[min(a, b)], rank[max(a, b)]) for a, b in pairs if a != b])
    vertices = sorted(draw(st.sets(st.sampled_from(range(n))))) if n else []
    return vertices, order


@given(orders())
@settings(max_examples=300, deadline=None)
def test_lowersets_match_reference(case):
    vertices, order = case
    assert _lowersets(vertices, order) == reference_lowersets(vertices, order)


def test_lowersets_of_a_chain_and_an_antichain():
    chain = PartialOrder.chain(14, range(13, -1, -1))
    assert _lowersets(range(14), chain) == [tuple(range(k, 14)) for k in range(14, -1, -1)]
    assert len(_lowersets(range(6), PartialOrder.empty(6))) == 64
    assert _lowersets([], PartialOrder.empty(0)) == [()]


def random_linear_extension(order, vertices, rng):
    left, out = set(vertices), []
    while left:
        ready = sorted(v for v in left if not any(order.less(u, v) for u in left))
        out.append(rng.choice(ready))
        left.remove(out[-1])
    return out


def prefix_cases():
    """(mbqc, order) pairs: random total orders, the completed orders of the
    2x5 and 2x6 grids, and one-target mutants under their own order."""
    rng = random.Random(51)
    cases = []
    for m, _, flow in random_patterns(12, seed=51):
        induced = measurement_order(m, flow.order)
        chain = random_linear_extension(induced, sorted(m.og.labels), rng)
        cases.append((m, PartialOrder.chain(m.og.n, chain)))
        cases += [(mut, None) for mut in one_target_mutants(m, rng, 1)]
    cases += [grid(2, 5), grid(2, 6)]
    return cases


def test_prefix_reads_equal_truncated_runs():
    """Each pause of the one run holds, bit for bit, the tensor of the
    truncation to the measurements before it, run on its own."""
    for m, order in prefix_cases():
        full = _standard_pattern(m, measurement_order(m, order))
        d_in = 1 << m.og.inputs.bit_count()
        columns = (_test_vectors(d_in, real=True, seed=0) if m.og.is_real
                   else np.eye(d_in))
        bases = stream_bases(m, 2, 0)
        sequence = [c.qubit for c in full.commands if isinstance(c, Measure)]
        pauses = 0
        for j, (out, _, _) in enumerate(_abort_points(full, columns, bases, 12)):
            expect = _run(_truncate(full, mask_of(sequence[:j])), columns, bases, 12)[0]
            assert np.array_equal(out, expect)
            pauses += 1
        assert pauses == len(sequence) + 1


def test_pauses_permute_the_truncations_branch_states():
    """Slice 0 of each pause, the Mbqc's own angles, holds `run_pattern`'s
    branch states of the truncation to the measurements before it, up to an
    axis permutation: the same branches in the same order, the rows
    big-endian over the live qubits as listed, the columns before the
    branches."""
    for m, order in prefix_cases():
        full = _standard_pattern(m, measurement_order(m, order))
        columns = _test_vectors(1 << m.og.inputs.bit_count(), real=m.og.is_real)
        bases = stream_bases(m, 2, 0)
        sequence = [c.qubit for c in full.commands if isinstance(c, Measure)]
        for j, (out, _, live) in enumerate(_abort_points(full, columns, bases, 12)):
            branches = run_pattern(_truncate(full, mask_of(sequence[:j])), input_state=columns)
            keep = branches[0].qubits
            _, n_rows, n_cols, n_branch = out.shape
            q = len(live)
            perm = [q + 1] + [live.index(u) for u in reversed(keep)] + [q]
            axes = np.transpose(out[0].reshape((2,) * q + (n_cols, n_branch)), perm)
            got, expect = axes.reshape(n_branch, n_rows, n_cols), [b.state for b in branches]
            assert np.array_equal(got, expect)


def test_dtype_follows_the_graph():
    """The run of a pattern whose labels are all real (X, Z, XZ) is float64,
    any other run complex128, and so are the branch states."""
    cases = random_patterns(40, seed=61)
    assert {m.og.is_real for m, _, _ in cases} == {True, False}
    for m, pat, _ in cases:
        cols = _test_vectors(1 << pat.inputs.bit_count(), real=True)
        out = _run(pat, cols, _bases(pat), 12)[0]
        assert out.dtype == (np.float64 if m.og.is_real else np.complex128)
        assert run_pattern(pat)[0].state.dtype == out.dtype
        assert run_pattern(pat, input_state=cols + 0j)[0].state.dtype == np.complex128


def robust_real_corpus():
    """Criterion 5/6's bipartite real pool with synthesized strategies under
    the completed order, and one-target mutants of them."""
    from test_acceptance import bipartite_flow_pool
    rng = random.Random(62)
    cases = []
    for i, (og, flow) in enumerate(bipartite_flow_pool()):
        angles = {u: (PI_ANGLE if rng.random() < 0.5 else ZERO_ANGLE) if lab.is_pauli
                  else Angle.from_radians(rng.uniform(0, 2 * math.pi))
                  for u, lab in sorted(og.labels.items())}
        m = Mbqc(og, angles, synthesize_corrections(og, flow))
        order = completed_order(og, flow)
        cases += [(mbqc, order, i) for mbqc in [m] + one_target_mutants(m, rng, 1)]
    return cases


def test_real_runs_report_as_complex_runs(monkeypatch):
    """On real graphs the float64 check reports what the same check with
    its test vectors and bases cast to complex128 reports."""
    cases = robust_real_corpus()
    assert all(m.og.is_real for m, _, _ in cases)

    def check_all():
        return [report_or_error(check_robust_deterministic, m, angle_samples=2, seed=seed,
                                order=order) for m, order, seed in cases]

    def as_complex(f):
        return lambda *args, **kw: f(*args, **kw).astype(complex)

    real = check_all()
    for name in ("_eigen_rows", "_test_vectors"):
        monkeypatch.setattr(statevec, name, as_complex(getattr(statevec, name)))
    assert check_all() == real
    assert any(isinstance(r, dict) and not r["ok"] for r in real)
    assert any(isinstance(r, dict) and r["ok"] for r in real)


# Failures at a random draw of the angle stream (assignment 5 + i is the
# i-th draw, 8 assignments per truncation), recorded from the check that
# built Angle dicts per assignment: one-target mutants of synthesized
# strategies, every angle 0, so that the grid rows all pass.
PINNED_FAILURES = [
    ((881, 6, 3, "x", 0), {
        "ok": False, "checks": 38, "failure": {
            "measured": ["1", "2", "3", "5"],
            "angles": {"1": "0", "2": "4.765013603408047", "3": "3.52885534397384",
                       "5": "0"},
            "real_inputs": True}}),
    ((8095, 7, 5, "x", 3), {
        "ok": False, "checks": 38, "failure": {
            "measured": ["0", "1", "4", "5"],
            "angles": {"0": "0", "1": "0", "4": "3.1986642145886766",
                       "5": "1.174833493358677"},
            "real_inputs": False}}),
    ((17163, 7, 5, "z", 1), {
        "ok": False, "checks": 38, "failure": {
            "measured": ["0", "2", "3", "5"],
            "angles": {"0": "1/1 pi", "2": "4.723155854785785", "3": "0",
                       "5": "2.527293926890624"},
            "real_inputs": False}}),
]


@pytest.mark.parametrize("case, expect", PINNED_FAILURES, ids=["real", "complex", "pauli-pi"])
def test_pinned_failures_at_random_draws(case, expect):
    """The angle stream, drawn as an array, and the report's angle strings,
    built only for the failing assignment, are byte for byte the reports of
    Angle dicts drawn per assignment."""
    seed, n, u, side, v = case
    og = generate_instance(InstanceSpec(n=n, seed=seed, n_inputs=1, n_outputs=2,
                                        edge_probability=0.5, reject_input_z=True))
    flow = find_pauli_flow(og).flow
    strategy = synthesize_corrections(og, flow)
    x, z = dict(strategy.x), dict(strategy.z)
    (x if side == "x" else z)[u] ^= 1 << v
    m = Mbqc(og, {w: ZERO_ANGLE for w in og.labels}, CorrectionStrategy(x, z))
    rep = check_robust_deterministic(m, angle_samples=3, seed=seed,
                                     order=completed_order(og, flow))
    assert (rep["checks"] - 1) % 8 >= 5  # a random draw
    assert rep["failure"]["real_inputs"] == og.is_real
    assert rep == expect


@pytest.fixture
def run_starts(monkeypatch):
    """Count the runs of the command loop that start."""
    starts = []
    loop = statevec._abort_points

    def counted(*args, **kwargs):
        starts.append(args[0])
        yield from loop(*args, **kwargs)

    monkeypatch.setattr(statevec, "_abort_points", counted)
    return starts


def test_one_run_per_total_order_check(run_starts):
    cases = [grid(2, 5)] + [(m, completed_order(m.og, flow))
                            for m, _, flow in random_patterns(6, seed=52)]
    for m, order in cases:
        run_starts.clear()
        rep = check_robust_deterministic(m, angle_samples=1, order=order)
        assert rep["ok"], rep["failure"]
        assert len(run_starts) == 1


def test_non_prefix_lowersets_run_as_filters(run_starts):
    m, _ = grid(2, 4)
    cases = [(m, find_pauli_flow(m.og).flow.order)]
    cases += [(m, flow.order) for m, _, flow in random_patterns(10, seed=53)]
    extra = 0
    for m, order in cases:
        run_starts.clear()
        rep = check_robust_deterministic(m, angle_samples=1, order=order)
        assert rep["ok"], rep["failure"]
        lowersets = reference_lowersets(sorted(m.og.labels), measurement_order(m, order))
        prefixes = len(m.og.labels) + 1
        assert len(run_starts) == 1 + len(lowersets) - prefixes
        extra += len(lowersets) - prefixes
    assert extra > 0


@pytest.mark.parametrize("total", [True, False], ids=["chain", "non-chain"])
def test_failure_at_a_sampled_assignment(monkeypatch, total):
    """A failure forced at a sampled assignment of one truncation reports
    that truncation and the shared stream restricted to it."""
    m, chain = grid(2, 4)
    order = chain if total else find_pauli_flow(m.og).flow.order
    lowersets = reference_lowersets(sorted(m.og.labels), measurement_order(m, order))
    assert (len(lowersets) == len(m.og.labels) + 1) == total
    samples, seed, hit = 3, 5, 6  # assignment 6 is the second random draw
    stream = angle_rows(m, samples, seed)
    strong_failures = statevec._strong_failures
    targets = (1, len(lowersets) // 2, len(lowersets) - 1)
    full = _standard_pattern(m, measurement_order(m, order))
    sequence = [c.qubit for c in full.commands if isinstance(c, Measure)]
    prefixes = {tuple(sorted(sequence[:j])) for j in range(len(sequence) + 1)}
    assert all(lowersets[t] in prefixes for t in targets) == total
    for target in targets:
        calls = []

        def forced(out, real_inputs, tol):
            bad = strong_failures(out, real_inputs, tol)
            if len(calls) == target:
                bad = bad.copy()
                bad[hit] = True
            calls.append(out)
            return bad

        monkeypatch.setattr(statevec, "_strong_failures", forced)
        rep = check_robust_deterministic(m, angle_samples=samples, seed=seed, order=order)
        keep = lowersets[target]
        names = m.og.names
        assert not rep["ok"]
        assert rep["checks"] == target * (5 + samples) + hit + 1
        assert rep["failure"]["measured"] == [names[u] for u in keep]
        assert rep["failure"]["angles"] == {names[u]: str(stream[hit][u]) for u in keep}
