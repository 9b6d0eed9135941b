"""Pauli algebra, stabilizer updates, and agreement with the dense simulator."""

import collections
import itertools
import math
import random
import time

import numpy as np
import pytest

from mbqcflow.errors import ContractError
from mbqcflow.gf2 import mask_of, members, rank, row_space_equal
from mbqcflow.graphs import Graph, MeasurementLabel, OpenGraph
from mbqcflow.instances import InstanceSpec, generate_instance
from mbqcflow.patterns import (Angle, Mbqc, PI_ANGLE, ZERO_ANGLE, to_pattern)
from mbqcflow.search import find_pauli_flow, find_pauli_flow_bruteforce
from mbqcflow.stabilizer import (PauliOperator, StabilizerState,
                                 initial_stabilizers, measurement_operator,
                                 pauli_robustness_probe)
from mbqcflow.statevec import run_pattern
from mbqcflow.synthesis import (CorrectionStrategy, bipartite_normal_form,
                                is_extensive, parallelize,
                                synthesize_corrections)

from oracles import (apply_pauli, apply_pauli_to_vector, canonical_generators,
                     collapse, correction_operator, measure_outcome,
                     output_group_signature, pauli_runs, projector_overlap,
                     reorder_generators, restricted_generators, state_distance)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(p: PauliOperator, n: int) -> np.ndarray:
    """Independent dense matrix of i^phase X_x Z_z (little-endian kron)."""
    out = np.array([[1j ** p.phase]], dtype=complex)
    for q in range(n):
        m = I2
        if (p.x >> q) & 1 and (p.z >> q) & 1:
            m = X @ Z
        elif (p.x >> q) & 1:
            m = X
        elif (p.z >> q) & 1:
            m = Z
        out = np.kron(m, out)  # qubit q is bit q: higher qubits outermost
    return out


def random_pauli(rng, n):
    return PauliOperator(rng.randrange(4), rng.randrange(1 << n),
                         rng.randrange(1 << n))


class TestPauliOperator:
    def test_multiplication_matches_dense(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randint(1, 3)
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            assert np.allclose(dense(a * b, n), dense(a, n) @ dense(b, n))

    def test_commutes_matches_dense(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randint(1, 3)
            a, b = random_pauli(rng, n), random_pauli(rng, n)
            da, db = dense(a, n), dense(b, n)
            assert a.commutes(b) == np.allclose(da @ db, db @ da)

    def test_hermitian_matches_dense(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 3)
            a = random_pauli(rng, n)
            d = dense(a, n)
            assert a.is_hermitian == np.allclose(d, d.conj().T)
            if a.is_hermitian:
                unsigned = PauliOperator(a.phase - (2 if a.sign < 0 else 0),
                                         a.x, a.z)
                assert np.allclose(d, a.sign * dense(unsigned, n))

    def test_single(self):
        assert np.allclose(dense(PauliOperator.single("Y", 0), 1), Y)
        assert np.allclose(dense(PauliOperator.single("X", 0, -1), 1), -X)
        with pytest.raises(ValueError):
            PauliOperator.single("Q", 0)

    def test_describe(self):
        p = PauliOperator.single("Y", 1) * PauliOperator.single("Z", 0)
        assert p.describe(2) in ("+iZXZ", "-iZXZ", "+ZXZ", "-ZXZ")
        assert PauliOperator.identity().describe(2) == "+II"

    def test_sign_requires_hermitian(self):
        with pytest.raises(ContractError):
            _ = PauliOperator(1, 1, 0).sign  # i*X is not Hermitian


class TestMeasurementOperator:
    def test_signs(self):
        p = measurement_operator(MeasurementLabel.X, ZERO_ANGLE, 0)
        assert np.allclose(dense(p, 1), X)
        p = measurement_operator(MeasurementLabel.Y, PI_ANGLE, 0)
        assert np.allclose(dense(p, 1), -Y)

    def test_guards(self):
        with pytest.raises(ContractError):
            measurement_operator(MeasurementLabel.XY, ZERO_ANGLE, 0)
        with pytest.raises(ContractError):
            measurement_operator(MeasurementLabel.X, Angle.from_fraction(1, 2), 0)


def graph_state_vector(og, zero_inputs=0):
    """Dense graph state built directly: |0>/|+> product, then CZ per edge."""
    n = og.n
    psi = np.ones(1 << n, dtype=complex)
    for i in range(1 << n):
        for q in range(n):
            if (zero_inputs >> q) & 1 and (i >> q) & 1:
                psi[i] = 0
    psi /= np.linalg.norm(psi)
    for a, b in og.graph.edges():
        for i in range(1 << n):
            if (i >> a) & 1 and (i >> b) & 1:
                psi[i] *= -1
    return psi


def demo_open_graph():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    return OpenGraph(g, 0b001, 0b100,
                     {0: MeasurementLabel.X, 1: MeasurementLabel.X})


class TestStabilizerState:
    def test_graph_state_generators_stabilize_vector(self):
        og = demo_open_graph()
        for zero_inputs in (0, 0b001):
            st = initial_stabilizers(og, zero_inputs)
            psi = graph_state_vector(og, zero_inputs)
            for gen in st.generators:
                assert np.allclose(apply_pauli_to_vector(gen, psi), psi)
            assert abs(projector_overlap(psi, st.generators) - 1) < 1e-12
            assert state_distance(psi, st) < 1e-9

    def test_zero_inputs_guard(self):
        og = demo_open_graph()
        with pytest.raises(ContractError):
            initial_stabilizers(og, 0b010)  # not an input

    def test_validation(self):
        with pytest.raises(ContractError):
            StabilizerState(2, [PauliOperator.single("X", 0)])  # wrong count
        with pytest.raises(ContractError):
            StabilizerState(1, [PauliOperator(1, 1, 0)])  # not Hermitian
        with pytest.raises(ContractError):
            StabilizerState(2, [PauliOperator.single("X", 0),
                                PauliOperator.single("Z", 0)])  # anticommute
        with pytest.raises(ContractError):
            StabilizerState(2, [PauliOperator.single("X", 0),
                                PauliOperator.single("X", 0, -1)])  # dependent


class TestMeasurement:
    def test_determined_outcome(self):
        st = StabilizerState(1, [PauliOperator.single("Z", 0)])  # |0>
        assert measure_outcome(st, PauliOperator.single("Z", 0)) == 0
        assert measure_outcome(st, PauliOperator.single("Z", 0, -1)) == 1
        assert measure_outcome(st, PauliOperator.single("X", 0)) is None

    def test_collapse_uniform(self):
        st = StabilizerState(1, [PauliOperator.single("Z", 0)])
        post = collapse(st, PauliOperator.single("X", 0), 1)
        assert measure_outcome(post, PauliOperator.single("X", 0)) == 1

    def test_collapse_zero_probability(self):
        st = StabilizerState(1, [PauliOperator.single("Z", 0)])
        with pytest.raises(ContractError):
            collapse(st, PauliOperator.single("Z", 0), 1)

    def test_collapse_matches_dense_projection(self):
        og = demo_open_graph()
        st = initial_stabilizers(og)
        psi = graph_state_vector(og)
        m = PauliOperator.single("X", 0)
        for outcome, sgn in ((0, 1), (1, -1)):
            post = collapse(st, m, outcome)
            proj = (psi + sgn * apply_pauli_to_vector(m, psi)) / 2
            proj /= np.linalg.norm(proj)
            assert state_distance(proj, post) < 1e-9

    def test_collapse_checks_inserted_observable(self):
        st = StabilizerState(1, [PauliOperator.single("Z", 0)])  # |0>
        with pytest.raises(ContractError):
            collapse(st, PauliOperator(1, 1, 0), 0)  # i*X: not Hermitian
        x0x3 = PauliOperator.single("X", 0) * PauliOperator.single("X", 3)
        with pytest.raises(ContractError):
            collapse(st, x0x3, 0)  # anticommutes with Z0, outside the register

    def test_outcome_rejects_observable_outside_register(self):
        # X1 on one qubit commutes with Z0; its symplectic bits alias Z0's
        st = StabilizerState(1, [PauliOperator.single("Z", 0)])
        for m in (PauliOperator.single("X", 1),
                  PauliOperator.single("Z", 0) * PauliOperator.single("X", 1)):
            with pytest.raises(ContractError):
                measure_outcome(st, m)
            with pytest.raises(ContractError):
                collapse(st, m, 0)

    def test_apply_pauli_conjugation(self):
        og = demo_open_graph()
        st = initial_stabilizers(og)
        psi = graph_state_vector(og)
        p = PauliOperator.single("Z", 1) * PauliOperator.single("X", 2)
        assert state_distance(apply_pauli_to_vector(p, psi),
                              apply_pauli(st, p)) < 1e-9


def symplectic_rows(state):
    n = state.n
    return [g.x | (g.z << n) for g in state.generators]


class TestReorder:
    def test_contract_and_row_space(self):
        rng = random.Random(9)
        og = demo_open_graph()
        st = initial_stabilizers(og)
        measurements = [PauliOperator.single("X", 0),
                        PauliOperator.single("Z", 1)]
        re = reorder_generators(st, measurements)
        # Claim-1 contract: generator i anticommutes with measurement i when
        # any of generators i.. does; all later generators commute with it
        for i, m in enumerate(measurements):
            anti = [j for j in range(i, re.n) if not re.generators[j].commutes(m)]
            if anti:
                assert anti == [i]
        assert row_space_equal(symplectic_rows(st), symplectic_rows(re))

    def test_random_instances(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(2, 4)
            g_edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                       if rng.random() < 0.5]
            g = Graph.from_edges(n, g_edges)
            og = OpenGraph(g, 0, 1 << (n - 1),
                           {u: MeasurementLabel.X for u in range(n - 1)})
            st = initial_stabilizers(og)
            ms = [PauliOperator.single(rng.choice("XYZ"), q)
                  for q in range(n - 1)]
            re = reorder_generators(st, ms)
            for i, m in enumerate(ms):
                anti = [j for j in range(i, n) if not re.generators[j].commutes(m)]
                assert anti in ([], [i])
            assert row_space_equal(symplectic_rows(st), symplectic_rows(re))


class TestCanonical:
    def test_same_group_same_canonical(self):
        og = demo_open_graph()
        st = initial_stabilizers(og)
        gens = list(st.generators)
        shuffled = [gens[2], gens[0] * gens[1], gens[1]]
        assert canonical_generators(gens, 3) == \
            canonical_generators(shuffled, 3)

    def test_sign_sensitivity(self):
        a = [PauliOperator.single("Z", 0)]
        b = [PauliOperator.single("Z", 0, -1)]
        assert canonical_generators(a, 1) != canonical_generators(b, 1)

    def test_restricted_generators_supported(self):
        og = demo_open_graph()
        st = initial_stabilizers(og)
        support = 0b110
        subs = restricted_generators(st, support)
        for p in subs:
            assert (p.x | p.z) & ~support == 0
        # the subgroup is maximal: adding any outside-supported generator
        # product would change the rank
        n = st.n
        all_rows = [g.x | (g.z << n) for g in st.generators]
        sub_rows = [g.x | (g.z << n) for g in subs]
        assert rank(sub_rows) == len(subs)


class TestPauliRuns:
    def pipeline(self, seed):
        rng = random.Random(seed)
        spec = InstanceSpec(n=rng.randint(3, 5), seed=rng.randrange(10**6),
                            n_inputs=rng.randint(0, 1), n_outputs=1,
                            labels=("X", "Y", "Z"))
        og = generate_instance(spec)
        if og is None:
            return None
        r = find_pauli_flow_bruteforce(og)
        if not r.found:
            return None
        strat = synthesize_corrections(og, r.flow)
        angles = {u: (ZERO_ANGLE if rng.random() < 0.5 else PI_ANGLE)
                  for u in og.labels}
        return Mbqc(og, angles, strat), r.flow

    def test_final_states_match_simulator(self):
        """Stabilizer branches agree with dense branches (projector overlap)."""
        checked = 0
        for seed in range(80):
            got = self.pipeline(seed)
            if got is None:
                continue
            m, flow = got
            og = m.og
            pat = to_pattern(m, flow.order)
            # dense run with all inputs |+> (zero_inputs = 0), kept qubits
            plus = np.full(1 << len(members(og.inputs)),
                           1 / math.sqrt(1 << len(members(og.inputs))),
                           dtype=complex)
            dense_branches = {
                frozenset(b.outcomes.items()): b.state[:, 0]
                for b in run_pattern(pat, input_state=plus, keep_measured=True)}
            stab_branches = pauli_runs(m, zero_inputs=0)
            seen = set()
            for outcomes, state in stab_branches:
                key = frozenset(outcomes.items())
                seen.add(key)
                psi = dense_branches[key]
                norm = np.linalg.norm(psi)
                if norm < 1e-12:
                    continue
                assert state_distance(psi / norm, state) < 1e-9
            # branches the stabilizer run does not fork on (determined
            # outcomes) must be zero in the dense run
            for key, psi in dense_branches.items():
                if key not in seen:
                    assert np.linalg.norm(psi) < 1e-9
            checked += 1
        assert checked >= 10

    def test_correction_operator(self):
        s = CorrectionStrategy({0: 0b10}, {0: 0b100})
        p = correction_operator(s, 0)
        assert (p.x, p.z) == (0b10, 0b100)


class TestProbe:
    def probe_case(self, labels):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        return OpenGraph(g, 0b001, 0b100, labels)

    def test_requires_real(self):
        og = self.probe_case({0: MeasurementLabel.XY, 1: MeasurementLabel.X})
        m = Mbqc(og, {0: ZERO_ANGLE, 1: ZERO_ANGLE},
                 CorrectionStrategy({0: 0, 1: 0}, {0: 0, 1: 0}))
        with pytest.raises(ContractError):
            pauli_robustness_probe(m)

    def test_accepts_synthesized(self):
        og = self.probe_case({0: MeasurementLabel.X, 1: MeasurementLabel.X})
        r = find_pauli_flow_bruteforce(og)
        assert r.found
        strat = synthesize_corrections(og, r.flow)
        m = Mbqc(og, {0: ZERO_ANGLE, 1: ZERO_ANGLE}, strat)
        assert pauli_robustness_probe(m)["ok"]

    def test_rejects_uncorrected(self):
        og = self.probe_case({0: MeasurementLabel.X, 1: MeasurementLabel.X})
        m = Mbqc(og, {0: ZERO_ANGLE, 1: ZERO_ANGLE},
                 CorrectionStrategy({0: 0, 1: 0}, {0: 0, 1: 0}))
        rep = pauli_robustness_probe(m)
        assert not rep["ok"]
        assert rep["reason"] in ("deterministic outcome",
                                 "branch-dependent output state")

    def test_agrees_with_branch_enumeration(self):
        """The symbolic probe returns the branch-enumerating probe's report on
        parallelized strategies and their one-target mutants.  These never
        meet a determined outcome, so uncorrected strategies on flowless
        instances, and their mutants, join them.  The multi-input shapes run
        4 or 8 |0>/|+> input settings per case."""
        reasons = collections.Counter()
        cases = itertools.chain(probe_cases(150, with_flow=True),
                                probe_cases(30, with_flow=False),
                                probe_cases(60, with_flow=True, shapes=MULTI_INPUT_SHAPES),
                                probe_cases(15, with_flow=False, shapes=MULTI_INPUT_SHAPES))
        for m in cases:
            got = pauli_robustness_probe(m)
            assert got == branch_enumerating_probe(m)
            reasons[got["reason"]] += 1
        assert reasons[None] >= 150
        assert reasons["deterministic outcome"] > 0
        assert reasons["branch-dependent output state"] > 0

    def test_probe_calls_no_pauli_operator_arithmetic(self, monkeypatch):
        """The probe reads anticommuting generators, corrections and the
        output test off its bitmask columns: on passing and failing cases it
        calls neither `PauliOperator.commutes` nor `PauliOperator.__mul__`."""
        cases = list(itertools.chain(
            probe_cases(20, with_flow=True), probe_cases(5, with_flow=False),
            probe_cases(10, with_flow=True, shapes=MULTI_INPUT_SHAPES)))
        calls = collections.Counter()
        for name in ("commutes", "__mul__"):
            def counted(self, other, name=name, method=getattr(PauliOperator, name)):
                calls[name] += 1
                return method(self, other)
            monkeypatch.setattr(PauliOperator, name, counted)
        verdicts = collections.Counter(pauli_robustness_probe(m)["ok"] for m in cases)
        assert verdicts[True] > 0 and verdicts[False] > 0
        assert calls == {}
        x, z = PauliOperator.single("X", 0), PauliOperator.single("Z", 0)
        assert not x.commutes(z) and x * z == PauliOperator(0, 1, 1)
        assert calls == {"commutes": 1, "__mul__": 1}  # the counters count

    def test_sixteen_qubits(self):
        og = generate_instance(InstanceSpec(
            n=16, seed=99, n_inputs=1, n_outputs=6, edge_probability=0.25,
            bipartite=True, labels=("X", "Z", "XZ"), reject_input_z=True))
        assert len(og.labels) == 10 and plane_count(og) == 3
        r = find_pauli_flow(og)
        assert r.found
        strategy = parallelize(og, bipartite_normal_form(og, r.flow))
        angles = probe_angles(og, random.Random(99))
        start = time.perf_counter()
        assert pauli_robustness_probe(Mbqc(og, angles, strategy))["ok"]
        mutant = next(mutants(og, strategy, random.Random(99)))
        assert not pauli_robustness_probe(Mbqc(og, angles, mutant))["ok"]
        assert time.perf_counter() - start < 1.0


def signed_instantiations(m):
    """Every signed X/Z observable assignment compatible with the labels:
    each {X,Z}-plane vertex takes +X, -X, +Z or -Z, the first vertex fastest.
    The probe itself skips the signs; this reference keeps them."""
    og = m.og
    planes = [u for u, lab in sorted(og.labels.items()) if not lab.is_pauli]
    choices = [("X", 1), ("X", -1), ("Z", 1), ("Z", -1)]
    for combo in range(4 ** len(planes)):
        observables = {u: measurement_operator(lab, m.angles[u], u)
                       for u, lab in sorted(og.labels.items()) if lab.is_pauli}
        for k, u in enumerate(planes):
            axis, sign = choices[combo // 4 ** k % 4]
            observables[u] = PauliOperator.single(axis, u, sign)
        yield observables


def branch_enumerating_probe(m):
    """Reference probe: every branch of every signed setting through
    pauli_runs, compared by output_group_signature, in the order of the
    probe's settings with the signs added."""
    og = m.og
    ins = members(og.inputs)
    for zero_bits in range(1 << len(ins)):
        zero_inputs = mask_of(v for k, v in enumerate(ins) if (zero_bits >> k) & 1)
        for observables in signed_instantiations(m):
            branches = pauli_runs(m, zero_inputs, observables)
            setting = {
                "zero_inputs": [og.names[v] for v in members(zero_inputs)],
                "observables": {og.names[u]: p.describe(og.n)
                                for u, p in sorted(observables.items())},
            }
            if len(branches) != 1 << len(og.labels):
                return {"ok": False, "reason": "deterministic outcome", **setting}
            if len({output_group_signature(state, og.outputs)
                    for _, state in branches}) != 1:
                return {"ok": False, "reason": "branch-dependent output state",
                        **setting}
    return {"ok": True, "reason": None}


# (n, inputs, outputs, edge probability) of the benchmark's probe instances
PROBE_SHAPES = ((5, 1, 2, 0.5), (6, 1, 3, 0.5), (7, 1, 3, 0.4),
                (8, 1, 4, 0.35), (10, 1, 5, 0.3))
# probe-style shapes with two or three inputs
MULTI_INPUT_SHAPES = ((5, 2, 2, 0.5), (6, 2, 3, 0.5), (7, 2, 3, 0.4), (6, 3, 3, 0.5))


def plane_count(og):
    return sum(1 for lab in og.labels.values() if not lab.is_pauli)


def probe_angles(og, rng):
    return {u: (PI_ANGLE if rng.random() < 0.5 else ZERO_ANGLE) if lab.is_pauli
            else Angle.from_fraction(1, 4) for u, lab in sorted(og.labels.items())}


def mutants(og, strategy, rng):
    """Extensive strategies that differ from `strategy` in one correction
    target, in random order."""
    flips = [(axis, u, v) for axis in ("x", "z") for u in sorted(strategy.x)
             for v in range(og.n) if v != u]
    rng.shuffle(flips)
    for axis, u, v in flips:
        x, z = dict(strategy.x), dict(strategy.z)
        (x if axis == "x" else z)[u] ^= 1 << v
        mutant = CorrectionStrategy(x, z)
        if is_extensive(mutant, og):
            yield mutant


def probe_cases(instances, with_flow, shapes=PROBE_SHAPES, mutants_per_instance=2):
    """MBQCs on instances of the given shapes, the shapes taken in turn.

    With a flow, the base strategy is the parallelized one; without, it
    corrects nothing.  Each base strategy is followed by up to
    `mutants_per_instance` one-target mutants of it."""
    found = 0
    for seed in itertools.count():
        n, n_inputs, n_outputs, p = shapes[seed % len(shapes)]
        try:
            og = generate_instance(InstanceSpec(
                n=n, seed=seed, n_inputs=n_inputs, n_outputs=n_outputs,
                edge_probability=p, bipartite=True, labels=("X", "Z", "XZ"),
                reject_input_z=True))
        except ContractError:
            continue
        r = find_pauli_flow(og)
        if r.found != with_flow:
            continue
        if with_flow:
            strategy = parallelize(og, bipartite_normal_form(og, r.flow))
        else:
            strategy = CorrectionStrategy({u: 0 for u in og.labels},
                                          {u: 0 for u in og.labels})
        angles = probe_angles(og, random.Random(seed))
        yield Mbqc(og, angles, strategy)
        for mutant in itertools.islice(mutants(og, strategy, random.Random(seed)),
                                       mutants_per_instance):
            yield Mbqc(og, angles, mutant)
        found += 1
        if found == instances:
            return


def assert_valid_state(state):
    """The checks the engine's updates skip: the public constructor accepts
    the generators, and each generator g measures 0 while -g measures 1."""
    StabilizerState(state.n, list(state.generators))
    for g in state.generators:
        assert measure_outcome(state, g) == 0
        assert measure_outcome(state, g.negate()) == 1


def random_hermitian(rng, n):
    x, z = rng.randrange(1 << n), rng.randrange(1 << n)
    return PauliOperator((x & z).bit_count() + 2 * rng.randrange(2), x, z)


class TestUpdatesKeepStatesValid:
    """Graph states and the states derived by collapse, apply_pauli and
    reorder_generators skip the constructor's checks; these tests re-run
    them on every such state."""

    def test_graph_states(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 7)
            g = Graph.from_edges(n, [(a, b) for a in range(n)
                                     for b in range(a + 1, n) if rng.random() < 0.5])
            inputs = rng.randrange(1 << n)
            og = OpenGraph(g, inputs, 1 << (n - 1),
                           {u: MeasurementLabel.X for u in range(n - 1)})
            assert_valid_state(initial_stabilizers(og, inputs & rng.randrange(1 << n)))

    def test_random_update_sequences(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 6)
            g = Graph.from_edges(n, [(a, b) for a in range(n)
                                     for b in range(a + 1, n) if rng.random() < 0.5])
            og = OpenGraph(g, 0, 1 << (n - 1),
                           {u: MeasurementLabel.X for u in range(n - 1)})
            state = initial_stabilizers(og)
            for _ in range(12):
                op = rng.randrange(3)
                if op == 0:
                    m = random_hermitian(rng, n)
                    det = measure_outcome(state, m)
                    state = collapse(state, m, rng.randrange(2) if det is None else det)
                elif op == 1:
                    state = apply_pauli(state, random_pauli(rng, n))
                else:
                    state = reorder_generators(
                        state, [random_pauli(rng, n) for _ in range(rng.randint(1, n))])
                assert_valid_state(state)

    def test_probe_states_on_parallelized_instances(self):
        checked = 0
        seed = 0
        while checked < 20:
            n = 5 + seed % 3
            seed += 1
            og = generate_instance(InstanceSpec(
                n=n, seed=seed, n_inputs=1, n_outputs=n // 2,
                edge_probability=0.5, bipartite=True,
                labels=("X", "Z", "XZ"), reject_input_z=True))
            r = find_pauli_flow(og)
            if not r.found:
                continue
            strategy = parallelize(og, bipartite_normal_form(og, r.flow))
            angles = {u: ZERO_ANGLE if lab.is_pauli else Angle.from_fraction(1, 4)
                      for u, lab in og.labels.items()}
            m = Mbqc(og, angles, strategy)
            for observables in signed_instantiations(m):
                for zero_inputs in (0, og.inputs):
                    for _, state in pauli_runs(m, zero_inputs, observables):
                        assert_valid_state(state)
            checked += 1

    def test_pauli_run_states_on_all_pauli_instances(self):
        checked = 0
        seed = 0
        while checked < 20:
            rng = random.Random(seed)
            seed += 1
            og = generate_instance(InstanceSpec(
                n=rng.randint(4, 6), seed=seed, n_inputs=1, n_outputs=2,
                labels=("X", "Y", "Z"), reject_input_z=True))
            r = find_pauli_flow(og)
            if not r.found:
                continue
            angles = {u: PI_ANGLE if rng.random() < 0.5 else ZERO_ANGLE
                      for u in og.labels}
            m = Mbqc(og, angles, synthesize_corrections(og, r.flow))
            for zero_inputs in (0, og.inputs):
                for _, state in pauli_runs(m, zero_inputs):
                    assert_valid_state(state)
            checked += 1
