"""Pattern representation, validation, rewriting and both serializations."""

import copy
import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcflow.errors import (ContractError, FormatError, PatternSyntaxError,
                             RewriteError)
from mbqcflow.graphs import Graph, MeasurementLabel, OpenGraph
from mbqcflow.patterns import (Angle, CorrectX, CorrectZ, Entangle, Mbqc,
                               Measure, New, Pattern, PI_ANGLE, ZERO_ANGLE,
                               is_standard, measurement_linearization,
                               of_pattern, parse, pattern_from_json,
                               pattern_to_json, print_pattern, standardize,
                               to_pattern, validate)
from mbqcflow.flows import PartialOrder
from mbqcflow.gf2 import members
from mbqcflow.instances import InstanceSpec, generate_instance
from mbqcflow.search import find_pauli_flow
from mbqcflow.statevec import run_pattern
from mbqcflow.synthesis import (CorrectionStrategy, completed_order, linearize,
                                synthesize_corrections)


class TestAngle:
    def test_fraction_normalized_mod_2(self):
        a = Angle.from_fraction(5, 2)
        assert a.exact == Fraction(1, 2)
        assert abs(a.radians - math.pi / 2) < 1e-12

    def test_radians_normalized(self):
        a = Angle.from_radians(-math.pi / 2)
        assert abs(a.radians - 3 * math.pi / 2) < 1e-12
        assert a.exact is None

    def test_is_zero_or_pi(self):
        assert ZERO_ANGLE.is_zero_or_pi and PI_ANGLE.is_zero_or_pi
        assert not Angle.from_fraction(1, 2).is_zero_or_pi
        assert not Angle.from_radians(math.pi).is_zero_or_pi  # inexact

    def test_str(self):
        assert str(ZERO_ANGLE) == "0"
        assert str(Angle.from_fraction(1, 4)) == "1/4 pi"
        assert str(Angle.from_fraction(-1, 4)) == "7/4 pi"

    def test_inconsistent_exact_rejected(self):
        with pytest.raises(ValueError):
            Angle(1.0, Fraction(1, 2))
        with pytest.raises(ValueError):
            Angle(-0.5)


class TestCommands:
    """Commands are immutable values: equal by exact class and fields."""

    EXAMPLES = [New(3), Entangle(1, 2), CorrectX(1, 2), CorrectZ(1, 2),
                Measure(0, MeasurementLabel.XY, Angle.from_fraction(1, 4)),
                Measure(0, MeasurementLabel.X, Angle.from_radians(1.5))]

    def test_equality_and_hash_by_exact_class_and_fields(self):
        assert CorrectX(1, 2) != CorrectZ(1, 2)
        assert CorrectX(1, 2) != CorrectX(2, 1)
        assert New(1) != Measure(1, MeasurementLabel.X, ZERO_ANGLE)
        assert New(1) != 1 and New(1) != (1,)
        for cmd in self.EXAMPLES:
            twin = type(cmd)(*(getattr(cmd, f) for f in self.fields(cmd)))
            assert twin == cmd and not twin != cmd and hash(twin) == hash(cmd)
            assert twin is not cmd
        assert len(set(self.EXAMPLES + [CorrectZ(1, 2), New(3)])) == len(self.EXAMPLES)

    @staticmethod
    def fields(cmd):
        return {New: ("qubit",), Entangle: ("a", "b"), CorrectX: ("qubit", "signal"),
                CorrectZ: ("qubit", "signal"), Measure: ("qubit", "label", "angle")}[type(cmd)]

    def test_keyword_construction_and_repr(self):
        assert New(qubit=3) == New(3) and repr(New(qubit=3)) == "New(qubit=3)"
        assert repr(Entangle(a=1, b=2)) == "Entangle(a=1, b=2)"
        assert repr(CorrectX(1, 2)) == "CorrectX(qubit=1, signal=2)"
        assert repr(CorrectZ(qubit=1, signal=2)) == "CorrectZ(qubit=1, signal=2)"
        angle = Angle.from_fraction(1, 4)
        assert repr(Measure(qubit=0, label=MeasurementLabel.XY, angle=angle)) == (
            f"Measure(qubit=0, label={MeasurementLabel.XY!r}, angle={angle!r})")

    def test_fields_cannot_be_assigned_or_added(self):
        for cmd in self.EXAMPLES:
            for field in self.fields(cmd) + ("extra",):
                with pytest.raises(AttributeError):
                    setattr(cmd, field, 0)
            with pytest.raises(AttributeError):
                delattr(cmd, self.fields(cmd)[0])
        assert self.EXAMPLES[0] == New(3)

    def test_entangle_needs_two_distinct_qubits(self):
        with pytest.raises(ValueError, match="two distinct qubits"):
            Entangle(2, 2)

    def test_copies_and_pickles_are_equal(self):
        for cmd in self.EXAMPLES:
            for twin in (copy.copy(cmd), copy.deepcopy(cmd), pickle.loads(pickle.dumps(cmd))):
                assert twin == cmd and type(twin) is type(cmd)


def simple_pattern():
    cmds = (New(1), New(2), Entangle(0, 1), Entangle(1, 2),
            Measure(0, MeasurementLabel.XY, Angle.from_fraction(1, 4)),
            CorrectX(1, 0),
            Measure(1, MeasurementLabel.X, ZERO_ANGLE),
            CorrectZ(2, 1))
    return Pattern(3, cmds, inputs=0b001, outputs=0b100)


class TestValidate:
    def test_valid(self):
        assert validate(simple_pattern())

    def test_use_before_creation(self):
        pat = Pattern(2, (Entangle(0, 1), New(1),
                          Measure(0, MeasurementLabel.X, ZERO_ANGLE)),
                      inputs=0b01, outputs=0b10)
        v = validate(pat)
        assert not v and "creat" in v.message

    def test_command_after_measure(self):
        pat = Pattern(2, (New(1), Measure(0, MeasurementLabel.X, ZERO_ANGLE),
                          Entangle(0, 1)),
                      inputs=0b01, outputs=0b10)
        v = validate(pat)
        assert not v and v.index == 2

    def test_signal_from_unmeasured(self):
        pat = Pattern(2, (New(1), CorrectX(1, 0),
                          Measure(0, MeasurementLabel.X, ZERO_ANGLE)),
                      inputs=0b01, outputs=0b10)
        assert not validate(pat)

    def test_input_created(self):
        pat = Pattern(1, (New(0),), inputs=0b1, outputs=0b1)
        assert not validate(pat)

    def test_output_mismatch(self):
        pat = Pattern(2, (New(1), Measure(0, MeasurementLabel.X, ZERO_ANGLE)),
                      inputs=0b01, outputs=0b01)
        assert not validate(pat)


class TestStandardize:
    def test_already_standard(self):
        pat = simple_pattern()
        assert is_standard(pat)
        assert standardize(pat) == pat

    def test_hoists_interleaved_creation(self):
        cmds = (New(1), Entangle(0, 1),
                Measure(0, MeasurementLabel.X, ZERO_ANGLE),
                New(2), Entangle(1, 2),
                Measure(1, MeasurementLabel.X, ZERO_ANGLE))
        pat = Pattern(3, cmds, inputs=0b001, outputs=0b100)
        assert not is_standard(pat)
        std = standardize(pat)
        assert is_standard(std) and validate(std)
        # same branch maps (the hoisted commands act on disjoint qubits)
        a = {frozenset(b.outcomes.items()): b.state for b in run_pattern(pat)}
        b = {frozenset(x.outcomes.items()): x.state for x in run_pattern(std)}
        assert set(a) == set(b)
        for k in a:
            assert np.allclose(a[k], b[k], atol=1e-9)

    def test_entangler_after_correction_rejected(self):
        cmds = (New(1), New(2), Entangle(0, 1),
                Measure(0, MeasurementLabel.X, ZERO_ANGLE),
                CorrectX(1, 0), Entangle(1, 2),
                Measure(1, MeasurementLabel.X, ZERO_ANGLE))
        pat = Pattern(3, cmds, inputs=0b001, outputs=0b100)
        with pytest.raises(RewriteError):
            standardize(pat)

    def test_invalid_pattern_rejected(self):
        pat = Pattern(1, (New(0),), inputs=0b1, outputs=0b1)
        with pytest.raises(ContractError):
            standardize(pat)


def make_mbqc():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    og = OpenGraph(g, 0b001, 0b100,
                   {0: MeasurementLabel.XY, 1: MeasurementLabel.X})
    angles = {0: Angle.from_fraction(1, 4), 1: ZERO_ANGLE}
    strategy = CorrectionStrategy({0: 0b010, 1: 0}, {0: 0, 1: 0b100})
    return Mbqc(og, angles, strategy)


class TestMbqcConversion:
    def test_roundtrip(self):
        m = make_mbqc()
        pat = to_pattern(m)
        assert validate(pat) and is_standard(pat)
        back = of_pattern(pat)
        assert back == m

    def test_linearization_respects_strategy(self):
        m = make_mbqc()
        assert measurement_linearization(m) == [0, 1]

    def test_extra_order_constrains(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        og = OpenGraph(g, 0, 0b100,
                       {0: MeasurementLabel.X, 1: MeasurementLabel.X})
        m = Mbqc(og, {0: ZERO_ANGLE, 1: ZERO_ANGLE},
                 CorrectionStrategy({0: 0, 1: 0}, {0: 0, 1: 0}))
        assert measurement_linearization(m) == [0, 1]
        rev = PartialOrder.from_pairs(3, [(1, 0)])
        assert measurement_linearization(m, rev) == [1, 0]

    def test_conflicting_order_rejected(self):
        m = make_mbqc()  # strategy forces 0 before 1
        rev = PartialOrder.from_pairs(3, [(1, 0)])
        with pytest.raises(ContractError):
            measurement_linearization(m, rev)

    @pytest.mark.parametrize("size", [2, 4])
    def test_order_of_another_size_rejected(self, size):
        m = make_mbqc()  # 3 vertices
        with pytest.raises(ContractError, match="order size does not match the graph"):
            to_pattern(m, PartialOrder.empty(size))

    def test_pauli_angle_must_be_exact(self):
        m = make_mbqc()
        with pytest.raises(ContractError, match="exact angle 0 or pi"):
            Mbqc(m.og, {0: m.angles[0], 1: Angle.from_radians(0.0)}, m.strategy)

    def test_correction_targets_must_lie_in_the_graph(self):
        # path 0-1-2 with its synthesized corrections, plus target 7 on vertex 0
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        og = OpenGraph(g, 0b001, 0b100, {0: MeasurementLabel.X, 1: MeasurementLabel.X})
        flow = find_pauli_flow(og).flow
        strategy = synthesize_corrections(og, flow)
        angles = {0: ZERO_ANGLE, 1: ZERO_ANGLE}
        assert to_pattern(Mbqc(og, angles, strategy))
        bad = CorrectionStrategy({**strategy.x, 0: strategy.x[0] | 1 << 7}, strategy.z)
        with pytest.raises(ContractError, match="corrections of vertex 0 leave the graph"):
            Mbqc(og, angles, bad)

    def test_of_pattern_requires_standard(self):
        pat = simple_pattern()
        c = pat.commands  # move New(2) after the first entangler
        shuffled = Pattern(3, (c[0], c[2], c[1]) + c[3:],
                           pat.inputs, pat.outputs)
        assert validate(shuffled)
        assert not is_standard(shuffled)
        with pytest.raises(ContractError):
            of_pattern(shuffled)


def close_always_pattern(m, order=None):
    """to_pattern as built before the fast path: the strategy order joined
    with `order` and closed by `_close` every time, then one command list
    from `members` per row."""
    rows = list(m.induced_order.succ)
    if order is not None:
        for u, row in enumerate(order.succ):
            if (m.og.measured >> u) & 1:
                rows[u] |= row & m.og.measured
    try:
        induced = PartialOrder._close(m.og.n, rows)
    except ValueError as e:
        raise ContractError(f"order conflicts with the strategy: {e}") from e
    og, cmds = m.og, []
    cmds += [New(u) for u in members(og.non_inputs)]
    cmds += [Entangle(a, b) for a, b in og.graph.edges()]
    for u in linearize(induced, og.measured):
        cmds.append(Measure(u, og.labels[u], m.angles[u]))
        cmds += [CorrectX(v, u) for v in members(m.strategy.x[u])]
        cmds += [CorrectZ(v, u) for v in members(m.strategy.z[u])]
    return Pattern(og.n, tuple(cmds), og.inputs, og.outputs, og.names)


def equivalence_cases(count, seed):
    """Mbqcs with a flow on random instances (n = 3..10, all six labels),
    their completed order, an order missing pairs of it and a conflicting one."""
    rng = random.Random(seed)
    cases, s = [], 0
    while len(cases) < count:
        s += 1
        n = rng.randint(3, 10)
        og = generate_instance(InstanceSpec(n=n, seed=s, n_inputs=rng.randint(0, 2),
                                            n_outputs=rng.randint(1, 3), reject_input_z=True))
        result = find_pauli_flow(og)
        if not result.found:
            continue
        angles = {u: (PI_ANGLE if rng.random() < 0.5 else ZERO_ANGLE) if lab.is_pauli
                  else Angle.from_fraction(rng.randrange(8), 4) for u, lab in og.labels.items()}
        m = Mbqc(og, angles, synthesize_corrections(og, result.flow))
        full = completed_order(og, result.flow)
        chain = linearize(full, og.measured)
        kept = [pair for pair in zip(chain, chain[1:]) if rng.random() < 0.5]
        sparse = PartialOrder.from_pairs(og.n, kept)
        relation = [(u, v) for u in og.labels for v in members(m.induced_order.succ[u])]
        conflict = (PartialOrder.from_pairs(og.n, [relation[0][::-1]]) if relation else None)
        cases.append((m, full, sparse, conflict))
    return cases


def test_to_pattern_matches_the_close_always_build():
    """No order, the completed order (fast path), an order lacking strategy
    pairs (closure path): the same Pattern; a conflicting order: the same
    ContractError text."""
    fast = closure = conflicts = 0
    for m, full, sparse, conflict in equivalence_cases(150, seed=3):
        for order in (None, full, sparse):
            assert to_pattern(m, order) == close_always_pattern(m, order)
        fast += not any(row & ~full.succ[u] for u, row in enumerate(m.induced_order.succ))
        closure += any(row & ~sparse.succ[u] for u, row in enumerate(m.induced_order.succ))
        if conflict is not None:
            with pytest.raises(ContractError) as expected:
                close_always_pattern(m, conflict)
            with pytest.raises(ContractError) as got:
                to_pattern(m, conflict)
            assert str(got.value) == str(expected.value)
            conflicts += 1
    assert fast == 150 and closure > 50 and conflicts > 50, (fast, closure, conflicts)


class TestTextFormat:
    def test_print_parse_roundtrip(self):
        pat = to_pattern(make_mbqc())
        text = print_pattern(pat)
        back = parse(text)
        assert back == pat
        assert print_pattern(back) == text

    def test_parse_without_headers(self):
        text = "N 2\nE 1 2\nM 1 X 0\nZ 2 s(1)\n"
        pat = parse(text)
        assert pat.names == ("2", "1")
        assert pat.inputs == 0
        assert pat.outputs == 0b01  # qubit "2" stays unmeasured

    def test_parse_comments_and_blank_lines(self):
        text = "# header\n\nN 1  # trailing\nM 1 X 0\n"
        pat = parse(text)
        assert len(pat.commands) == 2

    def test_parse_angles(self):
        pat = parse("N 1\nM 1 XY 3/4 pi\n")
        cmd = pat.commands[1]
        assert cmd.angle.exact == Fraction(3, 4)
        pat2 = parse("N 1\nM 1 XY 0.5\n")
        assert pat2.commands[1].angle.radians == 0.5

    def test_syntax_errors_carry_line(self):
        with pytest.raises(PatternSyntaxError) as e:
            parse("N 1\nQ 1\n")
        assert "line 2" in str(e.value)
        with pytest.raises(PatternSyntaxError):
            parse("vertices: a\nN b\n")  # undeclared vertex
        with pytest.raises(PatternSyntaxError):
            parse("N 1\nM 1 X oops\n")
        with pytest.raises(PatternSyntaxError):
            parse("N 1\nX 1 1\n")  # malformed signal
        with pytest.raises(PatternSyntaxError):
            parse("N 1\nvertices: a\n")  # header not first

    @pytest.mark.parametrize("bad", ["", "a b", "d#e", "#", "x\ty", "z\n", "u\u2028v"])
    def test_names_the_format_cannot_hold_are_rejected(self, bad):
        """Names are whitespace-separated tokens and `#` starts a comment, so
        such a name would read back as another pattern; JSON takes it."""
        pat = to_pattern(make_mbqc())
        named = Pattern(pat.n, pat.commands, pat.inputs, pat.outputs, ("0", bad, "2"))
        with pytest.raises(FormatError, match=f"^vertex name {re.escape(repr(bad))} cannot"):
            print_pattern(named)
        assert pattern_from_json(pattern_to_json(named)) == named

    def test_json_roundtrip(self):
        pat = to_pattern(make_mbqc())
        doc = pattern_to_json(pat)
        back = pattern_from_json(doc)
        assert back == pat
        assert pattern_to_json(back) == doc

    def test_json_roundtrip_float_angle(self):
        cmds = (New(1), Entangle(0, 1),
                Measure(0, MeasurementLabel.XY, Angle.from_radians(1.234)))
        pat = Pattern(2, cmds, inputs=0b01, outputs=0b10)
        back = pattern_from_json(pattern_to_json(pat))
        assert back == pat


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 10), n_inputs=st.integers(0, 2),
       n_outputs=st.integers(1, 3), exact=st.booleans(), completed=st.booleans())
def test_print_parse_roundtrip_of_compiled_patterns(seed, n, n_inputs, n_outputs,
                                                    exact, completed):
    """parse(print_pattern(p)) == p, and the text prints back unchanged, for
    the patterns of random instances with a flow (all six labels)."""
    og = generate_instance(InstanceSpec(n=n, seed=seed, n_inputs=n_inputs,
                                        n_outputs=n_outputs, reject_input_z=True))
    result = find_pauli_flow(og)
    if not result.found:
        return
    rng = random.Random(seed)
    angles = {u: (PI_ANGLE if rng.random() < 0.5 else ZERO_ANGLE) if lab.is_pauli
              else Angle.from_fraction(rng.randrange(8), 4) if exact
              else Angle.from_radians(rng.uniform(0, 2 * math.pi))
              for u, lab in og.labels.items()}
    m = Mbqc(og, angles, synthesize_corrections(og, result.flow))
    pat = to_pattern(m, completed_order(og, result.flow) if completed else None)
    text = print_pattern(pat)
    assert parse(text) == pat
    assert print_pattern(parse(text)) == text
