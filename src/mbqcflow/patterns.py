"""Measurement-Calculus patterns: representation, validation, text format.

Commands are stored in application order (first element executes first).
The `.mcpat` text format is one command per line, also in application order,
with optional `vertices:` / `input:` / `output:` headers; vertex tokens are
free-form names mapped to dense ids at the parse boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ContractError, PatternSyntaxError, RewriteError
from .flows import PartialOrder
from .gf2 import mask_of, members
from .graphs import (Graph, MeasurementLabel, OpenGraph, VertexNames,
                     expect_json, read_document)
from .synthesis import CorrectionStrategy, linearize, strategy_order

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class Angle:
    """Measurement angle in [0, 2*pi), optionally an exact rational of pi."""

    radians: float
    exact: Optional[Fraction] = None  # multiple of pi in [0, 2)

    def __post_init__(self):
        if self.exact is not None:
            if not 0 <= self.exact < 2:
                raise ValueError("exact angle must be a multiple of pi in [0, 2)")
            if abs(self.radians - float(self.exact) * math.pi) > 1e-12:
                raise ValueError("radians and exact value disagree")
        elif not 0 <= self.radians < TWO_PI:
            raise ValueError("angle must lie in [0, 2*pi)")

    @classmethod
    def from_fraction(cls, num: int, den: int = 1) -> "Angle":
        frac = Fraction(num, den) % 2
        return cls(float(frac) * math.pi, frac)

    @classmethod
    def from_radians(cls, value: float) -> "Angle":
        return cls(value % TWO_PI)

    @property
    def is_zero_or_pi(self) -> bool:
        """True exactly when the angle is an exact 0 or pi."""
        return self.exact is not None and self.exact.denominator == 1

    def __str__(self):
        if self.exact is not None:
            if self.exact == 0:
                return "0"
            return f"{self.exact.numerator}/{self.exact.denominator} pi"
        return repr(self.radians)


ZERO_ANGLE = Angle.from_fraction(0)
PI_ANGLE = Angle.from_fraction(1)


@dataclass(frozen=True)
class New:
    qubit: int


@dataclass(frozen=True)
class Entangle:
    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("entangling command needs two distinct qubits")


@dataclass(frozen=True)
class Measure:
    qubit: int
    label: MeasurementLabel
    angle: Angle


@dataclass(frozen=True)
class CorrectX:
    qubit: int
    signal: int  # vertex whose measurement outcome conditions the correction


@dataclass(frozen=True)
class CorrectZ:
    qubit: int
    signal: int


Command = Union[New, Entangle, Measure, CorrectX, CorrectZ]


def _acts_on(cmd: Command) -> Tuple[int, ...]:
    if isinstance(cmd, Entangle):
        return (cmd.a, cmd.b)
    return (cmd.qubit,)


@dataclass(frozen=True)
class Pattern:
    """Command sequence with declared input/output qubit sets (bitmasks)."""

    n: int
    commands: Tuple[Command, ...]
    inputs: int
    outputs: int
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.names:
            object.__setattr__(self, "names", tuple(str(v) for v in range(self.n)))
        elif len(self.names) != self.n:
            raise ValueError("names length does not match qubit count")


@dataclass(frozen=True)
class PatternVerdict:
    ok: bool
    index: Optional[int] = None  # offending command position
    message: Optional[str] = None

    def __bool__(self):
        return self.ok


def validate(pat: Pattern) -> PatternVerdict:
    """Well-formedness: creation before use, nothing after measurement,
    signals only from measured qubits, inputs never created."""
    created = 0
    measured = 0
    used = 0
    for i, cmd in enumerate(pat.commands):
        for q in _acts_on(cmd):
            if not 0 <= q < pat.n:
                return PatternVerdict(False, i, f"qubit {q} out of range")
            if (measured >> q) & 1:
                return PatternVerdict(False, i, f"command acts on measured qubit {pat.names[q]}")
        if isinstance(cmd, New):
            q = cmd.qubit
            if (pat.inputs >> q) & 1:
                return PatternVerdict(False, i, f"input qubit {pat.names[q]} must not be created")
            if (created >> q) & 1:
                return PatternVerdict(False, i, f"qubit {pat.names[q]} created twice")
            if (used >> q) & 1:
                return PatternVerdict(False, i, f"qubit {pat.names[q]} used before creation")
            created |= 1 << q
        else:
            for q in _acts_on(cmd):
                if not ((created >> q) & 1 or (pat.inputs >> q) & 1):
                    return PatternVerdict(
                        False, i, f"qubit {pat.names[q]} is neither an input nor created")
            if isinstance(cmd, (CorrectX, CorrectZ)):
                if not (measured >> cmd.signal) & 1:
                    return PatternVerdict(
                        False, i,
                        f"correction depends on unmeasured qubit {pat.names[cmd.signal]}")
            if isinstance(cmd, Measure):
                measured |= 1 << cmd.qubit
        used |= mask_of(_acts_on(cmd))
    all_qubits = (1 << pat.n) - 1
    if pat.outputs != all_qubits & ~measured:
        return PatternVerdict(False, None, "declared outputs differ from unmeasured qubits")
    if pat.inputs & created:
        return PatternVerdict(False, None, "declared inputs overlap created qubits")
    if used & ~(created | pat.inputs):
        return PatternVerdict(False, None, "some used qubit is neither input nor created")
    return PatternVerdict(True)


def _require_valid(pat: Pattern) -> None:
    verdict = validate(pat)
    if not verdict:
        raise ContractError(f"pattern is not valid: {verdict.message}")


def standardize(pat: Pattern) -> Pattern:
    """Reorder into creations, entanglers, then measurements/corrections.

    Only disjoint-qubit commutations are used: an entangler preceded by a
    correction on one of its own qubits cannot be hoisted and raises
    RewriteError.  The result is valid and, branch by branch, implements the
    same linear map as the input.
    """
    _require_valid(pat)
    news: List[Command] = []
    entangles: List[Command] = []
    rest: List[Command] = []
    touched = 0  # qubits acted on by an earlier measurement or correction
    for cmd in pat.commands:
        if isinstance(cmd, New):
            news.append(cmd)
        elif isinstance(cmd, Entangle):
            if (touched >> cmd.a) & 1 or (touched >> cmd.b) & 1:
                raise RewriteError(
                    "entangler follows a correction on one of its qubits; "
                    "standardization needs more than disjoint-qubit commutation")
            entangles.append(cmd)
        else:
            touched |= mask_of(_acts_on(cmd))
            rest.append(cmd)
    return Pattern(pat.n, tuple(news + entangles + rest), pat.inputs,
                   pat.outputs, pat.names)


def is_standard(pat: Pattern) -> bool:
    phase = 0  # 0: creations, 1: entanglers, 2: measurements/corrections
    for cmd in pat.commands:
        if isinstance(cmd, New):
            if phase > 0:
                return False
        elif isinstance(cmd, Entangle):
            if phase > 1:
                return False
            phase = 1
        else:
            phase = 2
    return True


@dataclass(frozen=True)
class Mbqc:
    """Open graph, angles and correction maps; the constructor checks the whole
    MBQC contract, so every Mbqc compiles to a valid pattern."""

    og: OpenGraph
    angles: Mapping[int, Angle]
    strategy: CorrectionStrategy

    def __post_init__(self):
        og = self.og
        if set(self.angles) != set(og.labels):
            raise ValueError("angles must be defined exactly on the measured vertices")
        if set(self.strategy.x) != set(og.labels) or set(self.strategy.z) != set(og.labels):
            raise ValueError("strategy must be defined exactly on the measured vertices")
        for u, label in og.labels.items():
            if self.strategy.targets(u) >> og.n:
                raise ContractError(f"corrections of vertex {og.names[u]} leave the graph")
            if label.is_pauli and not self.angles[u].is_zero_or_pi:
                raise ContractError(
                    f"Pauli-measured vertex {og.names[u]} needs an exact angle 0 or pi")
        self.induced_order  # raises when not extensive

    @cached_property
    def induced_order(self) -> PartialOrder:  # strategy_order, built once
        return strategy_order(self.strategy, self.og)


def measurement_order(m: Mbqc, order: Optional[PartialOrder] = None) -> PartialOrder:
    """The strategy-induced order joined with `order` restricted to the
    measured vertices (e.g. the flow order the corrections were synthesized
    for), closed once.  Raises ContractError when they are not jointly acyclic."""
    induced = m.induced_order
    if order is None:
        return induced
    measured = m.og.measured
    rows = list(induced.succ)
    for u, row in enumerate(order.succ):
        if (measured >> u) & 1:
            rows[u] |= row & measured
    try:
        return PartialOrder._close(m.og.n, rows)
    except ValueError as e:
        raise ContractError(f"order conflicts with the strategy: {e}") from e


def measurement_linearization(m: Mbqc, order: Optional[PartialOrder] = None) -> List[int]:
    """The lexicographically smallest linear extension of
    measurement_order(m, order) on the measured vertices."""
    return linearize(measurement_order(m, order), m.og.measured)


def to_pattern(m: Mbqc, order: Optional[PartialOrder] = None) -> Pattern:
    """Standard-form pattern of an MBQC septuple: creations, one entangler per
    edge, then each measurement followed by its conditional corrections.

    `order` further constrains the measurement sequence (see
    measurement_linearization)."""
    return _standard_pattern(m, measurement_order(m, order))


def _standard_pattern(m: Mbqc, induced: PartialOrder) -> Pattern:
    """to_pattern(m, order) given induced = measurement_order(m, order);
    valid for every Mbqc (see check_robust_deterministic)."""
    og = m.og
    cmds: List[Command] = []
    for u in members(og.non_inputs):
        cmds.append(New(u))
    for a, b in og.graph.edges():
        cmds.append(Entangle(a, b))
    for u in linearize(induced, og.measured):
        cmds.append(Measure(u, og.labels[u], m.angles[u]))
        for v in members(m.strategy.x[u]):
            cmds.append(CorrectX(v, u))
        for v in members(m.strategy.z[u]):
            cmds.append(CorrectZ(v, u))
    return Pattern(og.n, tuple(cmds), og.inputs, og.outputs, og.names)


def of_pattern(pat: Pattern) -> Mbqc:
    """Recover the septuple from a valid standard-form pattern."""
    _require_valid(pat)
    if not is_standard(pat):
        raise ContractError("pattern is not in standard form; standardize it first")
    edges = []
    labels: Dict[int, MeasurementLabel] = {}
    angles: Dict[int, Angle] = {}
    x: Dict[int, int] = {}
    z: Dict[int, int] = {}
    for cmd in pat.commands:
        if isinstance(cmd, Entangle):
            edges.append((cmd.a, cmd.b))
        elif isinstance(cmd, Measure):
            labels[cmd.qubit] = cmd.label
            angles[cmd.qubit] = cmd.angle
            x[cmd.qubit] = 0
            z[cmd.qubit] = 0
        elif isinstance(cmd, CorrectX):
            x[cmd.signal] |= 1 << cmd.qubit
        elif isinstance(cmd, CorrectZ):
            z[cmd.signal] |= 1 << cmd.qubit
    graph = Graph.from_edges(pat.n, edges)
    og = OpenGraph(graph, pat.inputs, pat.outputs, labels, pat.names)
    return Mbqc(og, angles, CorrectionStrategy(x, z))


# ---------------------------------------------------------------------------
# Text format


def print_pattern(pat: Pattern) -> str:
    lines = []
    lines.append("vertices: " + " ".join(pat.names))
    lines.append("input: " + " ".join(pat.names[v] for v in members(pat.inputs)))
    lines.append("output: " + " ".join(pat.names[v] for v in members(pat.outputs)))
    name = pat.names
    for cmd in pat.commands:
        if isinstance(cmd, New):
            lines.append(f"N {name[cmd.qubit]}")
        elif isinstance(cmd, Entangle):
            lines.append(f"E {name[cmd.a]} {name[cmd.b]}")
        elif isinstance(cmd, Measure):
            lines.append(f"M {name[cmd.qubit]} {cmd.label.to_string()} {cmd.angle}")
        elif isinstance(cmd, CorrectX):
            lines.append(f"X {name[cmd.qubit]} s({name[cmd.signal]})")
        else:
            lines.append(f"Z {name[cmd.qubit]} s({name[cmd.signal]})")
    return "\n".join(lines) + "\n"


def _parse_angle(tokens: Sequence[str], lineno: int) -> Angle:
    if not tokens:
        raise PatternSyntaxError("missing angle", lineno)
    text = " ".join(tokens)
    if tokens[-1] == "pi":
        if len(tokens) != 2:
            raise PatternSyntaxError(f"malformed angle {text!r}", lineno)
        frac = tokens[0]
        try:
            if "/" in frac:
                num, den = frac.split("/", 1)
                return Angle.from_fraction(int(num), int(den))
            return Angle.from_fraction(int(frac))
        except (ValueError, ZeroDivisionError) as e:
            raise PatternSyntaxError(f"malformed angle {text!r}", lineno) from e
    if len(tokens) != 1:
        raise PatternSyntaxError(f"malformed angle {text!r}", lineno)
    if tokens[0] == "0":
        return ZERO_ANGLE
    try:
        return Angle.from_radians(float(tokens[0]))
    except ValueError as e:
        raise PatternSyntaxError(f"malformed angle {text!r}", lineno) from e


def parse(text: str) -> Pattern:
    """Parse the `.mcpat` format; ids follow the vertices header when present,
    otherwise the order of first appearance."""
    names: List[str] = []
    index: Dict[str, int] = {}
    declared = False

    def vid(token: str, lineno: int) -> int:
        if token not in index:
            if declared:
                raise PatternSyntaxError(f"undeclared vertex {token!r}", lineno)
            index[token] = len(names)
            names.append(token)
        return index[token]

    input_names: List[Tuple[str, int]] = []
    output_names: List[Tuple[str, int]] = []
    commands: List[Command] = []
    saw_output_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "vertices:":
            if names:
                raise PatternSyntaxError("vertices header must come first", lineno)
            for tok in tokens[1:]:
                if tok in index:
                    raise PatternSyntaxError(f"duplicate vertex {tok!r}", lineno)
                index[tok] = len(names)
                names.append(tok)
            declared = True
        elif head == "input:":
            input_names.extend((tok, lineno) for tok in tokens[1:])
        elif head == "output:":
            saw_output_header = True
            output_names.extend((tok, lineno) for tok in tokens[1:])
        elif head == "N":
            if len(tokens) != 2:
                raise PatternSyntaxError("N takes one qubit", lineno)
            commands.append(New(vid(tokens[1], lineno)))
        elif head == "E":
            if len(tokens) != 3:
                raise PatternSyntaxError("E takes two qubits", lineno)
            a, b = vid(tokens[1], lineno), vid(tokens[2], lineno)
            if a == b:
                raise PatternSyntaxError("E needs two distinct qubits", lineno)
            commands.append(Entangle(a, b))
        elif head == "M":
            if len(tokens) < 3:
                raise PatternSyntaxError("M takes a qubit, a label and an angle", lineno)
            q = vid(tokens[1], lineno)
            try:
                label = MeasurementLabel.from_string(tokens[2])
            except ValueError as e:
                raise PatternSyntaxError(str(e), lineno) from e
            commands.append(Measure(q, label, _parse_angle(tokens[3:], lineno)))
        elif head in ("X", "Z"):
            if len(tokens) != 3 or not (tokens[2].startswith("s(") and tokens[2].endswith(")")):
                raise PatternSyntaxError(f"{head} takes a qubit and a signal s(v)", lineno)
            q = vid(tokens[1], lineno)
            s = vid(tokens[2][2:-1], lineno)
            commands.append(CorrectX(q, s) if head == "X" else CorrectZ(q, s))
        else:
            raise PatternSyntaxError(f"unknown command {head!r}", lineno, raw.index(head) + 1)
    inputs = mask_of(index[tok] if tok in index else vid(tok, ln) for tok, ln in input_names)
    if saw_output_header:
        outputs = mask_of(vid(tok, ln) for tok, ln in output_names)
    else:
        measured = mask_of(c.qubit for c in commands if isinstance(c, Measure))
        outputs = ((1 << len(names)) - 1) & ~measured
    return Pattern(len(names), tuple(commands), inputs, outputs, tuple(names))


# ---------------------------------------------------------------------------
# JSON format mirroring the command sequence


def _angle_to_json(angle: Angle):
    if angle.exact is not None:
        return {"num": angle.exact.numerator, "den": angle.exact.denominator}
    return {"radians": angle.radians}


def _angle_from_json(doc) -> Angle:
    try:
        if "radians" in doc:
            return Angle.from_radians(doc["radians"])
        return Angle.from_fraction(doc["num"], doc.get("den", 1))
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise PatternSyntaxError(f"malformed angle {doc!r}") from e


def pattern_to_json(pat: Pattern) -> dict:
    name = pat.names
    cmds = []
    for cmd in pat.commands:
        if isinstance(cmd, New):
            cmds.append({"type": "N", "qubit": name[cmd.qubit]})
        elif isinstance(cmd, Entangle):
            cmds.append({"type": "E", "qubits": [name[cmd.a], name[cmd.b]]})
        elif isinstance(cmd, Measure):
            cmds.append({"type": "M", "qubit": name[cmd.qubit],
                         "label": cmd.label.to_string(),
                         "angle": _angle_to_json(cmd.angle)})
        elif isinstance(cmd, CorrectX):
            cmds.append({"type": "X", "qubit": name[cmd.qubit], "signal": name[cmd.signal]})
        else:
            cmds.append({"type": "Z", "qubit": name[cmd.qubit], "signal": name[cmd.signal]})
    return {
        "vertices": list(name),
        "input": [name[v] for v in members(pat.inputs)],
        "output": [name[v] for v in members(pat.outputs)],
        "commands": cmds,
    }


def pattern_from_json(doc: Union[str, dict]) -> Pattern:
    doc = read_document(doc, "pattern", ("vertices", "input", "output", "commands"))
    names = VertexNames(doc["vertices"])
    cmds: List[Command] = []
    for c in expect_json(doc["commands"], list, "commands"):
        t = expect_json(c, dict, "command").get("type")
        if t == "N":
            cmds.append(New(names.id(c.get("qubit"))))
        elif t == "E":
            a, b = names.ids(c.get("qubits"), "E qubits", 2)
            if a == b:
                raise PatternSyntaxError("E needs two distinct qubits")
            cmds.append(Entangle(a, b))
        elif t == "M":
            cmds.append(Measure(names.id(c.get("qubit")),
                                MeasurementLabel.from_string(c.get("label")),
                                _angle_from_json(c.get("angle"))))
        elif t == "X":
            cmds.append(CorrectX(names.id(c.get("qubit")), names.id(c.get("signal"))))
        elif t == "Z":
            cmds.append(CorrectZ(names.id(c.get("qubit")), names.id(c.get("signal"))))
        else:
            raise PatternSyntaxError(f"unknown command type {t!r}")
    return Pattern(len(names.names), tuple(cmds), names.mask(doc["input"], "input"),
                   names.mask(doc["output"], "output"), names.names)
