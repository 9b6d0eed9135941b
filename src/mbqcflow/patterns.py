"""Measurement-Calculus patterns: representation, validation, text format.

Commands are stored in application order (first element executes first).
They are immutable values, equal by exact class and fields: slotted
classes whose fields are read-only properties, cheaper to build than frozen
dataclasses (`to_pattern` and `parse` build one per command).
The `.mcpat` text format is one command per line, also in application order,
with optional `vertices:` / `input:` / `output:` headers; vertex tokens are
names mapped to dense ids at the parse boundary.  A name is a non-empty
token without whitespace or `#` (which starts a comment): `print_pattern`
raises FormatError on any other, while the JSON format takes any name.

`parse` reads each line in one pass: it splits off a comment only when the
line has a `#`, tries the heads in the order of their frequency in standard
patterns (X/Z, E, M, N, then the headers), resolves each name token with one
dict lookup and parses each distinct label token and angle token tuple once
per call.  `print_pattern` writes the same heads in the same order, chosen
by exact command class.

`to_pattern` joins the strategy-induced order with the given order on the
measured vertices.  When every induced row already lies in the given
order's row (the usual case: a strategy synthesized for that order), the
join is the given order restricted to the measured vertices, which is
closed and acyclic as it stands, so it is not closed again (see
`measurement_order`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ContractError, FormatError, PatternSyntaxError, RewriteError
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


class _Command:
    """Base of the commands: immutable values, equal by exact class and fields.

    A subclass stores field f in slot `_f`, set once by its `__init__`, and
    reads it through a read-only property `f`, so assigning a field raises
    AttributeError.  repr and equality are a frozen dataclass's.  Slotted
    properties measured cheaper per command than slot descriptors behind a
    raising `__setattr__`: 0.18 against 0.30 us to build, and the op builds
    every command twice (`to_pattern`, `parse`) but reads most fields once."""

    __slots__ = ()

    def __init_subclass__(cls):
        for slot in cls.__slots__:
            setattr(cls, slot[1:], property(attrgetter(slot)))
        cls._values = attrgetter(*cls.__slots__)  # not a descriptor: self._values(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{slot[1:]}={getattr(self, slot)!r}" for slot in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class New(_Command):
    __slots__ = ("_qubit",)

    def __init__(self, qubit: int):
        self._qubit = qubit


class Entangle(_Command):
    __slots__ = ("_a", "_b")

    def __init__(self, a: int, b: int):
        if a == b:
            raise ValueError("entangling command needs two distinct qubits")
        self._a = a
        self._b = b


class Measure(_Command):
    __slots__ = ("_qubit", "_label", "_angle")

    def __init__(self, qubit: int, label: MeasurementLabel, angle: Angle):
        self._qubit = qubit
        self._label = label
        self._angle = angle


class CorrectX(_Command):
    __slots__ = ("_qubit", "_signal")

    def __init__(self, qubit: int, signal: int):
        self._qubit = qubit
        self._signal = signal  # vertex whose measurement outcome conditions the correction


class CorrectZ(_Command):
    __slots__ = ("_qubit", "_signal")

    def __init__(self, qubit: int, signal: int):
        self._qubit = qubit
        self._signal = signal


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
    for), closed once.  Raises ContractError when they are not jointly acyclic
    or when `order` is not over the graph's vertices.

    When every induced row lies in `order`'s row, the join is `order`
    restricted to the measured vertices M, returned without closing it again:
    the union adds no pair, and a closed order restricted to M is closed
    (u < v < w within M gives u < w in `order`, and u, w are in M).  It is
    acyclic because `order` is."""
    induced = m.induced_order
    if order is None:
        return induced
    if order.n != m.og.n:
        raise ContractError("order size does not match the graph")
    measured, osucc = m.og.measured, order.succ
    if not any(row & ~osucc[u] for u, row in enumerate(induced.succ)):
        return PartialOrder._closed(m.og.n, tuple(
            row & measured if (measured >> u) & 1 else 0 for u, row in enumerate(osucc)))
    rows = list(induced.succ)
    for u, row in enumerate(osucc):
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
    og, adjacency = m.og, m.og.graph.adjacency
    labels, angles, xs, zs = og.labels, m.angles, m.strategy.x, m.strategy.z
    cmds: List[Command] = [New(u) for u in members(og.non_inputs)]
    cmds += [Entangle(a, b) for a in range(og.n) for b in members(adjacency[a] >> a << a)]
    for u in linearize(induced, og.measured):
        cmds.append(Measure(u, labels[u], angles[u]))
        cmds += [CorrectX(v, u) for v in members(xs[u])]
        cmds += [CorrectZ(v, u) for v in members(zs[u])]
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


def _check_names(names: Sequence[str]) -> None:
    """Raise FormatError naming the first vertex name `.mcpat` cannot hold:
    names are whitespace-separated tokens and `#` starts a comment."""
    joined = " ".join(names)
    if "#" in joined or joined.split() != list(names):
        bad = next(name for name in names if "#" in name or name.split() != [name])
        raise FormatError(f"vertex name {bad!r} cannot be written to .mcpat: "
                          "names must be non-empty, without whitespace or '#'")


def print_pattern(pat: Pattern) -> str:
    """The `.mcpat` text of `pat`; FormatError when a vertex name is empty or
    holds whitespace or `#` (the JSON format takes any name)."""
    name = pat.names
    _check_names(name)
    lines = ["vertices: " + " ".join(name),
             "input: " + " ".join(name[v] for v in members(pat.inputs)),
             "output: " + " ".join(name[v] for v in members(pat.outputs))]
    add = lines.append
    for cmd in pat.commands:  # heads in the order of their frequency
        kind = type(cmd)
        if kind is CorrectZ:
            add(f"Z {name[cmd.qubit]} s({name[cmd.signal]})")
        elif kind is CorrectX:
            add(f"X {name[cmd.qubit]} s({name[cmd.signal]})")
        elif kind is Entangle:
            add(f"E {name[cmd.a]} {name[cmd.b]}")
        elif kind is Measure:
            add(f"M {name[cmd.qubit]} {cmd.label.name} {cmd.angle}")
        else:
            add(f"N {name[cmd.qubit]}")
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
    otherwise the order of first appearance.

    One pass per line: the comment is split off only when the line has a
    `#`, and heads are tried in the order of their frequency in standard
    patterns.  Each name token is one `index.get`; `vid` runs only for a
    name not yet seen.  Each distinct label token and angle token tuple is
    parsed once per call."""
    names: List[str] = []
    index: Dict[str, int] = {}
    get = index.get
    declared = False

    def vid(token: str, lineno: int) -> int:
        if token not in index:
            if declared:
                raise PatternSyntaxError(f"undeclared vertex {token!r}", lineno)
            index[token] = len(names)
            names.append(token)
        return index[token]

    labels: Dict[str, MeasurementLabel] = {}
    angles: Dict[Tuple[str, ...], Angle] = {}
    input_names: List[Tuple[str, int]] = []
    output_names: List[Tuple[str, int]] = []
    commands: List[Command] = []
    add = commands.append
    saw_output_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "Z" or head == "X":
            if len(tokens) != 3 or tokens[2][:2] != "s(" or tokens[2][-1:] != ")":
                raise PatternSyntaxError(f"{head} takes a qubit and a signal s(v)", lineno)
            q, s = get(tokens[1]), get(tokens[2][2:-1])
            if q is None or s is None:
                q, s = vid(tokens[1], lineno), vid(tokens[2][2:-1], lineno)
            add(CorrectZ(q, s) if head == "Z" else CorrectX(q, s))
        elif head == "E":
            if len(tokens) != 3:
                raise PatternSyntaxError("E takes two qubits", lineno)
            a, b = get(tokens[1]), get(tokens[2])
            if a is None or b is None:
                a, b = vid(tokens[1], lineno), vid(tokens[2], lineno)
            if a == b:
                raise PatternSyntaxError("E needs two distinct qubits", lineno)
            add(Entangle(a, b))
        elif head == "M":
            if len(tokens) < 3:
                raise PatternSyntaxError("M takes a qubit, a label and an angle", lineno)
            q = get(tokens[1])
            if q is None:
                q = vid(tokens[1], lineno)
            label = labels.get(tokens[2])
            if label is None:
                try:
                    label = labels[tokens[2]] = MeasurementLabel.from_string(tokens[2])
                except ValueError as e:
                    raise PatternSyntaxError(str(e), lineno) from e
            key = tuple(tokens[3:])
            angle = angles.get(key)
            if angle is None:
                angle = angles[key] = _parse_angle(key, lineno)
            add(Measure(q, label, angle))
        elif head == "N":
            if len(tokens) != 2:
                raise PatternSyntaxError("N takes one qubit", lineno)
            q = get(tokens[1])
            add(New(vid(tokens[1], lineno) if q is None else q))
        elif head == "vertices:":
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
