"""Open graphs and the GF(2) set algebra on their vertex sets.

Vertices are dense integer ids 0..n-1; external names are kept on the open
graph and only matter at the JSON boundary.  Vertex sets are int bitmasks
(see gf2.py), so odd neighbourhoods are XORs of adjacency rows.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import FormatError
from .gf2 import mask_of, members


class MeasurementLabel(Enum):
    """Measurement axis set: a Pauli axis or a plane of the Bloch sphere."""

    X = frozenset("X")
    Y = frozenset("Y")
    Z = frozenset("Z")
    XY = frozenset("XY")
    YZ = frozenset("YZ")
    XZ = frozenset("XZ")

    @property
    def axes(self) -> frozenset:
        return self.value

    @property
    def is_pauli(self) -> bool:
        return len(self.value) == 1

    @property
    def is_plane(self) -> bool:
        return len(self.value) == 2

    @property
    def is_real(self) -> bool:
        return self.value <= frozenset("XZ")

    @classmethod
    def from_string(cls, s: str) -> "MeasurementLabel":
        key = "".join(sorted(s.upper())) if isinstance(s, str) else None
        if key not in cls.__members__:
            raise FormatError(f"unknown measurement label {s!r}")
        return cls.__members__[key]

    def to_string(self) -> str:
        return self.name


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with bitmask adjacency rows."""

    n: int
    adjacency: Tuple[int, ...]

    def __post_init__(self):
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency row count does not match n")
        for u, row in enumerate(self.adjacency):
            if row >> self.n:
                raise ValueError(f"adjacency row {u} references vertices >= n")
            if (row >> u) & 1:
                raise ValueError(f"self-loop on vertex {u}")
            for v in members(row):
                if not (self.adjacency[v] >> u) & 1:
                    raise ValueError("adjacency matrix is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        adj = [0] * n
        seen = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls(n, tuple(adj))

    def edges(self) -> List[Tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in members(self.adjacency[u]):
                if u < v:
                    out.append((u, v))
        return out

    def neighbors(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range")
        return self.adjacency[u]

    @property
    def all_vertices(self) -> int:
        return (1 << self.n) - 1


def odd_neighborhood(g: Graph, a: int) -> int:
    """Vertices with an odd number of neighbours in a (bitmask in, bitmask out)."""
    if a >> g.n:
        raise ValueError("vertex set out of range")
    out = 0
    rest = a
    while rest:
        v = (rest & -rest).bit_length() - 1
        out ^= g.adjacency[v]
        rest &= rest - 1
    return out


def closed_odd_neighborhood(g: Graph, a: int) -> int:
    """Odd neighbourhood of closed neighbourhoods: odd_neighborhood(g, a) XOR a."""
    return odd_neighborhood(g, a) ^ a


def bipartition(g: Graph) -> Optional[Tuple[int, int]]:
    """BFS 2-coloring in ascending vertex order; None when g has an odd cycle.

    Vertex 0 (and every later uncolored BFS root) lands on side 0.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in members(g.adjacency[u]):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    side0 = mask_of(v for v in range(g.n) if color[v] == 0)
    return side0, g.all_vertices & ~side0


@dataclass(frozen=True)
class OpenGraph:
    """Graph with input/output vertex sets and per-measured-vertex labels.

    `labels` is defined exactly on the complement of `outputs`.  A vertex may
    be both input and output; such a vertex carries no label.
    """

    graph: Graph
    inputs: int
    outputs: int
    labels: Mapping[int, MeasurementLabel]
    names: Tuple[str, ...] = ()

    def __post_init__(self):
        n = self.graph.n
        if self.inputs >> n or self.outputs >> n:
            raise ValueError("inputs/outputs out of range")
        measured = self.graph.all_vertices & ~self.outputs
        if set(self.labels) != set(members(measured)):
            raise ValueError("labels must be defined exactly on the non-output vertices")
        if not self.names:
            object.__setattr__(self, "names", tuple(str(v) for v in range(n)))
        elif len(self.names) != n:
            raise ValueError("names length does not match vertex count")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def measured(self) -> int:
        """Bitmask of O-complement."""
        return self.graph.all_vertices & ~self.outputs

    @property
    def non_inputs(self) -> int:
        """Bitmask of I-complement."""
        return self.graph.all_vertices & ~self.inputs

    @property
    def is_real(self) -> bool:
        return all(lab.is_real for lab in self.labels.values())

    @property
    def all_planar(self) -> bool:
        return all(lab.is_plane for lab in self.labels.values())

    @property
    def all_pauli(self) -> bool:
        return all(lab.is_pauli for lab in self.labels.values())

    def label_preimage(self, label: MeasurementLabel) -> int:
        """Bitmask of vertices whose label is exactly `label`."""
        return mask_of(u for u, lab in self.labels.items() if lab is label)

    def axis_vertices(self, axis: str) -> int:
        """Bitmask of measured vertices whose label contains the given axis."""
        return mask_of(u for u, lab in self.labels.items() if axis in lab.axes)


def open_graph_to_json(og: OpenGraph) -> dict:
    name = og.names
    return {
        "vertices": list(name),
        "edges": [[name[a], name[b]] for a, b in og.graph.edges()],
        "inputs": [name[v] for v in members(og.inputs)],
        "outputs": [name[v] for v in members(og.outputs)],
        "labels": {name[u]: og.labels[u].to_string() for u in sorted(og.labels)},
    }


def read_document(doc: Union[str, dict], kind: str, keys: Sequence[str]) -> dict:
    """The JSON boundary: parse `doc` when it is text and require a JSON object
    holding `keys`.  Every failure raises FormatError."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as e:  # ValueError: also over-long integers
            raise FormatError(f"invalid JSON: {e}") from e
    expect_json(doc, dict, f"{kind} document")
    for key in keys:
        if key not in doc:
            raise FormatError(f"{kind} document is missing key {key!r}")
    return doc


def expect_json(value, kind: type, what: str):
    """`value` itself when it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise FormatError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


class VertexNames:
    """The name resolver of the JSON boundary: unique string names to dense ids.

    A value of the wrong JSON type or an unknown name raises FormatError.
    """

    def __init__(self, names):
        self.names = tuple(expect_json(names, (list, tuple), "vertices"))
        if not all(isinstance(name, str) for name in self.names):
            raise FormatError("vertex names must be strings")
        self.index = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise FormatError("duplicate vertex names")

    def id(self, name) -> int:
        if not isinstance(name, str) or name not in self.index:
            raise FormatError(f"unknown vertex {name!r}")
        return self.index[name]

    def ids(self, value, what: str, size: Optional[int] = None) -> List[int]:
        """Ids of a JSON array of names, of exactly `size` names when given."""
        names = expect_json(value, list, what)
        if size is not None and len(names) != size:
            raise FormatError(f"{what} must name {size} vertices")
        return [self.id(name) for name in names]

    def pairs(self, value, what: str, item: str) -> List[Tuple[int, int]]:
        """Ids of an array of name pairs in one pass, else the per-name errors."""
        pairs, index = expect_json(value, list, what), self.index
        with suppress(KeyError, TypeError, ValueError):
            if all(type(pair) is list for pair in pairs):
                return [(index[a], index[b]) for a, b in pairs]
        return [self.ids(pair, item, 2) for pair in pairs]  # raises

    def mask(self, value, what: str) -> int:
        return mask_of(self.ids(value, what))


def open_graph_from_json(doc: Union[str, dict]) -> OpenGraph:
    doc = read_document(doc, "open-graph", ("vertices", "edges", "inputs", "outputs"))
    names = VertexNames(doc["vertices"])
    edges = names.pairs(doc["edges"], "edges", "edge")
    labels = {names.id(v): MeasurementLabel.from_string(s)
              for v, s in expect_json(doc.get("labels", {}), dict, "labels").items()}
    try:
        g = Graph.from_edges(len(names.names), edges)
        return OpenGraph(g, names.mask(doc["inputs"], "inputs"),
                         names.mask(doc["outputs"], "outputs"), labels, names.names)
    except ValueError as e:
        raise FormatError(str(e)) from e
