"""Seeded random open-graph instances for tests and the CLI."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from .errors import ContractError
from .flows import input_label_constraint
from .graphs import Graph, MeasurementLabel, OpenGraph
from .gf2 import mask_of

DEFAULT_LABELS = ("XY", "YZ", "XZ", "X", "Y", "Z")


@dataclass(frozen=True)
class InstanceSpec:
    """Generator parameters; the seed fully determines the instance."""

    n: int
    seed: int = 0
    edge_probability: float = 0.5
    bipartite: bool = False
    n_inputs: int = 0
    n_outputs: int = 1
    labels: Tuple[str, ...] = DEFAULT_LABELS
    reject_input_z: bool = False  # resample while a measured input has axis Z

    def __post_init__(self):
        if self.n < 1:
            raise ContractError("need at least one vertex")
        if not (0 <= self.n_inputs <= self.n and 0 <= self.n_outputs <= self.n):
            raise ContractError("input/output counts out of range")
        if not 0 <= self.edge_probability <= 1:
            raise ContractError("edge probability out of range")
        if not self.labels and self.n_outputs < self.n:
            raise ContractError("label pool is empty but some vertex is measured")
        for s in self.labels:
            MeasurementLabel.from_string(s)


def _generate_once(spec: InstanceSpec, rng: random.Random) -> OpenGraph:
    n = spec.n
    if spec.bipartite:
        side = [rng.randrange(2) for _ in range(n)]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if spec.bipartite and side[a] == side[b]:
                continue
            if rng.random() < spec.edge_probability:
                edges.append((a, b))
    outputs = mask_of(rng.sample(range(n), spec.n_outputs))
    inputs = mask_of(rng.sample(range(n), spec.n_inputs))
    labels = {}
    for u in range(n):
        if not (outputs >> u) & 1:
            labels[u] = MeasurementLabel.from_string(rng.choice(spec.labels))
    return OpenGraph(Graph.from_edges(n, edges), inputs, outputs, labels)


def generate_instance(spec: InstanceSpec, max_tries: int = 1000) -> OpenGraph:
    """Seed-deterministic random open graph.

    With `reject_input_z` the draw is repeated (same RNG stream) until no
    measured input carries a Z axis, a cheap necessary condition for a flow.
    """
    rng = random.Random(spec.seed)
    for _ in range(max_tries):
        og = _generate_once(spec, rng)
        if not spec.reject_input_z or input_label_constraint(og):
            return og
    raise ContractError("could not satisfy the input-label constraint; "
                        "try fewer inputs or different labels")
