"""Random instance generation: determinism and constraint handling."""

import pytest

from mbqcflow.errors import ContractError
from mbqcflow.flows import input_label_constraint
from mbqcflow.graphs import bipartition
from mbqcflow.instances import InstanceSpec, generate_instance


def test_seed_determinism():
    spec = InstanceSpec(n=6, seed=42, n_inputs=2, n_outputs=2)
    a = generate_instance(spec)
    b = generate_instance(spec)
    assert a == b
    c = generate_instance(InstanceSpec(n=6, seed=43, n_inputs=2, n_outputs=2))
    assert c != a


def test_counts_and_labels():
    spec = InstanceSpec(n=7, seed=1, n_inputs=2, n_outputs=3,
                        labels=("X", "XY"))
    og = generate_instance(spec)
    assert og.outputs.bit_count() == 3
    assert og.inputs.bit_count() == 2
    assert set(og.labels) == set(range(7)) - {u for u in range(7)
                                              if (og.outputs >> u) & 1}
    assert all(lab.to_string() in ("X", "XY") for lab in og.labels.values())


def test_bipartite_flag():
    for seed in range(10):
        og = generate_instance(InstanceSpec(n=6, seed=seed, bipartite=True))
        assert bipartition(og.graph) is not None


def test_edge_probability_extremes():
    og = generate_instance(InstanceSpec(n=5, seed=0, edge_probability=0.0))
    assert og.graph.edges() == []
    og = generate_instance(InstanceSpec(n=5, seed=0, edge_probability=1.0))
    assert len(og.graph.edges()) == 10


def test_reject_input_z():
    spec = InstanceSpec(n=5, seed=3, n_inputs=2, n_outputs=1,
                        labels=("Z", "YZ", "XY"), reject_input_z=True)
    og = generate_instance(spec)
    assert input_label_constraint(og)


def test_reject_impossible():
    # every label carries Z and every vertex is a measured input
    spec = InstanceSpec(n=2, seed=0, n_inputs=2, n_outputs=0,
                        labels=("Z",), reject_input_z=True)
    with pytest.raises(ContractError):
        generate_instance(spec, max_tries=20)


def test_spec_validation():
    with pytest.raises(ContractError):
        InstanceSpec(n=0)
    with pytest.raises(ContractError):
        InstanceSpec(n=3, n_inputs=4)
    with pytest.raises(ContractError):
        InstanceSpec(n=3, edge_probability=1.5)
    with pytest.raises(Exception):
        InstanceSpec(n=3, labels=("Q",))
