"""Checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

* The counts a later change may cite repeat exactly for a seed.
* A held-out seed draws instances of the same shape.
* BENCHMARK.json names exactly the workloads and metrics the harness prints.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.pin_blas_threads()
run.locate_package()

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = (
    "search.rounds", "search.solves", "search.bruteforce_orders",
    "search.candidate_tests", "search.status.found", "search.status.none",
    "search.status.unknown", "statevec.checks", "stabilizer.settings",
    "patterns.commands", "synthesis.correction_targets",
)
IN_PROCESS = ("flow-search", "robust-check", "pauli-probe")


def build(name, seed):
    wl = workloads.WORKLOADS[name](run.ROOT)
    return wl, wl.build(wl.select(seed), tracing.NULL)


def one_traced_pass(name, seed):
    wl, inputs = build(name, seed)
    tracer = tracing.Tracer()
    passes = run.run_passes(wl, inputs, tracer, 0.0)
    assert passes.count == 1
    assert passes.errors == []
    return {name: tracer.counts[name] for name in EXACT_COUNTS}


@pytest.mark.parametrize("name", IN_PROCESS)
def test_counts_repeat_exactly(name):
    first = one_traced_pass(name, 7)
    assert first == one_traced_pass(name, 7)
    assert first["search.status.found"] > 0


def shape(name, seed):
    _, inputs = build(name, seed)
    return sorted((inp.kind, inp.og.n, bin(inp.og.inputs).count("1"),
                   bin(inp.og.outputs).count("1"), str(inp.expected),
                   sum(1 for lab in inp.og.labels.values() if lab.is_plane))
                  for inp in inputs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_held_out_seed_draws_the_same_shape(name):
    if name == "pauli-probe":
        # plane counts are the stratum; the other labels are free
        assert shape(name, 1) == shape(name, 2)
    else:
        assert [s[:5] for s in shape(name, 1)] == [s[:5] for s in shape(name, 2)]


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
