"""Per-layer metrics of a traced run, named after mbqcflow's modules.

Every workload reports every metric; a module a workload never calls
reports 0.  Times and counts are per pass over the op set (the traced run
repeats whole passes), so counts repeat exactly for a seed.  Set-up metrics
(`instances.*`) cover one build of the inputs.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import module_of, summarise

# metric name -> span name whose calls / busy seconds it reports
CALLS = {
    "search.find_pauli_flow.calls": "search.find_pauli_flow",
    "flows.verify_pauli_flow.calls": "flows.verify_pauli_flow",
    "graphs.load.calls": "graphs.load",
    "statevec.check_robust_deterministic.calls": "statevec.check_robust_deterministic",
    "stabilizer.pauli_robustness_probe.calls": "stabilizer.pauli_robustness_probe",
}
BUSY = {
    "search.find_pauli_flow.busy_s": "search.find_pauli_flow",
    "flows.verify_pauli_flow.busy_s": "flows.verify_pauli_flow",
    "flows.json.busy_s": "flows.json",
    "synthesis.synthesize_corrections.busy_s": "synthesis.synthesize_corrections",
    "synthesis.completed_order.busy_s": "synthesis.completed_order",
    "synthesis.bipartite_normal_form.busy_s": "synthesis.bipartite_normal_form",
    "synthesis.parallelize.busy_s": "synthesis.parallelize",
    "patterns.to_pattern.busy_s": "patterns.to_pattern",
    "patterns.text_roundtrip.busy_s": "patterns.text_roundtrip",
    "graphs.load.busy_s": "graphs.load",
    "statevec.check_robust_deterministic.busy_s": "statevec.check_robust_deterministic",
    "stabilizer.pauli_robustness_probe.busy_s": "stabilizer.pauli_robustness_probe",
}
CLI_COMMANDS = ("generate", "find-flow", "verify-flow", "synthesize", "check", "parallelize")
BUSY.update({f"cli.{c}.busy_s": f"cli.{c}" for c in CLI_COMMANDS})
COUNTS = (
    "search.rounds", "search.solves", "search.fallback_calls",
    "search.bruteforce_orders", "search.candidate_tests",
    "search.status.found", "search.status.none", "search.status.unknown",
    "synthesis.correction_targets", "patterns.commands", "statevec.checks",
    "stabilizer.settings",
)
MODULES = ("search", "flows", "synthesis", "patterns", "graphs", "statevec",
           "stabilizer", "cli")
# ROADMAP baseline points: metric -> (span name, kind of op it is read on)
BASELINES = {
    "baseline.grid128.search_busy_s": ("search.find_pauli_flow", "grid8x16"),
    "baseline.grid2x5.check_busy_s": ("statevec.check_robust_deterministic", "grid2x5"),
    "baseline.probe_largest.busy_s": ("stabilizer.pauli_robustness_probe", None),
}

UNITS = {}
UNITS.update({name: "count" for name in CALLS})
UNITS.update({name: "s" for name in BUSY})
UNITS.update({name: "count" for name in COUNTS})
UNITS.update({
    "search.solve_yield": "ratio",
    "instances.generate.calls": "count",
    "instances.generate.busy_s": "s",
    "statevec.ms_per_check": "ms",
    "stabilizer.ms_per_setting": "ms",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_share_of_p50": "fraction",
    "trace.overhead_frac": "fraction",
    "run.error_rate": "fraction",
})
UNITS.update({f"share.{m}": "fraction" for m in MODULES})
UNITS.update({name: "s" for name in BASELINES})


def largest_probe_kind(inputs):
    """Kind of the pauli-probe input with the most probe settings (then most vertices)."""
    best = max(inputs, key=lambda inp: (inp.extra.get("settings", 0), inp.og.n))
    return best.kind if "settings" in best.extra else None


def metrics(wl, inputs, untraced, traced, tracer, setup_tracer, failed, attempted,
            import_times=None) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    passes = traced.count
    summary = summarise(tracer.spans)
    setup = summarise(setup_tracer.spans)
    counts = tracer.counts
    values = {}

    for name, span in CALLS.items():
        values[name] = summary.get(span, {}).get("calls", 0) / passes
    for name, span in BUSY.items():
        values[name] = summary.get(span, {}).get("busy_s", 0.0) / passes
    for name in COUNTS:
        values[name] = counts[name] / passes
    solves = counts["search.solves"]
    values["search.solve_yield"] = counts["search.layered_assigned"] / solves if solves else 0.0
    values["instances.generate.calls"] = setup.get("instances.generate", {}).get("calls", 0)
    values["instances.generate.busy_s"] = setup.get("instances.generate", {}).get("busy_s", 0.0)
    checks = counts["statevec.checks"]
    values["statevec.ms_per_check"] = (
        1000 * values["statevec.check_robust_deterministic.busy_s"] / values["statevec.checks"]
        if checks else 0.0)
    settings = counts["stabilizer.settings"]
    values["stabilizer.ms_per_setting"] = (
        1000 * values["stabilizer.pauli_robustness_probe.busy_s"] / values["stabilizer.settings"]
        if settings else 0.0)

    # module shares of op busy time: self time of each span, by module
    total = summary.get("op", {}).get("busy_s", 0.0)
    shares = defaultdict(float)
    for span, entry in summary.items():
        if span != "op":  # the op span's self time is the benchmark's own
            shares[module_of(span)] += entry["self_s"] / total
    for m in MODULES:
        values[f"share.{m}"] = shares[m]

    # busy time on ops of one kind, averaged over those ops
    kind_of_op = lambda op: inputs[op % len(inputs)].kind
    by_kind = defaultdict(float)
    for name, start, end, _, op in tracer.spans:
        by_kind[name, kind_of_op(op)] += end - start
    ops_per_kind = defaultdict(int)
    for inp in inputs:
        ops_per_kind[inp.kind] += passes
    for name, (span, kind) in BASELINES.items():
        if kind is None:
            kind = largest_probe_kind(inputs) if wl.name == "pauli-probe" else None
        values[name] = by_kind[span, kind] / ops_per_kind[kind] if ops_per_kind.get(kind) else 0.0

    if import_times is not None:
        cli_s, numpy_s = import_times()
        p50_s = statistics.median(untraced.latencies)
        values.update({"cli.import_s": cli_s, "cli.import_numpy_s": numpy_s,
                       "cli.import_share_of_p50": cli_s / p50_s})
    else:
        values.update({"cli.import_s": 0.0, "cli.import_numpy_s": 0.0,
                       "cli.import_share_of_p50": 0.0})
    values["trace.overhead_frac"] = untraced.ops_per_s / traced.ops_per_s - 1
    values["run.error_rate"] = failed / attempted
    return {name: (values[name], UNITS[name]) for name in UNITS}
