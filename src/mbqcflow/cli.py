"""Command-line front end: flow checking/search, synthesis, determinism checks,
parallelization, bundled counterexamples and random instance generation.

Exit codes: 0 = pass, 1 = property violated / no result, 2 = usage or parse
error.  Reports are JSON with --json, human text otherwise.  Only `check` and
`counterexamples` import the state-vector engine, and with it numpy.
"""

from __future__ import annotations

import json
import math
import sys
from importlib import resources
from typing import Dict, Optional

import click

from .errors import CapacityError, ContractError, FormatError, RewriteError
from .flows import PartialOrder, flow_from_json, flow_to_json, verify_pauli_flow
from .graphs import (OpenGraph, VertexNames, open_graph_from_json,
                     open_graph_to_json)
from .instances import DEFAULT_LABELS, InstanceSpec, generate_instance
from .patterns import (Angle, Mbqc, Measure, _parse_angle, of_pattern, parse,
                       pattern_from_json, print_pattern, standardize,
                       to_pattern, validate)
from .search import find_pauli_flow, find_pauli_flow_bruteforce, flow_depth
from .synthesis import (bipartite_normal_form, parallel_measurement_order,
                        parallelize, synthesize_corrections)


@click.group()
def main():
    """Flow analysis and simulation for measurement-based computations."""


def _fail_parse(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load(path: str, reader, *args):
    """`reader` applied to the text of `path`; a failure exits with code 2."""
    try:
        with open(path) as fh:
            return reader(fh.read(), *args)
    except (OSError, UnicodeDecodeError, FormatError) as e:
        _fail_parse(str(e))


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _report(doc: dict, as_json: bool, text: str):
    if as_json:
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(text)


def _require_options(samples: int, seed: int, tolerance: float = 0.0):
    """Exit with code 2 on a negative `--samples` or `--seed` and on a
    `--tolerance` that is not a finite value >= 0: a negative count would
    silently draw no samples, numpy's generators reject a negative seed,
    and a nan or infinite tolerance passes every test, a negative one none."""
    for name, value in (("--samples", samples), ("--seed", seed)):
        if value < 0:
            _fail_parse(f"{name}: expected an integer >= 0, got {value}")
    if not math.isfinite(tolerance) or tolerance < 0:
        _fail_parse(f"--tolerance: expected a finite value >= 0, got {tolerance}")


def _mcpat(pat) -> str:
    """The `.mcpat` text of `pat`; a vertex name the format cannot hold exits
    with code 2."""
    try:
        return print_pattern(pat)
    except FormatError as e:
        _fail_parse(str(e))


def _pattern_measurement_order(pat) -> PartialOrder:
    """Total order of the pattern's measurement sequence (abort points)."""
    return PartialOrder.chain(
        pat.n, [c.qubit for c in pat.commands if isinstance(c, Measure)])


def _angles(og: OpenGraph, angle_opts) -> Dict[int, Angle]:
    """0 on Pauli labels and pi/4 on planes, overridden by `--angle NAME=VALUE`
    options: `k/d` or `k` are fractions of pi, anything else float radians.
    A malformed option, an unmeasured vertex or a Pauli-measured vertex with
    an angle other than 0 or pi exits with code 2."""
    angles = {u: Angle.from_fraction(0) if lab.is_pauli else Angle.from_fraction(1, 4)
              for u, lab in og.labels.items()}
    names = VertexNames(og.names)
    try:
        for opt in angle_opts:
            name, eq, value = opt.partition("=")
            if not eq:
                raise FormatError(f"expected NAME=VALUE, got {opt!r}")
            u = names.id(name)
            try:
                angle = _parse_angle([value, "pi"], None)
            except FormatError:
                angle = _parse_angle([value], None)
            if u not in angles:
                raise FormatError(f"vertex {name} is not measured")
            if og.labels[u].is_pauli and not angle.is_zero_or_pi:
                raise FormatError(f"Pauli-measured vertex {name} takes 0 or pi, not {value}")
            angles[u] = angle
    except FormatError as e:
        _fail_parse(f"--angle: {e}")
    return angles


@main.command("verify-flow")
@click.argument("graph_file", type=click.Path(exists=True))
@click.argument("flow_file", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def cmd_verify_flow(graph_file, flow_file, as_json):
    """Check a flow witness against an open graph."""
    og = _load(graph_file, open_graph_from_json)
    flow = _load(flow_file, flow_from_json, og)
    try:
        verdict = verify_pauli_flow(og, flow)
    except ContractError as e:
        _report({"valid": False, "detail": str(e)}, as_json, f"invalid: {e}")
        sys.exit(1)
    doc = {"valid": bool(verdict), "detail": verdict.describe()}
    _report(doc, as_json, "valid" if verdict else f"invalid: {verdict.describe()}")
    sys.exit(0 if verdict else 1)


@main.command("find-flow")
@click.argument("graph_file", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
@click.option("-o", "--output", type=click.Path())
def cmd_find_flow(graph_file, as_json, output):
    """Search for a flow; prints the witness or 'none'."""
    og = _load(graph_file, open_graph_from_json)
    result = find_pauli_flow(og)
    if result.found:
        doc = flow_to_json(result.flow, og.names)
        doc.update(depth=flow_depth(result.flow), status="found", stats=result.stats)
        _emit(json.dumps(doc, indent=2), output)
        sys.exit(0)
    _report({"status": "none", "stats": result.stats}, as_json, "none")
    sys.exit(1)


@main.command("synthesize")
@click.argument("graph_file", type=click.Path(exists=True))
@click.option("--angle", "angle_opts", multiple=True, metavar="NAME=VALUE",
              help="Measurement angle override (k/d of pi, or float radians).")
@click.option("-o", "--output", type=click.Path())
def cmd_synthesize(graph_file, angle_opts, output):
    """Flow search, correction synthesis and pattern emission."""
    og = _load(graph_file, open_graph_from_json)
    angles = _angles(og, angle_opts)
    result = find_pauli_flow(og)
    if not result.found:
        click.echo("no flow", err=True)
        sys.exit(1)
    strategy = synthesize_corrections(og, result.flow)
    m = Mbqc(og, angles, strategy)
    _emit(_mcpat(to_pattern(m, result.flow.order)), output)
    sys.exit(0)


@main.command("check")
@click.argument("pattern_file", type=click.Path(exists=True))
@click.option("--level", type=click.Choice(["det", "strong", "robust"]),
              default="robust", show_default=True)
@click.option("--samples", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--tolerance", default=1e-9, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_check(pattern_file, level, samples, seed, tolerance, as_json):
    """Determinism check of a pattern at the chosen strictness."""
    _require_options(samples, seed, tolerance)
    from .statevec import (check_deterministic, check_robust_deterministic,
                           check_strong_deterministic)
    pat = _load(pattern_file,
                pattern_from_json if pattern_file.endswith(".json") else parse)
    doc = {"level": level}
    try:  # det and strong validate the pattern first, raising ContractError
        if level == "det":
            ok = check_deterministic(pat, tol=tolerance, seed=seed)
        elif level == "strong":
            real = all(c.label.is_real for c in pat.commands if isinstance(c, Measure))
            ok = check_strong_deterministic(pat, tol=tolerance,
                                            real_inputs=real, seed=seed)
            doc["real_inputs"] = real
        else:
            verdict = validate(pat)  # before standardize can word the error
            if not verdict:
                _fail_parse(f"pattern is not valid: {verdict.message}")
            try:
                m = of_pattern(standardize(pat))
            except (ContractError, RewriteError, ValueError) as e:
                _fail_parse(f"cannot recover the graph form: {e}")
            report = check_robust_deterministic(
                m, angle_samples=samples, seed=seed, tol=tolerance,
                order=_pattern_measurement_order(pat))
            ok = report["ok"]
            doc.update(report)
    except (CapacityError, ContractError) as e:
        _fail_parse(str(e))
    doc["ok"] = ok
    _report(doc, as_json, f"{level}: {'pass' if ok else 'FAIL'}")
    sys.exit(0 if ok else 1)


@main.command("parallelize")
@click.argument("graph_file", type=click.Path(exists=True))
@click.option("--angle", "angle_opts", multiple=True, metavar="NAME=VALUE")
@click.option("--json", "as_json", is_flag=True)
@click.option("-o", "--output", type=click.Path())
def cmd_parallelize(graph_file, angle_opts, as_json, output):
    """Depth-one pattern for a bipartite real instance with a flow."""
    og = _load(graph_file, open_graph_from_json)
    angles = _angles(og, angle_opts)
    result = find_pauli_flow(og)
    if not result.found:
        click.echo("no flow", err=True)
        sys.exit(1)
    try:
        normal = bipartite_normal_form(og, result.flow)
        strategy = parallelize(og, normal)
    except ContractError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    try:
        order = parallel_measurement_order(og, normal)
    except ContractError:
        # The dropped corrections commute with the measurements they target,
        # so the pattern is sound in any order; only truncations care.
        order = None
    # parallelize checked the normal-form equations, which put every x'(u)
    # and z'(u) on outputs: no correction targets a measured vertex, depth 1.
    m = Mbqc(og, angles, strategy)
    text = _mcpat(to_pattern(m, order))
    if as_json:
        click.echo(json.dumps({"depth": 1, "pattern": text}, indent=2))
        if output:
            _emit(text, output)
    else:
        _emit(text, output)
        click.echo("measurement depth: 1", err=True)
    sys.exit(0)


@main.command("counterexamples")
@click.option("--samples", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_counterexamples(samples, seed, as_json):
    """Regression suite on the two bundled no-compatible-flow instances.

    For each: the bundled pattern is robustly deterministic, no flow exists
    that measures vertex 1 before vertex 2, yet an (incompatibly ordered)
    flow does exist.
    """
    _require_options(samples, seed)
    from .statevec import check_robust_deterministic
    report = []
    ok_all = True
    for stem in ("counterexample1", "counterexample2"):
        data = resources.files("mbqcflow").joinpath("data")
        og = open_graph_from_json(data.joinpath(f"{stem}.json").read_text())
        pat = parse(data.joinpath(f"{stem}.mcpat").read_text())
        m = of_pattern(standardize(pat))
        robust = check_robust_deterministic(m, angle_samples=samples, seed=seed,
                                            order=_pattern_measurement_order(pat))
        v1 = og.names.index("1")
        v2 = og.names.index("2")
        constrained = find_pauli_flow_bruteforce(og, require_pairs=[(v1, v2)])
        unconstrained = find_pauli_flow_bruteforce(og)
        legs = {
            "robustly_deterministic": robust["ok"],
            "no_flow_measuring_1_first": constrained.status == "none",
            "flow_with_other_order": unconstrained.found,
        }
        ok = all(legs.values())
        ok_all = ok_all and ok
        report.append({"instance": stem, "ok": ok, "legs": legs})
    if as_json:
        click.echo(json.dumps({"ok": ok_all, "instances": report}, indent=2))
    else:
        for entry in report:
            click.echo(f"{entry['instance']}: {'pass' if entry['ok'] else 'FAIL'} "
                       + " ".join(f"{k}={v}" for k, v in entry["legs"].items()))
    sys.exit(0 if ok_all else 1)


@main.command("generate")
@click.option("--n", required=True, type=int)
@click.option("--seed", default=0, show_default=True)
@click.option("--edge-prob", default=0.5, show_default=True)
@click.option("--bipartite", is_flag=True)
@click.option("--inputs", "n_inputs", default=0, show_default=True)
@click.option("--outputs", "n_outputs", default=1, show_default=True)
@click.option("--labels", default=",".join(DEFAULT_LABELS), show_default=True,
              help="Comma-separated label pool.")
@click.option("--reject-input-z", is_flag=True,
              help="Resample while a measured input carries a Z axis.")
@click.option("-o", "--output", type=click.Path())
def cmd_generate(n, seed, edge_prob, bipartite, n_inputs, n_outputs, labels,
                 reject_input_z, output):
    """Seed-deterministic random open-graph instance."""
    try:
        spec = InstanceSpec(n=n, seed=seed, edge_probability=edge_prob,
                            bipartite=bipartite, n_inputs=n_inputs,
                            n_outputs=n_outputs,
                            labels=tuple(s for s in labels.split(",") if s),
                            reject_input_z=reject_input_z)
        og = generate_instance(spec)
    except (ContractError, FormatError) as e:
        _fail_parse(str(e))
    _emit(json.dumps(open_graph_to_json(og), indent=2), output)
    sys.exit(0)


if __name__ == "__main__":
    main()
