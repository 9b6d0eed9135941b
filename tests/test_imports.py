"""Package imports: every imported name is used, numpy loads only with the
state-vector engine, and the package namespace re-exports it lazily."""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import mbqcflow

PACKAGE = pathlib.Path(mbqcflow.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def test_private_helpers_are_used_in_the_package():
    """Every underscore-prefixed module-level function or class is referenced
    in the package outside its own definition: a helper only tests call
    lives in the tests."""
    private, refs = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.endswith("__")):
                private.append((stmt.name, (path.name, i)))
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                refs.setdefault(name, set()).add((path.name, i))
    assert [name for name, where in private if not refs.get(name, set()) - {where}] == []


def module_level_imports(path):
    """Every part of every dotted name that a module-level import names."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")
            if isinstance(node, ast.ImportFrom) and node.module:
                yield from node.module.split(".")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_statevec_imports_numpy_at_module_level(path):
    imports = set(module_level_imports(path))
    assert "statevec" not in imports  # callers import it where they use it
    assert ("numpy" in imports) == (path.name == "statevec.py")


def test_flow_only_commands_never_load_numpy(tmp_path):
    script = textwrap.dedent("""
        import sys
        from mbqcflow.cli import main

        def run(*argv):
            try:
                main(list(argv), standalone_mode=False)
            except SystemExit as e:
                assert e.code == 0, (argv, e.code)

        run("generate", "--n", "6", "--seed", "3", "--inputs", "1", "--outputs", "2",
            "-o", "g.json")
        run("find-flow", "g.json", "-o", "f.json")
        run("verify-flow", "g.json", "f.json")
        run("synthesize", "g.json", "-o", "p.mcpat")
        run("generate", "--n", "8", "--seed", "1", "--bipartite", "--labels", "X,Z,XZ",
            "--inputs", "1", "--outputs", "4", "--edge-prob", "0.35", "--reject-input-z",
            "-o", "b.json")
        run("parallelize", "b.json")
        assert "numpy" not in sys.modules
        run("check", "p.mcpat", "--level", "strong")
        assert "numpy" in sys.modules
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr


MOVED = {"reorder_generators"}  # to tests/oracles.py with the branch-exact runs
NAMESPACE = """
    Angle CapacityError ContractError CorrectX CorrectZ CorrectionFlow
    CorrectionStrategy Entangle FlowSearchResult FormatError Graph InstanceSpec
    Mbqc Measure MeasurementLabel New OpenGraph PI_ANGLE PartialOrder Pattern
    PatternSyntaxError PauliOperator RewriteError StabilizerState Verdict
    ZERO_ANGLE bipartite_normal_form bipartition branch_map check_deterministic
    check_robust_deterministic check_strong_deterministic closed_odd_neighborhood
    completed_order eigenpair errors find_pauli_flow find_pauli_flow_bruteforce
    flow_depth flow_from_json flow_to_json flows generate_instance gf2 graphs
    initial_stabilizers input_label_constraint instances is_extensive
    normal_form_equations_hold odd_neighborhood of_pattern open_graph_from_json
    open_graph_to_json parallel_measurement_order parallelize parse
    pattern_from_json pattern_to_json patterns pauli_robustness_probe
    print_pattern reorder_generators run_pattern search stabilizer standardize
    statevec strategy_from_json strategy_order strategy_to_json synthesis
    synthesize_corrections to_pattern validate verify_causal_flow verify_gflow
    verify_pauli_flow verify_pauli_flow_original verify_real_pauli_flow
""".split()


def test_package_namespace():
    assert sorted(mbqcflow.__all__) == sorted(set(NAMESPACE) - MOVED)
    assert set(mbqcflow.__all__) <= set(dir(mbqcflow))
    star = {}
    exec("from mbqcflow import *", star)
    for name in mbqcflow.__all__:
        assert star[name] is getattr(mbqcflow, name)
    assert mbqcflow.check_robust_deterministic is mbqcflow.statevec.check_robust_deterministic
    with pytest.raises(AttributeError):
        mbqcflow.reorder_generators


def test_benchmark_imports_resolve():
    tree = ast.parse((PACKAGE.parents[1] / "bench" / "workloads.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "mbqcflow"
             for alias in node.names]
    assert "check_robust_deterministic" in names
    for name in names:
        assert hasattr(mbqcflow, name), name
