"""Command-line interface: exit codes, formats and end-to-end pipelines."""

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import mbqcflow
from mbqcflow import cli, patterns
from mbqcflow.cli import main
from mbqcflow.errors import RewriteError
from mbqcflow.flows import flow_from_json
from mbqcflow.graphs import (Graph, MeasurementLabel, OpenGraph,
                             open_graph_from_json, open_graph_to_json)
from mbqcflow.patterns import (Angle, Mbqc, parse, print_pattern, standardize,
                               to_pattern)
from mbqcflow.search import find_pauli_flow
from mbqcflow.synthesis import completed_order, synthesize_corrections


@pytest.fixture
def runner():
    return CliRunner()


def write_graph(tmp_path, og, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(open_graph_to_json(og)))
    return str(path)


def fork_instance():
    """Flow exists (measuring vertex 1 after vertex 0 is impossible)."""
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    return OpenGraph(g, 0, 0b100, {0: MeasurementLabel.XY,
                                   1: MeasurementLabel.X},
                     names=("1", "2", "3"))


def flowless_instance():
    """A single measured vertex with no neighbours has no flow."""
    g = Graph.from_edges(1, [])
    return OpenGraph(g, 0, 0, {0: MeasurementLabel.X})


def bipartite_instance():
    """Path a-b-c with real labels; has a flow and a depth-one form."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    return OpenGraph(g, 0b001, 0b110, {0: MeasurementLabel.X},
                     names=("a", "b", "c"))


class TestVerifyFlow:
    def test_valid_and_invalid(self, runner, tmp_path):
        og = fork_instance()
        gpath = write_graph(tmp_path, og)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"p": {"1": ["2"], "2": ["1", "3"]}, "order": [["2", "1"]]}))
        res = runner.invoke(main, ["verify-flow", gpath, str(good)])
        assert res.exit_code == 0, res.output
        assert "valid" in res.output
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": {"1": [], "2": []}}))
        res = runner.invoke(main, ["verify-flow", gpath, str(bad)])
        assert res.exit_code == 1
        res = runner.invoke(main, ["verify-flow", gpath, str(bad), "--json"])
        doc = json.loads(res.output)
        assert doc["valid"] is False and "violated" in doc["detail"]

    def test_parse_error_exit_2(self, runner, tmp_path):
        gpath = write_graph(tmp_path, fork_instance())
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        res = runner.invoke(main, ["verify-flow", gpath, str(bad)])
        assert res.exit_code == 2
        broken = tmp_path / "broken.json"
        broken.write_text("[]")
        res = runner.invoke(main, ["verify-flow", str(broken), str(bad)])
        assert res.exit_code == 2


class TestFindFlow:
    def test_found(self, runner, tmp_path):
        og = fork_instance()
        gpath = write_graph(tmp_path, og)
        out = tmp_path / "flow.json"
        res = runner.invoke(main, ["find-flow", gpath, "-o", str(out)])
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        assert "depth" in doc
        assert doc["status"] == "found"
        assert set(doc["stats"]) == {"rounds", "solves"}
        assert "order" not in doc  # the search's order is weak: written as layers
        flow = flow_from_json({k: doc[k] for k in ("p", "layers")}, og)
        from mbqcflow.flows import verify_pauli_flow
        assert verify_pauli_flow(og, flow)

    def test_none(self, runner, tmp_path):
        gpath = write_graph(tmp_path, flowless_instance())
        res = runner.invoke(main, ["find-flow", gpath])
        assert res.exit_code == 1
        assert "none" in res.output
        res = runner.invoke(main, ["find-flow", gpath, "--json"])
        assert res.exit_code == 1
        doc = json.loads(res.output)
        assert doc["status"] == "none"
        assert set(doc["stats"]) == {"rounds", "solves"}


class TestSynthesize:
    def test_pipeline_roundtrip(self, runner, tmp_path):
        gpath = write_graph(tmp_path, fork_instance())
        out = tmp_path / "pattern.mcpat"
        res = runner.invoke(main, ["synthesize", gpath, "-o", str(out)])
        assert res.exit_code == 0, res.output
        pat = parse(out.read_text())
        assert pat.names == ("1", "2", "3")
        # synthesized pattern passes every check level
        for level in ("det", "strong", "robust"):
            res = runner.invoke(main, ["check", str(out), "--level", level,
                                       "--samples", "3"])
            assert res.exit_code == 0, (level, res.output)

    def test_angle_override(self, runner, tmp_path):
        gpath = write_graph(tmp_path, fork_instance())
        out = tmp_path / "pattern.mcpat"
        res = runner.invoke(main, ["synthesize", gpath,
                                   "--angle", "1=1/2", "-o", str(out)])
        assert res.exit_code == 0
        assert "M 1 XY 1/2 pi" in out.read_text()

    def test_no_flow(self, runner, tmp_path):
        gpath = write_graph(tmp_path, flowless_instance())
        res = runner.invoke(main, ["synthesize", gpath])
        assert res.exit_code == 1


def uncorrected_pattern(runner, tmp_path):
    """The README walkthrough's synthesized pattern with every correction
    deleted, which fails every check level."""
    graph, pat = tmp_path / "graph.json", tmp_path / "pattern.mcpat"
    res = runner.invoke(main, ["generate", "--n", "6", "--seed", "3", "--inputs", "1",
                               "--outputs", "2", "-o", str(graph)])
    assert res.exit_code == 0, res.output
    assert runner.invoke(main, ["synthesize", str(graph), "-o", str(pat)]).exit_code == 0
    bare = tmp_path / "bare.mcpat"
    bare.write_text("".join(line for line in pat.read_text().splitlines(True)
                            if line[0] not in "XZ"))
    return str(bare)


class TestCheck:
    def test_uncorrected_fails_robust(self, runner, tmp_path):
        p = tmp_path / "bare.mcpat"
        p.write_text("input: 1\nN 2\nN 3\nE 1 2\nE 1 3\nM 1 XY 1/4 pi\n"
                     "M 2 X 0\n")
        res = runner.invoke(main, ["check", str(p), "--level", "robust",
                                   "--samples", "3", "--json"])
        assert res.exit_code == 1
        doc = json.loads(res.output)
        assert doc["ok"] is False and doc["failure"] is not None

    @pytest.mark.parametrize("level", ["det", "strong", "robust"])
    def test_tolerance_and_samples_checked(self, runner, tmp_path, level):
        """A nan or infinite tolerance would pass the uncorrected pattern,
        since every comparison with it is False, a negative one would fail
        every pattern, and a negative seed raised in numpy: each exits 2
        with one error line."""
        bare = uncorrected_pattern(runner, tmp_path)
        res = runner.invoke(main, ["check", bare, "--level", level, "--samples", "3"])
        assert res.exit_code == 1 and res.output == f"{level}: FAIL\n"
        for opt in (["--tolerance", "nan"], ["--tolerance", "inf"],
                    ["--tolerance", "-1e-9"], ["--samples", "-1"], ["--seed", "-1"]):
            res = runner.invoke(main, ["check", bare, "--level", level, *opt])
            assert res.exit_code == 2, (opt, res.output)
            assert res.output.startswith(f"error: {opt[0]}: ")
            assert res.output.count("\n") == 1

    def test_det_level(self, runner, tmp_path):
        p = tmp_path / "det.mcpat"
        p.write_text("input: 1\nN 2\nM 1 XY 0\n")  # constant-to-plus map
        res = runner.invoke(main, ["check", str(p), "--level", "det"])
        assert res.exit_code == 0
        res = runner.invoke(main, ["check", str(p), "--level", "strong"])
        assert res.exit_code == 1

    def test_strong_reads_realness_from_labels(self, runner, tmp_path):
        # real labels, but E 2 3 follows a correction on 2, so the pattern
        # has no standard form and no graph form to read realness from
        text = ("input: 1\nN 2\nN 3\nE 1 2\nM 1 X 0\nX 2 s(1)\nE 2 3\n"
                "M 2 X 0\nX 3 s(2)\n")
        with pytest.raises(RewriteError):
            standardize(parse(text))
        p = tmp_path / "late.mcpat"
        p.write_text(text)
        res = runner.invoke(main, ["check", str(p), "--level", "strong", "--json"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["real_inputs"] is True and doc["ok"] is True

    def test_invalid_pattern_exit_2(self, runner, tmp_path):
        p = tmp_path / "bad.mcpat"
        p.write_text("E 1 2\n")  # entangles qubits that were never created
        res = runner.invoke(main, ["check", str(p)])
        assert res.exit_code == 2
        p2 = tmp_path / "syntax.mcpat"
        p2.write_text("Q 1\n")
        res = runner.invoke(main, ["check", str(p2)])
        assert res.exit_code == 2

    def test_invalid_pattern_same_line_at_every_level(self, runner, tmp_path):
        p = tmp_path / "bad.mcpat"
        p.write_text("N 1\nE 1 2\n")  # entangles a qubit never created
        outputs = set()
        for level in ("det", "strong", "robust"):
            res = runner.invoke(main, ["check", str(p), "--level", level])
            assert res.exit_code == 2
            outputs.add(res.output)
        (line,) = outputs
        assert line.startswith("error: pattern is not valid: ")
        assert line.count("\n") == 1

    @pytest.mark.parametrize("level", ["det", "strong"])
    @pytest.mark.parametrize("text", ["input: 1\nN 2\nM 1 XY 0\n", "N 1\nE 1 2\n"],
                             ids=["valid", "invalid"])
    def test_validates_once(self, runner, tmp_path, monkeypatch, level, text):
        calls = []
        real = patterns.validate

        def counted(pat):
            calls.append(pat)
            return real(pat)

        monkeypatch.setattr(patterns, "validate", counted)
        monkeypatch.setattr(cli, "validate", counted)
        p = tmp_path / "pattern.mcpat"
        p.write_text(text)
        res = runner.invoke(main, ["check", str(p), "--level", level])
        assert res.exit_code in (0, 1, 2)
        assert len(calls) == 1


class TestParallelize:
    def test_depth_one(self, runner, tmp_path):
        gpath = write_graph(tmp_path, bipartite_instance())
        res = runner.invoke(main, ["parallelize", gpath, "--json"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["depth"] == 1
        pat = parse(doc["pattern"])
        # all corrections are on output qubits
        from mbqcflow.patterns import CorrectX, CorrectZ
        for cmd in pat.commands:
            if isinstance(cmd, (CorrectX, CorrectZ)):
                assert (pat.outputs >> cmd.qubit) & 1

    def test_json_mode_writes_output_file(self, runner, tmp_path):
        gpath = write_graph(tmp_path, bipartite_instance())
        out = tmp_path / "p.mcpat"
        res = runner.invoke(main, ["parallelize", gpath, "--json", "-o", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text() == json.loads(res.output)["pattern"]

    def test_non_real_rejected(self, runner, tmp_path):
        gpath = write_graph(tmp_path, fork_instance())  # XY label
        res = runner.invoke(main, ["parallelize", gpath])
        assert res.exit_code == 1
        assert "error" in res.output or "no flow" in res.output


class TestCounterexamples:
    def test_all_legs_pass(self, runner):
        res = runner.invoke(main, ["counterexamples", "--samples", "3",
                                   "--json"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["ok"] is True
        assert len(doc["instances"]) == 2
        for entry in doc["instances"]:
            assert all(entry["legs"].values())

    @pytest.mark.parametrize("option", ["--samples", "--seed"])
    def test_negative_count_exit_2(self, runner, option):
        res = runner.invoke(main, ["counterexamples", option, "-1"])
        assert res.exit_code == 2
        assert res.output == f"error: {option}: expected an integer >= 0, got -1\n"


class TestGenerate:
    def test_deterministic_and_loadable(self, runner, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            res = runner.invoke(main, ["generate", "--n", "6", "--seed", "9",
                                       "--inputs", "1", "--outputs", "2",
                                       "-o", str(out)])
            assert res.exit_code == 0
        assert out1.read_text() == out2.read_text()
        og = open_graph_from_json(out1.read_text())
        assert og.n == 6

    def test_bad_labels_exit_2(self, runner):
        res = runner.invoke(main, ["generate", "--n", "4", "--labels", "Q"])
        assert res.exit_code == 2


def _pattern_doc(*commands):
    return {"vertices": ["a"], "input": [], "output": [], "commands":
            [{"type": "N", "qubit": "a"}] + list(commands)}


def _graph_doc(**changes):
    doc = open_graph_to_json(fork_instance())
    doc.update(changes)
    return doc


def _wide_pattern() -> bytes:
    """The standard pattern of a 32 x 2 XY cluster state: 32 inputs, more
    than any simulation capacity; 2^32 input columns must never be built."""
    rows = 32
    edges = [(2 * i, 2 * i + 1) for i in range(rows)]
    edges += [(2 * i + j, 2 * i + 2 + j) for i in range(rows - 1) for j in range(2)]
    column = [sum(1 << (2 * i + j) for i in range(rows)) for j in range(2)]
    og = OpenGraph(Graph.from_edges(2 * rows, edges), column[0], column[1],
                   {2 * i: MeasurementLabel.XY for i in range(rows)})
    flow = find_pauli_flow(og).flow
    m = Mbqc(og, {u: Angle.from_fraction(1, 4) for u in og.labels},
             synthesize_corrections(og, flow))
    return print_pattern(to_pattern(m, completed_order(og, flow))).encode()


_FORK_FLOW = ["verify-flow", "graph.json", "flow.json"]
_WIDE = _wide_pattern()

MALFORMED = {
    "angle-without-equals": (["parallelize", "path.json", "--angle", "foo"], {}),
    "angle-zero-denominator": (["synthesize", "graph.json", "--angle", "2=1/0"], {}),
    "angle-unknown-vertex": (["synthesize", "graph.json", "--angle", "zz=1"], {}),
    "angle-output-vertex": (["synthesize", "graph.json", "--angle", "3=1/4"], {}),
    "angle-not-pauli-on-pauli-vertex": (["synthesize", "graph.json", "--angle", "2=1/4"], {}),
    "graph-edges-not-a-list": (["find-flow", "bad.json"], {"bad.json": _graph_doc(edges=5)}),
    "graph-label-not-a-string": (["find-flow", "bad.json"],
                                 {"bad.json": _graph_doc(labels={"1": 3, "2": "X"})}),
    "flow-p-not-an-object": (_FORK_FLOW, {"flow.json": {"p": ["2"]}}),
    "flow-targets-not-a-list": (_FORK_FLOW, {"flow.json": {"p": {"2": 5}}}),
    "pattern-entangles-one-qubit": (["check", "pat.json"], {"pat.json": _pattern_doc(
        {"type": "E", "qubits": ["a", "a"]})}),
    "pattern-angle-zero-denominator": (["check", "pat.json"], {"pat.json": _pattern_doc(
        {"type": "M", "qubit": "a", "label": "XY", "angle": {"num": 1, "den": 0}})}),
    "graph-not-utf8": (["find-flow", "bad.json"], {"bad.json": b"\xff\xfe"}),
    "pattern-pauli-fraction-angle-det": (["check", "--level", "det", "pat.mcpat"], {
        "pat.mcpat": b"N 1\nN 2\nE 1 2\nM 1 X 1/2 pi\n"}),
    "pattern-pauli-float-angle-robust": (["check", "--level", "robust", "pat.mcpat"], {
        "pat.mcpat": b"N 1\nN 2\nE 1 2\nM 1 X 0.0\n"}),
    "pattern-pauli-radians-det": (["check", "--level", "det", "pat.json"], {"pat.json": _pattern_doc(
        {"type": "M", "qubit": "a", "label": "X", "angle": {"radians": 1.0}})}),
    "pattern-pauli-radians-robust": (["check", "pat.json"], {"pat.json": _pattern_doc(
        {"type": "M", "qubit": "a", "label": "X", "angle": {"radians": 1.0}})}),
    "generate-empty-label-pool": (["generate", "--n", "3", "--labels", ","], {}),
    **{f"pattern-32-inputs-{level}": (["check", "--level", level, "wide.mcpat"],
                                      {"wide.mcpat": _WIDE})
       for level in ("det", "strong", "robust")},
    "synthesize-name-with-space": (["synthesize", "named.json"], {"named.json": open_graph_to_json(
        OpenGraph(fork_instance().graph, 0, 0b100, fork_instance().labels, ("1", "a b", "3")))}),
    "parallelize-name-with-hash": (["parallelize", "named.json"], {"named.json": open_graph_to_json(
        OpenGraph(bipartite_instance().graph, 0b001, 0b110, bipartite_instance().labels,
                  ("a", "d#e", "c")))}),
    "flow-order-cycle": (["verify-flow", "abcd.json", "flow.json"], {
        "abcd.json": open_graph_to_json(OpenGraph(
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 0, 0b1000,
            dict.fromkeys(range(3), MeasurementLabel.XY), names=("a", "b", "c", "d"))),
        "flow.json": {"p": {"a": ["b"], "b": ["c"], "c": ["d"]},
                      "order": [["c", "b"], ["b", "c"]]}}),
}
ERROR_NAMES = {"flow-order-cycle": "error: order has a cycle through vertex b",
               "synthesize-name-with-space": "error: vertex name 'a b' cannot be written",
               "parallelize-name-with-hash": "error: vertex name 'd#e' cannot be written",
               **{f"pattern-32-inputs-{level}":
                  "error: simulation bounded to 12 outcome and qubit axes"
                  for level in ("det", "strong", "robust")}}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_error_line(tmp_path, case):
    argv, files = MALFORMED[case]
    write_graph(tmp_path, fork_instance())
    write_graph(tmp_path, bipartite_instance(), "path.json")
    (tmp_path / "flow.json").write_text(json.dumps({"p": {"1": ["2"], "2": ["1", "3"]}}))
    for name, doc in files.items():
        data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        (tmp_path / name).write_bytes(data)
    src = os.path.dirname(os.path.dirname(mbqcflow.__file__))
    proc = subprocess.run([sys.executable, "-m", "mbqcflow.cli"] + argv,
                          cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert lines[0].startswith(ERROR_NAMES.get(case, "error: ")), proc.stderr
