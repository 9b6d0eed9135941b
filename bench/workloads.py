"""The four benchmark workloads: their inputs, their ops and their checks.

Every workload has the same life cycle:

* `select(seed)` picks the op set from the seed.  Where inputs must have a
  known answer (a flow exists, or provably does not), the brute-force
  oracle decides it here.  This is oracle work and is not set-up time.
* `build(specs, tracer)` generates the inputs of the chosen specs.  This is
  the set-up a user pays and is what `setup_s` times.
* `run(inp, tracer, pass_no)` is one op.  Spans are recorded around each
  call into an mbqcflow module; counts come from values the API returns.
* `check(inp, out)` checks an op's output after the timed region.

The op set of a seed is a fixed list (a pass); a run repeats whole passes.
Counts are reported per pass, so they repeat exactly for a seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from mbqcflow import (Angle, InstanceSpec, Mbqc, bipartite_normal_form,
                      check_robust_deterministic, completed_order,
                      find_pauli_flow, find_pauli_flow_bruteforce,
                      flow_from_json, flow_to_json, generate_instance,
                      normal_form_equations_hold, open_graph_from_json,
                      open_graph_to_json, parallelize, parse,
                      pauli_robustness_probe, print_pattern,
                      synthesize_corrections, to_pattern, validate,
                      verify_pauli_flow, verify_pauli_flow_original)
from mbqcflow.errors import ContractError
from mbqcflow.graphs import Graph, MeasurementLabel, OpenGraph

PLANE_ANGLE = Angle.from_fraction(1, 4)
ZERO = Angle.from_fraction(0)
PI = Angle.from_fraction(1)


@dataclass
class Input:
    """One op's input.  `kind` groups ops of the same shape."""

    kind: str
    og: OpenGraph
    angles: Dict[int, Angle] = field(default_factory=dict)
    expected: Any = None
    text: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)


def grid_cluster(rows: int, cols: int, seed: Optional[int],
                 relabel_share: float = 0.3) -> OpenGraph:
    """rows x cols cluster state: inputs the first column, outputs the last.

    Every measured vertex is labelled XY, except that exactly
    `relabel_share` of the measured non-input vertices (chosen by `seed`)
    become X or Y.  Each row's successor is a causal flow, and relabelling
    a plane vertex to one of its axes keeps a flow valid, so a flow exists.
    """
    def index(i, j):
        return i * cols + j

    edges = [(index(i, j), index(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(index(i, j), index(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    inputs = sum(1 << index(i, 0) for i in range(rows))
    outputs = sum(1 << index(i, cols - 1) for i in range(rows))
    labels = {index(i, j): MeasurementLabel.XY for i in range(rows) for j in range(cols - 1)}
    if seed is not None:
        rng = random.Random(seed)
        eligible = [index(i, j) for i in range(rows) for j in range(1, cols - 1)]
        for u in rng.sample(eligible, round(relabel_share * len(eligible))):
            labels[u] = MeasurementLabel.X if rng.random() < 0.5 else MeasurementLabel.Y
    return OpenGraph(Graph.from_edges(rows * cols, edges), inputs, outputs, labels)


def fixed_angles(og: OpenGraph) -> Dict[int, Angle]:
    """Exact angles: 0 on single-axis labels, pi/4 on planes."""
    return {u: ZERO if lab.is_pauli else PLANE_ANGLE for u, lab in og.labels.items()}


def random_angles(og: OpenGraph, seed: int) -> Dict[int, Angle]:
    """0 or pi on single-axis labels, a uniform real angle on planes."""
    rng = random.Random(seed)
    return {u: (PI if rng.random() < 0.5 else ZERO) if lab.is_pauli
            else Angle.from_radians(rng.uniform(0, 2 * math.pi))
            for u, lab in sorted(og.labels.items())}


def generate(spec: InstanceSpec, tracer) -> OpenGraph:
    with tracer.span("instances.generate"):
        return generate_instance(spec)


def search(og: OpenGraph, tracer):
    """find_pauli_flow with its returned stats recorded as counts."""
    with tracer.span("search.find_pauli_flow"):
        result = find_pauli_flow(og)
    if tracer.enabled:
        stats = result.stats
        tracer.count("search.status." + result.status)
        tracer.count("search.rounds", stats.get("rounds", 0))
        tracer.count("search.solves", stats.get("solves", 0))
        if "orders" in stats:
            tracer.count("search.fallback_calls")
            tracer.count("search.bruteforce_orders", stats["orders"])
            tracer.count("search.candidate_tests", stats["candidate_tests"])
        elif result.found:
            # computed: a flow from the layered search assigns every measured vertex
            tracer.count("search.layered_assigned", len(og.labels))
    return result


def count_targets(strategy, tracer) -> None:
    if tracer.enabled:
        tracer.count("synthesis.correction_targets",
                     sum(strategy.targets(u).bit_count() for u in strategy.x))


def flow_key(flow) -> Tuple:
    return tuple(sorted(flow.p.items())), flow.order.succ


class Checker:
    """Output checks with the oracle's verdicts cached per input and output.

    Passes repeat the same inputs, so a check whose arguments were already
    checked returns the cached verdict instead of rerunning the oracle.
    """

    def __init__(self):
        self._cache: Dict[Tuple, Optional[str]] = {}

    def flow_error(self, og: OpenGraph, flow) -> Optional[str]:
        key = (id(og), flow_key(flow))
        if key not in self._cache:
            ok = verify_pauli_flow_original(og, flow)
            self._cache[key] = None if ok else f"flow fails the nine-condition check: {ok.describe()}"
        return self._cache[key]


def try_generate(spec: InstanceSpec) -> Optional[OpenGraph]:
    """generate_instance, or None when the spec's label constraint cannot be met."""
    try:
        return generate_instance(spec)
    except ContractError:
        return None


def walk_seeds(rng: random.Random, make: Callable[[int], Optional[OpenGraph]],
               accept: Callable[[OpenGraph, Dict[str, int]], Optional[str]],
               quota: Dict[str, int], limit: int = 20000) -> List[Tuple[str, int]]:
    """Walk consecutive seeds from a random start until every quota is met.

    `accept(og, need)` names the bucket an instance falls in, or None to
    skip it; `need` holds the open quotas, so it can skip oracle calls for
    buckets already full.  Returns (bucket, seed) pairs in the order found.
    """
    need = dict(quota)
    seed = rng.randrange(1 << 30)
    out = []
    for _ in range(limit):
        og = make(seed)
        bucket = accept(og, need) if og is not None else None
        if bucket is not None and need.get(bucket, 0) > 0:
            need[bucket] -= 1
            out.append((bucket, seed))
            if not any(need.values()):
                return out
        seed += 1
    raise RuntimeError(f"seed walk did not fill its quota {quota} in {limit} seeds")


# ---------------------------------------------------------------------------
# flow-search: find-flow -> verify-flow -> synthesize in-process


class FlowSearch:
    """Grid cluster states (flow exists) mixed with small mostly-flowless
    random instances that the brute-force fallback decides.

    Per pass: the grids in GRIDS plus small instances.  The grids are the
    same for every seed, one relabelling per size: search time on a 6x12
    grid swings 2.3x with the relabelling, and drawing it from the run seed
    moved the 90th percentile by 30% between seeds.  Six runs of the one
    6x12 grid put the 90th percentile inside a block of equal ops.  The seed
    draws the small instances and the op order.  The flowless ones are drawn
    3 per band of the oracle's candidate-test count (the bands are the
    quintiles at n = 8), so every pass carries the same spread of fallback
    work; they hold the median.
    """

    name = "flow-search"
    GRIDS = (((8, 16), 1), ((6, 12), 6), ((5, 10), 1), ((4, 8), 1))
    WARMUP_SKIP = ("grid8x16",)  # the 6x12 grids warm the same code in a fifth of the time
    SMALL = dict(n=8, n_inputs=1, n_outputs=2, reject_input_z=True)
    NONE_BANDS = (393_000, 425_000, 442_000, 480_000)
    SMALL_QUOTA = {"found": 5, **{f"none-{b}": 3 for b in range(len(NONE_BANDS) + 1)}}

    def __init__(self, root=None):
        self.checker = Checker()

    def bucket(self, og: OpenGraph, need) -> Optional[str]:
        oracle = find_pauli_flow_bruteforce(og)
        if oracle.found:
            return "found"
        tests = oracle.stats["candidate_tests"]
        return f"none-{sum(tests >= edge for edge in self.NONE_BANDS)}"

    def select(self, seed: int) -> List[dict]:
        rng = random.Random(seed)
        specs = [{"kind": f"grid{r}x{c}", "rows": r, "cols": c, "seed": 1000 * r}
                 for (r, c), k in self.GRIDS for _ in range(k)]
        small = walk_seeds(
            rng, lambda s: generate_instance(InstanceSpec(seed=s, **self.SMALL)),
            self.bucket, self.SMALL_QUOTA)
        specs += [{"kind": "small-found" if b == "found" else "small-none", "seed": s,
                   "expected": "found" if b == "found" else "none"} for b, s in small]
        rng.shuffle(specs)
        return specs

    def build(self, specs: List[dict], tracer) -> List[Input]:
        inputs = []
        for sp in specs:
            if "rows" in sp:
                og = grid_cluster(sp["rows"], sp["cols"], sp["seed"])
                expected = "found"
            else:
                og = generate(InstanceSpec(seed=sp["seed"], **self.SMALL), tracer)
                expected = sp["expected"]
            inputs.append(Input(sp["kind"], og, fixed_angles(og), expected,
                                json.dumps(open_graph_to_json(og))))
        return inputs

    def run(self, inp: Input, tracer, pass_no: int) -> dict:
        with tracer.span("graphs.load"):
            og = open_graph_from_json(inp.text)
        result = search(og, tracer)
        if not result.found:
            return {"status": result.status}
        with tracer.span("flows.json"):
            flow = flow_from_json(json.dumps(flow_to_json(result.flow, og.names)), og)
        with tracer.span("flows.verify_pauli_flow"):
            verdict = verify_pauli_flow(og, flow)
        with tracer.span("synthesis.synthesize_corrections"):
            strategy = synthesize_corrections(og, flow)
        with tracer.span("synthesis.completed_order"):
            order = completed_order(og, flow)
        with tracer.span("patterns.to_pattern"):
            pattern = to_pattern(Mbqc(og, inp.angles, strategy), order)
        with tracer.span("patterns.text_roundtrip"):
            reparsed = parse(print_pattern(pattern))
        count_targets(strategy, tracer)
        if tracer.enabled:
            tracer.count("patterns.commands", len(pattern.commands))
        return {"status": "found", "flow": result.flow, "roundtrip": flow,
                "verdict": bool(verdict), "pattern": pattern, "reparsed": reparsed}

    def check(self, inp: Input, out: dict) -> Optional[str]:
        status = out["status"]
        if status != inp.expected:
            return f"status {status}, oracle says {inp.expected}"
        if status == "none":
            return None
        if not out["verdict"]:
            return "verify_pauli_flow rejects the flow after the JSON round trip"
        if out["roundtrip"] != out["flow"]:
            return "flow changed in the JSON round trip"
        if out["reparsed"] != out["pattern"]:
            return "parse(print_pattern(p)) != p"
        return self.checker.flow_error(inp.og, out["flow"])


# ---------------------------------------------------------------------------
# robust-check: search, synthesis, then the state-vector robustness check


class RobustCheck:
    """Random instances with a flow (n = 4..6, criterion-2 shapes) beside the
    2x5 grid cluster state, a 10-qubit pattern with 256 branches.

    Per pass: QUOTA instances of every spec (the median and the tail are
    the n = 5..6 shapes) and GRID_OPS runs of the 2x5 grid at fresh angles.
    """

    name = "robust-check"
    SPECS = ((4, 1, 1, 0.5), (4, 1, 2, 0.5), (5, 1, 2, 0.5), (5, 2, 2, 0.4),
             (6, 1, 2, 0.4), (6, 1, 3, 0.5))
    QUOTA = 29
    GRID_OPS = 3
    ANGLE_SAMPLES = 3

    def __init__(self, root=None):
        self.checker = Checker()

    @staticmethod
    def spec(n, ni, no, ep, seed) -> InstanceSpec:
        return InstanceSpec(n=n, seed=seed, n_inputs=ni, n_outputs=no,
                            edge_probability=ep, reject_input_z=True)

    def select(self, seed: int) -> List[dict]:
        rng = random.Random(seed)
        specs = []
        for shape in self.SPECS:
            found = walk_seeds(
                rng, lambda s: generate_instance(self.spec(*shape, s)),
                lambda og, need: "found" if find_pauli_flow_bruteforce(og).found else None,
                {"found": self.QUOTA})
            n, ni, no, _ = shape
            specs += [{"kind": f"n{n}-i{ni}-o{no}", "shape": list(shape), "seed": s}
                      for _, s in found]
        specs += [{"kind": "grid2x5", "seed": rng.randrange(1 << 30)}
                  for _ in range(self.GRID_OPS)]
        rng.shuffle(specs)
        return specs

    def build(self, specs: List[dict], tracer) -> List[Input]:
        inputs = []
        for sp in specs:
            if sp["kind"] == "grid2x5":
                og = grid_cluster(2, 5, None)
            else:
                og = generate(self.spec(*sp["shape"], sp["seed"]), tracer)
            inputs.append(Input(sp["kind"], og, random_angles(og, sp["seed"]),
                                extra={"check_seed": sp["seed"] % 1000}))
        return inputs

    def run(self, inp: Input, tracer, pass_no: int) -> dict:
        og = inp.og
        result = search(og, tracer)
        if not result.found:
            return {"status": result.status}
        with tracer.span("synthesis.synthesize_corrections"):
            strategy = synthesize_corrections(og, result.flow)
        with tracer.span("synthesis.completed_order"):
            order = completed_order(og, result.flow)
        with tracer.span("statevec.check_robust_deterministic"):
            report = check_robust_deterministic(
                Mbqc(og, inp.angles, strategy), angle_samples=self.ANGLE_SAMPLES,
                seed=inp.extra["check_seed"], order=order)
        count_targets(strategy, tracer)
        if tracer.enabled:
            tracer.count("statevec.checks", report["checks"])
        return {"status": "found", "flow": result.flow, "report": report}

    def check(self, inp: Input, out: dict) -> Optional[str]:
        if out["status"] != "found":
            return f"status {out['status']} on an instance with a flow"
        if not out["report"]["ok"]:
            return f"robustness check failed: {out['report']['failure']}"
        return self.checker.flow_error(inp.og, out["flow"])


# ---------------------------------------------------------------------------
# pauli-probe: normal form, depth-one rewrite, stabilizer robustness probe


class PauliProbe:
    """Bipartite real instances with a flow, stratified by size and by the
    number of {X,Z}-plane labels, which sets the probe's 2^|I| * 4^planes
    settings per run.

    Per pass: for every shape, QUOTAS[shape][k] instances with k planes.
    The counts put as many ops below the 25-30 ms block (n = 7..8 with one
    plane, n = 6 with two) as above it, so the median lies inside it, and
    the 90th percentile inside the n = 10 two-plane block.
    A measured input cannot carry a plane (its Z axis rules out a flow), so
    small shapes top out at fewer planes; three planes with a flow occur
    only at n = 10 often enough to draw.

    Instances come from probe_pool.json: for every shape and plane count,
    seeds the brute-force oracle proved to have a flow (probe_pool.py writes
    it).  The run seed samples each stratum's quota from the pool, so the
    op set never depends on the flow search being measured.
    """

    name = "pauli-probe"
    QUOTAS = {
        (5, 1, 2, 0.5): {0: 2, 1: 3},
        (6, 1, 3, 0.5): {0: 2, 1: 3, 2: 6},
        (7, 1, 3, 0.4): {0: 3, 1: 8, 2: 4},
        (8, 1, 4, 0.35): {0: 3, 1: 8, 2: 4},
        (10, 1, 5, 0.3): {0: 7, 1: 6, 2: 9, 3: 2},
    }

    def __init__(self, root=None):
        self.checker = Checker()

    @staticmethod
    def spec(n, ni, no, ep, seed) -> InstanceSpec:
        return InstanceSpec(n=n, seed=seed, n_inputs=ni, n_outputs=no,
                            edge_probability=ep, bipartite=True,
                            labels=("X", "Z", "XZ"), reject_input_z=True)

    @staticmethod
    def planes(og: OpenGraph) -> int:
        return sum(1 for lab in og.labels.values() if lab is MeasurementLabel.XZ)

    @staticmethod
    def shape_key(shape) -> str:
        return ",".join(map(str, shape))

    def select(self, seed: int) -> List[dict]:
        rng = random.Random(seed)
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "probe_pool.json")) as fh:
            pool = json.load(fh)
        specs = []
        for shape, quota in self.QUOTAS.items():
            n, ni, _, _ = shape
            strata = pool[self.shape_key(shape)]
            specs += [{"kind": f"n{n}-i{ni}-p{k}", "shape": list(shape), "seed": s, "planes": k}
                      for k, c in quota.items() for s in rng.sample(strata[str(k)], c)]
        rng.shuffle(specs)
        return specs

    def build(self, specs: List[dict], tracer) -> List[Input]:
        inputs = []
        for sp in specs:
            og = generate(self.spec(*sp["shape"], sp["seed"]), tracer)
            if self.planes(og) != sp["planes"]:
                raise RuntimeError("probe_pool.json does not match generate_instance; "
                                   "rerun bench/probe_pool.py")
            settings = (1 << bin(og.inputs & og.measured).count("1")) * 4 ** self.planes(og)
            angles = {u: a if og.labels[u].is_pauli else PLANE_ANGLE
                      for u, a in random_angles(og, sp["seed"]).items()}
            inputs.append(Input(sp["kind"], og, angles, extra={"settings": settings}))
        return inputs

    def run(self, inp: Input, tracer, pass_no: int) -> dict:
        og = inp.og
        result = search(og, tracer)
        if not result.found:
            return {"status": result.status}
        with tracer.span("synthesis.bipartite_normal_form"):
            normal = bipartite_normal_form(og, result.flow)
        with tracer.span("synthesis.parallelize"):
            strategy = parallelize(og, normal)
        with tracer.span("stabilizer.pauli_robustness_probe"):
            report = pauli_robustness_probe(Mbqc(og, inp.angles, strategy))
        count_targets(strategy, tracer)
        if tracer.enabled:
            tracer.count("stabilizer.settings", inp.extra["settings"])
        return {"status": "found", "flow": result.flow, "normal": normal,
                "strategy": strategy, "report": report}

    def check(self, inp: Input, out: dict) -> Optional[str]:
        if out["status"] != "found":
            return f"status {out['status']} on an instance with a flow"
        og = inp.og
        if not normal_form_equations_hold(og, out["normal"]):
            return "normal form violates its set equations"
        strategy = out["strategy"]
        if any(strategy.targets(u) & ~og.outputs for u in strategy.x):
            return "parallelized strategy corrects a non-output vertex"
        if not out["report"]["ok"]:
            return f"probe failed: {out['report']}"
        return self.checker.flow_error(og, out["flow"])


# ---------------------------------------------------------------------------
# cli: the README shell pipeline, one child process per command


@dataclass
class Child:
    """Outcome of one command run in a child process."""

    code: int
    maxrss_kb: int
    stdout: str
    files: Dict[str, str]


class Cli:
    """`generate -> find-flow -> verify-flow -> synthesize -> check --level
    strong` per instance, plus `parallelize` on bipartite instances.

    Per pass: PIPELINES n = 6 instances with a flow run the whole pipeline;
    five flowless n = 8 instances, one per band of flow-search's
    candidate-test quintiles, stop after find-flow (exit 1); PARALLEL
    bipartite instances run parallelize.  Each command is one op.  Every
    command costs about the same interpreter start-up and imports, so a
    percentile over them alone follows the machine's load spikes; the
    flowless find-flow runs the brute-force fallback in the child and is
    the block of slower ops that holds the 90th percentile.
    """

    name = "cli"
    PIPELINE = dict(n=6, n_inputs=1, n_outputs=2, reject_input_z=True)
    PIPELINES = 2
    BIPARTITE = (8, 1, 4, 0.35)
    PARALLEL = 2

    def __init__(self, root):
        self.workdir = os.path.join(root, ".bench_out", f"cli-{os.getpid()}")
        self.child_env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.checker = Checker()

    def select(self, seed: int) -> List[dict]:
        rng = random.Random(seed)
        found = walk_seeds(
            rng, lambda s: generate_instance(InstanceSpec(seed=s, **self.PIPELINE)),
            lambda og, need: find_pauli_flow_bruteforce(og).status, {"found": self.PIPELINES})
        flowless = FlowSearch()
        none = walk_seeds(
            rng, lambda s: generate_instance(InstanceSpec(seed=s, **flowless.SMALL)),
            flowless.bucket, {b: 1 for b in flowless.SMALL_QUOTA if b != "found"})
        bip = walk_seeds(
            rng, lambda s: try_generate(PauliProbe.spec(*self.BIPARTITE, s)),
            lambda og, need: "found" if find_pauli_flow_bruteforce(og).found else None,
            {"found": self.PARALLEL})
        return ([{"kind": "pipeline", "seed": s, "spec": self.PIPELINE, "expected": "found"}
                 for _, s in found]
                + [{"kind": "pipeline", "seed": s, "spec": flowless.SMALL, "expected": "none"}
                   for _, s in none]
                + [{"kind": "bipartite", "seed": s} for _, s in bip])

    def build(self, specs: List[dict], tracer) -> List[Input]:
        os.makedirs(self.workdir, exist_ok=True)
        inputs = []
        for i, sp in enumerate(specs):
            if sp["kind"] == "bipartite":
                og = generate(PauliProbe.spec(*self.BIPARTITE, sp["seed"]), tracer)
                path = os.path.join(self.workdir, f"bipartite-{i}.json")
                with open(path, "w") as fh:
                    json.dump(open_graph_to_json(og), fh)
                inputs.append(Input("parallelize", og, expected=0,
                                    extra={"args": ["parallelize", path, "--json"]}))
                continue
            og = generate(InstanceSpec(seed=sp["seed"], **sp["spec"]), tracer)
            stem = f"p{i}"
            gen = ["generate", "--n", str(og.n), "--seed", str(sp["seed"]),
                   "--inputs", "1", "--outputs", "2", "--reject-input-z"]
            steps = [("generate", 0, gen + ["-o", "{graph}"]),
                     ("find-flow", 0 if sp["expected"] == "found" else 1,
                      ["find-flow", "{graph}", "--json", "-o", "{flow}"])]
            if sp["expected"] == "found":
                steps += [("verify-flow", 0, ["verify-flow", "{graph}", "{flow}", "--json"]),
                          ("synthesize", 0, ["synthesize", "{graph}", "-o", "{pattern}"]),
                          ("check", 0, ["check", "{pattern}", "--level", "strong", "--json"])]
            for command, code, args in steps:
                inputs.append(Input(command, og, expected=code,
                                    extra={"args": args, "stem": stem}))
        return inputs

    def paths(self, inp: Input, pass_no: int) -> Dict[str, str]:
        stem = os.path.join(self.workdir, f"{inp.extra.get('stem', 'x')}-{pass_no}")
        return {"graph": stem + ".json", "flow": stem + ".flow.json",
                "pattern": stem + ".mcpat"}

    def run(self, inp: Input, tracer, pass_no: int) -> Child:
        files = self.paths(inp, pass_no)
        args = [a.format(**files) for a in inp.extra["args"]]
        out_path = os.path.join(self.workdir, f"op-{tracer.op}-{inp.kind}-{pass_no}.out")
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
        argv = [PYTHON, "-m", "mbqcflow.cli"] + args
        with tracer.span(f"cli.{inp.kind}"):
            pid = os.posix_spawn(PYTHON, argv, self.child_env, file_actions=actions)
            _, status, usage = os.wait4(pid, 0)
        return Child(os.waitstatus_to_exitcode(status), usage.ru_maxrss, out_path, files)

    def check(self, inp: Input, out: Child) -> Optional[str]:
        if out.code != inp.expected:
            return f"{inp.kind} exited {out.code}, expected {inp.expected}"
        with open(out.stdout) as fh:
            stdout = fh.read()
        og = inp.og
        if inp.kind == "generate":
            with open(out.files["graph"]) as fh:
                if json.load(fh) != open_graph_to_json(og):
                    return "generate wrote another graph than the library generates"
        elif inp.kind == "find-flow":
            if inp.expected == 1:
                if json.loads(stdout).get("status") != "none":
                    return f"find-flow reported {stdout!r} on a flowless instance"
                return None
            with open(out.files["flow"]) as fh:
                return self.checker.flow_error(og, flow_from_json(fh.read(), og))
        elif inp.kind == "verify-flow":
            if json.loads(stdout).get("valid") is not True:
                return "verify-flow rejects the flow find-flow wrote"
        elif inp.kind == "synthesize":
            with open(out.files["pattern"]) as fh:
                if not validate(parse(fh.read())):
                    return "synthesize wrote an invalid pattern"
        elif inp.kind == "check":
            if json.loads(stdout).get("ok") is not True:
                return "check --level strong fails on a synthesized pattern"
        elif inp.kind == "parallelize":
            doc = json.loads(stdout)
            if doc.get("depth") != 1 or not validate(parse(doc["pattern"])):
                return "parallelize did not give a valid depth-one pattern"
        return None


PYTHON = sys.executable

WORKLOADS = {w.name: w for w in (FlowSearch, RobustCheck, PauliProbe, Cli)}
