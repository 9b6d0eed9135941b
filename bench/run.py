"""mbqcflow benchmark: one closed-loop client, one workload per process.

    python3 bench/run.py --workload flow-search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  A run:

1. picks the seed's op set, asking the brute-force oracle for the answers
   the inputs must have (untimed);
2. times set-up (interpreter start, imports, input generation) in
   SETUP_CHILDREN fresh child processes and reports the median;
3. warms up on one op of every kind (but a workload's WARMUP_SKIP);
4. runs whole passes over the op set, untraced, for about --seconds
   (with --trace 1: half the time untraced, half traced);
5. checks every pass's outputs against the oracle as the pass ends,
   outside the timed region.

The last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Earlier lines state
the environment, the sample counts and any failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_CHILDREN = 17
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_TIME_CHILDREN = 3
MIN_PASSES = 3  # ops_per_s takes the median pass time


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads; child processes inherit it."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def locate_package() -> None:
    """Import mbqcflow from this checkout's src/, or exit non-zero without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mbqcflow", "__init__.py")):
        sys.exit(f"error: no mbqcflow sources under {src}")
    sys.path.insert(0, src)
    import mbqcflow
    if not os.path.abspath(mbqcflow.__file__).startswith(src + os.sep):
        sys.exit(f"error: mbqcflow imported from {mbqcflow.__file__}, not {src}")


def environment() -> dict:
    import numpy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Set-up timing


def setup_child(workload: str) -> None:
    """Child mode: build the inputs of the specs read from stdin, say ready."""
    import workloads
    specs = json.load(sys.stdin)
    wl = workloads.WORKLOADS[workload](ROOT)
    wl.build(specs, tracing.NULL)
    print("ready", flush=True)
    remove_workdir(wl)


def time_setup(workload: str, specs) -> list:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    samples = []
    payload = json.dumps(specs).encode()
    for _ in range(SETUP_CHILDREN):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--setup-child",
             "--workload", workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        child.stdin.write(payload)
        child.stdin.close()
        line = child.stdout.readline()
        samples.append(time.perf_counter() - start)
        child.stdout.read()
        child.stdout.close()
        if child.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
    return samples


# ---------------------------------------------------------------------------
# Timed passes


class OpFailure(str):
    """Text of the exception an op raised."""


class Passes:
    """Whole passes over the op set: latencies, wall times and failed ops.

    Each pass's outputs are checked as soon as the pass ends, outside its
    wall time, and only the failures are kept, so the memory the run holds
    does not grow with the number of passes.
    """

    def __init__(self):
        self.latencies = []
        self.pass_walls = []
        self.errors = []  # (input kind, problem)
        self.child_maxrss_kb = 0  # largest child process seen (cli)

    @property
    def wall_s(self) -> float:
        return sum(self.pass_walls)

    @property
    def count(self) -> int:
        return len(self.pass_walls)

    @property
    def ops_per_s(self) -> float:
        """Ops per pass over the median pass time: a pass slowed by a burst
        of load on the machine does not move it."""
        return len(self.latencies) / self.count / statistics.median(self.pass_walls)


def run_passes(wl, inputs, tracer, seconds: float, first_pass: int = 0,
               min_passes: int = 1) -> Passes:
    """Run whole passes until the next would end farther past `seconds`
    than stopping now falls short of it (at least `min_passes`).

    Pass numbers start at `first_pass`; op ids are pass * len(inputs) + index,
    so ops of different runs over the same inputs never share an id.
    """
    done = Passes()
    while True:
        start = time.perf_counter()
        pass_no = first_pass + done.count
        outputs = []
        for i, inp in enumerate(inputs):
            tracer.op = pass_no * len(inputs) + i
            t0 = time.perf_counter()
            try:
                with tracer.span("op"):
                    out = wl.run(inp, tracer, pass_no)
            except Exception as e:  # an op that raises is a failed op, not a crash
                out = OpFailure(f"{type(e).__name__}: {e}")
            done.latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        done.pass_walls.append(time.perf_counter() - start)
        for inp, out in zip(inputs, outputs):
            problem = check_output(wl, inp, out)
            if problem:
                done.errors.append((inp.kind, problem))
            done.child_maxrss_kb = max(done.child_maxrss_kb, getattr(out, "maxrss_kb", 0))
        if done.count >= min_passes and done.wall_s + done.wall_s / done.count / 2 >= seconds:
            return done


def check_output(wl, inp, out) -> str:
    """Why an op's output is wrong, or '' when it is right."""
    if isinstance(out, OpFailure):
        return str(out)
    try:
        return wl.check(inp, out) or ""
    except Exception as e:  # a check that raises means the output is malformed
        return f"check raised {type(e).__name__}: {e}"


def peak_rss_mb(passes: Passes) -> float:
    """Largest child's peak for the cli workload, else this process's."""
    if passes.child_maxrss_kb:
        return passes.child_maxrss_kb / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Metrics


E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}


def end_to_end(passes: Passes, setup: list) -> dict:
    lat_ms = [t * 1000 for t in passes.latencies]
    values = {
        "ops_per_s": passes.ops_per_s,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": peak_rss_mb(passes),
        "setup_s": statistics.median(setup),
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def import_times() -> tuple:
    """Median cumulative import time of mbqcflow.cli and of numpy within it,
    from `python -X importtime` in fresh children."""
    cli, numpy_s = [], []
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for _ in range(IMPORT_TIME_CHILDREN):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mbqcflow.cli"],
                              env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        cli.append(cumulative["mbqcflow.cli"])
        numpy_s.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy_s)


# ---------------------------------------------------------------------------
# Entry points


def run_workload(args) -> int:
    import layers
    import workloads
    wl = workloads.WORKLOADS[args.workload](ROOT)
    env = environment()
    print("env " + json.dumps(env), flush=True)

    specs = wl.select(args.seed)
    setup_tracer = tracing.Tracer() if args.trace else tracing.NULL
    inputs = wl.build(specs, setup_tracer)
    setup = time_setup(args.workload, specs)

    first_of_kind = {}
    for inp in inputs:
        if inp.kind not in getattr(wl, "WARMUP_SKIP", ()):
            first_of_kind.setdefault(inp.kind, inp)
    warmup_inputs = list(first_of_kind.values())
    warm = run_passes(wl, warmup_inputs, tracing.NULL, 0.0, first_pass=-1)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(wl, inputs, tracing.NULL, budget,
                          min_passes=1 if args.trace else MIN_PASSES)
    traced = tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        traced = run_passes(wl, inputs, tracer, budget, first_pass=untraced.count)

    errors = warm.errors + untraced.errors + (traced.errors if traced else [])
    attempted = len(warm.latencies) + len(untraced.latencies) + (
        len(traced.latencies) if traced else 0)
    for kind, problem in errors[:20]:
        print(f"FAILED {kind}: {problem}", file=sys.stderr)

    print(f"{args.workload}: seed {args.seed}, {len(inputs)} ops per pass, "
          f"{untraced.count} untraced passes, {len(untraced.latencies)} timed ops, "
          f"{len(errors)} failed of {attempted} attempted", flush=True)
    for label, p in (("untraced", untraced), ("traced", traced)):
        if p:
            print(f"  {label} pass seconds: " + " ".join(f"{w:.3f}" for w in p.pass_walls))
    if args.trace:
        metrics = layers.metrics(wl, inputs, untraced, traced, tracer, setup_tracer,
                                 len(errors), attempted,
                                 import_times if wl.name == "cli" else None)
        write_trace(args, env, tracer, setup_tracer, metrics)
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    else:
        metrics = end_to_end(untraced, setup)
        samples = {"ops_per_s": f"{untraced.count} passes",
                   "latency_p50_ms": f"{len(untraced.latencies)} ops",
                   "latency_p90_ms": f"{len(untraced.latencies)} ops",
                   "peak_rss_mb": "one peak", "setup_s": f"{len(setup)} set-ups"}
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit} ({samples[name]})")
        print(f"  error_rate = {len(errors) / attempted:.6g} fraction "
              f"({len(errors)} failed of {attempted} attempted)")
    remove_workdir(wl)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def remove_workdir(wl) -> None:
    """Delete the files a workload's child processes wrote."""
    workdir = getattr(wl, "workdir", None)
    if workdir and os.path.isdir(workdir):
        shutil.rmtree(workdir)


def write_trace(args, env, tracer, setup_tracer, metrics) -> None:
    """Spans and metrics of the traced run, written once the run is over."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "metrics": metrics,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "setup_spans": setup_tracer.spans, "spans": tracer.spans}, fh)
    print(f"trace written to {os.path.relpath(path, ROOT)}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results.setdefault(name, {})["trace" if trace else "e2e"] = \
                json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    locate_package()
    if args.all:
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.setup_child:
        setup_child(args.workload)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
