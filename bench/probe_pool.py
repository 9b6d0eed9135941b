"""Write probe_pool.json: the instance seeds the pauli-probe workload draws from.

    python3 bench/probe_pool.py

For every pauli-probe shape and plane count it walks generate_instance
seeds from 0 and keeps the first POOL_SIZE that the brute-force oracle
proves to have a flow.  The pool is fixed and committed, so the op set of a
run never depends on the flow search being measured; a run seed samples
its quota from each stratum.  Rerun this script when generate_instance or
the workload's shapes change.
"""

from __future__ import annotations

import json
import os
import sys

import run

POOL_SIZE = 36  # at least four times the largest quota of any stratum


def build_pool() -> dict:
    import workloads
    from mbqcflow import find_pauli_flow_bruteforce
    probe = workloads.PauliProbe
    pool = {}
    for shape, quota in probe.QUOTAS.items():
        strata = {k: [] for k in quota}
        seed = 0
        while any(len(seeds) < POOL_SIZE for seeds in strata.values()):
            og = workloads.try_generate(probe.spec(*shape, seed))
            k = probe.planes(og) if og is not None else None
            if k in strata and len(strata[k]) < POOL_SIZE:
                ic = bin(og.non_inputs).count("1")
                if find_pauli_flow_bruteforce(og, ic_bound=ic).found:
                    strata[k].append(seed)
            seed += 1
        pool[probe.shape_key(shape)] = {str(k): seeds for k, seeds in strata.items()}
        print(f"{shape}: {seed} seeds walked", file=sys.stderr, flush=True)
    return pool


def main() -> int:
    run.pin_blas_threads()
    run.locate_package()
    pool = build_pool()
    with open(os.path.join(run.BENCH_DIR, "probe_pool.json"), "w") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
