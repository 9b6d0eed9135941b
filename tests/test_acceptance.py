"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line;
the assertions make the suite fail whenever a criterion does.
"""

import json
import time
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest
from click.testing import CliRunner

from mbqcflow.cli import main as cli_main
from mbqcflow.flows import (CorrectionFlow, PartialOrder, verify_pauli_flow,
                            verify_pauli_flow_original, verify_real_pauli_flow)
from mbqcflow.gf2 import mask_of, members, row_space_equal
from mbqcflow.graphs import Graph, MeasurementLabel, OpenGraph
from mbqcflow.instances import InstanceSpec, generate_instance
from mbqcflow.patterns import (Angle, Mbqc, PI_ANGLE, ZERO_ANGLE, parse,
                               pattern_from_json, pattern_to_json,
                               print_pattern, to_pattern, validate)
from mbqcflow.search import find_pauli_flow, find_pauli_flow_bruteforce
from mbqcflow.stabilizer import initial_stabilizers, measurement_operator
from mbqcflow.statevec import (branches_complete, check_robust_deterministic,
                               run_pattern)
from mbqcflow.synthesis import (bipartite_normal_form, completed_order,
                                normal_form_equations_hold, parallelize,
                                strategy_order, synthesize_corrections)

from oracles import pauli_runs, reorder_generators, state_distance
from strategy_search import refute_all_strategies

L = MeasurementLabel
TOL = 1e-9


def report(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def random_angles(og: OpenGraph, rng: np.random.Generator):
    """Random exact angles at single-axis labels, random reals at planes."""
    out = {}
    for u, lab in sorted(og.labels.items()):
        if lab.is_pauli:
            out[u] = PI_ANGLE if rng.integers(2) else ZERO_ANGLE
        else:
            out[u] = Angle.from_radians(float(rng.uniform(0, 2 * np.pi)))
    return out


# ---------------------------------------------------------------------------
# Criterion 1: the simplified per-axis checker and the literal nine-condition
# checker agree on every open graph with at most 4 vertices and at most 3
# labelled vertices, over every candidate correction map and every strict
# partial order of the labelled vertices.
#
# Both checkers factor over the labelled vertices: the verdict is a
# conjunction of per-vertex predicates, each depending on one p(w) only, so
# the full candidate space is compared through per-vertex condition tables
# broadcast into verdict tensors.  The input set only enters either checker
# through the shared well-formedness guard p(u) & I == 0, so checking the
# empty input set (the largest candidate space) covers every input set.
# The tables are cross-validated against direct calls of both checkers on
# sampled candidate tuples.


LABELS6 = (L.X, L.Y, L.Z, L.XY, L.YZ, L.XZ)


def strict_orders(elems):
    """Every transitively closed irreflexive relation on elems."""
    pairs = [(a, b) for a in elems for b in elems if a != b]
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if (bits >> i) & 1}
        ok = True
        for (a, b) in rel:
            for (b2, c) in rel:
                if b2 == b and (a == c or (a, c) not in rel):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(rel)
    return out


def _label_products(measured, depth=0):
    if depth == len(measured):
        yield {}
        return
    for rest in _label_products(measured, depth + 1):
        for lab in LABELS6:
            yield {measured[depth]: lab, **rest}


def _slot_tables(n, bit_c, bit_odd, bit_codd, measured, labels, less):
    """(simplified, original) boolean table per slot over all candidates."""
    axis_bit = {"X": bit_odd, "Y": bit_codd, "Z": bit_c}
    s_cols, t_cols = [], []
    for w in measured:
        s = np.ones(1 << n, dtype=bool)
        for a in labels[w].axes:
            s &= axis_bit[a][w]
        for u in measured:
            if u == w or (w, u) in less:
                continue
            for a in labels[u].axes:
                s &= ~axis_bit[a][u]
        t = np.ones(1 << n, dtype=bool)
        for v in measured:
            if v == w:
                continue
            lv = labels[v]
            v_le_w = (w, v) not in less
            if v_le_w and lv not in (L.X, L.Y):
                t &= ~bit_c[v]
            if v_le_w and lv not in (L.Y, L.Z):
                t &= ~bit_odd[v]
            if v_le_w and lv is L.Y:
                t &= ~(bit_c[v] ^ bit_odd[v])
        lw, in_p, in_o = labels[w], bit_c[w], bit_odd[w]
        t &= {L.XY: ~in_p & in_o, L.XZ: in_p & in_o, L.YZ: in_p & ~in_o,
              L.X: in_o, L.Z: in_p, L.Y: in_p ^ in_o}[lw]
        s_cols.append(s)
        t_cols.append(t)
    return s_cols, t_cols


def _tensor(cols):
    v = cols[0]
    for a in cols[1:]:
        v = v[..., None] & a
    return v


def test_criterion_1_checker_equivalence():
    order_counts = {m: len(strict_orders(tuple(range(m)))) for m in (1, 2, 3)}
    assert order_counts == {1: 1, 2: 3, 3: 19}
    configs = 0
    sampled = 0
    mismatches = []
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        vertex_pairs = list(combinations(range(n), 2))
        candidates = np.arange(1 << n)
        for edge_bits in range(1 << len(vertex_pairs)):
            edges = [vertex_pairs[i] for i in range(len(vertex_pairs))
                     if (edge_bits >> i) & 1]
            graph = Graph.from_edges(n, edges)
            odd = np.zeros(1 << n, dtype=np.int64)
            for c in range(1, 1 << n):
                low = c & -c
                odd[c] = odd[c ^ low] ^ graph.adjacency[low.bit_length() - 1]
            codd = odd ^ candidates
            bit_c = [((candidates >> v) & 1).astype(bool) for v in range(n)]
            bit_odd = [((odd >> v) & 1).astype(bool) for v in range(n)]
            bit_codd = [((codd >> v) & 1).astype(bool) for v in range(n)]
            for m in range(1, min(3, n) + 1):
                for measured in combinations(range(n), m):
                    orders = strict_orders(measured)
                    for labels in _label_products(measured):
                        for rel in orders:
                            s_cols, t_cols = _slot_tables(
                                n, bit_c, bit_odd, bit_codd, measured,
                                labels, rel)
                            vs = _tensor(s_cols)
                            vt = _tensor(t_cols)
                            configs += 1
                            if not np.array_equal(vs, vt):
                                mismatches.append((n, edges, measured,
                                                   labels, rel))
                                continue
                            if configs % 997 == 0:
                                idx = tuple(int(rng.integers(1 << n))
                                            for _ in measured)
                                og = OpenGraph(graph, 0,
                                               ((1 << n) - 1)
                                               & ~mask_of(measured), labels)
                                f = CorrectionFlow(
                                    dict(zip(measured, idx)),
                                    PartialOrder.from_pairs(n, sorted(rel)))
                                direct_s = bool(verify_pauli_flow(og, f))
                                direct_t = bool(
                                    verify_pauli_flow_original(og, f))
                                assert direct_s == bool(vs[idx])
                                assert direct_t == bool(vt[idx])
                                sampled += 1
    ok = not mismatches
    report(1, ok, f"{configs} configurations, zero tolerance, "
                  f"{sampled} sampled direct cross-checks")
    assert ok, mismatches[:5]


# ---------------------------------------------------------------------------
# Criterion 2: strategies synthesized from brute-forced flows are robustly
# deterministic on at least 200 random instances (n <= 6), 20 angle samples
# per truncation, tolerance 1e-9, zero failures.  Brute-forced flows carry a
# total measurement order, which is exactly the order the dropped corrections
# refer to.


def test_criterion_2_synthesized_robust():
    specs = [(3, 1, 1, 0.5), (4, 1, 1, 0.5), (4, 1, 2, 0.5), (5, 1, 2, 0.5),
             (5, 2, 2, 0.4), (6, 1, 2, 0.4), (6, 1, 3, 0.5)]
    rng = np.random.default_rng(2)
    checked = 0
    failures = []
    seed = 0
    while checked < 200 and seed < 4000:
        n, ni, no, ep = specs[seed % len(specs)]
        og = generate_instance(InstanceSpec(
            n=n, seed=seed, n_inputs=ni, n_outputs=no, edge_probability=ep,
            reject_input_z=True))
        seed += 1
        r = find_pauli_flow_bruteforce(og)
        if not r.found:
            continue
        m = Mbqc(og, random_angles(og, rng),
                 synthesize_corrections(og, r.flow))
        res = check_robust_deterministic(m, angle_samples=20, seed=seed,
                                         tol=TOL, order=r.flow.order)
        checked += 1
        if not res["ok"]:
            failures.append((seed - 1, res["failure"]))
    ok = checked >= 200 and not failures
    report(2, ok, f"{checked} flow instances robust at 1e-9, "
                  f"{len(failures)} failures")
    assert ok, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 3: on every real open graph with n <= 4 (up to vertex
# relabelling) without a Pauli flow, no extensive correction strategy is
# robustly deterministic.  The strategy space is covered exhaustively by the
# refuter in strategy_search, which kills every linear measurement order via
# the exact-Pauli-instantiation probe conditions.


REAL_CODES = {1: "X", 2: "Z", 3: "XZ"}


def _canonical_tables(n):
    vertex_pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(vertex_pairs)}
    perms = list(permutations(range(n)))
    edge_maps = []
    vertex_maps = []
    for perm in perms:
        emap = [0] * (1 << len(vertex_pairs))
        for bits in range(1 << len(vertex_pairs)):
            out = 0
            for i in range(len(vertex_pairs)):
                if (bits >> i) & 1:
                    a, b = vertex_pairs[i]
                    out |= 1 << pair_index[tuple(sorted((perm[a], perm[b])))]
            emap[bits] = out
        vmap = [0] * (1 << n)
        for mask in range(1 << n):
            vmap[mask] = mask_of(perm[v] for v in members(mask))
        edge_maps.append(emap)
        vertex_maps.append(vmap)
    return perms, vertex_pairs, edge_maps, vertex_maps


def test_criterion_3_no_flow_means_no_strategy():
    survivors = []
    classes = 0
    flowless = 0
    for n in range(1, 5):
        perms, vertex_pairs, edge_maps, vertex_maps = _canonical_tables(n)
        seen = set()
        for edge_bits in range(1 << len(vertex_pairs)):
            graph = None
            for inputs in range(1 << n):
                for label_code in range(1 << (2 * n)):
                    codes = [(label_code >> (2 * v)) & 3 for v in range(n)]
                    key = min(
                        (edge_maps[k][edge_bits], vertex_maps[k][inputs],
                         sum(codes[v] << (2 * perms[k][v]) for v in range(n)))
                        for k in range(len(perms)))
                    if key in seen:
                        continue
                    seen.add(key)
                    classes += 1
                    labels = {v: L.from_string(REAL_CODES[c])
                              for v, c in enumerate(codes) if c}
                    if not labels:
                        continue  # nothing measured: trivially has a flow
                    if graph is None:
                        graph = Graph.from_edges(
                            n, [vertex_pairs[i]
                                for i in range(len(vertex_pairs))
                                if (edge_bits >> i) & 1])
                    og = OpenGraph(graph, inputs,
                                   ((1 << n) - 1) & ~mask_of(labels), labels)
                    if find_pauli_flow_bruteforce(og).found:
                        continue
                    flowless += 1
                    witness = refute_all_strategies(og)
                    if witness is not None:
                        survivors.append((n, edge_bits, inputs, codes,
                                          witness))
            graph = None
    ok = not survivors
    report(3, ok, f"{classes} instance classes, {flowless} without a flow, "
                  f"{len(survivors)} unrefuted")
    assert ok, survivors[:5]


# ---------------------------------------------------------------------------
# Criterion 4: the bundled counterexample walkthrough runs all its checks in
# under a second and every leg passes.


def test_criterion_4_counterexamples_cli():
    runner = CliRunner()
    start = time.perf_counter()
    res = runner.invoke(cli_main, ["counterexamples", "--json"])
    elapsed = time.perf_counter() - start
    ok = res.exit_code == 0 and elapsed < 1.0
    legs = 0
    if ok:
        doc = json.loads(res.output)
        ok = doc["ok"] and len(doc["instances"]) == 2
        for entry in doc["instances"]:
            legs += len(entry["legs"])
            ok = ok and all(entry["legs"].values())
    report(4, ok, f"{legs} legs")
    assert ok, f"{elapsed:.3f}s: {res.output}"


# ---------------------------------------------------------------------------
# Criteria 5 and 6 share a pool of at least 200 random bipartite real
# instances (n <= 10) that admit a flow.


@lru_cache(maxsize=1)
def bipartite_flow_pool():
    specs = [(4, 1, 2, 0.5), (5, 1, 2, 0.5), (5, 1, 3, 0.4), (6, 1, 3, 0.5),
             (6, 2, 3, 0.4), (7, 1, 3, 0.4), (8, 1, 4, 0.35), (9, 1, 4, 0.3),
             (10, 1, 5, 0.3)]
    pool = []
    seed = 0
    while len(pool) < 200 and seed < 20000:
        n, ni, no, ep = specs[seed % len(specs)]
        try:
            og = generate_instance(InstanceSpec(
                n=n, seed=seed, n_inputs=ni, n_outputs=no,
                edge_probability=ep, bipartite=True,
                labels=("X", "Z", "XZ"), reject_input_z=True))
        except Exception:
            seed += 1
            continue
        seed += 1
        r = find_pauli_flow(og)
        if r.found and verify_real_pauli_flow(og, r.flow):
            pool.append((og, r.flow))
    return pool


def test_criterion_5_normal_form_equations():
    failures = []
    sizes = set()
    pool = bipartite_flow_pool()
    for i, (og, flow) in enumerate(pool):
        sizes.add(og.n)
        p = bipartite_normal_form(og, flow)
        if not normal_form_equations_hold(og, p):
            failures.append((i, "set equations"))
            continue
        depth_one = CorrectionFlow(p, PartialOrder.empty(og.n))
        if not verify_real_pauli_flow(og, depth_one):
            failures.append((i, "empty-order flow invalid"))
    ok = len(pool) >= 200 and not failures
    report(5, ok, f"{len(pool)} bipartite flow instances "
                  f"(sizes {sorted(sizes)}), exact equations, "
                  f"{len(failures)} failures")
    assert ok, failures[:5]


def _branch_maps_match(pat_a, pat_b, tol):
    maps_a = {frozenset(b.outcomes.items()): b.state
              for b in run_pattern(pat_a)}
    maps_b = {frozenset(b.outcomes.items()): b.state
              for b in run_pattern(pat_b)}
    if set(maps_a) != set(maps_b):
        return False
    for key, a in maps_a.items():
        b = maps_b[key]
        inner = np.vdot(a, b)
        if abs(inner) < tol:
            if np.linalg.norm(a) > tol or np.linalg.norm(b) > tol:
                return False
            continue
        phase = inner / abs(inner)
        if np.linalg.norm(b - phase * a) > tol:
            return False
    return True


def test_criterion_6_parallelized_depth_one():
    failures = []
    rng = np.random.default_rng(6)
    pool = bipartite_flow_pool()
    for i, (og, flow) in enumerate(pool):
        p = bipartite_normal_form(og, flow)
        strat = parallelize(og, p)
        if any(strat.targets(u) & ~og.outputs for u in strat.x):
            failures.append((i, "non-output correction target"))
            continue
        if any(strategy_order(strat, og).succ):
            failures.append((i, "induced order not empty"))
            continue
        angles = random_angles(og, rng)
        original = Mbqc(og, angles, synthesize_corrections(og, flow))
        flat = Mbqc(og, angles, strat)
        if not _branch_maps_match(to_pattern(original, completed_order(og, flow)),
                                  to_pattern(flat), TOL):
            failures.append((i, "branch maps differ"))
    ok = len(pool) >= 200 and not failures
    report(6, ok, f"{len(pool)} parallelized instances at depth 1, "
                  f"branch maps within 1e-9, {len(failures)} failures")
    assert ok, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 7: on at least 100 all-Pauli instances (n <= 10) the stabilizer
# branch runs agree with the dense simulator within 1e-9 per branch, and the
# generator reordering keeps the group (exact row space) while leaving at
# most the diagonal generator anticommuting with each measurement.


def test_criterion_7_stabilizer_agreement():
    specs = [(4, 1, 2, 0.5), (5, 1, 2, 0.5), (6, 1, 2, 0.4), (7, 1, 3, 0.4),
             (8, 1, 3, 0.35), (9, 1, 4, 0.3), (10, 1, 4, 0.3)]
    rng = np.random.default_rng(7)
    checked = 0
    failures = []
    seed = 0
    while checked < 100 and seed < 6000:
        n, ni, no, ep = specs[seed % len(specs)]
        og = generate_instance(InstanceSpec(
            n=n, seed=seed + 70000, n_inputs=ni, n_outputs=no,
            edge_probability=ep, labels=("X", "Y", "Z"),
            reject_input_z=True))
        seed += 1
        r = find_pauli_flow(og)
        if not r.found:
            continue
        m = Mbqc(og, random_angles(og, rng),
                 synthesize_corrections(og, r.flow))
        pat = to_pattern(m, completed_order(og, r.flow))
        k = og.inputs.bit_count()
        plus = np.full((1 << k, 1), 2 ** (-k / 2), dtype=complex)
        sv = {frozenset(b.outcomes.items()): b.state[:, 0]
              for b in run_pattern(pat, input_state=plus, keep_measured=True)}
        stab = pauli_runs(m, 0)
        checked += 1
        for outcomes, state in stab:
            psi = sv.pop(frozenset(outcomes.items()))
            norm = np.linalg.norm(psi)
            if norm < 1e-12 or state_distance(psi / norm, state) >= TOL:
                failures.append((seed - 1, outcomes, "state mismatch"))
                break
        else:
            if any(np.linalg.norm(psi) > TOL for psi in sv.values()):
                failures.append((seed - 1, None, "extra dense branch"))
        # generator reordering contract on the same instance
        obs = [measurement_operator(og.labels[u], m.angles[u], u)
               for u in sorted(og.labels)]
        state0 = initial_stabilizers(og, 0)
        re = reorder_generators(state0, obs)
        rows0 = [g.x | (g.z << og.n) for g in state0.generators]
        rows1 = [g.x | (g.z << og.n) for g in re.generators]
        if not row_space_equal(rows0, rows1):
            failures.append((seed - 1, None, "row space changed"))
        for i, mm in enumerate(obs):
            anti = [j for j in range(i, og.n)
                    if not re.generators[j].commutes(mm)]
            if anti not in ([], [i]):
                failures.append((seed - 1, i, "reorder contract"))
                break
    ok = checked >= 100 and not failures
    report(7, ok, f"{checked} all-Pauli instances, per-branch distance "
                  f"< 1e-9, exact reorder contract, "
                  f"{len(failures)} failures")
    assert ok, failures[:5]


# ---------------------------------------------------------------------------
# Criterion 8: every generated valid pattern resolves the identity (sum of
# A_s^dagger A_s within 1e-9) and survives text and JSON round-trips exactly.


def test_criterion_8_pattern_contracts():
    specs = [(3, 1, 1, 0.5), (4, 1, 2, 0.5), (5, 1, 2, 0.5), (5, 2, 2, 0.4),
             (6, 1, 3, 0.5)]
    rng = np.random.default_rng(8)
    patterns = []
    seed = 0
    while len(patterns) < 60 and seed < 1500:
        n, ni, no, ep = specs[seed % len(specs)]
        og = generate_instance(InstanceSpec(
            n=n, seed=seed + 80000, n_inputs=ni, n_outputs=no,
            edge_probability=ep, reject_input_z=True))
        seed += 1
        r = find_pauli_flow_bruteforce(og)
        if not r.found:
            continue
        m = Mbqc(og, random_angles(og, rng),
                 synthesize_corrections(og, r.flow))
        patterns.append(to_pattern(m, r.flow.order))
    failures = []
    for i, pat in enumerate(patterns):
        if not validate(pat):
            failures.append((i, "invalid"))
            continue
        if not branches_complete(run_pattern(pat), tol=TOL):
            failures.append((i, "branch maps do not resolve the identity"))
        if parse(print_pattern(pat)) != pat:
            failures.append((i, "text round-trip"))
        if pattern_from_json(json.loads(json.dumps(pattern_to_json(pat)))) != pat:
            failures.append((i, "json round-trip"))
    ok = len(patterns) >= 60 and not failures
    report(8, ok, f"{len(patterns)} patterns, completeness at 1e-9, "
                  f"exact round-trips, {len(failures)} failures")
    assert ok, failures[:5]
