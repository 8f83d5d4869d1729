"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.

The charging-bound battery (criterion 1) runs 100 random instances per problem
(k <= 40) with 20 sampled HSTs each; rent-or-buy style bounds use trees
extended to level -2, Steiner bounds use the base trees (their extended
optima are no smaller, so the extended-tree claim is implied).  The same
battery feeds the structural-guarantee tally (criterion 2) and the online
feasibility sweep (criterion 7).
"""

import importlib.util
import json
import math
import os
import sys

import numpy as np
import pytest

from conftest import (
    brute_tree_pcst,
    brute_tree_rob_multi,
    brute_tree_rob_single,
    brute_tree_sf,
    brute_tree_sn,
    client_load,
    cut_caps,
    extend_one,
    forest,
    line_metric,
    random_small_hst,
    tree_metagraph,
)
from ondesign.exact import dreyfus_wagner_st, exact_mrob, exact_sf, exact_srob
from ondesign.generators import gen_diamond_lb, gen_euclidean, gen_graph_metric, gen_requests
from ondesign.hst import Terminals, cut_load, sample_frt
from ondesign.metric import RequestRecord, RequestSequence, RunTrace, solution_cost
from ondesign.prize import check_pcst_run_invariants
from ondesign.rentorbuy import check_mrob_witnesses, check_srob_witnesses
from ondesign.cfl import check_cfl_invariants
from ondesign.steiner import check_class_separation, run_greedy_st
from ondesign.tree_opt import (
    opt_tree_pcst,
    opt_tree_rob_multi,
    opt_tree_rob_single,
    opt_tree_steiner_forest,
    opt_tree_steiner_network,
)
from ondesign.verify import embed_report, exact_optimum, run_problem, verify_run

RTOL = 1e-9
PROBLEMS = ["SteinerTree", "SteinerForest", "SteinerNetwork", "SROB", "MROB", "PCST", "CFL"]
M_CYCLE = [0.0, 1.0, 2.0, 3.5, 6.0, 10.0]


def announce(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _instance(problem, i):
    seed = (PROBLEMS.index(problem) + 1) * 100000 + i
    k = 4 + (i * 5) % 37  # k in [4, 40]
    count = k if problem in ("SteinerTree", "SROB", "PCST", "CFL") else max(1, k // 2)
    n = k + 1 + (i % 7)
    if i % 5 == 4:
        m = gen_graph_metric(n, density=0.25, seed=seed)
    else:
        m, _ = gen_euclidean(n, seed=seed)
    params = {
        "M": M_CYCLE[i % len(M_CYCLE)],
        "R_max": 1 + (i % 16),
        "n_facilities": 2 + (i % 5),
    }
    seq = gen_requests(problem, m, count, seed + 1, params)
    return m, seq, seed


@pytest.fixture(scope="module")
def battery():
    results = {}
    for problem in PROBLEMS:
        reports = []
        for i in range(100):
            m, seq, seed = _instance(problem, i)
            reports.append(verify_run(m, seq, trials=20, seed=seed))
        results[problem] = reports
    return results


def test_criterion_1_per_tree_charging_bounds(battery):
    bad = []
    worst = {}
    for problem, reports in battery.items():
        for rep in reports:
            if rep["tree_checks"]["fail"]:
                bad.append((problem, rep["seed"], rep["tree_checks"]["violations"][:2]))
            for name, val in rep["max_ratios"].items():
                key = f"{problem}.{name}"
                worst[key] = max(worst.get(key, 0.0), val)
            for name in ("cost_vs_share", "buyrent_vs_share", "share_identity"):
                if name in rep["checks"] and rep["checks"][name]["fail"]:
                    bad.append((problem, rep["seed"], name))
    detail = "; ".join(
        f"{k}={v:.2f}" for k, v in sorted(worst.items()) if k.endswith("share_vs_tree")
    )
    announce("1 per-tree charging bounds (100x20 per problem)", not bad,
             f"violations={len(bad)} worst shares: {detail}" + (f" first={bad[:2]}" if bad else ""))


def test_criterion_2_structural_lemmas(battery):
    structural = (
        "class_separation",
        "witness_disjointness",
        "pcst_run_invariants",
        "cfl_invariants",
        "cfl_cost_split",
        "bc_edge_property",
        "sn_decomposition",
        "greedy_replay",
    )
    fails = []
    for problem, reports in battery.items():
        for rep in reports:
            for name in structural:
                if name in rep["checks"] and rep["checks"][name]["fail"]:
                    fails.append((problem, rep["seed"], name))
    # Negative controls: every structural check must flag a forged trace.
    controls = _forged_controls()
    missed = [name for name, flagged in controls if not flagged]
    announce(
        "2 structural guarantee suite + negative controls",
        not fails and not missed,
        f"battery fails={len(fails)} controls missed={missed}",
    )


def _forged_controls():
    out = []
    m = line_metric([0, 5, 6])
    forged = RunTrace()
    forged.add(RequestRecord(idx=0, decision="buy", klass=1))
    forged.add(RequestRecord(idx=1, decision="buy", klass=1))
    tree_seq = RequestSequence(problem="SteinerTree", requests=(1, 2), root=0)
    out.append(("r-sep", bool(check_class_separation(m, tree_seq, forged))))

    m3 = line_metric([0, 1, 2])
    tri = RunTrace()
    tri.summary = {"forests": [{"copies": 1, "A": [[1, [[0, 1], [1, 2], [0, 2]]]],
                                "occ": [[0, 1], [1, 1], [2, 1]], "zero_merges": []}]}
    # level-1 carving radii are below 1: the level-1 cover is three singletons
    out.append(("metagraph", bool(tree_metagraph(sample_frt(Terminals(m3, [0, 1, 2]), seed=0), tri))))

    m4 = line_metric([0, 4, 5, 6])
    shared = RunTrace()
    shared.add(RequestRecord(idx=0, decision="rent", klass=2))
    shared.add(RequestRecord(idx=1, decision="buy", klass=2, witnesses=(0,)))
    shared.add(RequestRecord(idx=2, decision="buy", klass=2, witnesses=(0,)))
    srob = RequestSequence(problem="SROB", requests=(1, 2, 3), root=0, M=1.0)
    out.append(("witness-disjoint", bool(check_srob_witnesses(m4, srob, shared))))

    m5 = line_metric([0, 8])
    packed = RunTrace()
    for i in range(4):
        packed.add(RequestRecord(idx=i, decision="rent", klass=2))
    packed_seq = RequestSequence(problem="SROB", requests=(1,) * 4, root=0, M=3.0)
    t5 = extend_one(sample_frt(Terminals(m5, [0, 1]), seed=1))
    out.append(("cut-capacity", bool(cut_caps(packed_seq, packed, t5, 1))))

    mrob = RunTrace()
    mrob.add(RequestRecord(idx=0, decision="buy", klass=2, witnesses=(9,), witnesses_t=()))
    mrob_seq = RequestSequence(problem="MROB", requests=((0, 1),), M=2.0)
    out.append(("mrob-witness", bool(check_mrob_witnesses(m5, mrob_seq, mrob))))

    m7 = line_metric([0, 8, 16])
    bad_open = RunTrace()
    bad_open.summary = {"f_hat": [0]}
    bad_open.add(RequestRecord(idx=0, decision="buy", klass=3, attach=0, sigma_hat=2, opened=2))
    cfl7 = RequestSequence(problem="CFL", requests=(1,), root=0, M=1.0, facilities=((0, 0.0), (2, 1.0)))
    out.append(("cfl-foreign-facility", any("outside F_hat" in v for v in check_cfl_invariants(m7, cfl7, bad_open))))

    close = RunTrace()
    close.summary = {"f_hat": [0, 1]}
    close.add(RequestRecord(idx=0, decision="buy", klass=3, attach=0, sigma_hat=0))
    close.add(RequestRecord(idx=1, decision="buy", klass=3, attach=0, sigma_hat=0))
    m6 = line_metric([0, 1])
    cfl6 = RequestSequence(problem="CFL", requests=(0, 1), root=0, M=0.0, facilities=((0, 0.0), (1, 0.0)))
    out.append(("cfl-sep", any("buy clients" in v for v in check_cfl_invariants(m6, cfl6, close))))

    rho = RunTrace()
    rho.add(RequestRecord(idx=0, decision="penalty", klass=2, rho=5.0))
    pcst = RequestSequence(problem="PCST", requests=((1, 1.0),), root=0)
    viol = check_pcst_run_invariants(m5, pcst, rho)
    out.append(("pcst-rho", bool(viol)))
    return out


def test_criterion_3_tree_oracle_exactness():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(500):
        m, t = random_small_hst(rng)
        pts = list(t.terminals)
        pairs = [tuple(map(int, rng.choice(pts, size=2, replace=False)))
                 for _ in range(int(rng.integers(0, 5)))]
        reqs = [int(rng.integers(1, 9)) for _ in pairs]
        M = float(rng.choice([0.0, 1.0, 2.0, 3.5, 100.0]))
        r = int(pts[0])
        pen = [(int(p), float(rng.uniform(0, 8))) for p in pts if p != r]
        ok = (
            math.isclose(opt_tree_steiner_forest(forest([t]), pairs)[0], brute_tree_sf(t, pairs), rel_tol=RTOL, abs_tol=1e-12)
            and math.isclose(opt_tree_steiner_network(forest([t]), pairs, reqs)[0], brute_tree_sn(t, pairs, reqs), rel_tol=RTOL, abs_tol=1e-12)
            and math.isclose(opt_tree_rob_multi(forest([t]), cut_load(forest([t]), pairs), M)[0], brute_tree_rob_multi(t, pairs, M), rel_tol=RTOL, abs_tol=1e-12)
            and math.isclose(opt_tree_rob_single(forest([t]), r, M, client_load(t, r, pts))[0], brute_tree_rob_single(t, r, M, pts), rel_tol=RTOL, abs_tol=1e-12)
            and math.isclose(opt_tree_pcst(forest([t]), r, pen)[0], brute_tree_pcst(t, r, pen), rel_tol=RTOL, abs_tol=1e-12)
        )
        if not ok:
            announce("3 tree-oracle exactness", False, f"mismatch at trial {checked}")
        checked += 1
    announce("3 tree-oracle exactness", checked == 500, f"{checked} parameterizations, exact equality")


def test_criterion_4_offline_oracle_cross_checks():
    rng = np.random.default_rng(77)
    bad = 0
    for trial in range(25):
        n = int(rng.integers(3, 7))
        m, _ = gen_euclidean(n, seed=trial + 500)
        terms = sorted(set(int(x) for x in rng.integers(1, n, size=min(4, n - 1))))
        if dreyfus_wagner_st(m, set(terms) | {0}) != pytest.approx(exact_sf(m, [(p, 0) for p in terms])):
            bad += 1
        M = float(rng.choice([0.0, 1.0, 2.0, 7.0]))
        terms2 = [int(x) for x in rng.integers(1, n, size=int(rng.integers(1, 5)))]
        if exact_srob(m, 0, terms2, M) != pytest.approx(exact_mrob(m, [(p, 0) for p in terms2], M)):
            bad += 1
    announce("4 offline-oracle cross-checks", bad == 0, f"50 identities, {bad} mismatches")


def test_criterion_5_empirical_competitive_ratio():
    sizes = {
        "SteinerTree": [4, 6, 8, 10],
        "SteinerForest": [4, 6, 8, 10],
        "SteinerNetwork": [4],
        "SROB": [4, 6, 8, 10],
        "MROB": [4, 6],
        "PCST": [4, 6, 8, 10],
        "CFL": [4, 6, 8, 10],
    }
    rows = []
    worst = {}
    for problem, ks in sizes.items():
        for k in ks:
            for trial in range(6):
                seed = 9000 + k * 17 + trial
                count = k if problem in ("SteinerTree", "SROB", "PCST", "CFL") else k // 2
                if problem == "SteinerNetwork":
                    m, _ = gen_euclidean(4, seed=seed)
                    seq = gen_requests(problem, m, 2, seed, {"R_max": 3})
                else:
                    m, _ = gen_euclidean(k + 1, seed=seed)
                    seq = gen_requests(problem, m, count, seed, {"M": 2.0, "n_facilities": 3})
                sol, _ = run_problem(m, seq)
                cost = solution_cost(sol, seq, m).total
                opt = exact_optimum(m, seq)
                if opt <= 1e-12:
                    assert cost <= 1e-9
                    continue
                ratio = cost / opt
                rows.append((seq.k, ratio))
                envelope = 4 * (math.log2(seq.k) + 2)
                worst[problem] = max(worst.get(problem, 0.0), ratio)
                if ratio > envelope:
                    announce("5 empirical competitive ratio", False,
                             f"{problem} k={seq.k} ratio {ratio:.2f} > envelope {envelope:.2f}")
    num = sum(r * math.log2(k) for k, r in rows if k > 1)
    den = sum(math.log2(k) ** 2 for k, r in rows if k > 1)
    fitted = num / den if den else 0.0

    ratios = []
    for depth in range(1, 6):
        m, seq, info = gen_diamond_lb(depth)
        _, trace = run_greedy_st(m, seq)
        ratios.append(trace.total_cost() / info["opt"])
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    announce(
        "5 empirical competitive ratio",
        increasing,
        f"max per problem {({p: round(v, 2) for p, v in sorted(worst.items())})}, "
        f"fitted c={fitted:.2f}, diamond ratios {[round(r, 2) for r in ratios]}",
    )


def test_criterion_6_embedding_quality():
    rng = np.random.default_rng(606)
    invalid = 0
    trees = 0
    for trial in range(1800):
        k = int(rng.integers(2, 14))
        m, _ = gen_euclidean(k, seed=trial + 31337)
        from ondesign.hst import validate_hst

        t = sample_frt(Terminals(m, range(k)), int(rng.integers(0, 2**60)))
        trees += 1
        if validate_hst([t], m).messages[0]:
            invalid += 1
    m32, _ = gen_euclidean(32, seed=999)
    rep = embed_report(m32, range(32), trials=200, seed=4)
    trees += rep["trials"]
    invalid += rep["invalid_trees"]
    bound = 8 * math.log(32)
    ok = invalid == 0 and trees >= 2000 and rep["max_mean_stretch"] <= bound
    announce(
        "6 embedding quality",
        ok,
        f"{trees} trees, invalid={invalid}, max mean stretch {rep['max_mean_stretch']:.2f} <= {bound:.2f}",
    )


def test_criterion_7_online_feasibility(battery):
    bad = []
    for problem, reports in battery.items():
        for rep in reports:
            if rep["checks"]["online_feasibility"]["fail"] or rep["checks"]["cost_consistency"]["fail"]:
                bad.append((problem, rep["seed"]))
    announce("7 online feasibility at every prefix", not bad, f"failures={bad[:3]}")


def test_battery_reports_match_the_benchmark_digests(battery):
    # The benchmark's `battery` workload at its default seed is this
    # battery's first BATTERY_SLICE instances per problem: their reports must
    # hash to the digests recorded in perfbench/digests.json (read only), so a
    # change of report bytes fails here, not only at the benchmark's gate.
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(bench, "workloads.py"))
    wl = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up there
    spec.loader.exec_module(wl)
    with open(os.path.join(bench, "digests.json")) as fh:
        recorded = json.load(fh)["battery"]["reports"]
    assert wl.PROBLEMS == PROBLEMS and len(recorded) == len(PROBLEMS) * wl.BATTERY_SLICE
    digests = [wl.report_digest(rep) for problem in PROBLEMS for rep in battery[problem][:wl.BATTERY_SLICE]]
    changed = [f"{problem}/i={i}" for n, (problem, i) in enumerate((p, i) for p in PROBLEMS for i in range(wl.BATTERY_SLICE))
               if digests[n] != recorded[n]]
    assert not changed, f"{len(changed)} reports differ from the recorded digests, first {changed[:3]}"


def test_criterion_8_determinism():
    m, _ = gen_euclidean(16, seed=88)
    seq = gen_requests("MROB", m, 8, 88, {"M": 2.0})
    reports = [json.dumps(verify_run(m, seq, trials=10, seed=5), sort_keys=True) for _ in range(3)]
    same = reports[0] == reports[1] == reports[2]
    m2, seq2, _ = gen_diamond_lb(3)
    a = json.dumps(verify_run(m2, seq2, trials=5, seed=9), sort_keys=True)
    b = json.dumps(verify_run(m2, seq2, trials=5, seed=9), sort_keys=True)
    announce("8 determinism (three repeated runs)", same and a == b, "byte-identical reports")
