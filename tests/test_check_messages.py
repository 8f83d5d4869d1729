"""Every violation message of the per-run and solution checks fires.

Each case builds a small instance, takes the algorithm's own run and tampers
with it in one place: a forged trace replayed through verify_run (run checks
only, no trees), or a tampered trace or solution passed to per_run_checks
(cost consistency, feasibility and the solution checks, which only an own
run gets).  The case's check must then report a message matching its
template.  Each per-tree bound of each problem fires on a forged replay
too; the per-tree cut and cover messages are fired in test_forged_replays.py.
A sampled tree that fails validation reports `invalid tree: ...`.
"""

import dataclasses
import re

import pytest

from ondesign.hst import Hst
from ondesign.metric import MultiGraphSolution, RequestRecord, RunTrace, instance_from_dict
from ondesign.verify import per_run_checks, run_problem, verify_run


def _line(*xs):
    return [[float(x), 0.0] for x in xs]


ST = {"points": _line(0, 5, 6), "problem": "SteinerTree", "root": 0, "requests": [1, 2]}
SF = {"points": _line(0, 1, 2), "problem": "SteinerForest", "requests": [[0, 2]]}
SN = {"points": _line(0, 1, 3), "problem": "SteinerNetwork", "requests": [[0, 1, 2], [1, 2, 1]]}
SROB = {"points": _line(0, 4, 5, 6), "problem": "SROB", "root": 0, "M": 1.0, "requests": [1, 2, 3]}
# point 2 at 32 is a client, facility 3 at 33 costs 1; the root facility is point 0
CFL = {"points": _line(0, 1, 32, 33), "problem": "CFL", "root": 0, "M": 1.0, "requests": [2, 3],
       "facilities": [{"point": 0, "cost": 0.0}, {"point": 3, "cost": 1.0}]}
# clients at points 2-4 (20-21); facility 1 at 10 costs 5.  Forged replays below
# open point 4, a client's point, or attach clients to facility 1, which no buy built
CFL_FORGED = {"points": _line(0, 10, 20, 20.5, 21, 30), "problem": "CFL", "root": 0, "M": 1.0,
              "requests": [2, 3, 4, 2, 3, 4], "facilities": [{"point": 0, "cost": 0.0}, {"point": 1, "cost": 5.0}]}
# client 2 at 2 (after scaling), the root facility 0 and a free facility 3 at 10
CFL_FREE = {"points": [[0], [10], [20], [100]], "problem": "CFL", "root": 0, "M": 1.0, "requests": [2],
            "facilities": [{"point": 0, "cost": 0.0}, {"point": 3, "cost": 0.0}]}
PCST = {"points": _line(0, 1, 5, 9), "problem": "PCST", "root": 0, "requests": [[1, 0.5], [2, 0.5], [3, 0.5]]}


def _records(trace, **change_by_idx):
    """trace's records, record i updated with change_by_idx[f"r{i}"]."""
    return [dataclasses.replace(r, **change_by_idx.get(f"r{r.idx}", {})) for r in trace.records]


def _forest(trace, **change):
    return {"forests": [{**trace.summary["forests"][0], **change}]}


def _cfl_buy(idx, klass, **kw):
    """A CFL buy record of request idx; it attached to the root facility 0
    unless kw says otherwise."""
    return RequestRecord(idx=idx, decision="buy", klass=klass, **{"attach": 0, **kw})


def _client_as_facility(trace):
    """Client 0 rents, client 1 buys and opens point 4, a client's point, and the rest attach there."""
    rent = RequestRecord(idx=0, decision="rent", klass=5, attach=0, sigma_hat=1)
    buy = _cfl_buy(1, 5, witnesses=(0,), sigma_hat=4, opened=4)
    rest = [RequestRecord(idx=i, decision="virtual", attach=4, sigma_hat=4) for i in range(2, 6)]
    return RunTrace([rent, buy, *rest], {"f_hat": [0, 4]})


def _attach_unbuilt(trace):
    return RunTrace([RequestRecord(idx=i, decision="virtual", attach=1, sigma_hat=1) for i in range(6)],
                    {"f_hat": [0, 1]})


# (doc, check, forge(trace) -> forged RunTrace, message pattern)
FORGED = {
    "share_identity": (
        ST, "share_identity", lambda tr: RunTrace(_records(tr, r0={"cost": 50.0})),
        r"sum a_i = 51 > share 10"),
    "class_separation": (
        ST, "class_separation",
        lambda tr: RunTrace(_records(tr, r0={"klass": 1, "decision": "buy"}, r1={"klass": 1, "decision": "buy"})),
        r"class 1: requests 0,1 at distance 1 < 2\^1"),
    "edge too long": (
        SF, "bc_edge_property", lambda tr: RunTrace(tr.records, _forest(tr, A=[[0, [[0, 2]]]])),
        r"level 0: edge \(0,2\) too long"),
    "endpoint class below": (
        SF, "bc_edge_property", lambda tr: RunTrace(tr.records, _forest(tr, occ=[[0, 0], [2, 0]])),
        r"level 1: edge \(0,2\) endpoint class below 1"),
    "cost vs share": (
        SROB, "cost_vs_share", lambda tr: RunTrace(_records(tr, r0={"cost": 40.0})),
        r"cost 46 > 2 \* share 10"),
    "witnesses too few": (
        SROB, "witness_disjointness", lambda tr: RunTrace(_records(tr, r1={"witnesses": ()})),
        r"class 2: buy request 1 has \|W\|=0 < M=1\.0"),
    "witness not a rent": (
        SROB, "witness_disjointness", lambda tr: RunTrace(_records(tr, r1={"witnesses": (2,)})),
        r"class 2: witness 2 of request 1 is not a class-2 rent"),
    "shared witnesses": (
        SROB, "witness_disjointness",
        lambda tr: RunTrace(_records(tr, r2={"decision": "buy", "klass": 2, "witnesses": (0,)})),
        r"class 2: buys 1,2 share witnesses \[0\]"),
    "cfl buy clients close": (
        CFL, "cfl_invariants",
        lambda tr: RunTrace([_cfl_buy(0, 5, sigma_hat=3), _cfl_buy(1, 5, sigma_hat=3)], {"f_hat": [0, 3]}),
        r"class 5: buy clients 0,1 at 1 < 2\^4"),
    "cfl c(H)": (  # client 0 at 32 attached to facility 3 at 33, but opened the root
        CFL, "cfl_invariants",
        lambda tr: RunTrace([_cfl_buy(0, 0, sigma_hat=3, opened=0, attach=3)], {"f_hat": [0, 3]}),
        r"c\(H\)=33 > sum 2 a_z = 2"),
    "cfl buy mass": (
        CFL, "cfl_invariants", lambda tr: RunTrace([_cfl_buy(0, 5, sigma_hat=3)], {"f_hat": [0, 3]}),
        r"sum M a_z = 32 > share 0"),
    "cfl opened outside F_hat": (
        CFL, "cfl_invariants",
        lambda tr: RunTrace([_cfl_buy(0, 5, sigma_hat=3, opened=3)], {"f_hat": [0]}),
        r"opened facilities \[3\] outside F_hat"),
    "cfl sigma_hat far": (
        CFL, "cfl_invariants", lambda tr: RunTrace([_cfl_buy(0, 5, sigma_hat=0)], {"f_hat": [0]}),
        r"buy client 0: d\(z, sigma_hat\)=32 >= a/4=8"),
    "cfl F_hat not facilities": (
        CFL_FORGED, "cfl_invariants", _client_as_facility, r"F_hat points \[4\] are not facilities"),
    "cfl sigma_hat outside F_hat": (
        CFL_FORGED, "cfl_invariants", _client_as_facility, r"client 0: sigma_hat 1 outside F_hat"),
    "cfl attach not built": (
        CFL_FORGED, "cfl_invariants", _attach_unbuilt, r"client 0: attach 1 not in F' at its arrival"),
    "cfl virtual cost": (  # a virtual client's cost raised to what 4 d(z, sigma_hat) credits
        CFL_FREE, "cfl_invariants", lambda tr: RunTrace(_records(tr, r0={"cost": 30.0, "sigma_hat": 3}), tr.summary),
        r"client 0: virtual cost 30 != d\(i, attach\)=2"),
    "cfl rent cost": (
        CFL, "cfl_invariants",
        lambda tr: RunTrace([RequestRecord(idx=0, decision="rent", klass=0, cost=100.0, attach=0, sigma_hat=0)],
                            tr.summary),
        r"client 0: rent cost 100 != d\(i, attach\)=32"),
    "cfl cost split": (
        CFL, "cfl_cost_split",
        lambda tr: RunTrace(_records(tr, r0={"decision": "virtual", "cost": 100.0}), tr.summary),
        r"cost split: 101 > virtual budget 5"),
    "buyrent vs share": (
        CFL, "buyrent_vs_share",
        lambda tr: RunTrace([RequestRecord(idx=0, decision="rent", klass=0, cost=100.0)], tr.summary),
        r"M c\(H\) \+ rents = 100 > 3 \* share 2"),
    "pcst total cost": (
        PCST, "pcst_run_invariants", lambda tr: RunTrace(_records(tr, r0={"cost": 10.0})),
        r"total cost 11 > 2 \* sum\(rho\) = 3"),
    "pcst rho over pi": (
        PCST, "pcst_run_invariants", lambda tr: RunTrace(_records(tr, r2={"rho": 4.0})),
        r"request 2: rho 4 > pi 0\.5"),
}


@pytest.mark.parametrize("doc, check, forge, pattern", FORGED.values(), ids=FORGED.keys())
def test_forged_trace_fires(doc, check, forge, pattern):
    m, seq = instance_from_dict(doc)
    _, trace = run_problem(m, seq)
    assert verify_run(m, seq, trials=0, forged_trace=trace)["violations"] == 0
    found = verify_run(m, seq, trials=0, forged_trace=forge(trace))["checks"][check]["violations"]
    assert any(re.fullmatch(pattern, v) for v in found), found


def test_cfl_virtual_cost_is_derived_from_attach():
    # the forged cost stays within the cost split's budget 4 d(z, sigma_hat) = 32,
    # so only the derived cost d(z, attach) = 2 tells it from the run
    m, seq = instance_from_dict(CFL_FREE)
    _, trace = run_problem(m, seq)
    assert [(r.decision, r.cost, r.attach) for r in trace.records] == [("virtual", 2.0, 0)]
    report = verify_run(m, seq, trials=3, forged_trace=RunTrace(
        _records(trace, r0={"cost": 30.0, "sigma_hat": 3}), trace.summary))
    assert report["cost"]["total"] == 30.0 and report["violations"] == 1
    assert report["checks"]["cfl_invariants"]["violations"] == ["client 0: virtual cost 30 != d(i, attach)=2"]


# (doc, forge(trace) -> forged RunTrace, the message trial 0 of seed 0 reports):
# one record's cost or share raised just past the bound's factor times the
# sampled tree's optimum (for the rent-or-buy shares, the smallest class that
# passes it).  CFL's cost bound is buyrent_vs_tree.
MROB = {"points": _line(0, 1, 8, 9), "problem": "MROB", "M": 1.0, "requests": [[0, 1], [2, 3]]}
TREE_BOUNDS = {
    "SteinerTree cost": (ST, lambda tr: RunTrace(_records(tr, r0={"cost": 60.0})), "cost_vs_tree: 61 > 4 * 15"),
    "SteinerForest cost": (
        SF, lambda tr: RunTrace(_records(tr, r0={"cost": 25.0}), tr.summary), "cost_vs_tree: 25 > 4 * 6"),
    "SteinerNetwork cost": (
        SN, lambda tr: RunTrace(_records(tr, r0={"cost": 141.0}), tr.summary), "cost_vs_tree: 145 > 16 * 9"),
    "SROB cost": (SROB, lambda tr: RunTrace(_records(tr, r0={"cost": 189.0})), "cost_vs_tree: 195 > 16 * 12.125"),
    "SROB share": (SROB, lambda tr: RunTrace(_records(tr, r0={"klass": 6})), "share_vs_tree: 130 > 8 * 12.125"),
    "MROB cost": (
        MROB, lambda tr: RunTrace(_records(tr, r0={"cost": 176.0}), tr.summary), "cost_vs_tree: 177 > 32 * 5.5"),
    "MROB share": (
        MROB, lambda tr: RunTrace(_records(tr, r0={"klass": 6}), tr.summary), "share_vs_tree: 130 > 16 * 5.5"),
    "CFL buyrent": (
        CFL, lambda tr: RunTrace(_records(tr, r0={"cost": 3076.0}), tr.summary),
        "buyrent_vs_tree: 3109 > 48 * 64.75"),
    "CFL share": (
        CFL, lambda tr: RunTrace(_records(tr, r0={"klass": 10}), tr.summary), "share_vs_tree: 2048 > 16 * 64.75"),
    "PCST cost": (PCST, lambda tr: RunTrace(_records(tr, r0={"cost": 23.5})), "cost_vs_tree: 24.5 > 16 * 1.5"),
    "PCST share": (PCST, lambda tr: RunTrace(_records(tr, r0={"rho": 11.5})), "share_vs_tree: 12.5 > 8 * 1.5"),
    "PCST cut lower bound": (
        PCST, lambda tr: RunTrace(_records(tr, r0={"rho": 9.5})), "share_vs_cut_lb: 10.5 > 8 * 1.25"),
}


@pytest.mark.parametrize("doc, forge, message", TREE_BOUNDS.values(), ids=TREE_BOUNDS.keys())
def test_forged_tree_bound_fires(doc, forge, message):
    m, seq = instance_from_dict(doc)
    _, trace = run_problem(m, seq)
    assert verify_run(m, seq, trials=1, forged_trace=trace)["violations"] == 0
    found = verify_run(m, seq, trials=1, forged_trace=forge(trace))["tree_checks"]["violations"]
    assert "trial 0: " + message in found, found


def test_bound_violated_at_zero_optimum_has_no_ratio():
    # request 1 sits on the root, so every tree's optimum is 0; a forged cost
    # of 5 has no finite ratio to it, and max_ratios leaves the bound out
    doc = {"points": [[0, 0], [0, 0], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [1]}
    m, seq = instance_from_dict(doc)
    _, trace = run_problem(m, seq)
    assert verify_run(m, seq, trials=2, forged_trace=trace)["max_ratios"] == {"cost_vs_tree": 0.0}
    report = verify_run(m, seq, trials=2, forged_trace=RunTrace(_records(trace, r0={"cost": 5.0})))
    assert report["tree_checks"]["violations"] == [f"trial {i}: cost_vs_tree: 5 > 4 * 0" for i in range(2)]
    assert report["max_ratios"] == {}


def _bought(sol, u, v):
    """sol with one more copy of (u, v) bought."""
    sol.buy(u, v)
    return sol


# (doc, check, tamper(sol, trace) -> (sol, trace), message pattern)
TAMPERED = {
    "cost consistency": (
        SROB, "cost_consistency", lambda sol, tr: (_bought(sol, 0, 2), tr),
        r"solution cost 15 != trace cost 10"),
    "infeasible at arrival": (
        ST, "online_feasibility", lambda sol, tr: (sol, RunTrace(_records(tr, r1={"feasible_now": False}))),
        r"request 1 infeasible at arrival"),
    "infeasible in final state": (
        ST, "online_feasibility", lambda sol, tr: (MultiGraphSolution(), tr),
        r"request 0 infeasible in final state"),
    "sn multiplicity": (
        SN, "sn_decomposition", lambda sol, tr: (_bought(sol, 0, 1), tr),
        r"edge \(0, 1\): multiplicity 5 != decomposition 4"),
    "sn not bought": (
        SN, "sn_decomposition", lambda sol, tr: (MultiGraphSolution(), tr),
        r"edge \(0, 1\): in decomposition but not bought"),
    "greedy replay": (
        SROB, "greedy_replay", lambda sol, tr: (_bought(sol, 1, 3), tr),
        r"bought subgraph \[\(0, 2\), \(1, 3\)\] != greedy replay \[\(0, 2\)\]"),
}


@pytest.mark.parametrize("doc, check, tamper, pattern", TAMPERED.values(), ids=TAMPERED.keys())
def test_tampered_run_fires(doc, check, tamper, pattern):
    m, seq = instance_from_dict(doc)
    sol, trace = run_problem(m, seq)
    assert all(viol == [] for _, viol in per_run_checks(m, seq, sol, trace))
    found = dict(per_run_checks(m, seq, *tamper(sol, trace)))[check]
    assert any(re.fullmatch(pattern, v) for v in found), found


def test_invalid_tree_prefix(monkeypatch):
    # a sampled tree that fails validate_hst: its first message carries the
    # prefix, the others follow as they are, and no per-tree check runs
    def bad_tree(terms, seed):
        return Hst([-1, 0, 0], [0, -1, -2], (0, 2), [1, 2])

    monkeypatch.setattr("ondesign.verify.sample_frt", bad_tree)
    m, seq = instance_from_dict(SF)
    report = verify_run(m, seq, trials=2)
    assert report["tree_checks"]["violations"] == [
        f"trial {i}: {msg}" for i in range(2) for msg in (
            "invalid tree: levels: children of node 0 at differing edge lengths", "expanding: T(0,2)=0.375 < d=2")
    ]
    assert report["max_ratios"] == {} and report["witness_seed"] is not None
