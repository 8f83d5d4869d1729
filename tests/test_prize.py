import numpy as np
import pytest

from conftest import brute_check_pcst_invariants, euclid, extend_one, forest, line_metric, random_small_hst
from ondesign.hst import Terminals, sample_frt
from ondesign.metric import RequestRecord, RequestSequence, RunTrace, check_feasible
from ondesign.prize import (
    check_pcst_invariants,
    check_pcst_run_invariants,
    positive_share_rows,
    run_pcst,
    total_share,
)
from ondesign.rentorbuy import check_greedy_replay
from ondesign.tree_opt import opt_tree_pcst, pcst_cut_lower_bound


def _pcst(*requests):
    return RequestSequence(problem="PCST", requests=requests, root=0)


def _cut_checks(seq, trace, t):
    """(violations, flags, cut lower bound) of the PCST cut checks on t as a
    forest of one, the lower bound reading the invariants' grouping as verify
    does."""
    viol, flags, cuts = check_pcst_invariants(forest([t]), positive_share_rows(seq, trace), seq.root)
    return viol[0], flags[0], pcst_cut_lower_bound(cuts)[0]


def pcst_metric():
    # root 0, filler at 1 (keeps min distance 1), A and B coincident at 4
    return line_metric([0, 1, 4, 4])


def test_pcst_penalty_then_buy():
    m = pcst_metric()
    seq = _pcst((2, 1.0), (3, 10.0))
    sol, trace = run_pcst(m, seq)
    first, second = trace.records
    assert first.decision == "penalty" and first.rho == 1.0
    assert second.decision == "buy" and second.rho == 7.0
    assert trace.total_cost() == 5.0
    assert check_pcst_run_invariants(m, seq, trace) == []


def test_pcst_zero_penalty():
    m = line_metric([0, 2])
    _, trace = run_pcst(m, _pcst((1, 0.0)))
    rec = trace.records[0]
    assert rec.decision == "penalty" and rec.rho == 0.0 and rec.cost == 0.0


def test_pcst_witness_includes_self():
    m = line_metric([0, 4])
    _, trace = run_pcst(m, _pcst((1, 100.0)))
    assert trace.records[0].witnesses == (0,)
    assert trace.records[0].decision == "buy"  # rho reaches 2^(j+1) alone


def test_pcst_feasibility():
    rng = np.random.default_rng(2)
    m = euclid(rng.random((12, 2)) * 14)
    seq = _pcst(*((int(p), float(rng.uniform(0, 10))) for p in rng.integers(1, 12, size=10)))
    sol, trace = run_pcst(m, seq)
    assert all(check_feasible(sol, seq, m))
    assert check_greedy_replay(m, seq, sol, trace) == []


def test_pcst_cost_vs_shares():
    m = pcst_metric()
    _, trace = run_pcst(m, _pcst((2, 1.0), (3, 10.0)))
    assert total_share(trace) == 8.0
    assert trace.total_cost() <= 2 * total_share(trace)


def test_pcst_forged_rho_exceeds_pi():
    m = line_metric([0, 4])
    seq = RequestSequence(problem="PCST", requests=((1, 1.0),), root=0)
    forged = RunTrace()
    forged.add(RequestRecord(idx=0, decision="penalty", klass=2, cost=1.0, rho=5.0))
    viol = check_pcst_run_invariants(m, seq, forged)
    assert "request 0: rho 5 > pi 1" in viol


def test_pcst_tree_invariants_and_bounds():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(4, 12))
        m = euclid(rng.random((n, 2)) * rng.uniform(3, 25))
        reqs = [
            (int(p), float(rng.uniform(0, 2 * m.diameter())))
            for p in rng.integers(0, n, size=int(rng.integers(2, 9)))
        ]
        seq = _pcst(*reqs)
        sol, trace = run_pcst(m, seq)
        t_ext = extend_one(sample_frt(Terminals(m, [p for p, _ in reqs] + [0]), seed=trial))
        viol, flags, lb = _cut_checks(seq, trace, t_ext)
        assert check_pcst_run_invariants(m, seq, trace) + viol == []
        share = total_share(trace)
        opt = opt_tree_pcst(forest([t_ext]), 0, reqs)[0]
        assert share <= 8 * lb * (1 + 1e-9) + 1e-12
        assert share <= 8 * opt * (1 + 1e-9) + 1e-12
        assert trace.total_cost() <= 16 * opt * (1 + 1e-9) + 1e-12


def test_pcst_tree_invariants_match_reference_on_forged_shares():
    # shares at random classes and leaves, some at a point that is no terminal
    rng = np.random.default_rng(14)
    flagged = 0
    for _ in range(60):
        m, t = random_small_hst(rng, max_leaves=10, extended_chance=1.0)
        pts = list(t.terminals)
        trace, requests = RunTrace(), []
        for idx in range(int(rng.integers(1, 12))):
            requests.append((int(rng.choice(pts + [len(pts)])), 50.0))
            trace.add(RequestRecord(
                idx=idx, decision="buy",
                klass=int(rng.integers(-2, 5)), rho=float(rng.choice([0.3, 1.7, 2.7, 5.1, 13.3])),
            ))
        seq = RequestSequence(problem="PCST", requests=tuple(requests), root=int(rng.choice(pts)))
        got = _cut_checks(seq, trace, t)[:2]
        assert got == brute_check_pcst_invariants(seq, trace, t)
        flagged += bool(got[0] or got[1])
    assert flagged > 20


@pytest.mark.parametrize("point, klass, rho, expected", [
    # a class-0 share in the level-(-1) cut {1}, which holds no root
    (1, 0, 5.0, (["level -1: cut share sum 5 > 2^1"], [])),
    (1, 0, 1.5, ([], ["level -1: cut share sum 1.5 in (2^0, 2^1]"])),
    # points 0 (the root) and 1 share a level-2 cut
    (1, 3, 5.0, (["level 2: root cut carries class-3 share 5"], [])),
])
def test_pcst_cut_share_messages(point, klass, rho, expected):
    m = line_metric([0, 1, 8])
    seq = RequestSequence(problem="PCST", requests=((point, 50.0),), root=0)
    forged = RunTrace([RequestRecord(idx=0, decision="penalty", klass=klass, cost=50.0, rho=rho)])
    t = extend_one(sample_frt(Terminals(m, [0, 1, 2]), seed=1))
    got = _cut_checks(seq, forged, t)[:2]
    assert got == expected
    assert got == brute_check_pcst_invariants(seq, forged, t)


def test_pcst_all_zero_penalties():
    m = line_metric([0, 2, 4])
    _, trace = run_pcst(m, _pcst((1, 0.0), (2, 0.0)))
    assert total_share(trace) == 0.0 and trace.total_cost() == 0.0


def test_pcst_flags_soft_range():
    # flags (not violations) may appear for cut sums in (2^(j+1), 2^(j+2)]
    m = euclid(np.random.default_rng(3).random((8, 2)) * 12)
    seq = _pcst(*((p, 50.0) for p in range(1, 8)))
    _, trace = run_pcst(m, seq)
    t_ext = extend_one(sample_frt(Terminals(m, range(8)), seed=0))
    viol, flags, _ = _cut_checks(seq, trace, t_ext)
    assert check_pcst_run_invariants(m, seq, trace) + viol == []
    assert isinstance(flags, list)


def test_tree_pcst_builds_the_share_rows_once_per_instance(monkeypatch):
    from ondesign import prize, verify

    calls = []

    def counted(seq, trace):
        calls.append(len(trace.records))
        return positive_share_rows(seq, trace)

    for module in (prize, verify):  # wherever a per-tree check could build them
        monkeypatch.setattr(module, "positive_share_rows", counted)
    m = euclid(np.random.default_rng(5).random((8, 2)) * 12)
    report = verify.verify_run(m, _pcst(*((p, 50.0) for p in range(1, 8))), trials=3, seed=0)
    assert report["violations"] == 0 and report["tree_checks"]["fail"] == 0
    assert calls == [7]  # one forest of 3 trees
