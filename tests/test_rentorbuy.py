import numpy as np

from conftest import brute_check_cut_capacity, euclid, line_metric, random_small_hst
from ondesign.hst import extend_singleton_levels, sample_frt
from ondesign.metric import RequestRecord, RequestSequence, RunTrace, check_feasible
from ondesign.rentorbuy import (
    check_cut_capacity,
    check_greedy_replay,
    check_mrob_witnesses,
    check_srob_witnesses,
    cost_share,
    run_mrob,
    run_srob,
)


def test_srob_line_example():
    m = line_metric([0, 4, 5, 6])
    sol, trace = run_srob(m, 0, [1, 2, 3], M=1.0)
    assert [r.decision for r in trace.records] == ["rent", "buy", "rent"]
    assert trace.total_cost() == 10.0
    assert trace.records[1].witnesses == (0,)


def test_srob_m_zero_always_buys():
    m = line_metric([0, 4, 5, 6])
    sol, trace = run_srob(m, 0, [1, 2, 3], M=0.0)
    assert all(r.decision == "buy" for r in trace.records)
    assert trace.total_cost() == 0.0
    # H is the greedy Steiner tree over all terminals
    assert check_greedy_replay(trace, m, sol, 0) == []


def test_srob_single_rent():
    m = line_metric([0, 2])
    _, trace = run_srob(m, 0, [1], M=10.0)
    assert trace.records[0].decision == "rent" and trace.total_cost() == 2.0


def test_srob_feasible():
    rng = np.random.default_rng(1)
    m = euclid(rng.random((15, 2)) * 12)
    terms = [int(x) for x in rng.integers(1, 15, size=12)]
    sol, trace = run_srob(m, 0, terms, M=2.0)
    seq = RequestSequence(problem="SROB", requests=tuple(terms), root=0, M=2.0)
    assert all(check_feasible(sol, seq, m))
    assert trace.total_cost() <= 2 * cost_share(trace) + 1e-9


def test_mrob_triple_identical_pairs(two_point_metric):
    sol, trace = run_mrob(two_point_metric, [(0, 1)] * 3, M=1.0)
    assert [r.decision for r in trace.records] == ["rent", "rent", "buy"]
    assert [r.rent_endpoint for r in trace.records] == ["s", "t", None]
    assert trace.total_cost() == 3.0


def test_mrob_m_zero(two_point_metric):
    _, trace = run_mrob(two_point_metric, [(0, 1)] * 3, M=0.0)
    assert all(r.decision == "buy" for r in trace.records)
    assert trace.total_cost() == 0.0


def test_mrob_single_pair_rents(two_point_metric):
    _, trace = run_mrob(two_point_metric, [(0, 1)], M=5.0)
    assert trace.records[0].decision == "rent"
    assert trace.total_cost() == 1.0


def test_witness_disjointness_srob_and_forged():
    m = line_metric([0, 4, 5, 6])
    _, trace = run_srob(m, 0, [1, 2, 3], M=1.0)
    assert check_srob_witnesses(trace, m, 1.0) == []

    forged = RunTrace()
    forged.add(RequestRecord(idx=0, decision="rent", points=(1,), a=4.0, klass=2, cost=4.0))
    forged.add(
        RequestRecord(idx=1, decision="buy", points=(2,), a=5.0, klass=2, cost=5.0, witnesses=(0,))
    )
    forged.add(
        RequestRecord(idx=2, decision="buy", points=(3,), a=6.0, klass=2, cost=6.0, witnesses=(0,))
    )
    out = check_srob_witnesses(forged, m, 1.0)
    assert any("share witnesses" in v for v in out)


def test_witness_disjointness_mrob():
    m = line_metric([0, 1])
    _, trace = run_mrob(m, [(0, 1)] * 3, M=1.0)
    assert check_mrob_witnesses(trace, m, 1.0) == []


def test_witness_disjointness_mrob_low_witness_forged(two_point_metric):
    forged = RunTrace()
    forged.add(
        RequestRecord(
            idx=0, decision="buy", points=(0, 1), a=1.0, klass=0,
            witnesses=(7,), witnesses_t=(8,),
        )
    )
    out = check_mrob_witnesses(forged, two_point_metric, 2.0)
    assert any("|W|" in v for v in out)


def test_cut_capacity_srob():
    m = line_metric([0, 4, 5, 6])
    _, trace = run_srob(m, 0, [1, 2, 3], M=1.0)
    t = extend_singleton_levels(sample_frt(m, [0, 1, 2, 3], seed=2), -2)
    assert check_cut_capacity(trace, t, 1.0, 1, None, root=0) == []


def test_cut_capacity_forged_packing():
    # four class-2 rent occurrences forged at one point with M=3: the level-1
    # singleton cut can hold at most ceil(M)=3 of them in a real run
    m = line_metric([0, 8])
    forged = RunTrace()
    for i in range(4):
        forged.add(RequestRecord(idx=i, decision="rent", points=(1,), a=8.0, klass=2, cost=8.0))
    t = extend_singleton_levels(sample_frt(m, [0, 1], seed=1), -2)
    out = check_cut_capacity(forged, t, 3.0, 1, None, root=0)
    assert any("ceil(M)" in v for v in out)


def test_cut_capacity_forged_repeated_request():
    # one request at point 1 rented twice (a forged trace repeating its idx
    # row): the level-(-1) cut {1} holds 2 class-0 rents but w(C) = 1 request
    m = line_metric([0, 8])
    forged = RunTrace()
    for _ in range(2):
        forged.add(RequestRecord(idx=0, decision="rent", points=(1,), a=8.0, klass=0, cost=8.0))
    t = extend_singleton_levels(sample_frt(m, [0, 1], seed=1), -2)
    out = check_cut_capacity(forged, t, 3.0, 1, None, root=0, weights={0: 1, 1: 1})
    assert out == ["level -1: 2 class-0 rent occurrences > w(C)=1"]
    assert out == brute_check_cut_capacity(forged, t, 3.0, 1, None, root=0, weights={0: 1, 1: 1})
    assert check_cut_capacity(forged, t, 3.0, 1, None, root=0, weights={0: 1, 1: 2}) == []


def test_cut_capacity_empty_rents():
    m = line_metric([0, 4])
    _, trace = run_srob(m, 0, [1], M=0.0)
    t = extend_singleton_levels(sample_frt(m, [0, 1], seed=0), -2)
    assert check_cut_capacity(trace, t, 0.0, 1, None, root=0) == []


def test_cut_capacity_mrob_random():
    rng = np.random.default_rng(6)
    m = euclid(rng.random((12, 2)) * 10)
    pairs = [tuple(map(int, rng.choice(12, size=2, replace=False))) for _ in range(10)]
    _, trace = run_mrob(m, pairs, M=2.0)
    pts = sorted({p for pr in pairs for p in pr})
    t = extend_singleton_levels(sample_frt(m, pts, seed=3), -2)
    assert check_cut_capacity(trace, t, 2.0, 2, pairs) == []


def test_cut_capacity_matches_reference_on_forged_rents():
    # rents at random classes and leaves, some at a point that is no terminal
    rng = np.random.default_rng(12)
    flagged = 0
    for trial in range(60):
        m, t = random_small_hst(rng, max_leaves=10, extended_chance=1.0)
        pts = list(t.terminals)
        off = pts + [len(pts)]
        trace = RunTrace()
        for idx in range(int(rng.integers(1, 12))):
            trace.add(RequestRecord(
                idx=idx, decision="rent", points=(int(rng.choice(off)), int(rng.choice(off))),
                klass=int(rng.integers(-2, 5)), rent_endpoint=str(rng.choice(["s", "t"])),
            ))
        pairs = [(int(rng.choice(pts)), int(rng.choice(off))) for _ in range(6)] if trial % 2 else None
        root = None if pairs else int(rng.choice(pts))
        M, shift = float(rng.choice([0.3, 1.0, 2.7])), int(rng.integers(1, 3))
        weights = None if pairs else {p: int(rng.integers(0, 3)) for p in pts}
        got = check_cut_capacity(trace, t, M, shift, pairs, root, weights=weights)
        assert got == brute_check_cut_capacity(trace, t, M, shift, pairs, root, weights=weights)
        flagged += bool(got)
    assert flagged > 20


def test_greedy_replay_structural_equality():
    rng = np.random.default_rng(12)
    m = euclid(rng.random((14, 2)) * 15)
    terms = [int(x) for x in rng.integers(1, 14, size=12)]
    sol, trace = run_srob(m, 0, terms, M=1.5)
    assert check_greedy_replay(trace, m, sol, 0) == []


def test_share_bound_exact_arithmetic():
    # cost <= 2 * share holds as exact arithmetic on every run
    rng = np.random.default_rng(2)
    for seed in range(10):
        m = euclid(rng.random((10, 2)) * 11)
        terms = [int(x) for x in rng.integers(1, 10, size=8)]
        M = [0.0, 1.0, 2.5, 4.0][seed % 4]
        _, trace = run_srob(m, 0, terms, M=M)
        assert trace.total_cost() <= 2 * cost_share(trace) * (1 + 1e-9) + 1e-12
        pairs = [tuple(map(int, rng.choice(10, size=2, replace=False))) for _ in range(6)]
        _, trace2 = run_mrob(m, pairs, M=M)
        assert trace2.total_cost() <= 2 * cost_share(trace2) * (1 + 1e-9) + 1e-12
