import re

import numpy as np
import pytest

from conftest import brute_check_cut_capacity, cut_caps, euclid, extend_one, line_metric, random_small_hst
from ondesign.hst import Terminals, sample_frt
from ondesign.metric import RequestRecord, RequestSequence, RunTrace, check_feasible
from ondesign.rentorbuy import (
    check_greedy_replay,
    check_mrob_witnesses,
    check_srob_witnesses,
    cost_share,
    run_mrob,
    run_srob,
)
from ondesign.verify import _tree_seed, verify_run


def _srob(terminals, M):
    return RequestSequence(problem="SROB", requests=tuple(terminals), root=0, M=M)


def _mrob(pairs, M):
    return RequestSequence(problem="MROB", requests=tuple(pairs), M=M)


def test_srob_line_example():
    m = line_metric([0, 4, 5, 6])
    sol, trace = run_srob(m, _srob([1, 2, 3], M=1.0))
    assert [r.decision for r in trace.records] == ["rent", "buy", "rent"]
    assert trace.total_cost() == 10.0
    assert trace.records[1].witnesses == (0,)


def test_srob_m_zero_always_buys():
    m = line_metric([0, 4, 5, 6])
    seq = _srob([1, 2, 3], M=0.0)
    sol, trace = run_srob(m, seq)
    assert all(r.decision == "buy" for r in trace.records)
    assert trace.total_cost() == 0.0
    # H is the greedy Steiner tree over all terminals
    assert check_greedy_replay(m, seq, sol, trace) == []


def test_srob_single_rent():
    m = line_metric([0, 2])
    _, trace = run_srob(m, _srob([1], M=10.0))
    assert trace.records[0].decision == "rent" and trace.total_cost() == 2.0


def test_srob_feasible():
    rng = np.random.default_rng(1)
    m = euclid(rng.random((15, 2)) * 12)
    seq = _srob([int(x) for x in rng.integers(1, 15, size=12)], M=2.0)
    sol, trace = run_srob(m, seq)
    assert all(check_feasible(sol, seq, m))
    assert trace.total_cost() <= 2 * cost_share(trace) + 1e-9


def test_mrob_triple_identical_pairs(two_point_metric):
    sol, trace = run_mrob(two_point_metric, _mrob([(0, 1)] * 3, M=1.0))
    assert [r.decision for r in trace.records] == ["rent", "rent", "buy"]
    assert [r.rent_endpoint for r in trace.records] == ["s", "t", None]
    assert trace.total_cost() == 3.0


def test_mrob_m_zero(two_point_metric):
    _, trace = run_mrob(two_point_metric, _mrob([(0, 1)] * 3, M=0.0))
    assert all(r.decision == "buy" for r in trace.records)
    assert trace.total_cost() == 0.0


def test_mrob_single_pair_rents(two_point_metric):
    _, trace = run_mrob(two_point_metric, _mrob([(0, 1)], M=5.0))
    assert trace.records[0].decision == "rent"
    assert trace.total_cost() == 1.0


def test_witness_disjointness_srob_and_forged():
    m = line_metric([0, 4, 5, 6])
    seq = _srob([1, 2, 3], M=1.0)
    _, trace = run_srob(m, seq)
    assert check_srob_witnesses(m, seq, trace) == []

    forged = RunTrace()
    forged.add(RequestRecord(idx=0, decision="rent", klass=2, cost=4.0))
    forged.add(RequestRecord(idx=1, decision="buy", klass=2, cost=5.0, witnesses=(0,)))
    forged.add(RequestRecord(idx=2, decision="buy", klass=2, cost=6.0, witnesses=(0,)))
    out = check_srob_witnesses(m, seq, forged)
    assert any("share witnesses" in v for v in out)


def test_witness_disjointness_mrob():
    m = line_metric([0, 1])
    seq = _mrob([(0, 1)] * 3, M=1.0)
    _, trace = run_mrob(m, seq)
    assert check_mrob_witnesses(m, seq, trace) == []


def test_witness_disjointness_mrob_low_witness_forged(two_point_metric):
    forged = RunTrace()
    forged.add(RequestRecord(idx=0, decision="buy", klass=0, witnesses=(7,), witnesses_t=(8,)))
    seq = RequestSequence(problem="MROB", requests=((0, 1),), M=2.0)
    out = check_mrob_witnesses(two_point_metric, seq, forged)
    assert any("|W|" in v for v in out)


def test_cut_capacity_srob():
    m = line_metric([0, 4, 5, 6])
    seq = _srob([1, 2, 3], M=1.0)
    _, trace = run_srob(m, seq)
    t = extend_one(sample_frt(Terminals(m, [0, 1, 2, 3]), seed=2))
    assert cut_caps(seq, trace, t, 1) == []


def test_cut_capacity_forged_packing():
    # four class-2 rent occurrences forged at one point with M=3: the level-1
    # singleton cut can hold at most ceil(M)=3 of them in a real run
    m = line_metric([0, 8])
    seq = RequestSequence(problem="SROB", requests=(1,) * 4, root=0, M=3.0)
    forged = RunTrace()
    for i in range(4):
        forged.add(RequestRecord(idx=i, decision="rent", klass=2, cost=8.0))
    t = extend_one(sample_frt(Terminals(m, [0, 1]), seed=1))
    out = cut_caps(seq, forged, t, 1)
    assert out == ["level 1: 4 class-2 rent occurrences > ceil(M)=3"]
    assert out == brute_check_cut_capacity(seq, forged, t, 1)


def test_cut_capacity_root_cut_message():
    # points 0 (the root) and 1 share a level-2 cut that 8 is outside of: the
    # class-3 rents at 1 are listed by request, the one at 8 is not
    m = line_metric([0, 1, 8])
    seq = RequestSequence(problem="SROB", requests=(1, 2, 1), root=0, M=3.0)
    forged = RunTrace([RequestRecord(idx=i, decision="rent", klass=3, cost=1.0) for i in (2, 0, 1)])
    t = extend_one(sample_frt(Terminals(m, [0, 1, 2]), seed=1))
    out = cut_caps(seq, forged, t, 1)
    assert out == ["level 2: cut with root holds class-3 rents [0, 2]"]
    assert out == brute_check_cut_capacity(seq, forged, t, 1)


def test_cut_capacity_separated_pairs_message():
    # one pair (0, 1) rented twice at its t end: the level-(-1) cut {1}
    # separates |D(C)| = 1 pair but holds 2 class-1 rents
    m = line_metric([0, 8])
    seq = RequestSequence(problem="MROB", requests=((0, 1),), M=3.0)
    forged = RunTrace([RequestRecord(idx=0, decision="rent", klass=1, cost=8.0, rent_endpoint="t")] * 2)
    t = extend_one(sample_frt(Terminals(m, [0, 1]), seed=1))
    out = cut_caps(seq, forged, t, 2)
    assert out == ["level -1: 2 rents > |D(C)|=1"]
    assert out == brute_check_cut_capacity(seq, forged, t, 2)


def test_cut_capacity_forged_repeated_request():
    # one request at point 1 rented twice (a forged trace repeating its idx
    # row): the level-(-1) cut {1} holds 2 class-0 rents but w(C) = 1 request
    m = line_metric([0, 8])
    seq = RequestSequence(problem="SROB", requests=(1,), root=0, M=3.0)
    forged = RunTrace()
    for _ in range(2):
        forged.add(RequestRecord(idx=0, decision="rent", klass=0, cost=8.0))
    t = extend_one(sample_frt(Terminals(m, [0, 1]), seed=1))
    out = cut_caps(seq, forged, t, 1)
    assert out == ["level -1: 2 class-0 rent occurrences > w(C)=1"]
    assert out == brute_check_cut_capacity(seq, forged, t, 1)
    # a second request at a point coincident with 1 makes w(C) = 2
    m3 = line_metric([0, 8, 8])
    seq3 = RequestSequence(problem="SROB", requests=(1, 2), root=0, M=3.0)
    t3 = extend_one(sample_frt(Terminals(m3, [0, 1, 2]), seed=1))
    assert cut_caps(seq3, forged, t3, 1) == []


def test_cut_capacity_empty_rents():
    m = line_metric([0, 4])
    seq = _srob([1], M=0.0)
    _, trace = run_srob(m, seq)
    t = extend_one(sample_frt(Terminals(m, [0, 1]), seed=0))
    assert cut_caps(seq, trace, t, 1) == []


def test_cut_capacity_mrob_random():
    rng = np.random.default_rng(6)
    m = euclid(rng.random((12, 2)) * 10)
    pairs = [tuple(map(int, rng.choice(12, size=2, replace=False))) for _ in range(10)]
    seq = _mrob(pairs, M=2.0)
    _, trace = run_mrob(m, seq)
    pts = sorted({p for pr in pairs for p in pr})
    t = extend_one(sample_frt(Terminals(m, pts), seed=3))
    assert cut_caps(seq, trace, t, 2) == []


def test_cut_capacity_matches_reference_on_forged_rents():
    # rents at random classes and leaves, some at a point that is no
    # terminal, some requests rented twice; half the instances are pair
    # requests, some never rented
    rng = np.random.default_rng(12)
    flagged = 0
    for trial in range(60):
        m, t = random_small_hst(rng, max_leaves=10, extended_chance=1.0)
        pts = list(t.terminals)
        off = pts + [len(pts)]
        trace = RunTrace()
        ends = [(int(rng.choice(off)), int(rng.choice(off))) for _ in range(int(rng.integers(1, 12)))]
        for _ in range(int(rng.integers(1, 12))):
            trace.add(RequestRecord(
                idx=int(rng.integers(0, len(ends))), decision="rent",
                klass=int(rng.integers(-2, 5)), rent_endpoint=str(rng.choice(["s", "t"])),
            ))
        pairs = [(int(rng.choice(pts)), int(rng.choice(off))) for _ in range(6)] if trial % 2 else None
        root = None if pairs else int(rng.choice(pts))
        M, shift = float(rng.choice([0.3, 1.0, 2.7])), int(rng.integers(1, 3))
        if pairs:
            seq = RequestSequence(problem="MROB", requests=tuple(ends + pairs), M=M)
        else:
            seq = RequestSequence(problem="SROB", requests=tuple(s for s, _ in ends), root=root, M=M)
        got = cut_caps(seq, trace, t, shift)
        assert got == brute_check_cut_capacity(seq, trace, t, shift)
        flagged += bool(got)
    assert flagged > 20


def test_greedy_replay_structural_equality():
    rng = np.random.default_rng(12)
    m = euclid(rng.random((14, 2)) * 15)
    seq = _srob([int(x) for x in rng.integers(1, 14, size=12)], M=1.5)
    sol, trace = run_srob(m, seq)
    assert check_greedy_replay(m, seq, sol, trace) == []


def test_share_bound_exact_arithmetic():
    # cost <= 2 * share holds as exact arithmetic on every run
    rng = np.random.default_rng(2)
    for seed in range(10):
        m = euclid(rng.random((10, 2)) * 11)
        terms = [int(x) for x in rng.integers(1, 10, size=8)]
        M = [0.0, 1.0, 2.5, 4.0][seed % 4]
        _, trace = run_srob(m, _srob(terms, M))
        assert trace.total_cost() <= 2 * cost_share(trace) * (1 + 1e-9) + 1e-12
        pairs = [tuple(map(int, rng.choice(10, size=2, replace=False))) for _ in range(6)]
        _, trace2 = run_mrob(m, _mrob(pairs, M))
        assert trace2.total_cost() <= 2 * cost_share(trace2) * (1 + 1e-9) + 1e-12


def test_close_same_class_buys_reported_once_by_class_separation():
    # buys at 5 and 6 are class 2 and 1 < 2^2 apart; their witnesses are
    # distinct class-2 rents, so only the separation check has a finding
    m = line_metric([0, 4, 4.5, 5, 6])
    seq = RequestSequence(problem="SROB", requests=(1, 2, 3, 4), root=0, M=1.0)
    forged = RunTrace()
    for idx, a in enumerate([4.0, 4.5]):
        forged.add(RequestRecord(idx=idx, decision="rent", klass=2, cost=a, attach=0))
    for idx, a, w in [(2, 5.0, 0), (3, 6.0, 1)]:
        forged.add(RequestRecord(idx=idx, decision="buy", klass=2, cost=a, witnesses=(w,), attach=0))
    checks = verify_run(m, seq, trials=1, forged_trace=forged)["checks"]
    assert checks["class_separation"]["violations"] == ["class 2: requests 2,3 at distance 1 < 2^2"]
    assert checks["witness_disjointness"]["fail"] == 0


def test_unnormalized_metric_is_a_check_error_of_every_forged_trial():
    # d(1,2) = 0.5 < 1: the trees' terminal set cannot be built, which a
    # forged replay reports on each trial and the own run raises
    m = line_metric([0, 4, 4.5, 5, 6])
    seq = RequestSequence(problem="SROB", requests=(1, 2, 3, 4), root=0, M=1.0)
    forged = RunTrace()
    for idx, a in enumerate([4.0, 4.5, 5.0, 6.0]):
        forged.add(RequestRecord(idx=idx, decision="rent", klass=2, cost=a, attach=0))
    message = "metric not normalized: d(1,2)=0.5 < 1"
    report = verify_run(m, seq, trials=2, seed=3, forged_trace=forged)
    assert report["tree_checks"] == {"fail": 2, "violations": [f"trial {i}: check error: {message}" for i in range(2)]}
    assert report["witness_seed"] == _tree_seed(3, 0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_run(m, seq, trials=2, seed=3)
