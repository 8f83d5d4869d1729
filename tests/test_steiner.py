import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_cuts_at_level,
    euclid,
    extend_one,
    forest,
    line_metric,
    ref_max_flow,
    ref_same_class_closer,
    RefBcForest,
    tie_metrics,
    tree_covers,
    tree_cuts,
    tree_metagraph,
)
from ondesign.hst import Terminals, sample_frt
from ondesign.metric import RequestRecord, RunTrace, check_feasible
from ondesign.metric import RequestSequence
from ondesign.steiner import (
    BcForest,
    NearestSet,
    Pool,
    check_bc_edge_property,
    check_class_separation,
    check_metagraph_acyclic,
    check_sn_decomposition,
    covers_from_tree,
    run_bc_sf,
    run_greedy_st,
    run_sn,
    same_class_closer,
)


def _tree(*terminals):
    return RequestSequence(problem="SteinerTree", requests=terminals, root=0)


def _forest(*pairs):
    return RequestSequence(problem="SteinerForest", requests=pairs)


def _network(*requests):
    return RequestSequence(problem="SteinerNetwork", requests=requests)


def test_greedy_line_example():
    m = line_metric([0, 1, 3])
    sol, trace = run_greedy_st(m, _tree(1, 2))
    assert trace.total_cost() == 3.0
    assert [(r.cost, r.klass) for r in trace.records] == [(1.0, 0), (2.0, 1)]
    assert sol.bought == {(0, 1): 1, (1, 2): 1}


def test_greedy_single_arrival():
    m = line_metric([0, 1])
    _, trace = run_greedy_st(m, _tree(1))
    assert trace.total_cost() == 1.0 and trace.records[0].klass == 0


def test_greedy_coincident_arrivals():
    m = line_metric([0, 4, 4])
    _, trace = run_greedy_st(m, _tree(1, 2))
    assert [r.cost for r in trace.records] == [4.0, 0.0]
    assert trace.records[1].decision == "auto"
    assert trace.total_cost() == 4.0


def test_greedy_share_identity():
    rng = np.random.default_rng(0)
    m = euclid(rng.random((12, 2)) * 10)
    _, trace = run_greedy_st(m, _tree(*range(1, 12)))
    share = sum(2.0 ** (r.klass + 1) for r in trace.records if r.klass is not None)
    assert trace.total_cost() <= share


def test_bc_single_pair():
    m = line_metric([0, 1])
    sol, trace = run_bc_sf(m, _forest((0, 1)))
    assert trace.total_cost() == 1.0
    assert trace.summary["forests"][0]["A"] == [[0, [[0, 1]]]]


def test_bc_far_pairs():
    m = line_metric([0, 1, 10, 11.5])
    sol, trace = run_bc_sf(m, _forest((0, 1), (2, 3)))
    assert trace.total_cost() == 2.5


def test_bc_repeat_pair_idempotent():
    m = line_metric([0, 1, 10, 11.5])
    sol, trace = run_bc_sf(m, _forest((0, 1), (2, 3), (0, 1)))
    assert trace.total_cost() == 2.5
    assert trace.records[2].cost == 0.0


def test_bc_connects_every_pair():
    rng = np.random.default_rng(3)
    m = euclid(rng.random((14, 2)) * 6)
    seq = _forest(*(tuple(map(int, rng.choice(14, size=2, replace=False))) for _ in range(8)))
    sol, trace = run_bc_sf(m, seq)
    assert all(r.feasible_now for r in trace.records)
    assert all(check_feasible(sol, seq, m))


def test_bc_edge_property_random():
    rng = np.random.default_rng(4)
    m = euclid(rng.random((12, 2)) * 9)
    seq = _forest(*(tuple(map(int, rng.choice(12, size=2, replace=False))) for _ in range(7)))
    _, trace = run_bc_sf(m, seq)
    assert check_bc_edge_property(m, seq, trace) == []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bc_add_pair_matches_scalar_reference(data):
    """The candidate scan over component labels buys what the per-endpoint
    rescan through a union-find buys, edge for edge and in the same order, on
    metrics with coincident points, repeated pairs and equal distances."""
    m = data.draw(tie_metrics())
    point = st.integers(0, m.n - 1)
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=14))
    pairs += pairs[:data.draw(st.integers(0, len(pairs)))]
    bc, ref = BcForest(m, 2), RefBcForest(m, 2)
    for s, t in pairs:
        got = bc.add_pair(s, t)
        assert got == ref.add_pair(s, t)
        assert all(type(u) is int and type(v) is int for u, v, _ in got[1])
        assert bc.connected(s, t) is ref.uf.connected(s, t)
    assert json.dumps(bc.summary()) == json.dumps(ref.summary())
    for u in range(m.n):
        assert [bc.connected(u, v) for v in range(m.n)] == [ref.uf.connected(u, v) for v in range(m.n)]


def test_bc_summary_past_a_buffer_doubling():
    """Eleven classified pairs (22 endpoints) outgrow the 16-entry endpoint
    buffers once; the summary reads the same as with np.append per pair."""
    m = line_metric([0, 1, 3, 7, 15, 2, 5, 11, 13, 4, 9, 6, 15, 30])
    pairs = [(0, 4), (1, 2), (3, 7), (5, 6), (8, 9), (10, 11), (2, 8), (4, 12), (0, 13), (6, 10), (1, 9), (7, 13)]
    bc = BcForest(m, 2)
    added = [bc.add_pair(s, t) for s, t in pairs]
    assert added[7] == (None, [(4, 12, None)]) and added[8] == (4, [(13, 4, 3)])
    assert bc.summary() == {
        "copies": 2,
        "A": [[0, [[1, 0], [5, 1], [9, 2], [11, 3]]], [1, [[1, 2], [5, 6], [8, 4], [10, 3]]],
              [2, [[3, 0], [3, 7]]], [3, [[0, 4], [13, 4]]]],
        "occ": [[0, 3], [4, 3], [1, 1], [2, 1], [3, 2], [7, 2], [5, 1], [6, 1], [8, 3], [9, 3], [10, 1],
                [11, 1], [2, 3], [8, 3], [0, 4], [13, 4], [6, 2], [10, 2], [1, 1], [9, 1], [7, 4], [13, 4]],
        "zero_merges": [[4, 12]],
    }


def test_pool_within_past_a_doubling_matches_list_reference():
    """A pool of 40 members (repeated points among them) outgrows its 16-entry
    buffer twice; after every add, `within` gives the positions a list of
    its points gives, and `witnesses` their request indices."""
    rng = np.random.default_rng(8)
    m = euclid(rng.random((25, 2)) * 8)
    pool, idx, pts = Pool(), [], []
    for r, p in enumerate(rng.integers(0, m.n, size=40).tolist()):
        pool.add(3 * r, p)
        idx.append(3 * r)
        pts.append(p)
        for x in range(0, m.n, 4):
            for radius in (0.5, 2.0, 4.0, 16.0):
                want = np.flatnonzero(m.d[x, pts] < radius).tolist()
                assert pool.within(m, x, radius) == want
                assert pool.witnesses(m, x, radius) == tuple(idx[k] for k in want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_nearest_set_matches_argmin_over_arrivals(data):
    """After every arrival, each point's nearest member is the brute argmin
    over the arrival list, ties to the earliest arrival, on metrics with
    coincident points, repeated arrivals and equal distances.  Re-adding a
    member returns before any write: with near and who frozen it raises
    nothing, and their bytes stay as they were."""
    m = data.draw(tie_metrics())
    arrivals = data.draw(st.lists(st.integers(0, m.n - 1), min_size=1, max_size=14))
    near = NearestSet(m, arrivals[0])
    for p, c in enumerate(arrivals):
        if p:
            near.add(c)
        members = arrivals[:p + 1]
        for x in range(m.n):
            dists = [m.dist(x, c) for c in members]
            best = dists.index(min(dists))
            assert near.nearest(x) == (members[best], dists[best])
            assert all(type(v) is w for v, w in zip(near.nearest(x), (int, float)))
        before = near.near.tobytes(), near.who.tobytes()
        near.near.setflags(write=False)
        near.who.setflags(write=False)
        for c in members:
            near.add(c)
        assert (near.near.tobytes(), near.who.tobytes()) == before
        near.near.setflags(write=True)
        near.who.setflags(write=True)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_same_class_closer_matches_pairwise_reference(data):
    """The per-class distance mask yields the pairwise loop's (j, a, b, d)
    tuples in its order, with the same floats, on metrics with coincident
    points and distances exactly at the class thresholds 2^(j + shift)."""
    m = data.draw(tie_metrics())
    points = data.draw(st.lists(st.integers(0, m.n - 1), min_size=1, max_size=14))
    seq = _tree(*points)
    records = [RequestRecord(idx=i, decision="buy", klass=data.draw(st.integers(-2, 4)))
               for i in data.draw(st.lists(st.integers(0, len(points) - 1), max_size=14))]
    shift = data.draw(st.sampled_from([-1, 0, 1]))
    got = list(same_class_closer(records, m, seq, shift))
    want = list(ref_same_class_closer(records, m, seq, shift))
    assert len(got) == len(want)
    for (j, a, b, d), (i, x, y, w) in zip(got, want):
        assert (j, d) == (i, w) and type(d) is float and a is x and b is y


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sn_feasible_now_is_the_max_flow_bit(data):
    """Each record's feasible_now, which run_sn reads off its forest's
    connectivity, is the exact max-flow bit on what the run bought up to and
    including that request (a rerun on the prefix)."""
    m = data.draw(tie_metrics())
    point = st.integers(0, m.n - 1)
    reqs = data.draw(st.lists(st.tuples(point, point, st.integers(1, 12)), min_size=1, max_size=10))
    _, trace = run_sn(m, _network(*reqs))
    for p, (s, t, r) in enumerate(reqs):
        if trace.records[p].decision == "auto":
            continue
        sol, _ = run_sn(m, _network(*reqs[:p + 1]))
        assert trace.records[p].feasible_now is (ref_max_flow(sol.capacity, s, t, limit=r) >= r)


def test_sn_examples(two_point_metric):
    sol, trace = run_sn(two_point_metric, _network((0, 1, 5)))
    assert trace.total_cost() == 8.0 and sol.bought == {(0, 1): 8}
    sol, trace = run_sn(two_point_metric, _network((0, 1, 1)))
    assert trace.total_cost() == 2.0
    sol, trace = run_sn(two_point_metric, _network((0, 1, 1), (0, 1, 5)))
    assert trace.total_cost() == 10.0 and sol.bought == {(0, 1): 10}


def test_sn_feasibility_and_decomposition():
    rng = np.random.default_rng(9)
    m = euclid(rng.random((10, 2)) * 8)
    seq = _network(*(
        (int(a), int(b), int(rng.integers(1, 12)))
        for a, b in (rng.choice(10, size=2, replace=False) for _ in range(8))
    ))
    sol, trace = run_sn(m, seq)
    assert all(r.feasible_now for r in trace.records)
    assert all(check_feasible(sol, seq, m))
    assert check_sn_decomposition(m, seq, sol, trace) == []


def test_class_separation_pass_and_forged():
    m = line_metric([0, 1, 3])
    seq = _tree(1, 2)
    _, trace = run_greedy_st(m, seq)
    assert check_class_separation(m, seq, trace) == []
    forged = RunTrace()
    forged.add(RequestRecord(idx=0, decision="buy", klass=1, cost=2.0))
    forged.add(RequestRecord(idx=1, decision="buy", klass=1, cost=2.0))
    # points 1 and 2 are at distance 2 in this metric: fine; forge closer ones
    m2 = line_metric([0, 5, 6])
    assert check_class_separation(m2, seq, forged) != []  # d(1,2)=1 < 2^1


def test_class_separation_empty():
    seq = _tree()
    assert check_class_separation(line_metric([0, 1]), seq, RunTrace()) == []


def test_metagraph_single_pair(two_point_metric):
    _, trace = run_bc_sf(two_point_metric, _forest((0, 1)))
    t = sample_frt(Terminals(two_point_metric, [0, 1]), seed=1)
    assert tree_metagraph(t, trace) == []


def test_metagraph_two_far_pairs():
    m = line_metric([0, 1, 10, 11.5])
    _, trace = run_bc_sf(m, _forest((0, 1), (2, 3)))
    t = sample_frt(Terminals(m, [0, 1, 2, 3]), seed=5)
    assert tree_metagraph(t, trace) == []


def _forged_forest(edges, occ, level=1):
    forged = RunTrace()
    forged.summary = {"forests": [{"copies": 1, "A": [[level, edges]], "occ": occ, "zero_merges": []}]}
    return forged


def test_metagraph_forged_triangle():
    # level-1 carving radii are below 1, so every level-1 cut is a singleton
    m = line_metric([0, 1, 2])
    forged = _forged_forest([[0, 1], [1, 2], [0, 2]], [[0, 1], [1, 1], [2, 1]])
    for seed in range(5):
        t = sample_frt(Terminals(m, [0, 1, 2]), seed)
        covers = tree_covers(t, forged)
        assert sorted(covers) == [1] and len(set(covers[1].values())) == 3
        assert tree_metagraph(t, forged) == ["level 1: meta-cycle via edge (0,2)"]


def test_metagraph_invalid_cover():
    m = line_metric([0, 1, 2])
    forged = _forged_forest([[0, 1]], [[0, 1], [1, 1]])
    t = sample_frt(Terminals(m, [0, 1, 2]), seed=0)
    assert sorted(tree_covers(t, forged)[1]) == [0, 1]  # only the cuts meeting X_1 = {0, 1}
    points, cover, errors = covers_from_tree(forest([t]), forged)
    cuts = cover[1].copy()
    cuts[0, points.index(1)] = -1  # a cover that leaves out an X_1 point
    [missed] = check_metagraph_acyclic(forged, (points, {1: cuts}, errors))
    assert isinstance(missed, ValueError) and str(missed) == "level 1: cover misses [1]"
    [unsupplied] = check_metagraph_acyclic(forged, (points, {}, errors))
    assert isinstance(unsupplied, ValueError) and str(unsupplied) == "no cover supplied for level 1"
    outside = _forged_forest([[0, 1], [1, 2]], [[0, 1], [1, 1]])  # 2 is in no cut meeting X_1
    with pytest.raises(ValueError, match="^level 1: edge endpoint outside the cover$"):
        tree_metagraph(t, outside)


def test_covers_reject_a_level_outside_the_tree():
    # only a forged trace names an A_j level below or above the tree's cuts
    m = line_metric([0, 1])
    t = sample_frt(Terminals(m, [0, 1]), seed=0)  # cut levels 0..1; extended, -2..1
    ext = extend_one(t)
    with pytest.raises(ValueError, match=r"^level -1 outside \[0, 1\]$"):
        tree_covers(t, _forged_forest([[0, 1]], [[0, -1], [1, -1]], level=-1))
    assert tree_covers(ext, _forged_forest([[0, 1]], [[0, -1], [1, -1]], level=-1)) == \
        {-1: dict(zip([0, 1], tree_cuts(ext, [0, 1])[1].tolist()))}
    with pytest.raises(ValueError, match=r"^level 2 outside \[-2, 1\]$"):
        tree_covers(ext, _forged_forest([[0, 1]], [[0, 2], [1, 2]], level=2))


def test_bc_metagraph_many_random():
    rng = np.random.default_rng(17)
    for trial in range(15):
        n = int(rng.integers(6, 16))
        m = euclid(rng.random((n, 2)) * rng.uniform(2, 20))
        pairs = [
            tuple(map(int, rng.choice(n, size=2, replace=False)))
            for _ in range(int(rng.integers(2, 9)))
        ]
        _, trace = run_bc_sf(m, _forest(*pairs))
        pts = sorted({p for pr in pairs for p in pr})
        t = sample_frt(Terminals(m, pts), seed=trial)
        covers = tree_covers(t, trace)
        for j, cover in covers.items():  # the level-j cuts meeting X_j, by cut id
            xj = {p for forest in trace.summary["forests"] for p, c in forest["occ"] if c >= j}
            cuts = {}
            for p, cut in cover.items():
                cuts.setdefault(cut, set()).add(p)
            assert [cuts[cut] for cut in sorted(cuts)] == [cut for cut in brute_cuts_at_level(t, j) if cut & xj]
        assert tree_metagraph(t, trace) == []
