import math

import numpy as np
import pytest

from conftest import (
    brute_cut,
    brute_pcst_cut_lower_bound,
    brute_tree_pcst,
    brute_tree_rob_multi,
    brute_tree_rob_single,
    brute_tree_sf,
    brute_tree_sn,
    edge_len,
    random_small_hst,
)
from ondesign.errors import RootNotLeaf
from ondesign.hst import Hst, check_levels, extend_singleton_levels, sample_frt
from ondesign.tree_opt import (
    opt_tree_pcst,
    opt_tree_rob_multi,
    opt_tree_rob_single,
    opt_tree_steiner_forest,
    opt_tree_steiner_network,
    opt_tree_steiner_tree,
    pcst_cut_lower_bound,
)


def minimal_tree(m):
    return sample_frt(m, [0, 1], seed=0)


def four_leaf_binary():
    """Root, two level-2 children, two level-1 leaves each: 4*1 + 2*2 = 8."""
    return Hst([-1, 0, 0, 1, 1, 2, 2], [0, 2, 2, 1, 1, 1, 1], range(4), [3, 4, 5, 6])


def three_leaf_star():
    """Root with three level-1 leaves 0, 1, 2."""
    return Hst([-1, 0, 0, 0], [0, 1, 1, 1], range(3), [1, 2, 3])


def test_opt_st_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_steiner_tree(t) == 2.0
    assert opt_tree_steiner_tree(extend_singleton_levels(t, -2)) == pytest.approx(2.75)
    assert opt_tree_steiner_tree(four_leaf_binary()) == 8.0


def test_opt_sf_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_steiner_forest(t, [(0, 1)]) == 2.0
    t4 = four_leaf_binary()
    assert opt_tree_steiner_forest(t4, []) == 0.0
    # siblings pair (0,1): only the two level-1 leaf edges
    assert opt_tree_steiner_forest(t4, [(0, 1)]) == 2.0
    assert brute_tree_sf(t4, [(0, 1)]) == 2.0


def test_opt_sn_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_steiner_network(t, [(0, 1)], [5]) == 10.0
    assert opt_tree_steiner_network(t, [(0, 1), (0, 1)], [2, 7]) == 14.0
    t4 = four_leaf_binary()
    # pair (0,1) crosses no level-2 edge: those contribute 0
    assert opt_tree_steiner_network(t4, [(0, 1)], [3]) == 6.0


def test_opt_rob_multi_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_rob_multi(t, [(0, 1)], 3) == 2.0
    assert opt_tree_rob_multi(t, [(0, 1)] * 5, 3) == 6.0
    assert opt_tree_rob_multi(t, [(0, 1)] * 5, 0) == 0.0


def test_opt_rob_single_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_rob_single(t, 0, 4) == 1.0  # root chain excluded
    assert opt_tree_rob_single(t, 0, 0.5) == 0.5
    t3 = three_leaf_star()
    assert opt_tree_rob_single(t3, 0, 10) == 2.0
    with pytest.raises(RootNotLeaf):
        opt_tree_rob_single(t3, 9, 1)


def test_opt_rob_single_weights(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_rob_single(t, 0, 4, weights={1: 3}) == 3.0
    assert opt_tree_rob_single(t, 0, 4, weights={1: 7}) == 4.0  # capped at M


def test_opt_pcst_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_pcst(t, 0, [(1, 0.5)]) == 0.5
    assert opt_tree_pcst(t, 0, [(1, 3.0)]) == 2.0
    t3 = three_leaf_star()
    assert opt_tree_pcst(t3, 0, [(1, 1.5), (2, 1.5)]) == 3.0
    with pytest.raises(RootNotLeaf):
        opt_tree_pcst(t3, 9, [])


def test_pcst_coincident_penalties_accumulate(two_point_metric):
    t = minimal_tree(two_point_metric)
    # two occurrences at leaf 1: paying both (1.2) beats connecting (2.0)
    assert opt_tree_pcst(t, 0, [(1, 0.6), (1, 0.6)]) == pytest.approx(1.2)
    assert opt_tree_pcst(t, 0, [(1, 1.5), (1, 1.5)]) == 2.0


def test_oracles_match_brute_force_on_random_trees():
    rng = np.random.default_rng(123)
    for _ in range(120):
        m, t = random_small_hst(rng)
        pts = list(t.terminals)
        k = len(pts)
        pairs = [
            tuple(rng.choice(pts, size=2, replace=False)) for _ in range(int(rng.integers(0, 5)))
        ]
        pairs = [(int(a), int(b)) for a, b in pairs]
        reqs = [int(rng.integers(1, 9)) for _ in pairs]
        M = float(rng.choice([0.0, 0.3, 1.0, 2.0, 2.7, 3.5, 100.0]))
        r = int(pts[0])
        pen = [(int(p), float(rng.uniform(0, 8))) for p in pts if p != r]

        # the references add the same edge terms in node-id order: equal to the bit
        assert opt_tree_steiner_forest(t, pairs) == brute_tree_sf(t, pairs)
        assert opt_tree_steiner_network(t, pairs, reqs) == brute_tree_sn(t, pairs, reqs)
        assert opt_tree_rob_multi(t, pairs, M) == brute_tree_rob_multi(t, pairs, M)
        assert opt_tree_rob_single(t, r, M) == pytest.approx(brute_tree_rob_single(t, r, M))
        assert opt_tree_pcst(t, r, pen) == pytest.approx(brute_tree_pcst(t, r, pen))


def test_monotonicity_in_requests():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, t = random_small_hst(rng, extended_chance=0.0)
        pts = list(t.terminals)
        pairs = [tuple(map(int, rng.choice(pts, size=2, replace=False))) for _ in range(3)]
        assert opt_tree_steiner_forest(t, pairs[:2]) <= opt_tree_steiner_forest(t, pairs)
        assert opt_tree_rob_multi(t, pairs[:2], 2.0) <= opt_tree_rob_multi(t, pairs, 2.0)
        pen = [(int(p), 1.0) for p in pts[1:]]
        assert opt_tree_pcst(t, pts[0], pen[:1]) <= opt_tree_pcst(t, pts[0], pen)


def test_rob_multi_sentinels():
    # Buying at parity (M = 1) is exactly the Steiner forest indicator sum;
    # M = inf forbids buying, so every separated pair rents the edge.
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, t = random_small_hst(rng)
        pts = list(t.terminals)
        pairs = [tuple(map(int, rng.choice(pts, size=2, replace=False))) for _ in range(4)]
        ind = sum(
            edge_len(t, e)
            for e in range(1, t.n_nodes)
            if any((s in brute_cut(t, e)) != (u in brute_cut(t, e)) for s, u in pairs)
        )
        assert opt_tree_rob_multi(t, pairs, 1) == pytest.approx(ind)
        assert opt_tree_rob_multi(t, pairs, 1) == pytest.approx(
            opt_tree_steiner_forest(t, pairs)
        )
        rent_all = sum(
            edge_len(t, e)
            * sum(1 for s, u in pairs if (s in brute_cut(t, e)) != (u in brute_cut(t, e)))
            for e in range(1, t.n_nodes)
        )
        assert opt_tree_rob_multi(t, pairs, math.inf) == pytest.approx(rent_all)


def test_rob_single_vs_multi_cross_check():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m, t = random_small_hst(rng)
        pts = list(t.terminals)
        r = pts[0]
        terms = [p for p in pts[1:]]
        M = float(rng.choice([1.0, 2.0, 5.0]))
        pairs = [(p, r) for p in terms]
        multi = 0.0
        for e in range(1, t.n_nodes):
            cut = brute_cut(t, e)
            if r in cut:
                continue  # restrict to edges not above r
            crossing = sum(1 for s, u in pairs if (s in cut) != (u in cut))
            multi += edge_len(t, e) * min(M, crossing)
        assert opt_tree_rob_single(t, r, M) == pytest.approx(multi)


def test_pcst_cut_lower_bound_matches_reference():
    # non-dyadic penalties: the per-cut sums and the total keep their order
    rng = np.random.default_rng(31)
    for _ in range(40):
        m, t = random_small_hst(rng, max_leaves=12, extended_chance=0.8)
        pts = list(t.terminals)
        r = pts[int(rng.integers(len(pts)))]
        rows = {}
        for p in pts + [max(pts) + 1]:  # the last is no terminal: in no cut
            klass = int(rng.integers(-1, t.root_level + 2))
            rows.setdefault(klass, []).append((p, 1.0, float(rng.choice([0.0, 0.3, 2.7, rng.uniform(0, 9)]))))
        assert pcst_cut_lower_bound(t, r, rows) == brute_pcst_cut_lower_bound(t, r, rows, check_levels(t))
