import math

import numpy as np
import pytest

from conftest import (
    brute_cut,
    brute_levels,
    brute_pcst_cut_lower_bound,
    brute_tree_pcst,
    brute_tree_rob_multi,
    brute_tree_rob_single,
    brute_tree_sf,
    brute_tree_sn,
    check_forest_walk,
    client_load,
    cut_levels,
    edge_len,
    extend_one,
    forest,
    per_tree,
    random_small_hst,
    ref_cut_load,
    ref_extend,
    ref_tree_pcst,
    tree_views,
)
from ondesign.generators import gen_euclidean, gen_graph_metric
from ondesign.hst import (
    Hst,
    Terminals,
    _promote_one_level,
    class_cuts,
    cut_load,
    extend_singleton_levels,
    sample_frt,
    validate_hst,
)
from ondesign.metric import build_metric
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
    return sample_frt(Terminals(m, [0, 1]), seed=0)


def four_leaf_binary():
    """Root, two level-2 children, two level-1 leaves each: 4*1 + 2*2 = 8."""
    return Hst([-1, 0, 0, 1, 1, 2, 2], [0, 2, 2, 1, 1, 1, 1], range(4), [3, 4, 5, 6])


def three_leaf_star():
    """Root with three level-1 leaves 0, 1, 2."""
    return Hst([-1, 0, 0, 0], [0, 1, 1, 1], range(3), [1, 2, 3])


def test_opt_st_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_steiner_tree(forest([t])) == [2.0]
    assert opt_tree_steiner_tree(forest([extend_one(t)])) == [2.75]
    assert opt_tree_steiner_tree(forest([four_leaf_binary()])) == [8.0]
    assert opt_tree_steiner_tree(forest([t, extend_one(t), t])) == [2.0, 2.75, 2.0]


def test_opt_sf_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_steiner_forest(forest([t]), [(0, 1)])[0] == 2.0
    t4 = four_leaf_binary()
    assert opt_tree_steiner_forest(forest([t4]), [])[0] == 0.0
    # siblings pair (0,1): only the two level-1 leaf edges
    assert opt_tree_steiner_forest(forest([t4]), [(0, 1)])[0] == 2.0
    assert brute_tree_sf(t4, [(0, 1)]) == 2.0


def test_opt_sn_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_steiner_network(forest([t]), [(0, 1)], [5])[0] == 10.0
    assert opt_tree_steiner_network(forest([t]), [(0, 1), (0, 1)], [2, 7])[0] == 14.0
    t4 = four_leaf_binary()
    # pair (0,1) crosses no level-2 edge: those contribute 0
    assert opt_tree_steiner_network(forest([t4]), [(0, 1)], [3])[0] == 6.0


def test_opt_rob_multi_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_rob_multi(forest([t]), cut_load(forest([t]), [(0, 1)]), 3)[0] == 2.0
    assert opt_tree_rob_multi(forest([t]), cut_load(forest([t]), [(0, 1)] * 5), 3)[0] == 6.0
    assert opt_tree_rob_multi(forest([t]), cut_load(forest([t]), [(0, 1)] * 5), 0)[0] == 0.0


def test_opt_rob_single_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_rob_single(forest([t]), 0, 4, client_load(t, 0, [0, 1]))[0] == 1.0  # root chain excluded
    assert opt_tree_rob_single(forest([t]), 0, 0.5, client_load(t, 0, [1]))[0] == 0.5
    t3 = three_leaf_star()
    assert opt_tree_rob_single(forest([t3]), 0, 10, client_load(t3, 0, [1, 2]))[0] == 2.0
    with pytest.raises(ValueError, match="^root 9 is not a leaf of the tree$"):
        opt_tree_rob_single(forest([t3]), 9, 1, client_load(t3, 9, [1]))[0]


def test_opt_rob_single_weights(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_rob_single(forest([t]), 0, 4, client_load(t, 0, [1, 1, 1]))[0] == 3.0
    assert opt_tree_rob_single(forest([t]), 0, 4, client_load(t, 0, [1] * 7))[0] == 4.0  # capped at M


def test_opt_pcst_examples(two_point_metric):
    t = minimal_tree(two_point_metric)
    assert opt_tree_pcst(forest([t]), 0, [(1, 0.5)])[0] == 0.5
    assert opt_tree_pcst(forest([t]), 0, [(1, 3.0)])[0] == 2.0
    t3 = three_leaf_star()
    assert opt_tree_pcst(forest([t3]), 0, [(1, 1.5), (2, 1.5)])[0] == 3.0
    with pytest.raises(ValueError, match="^root 9 is not a leaf of the tree$"):
        opt_tree_pcst(forest([t3]), 9, [])[0]


def test_pcst_coincident_penalties_accumulate(two_point_metric):
    t = minimal_tree(two_point_metric)
    # two occurrences at leaf 1: paying both (1.2) beats connecting (2.0)
    assert opt_tree_pcst(forest([t]), 0, [(1, 0.6), (1, 0.6)])[0] == pytest.approx(1.2)
    assert opt_tree_pcst(forest([t]), 0, [(1, 1.5), (1, 1.5)])[0] == 2.0


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
        assert opt_tree_steiner_forest(forest([t]), pairs)[0] == brute_tree_sf(t, pairs)
        assert opt_tree_steiner_network(forest([t]), pairs, reqs)[0] == brute_tree_sn(t, pairs, reqs)
        assert opt_tree_rob_multi(forest([t]), cut_load(forest([t]), pairs), M)[0] == brute_tree_rob_multi(t, pairs, M)
        assert opt_tree_rob_single(forest([t]), r, M, client_load(t, r, pts))[0] == pytest.approx(brute_tree_rob_single(t, r, M, pts))
        assert opt_tree_pcst(forest([t]), r, pen)[0] == pytest.approx(brute_tree_pcst(t, r, pen))


def test_pcst_matches_reference_dp_exactly():
    # non-dyadic penalties, some coincident occurrences and some at a point
    # that is no terminal: the sums keep the reference's order to the bit
    rng = np.random.default_rng(41)
    for trial in range(60):
        m, t = random_small_hst(rng, max_leaves=10, extended_chance=0.0 if trial % 2 else 1.0)
        pts = list(t.terminals)
        pen = [(int(rng.choice(pts + [max(pts) + 1])), float(rng.choice([0.0, 0.3, 2.7, rng.uniform(0, 40)])))
               for _ in range(int(rng.integers(0, 14)))]
        for r in pts:
            assert opt_tree_pcst(forest([t]), r, pen)[0] == ref_tree_pcst(t, r, pen)


def test_monotonicity_in_requests():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, t = random_small_hst(rng, extended_chance=0.0)
        pts = list(t.terminals)
        pairs = [tuple(map(int, rng.choice(pts, size=2, replace=False))) for _ in range(3)]
        assert opt_tree_steiner_forest(forest([t]), pairs[:2])[0] <= opt_tree_steiner_forest(forest([t]), pairs)[0]
        assert opt_tree_rob_multi(forest([t]), cut_load(forest([t]), pairs[:2]), 2.0)[0] <= opt_tree_rob_multi(forest([t]), cut_load(forest([t]), pairs), 2.0)[0]
        pen = [(int(p), 1.0) for p in pts[1:]]
        assert opt_tree_pcst(forest([t]), pts[0], pen[:1])[0] <= opt_tree_pcst(forest([t]), pts[0], pen)[0]


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
        assert opt_tree_rob_multi(forest([t]), cut_load(forest([t]), pairs), 1)[0] == pytest.approx(ind)
        assert opt_tree_rob_multi(forest([t]), cut_load(forest([t]), pairs), 1)[0] == pytest.approx(
            opt_tree_steiner_forest(forest([t]), pairs)[0]
        )
        rent_all = sum(
            edge_len(t, e)
            * sum(1 for s, u in pairs if (s in brute_cut(t, e)) != (u in brute_cut(t, e)))
            for e in range(1, t.n_nodes)
        )
        assert opt_tree_rob_multi(forest([t]), cut_load(forest([t]), pairs), math.inf)[0] == pytest.approx(rent_all)


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
        assert opt_tree_rob_single(forest([t]), r, M, client_load(t, r, pts))[0] == pytest.approx(multi)


def test_pcst_cut_lower_bound_matches_reference():
    # non-dyadic penalties: the per-cut sums and the total keep their order
    rng = np.random.default_rng(31)
    for _ in range(40):
        m, t = random_small_hst(rng, max_leaves=12, extended_chance=0.8)
        pts = list(t.terminals)
        r = pts[int(rng.integers(len(pts)))]
        rows = {}
        for p in pts + [max(pts) + 1]:  # the last is no terminal: in no cut
            klass = int(rng.integers(-1, brute_levels(t)[1] + 2))
            rows.setdefault(klass, []).append((p, 1.0, float(rng.choice([0.0, 0.3, 2.7, rng.uniform(0, 9)]))))
        lb = pcst_cut_lower_bound(class_cuts(forest([t]), rows, 1, r))
        assert lb == [brute_pcst_cut_lower_bound(t, r, rows, cut_levels(t))]


def _forest_batches(rng):
    """(points, one batch of trees sharing their terminal set): sampled trees,
    some promoted by the sampler and two by hand (one level taller), on
    distinct, graph-closure and coincident points (aliases); and a one-leaf
    set, whose extension drops its base row.  Validated as verify_run does."""
    for k in (2, 3, 5, 8):
        xy = rng.random((k, 2)) * rng.uniform(1.0, 30.0)
        cases = [
            (gen_euclidean(k, seed=k)[0], list(range(k))),
            (gen_graph_metric(max(k, 3), seed=k), list(range(max(k, 3)))),
            (build_metric(np.vstack([xy, xy[::2]]), "points"), list(range(k + len(xy[::2])))),
        ]
        for m, points in cases:
            terms = Terminals(m, points)
            trees = [sample_frt(terms, seed) for seed in rng.integers(0, 2**40, size=3).tolist()]
            trees[1:1] = [_promote_one_level(trees[0]), _promote_one_level(trees[-1])]
            assert validate_hst(trees, m).messages == [[]] * len(trees)
            yield points, trees
    m = build_metric([[0, 0], [0, 0], [3, 4], [0, 0]], "points")
    trees = [sample_frt(Terminals(m, [0, 1, 3]), seed) for seed in range(3)]
    assert validate_hst(trees, m).messages == [[]] * 3 and trees[0].aliases == ((1, 0), (3, 0))
    yield [0, 1, 3], trees


def test_forest_oracles_match_per_tree_references_bit_for_bit():
    # every step of the batched extension, loads and oracles against its
    # per-tree reference; dyadic M keeps the enumerating rent-or-buy
    # reference exact, non-dyadic penalties test the PCST sums' order
    rng = np.random.default_rng(61)
    heights = set()
    for points, trees in _forest_batches(rng):
        base = forest(trees)
        ext = extend_singleton_levels(base)
        for t, e in zip(trees, tree_views(ext), strict=True):
            ref = ref_extend(t)
            assert [a.tolist() for a in (e.parent, e.edge_level, e.leaf)] == \
                [a.tolist() for a in (ref.parent, ref.edge_level, ref.leaf)]
            assert (e.terminals, e.aliases, brute_levels(e)) == (ref.terminals, ref.aliases, brute_levels(ref))
            heights.add(len(cut_levels(t)))
        check_forest_walk(ext)
        terms = list(trees[0].terminals)
        outside = max(points) + 1
        pairs = [tuple(int(p) for p in rng.choice(terms, size=2)) for _ in range(int(rng.integers(1, 6)))]
        reqs = [int(rng.integers(1, 9)) for _ in pairs]
        M = float(rng.choice([0.0, 1.0, 2.0, 3.5, 6.0, 10.0]))
        r = terms[int(rng.integers(len(terms)))]
        clients = [p for p, _ in pairs]
        load_pairs = pairs + [(int(p), terms[0]) for p in points] + [(outside, terms[-1])]
        pen = [(int(p), float(rng.choice([0.0, 0.3, 2.7, rng.uniform(0, 40)])))
               for p in rng.choice(points + [outside], size=int(rng.integers(0, 12)))]
        for f in (base, ext):
            views = tree_views(f)
            assert opt_tree_steiner_tree(f) == [sum(edge_len(t, nid) for nid in range(1, t.n_nodes)) for t in views]
            assert [load.tolist() for load in per_tree(f, cut_load(f, load_pairs))] == \
                [ref_cut_load(t, load_pairs) for t in views]
            assert opt_tree_steiner_forest(f, pairs) == [brute_tree_sf(t, pairs) for t in views]
            assert opt_tree_steiner_network(f, pairs, reqs) == [brute_tree_sn(t, pairs, reqs) for t in views]
            assert opt_tree_rob_multi(f, cut_load(f, pairs), M) == [brute_tree_rob_multi(t, pairs, M) for t in views]
            assert opt_tree_rob_single(f, r, M, cut_load(f, [(c, r) for c in clients])) == \
                [brute_tree_rob_single(t, r, M, clients) for t in views]
            assert opt_tree_pcst(f, r, pen) == [ref_tree_pcst(t, r, pen) for t in views]
    assert len(heights) >= 6
