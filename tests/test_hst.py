import hashlib
import json
import signal

import numpy as np
import pytest

from conftest import (
    brute_cut,
    brute_cuts_at_level,
    brute_levels,
    brute_validate_hst,
    check_forest_walk,
    cut_levels,
    edge_len,
    euclid,
    extend_one,
    forest,
    id_cuts,
    line_metric,
    path_edges,
    random_small_hst,
    ref_class_cuts,
    ref_extend,
    ref_sample_frt,
    same_nodes,
    tree_cuts,
    tree_groups,
    tree_json,
    tree_views,
)
from ondesign import hst
from ondesign.hst import (
    FOREST_PAIRS,
    Hst,
    Terminals,
    _promote_one_level,
    class_cuts,
    extend_singleton_levels,
    path_cuts,
    sample_frt,
    tree_distance,
    validate_hst,
)
from ondesign.generators import gen_euclidean, gen_graph_metric
from ondesign.metric import MetricSpace, build_metric, floor_log2
from ondesign.verify import tree_points
from test_acceptance import PROBLEMS, _instance


def _distance(t, u, v):
    """tree_distance in t as a forest of one."""
    return tree_distance(forest([t]), 0, u, v)


def test_two_terminal_minimal_shape(two_point_metric):
    # unique minimal HST: root plus two level-1 edges of length 1
    for seed in range(5):
        t = sample_frt(Terminals(two_point_metric, [0, 1]), seed)
        assert t.n_nodes == 3
        assert t.edge_level[1] == t.edge_level[2] == 1
        assert _distance(t, 0, 1) == 2.0
        assert validate_hst([t], two_point_metric).messages[0] == []


def test_single_terminal_degenerate(two_point_metric):
    t = sample_frt(Terminals(two_point_metric, [0]), seed=3)
    assert t.n_nodes == 1
    assert t.terminals == (0,)
    assert _distance(t, 0, 0) == 0.0


def test_empty_terminals_rejected(two_point_metric):
    with pytest.raises(ValueError, match="^need at least one terminal$"):
        sample_frt(Terminals(two_point_metric, []), seed=0)


def test_unnormalized_metric_rejected():
    m = MetricSpace(d=np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(ValueError, match=r"^metric not normalized: d\(0,1\)=0\.5 < 1$"):
        sample_frt(Terminals(m, [0, 1]), seed=0)


def test_coincident_points_collapse_onto_one_terminal():
    # 0 and 1 share a position: the tree for [0, 1, 2] is the tree for [0, 2]
    # with 1 an alias of 0, and every lookup by point resolves 1 to 0's column
    m = build_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]], "matrix")
    for seed in range(4):
        t, base = sample_frt(Terminals(m, [2, 1, 0, 1]), seed), sample_frt(Terminals(m, [0, 2]), seed)
        assert (t.terminals, t.aliases, base.aliases) == ((0, 2), ((1, 0),), ())
        assert [a.tolist() for a in (t.parent, t.edge_level, t.leaf)] == \
            [a.tolist() for a in (base.parent, base.edge_level, base.leaf)]
        assert forest([t]).columns([1, 0, 2, 7]).tolist() == [0, 0, 1, -1]
        assert tree_cuts(t, [1, 2]).tolist() == tree_cuts(t, [0, 2]).tolist()
        [groups] = tree_groups(forest([t]), class_cuts(forest([t]), {1: [(1, "a"), (0, "b")]}, 0))
        assert [(j, cut, inside) for j, cut, _, inside in groups] == \
            [(1, int(tree_cuts(t, [0])[cut_levels(t).index(1), 0]), [(1, "a"), (0, "b")])]
        assert _distance(t, 1, 2) == _distance(t, 0, 2) and _distance(t, 1, 0) == 0.0
        assert json.loads(tree_json(t))["leaf_map"] == {"0": int(t.leaf[0]), "1": int(t.leaf[0]), "2": int(t.leaf[1])}
        for tree in (t, extend_one(t), _promote_one_level(t)):
            assert tree.aliases == ((1, 0),) and forest([tree]).columns([1]).tolist() == [0]
            assert validate_hst([tree], m).messages[0] == []


def test_first_bad_pair_is_named():
    # pairs are scanned in (u, v) order: a closer pair further on is not named
    with pytest.raises(ValueError, match=r"d\(0,1\)=0.5 < 1"):
        sample_frt(Terminals(line_metric([0, 0.5, 3, 3]), range(4)), seed=0)
    # 2 is an alias of 1, so the scan over the terminals 0, 1, 3 names (1, 3)
    with pytest.raises(ValueError, match=r"d\(1,3\)=0.5 < 1"):
        sample_frt(Terminals(line_metric([0, 2, 2, 2.5]), range(4)), seed=0)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("j", [2, 3, 4])
def test_carving_radius_is_closed(seed, j):
    # beta drawn as sample_frt draws it; points 0 and 1 sit exactly at the
    # level-j radius beta * 2^(j-2), point 2 outside every ball below the top
    beta = 2.0 ** np.random.default_rng(np.random.SeedSequence(seed)).random()
    radius = beta * 2.0 ** (j - 2)
    m = line_metric([0.0, radius, 3.5 * radius])
    t = sample_frt(Terminals(m, range(3)), seed)
    assert validate_hst([t], m).messages[0] == []
    assert frozenset({0, 1}) in id_cuts(t, j)
    assert frozenset({0, 1}) not in id_cuts(t, j - 1)


def test_line_four_points_valid():
    m = line_metric([0, 1, 2, 3])
    for seed in range(30):
        t = sample_frt(Terminals(m, range(4)), seed)
        assert validate_hst([t], m).messages[0] == []


def test_sampler_deterministic(two_point_metric):
    m = euclid(np.random.default_rng(0).random((9, 2)))
    a = tree_json(sample_frt(Terminals(m, range(9)), seed=1234))
    b = tree_json(sample_frt(Terminals(m, range(9)), seed=1234))
    assert a == b
    c = tree_json(sample_frt(Terminals(m, range(9)), seed=1235))
    assert isinstance(json.loads(c), dict)


def test_validate_flags_shrunk_leaf_edges(two_point_metric):
    t = Hst([-1, 0, 0], [0, -1, -1], (0, 1), [1, 2])  # length 1/4 edges: T = 0.5 < d = 1
    bad = validate_hst([t], two_point_metric).messages[0]
    assert any("expanding" in v for v in bad)


def test_validate_flags_cut_diameter():
    # two terminals at distance 3 below one level-1 edge: 3 >= 2^1
    m = line_metric([0, 3])
    t = Hst([-1, 0, 1, 1], [0, 1, 0, 0], (0, 1), [2, 3])
    bad = validate_hst([t], m).messages[0]
    assert any("cut diameter" in v for v in bad)


@pytest.mark.parametrize("arrays, message", [
    # a third level-1 node under the root with no terminal
    (([-1, 0, 0, 0], [0, 1, 1, 1], (0, 1), [1, 2]), "leaves: childless node 3 maps to no terminal"),
    # terminal 0 sits on node 1, the parent of terminal 1's leaf
    (([-1, 0, 1], [0, 2, 1], (0, 1), [1, 2]), "leaves: node 1 is both internal and a terminal leaf"),
    # two terminals on one leaf, and one terminal on two leaves
    (([-1, 0, 0], [0, 1, 1], (0, 1), [1, 1]), "leaves: terminal-to-leaf map is not a bijection"),
    (([-1, 0, 0], [0, 1, 1], (0, 0), [1, 2]), "leaves: terminal-to-leaf map is not a bijection"),
])
def test_validate_flags_leaf_map(arrays, message):
    m = line_metric([0, 1])
    t = Hst(*arrays)
    bad = validate_hst([t], m).messages[0]
    assert message in bad
    assert sorted(bad) == sorted(brute_validate_hst(t, m))


# (metric positions, Hst arguments, one message validate_hst must report)
VALIDATE_MESSAGES = {
    "levels: siblings": ([0, 1], ([-1, 0, 0], [0, 1, 2], (0, 1), [1, 2]),
                         "levels: children of node 0 at differing edge lengths"),
    "levels: no drop": ([0, 1], ([-1, 0, 1, 1], [0, 1, 1, 1], (0, 1), [2, 3]),
                        "levels: edge level does not decrease at node 2"),
    # the same tree: terminal 0's path passes two level-1 edges
    "partition": ([0, 1], ([-1, 0, 1, 1], [0, 1, 1, 1], (0, 1), [2, 3]),
                  "partition: level-1 cuts do not partition the terminals"),
    "singletons": ([0, 1], ([-1, 0, 1, 1], [0, 0, -1, -1], (0, 1), [2, 3]),
                   "singletons: level-0 cut has 2 terminals"),
    "cut diameter": ([0, 5], ([-1, 0, 1, 1], [0, 2, 1, 1], (0, 1), [2, 3]),
                     "cut diameter: d(0,1)=5 >= 2^2 under a level-2 edge"),
    "expanding": ([0, 5], ([-1, 0, 1, 1], [0, 2, 1, 1], (0, 1), [2, 3]), "expanding: T(0,1)=2 < d=5"),
    "alias elsewhere": ([0, 1, 1], ([-1, 0, 0], [0, 1, 1], (0, 1), [1, 2], [(2, 0)]),
                        "aliases: point 2 is not a non-terminal coincident with terminal 0"),
    "alias is a terminal": ([0, 1, 0], ([-1, 0, 0], [0, 1, 1], (0, 1), [1, 2], [(1, 0)]),
                            "aliases: point 1 is not a non-terminal coincident with terminal 0"),
    "alias of no terminal": ([0, 1, 1, 1], ([-1, 0, 0], [0, 1, 1], (0, 1), [1, 2], [(3, 2)]),
                             "aliases: point 3 is not a non-terminal coincident with terminal 2"),
}


@pytest.mark.parametrize("positions, arrays, message", VALIDATE_MESSAGES.values(), ids=VALIDATE_MESSAGES)
def test_validate_hst_message_fires(positions, arrays, message):
    m = line_metric(positions)
    t = Hst(*arrays)
    bad = validate_hst([t], m).messages[0]
    assert message in bad
    assert sorted(bad) == sorted(brute_validate_hst(t, m))


def test_cuts_examples(two_point_metric):
    t = sample_frt(Terminals(two_point_metric, [0, 1]), seed=0)  # root, then leaves 1 and 2 at level 1
    assert (forest([t]).lows.tolist(), forest([t]).root_levels.tolist()) == ([0], [1])
    assert tree_cuts(t, [0, 1]).tolist() == [[3, 4], [1, 2]]  # level 0: implicit singletons, n_nodes + column
    assert tree_cuts(t, [1, 7, None, 0, 1]).tolist() == [[4, -1, -1, 3, 4], [2, -1, -1, 1, 2]]
    assert tree_cuts(t, []).shape == (2, 0)
    aliased = Hst(t.parent, t.edge_level, t.terminals, t.leaf, aliases=[(5, 1)])  # 5 sits on 1
    assert tree_cuts(aliased, [5, 1, 0]).tolist() == [[4, 4, 3], [2, 2, 1]]
    ext = extend_one(t)
    assert (forest([ext]).lows.tolist(), forest([ext]).root_levels.tolist()) == ([-2], [1])
    assert sorted(map(set, id_cuts(ext, -1))) == [{0}, {1}]
    assert sorted(map(set, id_cuts(ext, -2))) == [{0}, {1}]
    assert tree_cuts(ext, [1, 7, 0]).tolist() == [[6, -1, 4], [5, -1, 3], [8, -1, 7], [2, -1, 1]]  # chains 3-4, 5-6


def test_path_cuts_examples(two_point_metric):
    t = sample_frt(Terminals(two_point_metric, [0, 1]), seed=0)  # {0}, {1}: cuts 1, 2 at level 1, 3, 4 at level 0
    cut, which = path_cuts(forest([t]), [(0, 1), (1, 1), (1, 7)])
    # a pair on one leaf crosses no cut; an end outside the tree (point 7) is
    # in none, so its pair crosses only the cuts of its other end
    assert sorted(zip(which.tolist(), cut.tolist())) == [(0, 1), (0, 2), (0, 3), (0, 4), (2, 2), (2, 4)]
    assert path_cuts(forest([t]), [])[0].tolist() == []


def test_class_cuts_group_entries_by_reference_cut():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m, t = random_small_hst(rng)
        points = list(t.terminals) + [m.n + 1, None]  # two points in no cut
        by_class = {c: [(points[int(i)], n) for n, i in enumerate(rng.integers(0, len(points), 6))]
                    for c in range(-2, brute_levels(t)[1] + 3) if rng.random() < 0.7}
        shift, root = int(rng.integers(0, 3)), points[int(rng.integers(0, len(points)))]
        expect = []
        for j in cut_levels(t):
            for cut in brute_cuts_at_level(t, j):
                inside = [e for e in by_class.get(j + shift, []) if e[0] in cut]
                if inside:
                    expect.append((j, root in cut, inside))
        [groups] = tree_groups(forest([t]), class_cuts(forest([t]), by_class, shift, root))
        assert [(j, held, inside) for j, _, held, inside in groups] == expect
        if brute_levels(t)[0] == 0:  # trees of one forest whose lowest and highest levels differ
            f = forest([extend_one(t), _promote_one_level(t), t])
            assert tree_groups(f, class_cuts(f, by_class, shift, root)) == \
                [ref_class_cuts(u, by_class, shift, root) for u in tree_views(f)]


def test_cuts_partition_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, t = random_small_hst(rng)
        for j in cut_levels(t):
            cuts = id_cuts(t, j)
            pts = [p for c in cuts for p in c]
            assert sorted(pts) == sorted(t.terminals)


def test_extension_arithmetic(two_point_metric):
    t = sample_frt(Terminals(two_point_metric, [0, 1]), seed=0)
    ext = extend_one(t)
    assert forest([ext]).length.sum() == pytest.approx(2 + 2 * (0.25 + 0.125))
    assert _distance(ext, 0, 1) == pytest.approx(2.75)
    assert validate_hst([ext], two_point_metric).messages[0] == []
    with pytest.raises(ValueError, match="^tree already extended to -2$"):
        extend_one(ext)


def test_extension_single_leaf(two_point_metric):
    t = sample_frt(Terminals(two_point_metric, [0]), seed=0)
    ext = extend_one(t)
    assert ext.n_nodes == 3  # chain of two edges below the root leaf
    assert forest([ext]).length.sum() == pytest.approx(0.375)


def test_tree_distance_siblings_level2():
    m = line_metric([0, 3])
    t = Hst([-1, 0, 0], [0, 2, 2], (0, 1), [1, 2])
    assert _distance(t, 0, 1) == 4.0
    # leaves hang at level 2 directly; the level-1 cuts are implicit singletons
    assert sorted(map(set, id_cuts(t, 1))) == [{0}, {1}]
    assert validate_hst([t], m).messages[0] == []


def test_unknown_leaf():
    m = line_metric([0, 1])
    t = sample_frt(Terminals(m, [0, 1]), seed=0)
    with pytest.raises(ValueError, match="^0 or 7 is not a leaf terminal$"):
        _distance(t, 0, 7)
    # a negative point, one past the metric (and past the column map), None
    for u, v in [(-1, 0), (1, -2), (0, m.n), (m.n + 5, 1), (None, 0), (1, None)]:
        with pytest.raises(ValueError, match=f"^{u} or {v} is not a leaf terminal$"):
            _distance(t, u, v)


def test_tree_distance_reads_tree_g_of_a_forest():
    # trees of four node counts in one forest: tree g's distances are its
    # own path sums, so each tree's node offset is read
    m = line_metric([0, 1, 3, 5])
    t = sample_frt(Terminals(m, range(4)), 0)
    trees = [_skipped_level_tree(), t, extend_one(t), _promote_one_level(t)]
    f = forest(trees)
    assert len(set(f.sizes.tolist())) == len(trees)
    for g, tree in enumerate(trees):
        for u in range(4):
            for v in range(4):
                walked = sum(edge_len(tree, e) for e in path_edges(tree, u, v)) if u != v else 0.0
                assert tree_distance(f, g, u, v) == _distance(tree, u, v) == walked


def _skipped_level_tree():
    """Hand-built: leaves 0 and 1 under a level-3 node, 2 straight below the
    root at level 3, 3 under a level-3 node by a level-1 edge (level 2 skipped)."""
    return Hst([-1, 0, 1, 1, 0, 0, 5], [0, 3, 2, 2, 3, 3, 1], (0, 1, 2, 3), [2, 3, 4, 6])


def test_cut_ids_group_into_the_reference_cuts():
    # sampled, extended, promoted and hand-built skipped-level trees
    rng = np.random.default_rng(13)
    trees = [_skipped_level_tree()]
    for k in (2, 3, 5, 8, 13, 21, 30):
        m = gen_euclidean(k, seed=k)[0]
        t = sample_frt(Terminals(m, range(k)), int(rng.integers(0, 2**40)))
        trees += [t, extend_one(t), _promote_one_level(t)]
    for t in trees:
        pts = t.terminals
        cuts = tree_cuts(t, pts)
        assert cuts.shape == (len(cut_levels(t)), len(pts))
        for row, j in enumerate(cut_levels(t)):
            assert id_cuts(t, j) == brute_cuts_at_level(t, j)
            for q, (p, cut) in enumerate(zip(pts, cuts[row].tolist())):
                if cut < t.n_nodes:
                    assert t.edge_level[cut] == j and p in brute_cut(t, cut)
                else:
                    assert cut == t.n_nodes + q
    skipped = trees[0]
    assert id_cuts(skipped, 2) == [frozenset([0]), frozenset([1]), frozenset([2]), frozenset([3])]
    assert id_cuts(skipped, 1) == [frozenset([3]), frozenset([0]), frozenset([1]), frozenset([2])]


def _copy(t):
    """t rebuilt from its arrays: the same tree, as a new object."""
    return Hst(t.parent, t.edge_level, t.terminals, t.leaf, t.aliases)


def test_cut_ids_are_the_parent_walk():
    # sampled (some promoted by the sampler), promoted and extended trees, on
    # distinct, graph-closure and coincident points: the forest validate_hst
    # returns (pairs compared in one chunk, or in several at k = 60), the one
    # of each tree validated alone, a Forest built from the trees, and the
    # extension of each hold the reference cuts and levels, and the
    # extension's derived tensor is the walk of the extended trees
    rng = np.random.default_rng(41)
    seen = {"promoted": 0, "aliased": 0, "forests": 0}
    for k in (1, 2, 3, 5, 9, 17, 30, 60):
        xy = rng.random((k, 2)) * rng.uniform(1.0, 40.0)
        cases = [
            (gen_euclidean(k, seed=k)[0], range(k)),
            (gen_graph_metric(max(k, 2), seed=k), range(max(k, 2))),
            (build_metric(np.vstack([xy, xy[::2]]), "points"), rng.permutation(k + len(xy[::2])).tolist()),
        ]
        for m, points in cases:
            terms = Terminals(m, points)
            trees = [sample_frt(terms, seed) for seed in rng.integers(0, 2**40, size=24).tolist()]
            trees += [_promote_one_level(t) for t in trees[:3]]
            seen["promoted"] += sum(len(terms.levels) > 0 and brute_levels(t)[1] > terms.levels[0] for t in trees)
            seen["aliased"] += bool(terms.aliases)
            seen["forests"] += len(trees) > FOREST_PAIRS // len(terms.terminals) ** 2
            checked = validate_hst(trees, m)
            assert checked.messages == [[]] * len(trees) and same_nodes(checked.forest, forest(trees))
            alone = [validate_hst([t], m) for t in trees]
            assert all(one.messages == [[]] and same_nodes(one.forest, forest([t])) for one, t in zip(alone, trees))
            for f in [checked.forest, forest(trees)] + [one.forest for one in alone]:
                check_forest_walk(f)
                # the extension derives its node arrays and tensor from f's:
                # the forest of the extended trees, each extended alone and
                # by the list reference, holds the same arrays, and a fresh
                # walk of it finds the same tensor
                ext, views = extend_singleton_levels(f), tree_views(f)
                fresh = forest([extend_one(t) for t in views])
                check_forest_walk(ext)
                assert same_nodes(ext, fresh) and same_nodes(ext, forest([ref_extend(t) for t in views]))
                assert [ext.local.tolist(), ext.lows.tolist(), ext.root_levels.tolist()] == \
                    [fresh.local.tolist(), fresh.lows.tolist(), fresh.root_levels.tolist()]
    assert seen["promoted"] > 20 and seen["aliased"] >= 7 and seen["forests"] >= 2


def test_cut_levels_are_read_off_the_edge_levels():
    # the charge range starts at -2 on an extended tree and at 0 on any other,
    # whatever built it (sampled, promoted, extended, one leaf among them), and
    # again on the tree rebuilt from its arrays, which nothing has set; a
    # forest of the tree reads its root level where brute_levels does
    rng = np.random.default_rng(71)
    cases = []  # (tree, extended)
    for k in (1, 2, 3, 5, 8, 13):
        t = sample_frt(Terminals(gen_euclidean(k, seed=k)[0], range(k)), int(rng.integers(0, 2**40)))
        for base in (t, _promote_one_level(t)):
            cases += [(base, False), (extend_one(base), True)]
    for n in range(30):
        extended = n % 2 == 1
        cases.append((random_small_hst(rng, extended_chance=float(extended))[1], extended))
    found = []
    for t, extended in cases:
        f, rebuilt = forest([t]), forest([_copy(t)])
        levels = range(int(f.lows[0]), int(f.root_levels[0]) + 1)
        assert levels == range(-2 if extended else 0, brute_levels(t)[1] + 1)
        assert (rebuilt.lows.tolist(), rebuilt.root_levels.tolist()) == (f.lows.tolist(), f.root_levels.tolist())
        found.append((levels, extended))
    assert (range(-2, 0), True) in found  # the extended one-leaf tree


def test_root_level_of_hand_built_trees_matches_the_validator():
    # the root level read by hand (brute_levels) against the root level of
    # the forest validate_hst returns and of a Forest built from the tree
    cases = [
        (_skipped_level_tree(), line_metric([0, 1, 3, 5]), 3),
        (Hst([-1], [0], (0,), [0]), line_metric([0]), 0),
        (Hst([-1, 0, 0], [0, 2, 2], (0, 1), [1, 2]), line_metric([0, 3]), 2),
        (Hst([-1, 0, 0, 1, 1, 2, 2], [0, 2, 2, 1, 1, 1, 1], range(4), [3, 4, 5, 6]), line_metric([0, 1, 4, 5]), 2),
    ]
    for t, m, level in cases:
        checked = validate_hst([t], m)
        assert checked.messages == [[]] and checked.forest.root_levels.tolist() == [level]
        assert forest([t]).root_levels.tolist() == [level] and brute_levels(t)[1] == level
        check_forest_walk(checked.forest)


def test_path_decomposition_consistency():
    # T(u,v) equals twice the geometric sum over levels up to the separation
    # level, plus the extension tail when present.
    rng = np.random.default_rng(3)
    for _ in range(25):
        m, t = random_small_hst(rng)
        pts = t.terminals
        tail = sum(2.0 ** (j - 1) for j in range(brute_levels(t)[0], 0))  # no level-0 edges
        for i, u in enumerate(pts):
            for v in pts[i + 1:]:
                sep = max(
                    j
                    for j in range(1, brute_levels(t)[1] + 1)
                    for cut in id_cuts(t, j)
                    if (u in cut) != (v in cut)
                )
                expect = 2 * ((2.0**sep - 1.0) + tail)
                assert _distance(t, u, v) == pytest.approx(expect)


def test_delta_cut_iff_on_path():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, t = random_small_hst(rng)
        pts = t.terminals
        for e in range(1, t.n_nodes):
            cut = brute_cut(t, e)
            for i, u in enumerate(pts):
                for v in pts[i + 1:]:
                    on_path = e in path_edges(t, u, v)
                    assert on_path == ((u in cut) != (v in cut))


def test_expanding_and_diameter_many_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(60):
        k = int(rng.integers(2, 12))
        m = build_metric(rng.random((k, 2)) * rng.uniform(1, 30), "points")
        t = sample_frt(Terminals(m, range(k)), int(rng.integers(0, 2**40)))
        assert validate_hst([t], m).messages[0] == []


def test_json_schema_fields(two_point_metric):
    t = sample_frt(Terminals(two_point_metric, [0, 1]), seed=0)
    doc = json.loads(tree_json(t))
    assert set(doc) == {"levels", "nodes", "leaf_map"}
    assert doc["levels"] == forest([t]).root_levels[0] == 1
    assert {n["id"] for n in doc["nodes"]} == {0, 1, 2}
    assert set(doc["nodes"][1]) == {"id", "level", "parent", "edge_len"}
    assert doc["leaf_map"] == {"0": 1, "1": 2}


# (family, k, metric seed, promoted, SHA-256 prefix of tree_json(t) followed by
# the (leaf node, point) pairs in node order), recorded from the
# one-ball-at-a-time sampler; the tree is sample_frt(Terminals(metric, range(k)), # 1000 * k + metric seed).
PINNED_TREES = [
    ("euclid", 2, 0, False, "12d1f24338418c57c6908151461978db"),
    ("euclid", 3, 1, False, "472ec3fa21ebe170639e3f7c7271d7b0"),
    ("euclid", 4, 0, False, "625bf131e1bc1d4690813702b974a307"),
    ("euclid", 5, 2, False, "9069d99a1773a239c537ef3901f66901"),
    ("euclid", 6, 4, True, "30abdfd5680e6a64f852b23247bb4409"),
    ("euclid", 8, 3, False, "2bd0dd034cfb5b7b1c6055eab900c950"),
    ("euclid", 8, 11, True, "60ff7db2ea1353f226656cdaa56325e4"),
    ("euclid", 10, 7, True, "9f590c02d00bd107b65cad03c5bedfef"),
    ("euclid", 13, 4, False, "e40f1afd0f47b4d169e7f15ff92de211"),
    ("euclid", 21, 5, False, "6fc9a0901632cf9ac8fbffc3a06231d3"),
    ("euclid", 30, 6, False, "5709489b562067953ce67e6843618a5f"),
    ("euclid", 40, 7, True, "6b7ff2d7baaca151cf29325601aae545"),
    ("euclid", 64, 8, False, "97bd6c3345dea9bec1d9c067771851d9"),
    ("euclid", 100, 9, False, "4c1f46aee9adc7a6fd35142c9ef095d9"),
    ("euclid", 160, 10, False, "b52b0ac6002765faa224bc8565d534d9"),
    ("euclid", 200, 11, False, "b848baf6e97bee7765e82ab0f9e3cb8f"),
    ("graph", 6, 12, True, "cc8d8045a70870a1c34745694988b5fa"),
    ("graph", 17, 13, False, "17163b5aa74cb51318a76b8af02b3b95"),
    ("graph", 40, 14, True, "b1dad9616d1983eeb67cbd24cf45e435"),
    ("graph", 90, 15, True, "f9e599550fe9b4c78b462a4109e77a6e"),
]


@pytest.mark.parametrize("family, k, seed, promoted, digest", PINNED_TREES)
def test_sample_frt_pinned(family, k, seed, promoted, digest):
    m = gen_euclidean(k, seed=seed)[0] if family == "euclid" else gen_graph_metric(k, seed=seed)
    t = sample_frt(Terminals(m, range(k)), 1000 * k + seed)
    text = tree_json(t) + json.dumps(sorted(zip(t.leaf.tolist(), t.terminals)))
    assert hashlib.sha256(text.encode()).hexdigest()[:32] == digest
    assert (brute_levels(t)[1] == floor_log2(m.diameter()) + 2) == promoted


def _corrupt(t, rng, kind):
    """t rebuilt with one defect: a leaf edge shrunk, a level raised, a leaf
    re-hung below an earlier node, or a leaf's terminal dropped."""
    parent, level, terminals, leaves = t.parent.copy(), t.edge_level.copy(), t.terminals, t.leaf
    leaf = sorted(leaves.tolist())[int(rng.integers(len(leaves)))]
    if kind == "shrink" and leaf:
        level[leaf] -= int(rng.integers(1, 4))
    elif kind == "raise" and t.n_nodes > 1:
        level[int(rng.integers(1, t.n_nodes))] += int(rng.integers(1, 3))
    elif kind == "rehang" and leaf:
        parent[leaf] = int(rng.integers(0, leaf))  # ids grow toward the leaves
    elif kind == "drop":
        keep = leaves != leaf
        terminals, leaves = [p for p, kept in zip(terminals, keep) if kept], leaves[keep]
    return Hst(parent, level, terminals, leaves, t.aliases)


def test_validate_matches_reference_on_sampled_and_corrupted_trees():
    # the trees of one terminal set are validated in one call: the sampled
    # tree, its extension and promotion, and their corruptions (a dropped
    # terminal makes a terminal set of its own)
    rng = np.random.default_rng(5)
    checked = flagged = 0
    for trial in range(60):
        k = int(rng.integers(1, 24))
        if trial % 3 == 0:
            m = gen_graph_metric(max(k, 2), seed=trial)
        elif trial % 3 == 1:  # integer distances: ties with 2^j on every level
            m = line_metric(np.sort(rng.choice(3 * k, size=k, replace=False)))
        else:
            m = gen_euclidean(k, seed=trial)[0]
        t = sample_frt(Terminals(m, range(m.n)), int(rng.integers(0, 2**40)))
        trees = [t, extend_one(t)]
        if m.n > 1:
            trees.append(_promote_one_level(t))
        corrupted = [_corrupt(tree, rng, kind) for tree in trees for kind in ("shrink", "raise", "rehang", "drop")]
        trees += corrupted
        batches = {}
        for tree in trees:
            batches.setdefault((tree.terminals, tree.aliases), []).append(tree)
        assert len(batches[t.terminals, t.aliases]) >= 8
        for batch in batches.values():
            result = validate_hst(batch, m)
            for tree, got in zip(batch, result.messages, strict=True):
                assert sorted(got) == sorted(brute_validate_hst(tree, m))
                checked += 1
                flagged += bool(got)
            # the forest holds the trees that break nothing, with their cuts
            valid = [tree for tree, got in zip(batch, result.messages) if not got]
            if valid:
                assert same_nodes(result.forest, forest(valid))
                check_forest_walk(result.forest)
            else:
                assert result.forest is None
    assert checked > 500 and flagged > 100


def test_validate_batch_across_forests_matches_one_tree_calls(monkeypatch):
    # k = 60: a forest holds FOREST_PAIRS // 60^2 = 18 trees, so 45 trees,
    # valid and corrupted, are walked as three forests
    m = gen_euclidean(60, seed=3)[0]
    terms = Terminals(m, range(60))
    rng = np.random.default_rng(17)
    trees = []
    for seed in range(15):
        t = sample_frt(terms, seed)
        trees += [t, _corrupt(t, rng, ("shrink", "raise", "rehang")[seed % 3]), extend_one(t)]
    assert len(trees) > 2 * (FOREST_PAIRS // 60**2)
    walked = []

    def path_walk(f, g, u, v):
        walked.append(tree_views(f)[g])
        return tree_distance(f, g, u, v)

    monkeypatch.setattr("ondesign.hst.tree_distance", path_walk)
    batch = validate_hst(trees, m)
    arrays = lambda t: [t.parent.tolist(), t.edge_level.tolist(), t.leaf.tolist()]
    assert list(map(arrays, walked)) == list(map(arrays, trees))  # each tree's least-slack pair, on that tree
    assert 0 < sum(bool(bad) for bad in batch.messages) < len(trees)
    assert same_nodes(batch.forest, forest([tree for tree, bad in zip(trees, batch.messages) if not bad]))
    check_forest_walk(batch.forest)
    for tree, bad, T in zip(trees, batch.messages, batch.distances, strict=True):
        one = validate_hst([tree], m)
        assert [bad] == one.messages
        assert T.tobytes() == one.distances[0].tobytes()
        assert (one.forest is None) == bool(bad)


def test_validate_batch_needs_one_terminal_set():
    m = line_metric([0, 1, 3])
    trees = [sample_frt(Terminals(m, [0, 1]), 0), sample_frt(Terminals(m, [0, 2]), 0)]
    with pytest.raises(ValueError, match="^trees of one forest must share terminals and aliases$"):
        validate_hst(trees, m)
    with pytest.raises(ValueError, match="^trees of one forest must share terminals and aliases$"):
        forest(trees)
    # the same terminals with different aliases
    m2 = line_metric([0, 0, 1])
    trees = [sample_frt(Terminals(m2, [0, 1, 2]), 0), sample_frt(Terminals(m2, [0, 2]), 0)]
    assert trees[0].terminals == trees[1].terminals
    with pytest.raises(ValueError, match="^trees of one forest must share terminals and aliases$"):
        validate_hst(trees, m2)
    assert validate_hst([], m) == ([], [], None)


@pytest.fixture
def hang_fails():
    """A test that runs past 5 s fails with TimeoutError instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


MISNUMBERED_TREES = [
    pytest.param([-1, 2, 1, 0], [1, 3], id="parent cycle"),
    pytest.param([-1, 1, 1, 0], [2, 3], id="self-parent"),
    pytest.param([-1, -1, 1, 1], [2, 3], id="second root"),
    pytest.param([-1, 5, 0, 0], [2, 3], id="parent out of range"),
    pytest.param([-1, 0, 0], [1, 7], id="leaf out of range"),
    pytest.param([-1, 0, 0], [-1, 2], id="negative leaf"),
    pytest.param([2, 0, 0], [1, 2], id="root with a parent"),
    pytest.param([-1, 0, 0], [1], id="leaf missing"),
    pytest.param([], [0, 1], id="no nodes"),
]
MISNUMBERED = "numbering: node 0's parent must be -1, any other node's an earlier node, each leaf a node id"


@pytest.mark.parametrize("parent, leaf", MISNUMBERED_TREES)
def test_misnumbered_tree_gets_one_message_and_no_walk(hang_fails, parent, leaf):
    # such a tree hung the walk or crashed it before the numbering test; the
    # trees around it in one call are validated as if alone
    message = MISNUMBERED
    m = build_metric([[0, 0], [1, 0]], "points")
    bad = Hst(parent, [0] + [1] * (len(parent) - 1), [0, 1], leaf)
    good = sample_frt(Terminals(m, [0, 1]), 0)
    assert validate_hst([bad], m) == ([[message]], [None], None)
    results = validate_hst([good, bad, good], m)
    assert (results.messages[1], results.distances[1]) == ([message], None)
    assert same_nodes(results.forest, forest([good, good]))
    alone = validate_hst([good], m)
    for g in (0, 2):
        assert results.messages[g] == alone.messages[0] == []
        assert results.distances[g].tobytes() == alone.distances[0].tobytes()


@pytest.mark.parametrize("parent, leaf", MISNUMBERED_TREES)
def test_misnumbered_tree_walked_by_hand_raises(hang_fails, parent, leaf):
    # a tree built by hand and never validated: a Forest of it, alone or
    # beside a numbered tree, tests the numbering before its walk (which
    # every cut and tree_distance read); the parent cycle hung the walk, the
    # leaf out of range made it raise IndexError
    bad = Hst(parent, [0] + [1] * (len(parent) - 1), [0, 1], leaf)
    good = sample_frt(Terminals(build_metric([[0, 0], [1, 0]], "points"), [0, 1]), 0)
    for trees in ([bad], [good, bad]):
        with pytest.raises(ValueError, match=f"^{MISNUMBERED}$"):
            forest(trees)


def test_validate_joins_and_walks_a_batch_once_and_keeps_no_walk(monkeypatch):
    # a misnumbered tree among valid ones: one validate_hst call concatenates
    # the trees' arrays once and walks the leaves once, and neither the
    # forest it returns nor one built from trees holds a depth x trees x k walk
    m = gen_euclidean(12, seed=4)[0]
    good = [sample_frt(Terminals(m, range(12)), seed) for seed in range(5)]
    parent = good[0].parent.copy()
    parent[1] = 1  # its own parent
    trees = good[:2] + [Hst(parent, good[0].edge_level, good[0].terminals, good[0].leaf)] + good[2:]
    parents = [t.parent for t in trees]
    joins, walks = [], []
    concatenate, walk = np.concatenate, hst._walk

    def counted_concatenate(arrays, *args, **kwargs):
        arrays = arrays if isinstance(arrays, np.ndarray) else list(arrays)
        joins.extend(a for a in arrays if any(a is p for p in parents))
        return concatenate(arrays, *args, **kwargs)

    def counted_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(np, "concatenate", counted_concatenate)
    monkeypatch.setattr(hst, "_walk", counted_walk)
    checked = validate_hst(trees, m)
    assert (len(joins), len(walks)) == (len(trees), 1)  # each tree's parent array joined once
    assert checked.messages == [[], [], [MISNUMBERED], [], [], []]
    monkeypatch.undo()
    assert same_nodes(checked.forest, forest(good))
    for f in (checked.forest, forest(good)):
        check_forest_walk(f)
        held = [a for v in vars(f).values() for a in (v if isinstance(v, tuple) else (v,))
                if isinstance(a, np.ndarray)]
        assert not [a.shape for a in held if a.ndim == 3 and a.shape[1:] == (f.n_trees, f.k)]


def test_validate_mixed_batch_puts_each_message_on_its_tree():
    # the broken trees of VALIDATE_MESSAGES (partition, singletons, cut
    # diameter, expanding) and one that breaks the partition at two levels,
    # among valid sampled, promoted and extended trees, in one call: each
    # tree's messages are its own, word for word, as validated alone
    m = line_metric([0, 5])
    broken = [Hst(*VALIDATE_MESSAGES[name][1]) for name in ("partition", "singletons", "cut diameter", "expanding")]
    broken.append(Hst([-1, 0, 1, 2, 3, 4, 0], [0, 3, 2, 2, 1, 1, 3], (0, 1), [5, 6]))
    valid = [sample_frt(Terminals(m, [0, 1]), seed) for seed in range(3)]
    valid += [_promote_one_level(valid[0]), extend_one(valid[1])]
    # the first tree's root level (1) is below the last broken one's levels
    trees = [broken[0], valid[0], broken[1], valid[1], broken[2], valid[2], valid[3], broken[3], broken[4], valid[4]]
    alone = [validate_hst([_copy(t)], m).messages[0] for t in trees]
    got = validate_hst(trees, m).messages
    assert got == alone
    assert [sorted(msgs) for msgs in got] == [sorted(brute_validate_hst(t, m)) for t in trees]
    assert [bool(msgs) for msgs in got] == [any(t is b for b in broken) for t in trees]
    for t, name in zip(broken, ("partition", "singletons", "cut diameter", "expanding")):
        assert VALIDATE_MESSAGES[name][2] in got[trees.index(t)]
    assert [msg for msg in got[trees.index(broken[4])] if msg.startswith("partition")] == \
        ["partition: level-1 cuts do not partition the terminals", "partition: level-2 cuts do not partition the terminals"]


def test_validated_distances_match_path_walk():
    # T per tree of a batch: sampled and extended trees of one terminal set
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        m = build_metric(rng.random((k, 2)) * rng.uniform(1.0, 40.0), "points")
        terms = Terminals(m, range(k))
        trees = [sample_frt(terms, seed) for seed in rng.integers(0, 2**31, size=4).tolist()]
        trees += [extend_one(t) for t in trees[:2]]
        results = validate_hst(trees, m)
        assert results.messages == [[]] * len(trees) and same_nodes(results.forest, forest(trees))
        pts = terms.terminals
        for g, T in enumerate(results.distances):
            assert [[tree_distance(results.forest, g, u, v) for v in pts] for u in pts] == T.tolist()


def _leveled_chain(depth, hang):
    """A numbered tree: a chain of `depth` nodes below the root, node i at
    edge level depth + 2 - i, with a terminal leaf hung beside the chain's
    next node under each chain node in `hang` (ascending), and one more
    below the chain's last node at level 1.  Terminal q is the q-th leaf."""
    parent, level = [-1] + list(range(depth)), [0] + list(range(depth + 1, 1, -1))
    for at in list(hang) + [depth]:
        parent.append(at)
        level.append(level[at] - 1)
    return Hst(parent, level, range(len(hang) + 1), range(depth + 1, depth + len(hang) + 2))


def _star(n_nodes, leaves):
    """A numbered tree: a root with n_nodes - 1 level-1 children, of which
    `leaves` (node ids) hold the terminals 0, 1, ... in order."""
    return Hst([-1] + [0] * (n_nodes - 1), [0] + [1] * (n_nodes - 1), range(len(leaves)), leaves)


@pytest.mark.parametrize("tree, why", [
    (_leveled_chain(300, [100, 257, 280]), "pairs share 100, 257, 280 and 300 depths: past a uint8 count"),
    # two pairs of leaves 2^16 apart, so a wrapped id joins more pairs than
    # the validator's one re-measured pair of least slack
    (_star(2**16 + 3, [1, 2, 2**16 + 1, 2**16 + 2]), "leaf ids 2^16 apart: one int16 id"),
], ids=["deep", "wide"])
def test_validated_distances_fall_back_to_wide_counters(tree, why):
    # a tree too deep for the uint8 shared-depth count, or with too many
    # nodes for int16 ids, alone and in a forest beside a shallow tree
    k = len(tree.terminals)
    m = line_metric(np.arange(k, dtype=float))
    shallow = _star(k + 1, list(range(1, k + 1)))
    for trees in ([tree], [tree, shallow], [shallow, tree]):
        for t, T in zip(trees, validate_hst(trees, m).distances, strict=True):
            want = [[_distance(t, u, v) for v in range(k)] for u in range(k)]
            assert T.tolist() == want, why


def _ref_within(terms, beta):
    """Terminals.within by its definition: one comparison per level."""
    row_d = np.sort(terms.d, axis=1)
    return (row_d <= beta * 2.0 ** (terms.levels - 2)[:, None, None]).sum(axis=2)


def test_radius_count_matches_the_per_level_comparison_at_the_edges():
    # distances of exactly 2^j (mantissa 1: on level j + 2's radius at
    # beta = 1), mantissas 1.375, 1.5 and 1.71875 used as beta and one ulp
    # either side, the top of beta's range, and 0 on the diagonal
    m = line_metric([0, 1, 2, 4, 8, 11, 16, 27.5, 32, 48])
    terms = Terminals(m, range(m.n))
    assert {1.0, 1.375, 1.5, 1.71875} <= set((np.frexp(terms.d[terms.d > 0])[0] * 2).tolist())
    betas = [1.0, np.nextafter(1.0, 2), np.nextafter(2.0, 0)]
    for mantissa in (1.375, 1.5, 1.71875):
        betas += [np.nextafter(mantissa, 0), mantissa, np.nextafter(mantissa, 2)]
    betas += (2.0 ** np.random.default_rng(5).random(20)).tolist()
    cases = [terms, Terminals(line_metric([0, 1]), [0, 1]), Terminals(gen_euclidean(30, seed=3)[0], range(30)),
             Terminals(gen_graph_metric(30, seed=3), range(30))]
    for case in cases:
        for beta in betas:
            want = _ref_within(case, beta)
            assert case.within(beta).tolist() == want.tolist(), beta
            assert (want[-1] == 1).all()  # the level-1 radius, beta / 2 < 1, holds only the point itself
    assert [terms.within(1.0)[terms.levels.tolist().index(j), 0] for j in (3, 4)] == [3, 4]  # d = 2 and 4 inside


def test_need_fits_the_levels_on_the_battery():
    # d < 2^L <= 2(2^L - 1) for L >= 1, so a pair's fewest differing levels
    # need is at most L and its expanding-test row L - need exists; need is
    # the least L' whose tree distance 2(2^L' - 1) reaches d, also where d
    # is exactly 2(2^L' - 1) = 2, 6, 14, 30 (the line)
    line = line_metric([0, 1, 2, 4, 8, 11, 16, 27.5, 32, 48])
    cases = [(m, tree_points(seq)) for m, seq, _ in (_instance(p, i) for p in PROBLEMS for i in range(100))]
    for m, points in cases + [(line, range(line.n))]:
        terms = Terminals(m, points)
        n_levels, k = len(terms.levels), len(terms.terminals)
        u, v = np.triu_indices(k, 1)
        span = 2.0 * (2.0 ** np.arange(n_levels + 1) - 1.0)
        assert terms.need.tolist() == np.searchsorted(span, terms.d[u, v]).tolist()
        assert terms.need.max(initial=1) <= n_levels and terms.need.min(initial=1) >= 1
        row, col = np.divmod(terms.split[1], k)
        assert (row == n_levels - terms.need).all() and (col == v).all() and (terms.split[0] - u == row * k).all()
    assert {2.0, 6.0, 14.0, 30.0} <= set(Terminals(line, range(line.n)).d.ravel().tolist())


def test_sample_frt_matches_reference_sampler():
    # one terminal set for many trees changes no tree: Euclidean,
    # graph-closure and integer line metrics, and points that share positions
    rng = np.random.default_rng(31)
    promoted = aliased = 0
    for k in range(1, 61):
        xy = rng.random((k, 2)) * rng.uniform(1.0, 40.0)
        cases = [
            (gen_euclidean(k, seed=k)[0], list(range(k))),
            (gen_graph_metric(max(k, 2), seed=k), list(range(max(k, 2)))),
            # integer distances: ties with 2^j on every level
            (line_metric(np.sort(rng.choice(3 * k, size=k, replace=False))), list(range(k))),
            # every third point repeated at a new index; points listed out of order
            (build_metric(np.vstack([xy, xy[::3]]), "points"), rng.permutation(k + len(xy[::3])).tolist() * 2),
        ]
        seeds = [rng.integers(0, 2**40, size=3).tolist() for _ in cases]
        # point j - 1 sits exactly at the level-j radius from point 0 under
        # the beta that the seed draws
        seed = int(rng.integers(0, 2**40))
        beta = 2.0 ** np.random.default_rng(np.random.SeedSequence(seed)).random()
        cases.append((line_metric([0.0] + [beta * 2.0 ** (j - 2) for j in range(2, k + 1)]), list(range(k))))
        seeds.append([seed])
        for (m, points), tree_seeds in zip(cases, seeds, strict=True):
            terms = Terminals(m, points)
            for seed in tree_seeds:
                t, ref = sample_frt(terms, seed), ref_sample_frt(m, points, seed)
                assert (t.terminals, t.aliases) == (ref.terminals, ref.aliases)
                for got, want in ((t.parent, ref.parent), (t.edge_level, ref.edge_level), (t.leaf, ref.leaf)):
                    assert got.dtype == want.dtype and got.tolist() == want.tolist()
                promoted += len(terms.levels) > 0 and brute_levels(t)[1] > terms.levels[0]
                aliased += bool(t.aliases)
    assert promoted > 20 and aliased > 100
