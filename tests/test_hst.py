import hashlib
import json

import numpy as np
import pytest

from conftest import (
    brute_cut,
    brute_cuts_at_level,
    brute_validate_hst,
    euclid,
    line_metric,
    path_edges,
    random_small_hst,
)
from ondesign.errors import (
    AlreadyExtended,
    CoincidentTerminals,
    EmptyTerminalSet,
    LevelOutOfRange,
)
from ondesign.hst import (
    Hst,
    _promote_one_level,
    check_levels,
    cuts_at_level,
    extend_singleton_levels,
    sample_frt,
    tree_distance,
    validate_hst,
    validated_distances,
)
from ondesign.generators import gen_euclidean, gen_graph_metric
from ondesign.metric import build_metric, floor_log2


def test_two_terminal_minimal_shape(two_point_metric):
    # unique minimal HST: root plus two level-1 edges of length 1
    for seed in range(5):
        t = sample_frt(two_point_metric, [0, 1], seed)
        assert t.n_nodes == 3
        assert t.edge_level[1] == t.edge_level[2] == 1
        assert tree_distance(t, 0, 1) == 2.0
        assert validate_hst(t, two_point_metric) == []


def test_single_terminal_degenerate(two_point_metric):
    t = sample_frt(two_point_metric, [0], seed=3)
    assert t.n_nodes == 1
    assert t.terminals == (0,)
    assert tree_distance(t, 0, 0) == 0.0


def test_empty_terminals_rejected(two_point_metric):
    with pytest.raises(EmptyTerminalSet):
        sample_frt(two_point_metric, [], seed=0)


def test_coincident_terminals_rejected():
    m = build_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    with pytest.raises(CoincidentTerminals):
        sample_frt(m, [0, 1, 2], seed=0)


def test_first_bad_pair_is_named():
    # pairs are scanned in (u, v) order: a closer pair further on is not named
    with pytest.raises(ValueError, match=r"d\(0,1\)=0.5 < 1"):
        sample_frt(line_metric([0, 0.5, 3, 3]), range(4), seed=0)
    with pytest.raises(CoincidentTerminals, match="terminals 1 and 2"):
        sample_frt(line_metric([0, 2, 2, 2.5]), range(4), seed=0)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("j", [2, 3, 4])
def test_carving_radius_is_closed(seed, j):
    # beta drawn as sample_frt draws it; points 0 and 1 sit exactly at the
    # level-j radius beta * 2^(j-2), point 2 outside every ball below the top
    beta = 2.0 ** np.random.default_rng(np.random.SeedSequence(seed)).random()
    radius = beta * 2.0 ** (j - 2)
    m = line_metric([0.0, radius, 3.5 * radius])
    t = sample_frt(m, range(3), seed)
    assert validate_hst(t, m) == []
    assert frozenset({0, 1}) in cuts_at_level(t, j)
    assert frozenset({0, 1}) not in cuts_at_level(t, j - 1)


def test_line_four_points_valid():
    m = line_metric([0, 1, 2, 3])
    for seed in range(30):
        t = sample_frt(m, range(4), seed)
        assert validate_hst(t, m) == []


def test_sampler_deterministic(two_point_metric):
    m = euclid(np.random.default_rng(0).random((9, 2)))
    a = sample_frt(m, range(9), seed=1234).to_json()
    b = sample_frt(m, range(9), seed=1234).to_json()
    assert a == b
    c = sample_frt(m, range(9), seed=1235).to_json()
    assert isinstance(json.loads(c), dict)


def test_validate_flags_shrunk_leaf_edges(two_point_metric):
    t = Hst([-1, 0, 0], [0, -1, -1], (0, 1), [1, 2])  # length 1/4 edges: T = 0.5 < d = 1
    bad = validate_hst(t, two_point_metric)
    assert any("expanding" in v for v in bad)


def test_validate_flags_cut_diameter():
    # two terminals at distance 3 below one level-1 edge: 3 >= 2^1
    m = line_metric([0, 3])
    t = Hst([-1, 0, 1, 1], [0, 1, 0, 0], (0, 1), [2, 3])
    bad = validate_hst(t, m)
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
    bad = validate_hst(t, m)
    assert message in bad
    assert sorted(bad) == sorted(brute_validate_hst(t, m))


def test_cuts_at_level_examples(two_point_metric):
    t = sample_frt(two_point_metric, [0, 1], seed=0)
    assert sorted(map(set, cuts_at_level(t, 1))) == [{0}, {1}]
    assert sorted(map(set, cuts_at_level(t, 0))) == [{0}, {1}]
    ext = extend_singleton_levels(t, -2)
    assert sorted(map(set, cuts_at_level(ext, -1))) == [{0}, {1}]
    assert sorted(map(set, cuts_at_level(ext, -2))) == [{0}, {1}]
    with pytest.raises(LevelOutOfRange):
        cuts_at_level(t, -1)
    with pytest.raises(LevelOutOfRange):
        cuts_at_level(t, t.root_level + 1)


def test_cuts_partition_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, t = random_small_hst(rng)
        for j in range(t.extended_to if t.extended_to else 0, t.root_level + 1):
            cuts = cuts_at_level(t, j)
            pts = [p for c in cuts for p in c]
            assert sorted(pts) == sorted(t.terminals)


def test_extension_arithmetic(two_point_metric):
    t = sample_frt(two_point_metric, [0, 1], seed=0)
    ext = extend_singleton_levels(t, -2)
    assert ext.total_length() == pytest.approx(2 + 2 * (0.25 + 0.125))
    assert tree_distance(ext, 0, 1) == pytest.approx(2.75)
    assert validate_hst(ext, two_point_metric) == []
    with pytest.raises(AlreadyExtended):
        extend_singleton_levels(ext, -1)


def test_extension_single_leaf(two_point_metric):
    t = sample_frt(two_point_metric, [0], seed=0)
    ext = extend_singleton_levels(t, -2)
    assert ext.n_nodes == 3  # chain of two edges below the root leaf
    assert ext.total_length() == pytest.approx(0.375)


def test_extension_down_to_minus_one(two_point_metric):
    t = sample_frt(two_point_metric, [0, 1], seed=0)
    ext = extend_singleton_levels(t, -1)
    assert ext.total_length() == pytest.approx(2.5)
    assert sorted(map(set, cuts_at_level(ext, -1))) == [{0}, {1}]


def test_tree_distance_siblings_level2():
    m = line_metric([0, 3])
    t = Hst([-1, 0, 0], [0, 2, 2], (0, 1), [1, 2])
    assert tree_distance(t, 0, 1) == 4.0
    # leaves hang at level 2 directly; the level-1 cuts are implicit singletons
    assert sorted(map(set, cuts_at_level(t, 1))) == [{0}, {1}]
    assert validate_hst(t, m) == []


def test_unknown_leaf():
    from ondesign.errors import UnknownLeaf

    m = line_metric([0, 1])
    t = sample_frt(m, [0, 1], seed=0)
    with pytest.raises(UnknownLeaf):
        tree_distance(t, 0, 7)


def _skipped_level_tree():
    """Hand-built: leaves 0 and 1 under a level-3 node, 2 straight below the
    root at level 3, 3 under a level-3 node by a level-1 edge (level 2 skipped)."""
    return Hst([-1, 0, 1, 1, 0, 0, 5], [0, 3, 2, 2, 3, 3, 1], (0, 1, 2, 3), [2, 3, 4, 6])


def test_cut_ids_group_into_the_reference_cuts():
    # sampled, extended to -1 and -2, promoted and hand-built skipped-level trees
    rng = np.random.default_rng(13)
    trees = [_skipped_level_tree()]
    for k in (2, 3, 5, 8, 13, 21, 30):
        m = gen_euclidean(k, seed=k)[0]
        t = sample_frt(m, range(k), int(rng.integers(0, 2**40)))
        trees += [t, extend_singleton_levels(t, -1), extend_singleton_levels(t, -2), _promote_one_level(t)]
    for t in trees:
        pts = t.terminals
        assert t.cut_ids.shape == (len(check_levels(t)), len(pts))
        for row, j in enumerate(check_levels(t)):
            assert cuts_at_level(t, j) == brute_cuts_at_level(t, j)
            for q, (p, cut) in enumerate(zip(pts, t.cut_ids[row].tolist())):
                if cut < t.n_nodes:
                    assert t.edge_level[cut] == j and p in brute_cut(t, cut)
                else:
                    assert cut == t.n_nodes + q
    skipped = trees[0]
    assert cuts_at_level(skipped, 2) == [frozenset([0]), frozenset([1]), frozenset([2]), frozenset([3])]
    assert cuts_at_level(skipped, 1) == [frozenset([3]), frozenset([0]), frozenset([1]), frozenset([2])]


def test_path_decomposition_consistency():
    # T(u,v) equals twice the geometric sum over levels up to the separation
    # level, plus the extension tail when present.
    rng = np.random.default_rng(3)
    for _ in range(25):
        m, t = random_small_hst(rng)
        pts = t.terminals
        lo = t.extended_to if t.extended_to is not None else 1
        tail = sum(2.0 ** (j - 1) for j in range(lo, 0))  # no level-0 edges
        for i, u in enumerate(pts):
            for v in pts[i + 1:]:
                sep = max(
                    j
                    for j in range(1, t.root_level + 1)
                    for cut in cuts_at_level(t, j)
                    if (u in cut) != (v in cut)
                )
                expect = 2 * ((2.0**sep - 1.0) + tail)
                assert tree_distance(t, u, v) == pytest.approx(expect)


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
        m = build_metric(rng.random((k, 2)) * rng.uniform(1, 30))
        t = sample_frt(m, range(k), int(rng.integers(0, 2**40)))
        assert validate_hst(t, m) == []


def test_json_schema_fields(two_point_metric):
    t = sample_frt(two_point_metric, [0, 1], seed=0)
    doc = t.to_json_dict()
    assert set(doc) == {"levels", "nodes", "leaf_map"}
    assert doc["levels"] == 1
    assert {n["id"] for n in doc["nodes"]} == {0, 1, 2}
    assert set(doc["nodes"][1]) == {"id", "level", "parent", "edge_len"}
    assert doc["leaf_map"] == {"0": 1, "1": 2}


# (family, k, metric seed, promoted, SHA-256 prefix of to_json() followed by
# the (leaf node, point) pairs in node order), recorded from the
# one-ball-at-a-time sampler; the tree is sample_frt(metric, range(k),
# 1000 * k + metric seed).
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
    t = sample_frt(m, range(k), 1000 * k + seed)
    text = t.to_json() + json.dumps(sorted(zip(t.leaf.tolist(), t.terminals)))
    assert hashlib.sha256(text.encode()).hexdigest()[:32] == digest
    assert (t.root_level == floor_log2(m.diameter()) + 2) == promoted


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
    return Hst(parent, level, terminals, leaves, t.extended_to)


def test_validate_matches_reference_on_sampled_and_corrupted_trees():
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
        t = sample_frt(m, range(m.n), int(rng.integers(0, 2**40)))
        trees = [t, extend_singleton_levels(t, -2 if trial % 2 else -1)]
        if m.n > 1:
            trees.append(_promote_one_level(t))
        for tree in list(trees):
            trees += [_corrupt(tree, rng, kind) for kind in ("shrink", "raise", "rehang", "drop")]
        for tree in trees:
            got = validate_hst(tree, m)
            assert sorted(got) == sorted(brute_validate_hst(tree, m))
            checked += 1
            flagged += bool(got)
    assert checked > 500 and flagged > 100


def test_validated_distances_match_path_walk():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m, t = random_small_hst(rng)
        pts = t.terminals
        bad, T = validated_distances(t, m)
        assert bad == validate_hst(t, m)
        assert [[tree_distance(t, u, v) for v in pts] for u in pts] == T.tolist()
