"""HST embeddings: FRT-style sampling, validation, the forest of an instance's trees.

A tree here is leveled: a level-j edge has length 2^(j-1), the cut below it
(the terminals it separates from the root) has metric diameter < 2^j, and every
root-to-leaf path passes one edge per level from the top level down to level 1.
Levels -1 and -2 exist only on extended trees (singleton chains of lengths 1/4
and 1/8 below each leaf), so a tree's lowest cut level is min(0, its lowest
edge level); level 0 never carries edges, but its cuts are the terminal
singletons by convention (forced by the min-distance-1 normalization).

The pieces, each described in its own docstring:
- `Terminals` and `sample_frt`: what the trees of one point set share, and
  one tree per seed (an `Hst`, the sampler's output), carved as
  least-element lists (Blelloch, Gupta and Tangwongsan, SPAA 2012);
  `_promote_one_level` rescales a tree that fails the expanding test.
- `validate_hst`, which trusts no sampler, and `tree_distance`, its scalar
  re-measure of one pair; it returns the valid trees as a `Forest`.
- `Forest`, the trees of one terminal set as one set of arrays, and the
  only place a tree's levels and cuts are derived; `path_cuts`, `cut_load`,
  `class_cuts` and `extend_singleton_levels` read a forest.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .metric import MetricSpace, floor_log2, pow2


class Hst:
    """One sampled tree over a terminal set (point indices of a metric): the
    sampler's output, read as a `Forest` once validated.

    Stored as read-only intp arrays.  Per node id (root 0): `parent` (root
    -1) and `edge_level`, the level of the edge to the parent (root 0).  Per
    terminal column: `terminals`, the points in ascending order, and `leaf`,
    each terminal's leaf node.  `aliases` holds the (point, terminal) pairs
    of the other points at a terminal's position, by point, and `column`
    each point's terminal column (a `Terminals`' array, passed by the sampler
    and promotion; built from `terminals` and `aliases` when not given).
    Node 0 is the root, every other node's parent is an earlier node and
    every leaf is a node id; the constructor checks nothing, so a malformed
    tree reaches validate_hst as built.  It copies the arrays it is given;
    the sampler's own are frozen in place (`_adopt`).
    """

    def __init__(self, parent, edge_level, terminals, leaf, aliases=(), column=None):
        self.parent = _frozen(parent)
        self.edge_level = _frozen(edge_level)
        self.terminals = tuple(terminals)
        self.leaf = _frozen(leaf)
        self.aliases = tuple(sorted(aliases))
        self.column = _column_map(self.terminals, self.aliases) if column is None else column

    @classmethod
    def _adopt(cls, parent, edge_level, leaf, terms) -> Hst:
        """The tree over intp arrays that no one else holds (the sampler's),
        frozen in place rather than copied, on terms' terminal set."""
        t = cls.__new__(cls)
        t.parent, t.edge_level, t.leaf = parent, edge_level, leaf
        for a in (parent, edge_level, leaf):
            a.setflags(write=False)
        t.terminals, t.aliases, t.column = terms.terminals, terms.aliases, terms.column
        return t

    @property
    def n_nodes(self) -> int:
        return len(self.parent)


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


def _column_map(terminals, aliases, n_points=None) -> np.ndarray:
    """Per point, its column in `terminals` (an alias's is its terminal's, a
    terminal's its own), else -1; one more -1 at the end, where a lookup
    clips a point past the array."""
    points = list(terminals) + [p for pair in aliases for p in pair]
    out = np.full((max(points, default=-1) + 1 if n_points is None else n_points) + 1, -1, dtype=np.intp)
    out[list(terminals)] = np.arange(len(terminals))
    if aliases:
        alias, of = np.array(aliases, dtype=np.intp).T
        out[alias] = out[of]
        out[list(terminals)] = np.arange(len(terminals))
    out.flags.writeable = False  # shared by every tree of a Terminals
    return out


def _lengths(level, roots) -> np.ndarray:
    """Edge length per node of a tree or forest, 2^(level-1); 0.0 at `roots`."""
    out = np.ldexp(1.0, level - 1)
    out[roots] = 0.0
    return out


def tree_distance(f: Forest, g: int, u: int, v: int) -> float:
    """Sum of edge lengths on the unique leaf-to-leaf path in tree g of f; 0
    on one leaf."""
    cols = [-1 if p is None or not 0 <= p < len(f.column) else int(f.column[p]) for p in (u, v)]
    if min(cols) < 0:
        raise ValueError(f"{u} or {v} is not a leaf terminal")
    parent, level, off, _, _, leaf = f.nodes
    lo, hi = int(off[g]), int(off[g] + f.sizes[g])
    parent, level = (parent[lo:hi] - lo).tolist(), level[lo:hi].tolist()  # tree g's own ids
    a, b = (int(leaf[g, c]) - lo for c in cols)
    ancestors = {}
    dist = 0.0
    while a != 0:
        ancestors[a] = dist
        dist += 2.0 ** (level[a] - 1)  # f.length, exactly
        a = parent[a]
    ancestors[0] = dist
    dist = 0.0
    while b not in ancestors:
        dist += 2.0 ** (level[b] - 1)
        b = parent[b]
    return dist + ancestors[b]


# The validator compares pairs of terminals in chunks of at most this many
# (trees x k x k), or one tree: the pairwise arrays stay near their one-tree size.
FOREST_PAIRS = 2**16
MISNUMBERED = "numbering: node 0's parent must be -1, any other node's an earlier node, each leaf a node id"


class Validated(NamedTuple):
    """validate_hst's result: per tree, `messages` (what it breaks, empty iff
    it is valid) and `distances`, T[i, j] = tree_distance between its i-th
    and j-th terminals on a tree whose leaf map is a bijection (None on a
    misnumbered tree); `forest`, the valid trees as a Forest (None if none)."""

    messages: list
    distances: list
    forest: Forest | None


def validate_hst(trees, m: MetricSpace) -> Validated:
    """Exhaustive check of the Definition-2 invariants on trees of one
    terminal set (ValueError otherwise), compared with m.d.

    Independent of the sampler: everything is derived from each tree's
    parent, edge_level, terminals, leaf and aliases.  A tree numbered against
    the Hst rule gets that one message and is left out of the forest the
    others are walked as; the forest of the valid trees is that forest, or,
    when some tree breaks something, one built from the valid ones.
    """
    trees = list(trees)
    bad, nodes = _forest(trees) if trees else ([], None)
    f, found, walked = None, [], []
    if not all(bad):
        walk = _walk(nodes)
        f = Forest(trees[0], nodes, walk=walk)
        found, walked = _validate_forest(f, walk, m)
    ok = np.flatnonzero([not msgs for msgs in found])
    if 0 < len(ok) < len(found):
        numbered = [t for t, misnumbered in zip(trees, bad) if not misnumbered]
        f = Forest(f, _forest([numbered[g] for g in ok])[1], f.local[ok, :f.heights[ok].max()])
    results = iter(zip(found, walked))
    checked = [([MISNUMBERED], None) if misnumbered else next(results) for misnumbered in bad]
    return Validated([msgs for msgs, _ in checked], [T for _, T in checked], f if len(ok) else None)


def _validate_forest(f: Forest, walk, m: MetricSpace):
    """Per tree of f, its validate_hst messages and T, from the walk of its
    leaves that its cut tensor was read from (`_walk`).

    Messages name each tree's own ids.  Node checks run over the whole forest
    at once; pairs are compared in chunks of max(1, FOREST_PAIRS // k^2)
    trees, as trees x k x k arrays.

    Check 5 runs only when it can report: when some edge under a non-root
    parent fails to drop a level (check 2's no_drop), a terminal is listed
    twice, or a non-root node has level <= 0.  Otherwise levels rise strictly
    up every leaf walk from level >= 1, so each listed point passes each
    level at most once and no cut sits at a level <= 0.
    """
    pts = np.asarray(f.terminals, dtype=np.intp)
    n_trees, k = f.n_trees, f.k
    parent, level, off, owner, local, leaf = f.nodes
    ancestors = walk[0]
    out = [[] for _ in range(n_trees)]
    n = len(parent)
    is_child = local > 0
    child = np.flatnonzero(is_child)
    above = parent[child]
    kids = np.bincount(above, minlength=n)
    is_leaf = np.zeros(n, dtype=bool)
    is_leaf[leaf] = True
    # 1. leaves are exactly the terminals (bijection, childless leaves only;
    #    a childless root is a tree of one node)
    for nid in np.flatnonzero((kids == 0) & ~is_leaf & is_child | is_leaf & (kids > 0)).tolist():
        out[owner[nid]].append(f"leaves: node {local[nid]} is both internal and a terminal leaf" if kids[nid]
                               else f"leaves: childless node {local[nid]} maps to no terminal")
    terminals = set(f.terminals)
    ranked = np.sort(leaf, axis=1)
    not_bijective = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1) | (len(terminals) != k)
    # an alias is a non-terminal at its terminal's position
    aliases = [f"aliases: point {a} is not a non-terminal coincident with terminal {p}"
               for a, p in f.aliases if a in terminals or p not in terminals or m.d[a, p] != 0.0]
    for msgs, flag in zip(out, not_bijective.tolist()):
        msgs += ["leaves: terminal-to-leaf map is not a bijection"] * flag + aliases
    # 2. siblings share an edge level (each child writes its level at its
    #    parent, and one that reads back another has a sibling at another);
    #    levels drop strictly toward the leaves; length = 2^(level-1) holds
    #    by construction of _lengths
    child_level = level[child]
    written = np.empty(n, dtype=level.dtype)
    written[above] = child_level
    found = [((nid, 0, 0), f"levels: children of node {local[nid]} at differing edge lengths")
             for nid in sorted(set(above[child_level != written[above]].tolist()))]
    no_drop = (local[above] != 0) & (child_level >= level[above])
    found += [((p, 1, c), f"levels: edge level does not decrease at node {local[c]}")
              for p, c in zip(above[no_drop].tolist(), child[no_drop].tolist())]
    for (nid, _, _), msg in sorted(found):  # ids grow tree by tree
        out[owner[nid]].append(msg)
    # 3 and 4, over the pairs: cut diameters and distances, chunk by chunk
    d = m.d[np.ix_(pts, pts)]
    pair = np.triu(np.ones(d.shape, dtype=bool), 1)  # u < v
    group = max(1, FOREST_PAIRS // max(1, k) ** 2)
    distances = [T for g in range(0, n_trees, group)
                 for T in _check_pairs(f, walk, slice(g, g + group), d, pair, out)]
    # 5. per-level cuts partition the terminals (implicit singletons complete
    #    any level a leaf's path skips); levels <= 0 are singletons.  A cut is
    #    the set of points whose leaf walks pass its node; a walk passes a
    #    node once, so the (node, point) pairs are distinct unless a point is
    #    listed twice among the terminals.
    if no_drop.any() or len(terminals) != k or (child_level <= 0).any():
        below = ancestors[1:]  # the nodes under each tree's root
        on_walk = below >= 0
        members = below[on_walk] * m.n + np.broadcast_to(pts, below.shape)[on_walk]
        if len(terminals) != k:
            members = np.unique(members)
        member_node, member_pt = members // m.n, members % m.n
        size = np.bincount(member_node, minlength=n)
        lowest, width = int(level.min()), int(level.max() - level.min()) + 1
        # a level breaks when a terminal sits in two of its cuts: per tree,
        # the broken levels from 1 to its root level, ascending
        count = np.bincount((owner[member_node] * m.n + member_pt) * width + level[member_node] - lowest)
        twice = np.flatnonzero(count > 1)
        tree, j = twice // (m.n * width), twice % width + lowest
        broken = np.unique((tree * width + j - lowest)[(j >= 1) & (j <= f.root_levels[tree])])
        for g, j in zip((broken // width).tolist(), (broken % width + lowest).tolist()):
            out[g].append(f"partition: level-{j} cuts do not partition the terminals")
        for nid in np.flatnonzero((level <= 0) & is_child & (size != 1)).tolist():
            out[owner[nid]].append(f"singletons: level-{level[nid]} cut has {size[nid]} terminals")
    return out, distances


def _check_pairs(f: Forest, walk, trees: slice, d, pair, out):
    """Checks 3 and 4 of _validate_forest on a slice of f's trees: their
    messages go to their lists in `out`; returns their T, trees x k x k.
    `d` is the terminals' submatrix of m.d and `pair` its u < v mask."""
    pts = np.asarray(f.terminals, dtype=np.intp)
    _, level, _, _, local, _ = f.nodes
    ancestors, first = walk[0], trees.start
    T, cap = _pairwise(f, walk, trees)
    # 3. cut diameter: a level-j edge separates a set of diameter < 2^j; a pair
    #    breaks some cut iff it breaks the cut of its lowest-level common edge
    bad = set()
    wide = d >= cap
    wide &= pair
    for g, a, b in np.argwhere(wide).tolist() if wide.any() else ():
        x, y = ancestors[1:, first + g, a], ancestors[1:, first + g, b]
        for anc in x[(x == y) & (x >= 0)].tolist():
            if d[a, b] >= pow2(int(level[anc])):
                bad.add((first + g, int(local[anc]), int(pts[a]), int(pts[b]), int(level[anc]), float(d[a, b])))
    for g, _, u, v, j, duv in sorted(bad):
        out[g].append(f"cut diameter: d({u},{v})={duv:g} >= 2^{j} under a level-{j} edge")
    # 4. expanding: T(u,v) >= d(u,v).  The pair of least slack decides it, so
    #    that pair is measured again by the path walk that defines T.
    k = len(pts)
    if k > 1:
        slack = np.subtract(T, d, out=np.full(T.shape, np.inf), where=pair)
        g, (a, b) = np.arange(len(T)), np.divmod(slack.reshape(len(T), -1).argmin(axis=1), k)
        T[g, a, b] = T[g, b, a] = [tree_distance(f, first + x, f.terminals[y], f.terminals[z])
                                   for x, y, z in zip(g.tolist(), a.tolist(), b.tolist())]
    short = T < d
    short &= pair
    for g, a, b in np.argwhere(short).tolist() if short.any() else ():
        out[first + g].append(f"expanding: T({pts[a]},{pts[b]})={T[g, a, b]:g} < d={d[a, b]:g}")
    return T


def _root_levels(parent, level, off, owner, local) -> np.ndarray:
    """Per tree of a forest, its root level: the level of the root's first
    child, 0 for a tree of one node."""
    top = np.flatnonzero((local > 0) & (parent == off[owner]))  # the roots' children, by id
    first = top[np.flatnonzero(np.diff(owner[top], prepend=-1))]
    out = np.zeros(len(off), dtype=np.intp)
    out[owner[first]] = level[first]
    return out


def _forest(trees):
    """(misnumbered, nodes): the trees' arrays, concatenated once into a
    `Forest`'s node arrays.

    `misnumbered` flags per tree a break of the Hst numbering rule, or an
    edge level or leaf count other than its nodes' or terminals'; the node
    arrays hold the other trees, each in its own node order.  ValueError
    unless the trees share terminals and aliases.
    """
    first, k = trees[0], len(trees[0].terminals)
    if any(t.terminals != first.terminals or t.aliases != first.aliases for t in trees):
        raise ValueError("trees of one forest must share terminals and aliases")
    counts = np.array([[t.n_nodes, len(t.edge_level), len(t.leaf)] for t in trees]).T
    parent, level, leaf = (np.concatenate([getattr(t, a) for t in trees]) for a in ("parent", "edge_level", "leaf"))
    owner, level_owner, leaf_owner = (np.repeat(np.arange(len(trees)), c) for c in counts)
    sizes = counts[0]
    local = np.arange(len(parent)) - (np.cumsum(sizes) - sizes)[owner]
    bad = (sizes == 0) | (counts[1] != sizes) | (counts[2] != k)
    bad[owner[np.where(local > 0, (parent < 0) | (parent >= local), parent != -1)]] = True
    bad[leaf_owner[(leaf < 0) | (leaf >= sizes[leaf_owner])]] = True
    if bad.any():
        parent, local = parent[~bad[owner]], local[~bad[owner]]
        sizes, level, leaf = sizes[~bad], level[~bad[level_owner]], leaf[~bad[leaf_owner]]
        owner = np.repeat(np.arange(len(sizes)), sizes)
    off = np.cumsum(sizes) - sizes
    leaf = leaf.reshape(len(sizes), k) + off[:, None]
    return bad.tolist(), (np.maximum(parent, 0) + off[owner], level, off, owner, local, leaf)


def _walk(nodes):
    """(ancestors, to_ancestor) of a forest's node arrays, depth x trees x k:
    each leaf's ancestor at each depth below its root (the root at depth 0,
    -1 past the leaf) and the path length up to it, summed from the leaf up
    as tree_distance sums it.  One walk lifts every leaf of every tree."""
    parent, level, off, _, _, leaf = nodes
    root = np.repeat(off, leaf.shape[1])
    up = [leaf.ravel()]
    while (up[-1] != root).any():  # a root is its own parent
        up.append(parent[up[-1]])
    up = np.array(up)
    dist = np.zeros(up.shape)
    np.cumsum(_lengths(level, off)[up[:-1]], axis=0, out=dist[1:])  # in order, from the leaf up
    steps = (up != root).sum(axis=0) - np.arange(len(up))[:, None]  # depth -> steps above the leaf
    cols, shape = np.arange(leaf.size), (len(up),) + leaf.shape
    return (np.where(steps >= 0, up[steps.clip(0), cols], -1).reshape(shape),
            dist[steps.clip(0), cols].reshape(shape))


def _cut_rows(f: Forest, walk) -> np.ndarray:
    """f's cut tensor from the walk of its leaves: one scatter moves every
    ancestor below a root from its depth row to its edge level's row, over
    rows of implicit singletons n_nodes + q, then -1 fills the rows past
    each tree's height and the last column."""
    ancestors, k = walk[0], f.k
    _, level, _, _, local, _ = f.nodes
    rows = np.full((f.n_trees, f.heights.max(), k + 1), -1, dtype=np.intp)
    rows[:, :, :k] = (f.sizes[:, None] + np.arange(k))[:, None]
    below = ancestors[1:]
    row = level[below] - f.lows[:, None]
    on = (below >= 0) & (row >= 0) & (row < f.heights[:, None])
    _, tree, col = np.nonzero(on)
    rows[tree, row[on], col] = local[below[on]]
    rows[np.arange(rows.shape[1]) >= f.heights[:, None]] = -1
    return rows


def _pairwise(f: Forest, walk, trees: slice):
    """(T, cap) of a slice of f's trees, trees x k x k, from their walk.

    T[tree, a, b] is the leaf-to-leaf path length, each side summed leaf first
    as tree_distance sums it; cap[tree, a, b] is 2^(lowest edge level over
    the common ancestors below the root), inf when only the root is common.
    Both are read at the pair's count of shared depths through one array of
    flat indices depth * trees * k + column, on b's side, then on a's.
    """
    _, level, off, *_ = f.nodes
    ancestors, to_ancestor = (a[:, trees] for a in walk)
    depth = 1 + int((ancestors[1:] >= 0).any(axis=(1, 2)).sum())  # these trees' rows
    ancestors, to_ancestor = ancestors[:depth], np.ascontiguousarray(to_ancestor[:depth])
    n_trees, k = ancestors.shape[1:]
    cols = np.arange(n_trees * k)
    # Shared ancestors form a prefix of both root paths, so counting the
    # shared depths below the root gives the depth of the lowest common one.
    # Two leaves are compared only within their tree, so its own node ids
    # serve, with padding -1 - a that matches nothing: int16 unless a tree
    # has 2^15 nodes or leaves; the count is uint8 unless the depth is 256.
    narrow = max(int(f.sizes[trees].max()), k) < 2**15
    apart = np.where(ancestors >= 0, ancestors - off[trees, None], -1 - np.arange(k))
    apart = apart.astype(np.int16 if narrow else np.intp)
    lca = np.zeros((n_trees, k, k), dtype=np.uint8 if depth <= 256 else np.intp)
    same = np.empty(lca.shape, dtype=bool)
    for a in apart[1:]:
        lca += np.equal(a[:, :, None], a[:, None, :], out=same)
    at = np.multiply(lca, n_trees * k, dtype=np.intp)
    at += cols.reshape(n_trees, 1, k)  # b's side
    lowest = np.minimum.accumulate(level[ancestors[1:]], axis=0)  # down each root path
    cap = np.concatenate([np.full((1, n_trees, k), np.inf), np.ldexp(1.0, lowest)]).take(at)
    T = to_ancestor.take(at)
    at -= cols.reshape(n_trees, 1, k)
    at += cols.reshape(n_trees, k, 1)  # a's side
    T += to_ancestor.take(at)  # a's + b's, as addition commutes
    return T, cap


class Terminals:
    """What every tree sampled for a set of points shares, computed once.

    `terminals` holds the lowest index at each position of the points,
    ascending, and `aliases` a (point, terminal) pair for every other point;
    `column` maps each point of the metric to its terminal's column (-1 if
    none), the one lookup every tree sampled from it shares (`Forest.columns`);
    `d` is the terminals' distance submatrix, which must be normalized
    (distinct positions at least 1 apart), and `ids` its row numbers.
    `levels` runs from the top carving level L = floor(log2 max d) + 1 down
    to 1, and `by_dist` holds each row of `d`'s points sorted by distance.

    The radius count `within(beta)` reads each sorted distance split once by
    np.frexp into its binade b and mantissa m in [1, 2), d = m 2^b (d = 0 is
    m = 0 in binade -1).  The level-j radius is beta 2^(j-2) with 1 <= beta
    < 2, so a distance in a binade below j - 2 is inside it, one in a higher
    binade is outside, and one in binade j - 2 is inside iff m <= beta:
    scaling by a power of two is exact, so this is d <= beta 2^(j-2) to the
    bit.  `below` counts per level and point the distances inside at any
    beta; a tree adds the count of the distances in the edge binade whose
    mantissa is <= beta, one comparison and one bincount.

    `need` holds per pair u < v the fewest levels L' at which two leaves'
    nodes must differ for their tree distance 2(2^L' - 1) to reach d, and
    1 <= need <= L: d >= 1 > 0, and d < 2^L <= 2(2^L - 1) as L >= 1.  Nodes
    nest, so leaves whose nodes differ at a level differ at every level
    below it, and they differ at need levels or more iff they differ at
    level need, row L - need of the carving.  `split` holds, per pair, u's
    and v's flat (row, point) index at that row: the sampler's expanding
    test is two gathers.
    """

    def __init__(self, m: MetricSpace, points):
        pts = sorted(set(int(p) for p in points))
        if not pts:
            raise ValueError("need at least one terminal")
        d = m.d[np.ix_(pts, pts)]
        first = (d == 0.0).argmax(axis=1)
        self.aliases = tuple((p, pts[i]) for p, i in zip(pts, first.tolist()) if pts[i] != p)
        if self.aliases:
            keep = first == np.arange(len(pts))
            pts, d = [p for p, kept in zip(pts, keep.tolist()) if kept], d[np.ix_(keep, keep)]
        close = d < 1.0
        np.fill_diagonal(close, False)
        if close.any():
            u, v = (pts[i] for i in np.argwhere(np.triu(close))[0])
            raise ValueError(f"metric not normalized: d({u},{v})={m.dist(u, v):g} < 1")
        self.terminals, self.d = tuple(pts), d
        self.column = _column_map(self.terminals, self.aliases, m.n)
        self.ids = np.arange(len(pts))
        self.levels = np.arange(floor_log2(float(d.max())) + 1 if len(pts) > 1 else 0, 0, -1)
        self.by_dist = np.argsort(d, axis=1)
        k, n_levels = len(pts), len(self.levels)
        # frexp's d = (m / 2) 2^e: binade e - 1, the edge binade of level e + 1;
        # e <= L as d < 2^L, and cells e = L lie outside every radius
        half, e = np.frexp(np.take_along_axis(d, self.by_dist, axis=1))
        self._mantissa = 2.0 * half.ravel()
        self._cell = (e * k + np.arange(k, dtype=np.int32)[:, None]).ravel()  # (e, point)
        by_binade = np.bincount(self._cell, minlength=(n_levels + 1) * k).reshape(n_levels + 1, k)
        below = np.zeros((n_levels, k), dtype=np.intp)  # row j - 1: the distances of e <= j - 2
        np.cumsum(by_binade[:n_levels - 1], axis=0, out=below[1:])
        self.below = below[::-1]  # rows as levels
        u, v = np.triu_indices(k, 1)
        span = 2.0 * (np.ldexp(1.0, np.arange(n_levels + 1)) - 1.0)  # T for L' = 0, 1, ...
        d_uv = d[u, v]
        e_uv = np.frexp(d_uv)[1]  # 2^(e-1) <= d < 2^e, so need is e - 1 or e
        self.need = (e_uv - (span[e_uv - 1] >= d_uv)).astype(np.int16)
        row = (n_levels - self.need.astype(np.intp)) * k
        self.split = (row + u, row + v)

    def within(self, beta: float) -> np.ndarray:
        """Per level (rows as `levels`) and point, how many terminals lie
        within radius beta 2^(j-2) of it, itself included, for 1 <= beta < 2:
        `below` plus the edge-binade distances whose mantissa is <= beta."""
        edge = np.bincount(self._cell[self._mantissa <= beta], minlength=self.below.size)
        return self.below + edge[:self.below.size].reshape(self.below.shape)[::-1]


def sample_frt(terms: Terminals, seed: int) -> Hst:
    """Sample an HST embedding of terms' points; pure in (terms, seed).

    The tree is sampled over terms.terminals, and every other point is an
    alias of the terminal at its position.
    Any sampler passing validate_hst with logarithmic empirical stretch serves
    the analysis; nothing downstream depends on distribution details.
    """
    pts, aliases, levels = terms.terminals, terms.aliases, terms.levels
    k = len(pts)
    if k == 1:
        return Hst([-1], [0], pts, [0], aliases=aliases, column=terms.column)

    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    beta = 2.0 ** rng.random()
    rank = np.empty(k, dtype=np.intp)
    rank[rng.permutation(k)] = terms.ids

    # Least-element lists: along each row sorted by distance, the prefix-min
    # of permutation rank is the first permutation element within any radius
    # (a radius takes in all or none of a run of equal distances, so the order
    # of ties does not matter).
    least = rank.take(terms.by_dist)
    np.minimum.accumulate(least, axis=1, out=least)
    center = least[terms.ids, terms.within(beta) - 1]  # levels x points
    # A level-j node holds the points whose centers agree from the top level
    # down to j.  Sorted by that path, the points list each level's nodes in
    # (parent id, center rank) order, the order carving them one by one gives.
    order = np.lexsort(center[::-1])
    path = center.take(order, axis=1)
    starts = np.empty(path.shape, dtype=bool)  # sorted point i opens a node at this level
    starts[:, 0] = True
    np.not_equal(path[:, 1:], path[:, :-1], out=starts[:, 1:])
    np.logical_or.accumulate(starts[:, 1:], axis=0, out=starts[:, 1:])
    assert starts[-1].all()
    node = np.cumsum(starts).reshape(path.shape)  # node ids, level by level
    # nodes nest, so the points of a node write one parent and one level
    parent, edge_level = np.empty((2, node[-1, -1] + 1), dtype=np.intp)
    parent[0], parent[node[0]], parent[node[1:]] = -1, 0, node[:-1]
    edge_level[0], edge_level[node] = 0, levels[:, None]
    by_point = np.empty_like(node)
    by_point[:, order] = node
    t = Hst._adopt(parent, edge_level, by_point[-1], terms)

    # T(u, v) = 2 (2^L' - 1) for the L' levels at which their nodes differ,
    # which reaches d(u, v) iff they differ at level need (Terminals.split)
    u, v = terms.split
    if not (by_point.take(u) != by_point.take(v)).all():
        t = _promote_one_level(t)
    return t


def _promote_one_level(t: Hst) -> Hst:
    """Double every edge length and re-hang each terminal, below its leaf in
    node order, by a new level-1 edge."""
    n, k = t.n_nodes, len(t.leaf)
    by_node = np.argsort(t.leaf)
    leaf = np.empty(k, dtype=np.intp)
    leaf[by_node] = np.arange(n, n + k)
    parent, edge_level = np.empty((2, n + k), dtype=np.intp)
    parent[:n], parent[n:] = t.parent, t.leaf[by_node]
    np.add(t.edge_level, t.parent >= 0, out=edge_level[:n])
    edge_level[n:] = 1
    return Hst._adopt(parent, edge_level, leaf, t)


class Forest:
    """The trees of one terminal set (an instance's trials), read as one: the
    one form of a tree once validated.

    The trees share `terminals`, `aliases` and `column`, so one column lookup
    serves them all.  `nodes` holds (parent, level, off, owner, local, leaf):
    tree g's node ids offset by the nodes of the trees before it, its root
    off[g] its own parent, `owner` and `local` each node's tree and id in
    it, `leaf` the trees x k leaves.  Cut ids are offset the same way over
    each tree's n_nodes + k ids (its nodes, then its implicit singletons),
    tree g's from start[g].

    A forest is the one place a tree's levels and cuts are derived.  Tree
    g's cut levels run from lows[g] = min(0, its lowest edge level) to its
    root level root_levels[g] (`_root_levels`), heights[g] rows.  `local` is
    the cut tensor, trees x levels x (k + 1): row r of tree g is level
    lows[g] + r, and entry (g, r, q) is the node whose parent edge is
    terminal q's level-(lows[g] + r) edge, or n_nodes + q if q's path has
    none (an implicit singleton); sorted, a row lists real nodes by id, then
    singletons.  It holds -1 past a tree's height and in the last column,
    where column -1 (a point in no tree) reads no cut, so a lookup by point
    is one gather.

    `terms` is anything carrying the terminal set (a sampled tree, or the
    forest a new one is derived from).  Unless given, `local` is read from
    the walk of every leaf (`_walk`), which the forest does not keep.
    `_forest` builds the node arrays of sampled trees.
    """

    def __init__(self, terms, nodes, local=None, walk=None):
        self.terminals, self.aliases, self.column = terms.terminals, terms.aliases, terms.column
        self.k, self.nodes = len(self.terminals), nodes
        parent, level, off, owner, ids, _ = nodes
        self.n_trees = len(off)
        self.sizes = np.bincount(owner, minlength=self.n_trees)
        n_ids = self.sizes + self.k
        self.start = np.cumsum(n_ids) - n_ids
        self.n_ids = int(n_ids.sum())
        self.lows = np.minimum(np.minimum.reduceat(level, off), 0)
        self.root_levels = _root_levels(parent, level, off, owner, ids)
        self.heights = np.maximum(self.root_levels - self.lows + 1, 0)
        if local is None:
            local = _cut_rows(self, _walk(nodes) if walk is None else walk)
        self.local = local

    @cached_property
    def length(self) -> np.ndarray:
        """Edge length per node, 2^(level-1); 0.0 at a root, which has no edge."""
        _, level, off, *_ = self.nodes
        return _lengths(level, off)

    def columns(self, points) -> np.ndarray:
        """Each point's column in self.terminals (an alias's is its terminal's),
        -1 for a point not in the trees (or None)."""
        at = np.array([-1 if p is None else p for p in points], dtype=np.intp).view(np.uintp)
        return self.column[np.minimum(at, len(self.column) - 1)]  # a negative point wraps past the end

    def cuts(self, points) -> np.ndarray:
        """Every tree's cut tensor columns of `points`, trees x levels x
        points; a point not in the trees (or None) is in no cut, id -1."""
        return self.local[:, :, self.columns(points)]


def path_cuts(f: Forest, pairs):
    """(cut id, pair index) for every cut holding one end of a pair but not
    the other, in f's cut ids; an end outside the trees is in no cut."""
    cols = f.columns([p for pair in pairs for p in pair])
    ends = f.local[:, :, cols].reshape(*f.local.shape[:2], -1, 2)
    crossed = (ends[..., :1] != ends[..., 1:]) & (ends >= 0)  # (tree, level, pair, end)
    tree, _, which, _ = np.nonzero(crossed)
    return ends[crossed] + f.start[tree], which


def cut_load(f: Forest, pairs) -> np.ndarray:
    """Per cut id of f, the number of pairs the cut separates."""
    return np.bincount(path_cuts(f, pairs)[0], minlength=f.n_ids)


def extend_singleton_levels(f: Forest) -> Forest:
    """Append singleton chains (levels -1 and -2) below every leaf of every
    tree of f; the extended trees, as a forest.

    Edge lengths are 2^-2 and 2^-3; the terminal moves to the chain bottom, so
    the new levels' cuts are exactly the singletons and every tree optimum
    grows by at most (#leaves) * 3/8.  Each tree's 2k chain nodes follow its
    own, so a node id moves by 2k for every tree before it.
    """
    k, n, n_trees = f.k, f.sizes, f.n_trees
    if (f.lows < 0).any():
        raise ValueError(f"tree already extended to {f.lows[f.lows < 0][0]}")
    parent, level, off, owner, local, leaf = f.nodes
    shift = 2 * k * np.arange(n_trees)
    ext_off = off + shift
    by_node = np.argsort(leaf, axis=1)
    chain = n[:, None] + 2 * np.arange(k)  # the level -1 node below each tree's q-th leaf by id
    hang = np.stack([np.take_along_axis(leaf, by_node, axis=1) + shift[:, None], chain + ext_off[:, None]], axis=2)
    ext_leaf = np.empty_like(leaf)
    np.put_along_axis(ext_leaf, by_node, chain + 1, axis=1)
    at = np.repeat(off + n, 2 * k)  # each tree's chain nodes go after its own
    nodes = (np.insert(parent + shift[owner], at, hang.ravel()), np.insert(level, at, np.tile([-1, -2], k * n_trees)),
             ext_off, np.repeat(np.arange(n_trees), n + 2 * k),
             np.insert(local, at, (n[:, None] + np.arange(2 * k)).ravel()), ext_leaf + ext_off[:, None])
    # The chains add levels -2 and -1 below the base rows, whose nodes keep
    # their ids; only the implicit singletons move past the 2k chain nodes.
    # A one-leaf tree's root level drops to -1, so its base row goes (and
    # with it the tensor's last row when every tree has one leaf).
    base = f.local
    rows = np.full((n_trees, base.shape[1] + 2, k + 1), -1, dtype=np.intp)
    rows[:, 0, :k], rows[:, 1, :k] = ext_leaf, ext_leaf - 1
    rows[:, 2:] = np.where(base >= n[:, None, None], base + 2 * k, base)
    top = np.where(n > 1, f.root_levels, -1)
    rows[top < 0, 2:] = -1
    return Forest(f, nodes, rows[:, :(top + 3).max()])


class CutGroups(NamedTuple):
    """class_cuts' entries grouped by cut, in every tree of a forest.

    Per group (a cut holding an entry; by tree, then level, then cut id):
    `tree`, `level`, `cut` (a forest cut id) and `holds_root`.  Per member (an
    entry in a cut of a tree; by tree, then in entry order): its `group` and
    `entry`, its index in `entries`.  `trees` is the forest's tree count.
    """

    tree: np.ndarray
    level: np.ndarray
    cut: np.ndarray
    holds_root: np.ndarray
    group: np.ndarray
    entry: np.ndarray
    entries: list
    trees: int

    def total(self, values=None) -> np.ndarray:
        """Per group, the sum of its members' values (per entry), added in
        entry order; without values, the number of members."""
        weights = None if values is None else np.asarray(values, dtype=float)[self.entry]
        return np.bincount(self.group, weights, minlength=len(self.tree))


def class_cuts(f: Forest, by_class: dict, shift: int, root=None) -> CutGroups:
    """Group the entries of by_class[j + shift] by the level-j cut holding
    them, in every tree of f at once.

    An entry is a tuple whose first item is a point; `entries` lists them by
    class, each class's in input order, and one at no terminal is in no
    group.  `root` is a point (or None): a group holds the root when its cut
    contains it.  One gather reads every entry's cut in every tree, and
    one np.unique over (tree, level, cut) keys groups them.
    """
    lows, heights = f.lows, f.heights
    tagged = [(j, e) for j in range(int(lows.min()), int((lows + heights).max()))
              for e in by_class.get(j + shift, ())]
    entries = [e for _, e in tagged]
    cuts = f.cuts([e[0] for e in entries] + [root])
    row = np.array([j for j, _ in tagged], dtype=np.intp) - lows[:, None]  # trees x entries
    inside = (row >= 0) & (row < cuts.shape[1])
    at = (np.arange(f.n_trees)[:, None], np.where(inside, row, 0))
    cut, holder = cuts[at + (np.arange(len(entries)),)], cuts[at + (-1,)]  # and the root's cut
    on = inside & (cut >= 0)  # a cut id is -1 past a tree's height
    g, entry = np.nonzero(on)
    width, ids = f.local.shape[1], int((f.sizes + f.k).max())
    _, first, group = np.unique((g * width + row[on]) * ids + cut[on], return_index=True, return_inverse=True)
    g, row, cut = g[first], row[on][first], cut[on][first]
    return CutGroups(g, row + lows[g], cut + f.start[g], holder[on][first] == cut, group, entry, entries,
                     f.n_trees)
