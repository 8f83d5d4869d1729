"""HST embeddings: FRT-style sampling, validation, the cut-id matrix.

A tree here is leveled: a level-j edge has length 2^(j-1), the cut below it
(the terminals it separates from the root) has metric diameter < 2^j, and every
root-to-leaf path passes one edge per level from the top level down to level 1.
Levels -1 and -2 exist only on extended trees (singleton chains of lengths 1/4
and 1/8 below each leaf); level 0 never carries edges, but its cuts are the
terminal singletons by convention (forced by the min-distance-1 normalization).
`Hst.cut_ids` names the cut holding each terminal at each level; the tree
oracles and per-tree checks group its rows, as `cuts_at_level` does.

Sampling draws beta log-uniformly from [1,2) and a uniform permutation, then
carves nested balls of radius beta*2^(j-2) per level: a point joins the first
permutation element within the radius.  All levels come from one pass over the
terminals' distance submatrix (Cohen's least-element lists, as Blelloch, Gupta
and Tangwongsan use them for FRT): sort each row by distance and take the
prefix-min of permutation rank, so a point's center at any radius is one
lookup.  Points sorted by their centers from the top level down list every
level's nodes in the order carving them one by one creates.  Two points whose
nodes differ at L levels are 2(2^L - 1) apart in the tree, which gives the
expanding test T >= d for all pairs at once; when it fails, the whole tree is
promoted one level ("rescale one level up"), with a level-1 singleton edge
appended below each leaf so the bottom level stays 1.

`validate_hst` trusts neither the sampler nor `cut_ids`: it walks every leaf
up through `parent` and checks the cuts, levels and distances with pairwise
arrays against the metric; `validated_distances` also returns the pairwise
tree distances it measured.  `tree_distance` is the scalar path walk that
defines them.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    AlreadyExtended,
    CoincidentTerminals,
    EmptyTerminalSet,
    LevelOutOfRange,
    UnknownLeaf,
)
from .metric import MetricSpace, floor_log2, pow2


class Hst:
    """Rooted leveled tree over a terminal set (point indices of a metric)."""

    def __init__(self):
        self.parent = []       # node -> parent node id (root: -1)
        self.edge_level = []   # node -> level of the edge to its parent (root: None)
        self.leaf_point = {}   # leaf node id -> terminal point
        self.point_leaf = {}   # terminal point -> leaf node id
        self.extended_to = None

    # -- construction ------------------------------------------------------
    def add_node(self, parent: int, edge_level: Optional[int]) -> int:
        nid = len(self.parent)
        self.parent.append(parent)
        self.edge_level.append(edge_level)
        return nid

    def set_leaf(self, nid: int, point: int) -> None:
        self.leaf_point[nid] = point
        self.point_leaf[point] = nid

    # -- basic accessors -----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def terminals(self) -> tuple:
        return tuple(sorted(self.point_leaf))

    @property
    def root_level(self) -> int:
        """Level of the edges below the root (0 for a single-leaf tree)."""
        return next((lv for above, lv in zip(self.parent, self.edge_level) if above == 0), 0)

    def edge_length(self, nid: int) -> float:
        return pow2(self.edge_level[nid] - 1)

    @cached_property
    def cut_ids(self) -> np.ndarray:
        """Rows check_levels(self), columns self.terminals: entry (j, q) is the
        node whose parent edge is q's level-j edge, or n_nodes + q's column if
        q's path has none (an implicit singleton).  Read once the tree is built
        and valid; sorted, a row lists real nodes by id, then singletons."""
        levels = check_levels(self)
        cols = np.arange(len(self.point_leaf))
        ids = np.tile(self.n_nodes + cols, (len(levels), 1))
        up = _walk_up(self, [self.point_leaf[p] for p in self.terminals])
        row = np.asarray([0] + self.edge_level[1:])[up] - (levels[0] if levels else 0)
        on = (up > 0) & (row >= 0) & (row < len(levels))
        ids[row[on], np.broadcast_to(cols, up.shape)[on]] = up[on]
        return ids

    def cut_ids_at(self, points) -> np.ndarray:
        """cut_ids columns of `points`; a non-terminal is in no cut (id -1)."""
        cols = np.array([self._column.get(p, -1) for p in points], dtype=np.intp)
        return np.where(cols >= 0, self.cut_ids[:, cols], -1)

    @cached_property
    def _column(self) -> dict:
        return {p: i for i, p in enumerate(self.terminals)}

    def total_length(self) -> float:
        return sum(self.edge_length(nid) for nid in range(1, self.n_nodes))

    def to_json_dict(self) -> dict:
        nodes = [{"id": 0, "level": self.root_level, "parent": None, "edge_len": None}]
        for nid in range(1, self.n_nodes):
            nodes.append(
                {
                    "id": nid,
                    "level": self.edge_level[nid],
                    "parent": self.parent[nid],
                    "edge_len": self.edge_length(nid),
                }
            )
        return {
            "levels": self.root_level,
            "nodes": nodes,
            "leaf_map": {str(p): nid for p, nid in sorted(self.point_leaf.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def tree_distance(t: Hst, u: int, v: int) -> float:
    """Sum of edge lengths on the unique leaf-to-leaf path; T(u,u) = 0."""
    if u not in t.point_leaf or v not in t.point_leaf:
        raise UnknownLeaf(f"{u} or {v} is not a leaf terminal")
    if u == v:
        return 0.0
    a, b = t.point_leaf[u], t.point_leaf[v]
    ancestors = {}
    dist = 0.0
    while a != 0:
        ancestors[a] = dist
        dist += t.edge_length(a)
        a = t.parent[a]
    ancestors[0] = dist
    dist = 0.0
    while b not in ancestors:
        dist += t.edge_length(b)
        b = t.parent[b]
    return dist + ancestors[b]


def cuts_at_level(t: Hst, j: int, meeting=None):
    """The level-j cuts, as a list of frozensets partitioning the terminals;
    given `meeting`, only the cuts holding one of those points.

    Terminals not under any level-j edge count as singletons: level 0 never
    carries edges (minimum distance 1 forces any diameter-<2^j cut with j <= 0
    to be a singleton), and a leaf whose path skips a level sits alone in its
    implicit cut.  Cuts come in the order of their ids in `Hst.cut_ids`.
    """
    levels = check_levels(t)
    if j not in levels:
        raise LevelOutOfRange(f"level {j} outside [{levels[0]}, {t.root_level}]")
    cuts = {}
    for p, cut in zip(t.terminals, t.cut_ids[j - levels[0]].tolist()):
        cuts.setdefault(cut, []).append(p)
    hit = cuts if meeting is None else set(t.cut_ids_at(meeting)[j - levels[0]].tolist())
    return [frozenset(cuts[cut]) for cut in sorted(cuts) if cut in hit]


def check_levels(t: Hst) -> list:
    """Level range [min charge level, root level] for the charging checks."""
    lo = t.extended_to if t.extended_to is not None else 0
    return list(range(lo, t.root_level + 1))


def _walk_up(t: Hst, leaves):
    """Row s: each leaf's node s steps up (0 from the root on), from t.parent alone."""
    parent = np.asarray([0] + t.parent[1:])  # a walk that reaches the root stays there
    walk = [np.asarray(leaves, dtype=np.intp)]
    while walk[-1].any():
        walk.append(parent[walk[-1]])
    return np.array(walk)


def _pairwise(t: Hst, leaves):
    """Walk every leaf in `leaves` up to the root at once, from t.parent alone.

    Returns (ancestors, T, cap): ancestors[depth] holds each leaf's ancestor at
    that depth below the root (-1 past the leaf); T[a, b] is the leaf-to-leaf
    path length, each side summed leaf first as tree_distance sums it; cap[a, b]
    is 2^(lowest edge level over the common ancestors below the root), inf when
    only the root is common.  Arrays are depth x len(leaves) or len(leaves)^2.
    """
    level = np.asarray([0] + t.edge_level[1:])
    length = np.ldexp(1.0, level - 1)
    length[0] = 0.0  # the root has no edge; adding 0.0 keeps finished walks exact
    n = len(leaves)
    up = _walk_up(t, leaves)
    dist = np.zeros(up.shape)
    np.cumsum(length[up[:-1]], axis=0, out=dist[1:])  # in order, from the leaf up
    cols = np.arange(n)
    steps = (up > 0).sum(axis=0) - np.arange(len(up))[:, None]  # depth -> steps above the leaf
    ancestors = np.where(steps >= 0, up[steps.clip(0), cols], -1)
    to_ancestor = dist[steps.clip(0), cols]
    # Shared ancestors form a prefix of both root paths, so counting the
    # shared depths below the root gives the depth of the lowest common one.
    apart = np.where(ancestors >= 0, ancestors, -1 - cols)  # padding matches nothing
    lca = np.zeros((n, n), dtype=np.intp)
    for a in apart[1:]:
        lca += a[:, None] == a[None, :]
    T = to_ancestor[lca, cols[:, None]] + to_ancestor[lca, cols]
    lowest = np.minimum.accumulate(level[ancestors[1:]], axis=0)  # down each root path
    cap = np.vstack([np.full(n, np.inf), np.ldexp(1.0, lowest)])[lca, cols]
    return ancestors, T, cap


def validate_hst(t: Hst, m: MetricSpace) -> list:
    """Exhaustive check of the Definition-2 invariants; empty list iff valid.

    Independent of the sampler: everything is derived from t.parent,
    t.edge_level and the leaf maps, and compared with m.d.
    """
    return validated_distances(t, m)[0]


def validated_distances(t: Hst, m: MetricSpace):
    """(validate_hst(t, m), T) from one walk of the tree.

    T[i, j] = tree_distance(t, u, v) for u, v the i-th and j-th terminals in
    sorted order, on a tree whose leaf maps are a bijection.
    """
    out = []
    n = t.n_nodes
    parent = np.asarray(t.parent)
    level = np.asarray([0] + t.edge_level[1:])
    kids = np.bincount(parent[1:], minlength=n)
    is_leaf = np.zeros(n, dtype=bool)
    is_leaf[list(t.leaf_point)] = True
    # 1. leaves are exactly the terminals (bijection, childless leaves only)
    for nid in np.flatnonzero((kids == 0) & ~is_leaf & (n > 1) | is_leaf & (kids > 0)):
        out.append(f"leaves: node {nid} is both internal and a terminal leaf" if kids[nid]
                   else f"leaves: childless node {nid} maps to no terminal")
    if len(t.leaf_point) != len(set(t.leaf_point.values())):
        out.append("leaves: terminal-to-leaf map is not a bijection")
    # 2. siblings share an edge level; levels drop strictly toward the leaves;
    #    length = 2^(level-1) holds by construction of edge_length
    above = parent[1:]
    lo, hi = np.full(n, level.max()), np.full(n, level.min())
    np.minimum.at(lo, above, level[1:])
    np.maximum.at(hi, above, level[1:])
    found = [((nid, 0, 0), f"levels: children of node {nid} at differing edge lengths")
             for nid in np.flatnonzero((kids > 0) & (lo != hi))]
    no_drop = (above != 0) & (level[1:] >= level[above])
    found += [((above[c - 1], 1, c), f"levels: edge level does not decrease at node {c}")
              for c in np.flatnonzero(no_drop) + 1]
    out += [msg for _, msg in sorted(found)]
    # One entry per leaf-map item, sorted by point: the leaves point_leaf names
    # are the terminals, any other item still counts in the cuts.
    entries = sorted(t.leaf_point.items(), key=lambda item: (item[1], item[0]))
    nodes = np.array([nid for nid, _ in entries], dtype=np.intp)
    pts = np.array([p for _, p in entries], dtype=np.intp)
    terminal = np.array([t.point_leaf.get(p) == nid for nid, p in entries], dtype=bool)
    ancestors, T, cap = _pairwise(t, nodes)
    d = m.d[np.ix_(pts, pts)]
    # 3. cut diameter: a level-j edge separates a set of diameter < 2^j; a pair
    #    breaks some cut iff it breaks the cut of its lowest-level common edge
    bad = set()
    for a, b in np.argwhere(np.triu(d >= cap, 1)):
        x, y = ancestors[1:, a], ancestors[1:, b]
        for anc in x[(x == y) & (x >= 0)]:
            if d[a, b] >= pow2(int(level[anc])):
                bad.add((int(anc), int(pts[a]), int(pts[b]), int(level[anc]), float(d[a, b])))
    out += [f"cut diameter: d({u},{v})={duv:g} >= 2^{j} under a level-{j} edge"
            for _, u, v, j, duv in sorted(bad)]
    # 4. expanding: T(u,v) >= d(u,v).  The pair of least slack decides it, so
    #    that pair is measured again by the path walk that defines T.
    pair = np.triu(terminal[:, None] & terminal, 1)
    if pair.any():
        a, b = divmod(int(np.where(pair, T - d, np.inf).argmin()), len(pts))
        T[a, b] = T[b, a] = tree_distance(t, int(pts[a]), int(pts[b]))
    for a, b in np.argwhere(pair & (T < d)):
        out.append(f"expanding: T({pts[a]},{pts[b]})={T[a, b]:g} < d={d[a, b]:g}")
    # 5. per-level cuts partition the terminals (implicit singletons complete
    #    any level a leaf's path skips); levels <= 0 are singletons.  A cut is
    #    the set of points whose leaf walks pass its node.
    on_walk = ancestors > 0
    members = np.unique(ancestors[on_walk] * m.n + np.broadcast_to(pts, ancestors.shape)[on_walk])
    member_node, member_pt = members // m.n, members % m.n
    size = np.bincount(member_node, minlength=n)
    lowest, width = int(level.min()), int(level.max() - level.min()) + 1
    count = np.bincount(member_pt * width + level[member_node] - lowest)
    is_terminal = np.zeros(m.n, dtype=bool)
    is_terminal[list(t.point_leaf)] = True
    foreign = ~is_terminal[member_pt]
    # a level breaks when a point sits in two of its cuts or a cut holds a non-terminal
    broken = set((np.flatnonzero(count > 1) % width + lowest).tolist())
    broken |= set(level[member_node[foreign]].tolist())
    out += [f"partition: level-{j} cuts do not partition the terminals"
            for j in range(1, t.root_level + 1) if j in broken]
    for nid in np.flatnonzero((level[1:] <= 0) & (size[1:] != 1)) + 1:
        out.append(f"singletons: level-{level[nid]} cut has {size[nid]} terminals")
    return out, T


def sample_frt(m: MetricSpace, terminals, seed: int) -> Hst:
    """Sample an HST embedding of the given terminal points; pure in (m, seed).

    Any sampler passing validate_hst with logarithmic empirical stretch serves
    the analysis; nothing downstream depends on distribution details.
    """
    pts = sorted(set(int(p) for p in terminals))
    if not pts:
        raise EmptyTerminalSet("need at least one terminal")
    t = Hst()
    root = t.add_node(-1, None)
    if len(pts) == 1:
        t.set_leaf(root, pts[0])
        return t
    k = len(pts)
    d = m.d[np.ix_(pts, pts)]
    close = d < 1.0
    np.fill_diagonal(close, False)
    if close.any():
        u, v = (pts[i] for i in np.argwhere(np.triu(close))[0])
        if m.coincident(u, v):
            raise CoincidentTerminals(f"terminals {u} and {v} share a position")
        raise ValueError(f"metric not normalized: d({u},{v})={m.dist(u, v):g} < 1")

    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    beta = 2.0 ** rng.random()
    rank = np.empty(k, dtype=np.intp)
    rank[rng.permutation(k)] = np.arange(k)
    top = floor_log2(float(d.max())) + 1

    # Least-element lists: along each row sorted by distance, the prefix-min
    # of permutation rank is the first permutation element within any radius
    # (a radius takes in all or none of a run of equal distances, so the order
    # of ties does not matter).
    by_dist = np.argsort(d, axis=1)
    row_d = np.take_along_axis(d, by_dist, axis=1)
    least = np.minimum.accumulate(rank[by_dist], axis=1)
    rows = np.arange(k)
    levels = np.arange(top, 0, -1)
    center = np.array([least[rows, (row_d <= beta * pow2(j - 2)).sum(axis=1) - 1] for j in levels.tolist()])
    # A level-j node holds the points whose centers agree from the top level
    # down to j.  Sorted by that path, the points list each level's nodes in
    # (parent id, center rank) order, the order carving them one by one gives.
    order = np.lexsort(center[::-1])
    path = center[:, order]
    starts = np.ones(path.shape, dtype=bool)  # sorted point i opens a node at this level
    starts[:, 1:] = np.logical_or.accumulate(path[:, 1:] != path[:, :-1], axis=0)
    assert starts[-1].all()
    node = np.cumsum(starts).reshape(path.shape)  # node ids, level by level
    above = np.zeros_like(node)
    above[1:] = node[:-1]
    for p, j in zip(above[starts].tolist(), np.repeat(levels, starts.sum(axis=1)).tolist()):
        t.add_node(p, j)
    for nid, i in zip(node[-1].tolist(), order.tolist()):
        t.set_leaf(nid, pts[i])

    # T(u, v) = 2 (2^L - 1) for the L levels at which their nodes differ
    by_point = np.empty_like(node)
    by_point[:, order] = node
    gap = sum(row[:, None] != row[None, :] for row in by_point)
    span = 2.0 * (np.ldexp(1.0, np.arange(len(levels) + 1)) - 1.0)  # T for L = 0, 1, ...
    if not np.all(span[gap] >= d):
        t = _promote_one_level(t)
    return t


def _promote_one_level(t: Hst) -> Hst:
    """Double every edge length and re-hang each terminal by a level-1 edge."""
    out = _copy_inner_nodes(t, 1)
    for nid, p in t.leaf_point.items():
        leaf = out.add_node(nid, 1)
        out.set_leaf(leaf, p)
    return out


def _copy_inner_nodes(t: Hst, shift: int) -> Hst:
    """t's nodes, every edge level raised by shift, without leaf terminals."""
    out = Hst()
    out.add_node(-1, None)
    for nid in range(1, t.n_nodes):
        out.add_node(t.parent[nid], t.edge_level[nid] + shift)
    return out


def extend_singleton_levels(t: Hst, down_to: int) -> Hst:
    """Append singleton chains (levels -1 .. down_to) below every leaf.

    Edge lengths are 2^-2 and 2^-3; the terminal moves to the chain bottom, so
    the new levels' cuts are exactly the singletons and every tree optimum
    grows by at most (#leaves) * (sum of added lengths).
    """
    if down_to not in (-1, -2):
        raise LevelOutOfRange("down_to must be -1 or -2")
    if t.extended_to is not None:
        raise AlreadyExtended(f"tree already extended to {t.extended_to}")
    out = _copy_inner_nodes(t, 0)
    for nid, p in sorted(t.leaf_point.items()):
        cur = nid
        for j in range(-1, down_to - 1, -1):
            cur = out.add_node(cur, j)
        out.set_leaf(cur, p)
    out.extended_to = down_to
    return out
