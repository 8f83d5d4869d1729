"""HST embeddings: FRT-style sampling, validation, the cut-id matrix.

A tree here is leveled: a level-j edge has length 2^(j-1), the cut below it
(the terminals it separates from the root) has metric diameter < 2^j, and every
root-to-leaf path passes one edge per level from the top level down to level 1.
Levels -1 and -2 exist only on extended trees (singleton chains of lengths 1/4
and 1/8 below each leaf); level 0 never carries edges, but its cuts are the
terminal singletons by convention (forced by the min-distance-1 normalization).

`Hst` holds a tree once, as arrays: `parent` and `edge_level` per node,
`terminals` and `leaf` per terminal column.  Every tree is built whole by
`Hst(parent, edge_level, terminals, leaf)`: the sampler passes the arrays its
carving computes, and promotion and extension concatenate new chain nodes onto
a tree's arrays.  `Hst.cut_ids` names the cut holding each terminal at each
level; the tree oracles and per-tree checks group its rows, as `cuts_at_level`
does.

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
up through `parent` and checks the leaf map, levels, cuts and distances with
pairwise arrays against the metric; `validated_distances` also returns the
pairwise tree distances it measured.  `tree_distance` is the scalar path walk
that defines them.
"""

from __future__ import annotations

import json
from functools import cached_property

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
    """Rooted leveled tree over a terminal set (point indices of a metric).

    The tree is stored once, as read-only intp arrays.  Per node id (root 0):
    `parent` (root -1) and `edge_level`, the level of the edge to the parent
    (root 0).  Per terminal column: `terminals`, the points in ascending
    order, and `leaf`, each terminal's leaf node.  The constructor checks
    nothing, so a malformed tree reaches validate_hst as built.
    """

    def __init__(self, parent, edge_level, terminals, leaf, extended_to=None):
        self.parent = _frozen(parent)
        self.edge_level = _frozen(edge_level)
        self.terminals = tuple(terminals)
        self.leaf = _frozen(leaf)
        self.extended_to = extended_to

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def root_level(self) -> int:
        """Level of the edges below the root (0 for a single-leaf tree)."""
        below = np.flatnonzero(self.parent == 0)
        return int(self.edge_level[below[0]]) if len(below) else 0

    @cached_property
    def length(self) -> np.ndarray:
        """Edge length per node, 2^(level-1); 0.0 at the root, which has no edge."""
        out = np.ldexp(1.0, self.edge_level - 1)
        out[0] = 0.0
        return out

    @cached_property
    def lists(self) -> tuple:
        """(parent, length, leaf) as Python lists, for per-node loops."""
        return self.parent.tolist(), self.length.tolist(), self.leaf.tolist()

    @cached_property
    def cut_ids(self) -> np.ndarray:
        """Rows check_levels(self), columns self.terminals: entry (j, q) is the
        node whose parent edge is q's level-j edge, or n_nodes + q's column if
        q's path has none (an implicit singleton).  Read once the tree is built
        and valid; sorted, a row lists real nodes by id, then singletons."""
        levels = check_levels(self)
        cols = np.arange(len(self.leaf))
        ids = np.tile(self.n_nodes + cols, (len(levels), 1))
        up = _walk_up(self, self.leaf)
        row = self.edge_level[up] - (levels[0] if levels else 0)
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
        return sum(self.lists[1][1:])

    def to_json_dict(self) -> dict:
        parent, length, leaf = self.lists
        nodes = [{"id": 0, "level": self.root_level, "parent": None, "edge_len": None}]
        nodes += [{"id": nid, "level": level, "parent": parent[nid], "edge_len": length[nid]}
                  for nid, level in enumerate(self.edge_level.tolist()) if nid]
        return {
            "levels": self.root_level,
            "nodes": nodes,
            "leaf_map": {str(p): nid for p, nid in zip(self.terminals, leaf)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False  # so what the cached properties derive stays true
    return out


def tree_distance(t: Hst, u: int, v: int) -> float:
    """Sum of edge lengths on the unique leaf-to-leaf path; T(u,u) = 0."""
    if u not in t._column or v not in t._column:
        raise UnknownLeaf(f"{u} or {v} is not a leaf terminal")
    if u == v:
        return 0.0
    parent, length, leaf = t.lists
    a, b = leaf[t._column[u]], leaf[t._column[v]]
    ancestors = {}
    dist = 0.0
    while a != 0:
        ancestors[a] = dist
        dist += length[a]
        a = parent[a]
    ancestors[0] = dist
    dist = 0.0
    while b not in ancestors:
        dist += length[b]
        b = parent[b]
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
    parent = np.maximum(t.parent, 0)  # a walk that reaches the root stays there
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
    level, length = t.edge_level, t.length
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
    t.edge_level, t.terminals and t.leaf, and compared with m.d.
    """
    return validated_distances(t, m)[0]


def validated_distances(t: Hst, m: MetricSpace):
    """(validate_hst(t, m), T) from one walk of the tree.

    T[i, j] = tree_distance(t, u, v) for u, v the i-th and j-th terminals, on
    a tree whose leaf map is a bijection.
    """
    out = []
    n, parent, level = t.n_nodes, t.parent, t.edge_level
    kids = np.bincount(parent[1:], minlength=n)
    is_leaf = np.zeros(n, dtype=bool)
    is_leaf[t.leaf] = True
    # 1. leaves are exactly the terminals (bijection, childless leaves only)
    for nid in np.flatnonzero((kids == 0) & ~is_leaf & (n > 1) | is_leaf & (kids > 0)):
        out.append(f"leaves: node {nid} is both internal and a terminal leaf" if kids[nid]
                   else f"leaves: childless node {nid} maps to no terminal")
    if len(set(t.leaf.tolist())) != len(t.leaf) or len(set(t.terminals)) != len(t.terminals):
        out.append("leaves: terminal-to-leaf map is not a bijection")
    # 2. siblings share an edge level; levels drop strictly toward the leaves;
    #    length = 2^(level-1) holds by construction of Hst.length
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
    pts = np.asarray(t.terminals, dtype=np.intp)
    ancestors, T, cap = _pairwise(t, t.leaf)
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
    pair = np.triu(np.ones(d.shape, dtype=bool), 1)
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
    # a level breaks when a terminal sits in two of its cuts
    broken = set((np.flatnonzero(count > 1) % width + lowest).tolist())
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
    if len(pts) == 1:
        return Hst([-1], [0], pts, [0])
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
    by_point = np.empty_like(node)
    by_point[:, order] = node
    t = Hst(np.concatenate([[-1], above[starts]]),
            np.concatenate([[0], np.repeat(levels, starts.sum(axis=1))]), pts, by_point[-1])

    # T(u, v) = 2 (2^L - 1) for the L levels at which their nodes differ
    gap = sum(row[:, None] != row[None, :] for row in by_point)
    span = 2.0 * (np.ldexp(1.0, np.arange(len(levels) + 1)) - 1.0)  # T for L = 0, 1, ...
    if not np.all(span[gap] >= d):
        t = _promote_one_level(t)
    return t


def _promote_one_level(t: Hst) -> Hst:
    """Double every edge length and re-hang each terminal by a level-1 edge."""
    return _hang_chains(t, 1, [1])


def _hang_chains(t: Hst, shift: int, chain_levels, extended_to=None) -> Hst:
    """t with every edge level raised by shift and, below each leaf in node
    order, a new chain of edges at chain_levels with the terminal at its end."""
    n, k, depth = t.n_nodes, len(t.leaf), len(chain_levels)
    by_node = np.argsort(t.leaf)
    chain = np.arange(n, n + k * depth).reshape(k, depth)
    leaf = np.empty(k, dtype=np.intp)
    leaf[by_node] = chain[:, -1]
    return Hst(np.concatenate([t.parent, np.column_stack([t.leaf[by_node], chain[:, :-1]]).ravel()]),
               np.concatenate([t.edge_level + shift * (t.parent >= 0), np.tile(chain_levels, k)]),
               t.terminals, leaf, extended_to)


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
    return _hang_chains(t, 0, range(-1, down_to - 1, -1), extended_to=down_to)
