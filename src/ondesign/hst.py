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
level; it is the only form a cut takes.  `cut_row` reads one level's row at
any points, and `class_cuts` groups the class-(j + shift) entries of a check
by level-j cut, which is how the per-tree cut checks and the PCST cut lower
bound read the tree.  `path_cuts` lists the cuts that separate each pair of
points, and `cut_load` counts them per cut: the tree oracles and the rent
caps read a cut's load that way.  Walks of the tree (`tree_distance`, the
PCST DP) read the arrays.

A terminal is a position: of the points a tree is sampled for, the lowest
index at each position is the terminal, and every other point there is an
alias of it.  A tree of distinct positions has no aliases.  Every lookup by
point (`Hst.columns`, `cut_row`, `class_cuts`, `tree_distance`) resolves an
alias to its terminal's column, so no caller maps coincident points itself.

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
    order, and `leaf`, each terminal's leaf node.  `aliases` holds the
    (point, terminal) pairs of the other points at a terminal's position, by
    point.  The constructor checks nothing, so a malformed tree reaches
    validate_hst as built.
    """

    def __init__(self, parent, edge_level, terminals, leaf, extended_to=None, aliases=()):
        self.parent = _frozen(parent)
        self.edge_level = _frozen(edge_level)
        self.terminals = tuple(terminals)
        self.leaf = _frozen(leaf)
        self.extended_to = extended_to
        self.aliases = tuple(sorted(aliases))

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @cached_property
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
        """cut_ids columns of `points`; a point not in the tree is in no cut (id -1)."""
        cols = self.columns(points)
        return np.where(cols >= 0, self.cut_ids[:, cols], -1)

    def columns(self, points) -> np.ndarray:
        """Each point's column in self.terminals (an alias's is its terminal's),
        -1 for a point not in the tree."""
        return np.array([self._column.get(p, -1) for p in points], dtype=np.intp)

    @cached_property
    def _column(self) -> dict:
        column = {p: i for i, p in enumerate(self.terminals)}
        return {**{a: column[p] for a, p in self.aliases if p in column}, **column}

    def total_length(self) -> float:
        return float(self.length.sum())  # powers of two: exact in any order

    def to_json_dict(self) -> dict:
        parent, length, leaf = self.parent.tolist(), self.length.tolist(), self.leaf.tolist()
        nodes = [{"id": 0, "level": self.root_level, "parent": None, "edge_len": None}]
        nodes += [{"id": nid, "level": level, "parent": parent[nid], "edge_len": length[nid]}
                  for nid, level in enumerate(self.edge_level.tolist()) if nid]
        return {
            "levels": self.root_level,
            "nodes": nodes,
            "leaf_map": {str(p): leaf[col] for p, col in self._column.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False  # so what the cached properties derive stays true
    return out


def tree_distance(t: Hst, u: int, v: int) -> float:
    """Sum of edge lengths on the unique leaf-to-leaf path; 0 on one leaf."""
    if u not in t._column or v not in t._column:
        raise UnknownLeaf(f"{u} or {v} is not a leaf terminal")
    a, b = (int(t.leaf[t._column[p]]) for p in (u, v))
    ancestors = {}
    dist = 0.0
    while a != 0:
        ancestors[a] = dist
        dist += t.length[a]
        a = int(t.parent[a])
    ancestors[0] = dist
    dist = 0.0
    while b not in ancestors:
        dist += t.length[b]
        b = int(t.parent[b])
    return float(dist + ancestors[b])


def check_levels(t: Hst) -> list:
    """Level range [min charge level, root level] for the charging checks."""
    lo = t.extended_to if t.extended_to is not None else 0
    return list(range(lo, t.root_level + 1))


def cut_row(t: Hst, j: int, points=None) -> np.ndarray:
    """The level-j row of t.cut_ids, at `points` if given (a non-terminal is
    in no cut, id -1), else at every terminal column."""
    levels = check_levels(t)
    if j not in levels:
        raise LevelOutOfRange(f"level {j} outside [{levels[0]}, {t.root_level}]")
    row = t.cut_ids[j - levels[0]]
    if points is None:
        return row
    cols = t.columns(points)
    return np.where(cols >= 0, row[cols], -1)


def path_cuts(t: Hst, pairs):
    """(cut id, pair index) for every cut holding one end of a pair but not
    the other, ids as in t.cut_ids; an end outside the tree is in no cut."""
    ends = t.cut_ids_at([p for pair in pairs for p in pair]).reshape(len(t.cut_ids), -1, 2)
    crossed = (ends[..., :1] != ends[..., 1:]) & (ends >= 0)  # (level, pair, end)
    return ends[crossed], np.nonzero(crossed)[1]


def cut_load(t: Hst, pairs) -> np.ndarray:
    """Per cut id, the number of pairs the cut separates."""
    return np.bincount(path_cuts(t, pairs)[0], minlength=t.n_nodes + len(t.terminals))


def class_cuts(t: Hst, by_class: dict, shift: int, root=None):
    """Yield (j, cut id, holds root, entries) for every level-j cut holding an
    entry of by_class[j + shift], by level and then by cut id.

    An entry is a tuple whose first item is a point; the entries of a
    cut keep their input order, and entries at non-terminals are dropped.
    `root` is a point (or None): "holds root" says the cut contains it.
    """
    for j in check_levels(t):
        entries = by_class.get(j + shift)
        if not entries:
            continue
        row = cut_row(t, j, [e[0] for e in entries] + [root]).tolist()
        root_cut = row.pop()
        inside = {}
        for entry, cut in zip(entries, row):
            if cut >= 0:
                inside.setdefault(cut, []).append(entry)
        for cut in sorted(inside):
            yield j, cut, cut == root_cut, inside[cut]


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
    t.edge_level, t.terminals, t.leaf and t.aliases, and compared with m.d.
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
    # an alias is a non-terminal at its terminal's position
    terminals = set(t.terminals)
    out += [f"aliases: point {a} is not a non-terminal coincident with terminal {p}"
            for a, p in t.aliases if a in terminals or p not in terminals or m.d[a, p] != 0.0]
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


def split_aliases(m: MetricSpace, points):
    """(terminals, aliases, d) of a tree for `points`: the lowest index at
    each of their positions, ascending; a (point, terminal) pair for every
    other point; the terminals' distance submatrix."""
    pts = sorted(set(int(p) for p in points))
    d = m.d[np.ix_(pts, pts)]
    if not pts:
        return pts, [], d
    first = (d == 0.0).argmax(axis=1)
    aliases = [(p, pts[i]) for p, i in zip(pts, first.tolist()) if pts[i] != p]
    if aliases:
        keep = first == np.arange(len(pts))
        pts, d = [p for p, kept in zip(pts, keep.tolist()) if kept], d[np.ix_(keep, keep)]
    return pts, aliases, d


def sample_frt(m: MetricSpace, points, seed: int) -> Hst:
    """Sample an HST embedding of the given points; pure in (m, seed).

    The tree is sampled over the lowest-index point at each position, and
    every other point is an alias of the terminal at its position.
    Any sampler passing validate_hst with logarithmic empirical stretch serves
    the analysis; nothing downstream depends on distribution details.
    """
    pts, aliases, d = split_aliases(m, points)
    if not pts:
        raise EmptyTerminalSet("need at least one terminal")
    if len(pts) == 1:
        return Hst([-1], [0], pts, [0], aliases=aliases)
    k = len(pts)
    close = d < 1.0
    np.fill_diagonal(close, False)
    if close.any():
        u, v = (pts[i] for i in np.argwhere(np.triu(close))[0])
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
            np.concatenate([[0], np.repeat(levels, starts.sum(axis=1))]), pts, by_point[-1], aliases=aliases)

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
               t.terminals, leaf, extended_to, t.aliases)


def extend_singleton_levels(t: Hst) -> Hst:
    """Append singleton chains (levels -1 and -2) below every leaf.

    Edge lengths are 2^-2 and 2^-3; the terminal moves to the chain bottom, so
    the new levels' cuts are exactly the singletons and every tree optimum
    grows by at most (#leaves) * 3/8.
    """
    if t.extended_to is not None:
        raise AlreadyExtended(f"tree already extended to {t.extended_to}")
    return _hang_chains(t, 0, [-1, -2], extended_to=-2)
