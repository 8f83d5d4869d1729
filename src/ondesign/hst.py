"""HST embeddings: FRT-style sampling, validation, cut accessors.

A tree here is leveled: a level-j edge has length 2^(j-1), the cut below it
(the terminals it separates from the root) has metric diameter < 2^j, and every
root-to-leaf path passes one edge per level from the top level down to level 1.
Levels -1 and -2 exist only on extended trees (singleton chains of lengths 1/4
and 1/8 below each leaf); level 0 never carries edges, but its cuts are the
terminal singletons by convention (forced by the min-distance-1 normalization),
and `cuts_at_level` serves them for any j <= 0 in range.

Sampling draws beta log-uniformly from [1,2) and a uniform permutation, carves
nested balls of radius beta*2^(j-2) per level (first permutation element within
the radius wins), and promotes the whole tree one level if the expanding
property would otherwise fail ("rescale one level up").  Promotion appends a
level-1 singleton edge below each leaf so the bottom level stays 1.
"""

from __future__ import annotations

import json
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
        self.children = []     # node -> [child ids]
        self.leaf_point = {}   # leaf node id -> terminal point
        self.point_leaf = {}   # terminal point -> leaf node id
        self.extended_to = None

    # -- construction ------------------------------------------------------
    def add_node(self, parent: int, edge_level: Optional[int]) -> int:
        nid = len(self.parent)
        self.parent.append(parent)
        self.edge_level.append(edge_level)
        self.children.append([])
        if parent >= 0:
            self.children[parent].append(nid)
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
        if not self.children[0]:
            return 0
        return self.edge_level[self.children[0][0]]

    def edge_length(self, nid: int) -> float:
        return pow2(self.edge_level[nid] - 1)

    def cut(self, nid: int) -> frozenset:
        """Terminal points below node `nid` (the cut of its parent edge)."""
        return self._cuts()[nid]

    def _cuts(self):
        if not hasattr(self, "_cut_cache"):
            cache = [None] * self.n_nodes
            for nid in reversed(range(self.n_nodes)):  # children have larger ids
                acc = set()
                if nid in self.leaf_point:
                    acc.add(self.leaf_point[nid])
                for c in self.children[nid]:
                    acc |= cache[c]
                cache[nid] = frozenset(acc)
            self._cut_cache = cache
        return self._cut_cache

    def edges_at_level(self, j: int):
        """Node ids whose parent edge sits at level j, in creation order."""
        return [nid for nid in range(1, self.n_nodes) if self.edge_level[nid] == j]

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


def cuts_at_level(t: Hst, j: int):
    """The level-j cuts, as a list of frozensets partitioning the terminals.

    Terminals not under any level-j edge count as singletons: level 0 never
    carries edges (minimum distance 1 forces any diameter-<2^j cut with j <= 0
    to be a singleton), and a leaf whose path skips a level sits alone in its
    implicit cut.
    """
    levels = check_levels(t)
    if j not in levels:
        raise LevelOutOfRange(f"level {j} outside [{levels[0]}, {t.root_level}]")
    cuts = [t.cut(nid) for nid in t.edges_at_level(j)]
    covered = {p for c in cuts for p in c}
    cuts.extend(frozenset([p]) for p in t.terminals if p not in covered)
    return cuts


def check_levels(t: Hst) -> list:
    """Level range [min charge level, root level] for the charging checks."""
    lo = t.extended_to if t.extended_to is not None else 0
    return list(range(lo, t.root_level + 1))


def validate_hst(t: Hst, m: MetricSpace) -> list:
    """Exhaustive check of the Definition-2 invariants; empty list iff valid."""
    out = []
    pts = t.terminals
    # 1. leaves are exactly the terminals (bijection, childless leaves only)
    for nid in range(t.n_nodes):
        is_leaf = not t.children[nid]
        if is_leaf and nid not in t.leaf_point and t.n_nodes > 1:
            out.append(f"leaves: childless node {nid} maps to no terminal")
        if nid in t.leaf_point and t.children[nid]:
            out.append(f"leaves: node {nid} is both internal and a terminal leaf")
    if len(t.leaf_point) != len(set(t.leaf_point.values())):
        out.append("leaves: terminal-to-leaf map is not a bijection")
    # 2. siblings share an edge level; levels drop strictly toward the leaves;
    #    length = 2^(level-1) holds by construction of edge_length
    for nid in range(t.n_nodes):
        kids = t.children[nid]
        if kids and len({t.edge_level[c] for c in kids}) != 1:
            out.append(f"levels: children of node {nid} at differing edge lengths")
        for c in kids:
            if nid != 0 and t.edge_level[c] >= t.edge_level[nid]:
                out.append(f"levels: edge level does not decrease at node {c}")
    # 3. cut diameter: a level-j edge separates a set of diameter < 2^j
    for nid in range(1, t.n_nodes):
        j = t.edge_level[nid]
        cut = sorted(t.cut(nid))
        bound = pow2(j)
        for i, u in enumerate(cut):
            for v in cut[i + 1:]:
                if m.dist(u, v) >= bound:
                    out.append(f"cut diameter: d({u},{v})={m.dist(u, v):g} >= 2^{j} under a level-{j} edge")
    # 4. expanding: T(u,v) >= d(u,v)
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            tv = tree_distance(t, u, v)
            if tv < m.dist(u, v):
                out.append(f"expanding: T({u},{v})={tv:g} < d={m.dist(u, v):g}")
    # 5. per-level cuts partition the terminals (implicit singletons complete
    #    any level a leaf's path skips); levels <= 0 are singletons
    for j in range(1, t.root_level + 1):
        cuts = cuts_at_level(t, j)
        seen = [p for c in cuts for p in c]
        if len(seen) != len(set(seen)) or set(seen) != set(pts):
            out.append(f"partition: level-{j} cuts do not partition the terminals")
    for nid in range(1, t.n_nodes):
        if t.edge_level[nid] <= 0 and len(t.cut(nid)) != 1:
            out.append(f"singletons: level-{t.edge_level[nid]} cut has {len(t.cut(nid))} terminals")
    return out


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
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            if m.coincident(u, v):
                raise CoincidentTerminals(f"terminals {u} and {v} share a position")
            if m.dist(u, v) < 1.0:
                raise ValueError(
                    f"metric not normalized: d({u},{v})={m.dist(u, v):g} < 1"
                )

    rng = np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1)))
    beta = 2.0 ** rng.random()
    order = [pts[i] for i in rng.permutation(len(pts))]
    rank = {p: i for i, p in enumerate(order)}

    diam = max(m.dist(u, v) for i, u in enumerate(pts) for v in pts[i + 1:])
    top = floor_log2(diam) + 1

    # Ball carving: at level j a point joins the first permutation element
    # within beta * 2^(j-2); children refine their parent's cluster.
    def center(p, radius):
        return min((q for q in pts if m.dist(p, q) <= radius), key=rank.get)

    frontier = {root: pts}
    for j in range(top, 0, -1):
        radius = beta * pow2(j - 2)
        nxt = {}
        for nid, members in frontier.items():
            groups = {}
            for p in members:
                groups.setdefault(center(p, radius), []).append(p)
            for c in sorted(groups, key=rank.get):
                child = t.add_node(nid, j)
                nxt[child] = groups[c]
        frontier = nxt
    for nid, members in frontier.items():
        assert len(members) == 1
        t.set_leaf(nid, members[0])

    expanding = all(
        tree_distance(t, u, v) >= m.dist(u, v)
        for i, u in enumerate(pts)
        for v in pts[i + 1:]
    )
    if not expanding:
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
