import json
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ondesign.metric import MetricSpace, build_metric

# Every property test draws the same examples on every run, so a run decides
# on the code, never on its draw.  A wider search is a separate run at a
# larger max_examples with derandomize off.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def line_metric(positions):
    """Metric from points on a line, without normalization (positions are
    chosen so the minimum distinct distance is already 1)."""
    pos = np.asarray(positions, dtype=float)
    d = np.abs(pos[:, None] - pos[None, :])
    return MetricSpace(d=d)


def euclid(points):
    return build_metric(np.asarray(points, dtype=float), "points")


@pytest.fixture
def two_point_metric():
    return build_metric([[0.0, 1.0], [1.0, 0.0]], "matrix")


# ---------------------------------------------------------------------------
# Independent path-walk oracles for tree optima (used against tree_opt)
# ---------------------------------------------------------------------------

def edge_list(t):
    return list(range(1, t.n_nodes))


def edge_len(t, nid):
    """Length of node nid's parent edge, 2^(level-1), from t.edge_level."""
    return 2.0 ** (int(t.edge_level[nid]) - 1)


def leaf_of(t):
    """Terminal point -> leaf node, from the column pair t.terminals / t.leaf."""
    return dict(zip(t.terminals, t.leaf.tolist()))


def path_edges(t, u, v):
    """Edge node-ids on the leaf-to-leaf path, computed by ancestor walks."""
    parent, leaf = t.parent.tolist(), leaf_of(t)
    up_a = []
    x = leaf[u]
    while x != 0:
        up_a.append(x)
        x = parent[x]
    seen = {n: i for i, n in enumerate(up_a)}
    up_b = []
    x = leaf[v]
    while x != 0 and x not in seen:
        up_b.append(x)
        x = parent[x]
    if x == 0:
        return set(up_a) | set(up_b)
    return set(up_a[: seen[x]]) | set(up_b)


def root_path_edges(t, r, u):
    return path_edges(t, r, u) if u != r else set()


def brute_tree_sf(t, pairs):
    used = set()
    for s, u in pairs:
        if s != u:
            used |= path_edges(t, s, u)
    return sum(edge_len(t, e) for e in used)


def brute_tree_sn(t, pairs, reqs):
    total = 0.0
    for e in edge_list(t):
        need = max((r for (s, u), r in zip(pairs, reqs) if s != u and e in path_edges(t, s, u)), default=0)
        total += edge_len(t, e) * need
    return total


def brute_tree_rob_multi(t, pairs, M):
    total = 0.0
    for e in edge_list(t):
        count = sum(1 for s, u in pairs if s != u and e in path_edges(t, s, u))
        total += edge_len(t, e) * min(M, count)
    return total


def brute_tree_rob_single(t, r, M, clients):
    """Enumerate per-edge buy/rent decisions over edges off r's root chain;
    `clients` holds one terminal per request."""
    import itertools

    chain = set()
    x = leaf_of(t)[r]
    while x != 0:
        chain.add(x)
        x = int(t.parent[x])
    edges = [e for e in edge_list(t) if e not in chain]
    usage = {e: 0 for e in edges}
    for p in clients:
        for e in root_path_edges(t, r, p):
            if e in usage:
                usage[e] += 1
    best = None
    if len(edges) <= 13:
        for buys in itertools.product((False, True), repeat=len(edges)):
            cost = sum(
                (M if b else usage[e]) * edge_len(t, e) for e, b in zip(edges, buys)
            )
            best = cost if best is None else min(best, cost)
        return best
    return sum(min(M, usage[e]) * edge_len(t, e) for e in edges)


def client_load(t, r, clients):
    """hst.cut_load of the (client, r) pairs, which tree_opt.opt_tree_rob_single reads."""
    from ondesign.hst import cut_load

    return cut_load(forest([t]), [(p, r) for p in clients])


def brute_tree_pcst(t, r, penalties):
    """Enumerate penalty subsets; connecting cost is the union of r-paths."""
    import itertools

    rows = list(penalties)
    best = None
    for keep in itertools.product((False, True), repeat=len(rows)):
        pay = sum(pi for (p, pi), k in zip(rows, keep) if not k)
        used = set()
        for (p, pi), k in zip(rows, keep):
            if k and p != r:
                used |= path_edges(t, r, p)
        cost = pay + sum(edge_len(t, e) for e in used)
        best = cost if best is None else min(best, cost)
    return best


def ref_tree_pcst(t, r, penalties):
    """Reference for tree_opt.opt_tree_pcst: a per-node dict DP on the tree
    re-rooted at r's leaf, over adjacency lists.  A node's re-rooted children
    are summed in adjacency order: its tree parent first (on r's root path),
    then its tree children by id."""
    cols = forest([t]).columns([r] + [p for p, _ in penalties]).tolist()
    if cols[0] < 0:
        raise ValueError(f"root {r} is not a leaf of the tree")
    parent, leaf = t.parent.tolist(), t.leaf.tolist()
    length = [0.0] + [edge_len(t, nid) for nid in range(1, t.n_nodes)]
    pen_at = {}  # leaf node -> penalty
    for col, (_, pi) in zip(cols[1:], penalties):
        if pi < 0:
            raise ValueError("penalties must be >= 0")
        if col >= 0:
            pen_at[leaf[col]] = pen_at.get(leaf[col], 0.0) + pi
    adj = [[] for _ in parent]
    for nid in range(1, t.n_nodes):
        adj[nid].append((parent[nid], length[nid]))
        adj[parent[nid]].append((nid, length[nid]))
    root = leaf[cols[0]]
    order, par, par_len = [root], {root: None}, {root: 0.0}
    for v in order:  # breadth first: the loop visits what it appends
        for w, ln in adj[v]:
            if w not in par:
                par[w], par_len[w] = v, ln
                order.append(w)
    pen_sub, h = {}, {}
    for v in reversed(order):
        kids = [w for w, _ in adj[v] if par.get(w) == v]
        pen_sub[v] = pen_at.get(v, 0.0) + sum(pen_sub[w] for w in kids)
        keep = sum(h[w] for w in kids)
        h[v] = keep if v == root else min(pen_sub[v], par_len[v] + keep)
    return h[root]


def forest(trees):
    """The hst.Forest of sampled or hand-built trees, from hst._forest's node
    arrays: ValueError(MISNUMBERED) if one breaks the numbering rule."""
    from ondesign.hst import MISNUMBERED, Forest, _forest

    trees = list(trees)
    misnumbered, nodes = _forest(trees)
    if any(misnumbered):
        raise ValueError(MISNUMBERED)
    return Forest(trees[0], nodes)


def tree_views(f):
    """Per tree of forest f, an Hst of its node arrays in its own ids."""
    from ondesign.hst import Hst

    parent, level, off, _, _, leaf = f.nodes
    views = []
    for g, (lo, hi) in enumerate(zip(off.tolist(), (off + f.sizes).tolist())):
        own = parent[lo:hi] - lo
        own[0] = -1
        views.append(Hst(own, level[lo:hi], f.terminals, leaf[g] - lo, f.aliases, f.column))
    return views


def same_nodes(f, g):
    """Whether forests f and g hold equal node arrays, dtype included."""
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(f.nodes, g.nodes, strict=True))


def extend_one(t):
    """t extended to level -2: hst.extend_singleton_levels on the forest of t alone."""
    from ondesign.hst import extend_singleton_levels

    return tree_views(extend_singleton_levels(forest([t])))[0]


def tree_cuts(t, points):
    """hst.Forest.cuts of t as a forest of one: rows cut_levels(t), a column per point."""
    return forest([t]).cuts(points)[0]


def per_tree(f, values):
    """Values over the cut ids of forest f, split into each tree's own ids."""
    return np.split(values, f.start[1:])


def ref_extend(t):
    """Reference for hst.extend_singleton_levels on one tree, in Python lists:
    below each leaf in node order a level -1 node, then a level -2 node that
    takes the terminal.  Its cuts are left to the walk of a Forest of it."""
    from ondesign.hst import Hst

    parent, level, leaf = t.parent.tolist(), t.edge_level.tolist(), t.leaf.tolist()
    new_leaf = list(leaf)
    for nid in sorted(leaf):
        parent += [nid, len(parent)]
        level += [-1, -2]
        new_leaf[leaf.index(nid)] = len(parent) - 1
    return Hst(parent, level, t.terminals, new_leaf, t.aliases)


def ref_cut_load(t, pairs):
    """Reference for hst.cut_load on one tree: per cut id, the (level, pair)
    crossings counted in Python over brute_cut_ids(t); an end outside the
    tree is in no cut."""
    load = [0] * (t.n_nodes + len(t.terminals))
    ends = [forest([t]).columns(pair).tolist() for pair in pairs]
    for row in brute_cut_ids(t):
        for cols in ends:
            cu, cv = (row[c] if c >= 0 else -1 for c in cols)
            for c in (cu, cv) if cu != cv else ():
                if c >= 0:
                    load[c] += 1
    return load


def random_small_hst(rng, max_leaves=8, extended_chance=0.5):
    """Sample a valid HST over a random small Euclidean metric."""
    from ondesign.hst import Terminals, sample_frt

    k = int(rng.integers(2, max_leaves + 1))
    pts = rng.random((k, 2)) * rng.uniform(1.0, 40.0)
    m = build_metric(pts, "points")
    t = sample_frt(Terminals(m, range(k)), int(rng.integers(0, 2**31)))
    if rng.random() < extended_chance:
        t = extend_one(t)
    return m, t


def ref_sample_frt(m, points, seed):
    """Reference for hst.sample_frt(Terminals(m, points), seed): the sampler
    that splits the points and sorts the rows for every tree, and counts each
    level's balls one level at a time."""
    from ondesign.hst import Hst, _promote_one_level
    from ondesign.metric import floor_log2, pow2

    pts = sorted(set(int(p) for p in points))
    d = m.d[np.ix_(pts, pts)]
    aliases = []
    if pts:
        first = (d == 0.0).argmax(axis=1)
        aliases = [(p, pts[i]) for p, i in zip(pts, first.tolist()) if pts[i] != p]
        if aliases:
            keep = first == np.arange(len(pts))
            pts, d = [p for p, kept in zip(pts, keep.tolist()) if kept], d[np.ix_(keep, keep)]
    if not pts:
        raise ValueError("need at least one terminal")
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
    by_dist = np.argsort(d, axis=1)
    row_d = np.take_along_axis(d, by_dist, axis=1)
    least = np.minimum.accumulate(rank[by_dist], axis=1)
    rows = np.arange(k)
    levels = np.arange(top, 0, -1)
    center = np.array([least[rows, (row_d <= beta * pow2(j - 2)).sum(axis=1) - 1] for j in levels.tolist()])
    order = np.lexsort(center[::-1])
    path = center[:, order]
    starts = np.ones(path.shape, dtype=bool)
    starts[:, 1:] = np.logical_or.accumulate(path[:, 1:] != path[:, :-1], axis=0)
    node = np.cumsum(starts).reshape(path.shape)
    above = np.zeros_like(node)
    above[1:] = node[:-1]
    by_point = np.empty_like(node)
    by_point[:, order] = node
    t = Hst(np.concatenate([[-1], above[starts]]),
            np.concatenate([[0], np.repeat(levels, starts.sum(axis=1))]), pts, by_point[-1], aliases=aliases)
    gap = sum(row[:, None] != row[None, :] for row in by_point)
    span = 2.0 * (np.ldexp(1.0, np.arange(len(levels) + 1)) - 1.0)
    if not np.all(span[gap] >= d):
        t = _promote_one_level(t)
    return t


def brute_cut(t, nid):
    """Terminal points below node nid: the leaves whose parent walk passes it."""
    out = set()
    parent = t.parent.tolist()
    for p, leaf in zip(t.terminals, t.leaf.tolist()):
        x = leaf
        while x >= 0 and x != nid:
            x = parent[x]
        if x == nid:
            out.add(p)
    return frozenset(out)


def brute_cuts_at_level(t, j):
    """The level-j cuts: each level-j edge's cut by node id, then a singleton
    for every terminal under no level-j edge, by point."""
    cuts = [brute_cut(t, nid) for nid in range(1, t.n_nodes) if t.edge_level[nid] == j]
    covered = {p for c in cuts for p in c}
    return cuts + [frozenset([p]) for p in sorted(t.terminals) if p not in covered]


def brute_levels(t):
    """(lowest cut level, root level) of t: min(0, its edge levels), and the
    level of the root's first child (0 on a tree of one node)."""
    parent, level = t.parent.tolist(), t.edge_level.tolist()
    return min(0, *level), next((level[c] for c in range(1, t.n_nodes) if parent[c] == 0), 0)


def cut_levels(t):
    """t's charge range, from its lowest cut level to its root level, as
    brute_levels reads them."""
    low, top = brute_levels(t)
    return range(low, top + 1)


def tree_json(t):
    """t as sorted-key JSON text, the text PINNED_TREES hashes: its root
    level, each node's level, parent and edge length, and each point's leaf."""
    parent, leaf = t.parent.tolist(), t.leaf.tolist()
    top = brute_levels(t)[1]
    points = list(t.terminals) + [a for a, _ in t.aliases]
    nodes = [{"id": 0, "level": top, "parent": None, "edge_len": None}]
    nodes += [{"id": nid, "level": level, "parent": parent[nid], "edge_len": edge_len(t, nid)}
              for nid, level in enumerate(t.edge_level.tolist()) if nid]
    leaf_map = {str(p): leaf[col] for p, col in zip(points, t.column[points].tolist()) if col >= 0}
    return json.dumps({"levels": top, "nodes": nodes, "leaf_map": leaf_map}, sort_keys=True)


def brute_cut_ids(t):
    """Reference for one tree's rows of a Forest's cut tensor: each
    terminal's leaf walked up through parent in Python, its node at each
    level of the charge range written to that level's row over the implicit
    singletons n_nodes + column."""
    parent, level = t.parent.tolist(), t.edge_level.tolist()
    low, top = brute_levels(t)  # low is -2 on an extended tree
    rows = [[t.n_nodes + q for q in range(len(t.leaf))] for _ in range(low, top + 1)]
    for q, x in enumerate(t.leaf.tolist()):
        while x > 0:
            if low <= level[x] <= top:
                rows[level[x] - low][q] = x
            x = parent[x]
    return rows


def check_forest_walk(f):
    """f's cut tensor and per-tree levels hold what the references give each
    of its trees, however f was built: brute_cut_ids' rows, -1 past the
    tree's height and in the last column, and brute_levels' range; the
    tensor has as many rows as the tallest tree."""
    assert f.local.shape == (f.n_trees, f.heights.max(), f.k + 1)
    for g, t in enumerate(tree_views(f)):
        low, top = brute_levels(t)
        assert (f.lows[g], f.root_levels[g], f.heights[g]) == (low, top, top - low + 1)
        assert f.local[g, :top - low + 1, :-1].tolist() == brute_cut_ids(t)
        assert (f.local[g, top - low + 1:] == -1).all() and (f.local[g, :, -1] == -1).all()


def id_cuts(t, j):
    """The level-j cuts as terminal sets, grouped from the cut ids of t as a
    forest of one in cut-id order."""
    cuts = {}
    for p, cut in zip(t.terminals, tree_cuts(t, t.terminals)[cut_levels(t).index(j)].tolist()):
        cuts.setdefault(cut, set()).add(p)
    return [frozenset(cuts[cut]) for cut in sorted(cuts)]


def brute_pcst_cut_lower_bound(t, r, class_rho_pi, levels):
    """Reference for tree_opt.pcst_cut_lower_bound over the given levels."""
    from ondesign.metric import pow2

    total = 0.0
    for j in levels:
        for cut in brute_cuts_at_level(t, j):
            pi_sum = sum(pi for p, _, pi in class_rho_pi.get(j + 1, []) if p in cut)
            if r not in cut and pi_sum:
                total += min(pi_sum, pow2(j - 1))
    return total


def brute_validate_hst(t, m):
    """Reference for hst.validate_hst: the per-node, per-pair loop validator."""
    from ondesign.metric import pow2

    out = []
    pts = t.terminals
    parent, level, leaves = t.parent.tolist(), t.edge_level.tolist(), t.leaf.tolist()
    children = {nid: [c for c in range(1, t.n_nodes) if parent[c] == nid] for nid in range(t.n_nodes)}
    # 1. leaves are exactly the terminals (bijection, childless leaves only)
    for nid in range(t.n_nodes):
        is_leaf = not children[nid]
        if is_leaf and nid not in leaves and t.n_nodes > 1:
            out.append(f"leaves: childless node {nid} maps to no terminal")
        if nid in leaves and children[nid]:
            out.append(f"leaves: node {nid} is both internal and a terminal leaf")
    if len(set(leaves)) != len(leaves) or len(set(pts)) != len(pts):
        out.append("leaves: terminal-to-leaf map is not a bijection")
    for a, p in t.aliases:
        if a in pts or p not in pts or m.dist(a, p) != 0.0:
            out.append(f"aliases: point {a} is not a non-terminal coincident with terminal {p}")
    # 2. siblings share an edge level; levels drop strictly toward the leaves
    for nid in range(t.n_nodes):
        kids = children[nid]
        if kids and len({level[c] for c in kids}) != 1:
            out.append(f"levels: children of node {nid} at differing edge lengths")
        for c in kids:
            if nid != 0 and level[c] >= level[nid]:
                out.append(f"levels: edge level does not decrease at node {c}")
    # 3. cut diameter: a level-j edge separates a set of diameter < 2^j
    for nid in range(1, t.n_nodes):
        j = level[nid]
        cut = sorted(brute_cut(t, nid))
        bound = pow2(j)
        for i, u in enumerate(cut):
            for v in cut[i + 1:]:
                if m.dist(u, v) >= bound:
                    out.append(f"cut diameter: d({u},{v})={m.dist(u, v):g} >= 2^{j} under a level-{j} edge")
    # 4. expanding: T(u,v) >= d(u,v); lengths are powers of two, so any
    #    summation order gives the same T
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            tv = sum(edge_len(t, e) for e in path_edges(t, u, v))
            if tv < m.dist(u, v):
                out.append(f"expanding: T({u},{v})={tv:g} < d={m.dist(u, v):g}")
    # 5. per-level cuts partition the terminals; levels <= 0 are singletons
    for j in range(1, brute_levels(t)[1] + 1):
        seen = [p for c in brute_cuts_at_level(t, j) for p in c]
        if len(seen) != len(set(seen)) or set(seen) != set(pts):
            out.append(f"partition: level-{j} cuts do not partition the terminals")
    for nid in range(1, t.n_nodes):
        size = len(brute_cut(t, nid))
        if level[nid] <= 0 and size != 1:
            out.append(f"singletons: level-{level[nid]} cut has {size} terminals")
    return out


def brute_check_cut_capacity(seq, trace, t, shift):
    """Reference for rentorbuy.check_cut_capacity: membership tests on brute
    cuts, on a tree without aliases."""
    import math

    M, root = seq.M, seq.root
    pairs = None if root is not None else list(seq.requests)
    rents = {}
    for rec in trace.records:
        if rec.decision == "rent" and rec.klass is not None:
            ends = seq.pairs[rec.idx][:1 if root is not None else 2]
            p = ends[-1] if rec.rent_endpoint == "t" else ends[0]
            rents.setdefault(rec.klass, []).append((rec.idx, p))
    out = []
    for j in cut_levels(t):
        rows = rents.get(j + shift, [])
        for cut in brute_cuts_at_level(t, j) if rows else []:
            inside = [(ridx, p) for ridx, p in rows if p in cut]
            if not inside:
                continue
            if root is not None and root in cut:
                out.append(f"level {j}: cut with root holds class-{j + shift} rents {sorted(r for r, _ in inside)}")
                continue
            if len(inside) > math.ceil(M):
                out.append(f"level {j}: {len(inside)} class-{j + shift} rent occurrences > ceil(M)={math.ceil(M)}")
            load = sum(1 for p in seq.requests if p in cut)
            if pairs is None and len(inside) > load:
                out.append(f"level {j}: {len(inside)} class-{j + shift} rent occurrences > w(C)={load:g}")
            crossing = sum(1 for s, u in pairs or () if (s in cut) != (u in cut))
            if pairs is not None and len(inside) > crossing:
                out.append(f"level {j}: {len(inside)} rents > |D(C)|={crossing}")
    return out


def brute_check_pcst_invariants(seq, trace, t):
    """Reference for prize.check_pcst_invariants: membership tests on brute
    cuts, on a tree without aliases."""
    from ondesign.metric import exceeds, pow2
    from ondesign.prize import positive_share_rows

    out, flags = [], []
    by_class = {c: [(p, rho) for p, rho, _ in rows] for c, rows in positive_share_rows(seq, trace).items()}
    for j in cut_levels(t):
        for cut in brute_cuts_at_level(t, j) if by_class.get(j + 1) else []:
            inside = sum(rho for p, rho in by_class[j + 1] if p in cut)
            if inside > 0 and seq.root in cut:
                out.append(f"level {j}: root cut carries class-{j + 1} share {inside:g}")
            elif inside > 0 and exceeds(inside, pow2(j + 2), atol=0.0):
                out.append(f"level {j}: cut share sum {inside:g} > 2^{j + 2}")
            elif inside > 0 and exceeds(inside, pow2(j + 1), atol=0.0):
                flags.append(f"level {j}: cut share sum {inside:g} in (2^{j + 1}, 2^{j + 2}]")
    return out, flags


# ---------------------------------------------------------------------------
# Per-tree references for the trace-reading tree checks, which run once per
# instance on its forest: each check's body one tree at a time, reading the
# tree as a forest of one (tree_cuts), and the tree-by-tree dispatch of
# check_tree_bounds
# ---------------------------------------------------------------------------

def ref_class_cuts(t, by_class, shift, root=None):
    """Reference for hst.class_cuts on one tree: (j, cut id, holds root,
    entries) for every level-j cut holding an entry of by_class[j + shift], by
    level and then by cut id, the entries of a cut in input order."""
    levels = cut_levels(t)
    lo = levels.start
    entries = [(j, e) for j in levels for e in by_class.get(j + shift, ())]
    cuts = tree_cuts(t, [e[0] for _, e in entries] + [root])
    own = cuts[np.array([j - lo for j, _ in entries], dtype=np.intp), np.arange(len(entries))].tolist()
    inside = {}
    for (j, entry), cut in zip(entries, own):
        if cut >= 0:
            inside.setdefault((j, cut), []).append(entry)
    root_cut = cuts[:, -1].tolist()
    return [(j, cut, cut == root_cut[j - lo], inside[j, cut]) for j, cut in sorted(inside)]


def tree_groups(f, cuts):
    """hst.class_cuts' groups on forest f as ref_class_cuts lists them, per
    tree: (j, cut id in the tree, holds root, entries)."""
    out = [[] for _ in range(f.n_trees)]
    rows = zip(cuts.tree.tolist(), cuts.level.tolist(), cuts.cut.tolist(), cuts.holds_root.tolist())
    for i, (g, j, cut, held) in enumerate(rows):
        out[g].append((j, cut - int(f.start[g]), held, [cuts.entries[e] for e in cuts.entry[cuts.group == i].tolist()]))
    return out


def ref_check_cut_capacity(seq, trace, t, shift, load):
    """Reference for rentorbuy.check_cut_capacity on one tree, whose cut
    load (in its own cut ids) is `load`."""
    cap_m = math.ceil(seq.M)
    size = list(load)
    rents = {}
    for rec in trace.records:
        if rec.decision == "rent" and rec.klass is not None:
            ends = seq.pairs[rec.idx][:1 if seq.root is not None else 2]
            rents.setdefault(rec.klass, []).append((ends[-1] if rec.rent_endpoint == "t" else ends[0], rec.idx))
    out = []
    for j, cut, holds_root, inside in ref_class_cuts(t, rents, shift, seq.root):
        if holds_root:
            out.append(f"level {j}: cut with root holds class-{j + shift} rents {sorted(idx for _, idx in inside)}")
            continue
        if len(inside) > cap_m:
            out.append(f"level {j}: {len(inside)} class-{j + shift} rent occurrences > ceil(M)={cap_m}")
        if len(inside) > size[cut]:
            out.append(f"level {j}: {len(inside)} class-{j + shift} rent occurrences > w(C)={size[cut]:g}"
                       if seq.root is not None else f"level {j}: {len(inside)} rents > |D(C)|={size[cut]}")
    return out


def ref_covers_from_tree(t, trace):
    """Reference for steiner.covers_from_tree on one tree: {j: {point: level-j
    cut id}} over the named points whose cut meets X_j; a level outside
    cut_levels(t) raises ValueError."""
    forests = trace.summary.get("forests", [])
    occs = [o for forest in forests for o in forest["occ"]]
    points = sorted({p for p, _ in occs} | {p for f in forests for _, edges in f["A"] for e in edges for p in e})
    cuts, levels = tree_cuts(t, points + [p for p, _ in occs]), cut_levels(t)
    out = {}
    for j in sorted({j for forest in forests for j, _ in forest["A"]}):
        if j not in levels:
            raise ValueError(f"level {j} outside [{levels.start}, {levels.stop - 1}]")
        row = cuts[j - levels.start].tolist()
        hit = {cut for cut, (_, c) in zip(row[len(points):], occs) if c >= j} - {-1}
        out[j] = {p: cut for p, cut in zip(points, row) if cut in hit}
    return out


def ref_check_metagraph_acyclic(trace, covers):
    """Reference for steiner.check_metagraph_acyclic on one tree's
    ref_covers_from_tree: its cycle violations, or the ValueError raised."""
    from ondesign.metric import UnionFind

    out = []
    for forest in trace.summary.get("forests", []):
        occ = forest["occ"]
        for j, edges in forest["A"]:
            cover = covers.get(j)
            if cover is None:
                raise ValueError(f"no cover supplied for level {j}")
            missed = {p for p, c in occ if c >= j} - cover.keys()
            if missed:
                raise ValueError(f"level {j}: cover misses {sorted(missed)}")
            uf = UnionFind(max(cover.values(), default=-1) + 1)
            for u, v in edges:
                su, sv = cover.get(u), cover.get(v)
                if su is None or sv is None:
                    raise ValueError(f"level {j}: edge endpoint outside the cover")
                if not uf.union(su, sv):
                    out.append(f"level {j}: meta-cycle via edge ({u},{v})")
    return out


def ref_check_pcst_invariants(cuts):
    """Reference for prize.check_pcst_invariants on one tree's
    ref_class_cuts(t, positive_share_rows(seq, trace), 1, seq.root)."""
    from ondesign.metric import exceeds, pow2

    out, flags = [], []
    for j, _, holds_root, inside in cuts:
        share = sum(rho for _, rho, _ in inside)
        if holds_root:
            out.append(f"level {j}: root cut carries class-{j + 1} share {share:g}")
        elif exceeds(share, pow2(j + 2), atol=0.0):
            out.append(f"level {j}: cut share sum {share:g} > 2^{j + 2}")
        elif exceeds(share, pow2(j + 1), atol=0.0):
            flags.append(f"level {j}: cut share sum {share:g} in (2^{j + 1}, 2^{j + 2}]")
    return out, flags


def ref_pcst_cut_lower_bound(cuts):
    """Reference for tree_opt.pcst_cut_lower_bound on one tree's ref_class_cuts."""
    from ondesign.metric import pow2

    terms = []
    for j, _, holds_root, inside in cuts:
        pi_sum = sum((pi for _, _, pi in inside), 0.0)
        if not holds_root and pi_sum != 0:
            terms.append(min(pi_sum, pow2(j - 1)))
    return sum(terms, 0.0)


class _RefTally:
    def __init__(self, constants):
        self.constants = constants
        self.out, self.flags, self.ratios = [], [], {}

    def bound(self, name, lhs, rhs, constant=None):
        from ondesign.metric import exceeds

        factor = self.constants[constant or name]
        if exceeds(lhs, factor * rhs):
            self.out.append(f"{name}: {lhs:g} > {factor:g} * {rhs:g}")
            if rhs == 0:
                return
        self.ratios[name] = max(self.ratios.get(name, 0.0), 0.0 if rhs == 0 else lhs / rhs)


def _ref_tree_rob(tally, seq, trace, t, opt, load, cost_name, cost, shift):
    from ondesign.rentorbuy import cost_share

    tally.bound("share_vs_tree", cost_share(trace), opt)
    tally.bound(cost_name, cost, opt)
    tally.out += ref_check_cut_capacity(seq, trace, t, shift, load)


def _ref_tree_checks(tally, m, seq, trace, t, opt, load):
    from ondesign.cfl import cfl_buy_rent_cost
    from ondesign.prize import positive_share_rows, total_share

    problem = seq.problem
    if problem == "PCST":
        cuts = ref_class_cuts(t, positive_share_rows(seq, trace), 1, seq.root)
        tree_viol, tree_flags = ref_check_pcst_invariants(cuts)
        tally.out += tree_viol
        tally.flags += tree_flags
        share = total_share(trace)
        lb = ref_pcst_cut_lower_bound(cuts)
        tally.bound("share_vs_cut_lb", share, lb, constant="share_vs_tree")
        tally.bound("share_vs_tree", share, opt)
        tally.bound("cost_vs_tree", trace.total_cost(), opt)
        return
    if problem == "SROB":
        _ref_tree_rob(tally, seq, trace, t, opt, load, "cost_vs_tree", trace.total_cost(), 1)
    elif problem == "CFL":
        _ref_tree_rob(tally, seq, trace, t, opt, load, "buyrent_vs_tree", cfl_buy_rent_cost(m, seq, trace), 2)
    elif problem == "MROB":
        _ref_tree_rob(tally, seq, trace, t, opt, load, "cost_vs_tree", trace.total_cost(), 2)
    else:
        tally.bound("cost_vs_tree", trace.total_cost(), opt)
    if problem in ("SteinerForest", "SteinerNetwork", "MROB"):
        tally.out += ref_check_metagraph_acyclic(trace, ref_covers_from_tree(t, trace))


def ref_check_tree_bounds(m, seq, trace, t, opt, load, guard=()):
    """Reference for verify.check_tree_bounds, one tree at a time: t's
    (violations, flags, ratios), given its optimum and its cut load in its
    own cut ids; an error of a type in `guard` is its one violation."""
    from ondesign.verify import SPECS

    tally = _RefTally(SPECS[seq.problem].constants)
    try:
        _ref_tree_checks(tally, m, seq, trace, t, opt, load)
    except guard as exc:
        return [f"check error: {exc}"], [], {}
    return tally.out, tally.flags, tally.ratios


def cut_caps(seq, trace, t, shift):
    """rentorbuy.check_cut_capacity on t as a forest of one, with its cut load."""
    from ondesign.hst import cut_load
    from ondesign.rentorbuy import check_cut_capacity

    f = forest([t])
    return check_cut_capacity(seq, trace, f, shift, cut_load(f, seq.pairs))[0]


def tree_covers(t, trace):
    """steiner.covers_from_tree on t as a forest of one, in ref_covers_from_tree's
    form {j: {point: cut id}}; the tree's error raises."""
    from ondesign.steiner import covers_from_tree

    points, cover, errors = covers_from_tree(forest([t]), trace)
    if errors[0] is not None:
        raise errors[0]
    return {j: {p: cut for p, cut in zip(points, cuts[0].tolist()) if cut >= 0} for j, cuts in cover.items()}


def tree_metagraph(t, trace):
    """steiner.check_metagraph_acyclic on t as a forest of one; the tree's error raises."""
    from ondesign.steiner import check_metagraph_acyclic, covers_from_tree

    out = check_metagraph_acyclic(trace, covers_from_tree(forest([t]), trace))[0]
    if isinstance(out, Exception):
        raise out
    return out


# ---------------------------------------------------------------------------
# Scalar references for the online layers (one m.dist at a time)
# ---------------------------------------------------------------------------

def ref_same_class_closer(records, m, seq, shift):
    """Reference for steiner.same_class_closer: every same-class pair of
    records compared in record order, one m.dist at a time."""
    from ondesign.metric import pow2

    by_class = {}
    for rec in records:
        by_class.setdefault(rec.klass, []).append((rec, seq.pairs[rec.idx][0]))
    for j, recs in sorted(by_class.items()):
        bound = pow2(j + shift)
        for i, (a, p) in enumerate(recs):
            for b, q in recs[i + 1:]:
                d = m.dist(p, q)
                if d < bound:
                    yield j, a, b, d


class RefBcForest:
    """Reference for steiner.BcForest.add_pair: rescans every classified
    endpoint per level and per endpoint, joining through a UnionFind."""

    def __init__(self, m, copies=1):
        from ondesign.metric import UnionFind

        self.m = m
        self.copies = copies
        self.uf = UnionFind(m.n)
        self.occ = []
        self.levels = {}
        self.zero_merges = []

    def add_pair(self, s, t):
        from ondesign.metric import floor_log2, pow2

        added = []
        if self.m.dist(s, t) == 0.0:
            if s != t and self.uf.union(s, t):
                self.zero_merges.append((s, t))
                added.append((s, t, None))
            return None, added
        klass = floor_log2(self.m.dist(s, t))
        self.occ.append((s, klass))
        self.occ.append((t, klass))
        # level -1 joins only coincident terminals that some level reaches
        for level in range(-1, klass + 1):
            reach = pow2(level + 1)
            for x in (s, t):
                for v, cv in self.occ:
                    if cv < max(level, 0) or v == x:
                        continue
                    dv = self.m.dist(x, v)
                    if (dv == 0.0 if level < 0 else dv < reach) and self.uf.union(x, v):
                        if dv > 0.0:
                            added.append((x, v, level))
                            self.levels.setdefault(level, []).append((x, v))
                        else:
                            self.zero_merges.append((x, v))
                            added.append((x, v, None))
        return klass, added

    def summary(self):
        return {
            "copies": self.copies,
            "A": [[j, [list(e) for e in edges]] for j, edges in sorted(self.levels.items())],
            "occ": [list(o) for o in self.occ],
            "zero_merges": [list(e) for e in self.zero_merges],
        }


class RefOflState:
    """Reference for cfl.OflState.arrive: each closed facility's surplus as a
    Python sum over the clients, facilities tried in `points` order."""

    def __init__(self, m, facilities, root):
        self.m = m
        self.points = [p for p, _ in facilities]
        self.costs = dict(facilities)
        self.open_order = [root]
        self.is_open = {root}
        self.clients = []
        self.budgets = []
        self.assign = []

    def _nearest_open(self, i):
        cands = [p for p in self.points if p in self.is_open]
        best = cands[int(self.m.d[i, cands].argmin())]
        return best, self.m.dist(i, best)

    def arrive(self, i):
        _, b = self._nearest_open(i)
        self.clients.append(i)
        self.budgets.append(b)
        while True:
            opened = None
            for x in self.points:
                if x in self.is_open:
                    continue
                surplus = sum(
                    max(0.0, bv - self.m.dist(v, x))
                    for v, bv in zip(self.clients, self.budgets)
                )
                if surplus >= self.costs[x]:
                    opened = x
                    break
            if opened is None:
                break
            self.is_open.add(opened)
            self.open_order.append(opened)
            self.budgets = [
                min(bv, self.m.dist(v, opened))
                for v, bv in zip(self.clients, self.budgets)
            ]
        sigma, _ = self._nearest_open(i)
        self.assign.append(sigma)
        return sigma


def ref_max_flow(capacity, s, t, limit=math.inf):
    """Reference for metric.max_flow: Edmonds-Karp on a residual copy of `capacity`."""
    if s == t:
        return math.inf
    cap = {u: dict(nbrs) for u, nbrs in capacity.items()}
    flow = 0
    while flow < limit:
        pred = {s: None}
        queue = deque([s])
        while queue and t not in pred:
            u = queue.popleft()
            for v, c in cap.get(u, {}).items():
                if c > 0 and v not in pred:
                    pred[v] = u
                    queue.append(v)
        if t not in pred:
            break
        path = []
        v = t
        while pred[v] is not None:
            path.append((pred[v], v))
            v = pred[v]
        aug = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= aug
            cap.setdefault(v, {}).setdefault(u, 0)
            cap[v][u] += aug
        flow += aug
    return flow


def ref_validate_matrix(d):
    """Reference for metric._validate_matrix: the full O(n^3) scan, which
    raises on the first (v, then u, then w) triangle over the tolerance."""
    from ondesign.errors import SchemaError
    from ondesign.metric import RTOL

    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise SchemaError("distance matrix must be square")
    if np.any(d < 0):
        u, v = map(int, np.argwhere(d < 0)[0])
        raise SchemaError(f"d({u},{v}) < 0")
    if np.any(np.diag(d) != 0):
        raise SchemaError("nonzero diagonal entry")
    if not np.array_equal(d, d.T):
        u, v = map(int, np.argwhere(d != d.T)[0])
        raise SchemaError(f"d({u},{v}) != d({v},{u})")
    n = d.shape[0]
    tol = RTOL * max(1.0, float(d.max(initial=0.0)))
    buf = np.empty_like(d)
    for v in range(n):
        np.add.outer(d[:, v], d[v, :], out=buf)
        np.subtract(d, buf, out=buf)
        if buf.max() > tol:
            u, w = map(int, np.argwhere(buf > tol)[0])
            raise SchemaError(f"d({u},{w}) > d({u},{v}) + d({v},{w}) by {buf[u, w]:g}")


@st.composite
def tie_metrics(draw, max_n=10):
    """Small metrics rich in coincident points and equal distances: L1 or
    Euclidean distances between points of a 5 x 5 integer grid, times a scale
    that moves them across the class thresholds 2^j."""
    n = draw(st.integers(2, max_n))
    cell = st.tuples(st.integers(0, 4), st.integers(0, 4))
    pts = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    d = diff.sum(axis=-1) if draw(st.booleans()) else np.sqrt((diff * diff).sum(axis=-1))
    return MetricSpace(d=d * draw(st.sampled_from([0.5, 1.0, 1.5, 3.0])))
