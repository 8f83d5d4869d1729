import numpy as np
import pytest

from ondesign.metric import MetricSpace, build_metric


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


def brute_tree_rob_single(t, r, M, weights=None):
    """Enumerate per-edge buy/rent decisions over edges off r's root chain."""
    import itertools

    chain = set()
    x = leaf_of(t)[r]
    while x != 0:
        chain.add(x)
        x = int(t.parent[x])
    edges = [e for e in edge_list(t) if e not in chain]
    usage = {e: 0 for e in edges}
    for p in t.terminals:
        w = (weights or {}).get(p, 1) if weights is not None else 1
        if p == r:
            continue
        for e in root_path_edges(t, r, p):
            if e in usage:
                usage[e] += w
    best = None
    if len(edges) <= 13:
        for buys in itertools.product((False, True), repeat=len(edges)):
            cost = sum(
                (M if b else usage[e]) * edge_len(t, e) for e, b in zip(edges, buys)
            )
            best = cost if best is None else min(best, cost)
        return best
    return sum(min(M, usage[e]) * edge_len(t, e) for e in edges)


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


def random_small_hst(rng, max_leaves=8, extended_chance=0.5):
    """Sample a valid HST over a random small Euclidean metric."""
    from ondesign.hst import extend_singleton_levels, sample_frt

    k = int(rng.integers(2, max_leaves + 1))
    pts = rng.random((k, 2)) * rng.uniform(1.0, 40.0)
    m = build_metric(pts, "points")
    t = sample_frt(m, range(k), int(rng.integers(0, 2**31)))
    if rng.random() < extended_chance:
        t = extend_singleton_levels(t)
    return m, t


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


def id_cuts(t, j):
    """The level-j cuts as terminal sets, grouped from hst.cut_row in cut-id order."""
    from ondesign.hst import cut_row

    cuts = {}
    for p, cut in zip(t.terminals, cut_row(t, j).tolist()):
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
    for j in range(1, t.root_level + 1):
        seen = [p for c in brute_cuts_at_level(t, j) for p in c]
        if len(seen) != len(set(seen)) or set(seen) != set(pts):
            out.append(f"partition: level-{j} cuts do not partition the terminals")
    for nid in range(1, t.n_nodes):
        size = len(brute_cut(t, nid))
        if level[nid] <= 0 and size != 1:
            out.append(f"singletons: level-{level[nid]} cut has {size} terminals")
    return out


def _levels(t):
    lo = t.extended_to if t.extended_to is not None else 0
    return range(lo, t.root_level + 1)


def brute_check_cut_capacity(trace, t, M, shift, pairs, root=None, rep=lambda p: p, weights=None):
    """Reference for rentorbuy.check_cut_capacity: membership tests on brute cuts."""
    import math

    rents = {}
    for rec in trace.records:
        if rec.decision == "rent" and rec.klass is not None:
            p = rec.points[1] if rec.rent_endpoint == "t" else rec.points[0]
            rents.setdefault(rec.klass, []).append((rec.idx, rep(p)))
    out = []
    for j in _levels(t):
        rows = rents.get(j + shift, [])
        for cut in brute_cuts_at_level(t, j) if rows else []:
            inside = [(ridx, p) for ridx, p in rows if p in cut]
            if not inside:
                continue
            if root is not None and rep(root) in cut:
                out.append(f"level {j}: cut with root holds class-{j + shift} rents {sorted(r for r, _ in inside)}")
                continue
            if len(inside) > math.ceil(M):
                out.append(f"level {j}: {len(inside)} class-{j + shift} rent occurrences > ceil(M)={math.ceil(M)}")
            load = sum((weights or {}).get(p, 1) for p in cut)
            if pairs is None and len(inside) > load:
                out.append(f"level {j}: {len(inside)} class-{j + shift} rent occurrences > w(C)={load:g}")
            crossing = sum(1 for s, u in pairs or () if (s in cut) != (u in cut))
            if pairs is not None and len(inside) > crossing:
                out.append(f"level {j}: {len(inside)} rents > |D(C)|={crossing}")
    return out


def brute_check_pcst_invariants(trace, root, t, rep=lambda p: p):
    """Reference for prize.check_pcst_invariants: membership tests on brute cuts."""
    from ondesign.metric import exceeds, pow2
    from ondesign.prize import positive_share_rows

    out, flags = [], []
    by_class = {c: [(rep(p), rho) for p, rho, _ in rows] for c, rows in positive_share_rows(trace).items()}
    for j in _levels(t):
        for cut in brute_cuts_at_level(t, j) if by_class.get(j + 1) else []:
            inside = sum(rho for p, rho in by_class[j + 1] if p in cut)
            if inside > 0 and rep(root) in cut:
                out.append(f"level {j}: root cut carries class-{j + 1} share {inside:g}")
            elif inside > 0 and exceeds(inside, pow2(j + 2), atol=0.0):
                out.append(f"level {j}: cut share sum {inside:g} > 2^{j + 2}")
            elif inside > 0 and exceeds(inside, pow2(j + 1), atol=0.0):
                flags.append(f"level {j}: cut share sum {inside:g} in (2^{j + 1}, 2^{j + 2}]")
    return out, flags
