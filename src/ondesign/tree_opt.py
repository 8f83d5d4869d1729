"""Exact optimal values on a fixed HST, one per problem.

These are the right-hand sides of the charging bounds.  Each is a sum over
tree edges of the edge length times what the optimum must pay across that
edge's cut.  The single-source rent-or-buy value follows the root-relative
form (edges whose cut contains the root are skipped); the prize-collecting
value is the true tree optimum, computed by a DP on the tree re-rooted at r.

Rent-or-buy cut sizes accept per-leaf request multiplicities: a terminal
requested w times forces w rents across each unbought edge on its root path.
"""

from __future__ import annotations

from .errors import RootNotLeaf
from .hst import Hst, check_levels, cuts_at_level
from .metric import pow2


def _edges(t: Hst):
    for nid in range(1, t.n_nodes):
        yield t.edge_length(nid), t.cut(nid)


def _sep(cut, s, u) -> bool:
    return (s in cut) != (u in cut)


def opt_tree_steiner_tree(t: Hst) -> float:
    """All leaves are terminals, so the unique feasible solution is the tree."""
    return t.total_length()


def opt_tree_steiner_forest(t: Hst, pairs) -> float:
    total = 0.0
    for length, cut in _edges(t):
        if any(_sep(cut, s, u) for s, u in pairs):
            total += length
    return total


def opt_tree_steiner_network(t: Hst, pairs, reqs) -> float:
    total = 0.0
    for length, cut in _edges(t):
        need = max((r for (s, u), r in zip(pairs, reqs) if _sep(cut, s, u)), default=0)
        total += length * need
    return total


def opt_tree_rob_multi(t: Hst, pairs, M) -> float:
    """Per edge: min of buying (M) vs renting for every separated pair."""
    total = 0.0
    for length, cut in _edges(t):
        crossing = sum(1 for s, u in pairs if _sep(cut, s, u))
        total += length * min(M, crossing)
    return total


def opt_tree_rob_single(t: Hst, r: int, M, weights=None) -> float:
    """Sum over edges not above r of length * min(M, requests in the cut).

    `weights` maps terminal point -> request multiplicity (default 1 each).
    Edges on r's own root path are excluded: the charging argument only
    spends on cuts that separate terminals from r.
    """
    if r not in t.point_leaf:
        raise RootNotLeaf(f"root {r} is not a leaf of the tree")
    total = 0.0
    for length, cut in _edges(t):
        if r in cut:
            continue
        w = sum((weights or {}).get(p, 1) for p in cut) if weights is not None else len(cut)
        if w:
            total += length * min(M, w)
    return total


def opt_tree_pcst(t: Hst, r: int, penalties) -> float:
    """Exact min of c(bought subtree containing r) + dropped penalties.

    `penalties` is a list of (terminal point, pi) occurrences; coincident
    occurrences accumulate on their shared leaf.  Bottom-up DP on the tree
    re-rooted at leaf r: cutting a subtree pays its total penalty, keeping it
    pays its parent edge plus its children's optima.
    """
    if r not in t.point_leaf:
        raise RootNotLeaf(f"root {r} is not a leaf of the tree")
    pen_at = {}
    for p, pi in penalties:
        if pi < 0:
            raise ValueError("penalties must be >= 0")
        pen_at[p] = pen_at.get(p, 0.0) + pi

    # adjacency with lengths, then orient away from r's leaf
    adj = {nid: [] for nid in range(t.n_nodes)}
    for nid in range(1, t.n_nodes):
        ln = t.edge_length(nid)
        adj[nid].append((t.parent[nid], ln))
        adj[t.parent[nid]].append((nid, ln))
    root = t.point_leaf[r]
    order, par, par_len = [root], {root: None}, {root: 0.0}
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for w, ln in adj[v]:
            if w not in par:
                par[w] = v
                par_len[w] = ln
                order.append(w)

    pen_sub = {v: 0.0 for v in order}
    h = {}
    for v in reversed(order):
        if v in t.leaf_point:
            pen_sub[v] += pen_at.get(t.leaf_point[v], 0.0)
        kids = [w for w, _ in adj[v] if par.get(w) == v]
        sub = pen_sub[v] + sum(pen_sub[w] for w in kids)
        pen_sub[v] = sub
        if v == root:
            h[v] = sum(h[w] for w in kids)
        else:
            h[v] = min(sub, par_len[v] + sum(h[w] for w in kids))
    return h[root]


def pcst_cut_lower_bound(t: Hst, r: int, class_rho_pi) -> float:
    """Cut-based lower bound on opt_tree_pcst over root-free cuts.

    `class_rho_pi` maps class c -> list of (point, rho, pi) for terminals with
    positive cost share.  Class-(j+1) terminals are associated with the level-j
    cut containing them; each cut contributes min(sum of penalties, 2^(j-1)).
    Levels run over the extended tree's charge range including the conventional
    singleton level 0.
    """
    total = 0.0
    for j in check_levels(t):
        rows = class_rho_pi.get(j + 1)
        if not rows:
            continue
        for cut in cuts_at_level(t, j):
            if r in cut:
                continue
            pi_sum = sum(pi for p, _, pi in rows if p in cut)
            if pi_sum:
                total += min(pi_sum, pow2(j - 1))
    return total
