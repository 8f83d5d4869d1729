"""Exact optimal values on a fixed HST, one per problem.

These are the right-hand sides of the charging bounds.  Each is a sum over
tree edges of the edge length times what the optimum must pay across that
edge's cut.  The single-source rent-or-buy value follows the root-relative
form (edges whose cut contains the root are skipped); the prize-collecting
value is the true tree optimum, computed by a DP on the tree re-rooted at r.

What crosses an edge is read off `Hst.cut_ids`: a pair's ends sit in
different level-j cuts exactly where their level-j edges lie on the path
between them.  Edge terms are added one at a time in node-id order.

Rent-or-buy cut sizes accept per-leaf request multiplicities: a terminal
requested w times forces w rents across each unbought edge on its root path.
"""

from __future__ import annotations

import numpy as np

from .errors import RootNotLeaf
from .hst import Hst, check_levels
from .metric import pow2


def _path_edges(t: Hst, pairs):
    """(node, pair index) for every edge on each pair's tree path: where the
    ends' level-j cuts differ, each end's level-j edge (if any) is on it."""
    ends = t.cut_ids_at([p for pair in pairs for p in pair])
    a, b = ends[:, 0::2], ends[:, 1::2]
    which = np.broadcast_to(np.arange(len(pairs)), a.shape)[a != b]
    node, which = np.concatenate([a[a != b], b[a != b]]), np.concatenate([which, which])
    real = (node >= 0) & (node < t.n_nodes)
    return node[real], which[real]


def _edge_sum(t: Hst, factor) -> float:
    """Sum over the edges with a nonzero factor of length * factor, in node-id order."""
    nodes = np.flatnonzero(factor)
    return sum((t.length[nodes] * factor[nodes]).tolist(), 0.0)


def opt_tree_steiner_tree(t: Hst) -> float:
    """All leaves are terminals, so the unique feasible solution is the tree."""
    return t.total_length()


def opt_tree_steiner_forest(t: Hst, pairs) -> float:
    used = np.zeros(t.n_nodes, dtype=np.intp)
    used[_path_edges(t, pairs)[0]] = 1
    return _edge_sum(t, used)


def opt_tree_steiner_network(t: Hst, pairs, reqs) -> float:
    node, which = _path_edges(t, pairs)
    need = np.zeros(t.n_nodes, dtype=np.asarray(reqs).dtype)
    np.maximum.at(need, node, np.asarray(reqs)[which])
    return _edge_sum(t, need)


def opt_tree_rob_multi(t: Hst, pairs, M) -> float:
    """Per edge: min of buying (M) vs renting for every separated pair."""
    return _edge_sum(t, np.minimum(M, np.bincount(_path_edges(t, pairs)[0], minlength=t.n_nodes)))


def opt_tree_rob_single(t: Hst, r: int, M, weights=None) -> float:
    """Sum over edges not above r of length * min(M, requests in the cut).

    `weights` maps terminal point -> request multiplicity (default 1 each).
    Edges on r's own root path are excluded: the charging argument only
    spends on cuts that separate terminals from r.
    """
    if r not in t.terminals:
        raise RootNotLeaf(f"root {r} is not a leaf of the tree")
    ids, per_leaf = t.cut_ids, [(weights or {}).get(p, 1) for p in t.terminals]
    load = np.bincount(ids.ravel(), weights=np.tile(per_leaf, len(ids)), minlength=t.n_nodes)
    load[ids[:, t.terminals.index(r)]] = 0  # the edges above r
    return _edge_sum(t, np.where(load != 0, np.minimum(M, load), 0)[:t.n_nodes])


def opt_tree_pcst(t: Hst, r: int, penalties) -> float:
    """Exact min of c(bought subtree containing r) + dropped penalties.

    `penalties` is a list of (terminal point, pi) occurrences; coincident
    occurrences accumulate on their shared leaf.  Bottom-up DP on the tree
    re-rooted at leaf r: cutting a subtree pays its total penalty, keeping it
    pays its parent edge plus its children's optima.
    """
    if r not in t.terminals:
        raise RootNotLeaf(f"root {r} is not a leaf of the tree")
    pen_at = {}
    for p, pi in penalties:
        if pi < 0:
            raise ValueError("penalties must be >= 0")
        pen_at[p] = pen_at.get(p, 0.0) + pi

    # adjacency with lengths, then orient away from r's leaf
    parent, length, leaf = t.lists
    adj = [[] for _ in parent]
    for nid in range(1, t.n_nodes):
        adj[nid].append((parent[nid], length[nid]))
        adj[parent[nid]].append((nid, length[nid]))
    point_at = dict(zip(leaf, t.terminals))
    root = leaf[t.terminals.index(r)]
    order, par, par_len = [root], {root: None}, {root: 0.0}
    for v in order:  # breadth first: the loop visits what it appends
        for w, ln in adj[v]:
            if w not in par:
                par[w], par_len[w] = v, ln
                order.append(w)
    pen_sub, h = {}, {}
    for v in reversed(order):
        kids = [w for w, _ in adj[v] if par.get(w) == v]
        pen_sub[v] = pen_at.get(point_at.get(v), 0.0) + sum(pen_sub[w] for w in kids)
        keep = sum(h[w] for w in kids)
        h[v] = keep if v == root else min(pen_sub[v], par_len[v] + keep)
    return h[root]


def pcst_cut_lower_bound(t: Hst, r: int, class_rho_pi) -> float:
    """Cut-based lower bound on opt_tree_pcst over root-free cuts.

    `class_rho_pi` maps class c -> list of (point, rho, pi) for terminals with
    positive cost share.  Class-(j+1) terminals are associated with the level-j
    cut containing them; each cut contributes min(sum of penalties, 2^(j-1)).
    Levels run over the extended tree's charge range including the conventional
    singleton level 0.
    """
    terms = []
    root = t.cut_ids_at([r])[:, 0]
    for row, j in enumerate(check_levels(t)):
        rows = class_rho_pi.get(j + 1)
        if not rows:
            continue
        ids = t.cut_ids_at([p for p, _, _ in rows])[row]
        keep = (ids >= 0) & (ids != root[row])
        pi_sum = np.bincount(ids[keep], weights=np.array([pi for _, _, pi in rows])[keep])
        terms += np.minimum(pi_sum[pi_sum != 0], pow2(j - 1)).tolist()
    return sum(terms, 0.0)
