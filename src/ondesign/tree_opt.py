"""Exact optimal values on a fixed HST, one per problem.

These are the right-hand sides of the charging bounds.  Each is a sum over
tree edges of the edge length times what the optimum must pay across that
edge's cut.  The single-source rent-or-buy value follows the root-relative
form (edges whose cut contains the root are skipped); the prize-collecting
value is the true tree optimum, computed by a DP on the tree re-rooted at r.

What crosses an edge is read off `hst.path_cuts`: a pair's ends sit in
different level-j cuts exactly where their level-j edges lie on the path
between them.  Edge terms are added one at a time in node-id order.  The
PCST DP reads the tree's arrays, one edge level at a time.

Points are resolved through the tree (see hst): coincident points share a
leaf, so a leaf requested w times forces w rents across each unbought edge on
its root path, and coincident penalties add up on their leaf.
"""

from __future__ import annotations

import numpy as np

from .hst import Hst, class_cuts, cut_load, path_cuts
from .metric import pow2


def _edge_sum(t: Hst, factor) -> float:
    """Sum over the edges with a nonzero factor (indexed by cut id; real nodes
    only) of length * factor, in node-id order."""
    factor = factor[:t.n_nodes]
    nodes = np.flatnonzero(factor)
    return sum((t.length[nodes] * factor[nodes]).tolist(), 0.0)


def opt_tree_steiner_tree(t: Hst) -> float:
    """All leaves are terminals, so the unique feasible solution is the tree."""
    return t.total_length()


def opt_tree_steiner_forest(t: Hst, pairs) -> float:
    return _edge_sum(t, np.minimum(1, cut_load(t, pairs)))


def opt_tree_steiner_network(t: Hst, pairs, reqs) -> float:
    cut, which = path_cuts(t, pairs)
    need = np.zeros(t.n_nodes + len(t.terminals), dtype=np.asarray(reqs).dtype)
    np.maximum.at(need, cut, np.asarray(reqs)[which])
    return _edge_sum(t, need)


def opt_tree_rob_multi(t: Hst, load, M) -> float:
    """Per edge: min of buying (M) vs renting for every separated pair.

    `load` is cut_load(t, pairs) of the request pairs."""
    return _edge_sum(t, np.minimum(M, load))


def opt_tree_rob_single(t: Hst, r: int, M, load) -> float:
    """Sum over edges not above r of length * min(M, clients in the cut): the
    multi-source value of the (client, r) pairs, r's root path left out.

    `load` is cut_load(t, pairs) of the (client, r) pairs, one per request.
    The charging argument only spends on cuts that separate terminals from r.
    """
    above = t.cuts([r])[:, 0]  # the edges above r
    if above[0] < 0:
        raise ValueError(f"root {r} is not a leaf of the tree")
    capped = np.minimum(M, load)
    capped[above] = 0
    return _edge_sum(t, capped)


def opt_tree_pcst(t: Hst, r: int, penalties) -> float:
    """Exact min of c(bought subtree containing r) + dropped penalties.

    `penalties` is a list of (point, pi >= 0) occurrences; the penalties of one
    leaf add up, and those of points not in the tree are ignored.  DP on the
    tree re-rooted at r's leaf: cutting a subtree pays its total penalty,
    keeping it pays its edge toward r plus its children's optima.  Off r's
    root path the subtrees are the tree's own, solved one edge level at a
    time from the bottom (validate_hst checks that a node's children share
    one level below its own), children added by id.  A walk down r's root
    path from node 0 then adds at each node the part above it, then its
    other children by id.
    """
    cols = t.columns([r] + [p for p, _ in penalties])
    if cols[0] < 0:
        raise ValueError(f"root {r} is not a leaf of the tree")
    pis = np.array([pi for _, pi in penalties], dtype=float)
    parent, length, level = t.parent, t.length, t.edge_level
    held = cols[1:] >= 0
    pen = np.zeros(t.n_nodes)  # per node, the penalty of its subtree
    np.add.at(pen, t.leaf[cols[1:][held]], pis[held])  # in request order
    above = t.cut_ids[:, cols[0]]  # the edges above r, from its leaf up
    path = above[above < t.n_nodes].tolist() + [0]
    off = ~np.isin(np.arange(t.n_nodes), path)
    h, keep = np.zeros(t.n_nodes), np.zeros(t.n_nodes)  # per node, its optimum and its children's
    for j in np.unique(level[off]).tolist():
        nodes = np.flatnonzero(off & (level == j))
        h[nodes] = np.minimum(pen[nodes], length[nodes] + keep[nodes])
        inner = nodes[off[parent[nodes]]]
        np.add.at(pen, parent[inner], pen[inner])
        np.add.at(keep, parent[inner], h[inner])
    hang = np.flatnonzero(off & ~off[parent])  # the off-path children of path nodes
    pen_up = h_up = 0.0  # the re-rooted subtree of the path node last walked
    for v, below in zip(path[::-1], path[-2::-1]):
        for c in hang[parent[hang] == v].tolist():
            pen_up += pen[c]
            h_up += h[c]
        h_up = min(pen_up, length[below] + h_up)
    return float(h_up)


def pcst_cut_lower_bound(t: Hst, r: int, class_rho_pi) -> float:
    """Cut-based lower bound on opt_tree_pcst over root-free cuts.

    `class_rho_pi` maps class c -> list of (point, rho, pi) for terminals with
    positive cost share.  Class-(j+1) terminals are associated with the level-j
    cut containing them; each cut contributes min(sum of penalties, 2^(j-1)).
    Levels run over the extended tree's charge range including the conventional
    singleton level 0.
    """
    terms = []
    for j, _, holds_root, inside in class_cuts(t, class_rho_pi, 1, r):
        pi_sum = sum((pi for _, _, pi in inside), 0.0)
        if not holds_root and pi_sum != 0:
            terms.append(min(pi_sum, pow2(j - 1)))
    return sum(terms, 0.0)
