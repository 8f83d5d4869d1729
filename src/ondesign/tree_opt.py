"""Exact optimal values on a fixed HST, one per problem.

These are the right-hand sides of the charging bounds.  Each is a sum over
tree edges of the edge length times what the optimum must pay across that
edge's cut.  The single-source rent-or-buy value follows the root-relative
form (edges whose cut contains the root are skipped); the prize-collecting
value is the true tree optimum, computed by a DP on the tree re-rooted at r.

Every oracle reads an `hst.Forest`, the trees of one terminal set, and
returns one value per tree: each step runs once for all the trees, every
tree's arithmetic in its own order.  What crosses an edge is read off
`hst.path_cuts`: a pair's ends sit in different level-j cuts exactly where
their level-j edges lie on the path between them.  Edge terms are added
one at a time in node-id order, per tree.  The PCST DP reads the
forest's node arrays, one edge level at a time.

Points are resolved through the tree (see hst): coincident points share a
leaf, so a leaf requested w times forces w rents across each unbought edge on
its root path, and coincident penalties add up on their leaf.
"""

from __future__ import annotations

import numpy as np

from .hst import Forest, cut_load, path_cuts


def _edge_sums(f: Forest, factor) -> list:
    """Per tree of f, the sum over its edges with a nonzero factor (indexed by
    f's cut ids; real nodes only) of length * factor, in node-id order."""
    _, _, off, owner, *_ = f.nodes
    factor = factor[np.arange(len(owner)) + owner * f.k]  # per forest node
    nodes = np.flatnonzero(factor)
    terms = (f.length[nodes] * factor[nodes]).tolist()
    ends = np.searchsorted(nodes, off).tolist() + [len(terms)]
    return [sum(terms[a:b], 0.0) for a, b in zip(ends, ends[1:])]


def opt_tree_steiner_tree(f: Forest) -> list:
    """All leaves are terminals, so the unique feasible solution is the tree."""
    return np.bincount(f.nodes[3], f.length, minlength=f.n_trees).tolist()  # powers of two: exact in any order


def opt_tree_steiner_forest(f: Forest, pairs) -> list:
    return _edge_sums(f, np.minimum(1, cut_load(f, pairs)))


def opt_tree_steiner_network(f: Forest, pairs, reqs) -> list:
    cut, which = path_cuts(f, pairs)
    need = np.zeros(f.n_ids, dtype=np.asarray(reqs).dtype)
    np.maximum.at(need, cut, np.asarray(reqs)[which])
    return _edge_sums(f, need)


def opt_tree_rob_multi(f: Forest, load, M) -> list:
    """Per edge: min of buying (M) vs renting for every separated pair.

    `load` is cut_load(f, pairs) of the request pairs."""
    return _edge_sums(f, np.minimum(M, load))


def opt_tree_rob_single(f: Forest, r: int, M, load) -> list:
    """Sum over edges not above r of length * min(M, clients in the cut): the
    multi-source value of the (client, r) pairs, r's root path left out.

    `load` is cut_load(f, pairs) of the (client, r) pairs, one per request.
    The charging argument only spends on cuts that separate terminals from r.
    """
    col = f.columns([r])[0]
    if col < 0:
        raise ValueError(f"root {r} is not a leaf of the tree")
    above = f.local[:, :, col]  # the edges above r
    on = above >= 0
    capped = np.minimum(M, load)
    capped[(above + f.start[:, None])[on]] = 0
    return _edge_sums(f, capped)


def opt_tree_pcst(f: Forest, r: int, penalties) -> list:
    """Exact min of c(bought subtree containing r) + dropped penalties.

    `penalties` is a list of (point, pi >= 0) occurrences; the penalties of one
    leaf add up, and those of points not in the tree are ignored.  DP on the
    tree re-rooted at r's leaf: cutting a subtree pays its total penalty,
    keeping it pays its edge toward r plus its children's optima.  Off r's
    root path the subtrees are the tree's own, solved one edge level at a
    time from the bottom (validate_hst checks that a node's children share
    one level below its own), children added by id.  A walk down r's root
    path from node 0 then adds at each node the part above it, then its
    other children by id.  Every tree of f takes each step at once.
    """
    cols = f.columns([r] + [p for p, _ in penalties])
    if cols[0] < 0:
        raise ValueError(f"root {r} is not a leaf of the tree")
    pis = np.array([pi for _, pi in penalties], dtype=float)
    parent, level, off, owner, _, leaf = f.nodes
    length, n_trees = f.length, len(off)
    held = cols[1:] >= 0
    pen = np.zeros(len(parent))  # per node, the penalty of its subtree
    np.add.at(pen, leaf[:, cols[1:][held]].ravel(), np.tile(pis[held], n_trees))  # tree by tree, in request order
    # r's root path, top down: each tree's root, then its real nodes among
    # r's cuts from the root level down, left-aligned
    above = f.local[:, ::-1, cols[0]]
    real = (above >= 0) & (above < f.sizes[:, None])
    first = np.argsort(~real, axis=1, kind="stable")
    path = np.column_stack([off, np.take_along_axis(above + off[:, None], first, axis=1)])
    on = np.column_stack([np.ones(n_trees, dtype=bool), np.take_along_axis(real, first, axis=1)])
    step = np.full(len(parent), -1)
    step[path[on]] = np.nonzero(on)[1]
    off_path = step < 0
    h, keep = np.zeros(len(parent)), np.zeros(len(parent))  # per node, its optimum and its children's
    for j in np.unique(level[off_path]).tolist():
        nodes = np.flatnonzero(off_path & (level == j))
        h[nodes] = np.minimum(pen[nodes], length[nodes] + keep[nodes])
        inner = nodes[off_path[parent[nodes]]]
        np.add.at(pen, parent[inner], pen[inner])
        np.add.at(keep, parent[inner], h[inner])
    hang = np.flatnonzero(off_path & ~off_path[parent])  # the off-path children of path nodes
    hang_step = step[parent[hang]]
    pen_up, h_up = np.zeros(n_trees), np.zeros(n_trees)  # the re-rooted subtree of the path node last walked
    for s in range(path.shape[1] - 1):
        c = hang[hang_step == s]
        np.add.at(pen_up, owner[c], pen[c])
        np.add.at(h_up, owner[c], h[c])
        below = on[:, s + 1]
        h_up[below] = np.minimum(pen_up[below], length[path[below, s + 1]] + h_up[below])
    return h_up.tolist()


def pcst_cut_lower_bound(cuts) -> list:
    """Cut-based lower bound on opt_tree_pcst over root-free cuts, per tree.

    `cuts` is the grouping prize.check_pcst_invariants returns:
    hst.class_cuts(f, class_rho_pi, 1, r) on the extended forest f,
    `class_rho_pi` mapping class c -> list of (point, rho, pi) for terminals
    with positive cost share: class-(j+1) terminals by the level-j cut
    holding them, the conventional singleton level 0 included.  Each cut
    without r contributes min(sum of penalties, 2^(j-1)); the penalties and
    each tree's terms are added in order.
    """
    pi_sum = cuts.total([pi for _, _, pi in cuts.entries])
    keep = ~cuts.holds_root & (pi_sum != 0)
    terms = np.minimum(pi_sum[keep], np.ldexp(1.0, cuts.level[keep] - 1))
    return np.bincount(cuts.tree[keep], terms, minlength=cuts.trees).tolist()
