"""Exact offline optima at desk scale: the denominators of empirical ratios.

Every oracle enumerates within a hard cap and raises TooLarge beyond it; the
caps keep worst cases under a few seconds.  The Steiner core is a
Dreyfus-Wagner subset DP whose full table is shared by the forest, penalty
and facility oracles (one DP answers Steiner costs for all terminal subsets).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import TooLarge
from .metric import MetricSpace, MultiGraphSolution, max_flow

_DW_CAP = 14
_SF_PAIR_CAP = 8
_SROB_CAP = 15
_MROB_CAP = 7
_PCST_CAP = 12
_FAC_CAP = 12


def prim_mst(d: np.ndarray, idxs) -> float:
    """MST weight of the submetric over `idxs`; safe with zero distances."""
    idxs = list(idxs)
    if len(idxs) <= 1:
        return 0.0
    in_tree = {idxs[0]}
    best = {v: d[idxs[0], v] for v in idxs[1:]}
    total = 0.0
    while best:
        v = min(best, key=lambda u: (best[u], u))
        total += best.pop(v)
        in_tree.add(v)
        for u in best:
            if d[v, u] < best[u]:
                best[u] = d[v, u]
    return float(total)


def dreyfus_wagner_table(m: MetricSpace, terminals):
    """Subset DP: row S[mask] of one (2^t, n) array is the per-vertex optimal
    cost of a tree spanning the masked terminals plus that vertex; Steiner
    points range over all points."""
    terms = list(terminals)
    d = m.d
    S = np.zeros((1 << len(terms), m.n))  # row 0, the empty set, is never read
    for i, t in enumerate(terms):
        S[1 << i] = d[t]
    for mask in range(len(S)):
        if mask & (mask - 1) == 0:  # the empty set and the singletons
            continue
        low = mask & (-mask)
        rest = mask ^ low
        best = np.full(m.n, np.inf)
        sub = rest
        # split enumeration: every proper submask containing the lowest bit
        while True:
            left = low | sub
            right = mask ^ left
            if right:
                np.minimum(best, S[left] + S[right], out=best)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        S[mask] = (best[:, None] + d).min(axis=0)
    return terms, S


def steiner_from_table(terms, table, subset, anchor) -> float:
    """Optimal Steiner tree cost over `subset` (points, anchor included)."""
    others = [p for p in subset if p != anchor]
    if not others:
        return 0.0
    mask = 0
    for p in set(others):
        mask |= 1 << terms.index(p)
    return float(table[mask][anchor])


def dreyfus_wagner_st(m: MetricSpace, terminals) -> float:
    """Exact Steiner tree cost; all points act as candidate Steiner vertices."""
    pts = sorted(set(terminals))
    if len(pts) > _DW_CAP:
        raise TooLarge("terminals", len(pts), _DW_CAP)
    if len(pts) <= 1:
        return 0.0
    terms, table = dreyfus_wagner_table(m, pts[1:])
    return steiner_from_table(terms, table, pts, pts[0])


def _partitions(items):
    """All set partitions, first element anchoring each block."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]
        yield [[head]] + part


def exact_sf(m: MetricSpace, pairs) -> float:
    """Optimal Steiner forest: best partition of the pairs into joint trees.

    One table over the endpoints but the least serves every block, read at
    the block's least point (an entry depends only on its terminal subset).
    """
    pairs = [tuple(p) for p in pairs]
    if len(pairs) > _SF_PAIR_CAP:
        raise TooLarge("pairs", len(pairs), _SF_PAIR_CAP)
    live = [p for p in pairs if m.dist(*p) > 0]
    if not live:
        return 0.0
    pts = sorted({x for pr in live for x in pr})
    if len(pts) > _DW_CAP:
        raise TooLarge("terminals", len(pts), _DW_CAP)
    terms, table = dreyfus_wagner_table(m, pts[1:])
    best = math.inf
    for part in _partitions(live):
        blocks = [{x for pr in block for x in pr} for block in part]
        best = min(best, sum(steiner_from_table(terms, table, b, min(b)) for b in blocks))
    return best


def exact_srob(m: MetricSpace, r: int, terminals, M) -> float:
    """min over S containing r of M * MST(S) + assignment distances to S."""
    if m.n > _SROB_CAP:
        raise TooLarge("points", m.n, _SROB_CAP)
    terms = list(terminals)
    others = [p for p in range(m.n) if p != r]
    best = math.inf
    for size in range(len(others) + 1):
        for extra in itertools.combinations(others, size):
            S = [r, *extra]
            mst = prim_mst(m.d, S)
            cost = M * mst if mst else 0.0  # keeps the M = inf sentinel finite
            cost += sum(min(m.dist(i, v) for v in S) for i in terms)
            best = min(best, cost)
    return best


def exact_mrob(m: MetricSpace, pairs, M) -> float:
    """min over component partitions of M * sum MST(part) + contracted rents.

    Equivalent to minimizing over bought edge sets: an optimal bought set is a
    forest and only its connected components matter.
    """
    if m.n > _MROB_CAP:
        raise TooLarge("points", m.n, _MROB_CAP)
    pairs = [tuple(p) for p in pairs]
    best = math.inf
    for part in _partitions(range(m.n)):
        forest = sum(prim_mst(m.d, block) for block in part)
        buy = M * forest if forest else 0.0
        if buy >= best:
            continue
        t = len(part)
        dq = np.full((t, t), math.inf)
        np.fill_diagonal(dq, 0.0)
        for a in range(t):
            for b in range(a + 1, t):
                dq[a, b] = dq[b, a] = min(m.dist(u, v) for u in part[a] for v in part[b])
        for k in range(t):
            dq = np.minimum(dq, dq[:, k][:, None] + dq[k, :][None, :])
        where = {}
        for bi, block in enumerate(part):
            for p in block:
                where[p] = bi
        rent = sum(dq[where[s], where[t_]] for s, t_ in pairs)
        best = min(best, buy + rent)
    return float(best)


def exact_pcst(m: MetricSpace, r: int, requests) -> float:
    """min over penalty subsets of paid penalties + Steiner tree on the rest."""
    reqs = list(requests)
    if len(reqs) > _PCST_CAP:
        raise TooLarge("terminals", len(reqs), _PCST_CAP)
    # _PCST_CAP < _DW_CAP: the requests' points and the root stay within the Steiner cap
    terms, table = dreyfus_wagner_table(m, sorted({p for p, _ in reqs} - {r}))
    best = math.inf
    for keep_mask in range(1 << len(reqs)):
        pay = sum(pi for k, (_, pi) in enumerate(reqs) if not keep_mask >> k & 1)
        kept = [p for k, (p, _) in enumerate(reqs) if keep_mask >> k & 1]
        best = min(best, pay + steiner_from_table(terms, table, [r, *kept], r))
    return best


def exact_fl(m: MetricSpace, facilities, clients) -> float:
    """Plain facility location: open any nonempty subset, assign greedily."""
    if len(facilities) > _FAC_CAP:
        raise TooLarge("facilities", len(facilities), _FAC_CAP)
    best = math.inf
    pts = [p for p, _ in facilities]
    costs = dict(facilities)
    for size in range(1, len(pts) + 1):
        for opened in itertools.combinations(pts, size):
            cost = sum(costs[x] for x in opened)
            cost += sum(min(m.dist(i, x) for x in opened) for i in clients)
            best = min(best, cost)
    return best


def exact_cfl(m: MetricSpace, facilities, clients, M, r: int) -> float:
    """Connected facility location: opened set contains r and is joined by a
    Steiner tree bought at M per unit length."""
    if len(facilities) > _FAC_CAP:
        raise TooLarge("facilities", len(facilities), _FAC_CAP)
    pts = [p for p, _ in facilities]
    costs = dict(facilities)
    others = [p for p in pts if p != r]
    terms, table = dreyfus_wagner_table(m, others)
    best = math.inf
    for size in range(len(others) + 1):
        for extra in itertools.combinations(others, size):
            opened = (r, *extra)
            cost = sum(costs[x] for x in opened)
            cost += M * steiner_from_table(terms, table, opened, r)
            cost += sum(min(m.dist(i, x) for x in opened) for i in clients)
            best = min(best, cost)
    return best


def exact_sn_tiny(m: MetricSpace, pairs, reqs) -> float:
    """Brute force over per-edge multiplicities (each capped at R_max)."""
    pairs = [tuple(p) for p in pairs]
    rmax = max(reqs, default=0)
    if m.n > 4 or rmax > 3:
        raise TooLarge("points/R_max", (m.n, rmax), (4, 3))
    live = [(p, q, r) for (p, q), r in zip(pairs, reqs) if m.dist(p, q) > 0]
    if not live:
        return 0.0
    edges = [(u, v) for u in range(m.n) for v in range(u + 1, m.n)]
    best = math.inf
    for mults in itertools.product(range(rmax + 1), repeat=len(edges)):
        cost = sum(k * m.dist(u, v) for (u, v), k in zip(edges, mults))
        if cost >= best:
            continue
        g = MultiGraphSolution()
        for (u, v), k in zip(edges, mults):
            if k:
                g.buy(u, v, k)
        if all(max_flow(g.capacity, s, t, limit=r) >= r for s, t, r in live):
            best = cost
    return best
