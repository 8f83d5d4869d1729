"""Single-source and multi-source rent-or-buy.

Both algorithms rent a direct edge unless enough same-class rent terminals sit
nearby to witness that buying pays for itself.  Witness counts compare against
the real parameter M literally (|W| >= M), so M = 0 means always buy.

Single-source: the nearest buy terminal z (Z starts at the root) defines
a_i = d(i, z) and class j; witnesses are class-j rent terminals within
2^(j-1).  Buys add (i, z) to H, so H is exactly the greedy Steiner tree over
the buy subsequence.

Multi-source: the pair distance defines the class; witnesses live within
2^(j-2) of an endpoint; a pair whose endpoints both have M witnesses is passed
to an embedded Berman-Coulston forest instance, whose edges are bought.
"""

from __future__ import annotations

import math

import numpy as np

from .hst import Hst, check_levels
from .metric import (
    MetricSpace,
    MultiGraphSolution,
    RequestRecord,
    RunTrace,
    floor_log2,
    pow2,
)
from .steiner import BcForest, _nearest, run_greedy_st


def run_srob(m: MetricSpace, root: int, terminals, M) -> tuple:
    sol = MultiGraphSolution()
    trace = RunTrace()
    buys = [root]                 # Z, arrival order, root first
    rents = {}                    # class j -> [(request idx, point)]
    for idx, i in enumerate(terminals):
        z, a = _nearest(m, i, buys)
        if a == 0.0:
            if i != z:
                sol.buy(i, z)
            trace.add(RequestRecord(idx=idx, decision="auto", points=(i,), a=0.0, attach=z))
            continue
        j = floor_log2(a)
        radius = pow2(j - 1)
        witnesses = tuple(ridx for ridx, p in rents.get(j, ()) if m.dist(i, p) < radius)
        if len(witnesses) >= M:
            sol.buy(i, z)
            buys.append(i)
            decision, cost = "buy", M * a
        else:
            sol.rent(idx, i, z)
            rents.setdefault(j, []).append((idx, i))
            decision, cost = "rent", a
        trace.add(
            RequestRecord(
                idx=idx,
                decision=decision,
                points=(i,),
                a=a,
                klass=j,
                cost=cost,
                witnesses=witnesses,
                attach=z,
                edges=((i, z, None),) if decision == "buy" else (),
            )
        )
    return sol, trace


def run_mrob(m: MetricSpace, pairs, M) -> tuple:
    sol = MultiGraphSolution()
    trace = RunTrace()
    bc = BcForest(m, 1)
    rents = {}  # class j -> [(request idx, point)]
    for idx, (s, t) in enumerate(pairs):
        d = m.dist(s, t)
        if d == 0.0:
            trace.add(RequestRecord(idx=idx, decision="auto", points=(s, t), a=0.0))
            continue
        j = floor_log2(d)
        radius = pow2(j - 2)
        pool = rents.get(j, ())
        ws = tuple(ridx for ridx, p in pool if m.dist(s, p) < radius)
        wt = tuple(ridx for ridx, p in pool if m.dist(t, p) < radius)
        if len(ws) < M or len(wt) < M:
            endpoint = "s" if len(ws) < M else "t"
            rents.setdefault(j, []).append((idx, s if endpoint == "s" else t))
            sol.rent(idx, s, t)
            decision, cost, edges, feasible = "rent", d, (), True
        else:
            _, cost, edges = bc.buy_pair(sol, s, t, weight=M)
            decision, endpoint, feasible = "buy", None, bc.uf.connected(s, t)
        trace.add(
            RequestRecord(
                idx=idx,
                decision=decision,
                points=(s, t),
                a=d,
                klass=j,
                cost=cost,
                witnesses=ws,
                witnesses_t=wt,
                rent_endpoint=endpoint,
                edges=edges,
                feasible_now=feasible,
            )
        )
    trace.summary = {"forests": [bc.summary()]}
    return sol, trace


# ---------------------------------------------------------------------------
# Guarantee checks
# ---------------------------------------------------------------------------

def cost_share(trace: RunTrace) -> float:
    """Total rent-or-buy cost share: sum over classes of 2^(j+1) |R_j|."""
    total = 0.0
    for rec in trace.records:
        if rec.decision == "rent" and rec.klass is not None:
            total += pow2(rec.klass + 1)
    return total


def check_srob_witnesses(trace: RunTrace, m: MetricSpace, M: float):
    """SROB: class-j buy terminals are pairwise >= 2^j apart (greedy
    separation); their witness sets are disjoint size->=M subsets of R_j."""
    out, rent_class = [], _rent_classes(trace)
    for j, rows in _buy_rows(trace, (0,)):
        out += _witness_rows(rows, j, pow2(j), M, rent_class, m)
    return out


def check_mrob_witnesses(trace: RunTrace, m: MetricSpace, M: float):
    """MROB: per class j, the greedy maximal 2^(j-1)-separated subset Z'_j of
    the class-j buy endpoints (arrival order, s before t) must have disjoint
    witness sets, each a size->=M subset of R_j."""
    out, rent_class = [], _rent_classes(trace)
    for j, rows in _buy_rows(trace, (0, 1)):
        kept = []
        for row in rows:
            if all(m.dist(row[1], prev[1]) >= pow2(j - 1) for prev in kept):
                kept.append(row)
        out += _witness_rows(kept, j, None, M, rent_class, m)
    return out


def _buy_rows(trace: RunTrace, ends):
    """[(j, [(idx, point, witness set)])] over the buy records' endpoints `ends`."""
    groups = {}
    for rec in trace.records:
        if rec.decision == "buy":
            for e in ends:
                wit = (rec.witnesses, rec.witnesses_t)[e]
                groups.setdefault(rec.klass, []).append((rec.idx, rec.points[e], set(wit)))
    return sorted(groups.items())


def _rent_classes(trace: RunTrace) -> dict:
    return {rec.idx: rec.klass for rec in trace.records if rec.decision == "rent"}


def _witness_rows(rows, j, pairwise_bound, M, rent_class, m):
    out = []
    for idx, p, wit in rows:
        if len(wit) < M:
            out.append(f"class {j}: buy request {idx} has |W|={len(wit)} < M={M}")
        for w in wit:
            if rent_class.get(w) != j:
                out.append(f"class {j}: witness {w} of request {idx} is not a class-{j} rent")
    for i, (idx_a, pa, wa) in enumerate(rows):
        for idx_b, pb, wb in rows[i + 1:]:
            if pairwise_bound is not None and m.dist(pa, pb) < pairwise_bound:
                out.append(f"class {j}: buys {idx_a},{idx_b} at distance {m.dist(pa, pb):g} < {pairwise_bound:g}")
            shared = wa & wb
            if shared:
                out.append(f"class {j}: buys {idx_a},{idx_b} share witnesses {sorted(shared)}")
    return out


def check_cut_capacity(trace: RunTrace, t: Hst, M: float, shift: int, pairs, root=None, point_rep=None,
                       weights=None):
    """Per-level rent caps on an extended tree's cuts.

    Reads the classified rent records' rent points (points[1] if rent_endpoint
    is "t", else points[0]).  A level-j cut C holding `root` must hold no
    class-(j + shift) rent (shift 1 for SROB, 2 for CFL and MROB); any other
    at most ceil(M) occurrences, and at most w(C) of them, the requests whose
    leaves C holds (`weights` maps terminal point -> request multiplicity,
    default 1 each) or, given leaf `pairs`, at most the |D(C)| pairs it
    separates.  Cuts at level 0 (terminal singletons) participate.
    """
    rep = point_rep or (lambda p: p)
    cap_m = math.ceil(M)
    per_leaf = [(weights or {}).get(p, 1) for p in t.terminals]
    rents = {}
    for rec in trace.records:
        if rec.decision == "rent" and rec.klass is not None:
            p = rec.points[1] if rec.rent_endpoint == "t" else rec.points[0]
            rents.setdefault(rec.klass, []).append((rec.idx, rep(p)))
    out = []
    root_ids = t.cut_ids_at([rep(root) if root is not None else None])[:, 0]
    if pairs is not None:
        ends = t.cut_ids_at([p for pair in pairs for p in pair])
    for row, j in enumerate(check_levels(t)):
        rows = rents.get(j + shift)
        if not rows:
            continue
        by_cut = {}
        for rent, cut in zip(rows, t.cut_ids_at([p for _, p in rows])[row].tolist()):
            if cut >= 0:
                by_cut.setdefault(cut, []).append(rent)
        load = np.bincount(t.cut_ids[row], weights=per_leaf).tolist()  # w(C)
        if pairs is not None:  # |D(C)|: the pairs with exactly one end in C
            a, b = ends[row, 0::2], ends[row, 1::2]
            crossing = np.concatenate([a[a != b], b[a != b]])
            crossing = np.bincount(crossing[crossing >= 0], minlength=len(load)).tolist()
        for cut, inside in sorted(by_cut.items()):
            if cut == root_ids[row]:
                out.append(
                    f"level {j}: cut with root holds class-{j + shift} rents {sorted(r for r, _ in inside)}"
                )
                continue
            if len(inside) > cap_m:
                out.append(f"level {j}: {len(inside)} class-{j + shift} rent occurrences > ceil(M)={cap_m}")
            if pairs is None:
                if len(inside) > load[cut]:
                    out.append(f"level {j}: {len(inside)} class-{j + shift} rent occurrences > w(C)={load[cut]:g}")
            elif len(inside) > crossing[cut]:
                out.append(f"level {j}: {len(inside)} rents > |D(C)|={crossing[cut]}")
    return out


def check_greedy_replay(trace: RunTrace, m: MetricSpace, sol: MultiGraphSolution, root: int):
    """H must equal the greedy Steiner tree from `root` replayed on the buy subsequence.

    Zero-length edges (coincident auto-connects) are excluded on both sides;
    they carry no cost and their attachment point is representation detail.
    """
    buy_points = [rec.points[0] for rec in trace.records if rec.decision == "buy"]
    replay_sol, _ = run_greedy_st(m, root, buy_points)

    def positive(bought):
        return {e: c for e, c in bought.items() if m.dist(*e) > 0}

    if positive(replay_sol.bought) != positive(sol.bought):
        return [
            f"bought subgraph {sorted(positive(sol.bought))} != greedy replay "
            f"{sorted(positive(replay_sol.bought))}"
        ]
    return []
