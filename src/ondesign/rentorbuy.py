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

from .hst import Forest, class_cuts
from .metric import (
    MetricSpace,
    MultiGraphSolution,
    RequestRecord,
    RequestSequence,
    RunTrace,
    exceeds,
    floor_log2,
    pow2,
)
from .steiner import BcForest, NearestSet, Pool, run_greedy_st


def run_srob(m: MetricSpace, seq: RequestSequence) -> tuple:
    sol = MultiGraphSolution()
    trace = RunTrace()
    buys = NearestSet(m, seq.root)  # Z, root first
    rents = {}                      # class j -> Pool of its rent terminals
    for idx, i in enumerate(seq.requests):
        z, a = buys.nearest(i)
        if a == 0.0:
            if i != z:
                sol.buy(i, z)
            trace.add(RequestRecord(idx=idx, decision="auto", attach=z))
            continue
        j = floor_log2(a)
        pool = rents.get(j)
        witnesses = pool.witnesses(m, i, pow2(j - 1)) if pool else ()
        if len(witnesses) >= seq.M:
            sol.buy(i, z)
            buys.add(i)
            decision, cost = "buy", seq.M * a
        else:
            sol.rent(idx, i, z)
            rents.setdefault(j, pool or Pool()).add(idx, i)
            decision, cost = "rent", a
        trace.add(RequestRecord(idx=idx, decision=decision, klass=j, cost=cost, witnesses=witnesses, attach=z))
    return sol, trace


def run_mrob(m: MetricSpace, seq: RequestSequence) -> tuple:
    sol = MultiGraphSolution()
    trace = RunTrace()
    bc = BcForest(m, 1)
    rents = {}  # class j -> Pool of its rent endpoints
    for idx, (s, t) in enumerate(seq.requests):
        d = m.dist(s, t)
        if d == 0.0:
            trace.add(RequestRecord(idx=idx, decision="auto"))
            continue
        j = floor_log2(d)
        radius = pow2(j - 2)
        pool = rents.get(j)
        ws, wt = (pool.witnesses(m, s, radius), pool.witnesses(m, t, radius)) if pool else ((), ())
        if len(ws) < seq.M or len(wt) < seq.M:
            endpoint = "s" if len(ws) < seq.M else "t"
            rents.setdefault(j, pool or Pool()).add(idx, s if endpoint == "s" else t)
            sol.rent(idx, s, t)
            decision, cost, feasible = "rent", d, True
        else:
            _, cost = bc.buy_pair(sol, s, t, weight=seq.M)
            decision, endpoint, feasible = "buy", None, bc.connected(s, t)
        trace.add(
            RequestRecord(
                idx=idx,
                decision=decision,
                klass=j,
                cost=cost,
                witnesses=ws,
                witnesses_t=wt,
                rent_endpoint=endpoint,
                feasible_now=feasible,
            )
        )
    trace.summary = {"forests": [bc.summary()]}
    return sol, trace


# ---------------------------------------------------------------------------
# Guarantee checks: check(m, seq, trace) -> violations, M, root and request
# endpoints read from seq; check_greedy_replay also reads the run's solution
# ---------------------------------------------------------------------------

def cost_share(trace: RunTrace) -> float:
    """Total rent-or-buy cost share: sum over classes of 2^(j+1) |R_j|."""
    total = 0.0
    for rec in trace.records:
        if rec.decision == "rent" and rec.klass is not None:
            total += pow2(rec.klass + 1)
    return total


def check_cost_vs_share(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """SROB and MROB: the run's cost is at most twice the rent share."""
    lhs, share = trace.total_cost(), cost_share(trace)
    return [f"cost {lhs:g} > 2 * share {share:g}"] if exceeds(lhs, 2 * share) else []


def check_srob_witnesses(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """SROB: the class-j buy terminals' witness sets are disjoint size->=M
    subsets of R_j.  (Their pairwise 2^j separation is check_class_separation.)"""
    out, rent_class = [], _rent_classes(trace)
    for j, rows in _buy_rows(seq, trace, (0,)):
        out += _witness_rows(rows, j, seq.M, rent_class)
    return out


def check_mrob_witnesses(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """MROB: per class j, the greedy maximal 2^(j-1)-separated subset Z'_j of
    the class-j buy endpoints (arrival order, s before t) must have disjoint
    witness sets, each a size->=M subset of R_j.  A buy record without a
    class, which only a forged trace holds, raises ValueError."""
    unclassed = [rec.idx for rec in trace.records if rec.decision == "buy" and rec.klass is None]
    if unclassed:
        raise ValueError(f"buy request {unclassed[0]} has klass None")
    out, rent_class = [], _rent_classes(trace)
    for j, rows in _buy_rows(seq, trace, (0, 1)):
        kept = []
        for row in rows:
            if all(m.dist(row[1], prev[1]) >= pow2(j - 1) for prev in kept):
                kept.append(row)
        out += _witness_rows(kept, j, seq.M, rent_class)
    return out


def _buy_rows(seq: RequestSequence, trace: RunTrace, ends):
    """[(j, [(idx, point, witness set)])] over the buy records' request endpoints `ends`."""
    groups = {}
    for rec in trace.records:
        if rec.decision == "buy":
            for e in ends:
                wit = (rec.witnesses, rec.witnesses_t)[e]
                groups.setdefault(rec.klass, []).append((rec.idx, seq.pairs[rec.idx][e], set(wit)))
    return sorted(groups.items())


def _rent_classes(trace: RunTrace) -> dict:
    return {rec.idx: rec.klass for rec in trace.records if rec.decision == "rent"}


def _witness_rows(rows, j, M, rent_class):
    out = []
    for idx, _, wit in rows:
        if len(wit) < M:
            out.append(f"class {j}: buy request {idx} has |W|={len(wit)} < M={M}")
        for w in wit:
            if rent_class.get(w) != j:
                out.append(f"class {j}: witness {w} of request {idx} is not a class-{j} rent")
    for i, (idx_a, _, wa) in enumerate(rows):
        for idx_b, _, wb in rows[i + 1:]:
            shared = wa & wb
            if shared:
                out.append(f"class {j}: buys {idx_a},{idx_b} share witnesses {sorted(shared)}")
    return out


def check_cut_capacity(seq: RequestSequence, trace: RunTrace, f: Forest, shift: int, load):
    """Per-level rent caps on the cuts of every extended tree of f; per tree,
    its violations.

    Reads the classified rent records' rent points: the request's last point
    (a pair's t end) if rent_endpoint is "t", else its first.  A level-j cut
    C holding the root must hold no class-(j + shift) rent (shift 1 for SROB,
    2 for CFL and MROB); any other at most ceil(M) occurrences, and at most
    as many as the request pairs (seq.pairs) it separates: |D(C)| for pair
    requests, and for one-point requests, whose partner is the root, w(C),
    the requests whose points C holds.  `load` is cut_load(f, seq.pairs),
    which the tree optimum reads too.  Cuts at level 0 (terminal singletons)
    participate.  Every tree's cuts are grouped and counted at once, and
    messages are built for the violating cuts only.
    """
    cap_m = math.ceil(seq.M)
    rents = {}
    for rec in trace.records:
        if rec.decision == "rent" and rec.klass is not None:
            ends = seq.pairs[rec.idx][:1 if seq.root is not None else 2]  # a rooted request's own point
            rents.setdefault(rec.klass, []).append((ends[-1] if rec.rent_endpoint == "t" else ends[0], rec.idx))
    cuts = class_cuts(f, rents, shift, seq.root)
    count, size = cuts.total(), load[cuts.cut]
    out = [[] for _ in range(f.n_trees)]
    for i in np.flatnonzero(cuts.holds_root | (count > cap_m) | (count > size)).tolist():
        msgs, j, n, w = out[cuts.tree[i]], int(cuts.level[i]), int(count[i]), int(size[i])
        if cuts.holds_root[i]:
            idx = sorted(cuts.entries[e][1] for e in cuts.entry[cuts.group == i].tolist())
            msgs.append(f"level {j}: cut with root holds class-{j + shift} rents {idx}")
            continue
        if n > cap_m:
            msgs.append(f"level {j}: {n} class-{j + shift} rent occurrences > ceil(M)={cap_m}")
        if n > w:
            msgs.append(f"level {j}: {n} class-{j + shift} rent occurrences > w(C)={w:g}"
                        if seq.root is not None else f"level {j}: {n} rents > |D(C)|={w}")
    return out


def check_greedy_replay(m: MetricSpace, seq: RequestSequence, sol: MultiGraphSolution, trace: RunTrace):
    """H must equal the greedy Steiner tree from the root replayed on the buy subsequence.

    Zero-length edges (coincident auto-connects) are excluded on both sides;
    they carry no cost and their attachment point is representation detail.
    """
    buy_points = [seq.pairs[rec.idx][0] for rec in trace.records if rec.decision == "buy"]
    replay_sol, _ = run_greedy_st(m, RequestSequence("SteinerTree", tuple(buy_points), root=seq.root))

    def positive(bought):
        return {e: c for e, c in bought.items() if m.dist(*e) > 0}

    if positive(replay_sol.bought) != positive(sol.bought):
        return [
            f"bought subgraph {sorted(positive(sol.bought))} != greedy replay "
            f"{sorted(positive(replay_sol.bought))}"
        ]
    return []
