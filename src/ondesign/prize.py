"""Online prize-collecting Steiner tree with cost-share bookkeeping.

Each arriving terminal i gets a_i = distance to the nearest buy terminal
(Z starts at the root), class j = floor(log2 a_i), and joins X_j.  Its cost
share rises until the class-j shares within radius 2^(j-1) of i (i included)
reach 2^(j+1), or until it hits pi_i; the closed form is
rho_i = min(pi_i, max(0, 2^(j+1) - sum of nearby shares)).  Reaching the
threshold buys (i, z); falling short pays the penalty.  The bought subgraph is
the greedy Steiner tree over the buy subsequence.
"""

from __future__ import annotations

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
from .steiner import NearestSet, Pool, check_class_separation


def run_pcst(m: MetricSpace, seq: RequestSequence) -> tuple:
    """`seq.requests` is a sequence of (terminal point, penalty >= 0)."""
    sol = MultiGraphSolution()
    trace = RunTrace()
    buys = NearestSet(m, seq.root)
    classes = {}  # class j -> (Pool of its terminals, [rho])
    for idx, (i, pi) in enumerate(seq.requests):
        z, a = buys.nearest(i)
        if a == 0.0:
            if i != z:
                sol.buy(i, z)
            trace.add(RequestRecord(idx=idx, decision="auto", attach=z, rho=0.0))
            continue
        j = floor_log2(a)
        pool, rhos = classes.get(j) or classes.setdefault(j, (Pool(), []))
        near = pool.within(m, i, pow2(j - 1))
        have = sum(rhos[k] for k in near)
        deficit = pow2(j + 1) - have
        buying = deficit <= 0 or pi >= deficit
        rho = 0.0 if deficit <= 0 else min(pi, deficit)
        witnesses = tuple(pool.idx[k] for k in near) + (idx,)
        pool.add(idx, i)
        rhos.append(rho)
        if buying:
            sol.buy(i, z)
            buys.add(i)
            decision, cost = "buy", a
        else:
            sol.penalties_paid.add(idx)
            decision, cost = "penalty", pi
        trace.add(
            RequestRecord(idx=idx, decision=decision, klass=j, cost=cost, witnesses=witnesses, attach=z, rho=rho)
        )
    return sol, trace


def total_share(trace: RunTrace) -> float:
    return sum(rec.rho or 0.0 for rec in trace.records)


def positive_share_rows(seq: RequestSequence, trace: RunTrace) -> dict:
    """Class c -> [(point, rho, pi)] over terminals with rho > 0, the point and
    pi those of the record's request in the instance."""
    rows = {}
    for rec in trace.records:
        if rec.klass is not None and (rec.rho or 0.0) > 0:
            rows.setdefault(rec.klass, []).append((seq.pairs[rec.idx][0], rec.rho, seq.requests[rec.idx][1]))
    return rows


def check_pcst_run_invariants(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """Per-run violations: total cost > 2 * sum(rho); rho > pi; same-class buys
    closer than 2^j."""
    out = []
    shares = total_share(trace)
    total = trace.total_cost()
    if exceeds(total, 2 * shares):
        out.append(f"total cost {total:g} > 2 * sum(rho) = {2 * shares:g}")
    for rec in trace.records:
        pi = seq.requests[rec.idx][1]
        if rec.rho is not None and rec.rho > pi:
            out.append(f"request {rec.idx}: rho {rec.rho:g} > pi {pi:g}")
    return out + check_class_separation(m, seq, trace)


def check_pcst_invariants(f: Forest, rows: dict, root):
    """Cut shares on every extended tree of f: (violations, flags) per tree,
    and the grouping that pcst_cut_lower_bound reads.

    `rows` is positive_share_rows(seq, trace), grouped once for both cut
    checks as hst.class_cuts(f, rows, 1, root): class-(j+1) shares by level-j
    cut.  Violations: a level-j cut whose share sum exceeds 2^(j+2) or is
    nonzero in the cut holding the root.  Flags (non-fatal): cut sums in
    (2^(j+1), 2^(j+2)], recorded for inspection.  Sums are added in entry
    order, and messages are built for the cuts above 2^(j+1) only.
    """
    cuts = class_cuts(f, rows, 1, root)
    share = cuts.total([rho for _, rho, _ in cuts.entries])
    out, flags = [[] for _ in range(f.n_trees)], [[] for _ in range(f.n_trees)]
    for i in np.flatnonzero(cuts.holds_root | ~(share <= np.ldexp(1.0, cuts.level + 1))).tolist():
        j, s, g = int(cuts.level[i]), float(share[i]), cuts.tree[i]
        if cuts.holds_root[i]:
            out[g].append(f"level {j}: root cut carries class-{j + 1} share {s:g}")
        elif exceeds(s, pow2(j + 2), atol=0.0):
            out[g].append(f"level {j}: cut share sum {s:g} > 2^{j + 2}")
        elif exceeds(s, pow2(j + 1), atol=0.0):
            flags[g].append(f"level {j}: cut share sum {s:g} in (2^{j + 1}, 2^{j + 2}]")
    return out, flags, cuts
