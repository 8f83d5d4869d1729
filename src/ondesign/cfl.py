"""Online connected facility location with a virtual facility-location layer.

A deterministic primal-dual potential rule plays the online facility location
black box: every arriving client gets budget b_i = d(i, open virtual
facilities); a closed facility x opens once the accumulated surplus
sum_v max(0, b_v - d(v, x)) covers f_x, consuming the used budgets
(b_v := min(b_v, d(v, x))).  Clients virtually assign to the nearest open
virtual facility.  `run_cfl` drives an `OflState` directly; `run_ofl` runs
the same state on its own, so the layer can be tested alone.

The state keeps each client's distance row to the facilities.  All closed
facilities' surpluses come from one clients x facilities matrix
max(0, b_v - d(v, x)), summed down each column with a cumulative sum: that
adds the clients in arrival order, as the scalar sum does, so a surplus that
equals f_x exactly rounds the same way (a pairwise sum could differ in the
last bit and flip the tie).  The first closed facility in `facilities` order
whose surplus covers its cost opens, and one np.minimum cuts every budget.

The connected layer only ever opens a facility the virtual layer has already
opened.  With x the nearest open facility and a_i = d(i, x): a client is
virtual when a_i <= 4 d(i, sigma_hat(i)) (assign to x, charge the virtual
solution later); otherwise it buys when M same-class rent clients sit within
2^(j-2) (open sigma_hat(i), buy the edge to x) and rents otherwise.  The
connected layer's open set F' is a mask over the virtual layer's facility
entries, and x is read from the distance row the virtual layer stored.

A record's `cost` is what its client paid: a_i when virtual or renting;
d(i, sigma_hat) when buying, plus f(sigma_hat) + M d(sigma_hat, x) when it
opens sigma_hat.  A client's actual assignment is sigma_hat when it buys and
x (`attach`) otherwise.  The checks read each client's trace record
(decision, class, witnesses, x, sigma_hat, the facility it opened) and the
summary's F_hat (`f_hat`, opened virtual facilities in order); the client's
point, root, M and facility costs come from the RequestSequence.  A buy's
a_z is d(z, x), and the edge it bought is (opened, x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .metric import (
    POINT,
    MetricSpace,
    MultiGraphSolution,
    RequestRecord,
    RequestSequence,
    RunTrace,
    exceeds,
    floor_log2,
    pow2,
)
from .rentorbuy import cost_share
from .steiner import same_class_closer


def _nearest_in(mask, row) -> int:
    """The index of the `mask` entry nearest in `row`; ties to the first."""
    return int(np.where(mask, row, np.inf).argmin())


class OflState:
    """Potential-based online facility location; facilities open monotonically."""

    def __init__(self, m: MetricSpace, facilities, root: int):
        costs = dict(facilities)
        if not facilities:
            raise SchemaError("need at least one facility")
        if root not in costs or costs[root] != 0:
            raise SchemaError("root facility must be present with cost 0")
        self.m = m
        self.points = [p for p, _ in facilities]
        self.costs = costs
        self.open_order = [root]
        self.clients = []   # client points in arrival order
        self.assign = []    # virtual assignment per client
        # per entry of `points`: its point, its cost and whether it is open
        self._fac = np.array(self.points, dtype=np.intp)
        self._cost = np.array([costs[p] for p in self.points], dtype=float)
        self._open = self._fac == root
        # per client in arrival order, grown by doubling: its distance to
        # every entry of `points`, and its budget
        self._rows = np.empty((16, len(self.points)))
        self._budget = np.empty(16)

    @property
    def budgets(self) -> np.ndarray:
        return self._budget[:len(self.clients)]

    def arrive(self, i: int) -> int:
        k = len(self.clients)
        if k == len(self._budget):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            self._budget = np.concatenate([self._budget, np.empty_like(self._budget)])
        row = self._rows[k] = self.m.d[i, self._fac]
        self._budget[k] = row[_nearest_in(self._open, row)]
        self.clients.append(i)
        rows, budget = self._rows[:k + 1], self._budget[:k + 1]
        while not self._open.all():
            # cumsum adds in client order, as a Python sum would; a pairwise
            # .sum() may round differently and flip a surplus == cost tie
            surplus = np.cumsum(np.maximum(0.0, budget[:, None] - rows), axis=0)[-1]
            hits = np.flatnonzero((surplus >= self._cost) & ~self._open)
            if not hits.size:
                break
            opened = self.points[hits[0]]
            self._open |= self._fac == opened
            self.open_order.append(opened)
            np.minimum(budget, rows[:, hits[0]], out=budget)
        sigma = self.points[_nearest_in(self._open, row)]
        self.assign.append(sigma)
        return sigma

    def cost(self) -> float:
        opening = sum(self.costs[x] for x in self.open_order)
        service = sum(self.m.dist(v, s) for v, s in zip(self.clients, self.assign))
        return opening + service


@dataclass
class VirtualSolution:
    opened: tuple
    assignments: tuple
    cost: float


def run_ofl(m: MetricSpace, facilities, clients, root: int) -> VirtualSolution:
    state = OflState(m, facilities, root)
    for i in clients:
        state.arrive(i)
    return VirtualSolution(
        opened=tuple(state.open_order),
        assignments=tuple(state.assign),
        cost=state.cost(),
    )


def run_cfl(m: MetricSpace, seq: RequestSequence) -> tuple:
    sol = MultiGraphSolution()
    trace = RunTrace()
    ofl = OflState(m, seq.facilities, seq.root)
    built = ofl._fac == seq.root  # F' over the entries of ofl.points
    sol.opened.add(seq.root)
    rents = {}  # class j -> [(request idx, point)]
    for idx, i in enumerate(seq.requests):
        sigma_hat = ofl.arrive(i)
        row = ofl._rows[idx]  # d(i, .) over the entries of ofl.points
        near = _nearest_in(built, row)
        x, a = ofl.points[near], float(row[near])
        d_hat = m.dist(i, sigma_hat)
        witnesses, opened = (), None
        if a <= 4 * d_hat:
            j = floor_log2(a) if a > 0 else None
            decision, cost = "virtual", a
        else:
            j = floor_log2(a)
            radius = pow2(j - 2)
            witnesses = tuple(
                ridx for ridx, p in rents.get(j, ()) if m.dist(i, p) < radius
            )
            if len(witnesses) >= seq.M:
                decision, cost = "buy", d_hat
                if sigma_hat not in sol.opened:
                    sol.opened.add(sigma_hat)
                    built |= ofl._fac == sigma_hat
                    sol.buy(sigma_hat, x)
                    opened = sigma_hat
                    cost += ofl.costs[sigma_hat] + seq.M * m.dist(sigma_hat, x)
            else:
                decision, cost = "rent", a
                rents.setdefault(j, []).append((idx, i))
        sol.assignments[idx] = sigma_hat if decision == "buy" else x
        trace.add(
            RequestRecord(
                idx=idx,
                decision=decision,
                klass=j,
                cost=cost,
                witnesses=witnesses,
                attach=x,
                sigma_hat=sigma_hat,
                opened=opened,
            )
        )
    trace.summary = {"f_hat": list(ofl.open_order)}
    return sol, trace


# The shape (see metric._fits) of run_cfl's trace summary.
CFL_SUMMARY_SHAPE = {"f_hat": [POINT]}


# ---------------------------------------------------------------------------
# Guarantee checks: check(m, seq, trace) -> violations
# ---------------------------------------------------------------------------

def check_cfl_invariants(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """The five per-run facts of the buy/rent layer.

    (1) class-j buy clients pairwise >= 2^(j-1) apart; (2) c(H) <= sum 2 a_z;
    (3) sum M a_z <= sum_j 2^(j+1) |R_j|; (4) F' subset of F_hat; (5) every buy
    client z has d(z, sigma_hat(z)) < a_z / 4.
    """
    buys = [r for r in trace.records if r.decision == "buy"]
    out = [
        f"class {j}: buy clients {ra.idx},{rb.idx} at {d:g} < 2^{j - 1}"
        for j, ra, rb, d in same_class_closer(buys, m, seq, -1)
    ]
    a_z = [m.dist(seq.requests[rec.idx], rec.attach) for rec in buys]
    c_h = _bought_length(trace, m)
    budget = sum(2 * a for a in a_z)
    if exceeds(c_h, budget):
        out.append(f"c(H)={c_h:g} > sum 2 a_z = {budget:g}")
    share = cost_share(trace)
    buy_mass = sum(seq.M * a for a in a_z)
    if exceeds(buy_mass, share):
        out.append(f"sum M a_z = {buy_mass:g} > share {share:g}")
    f_hat = set(trace.summary.get("f_hat", ()))
    opened = {seq.root} | {rec.opened for rec in buys if rec.opened is not None}
    if not opened <= f_hat:
        out.append(f"opened facilities {sorted(opened - f_hat)} outside F_hat")
    for rec, a in zip(buys, a_z):
        d_hat = m.dist(seq.requests[rec.idx], rec.sigma_hat)
        if not d_hat < a / 4:
            out.append(f"buy client {rec.idx}: d(z, sigma_hat)={d_hat:g} >= a/4={a / 4:g}")
    return out


def check_cfl_cost_split(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """Opening + virtual/buy assignment cost is covered by the virtual solution,
    at the instance's facility costs (the root's is 0)."""
    costs = dict(seq.facilities)
    buys = [rec for rec in trace.records if rec.decision == "buy"]
    lhs = sum(costs.get(x, 0.0) for x in {rec.opened for rec in buys if rec.opened is not None})
    lhs += sum(rec.cost for rec in trace.records if rec.decision == "virtual")
    lhs += sum(m.dist(seq.requests[rec.idx], rec.sigma_hat) for rec in buys)
    rhs = sum(costs.get(x, 0.0) for x in trace.summary.get("f_hat", ()))
    rhs += 4 * sum(
        m.dist(seq.requests[rec.idx], rec.sigma_hat) for rec in trace.records if rec.sigma_hat is not None
    )
    if exceeds(lhs, rhs):
        return [f"cost split: {lhs:g} > virtual budget {rhs:g}"]
    return []


def cfl_buy_rent_cost(m: MetricSpace, seq: RequestSequence, trace: RunTrace) -> float:
    """M c(H) + rent assignment costs: the part charged to the tree optimum."""
    rents = sum(rec.cost for rec in trace.records if rec.decision == "rent")
    return seq.M * _bought_length(trace, m) + rents


def check_buyrent_vs_share(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """M c(H) + rents is at most three times the rent share."""
    lhs, share = cfl_buy_rent_cost(m, seq, trace), cost_share(trace)
    return [f"M c(H) + rents = {lhs:g} > 3 * share {share:g}"] if exceeds(lhs, 3 * share) else []


def _bought_length(trace: RunTrace, m: MetricSpace) -> float:
    """c(H): the length of the edges (opened, x) the buy clients bought."""
    return sum(
        m.dist(rec.opened, rec.attach) for rec in trace.records if rec.decision == "buy" and rec.opened is not None
    )
