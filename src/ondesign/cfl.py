"""Online connected facility location with a virtual facility-location layer.

A deterministic primal-dual potential rule plays the online facility location
black box: every arriving client gets budget b_i = d(i, open virtual
facilities); a closed facility x opens once the accumulated surplus
sum_v max(0, b_v - d(v, x)) covers f_x, consuming the used budgets
(b_v := min(b_v, d(v, x))).  Clients virtually assign to the nearest open
virtual facility.  `OflState(m, seq)` reads the facilities and root of the
validated instance, and `run_cfl` drives it: `arrive` serves one client and
returns the entry of `seq.facilities` it virtually assigns to.

The state keeps each client's distance row to the facilities and every
facility's surplus, the cumulative sum of max(0, b_v - d(v, x)) down its
column of the clients x facilities matrix: that adds the clients in arrival
order, as the scalar sum does, so a surplus that equals f_x exactly rounds
the same way (a pairwise sum could differ in the last bit and flip the tie).
An arrival leaves every earlier budget as it was, so adding the new client's
term to the running surplus is the cumsum's own next step, bit for bit.  An
opening cuts the budgets, b_v := min(b_v, d(v, x)) in one np.minimum, which
changes earlier terms, so only then is the full cumsum recomputed.  The first
closed facility in `seq.facilities` order whose surplus covers its cost opens.

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

import numpy as np

from .metric import (
    POINT,
    MetricSpace,
    MultiGraphSolution,
    RequestRecord,
    RequestSequence,
    RunTrace,
    exceeds,
    floor_log2,
    grown,
    pow2,
    same_cost,
)
from .rentorbuy import cost_share
from .steiner import Pool, same_class_closer


def _nearest_in(mask, row) -> int:
    """The index of the `mask` entry nearest in `row`; ties to the first."""
    return int(np.where(mask, row, np.inf).argmin())


class OflState:
    """Potential-based online facility location over `seq.facilities`;
    facilities open monotonically."""

    def __init__(self, m: MetricSpace, seq: RequestSequence):
        self.m = m
        # per entry of seq.facilities: its point, its cost, whether it is
        # open and its surplus over the clients so far
        self.points = np.array([p for p, _ in seq.facilities], dtype=np.intp)
        self.costs = np.array([c for _, c in seq.facilities], dtype=float)
        self.opened = self.points == seq.root
        self.surplus = np.zeros(len(self.points))
        self.open_order = [seq.root]
        # per client in arrival order, grown by doubling: its distance to
        # every entry, and its budget
        self.n_clients = 0
        self.rows = np.empty((16, len(self.points)))
        self._budget = np.empty(16)

    @property
    def budgets(self) -> np.ndarray:
        return self._budget[:self.n_clients]

    def arrive(self, i: int) -> int:
        """Serve client i; return the entry of its virtual facility."""
        k = self.n_clients
        self.rows, self._budget = grown(self.rows, k + 1), grown(self._budget, k + 1)
        row = self.rows[k] = self.m.d[i, self.points]
        self._budget[k] = row[_nearest_in(self.opened, row)]
        self.n_clients = k + 1
        self.surplus += np.maximum(0.0, self._budget[k] - row)
        rows, budget = self.rows[:k + 1], self._budget[:k + 1]
        while not self.opened.all():
            hits = np.flatnonzero((self.surplus >= self.costs) & ~self.opened)
            if not hits.size:
                break
            self.opened[hits[0]] = True
            self.open_order.append(int(self.points[hits[0]]))
            np.minimum(budget, rows[:, hits[0]], out=budget)
            self.surplus = np.cumsum(np.maximum(0.0, budget[:, None] - rows), axis=0)[-1]
        return _nearest_in(self.opened, row)


def run_cfl(m: MetricSpace, seq: RequestSequence) -> tuple:
    sol = MultiGraphSolution()
    trace = RunTrace()
    ofl = OflState(m, seq)
    built = ofl.points == seq.root  # F' over the entries of ofl.points
    sol.opened.add(seq.root)
    rents = {}  # class j -> Pool of its rent clients
    for idx, i in enumerate(seq.requests):
        e = ofl.arrive(i)
        row = ofl.rows[idx]  # d(i, .) over the entries of ofl.points
        near = _nearest_in(built, row)
        sigma_hat, x, a = int(ofl.points[e]), int(ofl.points[near]), float(row[near])
        d_hat = float(row[e])
        witnesses, opened = (), None
        if a <= 4 * d_hat:
            j = floor_log2(a) if a > 0 else None
            decision, cost = "virtual", a
        else:
            j = floor_log2(a)
            pool = rents.get(j)
            witnesses = pool.witnesses(m, i, pow2(j - 2)) if pool else ()
            if len(witnesses) >= seq.M:
                decision, cost = "buy", d_hat
                if not built[e]:
                    sol.opened.add(sigma_hat)
                    built[e] = True
                    sol.buy(sigma_hat, x)
                    opened = sigma_hat
                    cost += float(ofl.costs[e]) + seq.M * m.dist(sigma_hat, x)
            else:
                decision, cost = "rent", a
                rents.setdefault(j, pool or Pool()).add(idx, i)
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
    """The per-run facts of the buy/rent layer.

    (1) class-j buy clients pairwise >= 2^(j-1) apart; (2) c(H) <= sum 2 a_z;
    (3) sum M a_z <= sum_j 2^(j+1) |R_j|; (4) F' subset of F_hat; (5) every buy
    client z has d(z, sigma_hat(z)) < a_z / 4; (6) F_hat is a subset of the
    instance's facilities F; (7) every sigma_hat is in F_hat; (8) every x is
    in F' at its client's arrival: the root or a point an earlier buy opened;
    (9) a virtual or rent record's cost is its a_i = d(i, x), so no record
    can claim a cost that the budgets above then credit.
    """
    buys = [r for r in trace.records if r.decision == "buy"]
    out = [
        f"class {j}: buy clients {ra.idx},{rb.idx} at {d:g} < 2^{j - 1}"
        for j, ra, rb, d in same_class_closer(buys, m, seq, -1)
    ]
    a_z = [m.dist(seq.pairs[rec.idx][0], rec.attach) for rec in buys]
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
        d_hat = m.dist(seq.pairs[rec.idx][0], rec.sigma_hat)
        if not d_hat < a / 4:
            out.append(f"buy client {rec.idx}: d(z, sigma_hat)={d_hat:g} >= a/4={a / 4:g}")
    foreign = f_hat - {p for p, _ in seq.facilities}
    if foreign:
        out.append(f"F_hat points {sorted(foreign)} are not facilities")
    built = {seq.root}  # F' as the records replay it
    for rec in trace.records:
        if rec.sigma_hat not in f_hat:
            out.append(f"client {rec.idx}: sigma_hat {rec.sigma_hat} outside F_hat")
        if rec.attach not in built:
            out.append(f"client {rec.idx}: attach {rec.attach} not in F' at its arrival")
        if rec.decision in ("virtual", "rent") and rec.attach is not None:
            a = m.dist(seq.pairs[rec.idx][0], rec.attach)
            if not same_cost(rec.cost, a):
                out.append(f"client {rec.idx}: {rec.decision} cost {rec.cost:g} != d(i, attach)={a:g}")
        if rec.decision == "buy" and rec.opened is not None:
            built.add(rec.opened)
    return out


def check_cfl_cost_split(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """Opening + virtual/buy assignment cost is covered by the virtual solution,
    at the instance's facility costs (the root's is 0)."""
    costs = dict(seq.facilities)
    buys = [rec for rec in trace.records if rec.decision == "buy"]
    lhs = sum(costs.get(x, 0.0) for x in {rec.opened for rec in buys if rec.opened is not None})
    lhs += sum(rec.cost for rec in trace.records if rec.decision == "virtual")
    lhs += sum(m.dist(seq.pairs[rec.idx][0], rec.sigma_hat) for rec in buys)
    rhs = sum(costs.get(x, 0.0) for x in trace.summary.get("f_hat", ()))
    rhs += 4 * sum(
        m.dist(seq.pairs[rec.idx][0], rec.sigma_hat) for rec in trace.records if rec.sigma_hat is not None
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
