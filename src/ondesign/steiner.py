"""Online Steiner tree (greedy), Steiner forest (Berman-Coulston), and the
Steiner network wrapper that runs one forest instance per requirement scale.

The forest algorithm classifies both endpoints of an arriving pair at
floor(log2 d(s,t)) and then walks levels j = 0..class, connecting the pair's
endpoints to every previously classified terminal of class >= j within
distance < 2^(j+1).  "Connecting" adds the edge only when the endpoints are in
different components of H; the level loop still continues after the pair
itself is connected, so later levels may merge further components.  Candidate
terminals are scanned in arrival order, s_i's sweep before t_i's.

A pair with coincident endpoints is vacuous: it gets no class and adds nothing.
Zero-length edges (distinct indices, same position) are bought only when they
change connectivity and stay out of the per-level edge sets A_j.  They come
first, in a level -1 sweep (s's, then t's); otherwise s's level-0 sweep could
buy an edge to t that t's zero-length merge with a connected point makes
redundant, closing a cycle over positions in A_0.

The scan is array-native.  A pair reads one distance row per endpoint over
the classified endpoints, and one mask picks each endpoint's candidates: the
entries in another component that some level reaches (class c, d < 2^(c+1)).
A candidate is within reach from level -1 if d = 0, else from level
max(0, floor(log2 d)), up to c; at its first such level x's sweep joins it,
so later levels would only retry a union that fails.  One np.frexp gives
every candidate's first level; the sweep stops at the pair's class, so a
candidate whose first level lies above it is dropped.  The rest are sorted by
(first level, s's sweep before t's, arrival), and each step takes the first
remaining candidate still in another component: one mask pass per successful
union, with the edges and their order those of the per-level rescan.
Components are a label per point; a union relabels one of them, at most
n - 1 times in all.
"""

from __future__ import annotations

import numpy as np

from .hst import Forest
from .metric import (
    POINT,
    MetricSpace,
    MultiGraphSolution,
    RequestRecord,
    RequestSequence,
    RunTrace,
    UnionFind,
    exceeds,
    floor_log2,
    grown,
    max_flow,
    pow2,
)


class BcForest:
    """Incremental Berman-Coulston state buying `copies` of each edge; reused by MROB and SN.

    The classified endpoints live in buffers grown by doubling, two rows per pair."""

    def __init__(self, m: MetricSpace, copies: int):
        self.m = m
        self.copies = copies
        self.comp = np.arange(m.n)  # component label per point
        # the classified endpoints in arrival order: (point, class c) rows, as
        # the summary's "occ", and the reach 2^(c+1) of its top level (none for c < 0)
        self.n_ends = 0
        self._occ = np.empty((16, 2), dtype=np.intp)
        self._reach = np.empty(16)
        self.levels = {}   # j -> [(u, v)] positive-length edges added at level j
        self.zero_merges = []

    def connected(self, u: int, v: int) -> bool:
        return bool(self.comp[u] == self.comp[v])

    def _union(self, u: int, v: int) -> bool:
        """Join v's component to u's; False if they were already one."""
        cu, cv = self.comp[u], self.comp[v]
        if cu == cv:
            return False
        self.comp[self.comp == cv] = cu
        return True

    def add_pair(self, s: int, t: int):
        """Process one pair.

        Returns (class, added) where added lists (u, v, level) edges bought in
        order; zero-length connectivity merges carry level None.
        """
        added = []
        if self.m.dist(s, t) == 0.0:
            if s != t and self._union(s, t):
                self.zero_merges.append((s, t))
                added.append((s, t, None))
            return None, added
        klass = floor_log2(self.m.dist(s, t))
        n = self.n_ends = self.n_ends + 2
        self._occ, self._reach = grown(self._occ, n), grown(self._reach, n)
        self._occ[n - 2:n] = (s, klass), (t, klass)
        self._reach[n - 2:n] = pow2(klass + 1) if klass >= 0 else 0.0
        pts = self._occ[:n, 0]
        rows = self.m.d.take((s, t), axis=0).take(pts, axis=1)
        labels = self.comp[pts]  # its last two are s's and t's
        # entries some level j <= c reaches (d < 2^(j+1)) in another component
        side, ks = np.nonzero((rows < self._reach[:n]) & (labels != labels[-2:, None]))
        dv = rows[side, ks]
        # first level: -1 if d = 0, else max(0, floor(log2 d)); none above klass
        level = np.where(dv == 0.0, -1, np.maximum(np.frexp(dv)[1] - 1, 0))
        keep = np.flatnonzero(level <= klass)
        keep = keep[np.lexsort((ks[keep], side[keep], level[keep]))]
        level, xs, vs = level[keep], pts[side[keep] - 2], pts[ks[keep]]  # x: pts[-2] = s or pts[-1] = t
        pos = 0
        while True:
            live = np.flatnonzero(self.comp[xs[pos:]] != self.comp[vs[pos:]])
            if not live.size:
                return klass, added
            pos += int(live[0])
            x, v, j = int(xs[pos]), int(vs[pos]), int(level[pos])
            self._union(x, v)
            pos += 1
            if j >= 0:
                self.levels.setdefault(j, []).append((x, v))
            else:
                self.zero_merges.append((x, v))
            added.append((x, v, j if j >= 0 else None))

    def buy_pair(self, sol: MultiGraphSolution, s: int, t: int, weight):
        """add_pair, buying each edge: (class, weight * length)."""
        klass, added = self.add_pair(s, t)
        cost = 0.0
        for u, v, _ in added:
            sol.buy(u, v, copies=self.copies)
            cost += weight * self.m.dist(u, v)
        return klass, cost

    # The shape (see metric._fits) of a trace summary {"forests": [summary(), ...]}.
    SUMMARY_SHAPE = {"forests": [{
        "copies": int, "A": [[int, [[POINT, POINT]]]], "occ": [[POINT, int]], "zero_merges": [[POINT, POINT]],
    }]}

    def summary(self) -> dict:
        """One entry of a trace's summary["forests"], in JSON-native lists."""
        return {
            "copies": self.copies,
            "A": [[j, [list(e) for e in edges]] for j, edges in sorted(self.levels.items())],
            "occ": self._occ[:self.n_ends].tolist(),
            "zero_merges": [list(e) for e in self.zero_merges],
        }


class NearestSet:
    """A growing point set's nearest member to every point of m.

    near[x] = d(x, who[x]).  Adding c reads row d[c], one contiguous read that
    holds column d[:, c]'s bits because m.d is symmetric, and moves a point to
    c only when it is strictly closer, so a tie keeps the earliest member.
    Adding a member again returns at once: near[x] <= d(x, c) holds already.
    """

    def __init__(self, m: MetricSpace, first: int):
        self.d = m.d
        self.near = m.d[first].copy()
        self.who = np.full(m.n, first)
        self.member = np.arange(m.n) == first

    def add(self, c: int) -> None:
        if self.member[c]:
            return
        self.member[c] = True
        row = self.d[c]
        closer = row < self.near
        self.near[closer] = row[closer]
        self.who[closer] = c

    def nearest(self, i: int) -> tuple:
        """(z, d(i, z)) for the nearest member z."""
        return int(self.who[i]), float(self.near[i])


class Pool:
    """A class's witness pool: its members' request indices in arrival order,
    and their points in an intp array grown by doubling."""

    def __init__(self):
        self.idx = []
        self._points = np.empty(16, dtype=np.intp)

    def add(self, idx: int, point: int) -> None:
        n = len(self.idx)
        self._points = grown(self._points, n + 1)
        self._points[n] = point
        self.idx.append(idx)

    def within(self, m: MetricSpace, x: int, radius: float) -> list:
        """Positions of the members at distance < radius from x, in order."""
        return np.flatnonzero(m.d[x].take(self._points[:len(self.idx)]) < radius).tolist()

    def witnesses(self, m: MetricSpace, x: int, radius: float) -> tuple:
        """The request indices of the members at distance < radius from x."""
        return tuple(self.idx[k] for k in self.within(m, x, radius))


def run_greedy_st(m: MetricSpace, seq: RequestSequence) -> tuple:
    """Connect each arrival to the nearest previously-arrived terminal.

    Ties go to the earliest arrival (the root counts as arrival -1).  A
    terminal coincident with an earlier one auto-connects at cost zero.
    """
    sol = MultiGraphSolution()
    trace = RunTrace()
    arrived = NearestSet(m, seq.root)
    for idx, i in enumerate(seq.requests):
        z, a = arrived.nearest(i)
        arrived.add(i)
        if a == 0.0:
            if i != z:
                sol.buy(i, z)
            trace.add(RequestRecord(idx=idx, decision="auto", attach=z))
            continue
        sol.buy(i, z)
        trace.add(RequestRecord(idx=idx, decision="buy", klass=floor_log2(a), cost=a, attach=z))
    return sol, trace


def run_bc_sf(m: MetricSpace, seq: RequestSequence) -> tuple:
    sol = MultiGraphSolution()
    trace = RunTrace()
    bc = BcForest(m, 1)
    for idx, (s, t) in enumerate(seq.requests):
        klass, cost = bc.buy_pair(sol, s, t, 1)
        if klass is None:
            trace.add(RequestRecord(idx=idx, decision="auto"))
            continue
        trace.add(RequestRecord(idx=idx, decision="bc", klass=klass, cost=cost, feasible_now=bc.connected(s, t)))
    trace.summary = {"forests": [bc.summary()]}
    return sol, trace


def run_sn(m: MetricSpace, seq: RequestSequence) -> tuple:
    """One Berman-Coulston instance per requirement scale l = floor(log2 R).

    The wrapper buys 2^(l+1) copies of every edge instance l buys; instances
    are created lazily on the first requirement in [2^l, 2^(l+1)).
    """
    sol = MultiGraphSolution()
    trace = RunTrace()
    instances = {}
    for idx, (s, t, req) in enumerate(seq.requests):
        if m.dist(s, t) == 0.0:
            trace.add(RequestRecord(idx=idx, decision="auto"))
            continue
        lev = floor_log2(float(req))
        copies = 2 ** (lev + 1)
        bc = instances.get(lev) or instances.setdefault(lev, BcForest(m, copies))
        klass, cost = bc.buy_pair(sol, s, t, copies)
        # every edge of instance lev carries 2^(lev+1) > req copies, so a
        # path of them already carries req; max_flow decides the rest
        feasible = bc.connected(s, t) or max_flow(sol.capacity, s, t, limit=req) >= req
        trace.add(RequestRecord(idx=idx, decision="bc", klass=klass, cost=cost, feasible_now=feasible))
    trace.summary = {"forests": [bc.summary() for _, bc in sorted(instances.items())]}
    return sol, trace


# ---------------------------------------------------------------------------
# Structural guarantee checks: check(m, seq, trace) -> violations, or
# check(m, seq, sol, trace) for those that also read the run's solution
# ---------------------------------------------------------------------------

def check_share_identity(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """Greedy Steiner tree: sum a_i <= sum over classified arrivals of 2^(j+1)."""
    lhs = trace.total_cost()
    rhs = sum(pow2(r.klass + 1) for r in trace.records if r.klass is not None)
    return [f"sum a_i = {lhs:g} > share {rhs:g}"] if exceeds(lhs, rhs, atol=0.0) else []


def check_class_separation(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """Same-class terminals of a greedy run must be >= 2^j apart.

    Reads the records with decision "buy" and a class, at their requests'
    points: every classified arrival of a Steiner tree run, and the buy
    subsequence of an SROB or PCST run (its bought subgraph is a greedy run).
    """
    entries = [r for r in trace.records if r.decision == "buy" and r.klass is not None]
    return [
        f"class {j}: requests {a.idx},{b.idx} at distance {d:g} < 2^{j}"
        for j, a, b, d in same_class_closer(entries, m, seq, 0)
    ]


def same_class_closer(records, m: MetricSpace, seq: RequestSequence, shift: int):
    """(j, a, b, d) for records a before b of class j whose requests' first
    points are at distance d < 2^(j+shift): by class, then by a and b in
    record order, from one distance mask per class."""
    by_class = {}
    for rec in records:
        by_class.setdefault(rec.klass, []).append(rec)
    for j, recs in sorted(by_class.items()):
        bound = pow2(j + shift)
        pts = [seq.pairs[rec.idx][0] for rec in recs]
        d = m.d[np.ix_(pts, pts)]
        for a, b in zip(*np.nonzero(np.triu(d < bound, 1))):
            yield j, recs[a], recs[b], float(d[a, b])


def _forests(trace: RunTrace):
    """Each Berman-Coulston forest's {"copies", "A": [[j, A_j], ...], "occ", "zero_merges"}."""
    return trace.summary.get("forests", [])


def check_metagraph_acyclic(trace: RunTrace, covers):
    """Meta-graph acyclicity per level: |A_j| <= |S_j| for the cover by level-j
    cuts, in every tree of a forest; per tree, its cycle violations or the
    ValueError it raises.

    `covers` is covers_from_tree(f, trace), whose errors pass through.  The
    cover's validity (disjoint cuts of metric diameter < 2^j) comes from
    validate_hst, which passes every tree before a per-tree check runs; what
    a forged trace can still break is a ValueError: an X_j point or an A_j
    endpoint outside a tree's cover.  An error raised off the trace alone is
    the result of every tree without an earlier error of its own, as if the
    trees were checked one by one.  One component count over every level's
    meta-graph in every tree finds the graphs with a cycle (|A_j| > nodes -
    components); only there does a union-find over the A_j edge list name the
    edges that close one.
    """
    points, cover, errors = covers
    out = [[] if e is None else e for e in errors]
    at = {p: i for i, p in enumerate(points)}
    graphs = []  # per level of every forest: (j, edges, trees x edges x 2 cut ids)
    try:
        for forest in _forests(trace):
            occ = forest["occ"]
            for j, edges in forest["A"]:
                level = cover.get(j)
                if level is None:
                    raise ValueError(f"no cover supplied for level {j}")
                members = sorted({p for p, c in occ if c >= j})
                missed = level[:, [at[p] for p in members]] < 0
                ends = level[:, [at[p] for u, v in edges for p in (u, v)]].reshape(len(out), -1, 2)
                for g in np.flatnonzero(missed.any(axis=1) | (ends < 0).any(axis=(1, 2))).tolist():
                    if isinstance(out[g], list):
                        miss = [p for p, m in zip(members, missed[g].tolist()) if m]
                        out[g] = ValueError(f"level {j}: cover misses {miss}" if miss else
                                            f"level {j}: edge endpoint outside the cover")
                graphs.append((j, edges, ends))
    except Exception as exc:  # raised off the trace; the caller decides if it is a check error
        return [exc if isinstance(o, list) else o for o in out]
    if not graphs:
        return out
    # a node is (graph, tree, cut id); the edges are those with both ends covered
    ids = max(int(ends.max(initial=0)) for _, _, ends in graphs) + 1
    keys = []
    for x, (_, _, ends) in enumerate(graphs):
        g, e = np.nonzero((ends >= 0).all(axis=2))
        keys.append((x * len(out) + g)[:, None] * ids + ends[g, e])
    keys = np.concatenate(keys)
    nodes, ab = np.unique(keys, return_inverse=True)
    roots = _component_roots(*ab.reshape(-1, 2).T, len(nodes))
    edges_in, nodes_in, parts = (np.bincount(v // ids, minlength=len(graphs) * len(out))
                                 for v in (keys[:, 0], nodes, nodes[roots]))
    for x, g in zip(*np.divmod(np.flatnonzero(edges_in > nodes_in - parts), len(out))):
        if isinstance(out[g], list):
            j, edges, ends = graphs[x]
            uf = UnionFind(ids)
            out[g] += [f"level {j}: meta-cycle via edge ({u},{v})"
                       for (u, v), (su, sv) in zip(edges, ends[g].tolist()) if not uf.union(su, sv)]
    return out


def _component_roots(a, b, n) -> np.ndarray:
    """The nodes that are the smallest of their connected component, in a
    graph on nodes 0..n-1 with edges (a[i], b[i]): min-label propagation with
    pointer jumping, every label a node of the labelled node's component."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return np.flatnonzero(label == np.arange(n))
        label = new


def covers_from_tree(f: Forest, trace: RunTrace):
    """The level-j covers of every tree of f, for every level j holding
    Berman-Coulston edges: (points, {j: trees x points cut ids}, errors).

    `points` are the points the forests name (X_j entries and A_j endpoints),
    sorted; a point's entry is its level-j cut in the tree if that cut meets
    X_j, else -1.  A level outside a tree's cut levels, which only a forged
    trace names, is that tree's ValueError in `errors` (None where there is
    none), and its covers read -1 from there on.  Each level's cuts of every
    point in every tree come from one gather on f.local's rows of that level.
    """
    forests = _forests(trace)
    occs = [o for forest in forests for o in forest["occ"]]
    points = sorted({p for p, _ in occs} | {p for forest in forests for _, edges in forest["A"]
                                             for e in edges for p in e})
    cols = f.columns(points + [p for p, _ in occs])  # points, then occurrences
    klass = np.array([c for _, c in occs], dtype=np.intp)
    tree, ids = np.arange(f.n_trees)[:, None], int((f.sizes + f.k).max())
    errors = [None] * f.n_trees
    cover = {}
    for j in sorted({j for forest in forests for j, _ in forest["A"]}):
        for g in np.flatnonzero((j < f.lows) | (j > f.root_levels)).tolist():
            if errors[g] is None:
                errors[g] = ValueError(f"level {j} outside [{f.lows[g]}, {f.root_levels[g]}]")
        level_row = np.clip(j - f.lows, 0, f.local.shape[1] - 1)[:, None]  # a tree without level j errs
        row = f.local[tree, level_row, cols]  # trees x (points, then occurrences), as f.cuts reads them
        own = np.where(np.array([e is None for e in errors])[:, None], row, -1)
        hit = np.zeros((f.n_trees, ids + 1), dtype=bool)  # per tree, the cuts meeting X_j; -1 is the last
        hit[tree, np.where(klass >= j, own[:, len(points):], -1)] = True
        hit[:, -1] = False
        at = own[:, :len(points)]
        cover[j] = np.where(hit[tree, at], at, -1)
    return points, cover, errors


def check_sn_decomposition(m: MetricSpace, seq: RequestSequence, sol: MultiGraphSolution, trace: RunTrace):
    """Every bought multiplicity must be the sum of `copies` over the forests holding the edge."""
    expect = {}
    for forest in _forests(trace):
        edges = [e for _, edges in forest["A"] for e in edges] + forest["zero_merges"]
        for u, v in edges:
            key = (u, v) if u <= v else (v, u)
            expect[key] = expect.get(key, 0) + forest["copies"]
    out = []
    for key, mult in sol.bought.items():
        if expect.get(key) != mult:
            out.append(f"edge {key}: multiplicity {mult} != decomposition {expect.get(key)}")
    for key in expect:
        if key not in sol.bought:
            out.append(f"edge {key}: in decomposition but not bought")
    return out


def check_bc_edge_property(m: MetricSpace, seq: RequestSequence, trace: RunTrace):
    """A_j edges have length < 2^(j+1) and endpoint classes >= j."""
    out = []
    for forest in _forests(trace):
        best = {}
        for p, c in forest["occ"]:
            best[p] = max(best.get(p, c), c)
        for j, edges in forest["A"]:
            for u, v in edges:
                if m.dist(u, v) >= pow2(j + 1):
                    out.append(f"level {j}: edge ({u},{v}) too long")
                if best.get(u, -1) < j or best.get(v, -1) < j:
                    out.append(f"level {j}: edge ({u},{v}) endpoint class below {j}")
    return out
