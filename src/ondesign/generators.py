"""Instance families: random Euclidean and graph metrics, random request
sequences, and the recursive-diamond adversarial family that realizes the
Omega(log k) lower bound for greedy online Steiner tree.

Everything is a pure function of its seed (numpy SeedSequence-derived PCG64).

The diamond's shortest-path closure has a closed form.  Every node meets the
s-t path at two ports and sits a fixed offset from both: a path node is its
own two ports at offset 0, and a twin over [a, a + step] has ports a and
a + step at offset step / 2.  A twin is never shorter than the path stretch
it spans, so a shortest path between path nodes stays on the path, and one
from a twin leaves through one of its ports.  Hence d(u, v) is offset(u) +
offset(v) plus the least |port(u) - port(v)| over the four port pairs, and
d(u, u) = 0.  Each such distance, and each sum a Dijkstra run forms, is an
integer below 2^12, so the closure in floats is exact whichever way it is
computed.  Only gen_graph_metric's random graphs need scipy's Dijkstra,
which loads at its first call.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError
from .metric import MetricSpace, RequestSequence, build_metric, problem_format

_DIAMOND_CAP = 10


def _rng(seed: int, *key):
    return np.random.default_rng(np.random.SeedSequence(int(seed) & (2**64 - 1), spawn_key=key))


def gen_euclidean(count: int, seed: int = 0):
    """Uniform points in the unit square, normalized; returns (metric, points)."""
    rng = _rng(seed, 1)
    pts = rng.random((count, 2))
    return build_metric(pts, "points"), pts


def gen_graph_metric(vertices: int, density: float = 0.3, seed: int = 0) -> MetricSpace:
    """Shortest-path closure of a random connected weighted graph."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    rng = _rng(seed, 2)
    w = np.zeros((vertices, vertices))
    order = rng.permutation(vertices)
    for i in range(1, vertices):  # random spanning tree keeps the sample connected
        j = order[int(rng.integers(0, i))]
        w[order[i], j] = w[j, order[i]] = rng.uniform(0.5, 2.0)
    for u in range(vertices):
        for v in range(u + 1, vertices):
            if w[u, v] == 0 and rng.random() < density:
                w[u, v] = w[v, u] = rng.uniform(0.5, 2.0)
    closure = shortest_path(csr_matrix(w), method="D", directed=False)
    closure = (closure + closure.T) / 2.0  # Dijkstra runs are not bit-symmetric
    return build_metric(closure, "matrix")


def gen_diamond_lb(depth: int):
    """Recursive-diamond lower-bound family for greedy online Steiner tree.

    The metric is the shortest-path closure of the depth-d diamond graph
    restricted to one designated s-t path (unit steps after scaling) plus the
    off-path twin of each diamond.  The adversarial order presents s, then t,
    then per phase i the midpoints of the current path edges; greedy pays
    2^(d-i) for each of the 2^(i-1) phase-i terminals while the whole terminal
    set always lies on a single path of length 2^d.

    Returns (metric, request sequence, info) with info carrying k and the
    family's known optimum (= 2^d in normalized units).
    """
    if depth > _DIAMOND_CAP:
        raise SchemaError(f"depth {depth} > {_DIAMOND_CAP}")
    if depth < 0:
        raise SchemaError("depth must be >= 0")
    span = 2**depth
    # Ports and offsets (module docstring): the path nodes 0..span, then the
    # twins level by level, left to right, in the graph's numbering.
    steps = [2 ** (depth - level + 1) for level in range(1, depth + 1)]
    low = np.concatenate([np.arange(span + 1)] + [np.arange(0, span, step) for step in steps]).astype(np.int32)
    offset = np.concatenate([np.zeros(span + 1)] + [np.full(span // step, step // 2) for step in steps]).astype(np.int32)
    high = low + 2 * offset
    n = len(low)
    # int32 throughout (distances stay below 2^12), one reused n x n buffer.
    dist, tmp = np.subtract.outer(low, low), np.empty((n, n), dtype=np.int32)
    np.abs(dist, out=dist)
    for a, b in ((low, high), (high, low), (high, high)):
        np.subtract.outer(a, b, out=tmp)
        np.abs(tmp, out=tmp)
        np.minimum(dist, tmp, out=dist)
    del tmp
    dist += offset[:, None]
    dist += offset
    np.fill_diagonal(dist, 0)
    # The closure is a metric and its finest path edges have length exactly
    # 1, so skip the O(n^3) revalidation (depth 10 reaches n = 2048); small
    # depths round-trip through build_metric in tests.
    closure = dist.astype(float)
    closure.setflags(write=False)
    m = MetricSpace(d=closure)

    requests = [span]
    for level in range(1, depth + 1):
        gap = 2 ** (depth - level)
        requests.extend(range(gap, span, 2 * gap))
    seq = RequestSequence(problem="SteinerTree", requests=tuple(requests), root=0)
    info = {"k": len(requests) + 1, "opt": float(span), "depth": depth}
    return m, seq, info


def gen_requests(problem: str, m: MetricSpace, count: int, seed: int, params=None) -> RequestSequence:
    """Uniform random requests for any problem.

    params: root (default 0), M, R_max (log-uniform requirements) and
    n_facilities for CFL.  Facility costs are uniform in [0, diameter] and
    penalties in [0, 2 * diameter].
    """
    fmt = problem_format(problem)
    params = dict(params or {})
    ends = 2 if fmt.paired else 1
    if count > 0 and m.n < ends:
        raise SchemaError(f"{problem} requests need {ends} distinct points; the metric has {m.n}")
    rng = _rng(seed, 3)
    root = int(params.get("root", 0))
    diam = m.diameter()

    def pick():
        return int(rng.integers(0, m.n))

    def pick_pair():
        s = pick()
        t = pick()
        while t == s:
            t = pick()
        return s, t

    def requirement():
        r_max = max(1, int(params.get("R_max", 8)))
        r = int(round(2.0 ** (rng.random() * np.log2(r_max)))) if r_max > 1 else 1
        return min(max(r, 1), r_max)

    draw = {"R": requirement, "pi": lambda: float(rng.uniform(0, 2 * diam))}
    extra = [draw[name] for name in list(fmt.fields)[2 if fmt.paired else 1:]]

    def request():
        req = pick_pair() if fmt.paired else (pick(),)
        for f in extra:  # the fields after the points, in order
            req += (f(),)
        return req if len(req) > 1 else req[0]

    facilities = None
    if fmt.facilities:  # drawn before the requests
        n_fac = min(m.n, int(params.get("n_facilities", 4)))
        others = [p for p in range(m.n) if p != root]
        chosen = list(rng.choice(others, size=max(0, n_fac - 1), replace=False)) if n_fac > 1 else []
        facilities = ((root, 0.0),) + tuple((int(p), float(rng.uniform(0, diam))) for p in chosen)
    return RequestSequence(
        problem=problem,
        requests=tuple(request() for _ in range(count)),
        root=None if fmt.paired else root,
        M=float(params.get("M", 2.0)) if fmt.needs_M else None,
        facilities=facilities,
    )
