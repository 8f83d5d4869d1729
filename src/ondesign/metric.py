"""Metric spaces, request sequences, solutions and run traces.

Everything downstream works on a finite metric (symmetric distance matrix with
zero diagonal, triangle inequality, minimum distance between distinct positions
normalized to 1).  Algorithms never look at the whole matrix online; they read
rows of arrived requests only, but the adversary's full metric is materialized
up front for generators and oracles.

`build_metric` checks the triangle inequality up to a tolerance in two
steps.  An O(n^2) certificate accepts a matrix close to Euclidean distances:
those of the input points, or of a classical-MDS embedding of the matrix.
Only what it leaves open meets the O(n^3) scan, which names the first
violated triangle.  The certificate never rejects, so the scan's verdict and
message stand for every matrix.  The certificate, a point list's distances
and the scan go a block at a time; every entry is computed as the
whole-matrix pass would compute it, so the blocks change no bit.

Distance classes are computed with exact binary thresholds: ``class(x) = j``
iff ``2^j <= x < 2^(j+1)``, via ``math.frexp`` (powers of two are exactly
representable, so no epsilon is involved).
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import SchemaError

# Relative and absolute float slack of every bound check.
RTOL = 1e-9
ATOL = 1e-12


def exceeds(lhs: float, bound: float, atol: float = ATOL) -> bool:
    """True when lhs is over bound beyond float slack; NaN on either side is over."""
    return not lhs <= bound * (1 + RTOL) + atol


def same_cost(a: float, b: float) -> bool:
    """True when two costs agree to RTOL relative to max(1, |a|, |b|); NaN agrees with nothing."""
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def floor_log2(x: float) -> int:
    """Exact floor(log2 x) for x > 0 (frexp gives x = m * 2^e, m in [0.5, 1))."""
    if x <= 0:
        raise ValueError("floor_log2 needs a positive argument")
    return math.frexp(x)[1] - 1


def pow2(j: int) -> float:
    return math.ldexp(1.0, j)


def grown(a: np.ndarray, n: int) -> np.ndarray:
    """a, or a copy of it doubled along its first axis until it has n rows:
    a buffer appended to one row at a time costs amortised O(1) per row."""
    while len(a) < n:
        a = np.concatenate([a, np.empty_like(a)])
    return a


class UnionFind:
    """Array-based union-find with path halving: bought components and meta-graph cycles."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True

    def connected(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)


def max_flow(capacity: dict, s: int, t: int, limit: float = math.inf) -> float:
    """Edmonds-Karp max flow on a symmetric capacity dict {u: {v: cap}}.

    Capacities are edge multiplicities here, so integer arithmetic throughout.
    Stops early once `limit` is reached (feasibility checks only need >= R_i).
    `capacity` is read only: the residual capacity of (u, v) is
    capacity[u][v] - used[u][v], with `used` the net flow pushed from u to v.
    Every v -> u entry exists beside its u -> v one, so the residual graph
    has exactly `capacity`'s arcs, in its neighbour order.
    """
    if s == t:
        return math.inf
    used = {}
    flow = 0
    while flow < limit:
        # BFS for an augmenting path
        pred = {s: None}
        queue = deque([s])
        while queue and t not in pred:
            u = queue.popleft()
            out = used.get(u)
            for v, c in capacity.get(u, {}).items():
                if v not in pred and c > (0 if out is None else out.get(v, 0)):
                    pred[v] = u
                    queue.append(v)
        if t not in pred:
            break
        path = []
        v = t
        while pred[v] is not None:
            path.append((pred[v], v))
            v = pred[v]
        aug = min(capacity[u][v] - used.get(u, {}).get(v, 0) for u, v in path)  # the bottleneck
        for u, v in path:
            out, back = used.setdefault(u, {}), used.setdefault(v, {})
            out[v] = out.get(v, 0) + aug
            back[u] = back.get(u, 0) - aug
        flow += aug
    return flow


@dataclass(frozen=True)
class MetricSpace:
    """Finite point set with a normalized distance matrix.

    `scale` is the factor the raw input was multiplied by, so raw distances are
    `d / scale`.  Coincident points (d = 0) are allowed; the min-distance-1
    guarantee holds over distinct-position pairs only.
    """

    d: np.ndarray
    scale: float = 1.0

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def dist(self, u: int, v: int) -> float:
        return float(self.d[u, v])

    def diameter(self) -> float:
        return float(self.d.max()) if self.n else 0.0

    def coincident(self, u: int, v: int) -> bool:
        return self.d[u, v] == 0.0


# The certificate's embedding of a matrix: its rank, the range finder's extra
# columns and seed.  They change only how often the certificate decides,
# never which matrices pass or what is raised.
_EMBED_RANK = 3
_EMBED_OVERSAMPLE = 5
_EMBED_SEED = 0

# Entries of one block: a point list's n x rows x r differences, the
# certificate's rows x n distances of a matrix's embedding, and the scan's
# pivots x n x n triangles (one pivot at least) stay near this many.
DISTANCE_BLOCK = 2**16


def _mds_embedding(d: np.ndarray, dmax: float) -> np.ndarray:
    """Rows whose Euclidean distances approximate d / dmax: classical MDS, the
    top _EMBED_RANK eigenpairs of the double-centred -(d / dmax)^2 / 2, found
    by a seeded Gaussian range finder with one power iteration."""
    b = d / dmax
    b *= b
    b *= -0.5
    mean = b.mean(axis=0)
    b -= mean
    b -= mean[:, None]
    b += mean.mean()
    omega = np.random.default_rng(_EMBED_SEED).standard_normal((len(b), _EMBED_RANK + _EMBED_OVERSAMPLE))
    q = np.linalg.qr(b @ np.linalg.qr(b @ omega)[0])[0]
    vals, vecs = np.linalg.eigh(q.T @ b @ q)
    return (q @ vecs[:, -_EMBED_RANK:]) * np.sqrt(np.maximum(vals[-_EMBED_RANK:], 0.0))


def _near_euclidean(d: np.ndarray, dmax: float, tol: float, dim) -> bool:
    """True only if the scan passes d: d holds the float Euclidean distances
    of points in `dim` coordinates, or, for a matrix (dim None), d is within
    about tol / 3 of the distances of an embedding of d / dmax (d^2 would
    overflow near 1e154).

    Soundness.  Let D be the exact distances of the embedding's rows, a
    metric, and e* = max|d - D|: then d(u,w) - d(u,v) - d(v,w) <= 3 e* for
    all u, v, w.  With unit roundoff u = eps / 2, the float dx of r
    coordinates (r rounded squares of rounded differences, summed in any
    order, then a sqrt) is within (r + 4) / 2 * u * max dx of D; rounding
    d / dmax moves each of the three entries by at most u, and the scan's own
    sum adds at most 2u, both in units of dmax (underflow adds far less).  So
    no scan entry exceeds 3e + (1.5r + 11) u max(1, max dx), up to a factor
    1 + 4u, where e is the computed max|d - dx|, and e = 0 when d is the dx
    of its own points.  Acceptance asks 3e + c (r + 3) eps max(1, max dx) <=
    tol; c = 8 makes that slack (16r + 48) u, over four times what is needed.

    A matrix's dx is built a block of DISTANCE_BLOCK entries at a time, each
    entry summed over the coordinates in order from 0 as for the whole matrix,
    so every entry, e and max dx keep their bits.  Both maxima only grow, so
    the first block that breaks the bound declines.
    """
    eps = np.finfo(float).eps
    if dim is not None:  # e = 0 and max dx = dmax
        return 8 * (dim + 3) * eps * max(1.0, dmax) <= tol
    x = _mds_embedding(d, dmax)
    n, tol, slack = len(d), tol / dmax, 8 * (x.shape[1] + 3) * eps
    e = top = 0.0  # max|d - dx| and max dx so far
    step = max(1, DISTANCE_BLOCK // n)
    acc, buf = np.empty((2, min(step, n), n))
    for i in range(0, n, step):
        rows = slice(i, i + step)
        dx, tmp = acc[:n - i], buf[:n - i]
        dx.fill(0.0)
        for col in x.T:  # one coordinate at a time: a few blocks, never a block * r
            np.subtract.outer(col[rows], col, out=tmp)
            tmp *= tmp
            dx += tmp
        np.sqrt(dx, out=dx)
        top = max(float(dx.max()), top)
        dx -= np.divide(d[rows], dmax, out=tmp)
        np.abs(dx, out=dx)
        e = max(float(dx.max()), e)  # a NaN block keeps its NaN, and declines here
        if not 3 * e + slack * max(1.0, top) <= tol:
            return False
    return True


def _triangle_scan(d: np.ndarray, tol: float) -> None:
    """Raise SchemaError at the first (v, then u, then w) triangle with
    d(u,w) - (d(u,v) + d(v,w)) > tol; d has at least one entry.  A block of
    middle points v at a time, each entry summed as for one v alone."""
    n = len(d)
    step = max(1, DISTANCE_BLOCK // (n * n))
    buf = np.empty((min(step, n), n, n))
    for i in range(0, n, step):
        block = buf[:min(step, n - i)]
        np.add(d[:, i:i + step].T[:, :, None], d[i:i + step, None, :], out=block)
        np.subtract(d, block, out=block)
        if block.max() > tol:
            b, u, w = map(int, np.argwhere(block > tol)[0])
            raise SchemaError(f"d({u},{w}) > d({u},{i + b}) + d({i + b},{w}) by {block[b, u, w]:g}")


def _validate_matrix(d: np.ndarray, dim) -> None:
    """Raise SchemaError unless d is a metric up to the triangle tolerance;
    `dim`, when d holds the float Euclidean distances of points in dim
    coordinates, certifies it directly."""
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise SchemaError("distance matrix must be square")
    if d.min(initial=0.0) < 0:  # d is finite here, so the minimum decides
        u, v = map(int, np.argwhere(d < 0)[0])
        raise SchemaError(f"d({u},{v}) < 0")
    if np.any(np.diag(d) != 0):
        raise SchemaError("nonzero diagonal entry")
    # Symmetry a row block at a time, each row from the diagonal on: of an
    # asymmetric pair, the entry above the diagonal comes first in row order,
    # so the first failing block holds the first asymmetric entry.
    n = d.shape[0]
    step = max(1, DISTANCE_BLOCK // max(1, n))
    for i in range(0, n, step):
        upper, lower = d[i:i + step, i:], d[i:, i:i + step].T
        if not np.array_equal(upper, lower):
            u, v = map(int, np.argwhere(upper != lower)[0] + i)
            raise SchemaError(f"d({u},{v}) != d({v},{u})")
    dmax = float(d.max(initial=0.0))
    tol = RTOL * max(1.0, dmax)
    # Certificate, O(n^2): no scan entry exceeds dmax, and d near a Euclidean metric passes.
    # The scan names the first violation, or passes when the slack only adds up over several hops.
    if not (dmax <= tol or _near_euclidean(d, dmax, tol, dim)):
        _triangle_scan(d, tol)


def _require_finite(d: np.ndarray, what: str) -> None:
    if not np.isfinite(d).all():
        u, v = map(int, np.argwhere(~np.isfinite(d))[0])
        raise SchemaError(f"d({u},{v}) {what}")


def _point_distances(arr) -> np.ndarray:
    """The float Euclidean distances between the rows of arr, a block of rows
    at a time; each entry is summed over the coordinates as one n x n x r
    broadcast would sum it."""
    n, r = arr.shape
    d = np.empty((n, n))
    step = max(1, DISTANCE_BLOCK // max(1, n * r))
    with np.errstate(over="ignore"):
        for i in range(0, n, step):
            diff = arr[i:i + step, None, :] - arr[None, :, :]
            np.sqrt((diff * diff).sum(axis=-1), out=d[i:i + step])
    return d


def build_metric(raw, kind: str) -> MetricSpace:
    """Build a MetricSpace from `raw`, a square distance matrix if kind is
    "matrix" or a point list inducing Euclidean distances if kind is "points".

    Distances are divided by the minimum distinct-pair distance so that it
    becomes exactly 1 (coincident points stay at 0).  Idempotent on
    already-normalized input, which is not divided at all.  The result never
    shares memory with `raw`.
    """
    try:
        arr = np.array(raw, dtype=float)  # always a copy: the caller's array is never normalized or frozen
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"not an array of numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise SchemaError(f"entry {tuple(np.argwhere(~np.isfinite(arr))[0].tolist())} is not finite")
    if kind == "matrix":
        d = arr
    else:
        if arr.ndim != 2:
            raise SchemaError("points must be a 2-D array")
        d = _point_distances(arr)
        _require_finite(d, "is not finite")
    _validate_matrix(d, arr.shape[1] if kind == "points" else None)
    mind = float(np.min(d, where=d > 0, initial=np.inf))
    scale = 1.0
    if mind != 1.0 and mind < np.inf:  # x / 1 is x for every finite x, -0.0 included
        with np.errstate(over="ignore"):
            d /= mind
        _require_finite(d, "is not finite once the minimum distance is scaled to 1")
        scale = 1.0 / mind
    d.setflags(write=False)
    return MetricSpace(d=d, scale=scale)


# ---------------------------------------------------------------------------
# Problems: one request format each
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RequestFormat:
    """What one problem's requests look like and need; one entry of PROBLEMS.

    `fields` maps each request field's name to its JSON shape (see _fits);
    a one-field request is a bare value, a longer one a tuple.  `feasible(sol,
    seq, m, base, idx)` says whether the final solution serves request idx,
    `base` being the components of the bought edges.
    """

    fields: dict
    feasible: Callable
    paired: bool = False      # a request is an (s, t, ...) pair; any other is served from seq.root
    needs_M: bool = False     # bought edges cost M times their length
    facilities: bool = False  # clients are assigned to opened facilities

    @property
    def shape(self):
        """A request's JSON shape: the one field's, or the list of all fields'."""
        shapes = list(self.fields.values())
        return shapes[0] if len(shapes) == 1 else shapes

    def parse(self, raw):
        """The request of JSON `raw`, which has `shape`; float fields as floats."""
        if len(self.fields) == 1:
            return raw
        return tuple(float(v) if shape is float else v for shape, v in zip(self.fields.values(), raw))


def _connected(sol, seq, m, base, idx):
    """Bought edges plus this request's rented edge join its two points
    (seq.pairs); coincident points are joined already."""
    a, b = seq.pairs[idx]
    if m.coincident(a, b) or base.connected(a, b):
        return True
    edge = sol.rented.get(idx)  # a rent edge joins the two components, or it serves nothing
    return edge is not None and {base.find(a), base.find(b)} == {base.find(edge[0]), base.find(edge[1])}


def _has_flow(sol, seq, m, base, idx):
    """R edge-disjoint s-t paths, bought copies counted."""
    s, t = seq.pairs[idx]
    if m.coincident(s, t):
        return True
    r = seq.requests[idx][2]
    return max_flow(sol.capacity, s, t, limit=r) >= r


def _paid_or_joined(sol, seq, m, base, idx):
    return idx in sol.penalties_paid or _connected(sol, seq, m, base, idx)


def _served(sol, seq, m, base, idx):
    """Assigned to an opened facility that bought edges join to the root."""
    x = sol.assignments.get(idx)
    ok = x is not None and (x in sol.opened or x == seq.root)
    if ok and x != seq.root:
        ok = base.connected(x, seq.root) or m.coincident(x, seq.root)
    return ok


# Index shapes for _fits: an int naming one of the instance's points or requests.
POINT, REQUEST = "point", "request"
_POINT = {"point": POINT}
_PAIR = {"s": POINT, "t": POINT}

PROBLEMS = {
    "SteinerTree": RequestFormat(_POINT, _connected),
    "SteinerForest": RequestFormat(_PAIR, _connected, paired=True),
    "SteinerNetwork": RequestFormat({**_PAIR, "R": int}, _has_flow, paired=True),
    "SROB": RequestFormat(_POINT, _connected, needs_M=True),
    "MROB": RequestFormat(_PAIR, _connected, paired=True, needs_M=True),
    "CFL": RequestFormat(_POINT, _served, needs_M=True, facilities=True),
    "PCST": RequestFormat({**_POINT, "pi": float}, _paid_or_joined),
}


def problem_format(name) -> RequestFormat:
    """PROBLEMS[name]; SchemaError for anything else."""
    fmt = PROBLEMS.get(name) if isinstance(name, str) else None
    if fmt is None:
        raise SchemaError(f"unknown problem {name!r}")
    return fmt


@dataclass(frozen=True)
class RequestSequence:
    """Problem-tagged ordered requests (shaped as `PROBLEMS` says) plus parameters."""

    problem: str
    requests: tuple
    root: Optional[int] = None
    M: Optional[float] = None
    facilities: Optional[tuple] = None  # ((point, cost), ...)

    def __post_init__(self):
        fmt = problem_format(self.problem)
        if (self.root is not None) == fmt.paired:
            rooted = sorted(name for name, f in PROBLEMS.items() if not f.paired)
            raise SchemaError(f"root must be present exactly for {rooted}")
        if fmt.needs_M and (self.M is None or not 0 <= self.M < math.inf):
            raise SchemaError("M must be a nonnegative real for ROB/CFL")
        if fmt.facilities:
            if not self.facilities:
                raise SchemaError("CFL needs a facilities list")
            costs = dict(self.facilities)
            if len(costs) != len(self.facilities):
                raise SchemaError("facility points must be distinct")
            if self.root not in costs or costs[self.root] != 0:
                raise SchemaError("CFL root facility must be present with cost 0")
            if any(c < 0 for _, c in self.facilities):
                raise SchemaError("facility costs must be >= 0")
        if "R" in fmt.fields:
            for idx, (_, _, r) in enumerate(self.requests):
                if int(r) != r or r < 1:
                    raise SchemaError(f"request {idx}: R must be an integer >= 1")
        if "pi" in fmt.fields and any(pi < 0 for _, pi in self.requests):
            raise SchemaError("penalties must be >= 0")

    @cached_property
    def pairs(self) -> tuple:
        """The two points each request must join: a paired request's (s, t),
        any other request's point and the root."""
        fmt = PROBLEMS[self.problem]
        if len(fmt.fields) == 1:
            return tuple((req, self.root) for req in self.requests)
        return tuple((req[0], req[1] if fmt.paired else self.root) for req in self.requests)

    @property
    def k(self) -> int:
        """Number of terminals/clients that arrive online."""
        return 2 * len(self.requests) if PROBLEMS[self.problem].paired else len(self.requests)


class MultiGraphSolution:
    """Bought/rented edges with multiplicities plus penalty/facility state.

    Bought edges only ever accumulate (online decisions are irrevocable).
    """

    def __init__(self):
        self.bought = {}  # (u, v) sorted -> multiplicity
        self.rented = {}  # request idx -> the one edge (u, v) it rents, sorted
        self.penalties_paid = set()
        self.opened = set()
        self.assignments = {}  # request idx -> facility point
        self.capacity = {}  # bought multiplicities as max_flow's symmetric {u: {v: cap}}, kept by buy

    def buy(self, u: int, v: int, copies: int = 1) -> None:
        key = (u, v) if u <= v else (v, u)
        self.bought[key] = self.bought.get(key, 0) + copies
        for x, y in (key, key[::-1]):
            row = self.capacity.setdefault(x, {})
            row[y] = row.get(y, 0) + copies

    def rent(self, idx: int, u: int, v: int) -> None:
        self.rented[idx] = (u, v) if u <= v else (v, u)


@dataclass
class CostBreakdown:
    buy: float = 0.0
    rent: float = 0.0
    penalty: float = 0.0
    opening: float = 0.0

    @property
    def total(self) -> float:
        return self.buy + self.rent + self.penalty + self.opening

    def as_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


def solution_cost(sol: MultiGraphSolution, seq: RequestSequence, m: MetricSpace) -> CostBreakdown:
    """Cost decomposition per the problem's objective.

    The buy term is multiplied by M where the problem needs M and by 1
    otherwise; every term is nonnegative by construction.
    """
    fmt = PROBLEMS[seq.problem]
    out = CostBreakdown()
    bought = sum(m.dist(u, v) * mult for (u, v), mult in sol.bought.items())  # in insertion order
    out.buy = (seq.M if fmt.needs_M else 1.0) * bought
    if "pi" in fmt.fields:
        out.penalty = sum(seq.requests[i][1] for i in sol.penalties_paid)
    if fmt.facilities:
        costs = dict(seq.facilities)
        out.opening = sum(costs[x] for x in sol.opened)
        out.rent = sum(m.dist(seq.pairs[i][0], x) for i, x in sol.assignments.items())
    else:
        out.rent = sum(m.dist(u, v) for (u, v) in sol.rented.values())
    return out


def check_feasible(sol: MultiGraphSolution, seq: RequestSequence, m: MetricSpace):
    """Per-request feasibility booleans against the final solution state."""
    base = UnionFind(m.n)
    for (u, v) in sol.bought:
        base.union(u, v)
    feasible = PROBLEMS[seq.problem].feasible
    return [feasible(sol, seq, m, base, idx) for idx in range(len(seq.requests))]


# ---------------------------------------------------------------------------
# Run traces
# ---------------------------------------------------------------------------

@dataclass
class RequestRecord:
    """One trace row per request: what the run decided for it, never a fact of
    the instance.  Checks read request idx's points (seq.pairs[idx], whose
    second is the root for a rooted request), their distance and its penalty,
    requirement or facility costs from the RequestSequence, and its bought
    edges from the forest summary or `attach`.  Problem-specific fields stay
    None when unused."""

    idx: int
    decision: str                      # buy | rent | penalty | virtual | bc | auto
    klass: Optional[int] = None        # floor(log2 a_i); None for coincident requests
    cost: float = 0.0
    witnesses: tuple = ()              # witness request indices (s-side for MROB)
    witnesses_t: tuple = ()            # MROB: t-side witness set
    attach: Optional[int] = None       # z / x: the point we connected or assigned to
    rho: Optional[float] = None        # PCST cost share
    sigma_hat: Optional[int] = None    # CFL virtual assignment (a buy's actual one; else attach)
    opened: Optional[int] = None       # CFL facility opened by this request
    rent_endpoint: Optional[str] = None  # MROB: which endpoint entered R_j
    feasible_now: bool = True


def _fits(value, shape, bounds) -> bool:
    """Whether JSON `value` has `shape`: a type (float admits ints and refuses
    NaN, +-inf and ints past the float range; int and float refuse bools),
    POINT or REQUEST (an int in [0, bounds[shape])), None, a tuple of
    alternatives, [shape] for a list of it, [s1, s2, ...] for a list of that
    length, or {key: shape} for an object with exactly those keys."""
    if isinstance(shape, tuple):
        return any(_fits(value, s, bounds) for s in shape)
    if isinstance(shape, list):
        if not isinstance(value, list):
            return False
        if len(shape) == 1:
            return all(_fits(v, shape[0], bounds) for v in value)
        return len(value) == len(shape) and all(_fits(v, s, bounds) for v, s in zip(value, shape))
    if isinstance(shape, dict):
        return isinstance(value, dict) and set(value) == set(shape) and all(
            _fits(value[key], s, bounds) for key, s in shape.items()
        )
    if shape is None:
        return value is None
    if isinstance(shape, str):
        return type(value) is int and 0 <= value < bounds[shape]
    if isinstance(value, bool):
        return shape is bool
    if shape is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, shape)


# A record field's shape: the fields naming points or requests, every other
# field by its annotation (a new tuple field needs an entry here).
_RECORD_INDICES = {
    "idx": REQUEST, "witnesses": [REQUEST], "witnesses_t": [REQUEST],
    "attach": (POINT, None), "sigma_hat": (POINT, None), "opened": (POINT, None),
}
_ANNOTATED = {
    "int": int, "str": str, "float": float, "bool": bool,
    "Optional[int]": (int, None), "Optional[str]": (str, None), "Optional[float]": (float, None),
}
RECORD_SHAPE = {
    f.name: _RECORD_INDICES.get(f.name) or _ANNOTATED[f.type] for f in fields(RequestRecord)
}


@dataclass
class RunTrace:
    """What a run decided: one record per request plus JSON-native end-of-run
    summaries.  The instance (problem, root, M, ...) stays in the RequestSequence.
    A JSONL file holds the records, then one line {"summary": ...}."""

    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add(self, rec: RequestRecord) -> None:
        self.records.append(rec)

    def total_cost(self) -> float:
        return sum(rec.cost for rec in self.records)

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")
            fh.write(json.dumps({"summary": self.summary}, sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path, summary_shape, n_points, n_requests) -> "RunTrace":
        """The trace `to_jsonl` wrote for an instance of n_points points and
        n_requests requests, its summary of `summary_shape` (see _fits);
        SchemaError if unreadable or malformed, or if an index is out of range."""
        trace = cls()
        bounds = {POINT: n_points, REQUEST: n_requests}
        try:
            with open(path) as fh:
                for line, row in enumerate(map(json.loads, fh), 1):
                    keys = set(row) if isinstance(row, dict) else None
                    if keys == {"summary"}:
                        if not _fits(row["summary"], summary_shape, bounds):
                            raise ValueError(f"line {line}: malformed summary")
                        trace.summary = row["summary"]
                    elif keys == set(RECORD_SHAPE):
                        wrong = [key for key, shape in RECORD_SHAPE.items() if not _fits(row[key], shape, bounds)]
                        if wrong:
                            raise ValueError(f"line {line}: field {wrong[0]} has the wrong type or range")
                        trace.add(RequestRecord(**dict(
                            row, witnesses=tuple(row["witnesses"]), witnesses_t=tuple(row["witnesses_t"]),
                        )))
                    else:
                        named = "" if keys is None else (f": unknown keys {sorted(keys - set(RECORD_SHAPE))},"
                                                         f" missing keys {sorted(set(RECORD_SHAPE) - keys)}")
                        raise ValueError(f"line {line} is neither a record nor the summary{named}")
        except (OSError, ValueError, TypeError) as exc:
            raise SchemaError(f"trace {path}: {exc}") from exc
        return trace


# ---------------------------------------------------------------------------
# Instance JSON (external interface; unknown fields rejected)
# ---------------------------------------------------------------------------

_INSTANCE_FIELDS = {"points", "matrix", "problem", "root", "M", "facilities", "requests"}


def instance_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise SchemaError("an instance is a JSON object")
    unknown = set(doc) - _INSTANCE_FIELDS
    if unknown:
        raise SchemaError(f"unknown instance fields: {sorted(unknown)}")
    if ("points" in doc) == ("matrix" in doc):
        raise SchemaError("exactly one of 'points' or 'matrix' is required")
    if "problem" not in doc or "requests" not in doc:
        raise SchemaError("instance needs 'problem' and 'requests'")
    kind = "points" if "points" in doc else "matrix"
    m = build_metric(doc[kind], kind)
    fmt = problem_format(doc["problem"])
    bounds = {POINT: m.n}
    shapes = {"root": (POINT, None), "M": (float, None), "requests": list,
              "facilities": ([{"point": POINT, "cost": float}], None)}
    for key, shape in shapes.items():
        if not _fits(doc.get(key), shape, bounds):
            raise SchemaError(f"instance field {key} has the wrong type or range")
    for i, raw in enumerate(doc["requests"]):
        if not _fits(raw, fmt.shape, bounds):
            raise SchemaError(f"malformed request {i}: {raw!r}")
    facilities = doc.get("facilities")
    return m, RequestSequence(
        problem=doc["problem"],
        requests=tuple(map(fmt.parse, doc["requests"])),
        root=doc.get("root"),
        M=doc.get("M"),
        facilities=None if facilities is None else tuple((f["point"], float(f["cost"])) for f in facilities),
    )


def load_instance(path):
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def instance_to_dict(m: MetricSpace, seq: RequestSequence, points=None) -> dict:
    doc = {"problem": seq.problem, "requests": [list(r) if isinstance(r, tuple) else r for r in seq.requests]}
    if points is not None:
        doc["points"] = [list(map(float, p)) for p in points]
    else:
        doc["matrix"] = m.d.tolist()
    if seq.root is not None:
        doc["root"] = seq.root
    if seq.M is not None:
        doc["M"] = seq.M
    if seq.facilities is not None:
        doc["facilities"] = [{"point": p, "cost": c} for p, c in seq.facilities]
    return doc

