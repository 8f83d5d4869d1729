"""Metric spaces, request sequences, solutions and run traces.

Everything downstream works on a finite metric (symmetric distance matrix with
zero diagonal, triangle inequality, minimum distance between distinct positions
normalized to 1).  Algorithms never look at the whole matrix online; they read
rows of arrived requests only, but the adversary's full metric is materialized
up front for generators and oracles.

Distance classes are computed with exact binary thresholds: ``class(x) = j``
iff ``2^j <= x < 2^(j+1)``, via ``math.frexp`` (powers of two are exactly
representable, so no epsilon is involved).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .errors import (
    AsymmetricInput,
    NegativeDistance,
    SchemaError,
    TriangleViolation,
)

# Relative and absolute float slack of every bound check.
RTOL = 1e-9
ATOL = 1e-12


def exceeds(lhs: float, bound: float, atol: float = ATOL) -> bool:
    """True when lhs is over bound beyond float slack; NaN on either side is over."""
    return not lhs <= bound * (1 + RTOL) + atol


def floor_log2(x: float) -> int:
    """Exact floor(log2 x) for x > 0 (frexp gives x = m * 2^e, m in [0.5, 1))."""
    if x <= 0:
        raise ValueError("floor_log2 needs a positive argument")
    return math.frexp(x)[1] - 1


def pow2(j: int) -> float:
    return math.ldexp(1.0, j)


class UnionFind:
    """Array-based union-find with path halving; used by every online run."""

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
    """
    if s == t:
        return math.inf
    cap = {u: dict(nbrs) for u, nbrs in capacity.items()}
    flow = 0
    while flow < limit:
        # BFS for an augmenting path
        pred = {s: None}
        queue = [s]
        while queue and t not in pred:
            u = queue.pop(0)
            for v, c in cap.get(u, {}).items():
                if c > 0 and v not in pred:
                    pred[v] = u
                    queue.append(v)
        if t not in pred:
            break
        path = []
        v = t
        while pred[v] is not None:
            path.append((pred[v], v))
            v = pred[v]
        aug = min(cap[u][v] for u, v in path)  # the bottleneck
        for u, v in path:
            cap[u][v] -= aug
            cap.setdefault(v, {}).setdefault(u, 0)
            cap[v][u] += aug
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


def _validate_matrix(d: np.ndarray) -> None:
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise SchemaError("distance matrix must be square")
    if np.any(d < 0):
        u, v = map(int, np.argwhere(d < 0)[0])
        raise NegativeDistance(f"d({u},{v}) < 0")
    if np.any(np.diag(d) != 0):
        raise SchemaError("nonzero diagonal entry")
    if not np.array_equal(d, d.T):
        u, v = map(int, np.argwhere(d != d.T)[0])
        raise AsymmetricInput(f"d({u},{v}) != d({v},{u})")
    n = d.shape[0]
    tol = RTOL * max(1.0, float(d.max(initial=0.0)))
    # O(n^3) scan with a reused buffer; instances are desk scale.
    buf = np.empty_like(d)
    for v in range(n):
        np.add.outer(d[:, v], d[v, :], out=buf)
        np.subtract(d, buf, out=buf)
        if buf.max() > tol:
            u, w = map(int, np.argwhere(buf > tol)[0])
            raise TriangleViolation(u, v, w, float(buf[u, w]))


def build_metric(raw) -> MetricSpace:
    """Build a MetricSpace from a square distance matrix or a 2-D point list.

    Square symmetric nonnegative zero-diagonal input is taken as a matrix;
    anything else is a point list inducing Euclidean distances.  Distances are
    divided by the minimum distinct-pair distance so that it becomes exactly 1
    (coincident points stay at 0).  Idempotent on already-normalized input.
    """
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"not an array of numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise SchemaError(f"entry {tuple(np.argwhere(~np.isfinite(arr))[0].tolist())} is not finite")
    # Square input with a zero diagonal is taken as a matrix; asymmetry or
    # negative entries in that shape are input errors, not point coordinates.
    as_matrix = (
        arr.ndim == 2 and arr.shape[0] == arr.shape[1] and not np.any(np.diag(arr))
    )
    if as_matrix:
        d = arr.copy()
    else:
        if arr.ndim != 2:
            raise SchemaError("points must be a 2-D array")
        diff = arr[:, None, :] - arr[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        d = (d + d.T) / 2.0  # force exact symmetry
    _validate_matrix(d)
    positive = d[d > 0]
    if positive.size:
        mind = float(positive.min())
        d = d / mind
        scale = 1.0 / mind
    else:
        scale = 1.0
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
    rooted: bool = False      # every request is served from seq.root
    paired: bool = False      # a request is an (s, t, ...) pair
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
    """Bought plus this request's rented edges join its pair, or it to the root."""
    ends = seq.request_points(idx)
    a, b = ends if len(ends) == 2 else (ends[0], seq.root)
    if a == b or base.connected(a, b):
        return True
    # rents are per-request direct edges; splice them on top of the bought components
    reach = {base.find(a)}
    changed = True
    while changed:
        changed = False
        for (u, v) in sol.rented.get(idx, ()):
            ru, rv = base.find(u), base.find(v)
            if (ru in reach) != (rv in reach):
                reach.update((ru, rv))
                changed = True
    return base.find(b) in reach


def _has_flow(sol, seq, m, base, idx):
    """R edge-disjoint s-t paths, bought copies counted."""
    s, t, r = seq.requests[idx]
    if s == t or m.coincident(s, t):
        return True
    return max_flow(sol.capacity(), s, t, limit=r) >= r


def _paid_or_joined(sol, seq, m, base, idx):
    i = seq.requests[idx][0]
    return idx in sol.penalties_paid or base.connected(i, seq.root) or m.coincident(i, seq.root)


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
    "SteinerTree": RequestFormat(_POINT, _connected, rooted=True),
    "SteinerForest": RequestFormat(_PAIR, _connected, paired=True),
    "SteinerNetwork": RequestFormat({**_PAIR, "R": int}, _has_flow, paired=True),
    "SROB": RequestFormat(_POINT, _connected, rooted=True, needs_M=True),
    "MROB": RequestFormat(_PAIR, _connected, paired=True, needs_M=True),
    "CFL": RequestFormat(_POINT, _served, rooted=True, needs_M=True, facilities=True),
    "PCST": RequestFormat({**_POINT, "pi": float}, _paid_or_joined, rooted=True),
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
        if (self.root is not None) != fmt.rooted:
            rooted = sorted(name for name, f in PROBLEMS.items() if f.rooted)
            raise SchemaError(f"root must be present exactly for {rooted}")
        if fmt.needs_M and (self.M is None or self.M < 0):
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

    def validate_points(self, n: int) -> None:
        for idx, req in enumerate(self.requests):
            for p in self.request_points(idx):
                if not (0 <= p < n):
                    raise SchemaError(f"request {idx} references point {p} >= n={n}")
        if self.root is not None and not (0 <= self.root < n):
            raise SchemaError("root index out of range")
        if self.facilities:
            for p, _ in self.facilities:
                if not (0 <= p < n):
                    raise SchemaError(f"facility point {p} >= n={n}")
        fields = PROBLEMS[self.problem].fields
        if "R" in fields:
            for idx, (_, _, r) in enumerate(self.requests):
                if int(r) != r or r < 1:
                    raise SchemaError(f"request {idx}: R must be an integer >= 1")
        if "pi" in fields and any(pi < 0 for _, pi in self.requests):
            raise SchemaError("penalties must be >= 0")

    def request_points(self, idx: int):
        req = self.requests[idx]
        fmt = PROBLEMS[self.problem]
        if len(fmt.fields) == 1:
            return (req,)
        return (req[0], req[1]) if fmt.paired else (req[0],)

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
        self.rented = {}  # request idx -> [(u, v), ...]
        self.penalties_paid = set()
        self.opened = set()
        self.assignments = {}  # request idx -> facility point
        self._capacity = {}  # bought multiplicities as symmetric {u: {v: cap}}

    def buy(self, u: int, v: int, copies: int = 1) -> None:
        key = (u, v) if u <= v else (v, u)
        self.bought[key] = self.bought.get(key, 0) + copies
        for x, y in (key, key[::-1]):
            row = self._capacity.setdefault(x, {})
            row[y] = row.get(y, 0) + copies

    def rent(self, idx: int, u: int, v: int) -> None:
        self.rented.setdefault(idx, []).append((u, v) if u <= v else (v, u))

    def bought_cost(self, m: MetricSpace) -> float:
        return sum(m.dist(u, v) * mult for (u, v), mult in self.bought.items())

    def rent_cost(self, m: MetricSpace) -> float:
        return sum(m.dist(u, v) for edges in self.rented.values() for (u, v) in edges)

    def bought_components(self, n: int) -> UnionFind:
        uf = UnionFind(n)
        for (u, v) in self.bought:
            uf.union(u, v)
        return uf

    def capacity(self) -> dict:
        """Bought multiplicities as max_flow's symmetric {u: {v: cap}}; kept by `buy`, read-only."""
        return self._capacity


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
    out.buy = (seq.M if fmt.needs_M else 1.0) * sol.bought_cost(m)
    out.rent = sol.rent_cost(m)
    if "pi" in fmt.fields:
        out.penalty = sum(seq.requests[i][1] for i in sol.penalties_paid)
    if fmt.facilities:
        costs = dict(seq.facilities)
        out.opening = sum(costs[x] for x in sol.opened)
        out.rent = sum(
            m.dist(seq.requests[i], sol.assignments[i]) for i in sol.assignments
        )
    return out


def check_feasible(sol: MultiGraphSolution, seq: RequestSequence, m: MetricSpace):
    """Per-request feasibility booleans against the final solution state."""
    base = sol.bought_components(m.n)
    feasible = PROBLEMS[seq.problem].feasible
    return [feasible(sol, seq, m, base, idx) for idx in range(len(seq.requests))]


# ---------------------------------------------------------------------------
# Run traces
# ---------------------------------------------------------------------------

@dataclass
class RequestRecord:
    """One trace row per request; problem-specific fields stay None when unused."""

    idx: int
    decision: str                      # buy | rent | penalty | virtual | bc | auto
    points: tuple
    a: Optional[float] = None
    klass: Optional[int] = None        # floor(log2 a); None for coincident requests
    cost: float = 0.0
    witnesses: tuple = ()              # witness request indices (s-side for MROB)
    witnesses_t: tuple = ()            # MROB: t-side witness set
    attach: Optional[int] = None       # z / x: the point we connected or assigned to
    edges: tuple = ()                  # ((u, v, level), ...) for BC-style buys
    rho: Optional[float] = None        # PCST cost share
    pi: Optional[float] = None
    sigma_hat: Optional[int] = None    # CFL virtual assignment
    sigma: Optional[int] = None        # CFL actual assignment
    opened: Optional[int] = None       # CFL facility opened by this request
    rent_endpoint: Optional[str] = None  # MROB: which endpoint entered R_j
    level: Optional[int] = None        # SN: instantiation index l
    copies: Optional[int] = None       # SN: 2^(l+1)
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
    "idx": REQUEST, "points": [POINT], "witnesses": [REQUEST], "witnesses_t": [REQUEST],
    "attach": (POINT, None), "edges": [[POINT, POINT, (int, None)]],
    "sigma_hat": (POINT, None), "sigma": (POINT, None), "opened": (POINT, None),
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
                            row, points=tuple(row["points"]), witnesses=tuple(row["witnesses"]),
                            witnesses_t=tuple(row["witnesses_t"]), edges=tuple(map(tuple, row["edges"])),
                        )))
                    else:
                        raise ValueError(f"line {line} is neither a record nor the summary")
        except (OSError, ValueError, TypeError) as exc:
            raise SchemaError(f"trace {path}: {exc}") from exc
        return trace


# ---------------------------------------------------------------------------
# Instance JSON (external interface; unknown fields rejected)
# ---------------------------------------------------------------------------

_INSTANCE_FIELDS = {"points", "matrix", "problem", "root", "M", "facilities", "requests"}


def instance_from_dict(doc: dict):
    unknown = set(doc) - _INSTANCE_FIELDS
    if unknown:
        raise SchemaError(f"unknown instance fields: {sorted(unknown)}")
    if ("points" in doc) == ("matrix" in doc):
        raise SchemaError("exactly one of 'points' or 'matrix' is required")
    if "problem" not in doc or "requests" not in doc:
        raise SchemaError("instance needs 'problem' and 'requests'")
    m = build_metric(doc.get("points", doc.get("matrix")))
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
    seq = RequestSequence(
        problem=doc["problem"],
        requests=tuple(map(fmt.parse, doc["requests"])),
        root=doc.get("root"),
        M=doc.get("M"),
        facilities=None if facilities is None else tuple((f["point"], float(f["cost"])) for f in facilities),
    )
    seq.validate_points(m.n)
    return m, seq


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

