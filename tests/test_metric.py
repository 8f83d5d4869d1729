import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import floyd_warshall

from conftest import ref_max_flow, ref_validate_matrix
from ondesign import metric
from ondesign.errors import OndesignError, SchemaError
from ondesign.generators import gen_euclidean, gen_graph_metric
from ondesign.metric import (
    RTOL,
    MetricSpace,
    MultiGraphSolution,
    RequestSequence,
    build_metric,
    check_feasible,
    floor_log2,
    instance_from_dict,
    max_flow,
    solution_cost,
)


def test_build_metric_scales_min_distance_to_one():
    m = build_metric([[0.0, 3.0], [3.0, 0.0]], "matrix")
    assert m.dist(0, 1) == 1.0
    assert m.scale == pytest.approx(1 / 3)


def test_build_metric_identity_case():
    m = build_metric([[0, 1], [1, 0]], "matrix")
    assert m.dist(0, 1) == 1.0
    assert m.scale == 1.0


def test_build_metric_triangle_violation():
    with pytest.raises(SchemaError, match=r"^d\(0,2\) > d\(0,1\) \+ d\(1,2\) by 1$"):
        build_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "matrix")


def test_build_metric_triangle_violation_through_coincident_points():
    # a zero distance is an edge of the closure, not a missing one
    with pytest.raises(SchemaError, match=r"^d\(0,2\) > d\(0,1\) \+ d\(1,2\) by 2$"):
        build_metric([[0, 0, 3], [0, 0, 1], [3, 1, 0]], "matrix")


def test_build_metric_accepts_slack_that_adds_up_over_hops():
    # Points 0..3 on a line, each two-hop distance a over its path: every
    # triangle is within tolerance (slack a), the three-hop d(0,3) is 2a over.
    a = 2e-9
    d = np.array([[0, 1, 2 + a, 3 + 2 * a], [1, 0, 1, 2 + a],
                  [2 + a, 1, 0, 1], [3 + 2 * a, 2 + a, 1, 0]])
    tol = RTOL * d.max()
    assert a <= tol < (d - floyd_warshall(d)).max()
    assert np.array_equal(build_metric(d, "matrix").d, d)


@st.composite
def near_metric_matrices(draw, max_n=12):
    """Symmetric zero-diagonal matrices near the triangle tolerance tol.  The
    base is grid distances (coincident points are common), float Euclidean
    distances (1-4 dimensions, scales up to 1e200: build_metric's certificate
    decides some, the rest fall back) or a chain: points on a line, each
    distance stretched by a * (hops - 1), so that every triangle has slack
    a <= tol while a many-hop path has slack a * (n - 2).  Then entries move
    by multiples of tol / 2, and a few are set to their best one- or many-hop
    detour plus up to two tol."""
    n = draw(st.integers(0, max_n))
    base = draw(st.sampled_from(["chain", "grid", "euclidean"]))
    if base == "chain":
        pos = np.sort(np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float))
        hops = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        span = float(pos.max(initial=0.0) - pos.min(initial=0.0))
        a = draw(st.sampled_from([0.5, 0.9, 1.0])) * RTOL * max(1.0, span)
        d = np.abs(np.subtract.outer(pos, pos)) + a * np.maximum(hops - 1, 0)
        order = draw(st.permutations(range(n)))
        d = d[np.ix_(order, order)]
    elif base == "euclidean":
        dims = draw(st.integers(1, 4))
        coords = draw(st.lists(st.floats(-1, 1), min_size=n * dims, max_size=n * dims))
        pts = np.array(coords, dtype=float).reshape(n, dims)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1)) * draw(st.sampled_from([1e-3, 1.0, 7.0, 1e3, 1e100, 1e200]))
    else:
        cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
        pts = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float).reshape(n, 2)
        diff = np.abs(pts[:, None, :] - pts[None, :, :])
        d = diff.sum(axis=-1) if draw(st.booleans()) else np.sqrt((diff * diff).sum(axis=-1))
        d *= draw(st.sampled_from([0.5, 1.0, 3.0, 1e3]))
    half_tol = RTOL * max(1.0, float(d.max(initial=0.0))) / 2
    if draw(st.booleans()):
        iu = np.triu_indices(n, 1)
        steps = st.sampled_from([0, 0, 0, -1, 1, -2, 2, 3])
        moves = draw(st.lists(steps, min_size=len(iu[0]), max_size=len(iu[0])))
        d[iu] = np.maximum(d[iu] + half_tol * np.array(moves), 0.0)
        d.T[iu] = d[iu]
    for _ in range(draw(st.integers(0, 3)) if n >= 3 else 0):
        u, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        detour = d[u] + d[:, w]
        detour[[u, w]] = np.inf
        if draw(st.booleans()):  # many hops: the shortest u-w path without the edge itself
            c = d.copy()
            c[u, w] = c[w, u] = np.inf
            for k in range(n):
                c = np.minimum(c, c[:, [k]] + c[[k], :])
            detour = c[u, w]
        nudge = draw(st.sampled_from([-4, -2, -1, 0, 1, 2, 3, 4])) * half_tol
        d[u, w] = d[w, u] = max(float(np.min(detour)) + nudge, 0.0)
    return d


@settings(max_examples=400, deadline=None)
@given(near_metric_matrices())
def test_build_metric_validates_as_the_full_scan(d):
    try:
        ref_validate_matrix(d.copy())
    except OndesignError as exc:
        with pytest.raises(OndesignError) as got:
            build_metric(d, "matrix")
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        build_metric(d, "matrix")


def _count_scans(monkeypatch):
    """A list that gains one entry per triangle-scan call in `metric`."""
    calls = []
    scan = metric._triangle_scan

    def counted(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(metric, "_triangle_scan", counted)
    return calls


def test_euclidean_metrics_skip_the_scan(monkeypatch):
    """The certificate decides a point list and its distance matrix, at any
    scale and without an overflow warning; a graph closure falls back."""
    calls = _count_scans(monkeypatch)
    m, pts = gen_euclidean(30, seed=3)
    assert calls == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e-3, 1e200, 1e300):
            np.testing.assert_allclose(build_metric(m.d * scale, "matrix").d, m.d, rtol=1e-12)
        build_metric(pts * 1e150, "points")
    assert calls == []
    gen_graph_metric(40, seed=3)
    assert calls == [1]


@pytest.mark.parametrize("block", [1, 2 * 10**2, 3 * 10**2, metric.DISTANCE_BLOCK])
def test_scan_blocks_name_the_first_violation(monkeypatch, block):
    """Ten points on a line, point 5 between 4 and 6 and point 8 between 0
    and 2, with d(4,6) and d(0,2) each one over their two hops: only middle
    points 5 and 8 see a violation.  With one, two or three middle points per
    block, 5 is last in a later block; with all ten in one block, 8 comes
    first in (u, w) order.  The scan names 5 as the one-pivot reference does."""
    pos = np.array([0.0, 10, 2, 20, 30, 31, 32, 40, 1, 50])
    d = np.abs(np.subtract.outer(pos, pos))
    for u, w in ((4, 6), (0, 2)):
        d[u, w] = d[w, u] = d[u, w] + 1
    with pytest.raises(SchemaError) as exc:
        ref_validate_matrix(d.copy())
    assert str(exc.value) == "d(4,6) > d(4,5) + d(5,6) by 1"
    monkeypatch.setattr(metric, "DISTANCE_BLOCK", block)
    calls = _count_scans(monkeypatch)
    with pytest.raises(SchemaError, match=f"^{re.escape(str(exc.value))}$"):
        build_metric(d, "matrix")
    assert calls == [1]


@pytest.mark.parametrize("over, fails", [(1.01, True), (0.25, False)])
def test_euclidean_matrix_with_one_entry_past_its_detour(monkeypatch, over, fails):
    """One entry of a float Euclidean matrix set to its best one-hop detour
    plus over * tol: the scan decides it as the full scan does."""
    d = gen_euclidean(30, seed=3)[0].d.copy()
    u, w = 0, 1
    detour = d[u] + d[:, w]
    detour[[u, w]] = np.inf
    tol = RTOL * d.max()
    d[u, w] = d[w, u] = detour.min() + over * tol
    assert d.max() * RTOL == tol  # the moved entry is not the largest: tol is build_metric's
    calls = _count_scans(monkeypatch)
    if fails:
        with pytest.raises(SchemaError) as exc:
            ref_validate_matrix(d.copy())
        v = int(np.argmin(detour))
        assert str(exc.value).startswith(f"d({u},{w}) > d({u},{v}) + d({v},{w}) by ")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(exc.value))}$"):
            build_metric(d, "matrix")
    else:
        ref_validate_matrix(d.copy())
        assert np.array_equal(build_metric(d, "matrix").d, d / d[d > 0].min())
    assert calls == [1]


def test_build_metric_asymmetric_and_negative():
    with pytest.raises(SchemaError, match=r"^d\(0,1\) != d\(1,0\)$"):
        build_metric(np.array([[0.0, 1.0], [2.0, 0.0]]), "matrix")
    with pytest.raises(SchemaError, match=r"^d\(0,1\) < 0$"):
        build_metric(np.array([[0.0, -1.0], [-1.0, 0.0]]), "matrix")


def _late_rows_matrix():
    """Float Euclidean distances of 601 points: the sign and symmetry tests
    go several row blocks deep."""
    m, _ = gen_euclidean(601, seed=5)
    return m.d.copy()


@pytest.mark.parametrize("entries, message", [
    pytest.param({(500, 550): -1.0, (550, 500): -1.0}, "d(500,550) < 0", id="negative pair"),
    pytest.param({(550, 500): -1.0}, "d(550,500) < 0", id="negative below the diagonal"),
    pytest.param({(480, 590): 7.0}, "d(480,590) != d(590,480)", id="asymmetric above the diagonal"),
    pytest.param({(590, 480): 7.0}, "d(480,590) != d(590,480)", id="asymmetric below the diagonal"),
    pytest.param({(590, 3): 7.0, (500, 520): 7.0}, "d(3,590) != d(590,3)", id="mirror in the first block"),
    pytest.param({(480, 590): 7.0, (590, 470): 7.0}, "d(470,590) != d(590,470)", id="mirror first in its block"),
])
def test_late_rows_name_the_first_bad_entry(entries, message):
    d = _late_rows_matrix()
    for (u, v), x in entries.items():
        d[u, v] = x
    with pytest.raises(SchemaError) as exc:
        ref_validate_matrix(d.copy())
    assert str(exc.value) == message
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        build_metric(d, "matrix")


@pytest.mark.parametrize("fields, message", [
    pytest.param({"problem": "SteinerNetwork", "requests": ((0, 1, 0),)},
                 "request 0: R must be an integer >= 1", id="R below 1"),
    pytest.param({"problem": "SteinerNetwork", "requests": ((0, 1, 2), (0, 1, 1.5))},
                 "request 1: R must be an integer >= 1", id="R not an integer"),
    pytest.param({"problem": "PCST", "requests": ((1, 2.0), (1, -1.0)), "root": 0},
                 "penalties must be >= 0", id="negative penalty"),
    pytest.param({"problem": "CFL", "requests": (1,), "root": 0, "M": 1.0},
                 "CFL needs a facilities list", id="no facilities"),
    pytest.param({"problem": "CFL", "requests": (1,), "root": 0, "M": 1.0, "facilities": ((0, 1.0), (1, 0.0))},
                 "CFL root facility must be present with cost 0", id="root facility not free"),
    pytest.param({"problem": "CFL", "requests": (1,), "root": 0, "M": 1.0, "facilities": ((0, 0.0), (1, -1.0))},
                 "facility costs must be >= 0", id="negative facility cost"),
])
def test_request_sequence_rejects_invalid_fields(fields, message):
    """The instance checks the runners rely on: a requirement R that is not an
    integer >= 1, a negative penalty, a CFL instance without facilities or
    without the root at cost 0."""
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        RequestSequence(**fields)


def test_build_metric_points_input():
    m = build_metric([[0.0, 0.0], [0.0, 2.0], [0.0, 3.0]], "points")
    assert m.dist(1, 2) == 1.0  # min distance normalized
    assert m.dist(0, 1) == 2.0


def test_build_metric_points_are_their_broadcast_distances(monkeypatch):
    """A point list's metric is its float Euclidean distances over their
    minimum, bit for bit, in 1-70 dimensions, C or Fortran order and scales
    1e-100 to 1e100; the certificate decides every one."""
    calls = _count_scans(monkeypatch)
    rng = np.random.default_rng(11)
    for dims in range(1, 71):
        pts = rng.standard_normal((int(rng.integers(2, 30)), dims)) * 10.0 ** int(rng.integers(-100, 101))
        if dims % 2:
            pts = np.asfortranarray(pts)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        assert np.array_equal(build_metric(pts, "points").d, d / d[d > 0].min())
    assert calls == []


def test_build_metric_point_blocks_keep_their_bits(monkeypatch):
    """Row blocks of a few rows each sum every entry as the whole broadcast
    does, in C and Fortran order."""
    monkeypatch.setattr(metric, "DISTANCE_BLOCK", 100)
    rng = np.random.default_rng(12)
    for dims in (1, 2, 3, 7, 8, 9, 33, 70):
        pts = rng.standard_normal((int(rng.integers(2, 40)), dims)) * 10.0 ** int(rng.integers(-3, 4))
        if dims % 2:
            pts = np.asfortranarray(pts)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        assert np.array_equal(build_metric(pts, "points").d, d / d[d > 0].min())


def test_build_metric_matrix_blocks_keep_their_bits(monkeypatch):
    """The certificate's row blocks of three rows each decide every matrix as
    the default blocks do: the same scan calls and the same bits, on matrices
    it accepts and on ones it declines, also for one entry in the last rows
    moved by half the tolerance."""
    calls = _count_scans(monkeypatch)
    default = metric.DISTANCE_BLOCK
    rng = np.random.default_rng(13)
    decided = set()
    for n in (2, 3, 17, 64, 299, 300):
        for dims, noise, last in ((2, 0.0, 0), (3, 1e-11, 0), (3, 1e-9, 0), (5, 0.0, 0), (3, 0.0, 0.5)):
            pts = rng.standard_normal((n, dims))
            diff = pts[:, None, :] - pts[None, :, :]
            jitter = rng.standard_normal((n, n))
            d = np.sqrt((diff * diff).sum(axis=-1)) * (1 + noise * (jitter + jitter.T))
            d[-1, -2] = d[-2, -1] = d[-1, -2] + last * RTOL * d.max()
            got = []
            for block in (default, 3 * n):
                monkeypatch.setattr(metric, "DISTANCE_BLOCK", block)
                calls.clear()
                got.append((build_metric(d, "matrix").d.tobytes(), len(calls)))
            assert got[0] == got[1]
            decided.add(got[0][1])
    assert decided == {0, 1}


def test_build_metric_points_stay_near_the_matrix_size():
    # 601 points in 50 dimensions: one n x n x r broadcast would hold 138 MiB
    pts = np.random.default_rng(3).standard_normal((601, 50))
    tracemalloc.start()
    try:
        build_metric(pts, "points")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_build_metric_distance_past_float_range():
    # (1e200)^2 overflows: the distance would be inf, and normalizing gave NaN
    with pytest.raises(SchemaError) as exc:
        build_metric([[0, 0], [1e200, 0], [2e200, 0]], "points")
    assert str(exc.value) == "d(0,1) is not finite"
    # a subnormal minimum distance: every other distance overflows once it is 1
    with pytest.raises(SchemaError) as exc:
        build_metric([[0, 5e-324, 1e300], [5e-324, 0, 1e300], [1e300, 1e300, 0]], "matrix")
    assert str(exc.value) == "d(0,2) is not finite once the minimum distance is scaled to 1"


def test_build_metric_reads_the_kind_it_is_given():
    # square point lists with a zero diagonal are points, not matrices
    two = build_metric([[0, 3], [4, 0]], "points")
    assert two.n == 2 and two.dist(0, 1) == 1.0 and two.scale == pytest.approx(1 / 5)
    cube = build_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], "points")
    assert cube.dist(0, 1) == cube.dist(1, 2) == 1.0 and cube.dist(0, 2) == pytest.approx(np.sqrt(8 / 3))
    with pytest.raises(SchemaError, match="square"):
        build_metric([[0, 1, 2], [1, 0, 1]], "matrix")


def test_build_metric_idempotent_on_normalized():
    """A normalized matrix comes back with its bits, -0.0 included, and scale
    1; one that is not still divides.  No caller's array, list or ndarray of
    either kind, is returned, changed or frozen."""
    pts = np.random.default_rng(5).random((6, 2))
    m1 = build_metric(pts, "points")
    m2 = build_metric(m1.d, "matrix")
    assert m2.d.tobytes() == m1.d.tobytes() and m2.scale == 1.0
    signed = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    for raw, scale in ((signed, 1.0), (signed * 3, 1 / 3)):
        m = build_metric(raw, "matrix")
        assert m.d.tobytes() == signed.tobytes() and m.scale == scale
        assert np.signbit(m.d[0, 1]) and np.signbit(m.d[1, 0])
    for raw, kind in ((signed * 3, "matrix"), (m1.d.copy(), "matrix"), (pts, "points")):
        for given in (raw, raw.tolist()):
            before = np.array(given).tobytes()
            d = build_metric(given, kind).d
            assert np.array(given).tobytes() == before
            if isinstance(given, np.ndarray):
                assert not np.shares_memory(d, given) and given.flags.writeable


def test_coincident_points_allowed():
    m = build_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]], "matrix")
    assert m.coincident(0, 1)
    assert m.dist(0, 2) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(
    # zero coordinates included: a 2x2 point list with a zero diagonal is still
    # read as points, because the caller names the kind
    st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
    min_size=2, max_size=10,
))
def test_normalization_property(points):
    arr = np.asarray(points)
    m = build_metric(arr, "points")
    pos = m.d[m.d > 0]
    if pos.size:
        assert pos.min() == pytest.approx(1.0, abs=1e-12)
        assert pos.min() >= 1.0 - 1e-12


def test_floor_log2_exact_thresholds():
    assert floor_log2(1.0) == 0
    assert floor_log2(2.0) == 1
    assert floor_log2(4.0) == 2
    assert floor_log2(3.9999999) == 1
    assert floor_log2(0.25) == -2
    assert floor_log2(0.9) == -1
    for x in (0.0, -1.0):
        with pytest.raises(ValueError, match="^floor_log2 needs a positive argument$"):
            floor_log2(x)


def test_solution_cost_srob_example():
    # SROB, M=3, bought (0,1) with d=2, rent (2,1) with d=5 -> buy 6 rent 5
    d = np.array([[0, 2, 5.0], [2, 0, 5], [5, 5, 0]])
    m = MetricSpace(d=d)
    seq = RequestSequence(problem="SROB", requests=(1, 2), root=0, M=3.0)
    sol = MultiGraphSolution()
    sol.buy(0, 1)
    sol.rent(1, 2, 1)
    cost = solution_cost(sol, seq, m)
    assert cost.buy == 6.0 and cost.rent == 5.0 and cost.total == 11.0


def test_solution_cost_sn_multiplicity():
    m = build_metric([[0, 1], [1, 0]], "matrix")
    seq = RequestSequence(problem="SteinerNetwork", requests=((0, 1, 5),))
    sol = MultiGraphSolution()
    sol.buy(0, 1, copies=8)
    assert solution_cost(sol, seq, m).total == 8.0


def test_solution_cost_pcst_penalty_only():
    m = build_metric([[0, 1], [1, 0]], "matrix")
    seq = RequestSequence(problem="PCST", requests=((1, 2.5),), root=0)
    sol = MultiGraphSolution()
    sol.penalties_paid.add(0)
    assert solution_cost(sol, seq, m).total == 2.5


def _cfl_with_a_stray_rent():
    seq = RequestSequence(problem="CFL", requests=(1, 2, 3), root=0, M=2.0, facilities=((0, 0.0), (1, 1.5)))
    sol = MultiGraphSolution()
    sol.buy(0, 1)
    sol.opened.add(1)
    sol.assignments.update({0: 1, 1: 0, 2: 1})
    sol.rent(2, 2, 3)
    return seq, sol


def _steiner_tree_with_nothing_rented():
    seq = RequestSequence(problem="SteinerTree", requests=(1, 2, 3), root=0)
    sol = MultiGraphSolution()
    sol.buy(1, 0)
    sol.buy(0, 2)
    sol.buy(3, 2, copies=2)
    return seq, sol


def _pcst_with_no_penalty_paid():
    seq = RequestSequence(problem="PCST", requests=((1, 2.5), (3, 0.75)), root=0)
    sol = MultiGraphSolution()
    sol.buy(0, 1)
    sol.buy(1, 3)
    return seq, sol


@pytest.mark.parametrize("build, expected", [
    # CFL's rent term is the assignment sum alone: the rent edge (2, 3) adds nothing
    (_cfl_with_a_stray_rent,
     '{"buy": 2.0, "opening": 1.5, "penalty": 0.0, "rent": 4.18133458177251, "total": 7.68133458177251}'),
    # an empty rent or penalty sum is the int 0
    (_steiner_tree_with_nothing_rented,
     '{"buy": 7.1407350339519855, "opening": 0.0, "penalty": 0.0, "rent": 0, "total": 7.1407350339519855}'),
    (_pcst_with_no_penalty_paid,
     '{"buy": 3.848001248439177, "opening": 0.0, "penalty": 0, "rent": 0, "total": 3.848001248439177}'),
])
def test_solution_cost_terms_are_pinned(build, expected):
    m = build_metric([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [6.0, 8.0]], "points")
    seq, sol = build()
    assert json.dumps(solution_cost(sol, seq, m).as_dict(), sort_keys=True) == expected


def test_check_feasible_sn_flow():
    m = build_metric([[0, 1], [1, 0]], "matrix")
    seq = RequestSequence(problem="SteinerNetwork", requests=((0, 1, 5),))
    sol = MultiGraphSolution()
    sol.buy(0, 1, copies=8)
    assert check_feasible(sol, seq, m) == [True]
    sol2 = MultiGraphSolution()
    sol2.buy(0, 1, copies=4)
    assert check_feasible(sol2, seq, m) == [False]


def test_check_feasible_pcst_penalty_satisfies():
    m = build_metric([[0, 1], [1, 0]], "matrix")
    seq = RequestSequence(problem="PCST", requests=((1, 1.0),), root=0)
    sol = MultiGraphSolution()
    sol.penalties_paid.add(0)
    assert check_feasible(sol, seq, m) == [True]


def test_max_flow_parallel_edges():
    cap = {0: {1: 3}, 1: {0: 3}}
    assert max_flow(cap, 0, 1) == 3
    cap2 = {0: {1: 1, 2: 2}, 1: {0: 1, 2: 1}, 2: {0: 2, 1: 1}}
    assert max_flow(cap2, 0, 1) == 2


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_max_flow_matches_residual_copy_reference(data):
    """The residual overlay on the read-only capacity dict returns what
    Edmonds-Karp on a residual copy returns, limit overshoot included."""
    n = data.draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    cap = {}
    for u, v, k in data.draw(st.lists(st.tuples(node, node, st.integers(0, 4)), max_size=14)):
        if u != v:
            cap.setdefault(u, {})[v] = cap.get(u, {}).get(v, 0) + k
            cap.setdefault(v, {})[u] = cap[u][v]
    frozen = json.dumps(cap)
    s, t = data.draw(node), data.draw(node)
    limit = data.draw(st.sampled_from([math.inf, 1, 2, 3, 5]))
    assert max_flow(cap, s, t, limit=limit) == ref_max_flow(cap, s, t, limit=limit)
    assert json.dumps(cap) == frozen


def test_max_flow_reroutes_through_a_reverse_arc():
    # the first augmenting path 0-4-3-8 sends a unit over 4->3; the last two
    # units go 0-2-3-4-7-5-8 over 3->4, whose capacity 1 only fits them once
    # the residual of 3->4 counts the unit on 4->3 as cancellable
    cap = {4: {0: 1, 7: 2, 3: 1}, 0: {4: 1, 2: 9}, 5: {6: 2, 8: 3, 7: 3}, 6: {5: 2},
           3: {2: 3, 8: 2, 4: 1}, 2: {3: 3, 0: 9, 1: 3}, 7: {4: 2, 5: 3}, 8: {3: 2, 5: 3}, 1: {2: 3}}
    assert max_flow(cap, 0, 8) == ref_max_flow(cap, 0, 8) == 4


def test_request_sequence_root_rules():
    with pytest.raises(SchemaError):
        RequestSequence(problem="SteinerForest", requests=((0, 1),), root=0)
    with pytest.raises(SchemaError):
        RequestSequence(problem="SteinerTree", requests=(1,))
    with pytest.raises(SchemaError):
        RequestSequence(problem="SROB", requests=(1,), root=0)  # missing M


def test_request_pairs_pair_one_point_requests_with_the_root():
    sn = RequestSequence(problem="SteinerNetwork", requests=((0, 1, 2), (2, 3, 1)))
    assert sn.pairs == ((0, 1), (2, 3))
    pcst = RequestSequence(problem="PCST", requests=((1, 0.5), (0, 2.0)), root=0)
    assert pcst.pairs == ((1, 0), (0, 0))
    srob = RequestSequence(problem="SROB", requests=(3, 1), root=2, M=1.0)
    assert srob.pairs == ((3, 2), (1, 2))
    assert srob.pairs is srob.pairs  # computed once: feasibility reads it per request
    assert RequestSequence(problem="SteinerTree", requests=(), root=0).pairs == ()


def test_instance_schema_rejects_unknown_fields():
    doc = {
        "matrix": [[0, 1], [1, 0]],
        "problem": "SteinerTree",
        "root": 0,
        "requests": [1],
        "bogus": 1,
    }
    with pytest.raises(SchemaError):
        instance_from_dict(doc)


_BASE = {"matrix": [[0, 1], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [1]}


@pytest.mark.parametrize("changes, message", [
    pytest.param({"bogus": 1, "extra": 2}, "unknown instance fields: ['bogus', 'extra']", id="unknown fields"),
    pytest.param({"root": "0"}, "instance field root has the wrong type or range", id="root not a point"),
    pytest.param({"M": math.nan}, "instance field M has the wrong type or range", id="M not finite"),
    pytest.param({"requests": [1, 5]}, "malformed request 1: 5", id="request outside the points"),
    pytest.param({"problem": "Steiner"}, "unknown problem 'Steiner'", id="unknown problem"),
    pytest.param({"problem": "SteinerForest", "requests": [[0, 1]]},
                 "root must be present exactly for ['CFL', 'PCST', 'SROB', 'SteinerTree']", id="paired with root"),
    pytest.param({"matrix": [[0, "a"], ["a", 0]]},
                 "not an array of numbers: could not convert string to float: 'a'", id="matrix of strings"),
    pytest.param({"matrix": [[0, 1], [1, 1]]}, "nonzero diagonal entry", id="nonzero diagonal"),
])
def test_instance_boundary_messages(changes, message):
    """Each invalid instance names its own fault, word for word."""
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        instance_from_dict({**_BASE, **changes})


def test_instance_schema_points_matrix_exclusive():
    base = {"problem": "SteinerTree", "root": 0, "requests": [1]}
    with pytest.raises(SchemaError):
        instance_from_dict({**base, "points": [[0, 0], [1, 0]], "matrix": [[0, 1], [1, 0]]})
    with pytest.raises(SchemaError):
        instance_from_dict(base)


def test_instance_roundtrip():
    doc = {
        "points": [[0, 0], [1, 0], [0, 1]],
        "problem": "SROB",
        "root": 0,
        "M": 2.0,
        "requests": [1, 2],
    }
    m, seq = instance_from_dict(doc)
    assert m.n == 3 and seq.M == 2.0 and seq.requests == (1, 2)


def test_instance_bad_point_index():
    doc = {"matrix": [[0, 1], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [5]}
    with pytest.raises(SchemaError):
        instance_from_dict(doc)


def test_trace_jsonl_roundtrip(tmp_path):
    from ondesign.steiner import run_greedy_st

    m = build_metric([[0, 1, 3], [1, 0, 2], [3, 2, 0]], "matrix")
    _, trace = run_greedy_st(m, RequestSequence(problem="SteinerTree", requests=(1, 2), root=0))
    path = tmp_path / "t.jsonl"
    trace.to_jsonl(path)
    back = json.loads(path.read_text().splitlines()[0])
    assert back["decision"] == "buy" and back["cost"] == 1.0
    from ondesign.metric import RunTrace

    again = RunTrace.from_jsonl(path, {}, m.n, 2)
    assert [r.cost for r in again.records] == [r.cost for r in trace.records]


def test_coincident_pair_is_served_without_an_edge():
    # MROB records a pair of distinct coincident points "auto", buying nothing
    m = build_metric([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "points")
    seq = RequestSequence(problem="MROB", requests=((0, 1), (1, 2)), M=1.0)
    sol = MultiGraphSolution()
    sol.rent(1, 1, 2)
    assert check_feasible(sol, seq, m) == [True, True]
    assert check_feasible(MultiGraphSolution(), seq, m) == [True, False]


@pytest.mark.parametrize("rent, served", [
    pytest.param((1, 2), True, id="joins the components"),
    pytest.param((3, 0), True, id="joins them reversed"),
    pytest.param((0, 1), False, id="inside one component"),
    pytest.param((2, 4), False, id="touches one component"),
])
def test_a_rent_edge_serves_when_it_joins_the_two_components(rent, served):
    """Bought edges (0,1) and (2,3) make two components and leave point 4
    alone; request (0, 3) is served by a rent edge with one end in each."""
    m = build_metric([[0.0], [1.0], [3.0], [4.0], [9.0]], "points")
    seq = RequestSequence(problem="MROB", requests=((0, 3),), M=1.0)
    sol = MultiGraphSolution()
    sol.buy(0, 1)
    sol.buy(2, 3)
    sol.rent(0, *rent)
    assert check_feasible(sol, seq, m) == [served]
    assert solution_cost(sol, seq, m).rent == m.dist(*rent)
