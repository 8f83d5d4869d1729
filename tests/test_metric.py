import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_max_flow
from ondesign.errors import AsymmetricInput, SchemaError, TriangleViolation
from ondesign.metric import (
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
    with pytest.raises(TriangleViolation):
        build_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "matrix")


def test_build_metric_asymmetric_and_negative():
    with pytest.raises(AsymmetricInput):
        build_metric(np.array([[0.0, 1.0], [2.0, 0.0]]), "matrix")
    from ondesign.errors import NegativeDistance

    with pytest.raises(NegativeDistance):
        build_metric(np.array([[0.0, -1.0], [-1.0, 0.0]]), "matrix")


def test_build_metric_points_input():
    m = build_metric([[0.0, 0.0], [0.0, 2.0], [0.0, 3.0]], "points")
    assert m.dist(1, 2) == 1.0  # min distance normalized
    assert m.dist(0, 1) == 2.0


def test_build_metric_reads_the_kind_it_is_given():
    # square point lists with a zero diagonal are points, not matrices
    two = build_metric([[0, 3], [4, 0]], "points")
    assert two.n == 2 and two.dist(0, 1) == 1.0 and two.scale == pytest.approx(1 / 5)
    cube = build_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], "points")
    assert cube.dist(0, 1) == cube.dist(1, 2) == 1.0 and cube.dist(0, 2) == pytest.approx(np.sqrt(8 / 3))
    with pytest.raises(SchemaError, match="square"):
        build_metric([[0, 1, 2], [1, 0, 1]], "matrix")


def test_build_metric_idempotent_on_normalized():
    m1 = build_metric(np.random.default_rng(5).random((6, 2)), "points")
    m2 = build_metric(m1.d, "matrix")
    assert np.array_equal(m1.d, m2.d)
    assert m2.scale == 1.0


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
    for u, v, k in data.draw(st.lists(st.tuples(node, node, st.integers(1, 4)), max_size=14)):
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
    _, trace = run_greedy_st(m, 0, [1, 2])
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
