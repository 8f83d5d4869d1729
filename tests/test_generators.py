import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from ondesign.errors import SchemaError
from ondesign.exact import dreyfus_wagner_st
from ondesign.generators import gen_diamond_lb, gen_euclidean, gen_graph_metric, gen_requests
from ondesign.metric import build_metric, solution_cost
from ondesign.steiner import run_greedy_st
from ondesign.verify import run_problem


def test_gen_euclidean_deterministic():
    m1, p1 = gen_euclidean(10, seed=42)
    m2, p2 = gen_euclidean(10, seed=42)
    assert np.array_equal(m1.d, m2.d) and np.array_equal(p1, p2)
    m3, _ = gen_euclidean(10, seed=43)
    assert not np.array_equal(m1.d, m3.d)


def test_gen_euclidean_normalized():
    for seed in range(5):
        m, _ = gen_euclidean(12, seed=seed)
        pos = m.d[m.d > 0]
        assert pos.min() == pytest.approx(1.0)
        # round-trips through build_metric untouched
        again = build_metric(m.d, "matrix")
        assert np.allclose(again.d, m.d)


def test_gen_euclidean_tiny():
    m, _ = gen_euclidean(1, seed=0)
    assert m.n == 1
    m2, _ = gen_euclidean(2, seed=0)
    assert m2.dist(0, 1) == pytest.approx(1.0)


def test_gen_graph_metric_valid():
    for seed in range(4):
        m = gen_graph_metric(12, density=0.2, seed=seed)
        assert np.isfinite(m.d).all()  # connected
        again = build_metric(m.d, "matrix")
        assert np.allclose(again.d, m.d)


def test_gen_requests_determinism_and_shapes():
    m, _ = gen_euclidean(10, seed=1)
    for problem in ("SteinerTree", "SteinerForest", "SteinerNetwork", "SROB", "MROB", "PCST", "CFL"):
        a = gen_requests(problem, m, 6, 7, {"M": 2.0, "R_max": 4, "n_facilities": 3})
        b = gen_requests(problem, m, 6, 7, {"M": 2.0, "R_max": 4, "n_facilities": 3})
        assert a.requests == b.requests
        points = [p for pair in a.pairs for p in pair]
        points += [p for p, _ in a.facilities or ()] + ([] if a.root is None else [a.root])
        assert all(0 <= p < m.n for p in points)
        if problem == "SteinerNetwork":
            assert all(1 <= r <= 4 for _, _, r in a.requests)
        if problem == "PCST":
            assert all(0 <= pi <= 2 * m.diameter() for _, pi in a.requests)
        sol, trace = run_problem(m, a)
        assert solution_cost(sol, a, m).total >= 0.0


def test_gen_requests_sn_rmax_one():
    m, _ = gen_euclidean(6, seed=2)
    seq = gen_requests("SteinerNetwork", m, 5, 3, {"R_max": 1})
    assert all(r == 1 for _, _, r in seq.requests)


def test_gen_requests_count_zero():
    m, _ = gen_euclidean(5, seed=0)
    seq = gen_requests("SteinerTree", m, 0, 0)
    assert seq.requests == ()


def test_diamond_depth_zero():
    m, seq, info = gen_diamond_lb(0)
    sol, trace = run_greedy_st(m, seq)
    assert trace.total_cost() == pytest.approx(info["opt"])  # ratio 1


def test_diamond_depth_one():
    m, seq, info = gen_diamond_lb(1)
    assert m.n == 4  # path 0,1,2 plus one twin
    sol, trace = run_greedy_st(m, seq)
    ratio = trace.total_cost() / info["opt"]
    assert ratio == pytest.approx(1.5)
    # exhaustive check against the exact oracle
    opt = dreyfus_wagner_st(m, set(seq.requests) | {0})
    assert opt == pytest.approx(info["opt"])


def test_diamond_ratios_strictly_increase():
    prev = 0.0
    for depth in range(1, 6):
        m, seq, info = gen_diamond_lb(depth)
        _, trace = run_greedy_st(m, seq)
        ratio = trace.total_cost() / info["opt"]
        assert ratio == pytest.approx(1 + depth / 2)
        assert ratio > prev
        prev = ratio


def test_diamond_depth_cap():
    with pytest.raises(SchemaError, match="^depth 11 > 10$"):
        gen_diamond_lb(11)
    with pytest.raises(SchemaError, match="^depth must be >= 0$"):
        gen_diamond_lb(-1)


def diamond_reference(depth):
    """The depth-d diamond's closure as the graph's all-pairs Dijkstra,
    symmetrized, and its adversarial request order."""
    span = 2**depth
    rows, cols, vals = [], [], []

    def edge(u, v, w):
        rows.append(u)
        cols.append(v)
        vals.append(w)

    for i in range(span):
        edge(i, i + 1, 1.0)
    nid = span + 1
    for level in range(1, depth + 1):
        step = 2 ** (depth - level + 1)
        for a in range(0, span, step):
            edge(a, nid, float(step // 2))
            edge(nid, a + step, float(step // 2))
            nid += 1
    g = csr_matrix((vals + vals, (rows + cols, cols + rows)), shape=(nid, nid))
    closure = shortest_path(g, method="D", directed=False)
    requests = [span]
    for level in range(1, depth + 1):
        gap = 2 ** (depth - level)
        requests.extend(range(gap, span, 2 * gap))
    return (closure + closure.T) / 2.0, tuple(requests)


@pytest.mark.parametrize("depth", range(11))
def test_diamond_closed_form_is_the_dijkstra_closure(depth):
    closure, requests = diamond_reference(depth)
    m, seq, info = gen_diamond_lb(depth)
    assert m.d.dtype == closure.dtype and m.d.tobytes() == closure.tobytes()
    assert m.d.flags.c_contiguous and not m.d.flags.writeable and m.scale == 1.0
    assert (seq.problem, seq.requests, seq.root) == ("SteinerTree", requests, 0)
    assert info == {"k": len(requests) + 1, "opt": float(2**depth), "depth": depth}


def test_diamond_depth_ten_traced_peak():
    # the all-pairs Dijkstra and its symmetrized copy peaked at 64.4 MiB
    tracemalloc.start()
    try:
        gen_diamond_lb(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_diamond_closure_passes_build_metric():
    # generated metrics revalidate unchanged (triangle, symmetry, min = 1)
    for depth in (2, 4):
        m, _, _ = gen_diamond_lb(depth)
        again = build_metric(m.d, "matrix")
        assert np.array_equal(again.d, m.d) and again.scale == 1.0


def test_single_terminal_ratio_is_one():
    m, _ = gen_euclidean(3, seed=6)
    seq = gen_requests("SteinerTree", m, 1, 11, {})
    sol, trace = run_problem(m, seq)
    opt = dreyfus_wagner_st(m, set(seq.requests) | {0})
    cost = solution_cost(sol, seq, m).total
    if opt > 0:
        assert cost / opt == 1.0
