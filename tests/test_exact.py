import math

import numpy as np
import pytest

from conftest import euclid, line_metric
from ondesign.errors import TooLarge
from ondesign.exact import (
    dreyfus_wagner_st,
    exact_cfl,
    exact_fl,
    exact_mrob,
    exact_pcst,
    exact_sf,
    exact_sn_tiny,
    exact_srob,
    prim_mst,
)
from ondesign.metric import build_metric


def test_dreyfus_line():
    m = line_metric([0, 1, 3])
    assert dreyfus_wagner_st(m, [0, 1, 2]) == 3.0
    assert dreyfus_wagner_st(m, [0, 2]) == 3.0
    assert dreyfus_wagner_st(m, [1]) == 0.0


def test_dreyfus_unit_square_with_center():
    # corners of a unit square plus the free center; distances normalized so
    # corner-center = 1, making the center tree cost exactly 4 (2*sqrt2 raw)
    pts = [[0, 0], [0, 1], [1, 0], [1, 1], [0.5, 0.5]]
    m = build_metric(pts, "points")
    got = dreyfus_wagner_st(m, [0, 1, 2, 3])
    assert got == pytest.approx(4.0)
    # independent brute force: MST over terminals plus optional Steiner vertex
    best = math.inf
    for extra in ([], [4]):
        best = min(best, prim_mst(m.d, [0, 1, 2, 3] + extra))
    assert got == pytest.approx(best)


def test_dreyfus_uses_steiner_vertices():
    pts = [[0, 0], [2, 0], [1, 0.05]]
    m = build_metric(pts, "points")
    assert dreyfus_wagner_st(m, [0, 1]) <= m.dist(0, 1)


def test_dreyfus_cap():
    m = euclid(np.random.default_rng(0).random((20, 2)))
    with pytest.raises(TooLarge):
        dreyfus_wagner_st(m, range(15))


def test_exact_sf_examples():
    m = line_metric([0, 1, 3, 10, 11])
    assert exact_sf(m, [(0, 2)]) == 3.0
    assert exact_sf(m, [(0, 1), (3, 4)]) == 2.0
    # nested collinear pairs share one tree
    m2 = line_metric([0, 1, 2, 3])
    assert exact_sf(m2, [(0, 3), (1, 2)]) == 3.0
    assert exact_sf(m2, []) == 0.0


def test_exact_srob_examples():
    m = line_metric([0, 1, 5])
    assert exact_srob(m, 0, [2], M=2.0) == 5.0   # rent once
    assert exact_srob(m, 0, [2], M=0.5) == 2.5   # buy
    m2 = line_metric([0, 1, 5, 5, 5])
    assert exact_srob(m2, 0, [2, 3, 4], M=2.0) == 10.0


def test_exact_mrob_examples(two_point_metric):
    assert exact_mrob(two_point_metric, [(0, 1)], M=3.0) == 1.0
    assert exact_mrob(two_point_metric, [(0, 1)] * 4, M=3.0) == 3.0
    assert exact_mrob(two_point_metric, [(0, 1)] * 4, M=0.0) == 0.0


def test_exact_pcst_examples():
    m = line_metric([0, 1, 4])
    assert exact_pcst(m, 0, [(2, 1.0)]) == 1.0
    assert exact_pcst(m, 0, [(2, 100.0)]) == 4.0
    m2 = line_metric([0, 1, 4, 4])
    assert exact_pcst(m2, 0, [(2, 3.0), (3, 3.0)]) == 4.0


def test_exact_fl_examples():
    m = line_metric([0, 1, 2])
    assert exact_fl(m, [(0, 0.0)], [1, 2]) == 3.0
    # expensive facility stays closed
    assert exact_fl(m, [(0, 0.0), (2, 100.0)], [1, 2]) == 3.0
    m2 = line_metric([0, 5, 0, 5])
    assert exact_fl(m2, [(0, 0.1), (1, 0.1)], [2, 3]) == pytest.approx(0.2)


def test_exact_cfl_examples():
    m = line_metric([0, 5, 0, 5])
    # M = 0: open both free-ish facilities, no tree cost
    got = exact_cfl(m, [(0, 0.0), (1, 0.1)], [2, 3], M=0.0, r=0)
    assert got == pytest.approx(0.1)
    # big M: serve remotely instead of connecting
    got2 = exact_cfl(m, [(0, 0.0), (1, 0.1)], [3], M=10.0, r=0)
    assert got2 == pytest.approx(5.0)


def test_exact_sn_examples(two_point_metric):
    assert exact_sn_tiny(two_point_metric, [(0, 1)], [2]) == 2.0
    tri = build_metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "matrix")
    assert exact_sn_tiny(tri, [(0, 1)], [2]) == 2.0
    # R=1 reduces to exact_sf
    m3 = euclid(np.random.default_rng(4).random((4, 2)) * 3)
    pairs = [(0, 1), (2, 3)]
    assert exact_sn_tiny(m3, pairs, [1, 1]) == pytest.approx(exact_sf(m3, pairs))
    # no pair of distinct positions: nothing to buy
    coincident = build_metric([[0, 0], [0, 0], [1, 0]], "points")
    assert exact_sn_tiny(coincident, [(0, 1), (2, 2)], [3, 2]) == 0.0


def test_exact_sn_cap(two_point_metric):
    with pytest.raises(TooLarge):
        exact_sn_tiny(two_point_metric, [(0, 1)], [4])


def test_dreyfus_equals_sf_on_rooted_reduction():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        m = euclid(rng.random((n, 2)) * 4)
        terms = sorted(set(int(x) for x in rng.integers(1, n, size=min(4, n - 1))))
        pairs = [(p, 0) for p in terms]
        assert dreyfus_wagner_st(m, set(terms) | {0}) == pytest.approx(exact_sf(m, pairs))


def test_srob_equals_mrob_on_single_source():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        m = euclid(rng.random((n, 2)) * 5)
        terms = [int(x) for x in rng.integers(1, n, size=int(rng.integers(1, 5)))]
        M = float(rng.choice([0.0, 1.0, 2.0, 7.0]))
        pairs = [(p, 0) for p in terms]
        assert exact_srob(m, 0, terms, M) == pytest.approx(exact_mrob(m, pairs, M))


def test_exact_monotone_in_requests():
    m = euclid(np.random.default_rng(12).random((6, 2)) * 4)
    assert exact_sf(m, [(0, 1)]) <= exact_sf(m, [(0, 1), (2, 3)])
    assert exact_srob(m, 0, [1], 2.0) <= exact_srob(m, 0, [1, 2], 2.0)
    assert exact_pcst(m, 0, [(1, 1.0)]) <= exact_pcst(m, 0, [(1, 1.0), (2, 1.0)])


def test_caps_raise():
    m = euclid(np.random.default_rng(13).random((16, 2)))
    for call, message in (
        (lambda: exact_srob(m, 0, [1], 1.0), "points=16 exceeds exact-oracle cap 15"),
        (lambda: exact_mrob(m, [(0, 1)], 1.0), "points=16 exceeds exact-oracle cap 7"),
        (lambda: exact_pcst(m, 0, [(i % 15 + 1, 1.0) for i in range(13)]), "terminals=13 exceeds exact-oracle cap 12"),
        (lambda: exact_fl(m, [(i, 1.0) for i in range(13)], [0]), "facilities=13 exceeds exact-oracle cap 12"),
        (lambda: exact_cfl(m, [(i, 1.0) for i in range(13)], [0], 1.0, 0), "facilities=13 exceeds exact-oracle cap 12"),
        (lambda: exact_sf(m, [(0, 1)] * 9), "pairs=9 exceeds exact-oracle cap 8"),
        (lambda: exact_sf(m, [(2 * i, 2 * i + 1) for i in range(8)]), "terminals=16 exceeds exact-oracle cap 14"),
    ):
        with pytest.raises(TooLarge, match=f"^{message}$"):
            call()


def test_srob_rent_everything_sentinel():
    m = line_metric([0, 1, 5, 7])
    terms = [2, 3, 2]
    got = exact_srob(m, 0, terms, math.inf)
    assert got == pytest.approx(sum(m.dist(i, 0) for i in terms))
    assert exact_mrob(m, [(i, 0) for i in terms], math.inf) == pytest.approx(got)


def test_exact_sf_single_pair_is_distance():
    m = euclid(np.random.default_rng(9).random((5, 2)) * 3)
    assert exact_sf(m, [(1, 3)]) == pytest.approx(m.dist(1, 3))


def test_cfl_dominates_fl_and_rob():
    # a feasible CFL solution induces FL and rent-or-buy solutions
    rng = np.random.default_rng(14)
    for trial in range(12):
        n = int(rng.integers(4, 8))
        m = euclid(rng.random((n, 2)) * 6)
        n_fac = int(rng.integers(1, min(4, n)))
        facs = [(0, 0.0)] + [(int(p), float(rng.uniform(0, 2))) for p in range(1, n_fac)]
        clients = [int(x) for x in rng.integers(0, n, size=int(rng.integers(1, 5)))]
        M = float(rng.choice([0.0, 1.0, 2.0]))
        cfl = exact_cfl(m, facs, clients, M, 0)
        assert exact_fl(m, facs, clients) <= cfl + 1e-9
        assert exact_srob(m, 0, clients, M) <= cfl + 1e-9
