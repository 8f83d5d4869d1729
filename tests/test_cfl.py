import numpy as np
import pytest

from conftest import euclid, line_metric
from ondesign.cfl import (
    cfl_buy_rent_cost,
    check_cfl_cost_split,
    check_cfl_invariants,
    run_cfl,
    run_ofl,
)
from ondesign.errors import NoFacilities
from ondesign.hst import extend_singleton_levels, sample_frt
from ondesign.metric import MetricSpace, RequestSequence, check_feasible, solution_cost
from ondesign.rentorbuy import check_cut_capacity
from ondesign.tree_opt import opt_tree_rob_single
from ondesign.verify import position_reps


def test_ofl_single_client_only_root():
    m = line_metric([0, 1])
    vs = run_ofl(m, [(0, 0.0)], [1], root=0)
    assert vs.assignments == (0,) and vs.cost == 1.0


def test_ofl_opens_cheap_colocated_facility():
    m = line_metric([0, 10])
    vs = run_ofl(m, [(0, 0.0), (1, 0.1)], [1], root=0)
    assert vs.opened == (0, 1)
    assert vs.assignments == (1,)
    assert vs.cost == pytest.approx(0.1)


def test_ofl_zero_clients():
    m = line_metric([0, 1])
    vs = run_ofl(m, [(0, 0.0)], [], root=0)
    assert vs.cost == 0.0 and vs.opened == (0,)


def test_ofl_requires_zero_cost_root():
    m = line_metric([0, 1])
    with pytest.raises(NoFacilities):
        run_ofl(m, [(0, 1.0)], [1], root=0)
    with pytest.raises(NoFacilities):
        run_ofl(m, [], [1], root=0)


def test_cfl_virtual_when_near_root():
    m = line_metric([0, 1])
    sol, trace = run_cfl(m, [(0, 0.0)], 0, [1], M=1.0)
    rec = trace.records[0]
    assert rec.decision == "virtual" and rec.cost == 1.0 and rec.sigma == 0


def test_cfl_rent_then_buy_on_coincident_witness():
    # facility y near a far client cluster; first far client rents, the
    # coincident second one buys and opens y
    m = MetricSpace(d=np.array(
        [
            [0.0, 32.0, 32.0, 31.0],
            [32.0, 0.0, 0.0, 1.0],
            [32.0, 0.0, 0.0, 1.0],
            [31.0, 1.0, 1.0, 0.0],
        ]
    ))
    facilities = [(0, 0.0), (3, 0.5)]
    sol, trace = run_cfl(m, facilities, 0, [1, 2], M=1.0)
    first, second = trace.records
    assert first.decision == "rent" and first.cost == 32.0
    assert second.decision == "buy" and second.opened == 3
    assert sol.assignments == {0: 0, 1: 3}
    assert (0, 3) in sol.bought or (3, 0) in sol.bought
    assert check_cfl_invariants(trace, m, 0, 1.0) == []
    assert check_cfl_cost_split(trace, m, facilities) == []


def test_cfl_invariants_forged_foreign_facility():
    m = line_metric([0, 32, 33])
    sol, trace = run_cfl(m, [(0, 0.0), (2, 1.0)], 0, [1], M=0.0)
    trace.summary["f_hat"] = [0]  # pretend OFL never opened anything else
    for rec in trace.records:
        if rec.decision == "buy":
            break
    out = check_cfl_invariants(trace, m, 0, 0.0)
    if any(r.decision == "buy" and r.opened is not None for r in trace.records):
        assert any("outside F_hat" in v for v in out)


def test_cfl_m_zero_never_rents():
    rng = np.random.default_rng(3)
    m = euclid(rng.random((12, 2)) * 20)
    facs = [(0, 0.0), (1, 0.4), (2, 0.8)]
    _, trace = run_cfl(m, facs, 0, [int(x) for x in rng.integers(3, 12, size=8)], M=0.0)
    assert all(r.decision in ("virtual", "buy") for r in trace.records)


def test_cfl_feasibility_and_cost():
    rng = np.random.default_rng(5)
    m = euclid(rng.random((14, 2)) * 16)
    facs = [(0, 0.0), (1, 1.0), (2, 2.0), (3, 0.5)]
    clients = [int(x) for x in rng.integers(4, 14, size=10)]
    sol, trace = run_cfl(m, facs, 0, clients, M=2.0)
    seq = RequestSequence(
        problem="CFL", requests=tuple(clients), root=0, M=2.0, facilities=tuple(facs)
    )
    assert all(check_feasible(sol, seq, m))
    cost = solution_cost(sol, seq, m)
    derived = (
        trace.total_cost() + 2.0 * sol.bought_cost(m) + sum(dict(facs)[x] for x in sol.opened)
    )
    assert cost.total == pytest.approx(derived)
    assert check_cfl_invariants(trace, m, 0, 2.0) == []
    assert check_cfl_cost_split(trace, m, facs) == []


def test_cfl_sharetree_prestudy_constant_16():
    """Pre-study freezing the sharetree constant: share <= 16 OPT_ROB(T_ext)
    over randomized small runs and trees."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for trial in range(40):
        n = int(rng.integers(6, 14))
        m = euclid(rng.random((n, 2)) * rng.uniform(4, 40))
        n_fac = int(rng.integers(1, 4))
        facs = [(0, 0.0)] + [(int(p), float(rng.uniform(0, 3))) for p in range(1, n_fac + 1)]
        clients = [int(x) for x in rng.integers(0, n, size=int(rng.integers(3, 12)))]
        M = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
        sol, trace = run_cfl(m, facs, 0, clients, M=M)
        share = sum(2.0 ** (r.klass + 1) for r in trace.records if r.decision == "rent")
        rep = position_reps(m, clients + [0])
        reps = sorted(set(rep.values()))
        weights = {}
        for c in clients:
            weights[rep[c]] = weights.get(rep[c], 0) + 1
        t = extend_singleton_levels(sample_frt(m, reps, seed=trial), -2)
        opt = opt_tree_rob_single(t, rep[0], M, weights)
        if share > 0:
            assert opt > 0
            worst = max(worst, share / opt)
        assert share <= 16 * opt * (1 + 1e-9) + 1e-12
        out = check_cut_capacity(trace, t, M, 2, None, root=0, point_rep=rep.get, weights=weights)
        assert out == []
    assert worst <= 16.0


def test_cfl_buy_rent_cost_helper():
    m = line_metric([0, 32, 33])
    sol, trace = run_cfl(m, [(0, 0.0), (2, 0.0)], 0, [1, 1], M=1.0)
    val = cfl_buy_rent_cost(trace, m, 1.0)
    assert val >= 0.0


def test_ofl_empirical_log_competitive():
    """Measured constant C with cost <= C ln(k+1) OPT_FL on a random family."""
    from ondesign.exact import exact_fl
    from ondesign.generators import gen_euclidean

    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(5, 12))
        m, _ = gen_euclidean(n, seed=trial + 900)
        n_fac = int(rng.integers(1, 5))
        facs = [(0, 0.0)] + [
            (int(p), float(rng.uniform(0, m.diameter()))) for p in range(1, n_fac)
        ]
        clients = [int(x) for x in rng.integers(0, n, size=int(rng.integers(2, 9)))]
        vs = run_ofl(m, facs, clients, root=0)
        opt = exact_fl(m, facs, clients)
        if opt > 1e-12:
            c = vs.cost / (opt * np.log(len(clients) + 1))
            worst = max(worst, c)
    print(f"measured OFL constant C = {worst:.2f}")
    assert worst <= 8.0
