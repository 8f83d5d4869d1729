import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import client_load, cut_caps, euclid, extend_one, forest, line_metric, RefOflState, tie_metrics
from ondesign.cfl import (
    OflState,
    cfl_buy_rent_cost,
    check_cfl_cost_split,
    check_cfl_invariants,
    run_cfl,
)
from ondesign.hst import Terminals, sample_frt
from ondesign.metric import MetricSpace, RequestSequence, check_feasible, solution_cost
from ondesign.tree_opt import opt_tree_rob_single


def _cfl(facilities, clients, M):
    return RequestSequence(problem="CFL", requests=tuple(clients), root=0, M=M, facilities=tuple(facilities))


def test_ofl_single_client_only_root():
    state = OflState(line_metric([0, 1]), _cfl([(0, 0.0)], [1], M=0.0))
    assert state.arrive(1) == 0
    assert state.open_order == [0] and state.budgets.tolist() == [1.0]


def test_ofl_opens_cheap_colocated_facility():
    state = OflState(line_metric([0, 10]), _cfl([(0, 0.0), (1, 0.1)], [1], M=0.0))
    assert state.arrive(1) == 1
    assert state.open_order == [0, 1] and state.opened.tolist() == [True, True]
    assert state.budgets.tolist() == [0.0]


def test_ofl_zero_clients():
    state = OflState(line_metric([0, 1]), _cfl([(0, 0.0)], [], M=0.0))
    assert state.open_order == [0] and state.budgets.size == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ofl_arrive_matches_scalar_reference(data):
    """The clients x closed surplus matrix opens what the per-facility Python
    sums open, in the same order, and leaves the same budgets, on metrics and
    costs where a surplus often equals a cost or another surplus exactly."""
    m = data.draw(tie_metrics())
    point = st.integers(0, m.n - 1)
    root = data.draw(point)
    others = data.draw(st.lists(point.filter(lambda p: p != root), unique=True, max_size=6))
    cost = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0])
    facilities = [(p, data.draw(cost)) for p in others]
    facilities.insert(data.draw(st.integers(0, len(facilities))), (root, 0.0))
    clients = data.draw(st.lists(point, max_size=16))
    seq = RequestSequence(problem="CFL", requests=tuple(clients), root=root, M=0.0, facilities=tuple(facilities))
    state, ref = OflState(m, seq), RefOflState(m, facilities, root)
    for i in clients:
        e = state.arrive(i)
        assert type(e) is int and int(state.points[e]) == ref.arrive(i)
        assert state.open_order == ref.open_order
        assert all(type(x) is int for x in state.open_order)
        assert state.budgets.tolist() == ref.budgets


def _surplus_per_arrival(state, clients):
    """Serve `clients`, asserting after every arrival that the running surplus
    is the column cumsum over every client so far, bit for bit; return the
    arrivals at which a facility opened."""
    opened_at = []
    for t, i in enumerate(clients):
        before = len(state.open_order)
        state.arrive(i)
        rows = state.rows[:state.n_clients]
        want = np.cumsum(np.maximum(0, state.budgets[:, None] - rows), axis=0)[-1]
        assert state.surplus.dtype == want.dtype and state.surplus.tobytes() == want.tobytes()
        if len(state.open_order) > before:
            opened_at.append(t)
    return opened_at


def test_ofl_running_surplus_across_openings_and_a_buffer_doubling():
    # ten clients at 10 fill the cost-100 facility there; the next fifteen,
    # at 20 with budget 10 to it, fill the cost-150 facility at 20 past the
    # 16-client buffer
    m = line_metric([0, 10, 20, 5])
    state = OflState(m, _cfl([(0, 0.0), (1, 100.0), (2, 150.0)], [], M=0.0))
    assert _surplus_per_arrival(state, [1] * 10 + [2] * 15 + [3] * 5) == [9, 24]
    assert state.open_order == [0, 1, 2]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ofl_running_surplus_is_the_column_cumsum(data):
    """More than 16 clients on tie-rich metrics, so the buffers grow and
    openings fall between arrivals."""
    m = data.draw(tie_metrics())
    point = st.integers(0, m.n - 1)
    root = data.draw(point)
    others = data.draw(st.lists(point.filter(lambda p: p != root), unique=True, max_size=6))
    cost = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0, 12.0, 24.0])
    facilities = [(root, 0.0)] + [(p, data.draw(cost)) for p in others]
    clients = data.draw(st.lists(point, min_size=17, max_size=40))
    seq = RequestSequence(problem="CFL", requests=tuple(clients), root=root, M=0.0, facilities=tuple(facilities))
    _surplus_per_arrival(OflState(m, seq), clients)


def test_ofl_surplus_equal_to_cost_opens():
    # the client at 4 has budget d(client, root) = 4 and surplus 4 - 0 at the
    # coincident facility 1, whose cost is exactly 4
    m = line_metric([0, 4, 4])
    state = OflState(m, _cfl([(0, 0.0), (1, 4.0)], [2], M=0.0))
    assert state.points[state.arrive(2)] == 1
    assert state.open_order == [0, 1]
    assert state.budgets.tolist() == [0.0]


@pytest.mark.parametrize("facilities, opened", [
    ([(0, 0.0), (2, 5.0), (1, 5.0)], 2),
    ([(0, 0.0), (1, 5.0), (2, 5.0)], 1),
])
def test_ofl_tied_facilities_open_first_in_points_order(facilities, opened):
    # a client at 6 with budget 6: facilities at 5 and 7 both reach surplus
    # 5 = their cost; the first listed opens, and its budget cut keeps the other shut
    m = line_metric([0, 5, 7, 6])
    state = OflState(m, _cfl(facilities, [3], M=0.0))
    assert state.points[state.arrive(3)] == opened
    assert state.open_order == [0, opened]
    assert state.budgets.tolist() == [1.0]


def test_cfl_virtual_when_near_root():
    m = line_metric([0, 1])
    sol, trace = run_cfl(m, _cfl([(0, 0.0)], [1], M=1.0))
    rec = trace.records[0]
    assert rec.decision == "virtual" and rec.cost == 1.0 and rec.attach == 0
    assert sol.assignments == {0: 0}


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
    seq = _cfl([(0, 0.0), (3, 0.5)], [1, 2], M=1.0)
    sol, trace = run_cfl(m, seq)
    first, second = trace.records
    assert first.decision == "rent" and first.cost == 32.0
    assert second.decision == "buy" and second.opened == 3
    assert sol.assignments == {0: 0, 1: 3}
    assert (0, 3) in sol.bought or (3, 0) in sol.bought
    assert check_cfl_invariants(m, seq, trace) == []
    assert check_cfl_cost_split(m, seq, trace) == []


def test_cfl_invariants_forged_foreign_facility():
    m = line_metric([0, 32, 33])
    seq = _cfl([(0, 0.0), (2, 1.0)], [1], M=0.0)
    sol, trace = run_cfl(m, seq)
    trace.summary["f_hat"] = [0]  # pretend OFL never opened anything else
    out = check_cfl_invariants(m, seq, trace)
    if any(r.decision == "buy" and r.opened is not None for r in trace.records):
        assert any("outside F_hat" in v for v in out)


def test_cfl_m_zero_never_rents():
    rng = np.random.default_rng(3)
    m = euclid(rng.random((12, 2)) * 20)
    facs = [(0, 0.0), (1, 0.4), (2, 0.8)]
    _, trace = run_cfl(m, _cfl(facs, [int(x) for x in rng.integers(3, 12, size=8)], M=0.0))
    assert all(r.decision in ("virtual", "buy") for r in trace.records)


def test_cfl_feasibility_and_cost():
    rng = np.random.default_rng(5)
    m = euclid(rng.random((14, 2)) * 16)
    facs = [(0, 0.0), (1, 1.0), (2, 2.0), (3, 0.5)]
    seq = _cfl(facs, [int(x) for x in rng.integers(4, 14, size=10)], M=2.0)
    sol, trace = run_cfl(m, seq)
    assert all(check_feasible(sol, seq, m))
    assert solution_cost(sol, seq, m).total == pytest.approx(trace.total_cost())
    assert check_cfl_invariants(m, seq, trace) == []
    assert check_cfl_cost_split(m, seq, trace) == []


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
        seq = _cfl(facs, clients, M)
        sol, trace = run_cfl(m, seq)
        share = sum(2.0 ** (r.klass + 1) for r in trace.records if r.decision == "rent")
        t = extend_one(sample_frt(Terminals(m, clients + [0]), seed=trial))
        opt = opt_tree_rob_single(forest([t]), 0, M, client_load(t, 0, clients))[0]
        if share > 0:
            assert opt > 0
            worst = max(worst, share / opt)
        assert share <= 16 * opt * (1 + 1e-9) + 1e-12
        out = cut_caps(seq, trace, t, 2)
        assert out == []
    assert worst <= 16.0


def test_cfl_buy_rent_cost_helper():
    m = line_metric([0, 32, 33])
    seq = _cfl([(0, 0.0), (2, 0.0)], [1, 1], M=1.0)
    sol, trace = run_cfl(m, seq)
    val = cfl_buy_rent_cost(m, seq, trace)
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
        state = OflState(m, _cfl(facs, clients, M=0.0))
        service = sum(m.dist(i, int(state.points[state.arrive(i)])) for i in clients)
        cost = state.costs[state.opened].sum() + service
        opt = exact_fl(m, facs, clients)
        if opt > 1e-12:
            c = cost / (opt * np.log(len(clients) + 1))
            worst = max(worst, c)
    print(f"measured OFL constant C = {worst:.2f}")
    assert worst <= 8.0
