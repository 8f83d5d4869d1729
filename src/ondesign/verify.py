"""Runs algorithms, samples HSTs, and evaluates every charging-scheme
guarantee as an executable check.

`SPECS` holds one entry per problem: runner, per-run checks, per-tree checks
with the constants of their bounds, and exact offline oracle.  Checks read the
run's decisions from its trace and the instance's parameters (root, M,
requests, facilities) from the RequestSequence.  Entries reach this module's
functions through lambdas, so a call resolves each name when it happens.
Shares are sums of 2^(j+1) over rent terminals (rho for PCST).

Trees are sampled over the distinct positions of the arrived terminals
(coincident request points collapse onto a representative; oracles see their
request multiplicities) and extended with singleton levels down to -2 for the
rent-or-buy style checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import exact
from .errors import OndesignError
from .cfl import (
    CFL_SUMMARY_SHAPE,
    cfl_buy_rent_cost,
    check_cfl_cost_split,
    check_cfl_invariants,
    run_cfl,
)
from .hst import extend_singleton_levels, sample_frt, validate_hst, validated_distances
from .metric import (
    RTOL,
    MetricSpace,
    RequestSequence,
    check_feasible,
    exceeds,
    pow2,
    solution_cost,
)
from .prize import (
    check_pcst_invariants,
    check_pcst_run_invariants,
    positive_share_rows,
    run_pcst,
    total_share,
)
from .rentorbuy import (
    check_cut_capacity,
    check_greedy_replay,
    check_mrob_witnesses,
    check_srob_witnesses,
    cost_share,
    run_mrob,
    run_srob,
)
from .steiner import (
    BcForest,
    check_bc_edge_property,
    check_class_separation,
    check_metagraph_acyclic,
    check_sn_decomposition,
    covers_from_tree,
    run_bc_sf,
    run_greedy_st,
    run_sn,
)
from .tree_opt import (
    opt_tree_pcst,
    opt_tree_rob_multi,
    opt_tree_rob_single,
    opt_tree_steiner_forest,
    opt_tree_steiner_network,
    opt_tree_steiner_tree,
    pcst_cut_lower_bound,
)


# ---------------------------------------------------------------------------
# Per-run checks: (report name, check(m, seq, trace) -> violations).  They
# read the trace only, so a replayed trace gets them too; the solution checks
# at the end also compare it with the run's solution.
# ---------------------------------------------------------------------------

def _share_identity(m, seq, trace):
    lhs = trace.total_cost()
    rhs = sum(pow2(r.klass + 1) for r in trace.records if r.klass is not None)
    return [f"sum a_i = {lhs:g} > share {rhs:g}"] if exceeds(lhs, rhs, atol=0.0) else []


def _vs_share(label, factor, cost):
    """The check cost(m, seq, trace) <= factor * the rent share."""

    def check(m, seq, trace):
        lhs, share = cost(m, seq, trace), cost_share(trace)
        if exceeds(lhs, factor * share):
            return [f"{label} {lhs:g} > {factor} * share {share:g}"]
        return []

    return check


def _trace_cost(m, seq, trace):
    return trace.total_cost()


def _cfl_buy_rent_cost(m, seq, trace):
    return cfl_buy_rent_cost(trace, m, seq.M)


SHARE_IDENTITY = ("share_identity", _share_identity)
CLASS_SEPARATION = ("class_separation", lambda m, seq, trace: check_class_separation(trace, m))
BC_EDGE_PROPERTY = ("bc_edge_property", lambda m, seq, trace: check_bc_edge_property(trace, m))
COST_VS_SHARE = ("cost_vs_share", _vs_share("cost", 2, _trace_cost))
SROB_WITNESSES = ("witness_disjointness", lambda m, seq, trace: check_srob_witnesses(trace, m, seq.M))
MROB_WITNESSES = ("witness_disjointness", lambda m, seq, trace: check_mrob_witnesses(trace, m, seq.M))
CFL_INVARIANTS = ("cfl_invariants", lambda m, seq, trace: check_cfl_invariants(trace, m, seq.root, seq.M))
CFL_COST_SPLIT = ("cfl_cost_split", lambda m, seq, trace: check_cfl_cost_split(trace, m, seq.facilities))
BUYRENT_VS_SHARE = ("buyrent_vs_share", _vs_share("M c(H) + rents =", 3, _cfl_buy_rent_cost))
PCST_INVARIANTS = ("pcst_run_invariants", lambda m, seq, trace: check_pcst_run_invariants(trace, m))
# Solution checks: (report name, check(m, seq, sol, trace) -> violations).
SN_DECOMPOSITION = ("sn_decomposition", lambda m, seq, sol, trace: check_sn_decomposition(trace, sol))
GREEDY_REPLAY = ("greedy_replay", lambda m, seq, sol, trace: check_greedy_replay(trace, m, sol, seq.root))


# ---------------------------------------------------------------------------
# Per-tree checks: check(tally, m, seq, trace, tree, rep, weights), where rep
# maps a point to its representative leaf and weights counts requests per leaf.
# ---------------------------------------------------------------------------

class _Tally:
    """One sampled tree's violations, flags and ratio per bound."""

    def __init__(self, constants):
        self.constants = constants
        self.out, self.flags, self.ratios = [], [], {}

    def bound(self, name, lhs, rhs, constant=None):
        """lhs <= factor * rhs, the factor being constants[constant or name]."""
        factor = self.constants[constant or name]
        self.ratios[name] = max(self.ratios.get(name, 0.0), 0.0 if rhs == 0 else lhs / rhs)
        if exceeds(lhs, factor * rhs):
            self.out.append(f"{name}: {lhs:g} > {factor:g} * {rhs:g}")


def _pairs(trace, rep):
    return [(rep(s), rep(u)) for s, u in (r.points for r in trace.records)]


def _metagraph(m, trace, t, rep):
    return check_metagraph_acyclic(trace, covers_from_tree(t, trace, rep), m, rep)


def _tree_st(tally, m, seq, trace, t, rep, weights):
    tally.bound("cost_vs_tree", trace.total_cost(), opt_tree_steiner_tree(t))


def _tree_sf(tally, m, seq, trace, t, rep, weights):
    opt = opt_tree_steiner_forest(t, _pairs(trace, rep))
    tally.bound("cost_vs_tree", trace.total_cost(), opt)
    tally.out += _metagraph(m, trace, t, rep)


def _tree_sn(tally, m, seq, trace, t, rep, weights):
    reqs = [seq.requests[r.idx][2] for r in trace.records]
    opt = opt_tree_steiner_network(t, _pairs(trace, rep), reqs)
    tally.bound("cost_vs_tree", trace.total_cost(), opt)
    tally.out += _metagraph(m, trace, t, rep)


def _tree_rob_single(cost_name, cost, shift):
    """SROB and CFL: share and cost(m, seq, trace) against the rent-or-buy tree
    optimum; cut caps on class-(j + shift) rents."""

    def check(tally, m, seq, trace, t, rep, weights):
        t_ext = extend_singleton_levels(t, -2)
        opt = opt_tree_rob_single(t_ext, rep(seq.root), seq.M, weights)
        tally.bound("share_vs_tree", cost_share(trace), opt)
        tally.bound(cost_name, cost(m, seq, trace), opt)
        tally.out += check_cut_capacity(trace, t_ext, seq.M, shift, None, seq.root, rep, weights)

    return check


_tree_srob = _tree_rob_single("cost_vs_tree", _trace_cost, 1)
_tree_cfl = _tree_rob_single("buyrent_vs_tree", _cfl_buy_rent_cost, 2)


def _tree_mrob(tally, m, seq, trace, t, rep, weights):
    t_ext = extend_singleton_levels(t, -2)
    pairs = _pairs(trace, rep)
    opt = opt_tree_rob_multi(t_ext, pairs, seq.M)
    tally.bound("share_vs_tree", cost_share(trace), opt)
    tally.bound("cost_vs_tree", trace.total_cost(), opt)
    tally.out += check_cut_capacity(trace, t_ext, seq.M, 2, pairs, None, rep)
    tally.out += _metagraph(m, trace, t_ext, rep)


def _tree_pcst(tally, m, seq, trace, t, rep, weights):
    t_ext = extend_singleton_levels(t, -2)
    tree_viol, tree_flags = check_pcst_invariants(trace, seq.root, t_ext, rep)
    tally.out += tree_viol
    tally.flags += tree_flags
    rows = {
        c: [(rep(p), rho, pi) for p, rho, pi in lst]
        for c, lst in positive_share_rows(trace).items()
    }
    share = total_share(trace)
    lb = pcst_cut_lower_bound(t_ext, rep(seq.root), rows)
    opt = opt_tree_pcst(t_ext, rep(seq.root), [(rep(p), pi) for p, pi in seq.requests])
    # the cut lower bound is held to the share constant
    tally.bound("share_vs_cut_lb", share, lb, constant="share_vs_tree")
    tally.bound("share_vs_tree", share, opt)
    tally.bound("cost_vs_tree", trace.total_cost(), opt)


# ---------------------------------------------------------------------------
# The problem table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    run: Callable            # (m, seq) -> (solution, trace)
    run_checks: tuple        # (name, check(m, seq, trace)), after cost and feasibility
    tree_checks: Callable    # see _Tally
    constants: dict          # per-tree bound name -> factor
    optimum: Callable        # (m, seq) -> exact offline optimum
    solution_checks: tuple = ()  # (name, check(m, seq, sol, trace)); own runs only
    summary_shape: dict = field(default_factory=dict)  # of trace.summary, see metric._fits
    trace_cost: Callable = lambda m, seq, sol, trace: trace.total_cost()


def _cfl_trace_cost(m, seq, sol, trace):
    """The trace carries assignment costs; buying and opening come from sol."""
    costs = dict(seq.facilities)
    return (
        trace.total_cost()
        + seq.M * sol.bought_cost(m)
        + sum(costs[x] for x in sol.opened)
    )


SPECS = {
    "SteinerTree": ProblemSpec(
        run=lambda m, seq: run_greedy_st(m, seq.root, seq.requests),
        run_checks=(CLASS_SEPARATION, SHARE_IDENTITY),
        tree_checks=_tree_st, constants={"cost_vs_tree": 4.0},
        optimum=lambda m, seq: exact.dreyfus_wagner_st(m, set(seq.requests) | {seq.root}),
    ),
    "SteinerForest": ProblemSpec(
        run=lambda m, seq: run_bc_sf(m, seq.requests),
        run_checks=(BC_EDGE_PROPERTY,),
        summary_shape=BcForest.SUMMARY_SHAPE,
        tree_checks=_tree_sf, constants={"cost_vs_tree": 4.0},
        optimum=lambda m, seq: exact.exact_sf(m, seq.requests),
    ),
    "SteinerNetwork": ProblemSpec(
        run=lambda m, seq: run_sn(m, seq.requests),
        run_checks=(BC_EDGE_PROPERTY,),
        solution_checks=(SN_DECOMPOSITION,),
        summary_shape=BcForest.SUMMARY_SHAPE,
        tree_checks=_tree_sn, constants={"cost_vs_tree": 16.0},
        optimum=lambda m, seq: exact.exact_sn_tiny(
            m, [(s, t) for s, t, _ in seq.requests], [r for _, _, r in seq.requests]
        ),
    ),
    "SROB": ProblemSpec(
        run=lambda m, seq: run_srob(m, seq.root, seq.requests, seq.M),
        run_checks=(COST_VS_SHARE, SROB_WITNESSES, CLASS_SEPARATION),
        solution_checks=(GREEDY_REPLAY,),
        tree_checks=_tree_srob, constants={"cost_vs_tree": 16.0, "share_vs_tree": 8.0},
        optimum=lambda m, seq: exact.exact_srob(m, seq.root, seq.requests, seq.M),
    ),
    "MROB": ProblemSpec(
        run=lambda m, seq: run_mrob(m, seq.requests, seq.M),
        run_checks=(COST_VS_SHARE, MROB_WITNESSES, BC_EDGE_PROPERTY),
        summary_shape=BcForest.SUMMARY_SHAPE,
        tree_checks=_tree_mrob, constants={"cost_vs_tree": 32.0, "share_vs_tree": 16.0},
        optimum=lambda m, seq: exact.exact_mrob(m, seq.requests, seq.M),
    ),
    "CFL": ProblemSpec(
        run=lambda m, seq: run_cfl(m, list(seq.facilities), seq.root, seq.requests, seq.M),
        run_checks=(CFL_INVARIANTS, CFL_COST_SPLIT, BUYRENT_VS_SHARE),
        summary_shape=CFL_SUMMARY_SHAPE,
        tree_checks=_tree_cfl, constants={"buyrent_vs_tree": 48.0, "share_vs_tree": 16.0},
        optimum=lambda m, seq: exact.exact_cfl(
            m, list(seq.facilities), seq.requests, seq.M, seq.root
        ),
        trace_cost=_cfl_trace_cost,
    ),
    "PCST": ProblemSpec(
        run=lambda m, seq: run_pcst(m, seq.root, seq.requests),
        run_checks=(PCST_INVARIANTS,),
        solution_checks=(GREEDY_REPLAY,),
        tree_checks=_tree_pcst, constants={"cost_vs_tree": 16.0, "share_vs_tree": 8.0},
        optimum=lambda m, seq: exact.exact_pcst(m, seq.root, seq.requests),
    ),
}


def run_problem(m: MetricSpace, seq: RequestSequence):
    return SPECS[seq.problem].run(m, seq)


def position_reps(m: MetricSpace, points):
    """Collapse coincident positions: point -> lowest-index representative."""
    pts = sorted(set(points))
    if not pts:
        return {}
    first = (m.d[np.ix_(pts, pts)] == 0.0).argmax(axis=1)
    return {p: pts[i] for p, i in zip(pts, first.tolist())}


def tree_points(m: MetricSpace, seq: RequestSequence):
    """(representatives, rep map, per-rep request multiplicities)."""
    pts = [p for idx in range(len(seq.requests)) for p in seq.request_points(idx)]
    rep = position_reps(m, pts + ([] if seq.root is None else [seq.root]))
    weights = Counter(rep[p] for p in pts)
    return sorted(set(rep.values())), rep, weights


def check_tree_bounds(m, seq, trace, points, tree_seed):
    """Sample one HST (and its extension) and run every per-tree check.

    `points` is tree_points(m, seq).  Returns (violations, flags, ratios) for
    this tree.
    """
    reps, rep, weights = points
    if not reps:
        return [], [], {}
    t = sample_frt(m, reps, tree_seed)
    bad = validate_hst(t, m)
    if bad:
        return [f"invalid tree: {bad[0]}"] + bad[1:], [], {}
    spec = SPECS[seq.problem]
    tally = _Tally(spec.constants)
    spec.tree_checks(tally, m, seq, trace, t, rep.get, weights)
    return tally.out, tally.flags, tally.ratios


def per_run_checks(m, seq, sol, trace):
    """Each entry: (check name, list of violations)."""
    spec = SPECS[seq.problem]
    total = solution_cost(sol, seq, m).total
    derived = spec.trace_cost(m, seq, sol, trace)
    near = abs(total - derived) <= RTOL * max(1.0, abs(total), abs(derived))
    checks = [("cost_consistency", [] if near else
               [f"solution cost {total:g} != trace cost {derived:g}"])]
    feas = check_feasible(sol, seq, m)
    prefix_bad = [
        f"request {rec.idx} infeasible at arrival" for rec in trace.records if not rec.feasible_now
    ] + [f"request {i} infeasible in final state" for i, ok in enumerate(feas) if not ok]
    checks.append(("online_feasibility", prefix_bad))
    checks += [(name, check(m, seq, trace)) for name, check in spec.run_checks]
    return checks + [(name, check(m, seq, sol, trace)) for name, check in spec.solution_checks]


def verify_run(m, seq, trials=20, seed=0, forged_trace=None):
    """Full verification of one instance: run, per-run checks, per-tree checks.

    Returns a deterministic report dict; `violations` empty iff everything
    passed.  A forged (replayed) trace replaces the algorithm's own run: it
    has no solution, so it gets the spec's run checks but neither the cost,
    feasibility nor solution checks.
    """
    spec = SPECS[seq.problem]
    if forged_trace is None:
        sol, trace = run_problem(m, seq)
        checks = per_run_checks(m, seq, sol, trace)
        cost_doc = solution_cost(sol, seq, m).as_dict()
    else:
        trace = forged_trace
        checks = [(name, check(m, seq, trace)) for name, check in spec.run_checks]
        cost_doc = {"total": trace.total_cost()}

    points = tree_points(m, seq)
    ratios = {}
    flags = []
    tree_violations = []
    witness_seed = None
    for trial in range(trials):
        try:
            viol, fl, rat = check_tree_bounds(m, seq, trace, points, _tree_seed(seed, trial))
        except (OndesignError, ValueError) as exc:
            # malformed (e.g. forged) traces surface as violations, not crashes
            viol, fl, rat = [f"check error: {exc}"], [], {}
        for name, value in rat.items():
            ratios[name] = max(ratios.get(name, 0.0), value)
        flags += [f"trial {trial}: {f}" for f in fl]
        if viol and witness_seed is None:
            witness_seed = _tree_seed(seed, trial)
        tree_violations += [f"trial {trial}: {v}" for v in viol]

    report = {
        "problem": seq.problem,
        "k": seq.k,
        "n": m.n,
        "seed": seed,
        "trials": trials,
        "constants": spec.constants,
        "cost": cost_doc,
        "checks": {
            name: {"fail": len(viol), "violations": viol[:10]} for name, viol in checks
        },
        "tree_checks": {"fail": len(tree_violations), "violations": tree_violations[:10]},
        "max_ratios": {k: round(v, 12) for k, v in sorted(ratios.items())},
        "flags": flags[:20],
        "witness_seed": witness_seed,
    }
    report["violations"] = sum(c["fail"] for c in report["checks"].values()) + len(tree_violations)
    return report


def _tree_seed(seed, trial):
    return (int(seed) * 0x9E3779B97F4A7C15 + trial * 0xBF58476D1CE4E5B9 + 1) % (2**63)


def embed_report(m, terminals, trials=200, seed=0):
    """Sample `trials` HSTs; report validity rate and per-pair mean stretch."""
    reps = sorted(set(terminals))
    results = [validated_distances(sample_frt(m, reps, _tree_seed(seed, trial)), m) for trial in range(trials)]
    invalid = sum(1 for bad, _ in results if bad)
    # pairs u < v at positive distance, accumulated trial by trial
    d = m.d[np.ix_(reps, reps)]
    u, v = np.triu_indices(len(reps), 1)
    u, v = u[d[u, v] > 0], v[d[u, v] > 0]
    sums = np.zeros(len(u))
    for _, T in results:
        sums += T[u, v] / d[u, v]
    means = (sums / trials).tolist() if results else []
    return {
        "k": len(reps),
        "trials": trials,
        "seed": seed,
        "invalid_trees": invalid,
        "valid_rate": 1.0 - (invalid / trials if trials else 0.0),
        "max_mean_stretch": max(means) if means else 0.0,
        "mean_stretch": (sum(means) / len(means)) if means else 0.0,
        "pairs": len(means),
    }


def exact_optimum(m, seq):
    """The problem's exact offline optimum (raises TooLarge beyond caps)."""
    return SPECS[seq.problem].optimum(m, seq)
