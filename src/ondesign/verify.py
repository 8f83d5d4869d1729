"""Runs algorithms, samples HSTs, and evaluates every charging-scheme
guarantee as an executable check.

`SPECS` holds one entry per problem: runner, per-run checks, tree oracles,
per-tree checks with the constants of their bounds, and exact offline
oracle.  A per-run check
is check(m, seq, trace), a solution check check(m, seq, sol, trace), each named
by its report name; it reads the run's decisions from the trace and the
instance (root, M, requests, facilities) only from the RequestSequence.
Runners and oracles are lambdas, so a call resolves each name when it happens.
Shares are sums of 2^(j+1) over rent terminals (rho for PCST).

Trees are sampled over the request points and the root, and every step
after sampling runs once per instance, on its trials as one `hst.Forest`:
`_sampled_trees` samples and validates them, `_checked_trees` runs the
problem's tree oracles and `check_tree_bounds` its per-tree checks; their
docstrings say what each reads.  The tree resolves coincident points to one
leaf (see hst), so checks and oracles pass it the instance's points as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import exact
from .errors import OndesignError
from .cfl import (
    CFL_SUMMARY_SHAPE,
    cfl_buy_rent_cost,
    check_buyrent_vs_share,
    check_cfl_cost_split,
    check_cfl_invariants,
    run_cfl,
)
from .hst import Terminals, cut_load, extend_singleton_levels, sample_frt, validate_hst
from .metric import (
    MetricSpace,
    RequestSequence,
    check_feasible,
    exceeds,
    same_cost,
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
    check_cost_vs_share,
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
    check_share_identity,
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
# Tree oracles: oracles(seq, f) on the forest f of an instance's valid trees,
# once per instance; they read only the trees and the RequestSequence.  Each
# returns the forest the checks read (extended for the rent-or-buy style
# checks), the tree optima per tree and the forest's cut load (or None).
# ---------------------------------------------------------------------------

def _oracles_st(seq, f):
    return f, opt_tree_steiner_tree(f), None


def _oracles_sf(seq, f):
    return f, opt_tree_steiner_forest(f, seq.pairs), None


def _oracles_sn(seq, f):
    return f, opt_tree_steiner_network(f, seq.pairs, [r for _, _, r in seq.requests]), None


def _oracles_rob(seq, f):
    """SROB, CFL and MROB (no root: the multi-source optimum): the rent-or-buy
    tree optimum reads seq.pairs' cut load, which the cut caps read too."""
    ext = extend_singleton_levels(f)
    load = cut_load(ext, seq.pairs)
    opt = (opt_tree_rob_multi(ext, load, seq.M) if seq.root is None
           else opt_tree_rob_single(ext, seq.root, seq.M, load))
    return ext, opt, load


def _oracles_pcst(seq, f):
    ext = extend_singleton_levels(f)
    return ext, opt_tree_pcst(ext, seq.root, seq.requests), None


# ---------------------------------------------------------------------------
# Per-tree checks: check(tally, m, seq, trace, f, opt, load) on the oracles'
# forest f of an instance's valid trees, with their optima and the forest's
# cut load, once per instance.
# ---------------------------------------------------------------------------

class _Tally:
    """Per tree of a forest: violations, flags, ratio per bound, and the
    first error a check raised on it.

    An error of a type in `guard` becomes the tree's one violation, "check
    error: ...", and drops what the tree's checks found; any other raises.
    """

    def __init__(self, constants, trees, guard):
        self.constants, self.guard = constants, guard
        self.out, self.flags = [[] for _ in range(trees)], [[] for _ in range(trees)]
        self.ratios, self.error = [{} for _ in range(trees)], [None] * trees

    def bound(self, name, lhs, rhs, constant=None):
        """lhs <= factor * rhs[g] on every tree g, the factor being
        constants[constant or name].

        The ratio lhs / rhs[g] (0 when both are 0) goes into max_ratios.  A
        bound violated at rhs 0 has no finite ratio: only its violation is
        reported.
        """
        factor = self.constants[constant or name]
        for out, ratios, r in zip(self.out, self.ratios, rhs):
            if exceeds(lhs, factor * r):
                out.append(f"{name}: {lhs:g} > {factor:g} * {r:g}")
                if r == 0:
                    continue
            ratios[name] = max(ratios.get(name, 0.0), 0.0 if r == 0 else lhs / r)

    def add(self, per_tree):
        """Each tree's violations, or the error a check raised on it."""
        for g, item in enumerate(per_tree):
            if isinstance(item, Exception):
                self.fail([g], item)
            else:
                self.out[g] += item

    def fail(self, trees, exc):
        if not isinstance(exc, self.guard):
            raise exc
        for g in trees:
            if self.error[g] is None:
                self.error[g] = exc

    def results(self):
        return [(out, flags, ratios) if exc is None else ([f"check error: {exc}"], [], {})
                for out, flags, ratios, exc in zip(self.out, self.flags, self.ratios, self.error)]


def _metagraph(trace, f):
    return check_metagraph_acyclic(trace, covers_from_tree(f, trace))


def _tree_st(tally, m, seq, trace, f, opt, load):
    tally.bound("cost_vs_tree", trace.total_cost(), opt)


def _tree_sf(tally, m, seq, trace, f, opt, load):
    tally.bound("cost_vs_tree", trace.total_cost(), opt)
    tally.add(_metagraph(trace, f))


def _tree_rob(tally, seq, trace, f, opt, load, cost_name, cost, shift):
    """Share and `cost` against the rent-or-buy tree optima; cut caps on
    class-(j + shift) rents."""
    tally.bound("share_vs_tree", cost_share(trace), opt)
    tally.bound(cost_name, cost, opt)
    tally.add(check_cut_capacity(seq, trace, f, shift, load))


def _tree_srob(tally, m, seq, trace, f, opt, load):
    _tree_rob(tally, seq, trace, f, opt, load, "cost_vs_tree", trace.total_cost(), 1)


def _tree_cfl(tally, m, seq, trace, f, opt, load):
    _tree_rob(tally, seq, trace, f, opt, load, "buyrent_vs_tree", cfl_buy_rent_cost(m, seq, trace), 2)


def _tree_mrob(tally, m, seq, trace, f, opt, load):
    _tree_rob(tally, seq, trace, f, opt, load, "cost_vs_tree", trace.total_cost(), 2)
    tally.add(_metagraph(trace, f))


def _tree_pcst(tally, m, seq, trace, f, opt, load):
    tree_viol, tree_flags, cuts = check_pcst_invariants(f, positive_share_rows(seq, trace), seq.root)
    tally.add(tree_viol)
    for flags, more in zip(tally.flags, tree_flags):
        flags += more
    share = total_share(trace)
    lb = pcst_cut_lower_bound(cuts)
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
    run_checks: dict         # report name -> check(m, seq, trace), after cost and feasibility
    tree_oracles: Callable   # (seq, forest) -> (forest, optima, load); see _oracles_st
    tree_checks: Callable    # (tally, m, seq, trace, f, opt, load); see _Tally
    constants: dict          # per-tree bound name -> factor
    optimum: Callable        # (m, seq) -> exact offline optimum
    solution_checks: dict = field(default_factory=dict)  # name -> check(m, seq, sol, trace); own runs only
    summary_shape: dict = field(default_factory=dict)  # of trace.summary, see metric._fits


SPECS = {
    "SteinerTree": ProblemSpec(
        run=lambda m, seq: run_greedy_st(m, seq),
        run_checks={"class_separation": check_class_separation, "share_identity": check_share_identity},
        tree_oracles=_oracles_st, tree_checks=_tree_st, constants={"cost_vs_tree": 4.0},
        optimum=lambda m, seq: exact.dreyfus_wagner_st(m, set(seq.requests) | {seq.root}),
    ),
    "SteinerForest": ProblemSpec(
        run=lambda m, seq: run_bc_sf(m, seq),
        run_checks={"bc_edge_property": check_bc_edge_property},
        summary_shape=BcForest.SUMMARY_SHAPE,
        tree_oracles=_oracles_sf, tree_checks=_tree_sf, constants={"cost_vs_tree": 4.0},
        optimum=lambda m, seq: exact.exact_sf(m, seq.requests),
    ),
    "SteinerNetwork": ProblemSpec(
        run=lambda m, seq: run_sn(m, seq),
        run_checks={"bc_edge_property": check_bc_edge_property},
        solution_checks={"sn_decomposition": check_sn_decomposition},
        summary_shape=BcForest.SUMMARY_SHAPE,
        tree_oracles=_oracles_sn, tree_checks=_tree_sf, constants={"cost_vs_tree": 16.0},
        optimum=lambda m, seq: exact.exact_sn_tiny(m, seq.pairs, [r for _, _, r in seq.requests]),
    ),
    "SROB": ProblemSpec(
        run=lambda m, seq: run_srob(m, seq),
        run_checks={"cost_vs_share": check_cost_vs_share, "witness_disjointness": check_srob_witnesses,
                    "class_separation": check_class_separation},
        solution_checks={"greedy_replay": check_greedy_replay},
        tree_oracles=_oracles_rob, tree_checks=_tree_srob, constants={"cost_vs_tree": 16.0, "share_vs_tree": 8.0},
        optimum=lambda m, seq: exact.exact_srob(m, seq.root, seq.requests, seq.M),
    ),
    "MROB": ProblemSpec(
        run=lambda m, seq: run_mrob(m, seq),
        run_checks={"cost_vs_share": check_cost_vs_share, "witness_disjointness": check_mrob_witnesses,
                    "bc_edge_property": check_bc_edge_property},
        summary_shape=BcForest.SUMMARY_SHAPE,
        tree_oracles=_oracles_rob, tree_checks=_tree_mrob, constants={"cost_vs_tree": 32.0, "share_vs_tree": 16.0},
        optimum=lambda m, seq: exact.exact_mrob(m, seq.requests, seq.M),
    ),
    "CFL": ProblemSpec(
        run=lambda m, seq: run_cfl(m, seq),
        run_checks={"cfl_invariants": check_cfl_invariants, "cfl_cost_split": check_cfl_cost_split,
                    "buyrent_vs_share": check_buyrent_vs_share},
        summary_shape=CFL_SUMMARY_SHAPE,
        tree_oracles=_oracles_rob, tree_checks=_tree_cfl, constants={"buyrent_vs_tree": 48.0, "share_vs_tree": 16.0},
        optimum=lambda m, seq: exact.exact_cfl(
            m, list(seq.facilities), seq.requests, seq.M, seq.root
        ),
    ),
    "PCST": ProblemSpec(
        run=lambda m, seq: run_pcst(m, seq),
        run_checks={"pcst_run_invariants": check_pcst_run_invariants},
        solution_checks={"greedy_replay": check_greedy_replay},
        tree_oracles=_oracles_pcst, tree_checks=_tree_pcst, constants={"cost_vs_tree": 16.0, "share_vs_tree": 8.0},
        optimum=lambda m, seq: exact.exact_pcst(m, seq.root, seq.requests),
    ),
}


def run_problem(m: MetricSpace, seq: RequestSequence):
    return SPECS[seq.problem].run(m, seq)


def tree_points(seq: RequestSequence):
    """The points a tree is sampled for: every request point, and the root."""
    return [p for pair in seq.pairs for p in pair] + ([] if seq.root is None else [seq.root])


def check_tree_bounds(m, seq, trace, f, opt, load, guard=()):
    """Run every per-tree check on the forest f of an instance's valid sampled
    trees (extended where the problem's oracles extend them), given their tree
    optima and the forest's cut load; returns (violations, flags, ratios) per
    tree of f, in its order.

    What the checks derive from the trace alone, they derive once.  An error
    of a type in `guard` is the one violation of each tree it is raised on:
    one raised off the trace alone, of every tree without an error of its own.
    """
    spec = SPECS[seq.problem]
    tally = _Tally(spec.constants, f.n_trees, guard)
    try:
        spec.tree_checks(tally, m, seq, trace, f, opt, load)
    except guard as exc:
        tally.fail(range(f.n_trees), exc)
    return tally.results()


def _sampled_trees(m, points, seeds):
    """(per seed, [] when its tree for `points` is valid, else the tree's
    validate_hst messages, the first marked "invalid tree"; the forest of the
    valid trees, in seed order, or None).

    `points` is tree_points(seq); without points no tree is sampled.  The
    terminal set is built once and every tree is validated in one call.
    """
    if not points or not seeds:
        return [[] for _ in seeds], None
    terms = Terminals(m, points)
    trees = [sample_frt(terms, s) for s in seeds]
    del terms  # its k x k arrays go before the validator's are made
    checked = validate_hst(trees, m)
    return [[f"invalid tree: {bad[0]}"] + bad[1:] if bad else [] for bad in checked.messages], checked.forest


def _checked_trees(m, seq, trace, f, guard):
    """check_tree_bounds' (violations, flags, ratios) per tree of the forest
    f of the valid trees (or None), in trial order: the oracles, which read
    no trace (unguarded), and the checks each run once, on that forest."""
    if f is None:
        return []
    f, opt, load = SPECS[seq.problem].tree_oracles(seq, f)
    return check_tree_bounds(m, seq, trace, f, opt, load, guard)


def per_run_checks(m, seq, sol, trace):
    """Each entry: (check name, list of violations)."""
    spec = SPECS[seq.problem]
    total = solution_cost(sol, seq, m).total
    derived = trace.total_cost()
    checks = [("cost_consistency", [] if same_cost(total, derived) else
               [f"solution cost {total:g} != trace cost {derived:g}"])]
    feas = check_feasible(sol, seq, m)
    prefix_bad = [
        f"request {rec.idx} infeasible at arrival" for rec in trace.records if not rec.feasible_now
    ] + [f"request {i} infeasible in final state" for i, ok in enumerate(feas) if not ok]
    checks.append(("online_feasibility", prefix_bad))
    checks += [(name, check(m, seq, trace)) for name, check in spec.run_checks.items()]
    return checks + [(name, check(m, seq, sol, trace)) for name, check in spec.solution_checks.items()]


# What a malformed forged trace can make a check raise (IndexError: a trace
# built in memory skips the file schema, so a record's idx may name no
# request): such a check reports "check error: ..." as its violation instead
# of crashing the replay.
_CHECK_ERRORS = (OndesignError, TypeError, ValueError, IndexError)


def _guarded_run_check(check, m, seq, trace):
    try:
        return check(m, seq, trace)
    except _CHECK_ERRORS as exc:
        return [f"check error: {exc}"]


def verify_run(m, seq, trials=20, seed=0, forged_trace=None):
    """Full verification of one instance: run, per-run checks, per-tree checks.

    Returns a deterministic report dict; `violations` empty iff everything
    passed.  A forged (replayed) trace replaces the algorithm's own run: it
    has no solution, so it gets the spec's run checks but neither the cost,
    feasibility nor solution checks.  Its checks, per-run and per-tree, are
    guarded by _CHECK_ERRORS; on the own run a check that raises is a program
    fault, and the exception propagates.
    """
    spec = SPECS[seq.problem]
    if forged_trace is None:
        sol, trace = run_problem(m, seq)
        checks = per_run_checks(m, seq, sol, trace)
        cost_doc = solution_cost(sol, seq, m).as_dict()
        guard = ()  # an exception in a check of the own run is a program fault
    else:
        trace, guard = forged_trace, _CHECK_ERRORS
        checks = [(name, _guarded_run_check(check, m, seq, trace)) for name, check in spec.run_checks.items()]
        cost_doc = {"total": trace.total_cost()}

    seeds = [_tree_seed(seed, trial) for trial in range(trials)]
    try:
        sampled, f = _sampled_trees(m, tree_points(seq), seeds)
    except guard as exc:
        sampled, f = [[f"check error: {exc}"]] * trials, None
    checked = iter(_checked_trees(m, seq, trace, f, guard))
    ratios = {}
    flags = []
    tree_violations = []
    witness_seed = None
    for trial, viol in enumerate(sampled):
        fl, rat = [], {}
        if f is not None and not viol:
            viol, fl, rat = next(checked)
        for name, value in rat.items():
            ratios[name] = max(ratios.get(name, 0.0), value)
        flags += [f"trial {trial}: {f}" for f in fl]
        if viol and witness_seed is None:
            witness_seed = seeds[trial]
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


def embed_report(m, points, trials=200, seed=0):
    """Sample `trials` HSTs for `points`; report validity rate and the mean
    stretch of each pair of their terminals (distinct positions)."""
    terms = Terminals(m, points)
    checked = validate_hst([sample_frt(terms, _tree_seed(seed, trial)) for trial in range(trials)], m)
    invalid = sum(1 for bad in checked.messages if bad)
    # pairs u < v, accumulated trial by trial
    u, v = np.triu_indices(len(terms.terminals), 1)
    sums = np.zeros(len(u))
    for T in checked.distances:
        sums += T[u, v] / terms.d[u, v]
    means = (sums / trials).tolist() if trials else []
    return {
        "k": len(terms.terminals),
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
