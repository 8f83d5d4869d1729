"""The trace-reading tree checks run once per instance, on the forest of its
valid trees.  Every tree must get what the per-tree references in conftest
give it, bit for bit (messages, flags and ratio floats, whose sums keep their
entry order), and every check error must land on the trials it belongs to."""

import dataclasses

import pytest

from conftest import (
    forest,
    line_metric,
    per_tree,
    ref_check_cut_capacity,
    ref_check_pcst_invariants,
    ref_check_tree_bounds,
    ref_class_cuts,
    ref_covers_from_tree,
    ref_pcst_cut_lower_bound,
    tree_groups,
    tree_views,
)
from test_acceptance import PROBLEMS, _instance
from ondesign.hst import Terminals, extend_singleton_levels, sample_frt
from ondesign.metric import RequestRecord, RequestSequence, RunTrace
from ondesign.prize import check_pcst_invariants, positive_share_rows
from ondesign.rentorbuy import check_cut_capacity
from ondesign.steiner import covers_from_tree
from ondesign.tree_opt import pcst_cut_lower_bound
from ondesign.verify import (
    _CHECK_ERRORS,
    SPECS,
    _sampled_trees,
    _tree_seed,
    check_tree_bounds,
    run_problem,
    tree_points,
    verify_run,
)

SLICE = 37  # the benchmark's battery: the first 37 instances of each problem
TRIALS = 20


def _forest_facts(m, seq, seed):
    """What verify_run hands check_tree_bounds: the oracles' forest of the
    valid trees, their optima and the forest's cut load (or None)."""
    _, f = _sampled_trees(m, tree_points(seq), [_tree_seed(seed, trial) for trial in range(TRIALS)])
    return SPECS[seq.problem].tree_oracles(seq, f)


def _tree_loads(f, load):
    return [None] * f.n_trees if load is None else [part.tolist() for part in per_tree(f, load)]


def _ref_bounds(m, seq, trace, f, opt, load, guard=()):
    return [ref_check_tree_bounds(m, seq, trace, t, o, w, guard)
            for t, o, w in zip(tree_views(f), opt, _tree_loads(f, load), strict=True)]


def _with_forests(trace, forests):
    forged = RunTrace(list(trace.records))
    forged.summary = {"forests": forests}
    return forged


def _doubled(trace):
    """The trace with every A_j edge list repeated: each repeat closes a meta-cycle."""
    return _with_forests(trace, [dict(forest, A=[[j, edges + edges] for j, edges in forest["A"]])
                                 for forest in trace.summary["forests"]])


def _cover_dicts(covers):
    """covers_from_tree's covers per tree as ref_covers_from_tree's dicts, or the tree's error."""
    points, cover, errors = covers
    return [error or {j: {p: cut for p, cut in zip(points, cuts[g].tolist()) if cut >= 0} for j, cuts in cover.items()}
            for g, error in enumerate(errors)]


def _ref_covers(t, trace):
    try:
        return ref_covers_from_tree(t, trace)
    except ValueError as exc:
        return exc


def _same(got, ref):
    """Per tree, equal results; an error equals one of the same type and message."""
    assert [(type(x), str(x)) if isinstance(x, Exception) else x for x in got] == \
        [(type(x), str(x)) if isinstance(x, Exception) else x for x in ref]


@pytest.mark.parametrize("problem", PROBLEMS)
def test_forest_checks_match_per_tree_references_on_the_battery(problem):
    # the own runs, then what fires: cut caps and root cuts under lowered
    # class shifts, PCST flags, and the meta-cycles of doubled edge lists
    fired = 0
    for i in range(SLICE):
        m, seq, seed = _instance(problem, i)
        _, trace = run_problem(m, seq)
        f, opt, load = _forest_facts(m, seq, seed)
        assert check_tree_bounds(m, seq, trace, f, opt, load) == _ref_bounds(m, seq, trace, f, opt, load)
        if load is not None:
            for shift in (0, -1):
                got = check_cut_capacity(seq, trace, f, shift, load)
                assert got == [ref_check_cut_capacity(seq, trace, t, shift, w)
                               for t, w in zip(tree_views(f), _tree_loads(f, load))]
                fired += sum(len(out) for out in got)
        if problem == "PCST":
            rows = positive_share_rows(seq, trace)
            viol, flags, cuts = check_pcst_invariants(f, rows, seq.root)
            refs = [ref_class_cuts(t, rows, 1, seq.root) for t in tree_views(f)]
            assert tree_groups(f, cuts) == refs
            assert list(zip(viol, flags)) == [ref_check_pcst_invariants(c) for c in refs]
            assert pcst_cut_lower_bound(cuts) == [ref_pcst_cut_lower_bound(c) for c in refs]
            fired += sum(len(out) for out in flags)
        if trace.summary.get("forests"):
            forged = _doubled(trace)
            _same(_cover_dicts(covers_from_tree(f, forged)), [_ref_covers(t, forged) for t in tree_views(f)])
            got = check_tree_bounds(m, seq, forged, f, opt, load, _CHECK_ERRORS)
            assert got == _ref_bounds(m, seq, forged, f, opt, load, _CHECK_ERRORS)
            fired += sum("meta-cycle" in v for out, _, _ in got for v in out)
    assert fired > 50 or problem == "SteinerTree"  # a Steiner tree has no trace-reading cut check


def _varied_instance():
    """The first battery SteinerForest instance whose valid trees' root
    levels differ, with its own run and forest facts."""
    for i in range(SLICE):
        m, seq, seed = _instance("SteinerForest", i)
        f, opt, load = _forest_facts(m, seq, seed)
        tops = f.root_levels.tolist()
        if len(set(tops)) > 1 and f.n_trees == TRIALS:
            return m, seq, seed, run_problem(m, seq)[1], (f, opt, load), max(tops)
    raise AssertionError("no battery SteinerForest instance with differing root levels")


def test_a_level_outside_some_trees_is_a_check_error_of_those_trials_only():
    m, seq, seed, trace, (f, opt, load), top = _varied_instance()
    p, q = seq.pairs[0]
    forged = _with_forests(trace, trace.summary["forests"] + [
        {"copies": 1, "A": [[top, [[p, q]]]], "occ": [[p, top], [q, top]], "zero_merges": []}])
    got = check_tree_bounds(m, seq, forged, f, opt, load, _CHECK_ERRORS)
    assert got == _ref_bounds(m, seq, forged, f, opt, load, _CHECK_ERRORS)
    outside = (f.root_levels < top).tolist()
    assert 0 < sum(outside) < len(outside)
    for root_level, (viol, flags, ratios), out in zip(f.root_levels.tolist(), got, outside):
        if out:  # the error is the trial's one violation, and its ratios are dropped
            assert (viol, flags, ratios) == ([f"check error: level {top} outside [0, {root_level}]"], [], {})
        else:
            assert not any(v.startswith("check error") for v in viol) and "cost_vs_tree" in ratios
    report = verify_run(m, seq, trials=TRIALS, seed=seed, forged_trace=forged)
    lines = [f"trial {trial}: {v}" for trial, (viol, _, _) in enumerate(got) for v in viol]
    assert report["tree_checks"] == {"fail": len(lines), "violations": lines[:10]}
    kept = [ratios["cost_vs_tree"] for (_, _, ratios), out in zip(got, outside) if not out]
    assert report["max_ratios"]["cost_vs_tree"] == round(max(kept), 12)
    with pytest.raises(ValueError, match=f"^level {top} outside "):  # a program fault on the own run
        check_tree_bounds(m, seq, forged, f, opt, load)
    # a later forest whose edge has one end (a trace built in memory skips
    # the file schema) raises off the trace alone: on the trials without a
    # level error, which keep theirs
    broken = _with_forests(forged, forged.summary["forests"] + [
        {"copies": 1, "A": [[0, [[p]]]], "occ": [[p, 0]], "zero_merges": []}])
    got = check_tree_bounds(m, seq, broken, f, opt, load, _CHECK_ERRORS)
    assert got == _ref_bounds(m, seq, broken, f, opt, load, _CHECK_ERRORS)
    assert [viol[0].startswith(f"check error: level {top} outside") for viol, _, _ in got] == outside
    assert all(viol == ["check error: not enough values to unpack (expected 2, got 1)"]
               for (viol, _, _), out in zip(got, outside) if not out)


@pytest.mark.parametrize("problem", ["SROB", "MROB", "PCST"])
def test_a_trace_error_is_a_check_error_of_every_valid_trial(problem):
    # a record of no request (a trace built in memory skips the file schema):
    # reading its points raises off the trace alone, before the meta-graph
    # check could place a level error of MROB's on some trials only
    m, seq, seed = _instance(problem, 3)
    _, trace = run_problem(m, seq)
    f, opt, load = _forest_facts(m, seq, seed)
    klass = next(rec.klass for rec in trace.records if rec.klass is not None)
    stray = dataclasses.replace(trace.records[0], idx=len(seq.requests), decision="rent", klass=klass, rho=1.0)
    forged = _with_forests(RunTrace(trace.records + [stray]), [
        {"copies": 1, "A": [[99, [list(seq.pairs[0])]]], "occ": [], "zero_merges": []}])
    got = check_tree_bounds(m, seq, forged, f, opt, load, _CHECK_ERRORS)
    assert got == _ref_bounds(m, seq, forged, f, opt, load, _CHECK_ERRORS)
    assert got == [(["check error: tuple index out of range"], [], {})] * f.n_trees
    report = verify_run(m, seq, trials=TRIALS, seed=seed, forged_trace=forged)
    assert report["tree_checks"]["fail"] == f.n_trees and report["max_ratios"] == {}


def test_cut_sums_add_in_entry_order():
    # three penalties at one point share its level-2 cut in every tree, and
    # 0.1 + 0.2 + 0.3 differs from 0.3 + 0.2 + 0.1 in floating point
    m = line_metric([0, 8])
    pis = [0.1, 0.2, 0.3]
    seq = RequestSequence(problem="PCST", requests=tuple((1, pi) for pi in pis), root=0)
    forged = RunTrace([RequestRecord(idx=i, decision="penalty", klass=3, cost=pi, rho=pi) for i, pi in enumerate(pis)])
    f = extend_singleton_levels(forest([sample_frt(Terminals(m, [0, 1]), seed) for seed in range(3)]))
    _, _, cuts = check_pcst_invariants(f, positive_share_rows(seq, forged), seq.root)
    assert cuts.total([pi for _, _, pi in cuts.entries]).tolist() == [0.1 + 0.2 + 0.3] * 3 != [0.3 + 0.2 + 0.1] * 3
    assert pcst_cut_lower_bound(cuts) == [0.1 + 0.2 + 0.3] * 3
