"""In-memory spans and counts recorded by wrapping module attributes.

The wrappers sit at the module attribute each caller resolves at call time
(for example `ondesign.verify.sample_frt`, because `verify.py` imports the
name), so no file of the package changes.  Spans nest through a call stack:
every span records its parent span and the request (instance) it belongs to.
A layer's self time is its span's duration minus the durations of its direct
child spans; since the benchmark is single-threaded, children never overlap.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, span name).  An attribute "Class.method" wraps the
# method on the class.  Several attributes may share one span name when
# callers resolve the same function through different modules.
SPAN_TARGETS = [
    ("ondesign.generators", "gen_euclidean", "generators"),
    ("ondesign.generators", "gen_graph_metric", "generators"),
    ("ondesign.generators", "gen_requests", "generators"),
    ("ondesign.generators", "gen_diamond_lb", "generators"),
    ("ondesign.generators", "build_metric", "metric.build_metric"),
    ("ondesign.metric", "build_metric", "metric.build_metric"),
    ("ondesign.metric", "instance_from_dict", "metric.instance_from_dict"),
    ("ondesign.metric", "solution_cost", "metric.solution_cost"),
    ("ondesign.verify", "solution_cost", "metric.solution_cost"),
    ("ondesign.verify", "check_feasible", "metric.check_feasible"),
    ("ondesign.metric", "max_flow", "metric.max_flow"),
    ("ondesign.steiner", "max_flow", "metric.max_flow"),
    ("ondesign.verify", "verify_run", "verify.verify_run"),
    ("ondesign.verify", "run_problem", "stage.run"),
    ("ondesign.verify", "per_run_checks", "stage.per_run_checks"),
    ("ondesign.verify", "check_tree_bounds", "verify.check_tree_bounds"),
    ("ondesign.verify", "sample_frt", "hst.sample_frt"),
    ("ondesign.verify", "validate_hst", "hst.validate_hst"),
    ("ondesign.verify", "extend_singleton_levels", "hst.extend_singleton_levels"),
    ("ondesign.verify", "run_greedy_st", "steiner.run_greedy_st"),
    ("ondesign.verify", "run_bc_sf", "steiner.run_bc_sf"),
    ("ondesign.verify", "run_sn", "steiner.run_sn"),
    ("ondesign.verify", "run_srob", "rentorbuy.run_srob"),
    ("ondesign.verify", "run_mrob", "rentorbuy.run_mrob"),
    ("ondesign.verify", "run_cfl", "cfl.run_cfl"),
    ("ondesign.verify", "run_pcst", "prize.run_pcst"),
    ("ondesign.verify", "opt_tree_steiner_tree", "tree_opt.opt_tree_steiner_tree"),
    ("ondesign.verify", "opt_tree_steiner_forest", "tree_opt.opt_tree_steiner_forest"),
    ("ondesign.verify", "opt_tree_steiner_network", "tree_opt.opt_tree_steiner_network"),
    ("ondesign.verify", "opt_tree_rob_single", "tree_opt.opt_tree_rob_single"),
    ("ondesign.verify", "opt_tree_rob_multi", "tree_opt.opt_tree_rob_multi"),
    ("ondesign.verify", "opt_tree_pcst", "tree_opt.opt_tree_pcst"),
    ("ondesign.verify", "pcst_cut_lower_bound", "tree_opt.pcst_cut_lower_bound"),
    ("ondesign.verify", "check_cut_capacity", "rentorbuy.check_cut_capacity"),
    ("ondesign.verify", "covers_from_tree", "steiner.covers_from_tree"),
    ("ondesign.verify", "check_metagraph_acyclic", "steiner.check_metagraph_acyclic"),
    ("ondesign.verify", "check_pcst_invariants", "prize.check_pcst_invariants"),
]

# (module, attribute, count name): call counts only, no span, for functions
# called too often (tree_distance: about a million calls per large pass) or
# whose call is the event of interest (a promotion of a sampled tree).
COUNT_TARGETS = [
    ("ondesign.hst", "tree_distance", "hst.tree_distance.calls"),
    ("ondesign.hst", "_promote_one_level", "hst.sample_frt.promoted"),
    ("ondesign.cfl", "OflState.arrive", "cfl.OflState.arrive.calls"),
]


@dataclass
class Span:
    name: str
    parent: int  # index of the parent span, -1 at top level
    request: int  # index of the instance within its pass, -1 outside one
    tag: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers, records spans and counts, removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.tag = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in SPAN_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for module, attr, name in COUNT_TARGETS:
            self._patch(module, attr, lambda fn, name=name: self._count_wrapper(name, fn))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _patch(self, module, attr, make):
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def _span_wrapper(self, name, fn):
        stack = self._stack
        nodes = name == "hst.sample_frt"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent, self.request, self.tag, 0.0)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if nodes:
                self.counts["hst.nodes"] += result.n_nodes
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, total and self seconds; plus per (name, tag) and
    per (name, parent name) totals."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    by_tag, by_parent = defaultdict(float), defaultdict(float)
    for i, span in enumerate(spans):
        dur = span.duration
        calls[span.name] += 1
        total[span.name] += dur
        self_s[span.name] += dur - child[i]
        by_tag[span.name, span.tag] += dur
        parent = spans[span.parent].name if span.parent >= 0 else ""
        by_parent[span.name, parent] += dur
    return {"calls": calls, "total": total, "self": self_s, "by_tag": by_tag, "by_parent": by_parent}
