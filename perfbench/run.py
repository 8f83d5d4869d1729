"""The repository benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.

With --trace 0 the run starts the speed probe of speed.py, imports the
package, sets the workload up SETUP_REPEATS times, then cycles through the
workload's instances until --seconds have elapsed, after at least one full
pass.  Every timed interval is divided by the slowdown the probe's reference
loop saw around it, which puts it at the reference speed: on a shared host
the neighbours otherwise move a pass's wall time by a third.  setup_s is the
import time plus the median set-up; wall_s, the time of one pass, is the sum
over the instances of each instance's mean time.  Every metric is printed as
`metric <name> <value> <unit>`, the measured wall time of a pass and the
run's slowdown among them; the last line of output is the JSON result, whose
`metrics` hold the end-to-end metrics shared by every workload.

With --trace 1 the set-up runs once, traced, followed by three passes:
traced, untraced, traced.  The per-layer metrics come from the traced set-up
and the first traced pass; `trace.overhead_frac` compares the traced passes
with the untraced one.  The run is marked incorrect if a traced report
differs from an untraced one (an instance failure, below), if a count
differs between the two traced passes, or if the spans leave more than
RESIDUAL_BOUND of the traced pass's wall time unaccounted for.

An instance fails when it raises, when its report has violations, when its
report digest differs from the recorded one (default seed only), or when it
differs from the same instance's first report in the run.

    python3 perfbench/run.py --record-digests

rewrites digests.json from one pass of every workload at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter, sleep

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_REPEATS = 5
RESIDUAL_BOUND = 0.05

# name, unit, better, bound: the metrics in every --trace 0 result.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

ORACLES = [
    "opt_tree_steiner_tree", "opt_tree_steiner_forest", "opt_tree_steiner_network",
    "opt_tree_rob_single", "opt_tree_rob_multi", "opt_tree_pcst", "pcst_cut_lower_bound",
]
PER_TREE_CHECKS = [
    "rentorbuy.check_cut_capacity", "steiner.covers_from_tree",
    "steiner.check_metagraph_acyclic", "prize.check_pcst_invariants",
]
ALGORITHMS = [
    "steiner.run_greedy_st", "steiner.run_bc_sf", "steiner.run_sn", "rentorbuy.run_srob",
    "rentorbuy.run_mrob", "cfl.run_cfl", "prize.run_pcst",
]
COUNTS = [
    "hst.sample_frt.calls", "hst.sample_frt.promoted", "hst.nodes", "hst.tree_distance.calls",
    "cfl.OflState.arrive.calls", "metric.max_flow.calls", "metric.build_metric.calls",
]
SCALING = [f"stage.{stage}.k{k}.s" for stage in ("sample_frt", "validate_hst") for k in (160, 320)]

# name, unit, better: the metrics in every --trace 1 result.
PER_LAYER = (
    [("stage.sample_frt.s", "s", "lower"), ("stage.validate_hst.s", "s", "lower"),
     ("hst.extend_singleton_levels.s", "s", "lower")]
    + [(f"tree_opt.{o}.s", "s", "lower") for o in ORACLES]
    + [("stage.tree_oracles.s", "s", "lower")]
    + [(f"{c}.s", "s", "lower") for c in PER_TREE_CHECKS]
    + [("stage.per_tree_checks.s", "s", "lower"),
       ("verify.check_tree_bounds.self_s", "s", "lower"),
       ("verify.verify_run.self_s", "s", "lower")]
    + [(f"{a}.s", "s", "lower") for a in ALGORITHMS]
    + [("metric.max_flow.s", "s", "lower"), ("stage.run.s", "s", "lower"),
       ("stage.per_run_checks.s", "s", "lower"),
       ("metric.instance_from_dict.s", "s", "lower"), ("metric.build_metric.s", "s", "lower"),
       ("metric.check_feasible.s", "s", "lower"), ("metric.solution_cost.s", "s", "lower"),
       ("generators.s", "s", "lower")]
    + [(c, "count", "lower") for c in COUNTS]
    + [(s, "s", "lower") for s in SCALING]
    + [("trace.overhead_frac", "frac", "lower"), ("trace.residual_frac", "frac", "lower")]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["battery", "verify_large", "online"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def import_package():
    """Imports the package from ./src; returns the workloads module and the
    (start, end) of the import."""
    if not os.path.isfile(os.path.join(SRC, "ondesign", "__init__.py")):
        raise SystemExit(f"error: no package at {SRC}/ondesign; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import workloads
    return workloads, (t0, perf_counter())


def run_instance(inst, probe=None):
    """(seconds, report, error) of one call into the package; with a probe,
    the time its handler took during the call is left out."""
    spent = probe.spent if probe else 0.0
    t0 = perf_counter()
    try:
        report, error = inst.run(), None
    except Exception as exc:  # counted as a failed instance, run goes on
        report, error = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if probe:
        dt -= probe.spent - spent
    return dt, report, error


class Gate:
    """Checks every report; counts attempted and failed instances."""

    def __init__(self, wl, instances, recorded):
        self.wl = wl
        self.labels = [inst.label for inst in instances]
        self.recorded = recorded  # per-instance digests, or None
        self.first = [None] * len(instances)  # digest of each first report
        self.attempted = 0
        self.failed = 0
        self.problems = []
        if recorded is not None and len(recorded) != len(instances):
            self.problems.append(f"{len(recorded)} recorded digests for {len(instances)} instances")
            self.recorded = None

    def check(self, i, report, error):
        why = error
        if report is not None:
            digest = self.wl.report_digest(report)
            if report["violations"]:
                why = f"{report['violations']} violations"
            elif self.recorded is not None and digest != self.recorded[i]:
                why = "report digest differs from the recorded one"
            elif self.first[i] is not None and digest != self.first[i]:
                why = "report differs from the first one"
            if self.first[i] is None:
                self.first[i] = digest
        self.attempted += 1
        if why is not None:
            self.failed += 1
            self.problems.append(f"{self.labels[i]}: {why}")


def run_pass(instances, gate, tracer=None):
    """Runs every instance once; returns the wall time of the pass."""
    start = perf_counter()
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.request, tracer.tag = i, inst.tag
        _, report, error = run_instance(inst)
        gate.check(i, report, error)
    return perf_counter() - start


def load_recorded(workload, seed, default_seed):
    if seed != default_seed or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        entry = json.load(fh).get(workload)
    return None if entry is None else entry["reports"]


def measure(wl, probe, import_span, workload, seed, seconds):
    """The --trace 0 run, with the speed probe running since before the import."""
    setups = []
    for _ in range(SETUP_REPEATS):
        instances = None  # let the previous copy go before building the next
        spent, t0 = probe.spent, perf_counter()
        instances = wl.WORKLOADS[workload](seed)
        setups.append((t0, perf_counter(), probe.spent - spent))
    gate = Gate(wl, instances, load_recorded(workload, seed, wl.DEFAULT_SEED))
    # Cycle through the instances until the deadline, after one full pass.
    calls = []  # (instance, start, seconds)
    start = perf_counter()
    i = 0
    while len(calls) < len(instances) or perf_counter() - start < seconds:
        t0 = perf_counter()
        dt, report, error = run_instance(instances[i], probe)
        calls.append((i, t0, dt))
        gate.check(i, report, error)
        i = (i + 1) % len(instances)
    measured_s = perf_counter() - start
    sleep(2 * probe.period)  # so the last call has a sample after it

    # Every time is divided by the slowdown the reference loop saw around it
    # (see speed.py), which puts it at the reference speed.
    times = [[] for _ in instances]
    raw = [[] for _ in instances]
    for i, t0, dt in calls:
        times[i].append(dt / probe.slowdown(t0, t0 + dt))
        raw[i].append(dt)
    per_instance = [statistics.fmean(samples) for samples in times]
    wall_s = sum(per_instance)
    # The import is put at the reference speed by the slowdown of the whole
    # set-up phase: on its own it holds too few probe calls, and numpy's
    # import defers them.
    t0, t1, spent = import_span
    import_s = (t1 - t0 - spent) / probe.slowdown(t0, setups[-1][1])
    setup_s = statistics.median((b - a - s) / probe.slowdown(a, b) for a, b, s in setups)
    requests = sum(inst.requests for inst in instances)
    trees = sum(inst.trees for inst in instances)
    metrics = {
        "setup_s": import_s + setup_s,
        "wall_s": wall_s,
        "requests_per_s": requests / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    passes = len(calls) / len(instances)
    extra = [
        ("failed_frac", gate.failed / gate.attempted, "frac"),
        ("measured_wall_s", sum(statistics.fmean(samples) for samples in raw), "s"),
        ("slowdown", probe.slowdown(start, start + measured_s), "x"),
    ]
    if trees:
        extra.append(("trees_per_s", trees / wall_s, "1/s"))
    if len(per_instance) >= 200:  # at least ten instances beyond p95
        extra += [
            ("instance_p50_ms", 1000 * statistics.median(per_instance), "ms"),
            ("instance_p95_ms", 1000 * statistics.quantiles(per_instance, n=20, method="inclusive")[18], "ms"),
        ]
    print(f"# {workload} seed {seed}: {len(instances)} instances, {len(calls)} timed calls "
          f"({passes:.2f} passes), {requests} requests and {trees} trees per pass")
    units = {name: unit for name, unit, _, _ in END_TO_END}
    show([(name, value, units[name]) for name, value in metrics.items()] + extra)
    return gate, metrics


def show(rows):
    for name, value, unit in rows:
        print(f"metric {name} {value:.6g} {unit}" if isinstance(value, float) else f"metric {name} {value} {unit}")


def layer_metrics(setup, p, counts, overhead, residual):
    total, by_parent, by_tag = p["total"], p["by_parent"], p["by_tag"]
    out = {
        "stage.sample_frt.s": total["hst.sample_frt"],
        "stage.validate_hst.s": total["hst.validate_hst"],
        "hst.extend_singleton_levels.s": total["hst.extend_singleton_levels"],
    }
    for o in ORACLES:
        out[f"tree_opt.{o}.s"] = total[f"tree_opt.{o}"]
    out["stage.tree_oracles.s"] = sum(total[f"tree_opt.{o}"] for o in ORACLES)
    for c in PER_TREE_CHECKS:
        out[f"{c}.s"] = by_parent[c, "verify.check_tree_bounds"]
    out["stage.per_tree_checks.s"] = sum(out[f"{c}.s"] for c in PER_TREE_CHECKS)
    out["verify.check_tree_bounds.self_s"] = p["self"]["verify.check_tree_bounds"]
    out["verify.verify_run.self_s"] = p["self"]["verify.verify_run"]
    for a in ALGORITHMS:
        out[f"{a}.s"] = total[a]
    for name in ("metric.max_flow", "stage.run", "stage.per_run_checks",
                 "metric.instance_from_dict", "metric.check_feasible", "metric.solution_cost"):
        out[f"{name}.s"] = total[name]
    out["metric.build_metric.s"] = total["metric.build_metric"] + setup["total"]["metric.build_metric"]
    out["generators.s"] = setup["total"]["generators"]
    for name in COUNTS:
        out[name] = counts[name]
    out["metric.build_metric.calls"] += setup["calls"]["metric.build_metric"]
    for name in SCALING:
        _, stage, k, _ = name.split(".")
        out[name] = by_tag[f"hst.{stage}", k]
    out["trace.overhead_frac"] = overhead
    out["trace.residual_frac"] = residual
    return out


def pass_counts(tracer, summary):
    """Counts of one traced pass: the wrappers' counts and every span's calls."""
    counts = Counter(tracer.counts)
    counts.update({f"{name}.calls": n for name, n in summary["calls"].items()})
    return counts


def measure_traced(wl, workload, seed, build=None):
    from spans import Tracer, summarize

    build = build or wl.WORKLOADS[workload]
    tracer = Tracer()
    with tracer:
        instances = build(seed)
    setup = summarize(tracer.spans)
    gate = Gate(wl, instances, load_recorded(workload, seed, wl.DEFAULT_SEED))

    def traced_pass():
        tracer.reset()
        with tracer:
            wall = run_pass(instances, gate, tracer)
        summary = summarize(tracer.spans)
        return wall, summary, pass_counts(tracer, summary)

    wall1, summary1, counts1 = traced_pass()
    wall_u = run_pass(instances, gate)
    wall2, _, counts2 = traced_pass()

    overhead = (wall1 + wall2) / 2 / wall_u - 1
    residual = 1 - sum(summary1["self"].values()) / wall1
    metrics = layer_metrics(setup, summary1, counts1, overhead, residual)
    problems = []
    if counts1 != counts2:
        diff = sorted(k for k in set(counts1) | set(counts2) if counts1.get(k) != counts2.get(k))
        problems.append(f"counts differ between traced passes: {diff}")
    if not 0 <= residual <= RESIDUAL_BOUND:
        problems.append(f"spans leave {residual:.3%} of the traced wall time unaccounted for")
    print(f"# {workload} seed {seed}: traced, untraced, traced passes of {len(instances)} instances; "
          f"wall {wall1:.3f} / {wall_u:.3f} / {wall2:.3f} s; residual bound {RESIDUAL_BOUND:.0%}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    show([(name, value, units[name]) for name, value in metrics.items()])
    return gate, metrics, problems


def record_digests(wl):
    doc = {}
    for workload, build in wl.WORKLOADS.items():
        instances = build(wl.DEFAULT_SEED)
        gate = Gate(wl, instances, None)
        run_pass(instances, gate)
        digests = gate.first
        if gate.failed:
            raise SystemExit(f"error: {workload} fails at the default seed: {gate.problems[:3]}")
        doc[workload] = {"digest": wl.workload_digest(digests), "reports": digests}
        print(f"# {workload}: {doc[workload]['digest']}")
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    if args.record_digests:
        record_digests(import_package()[0])
        return 0
    if args.trace:
        wl, _ = import_package()
        gate, metrics, problems = measure_traced(wl, args.workload, args.seed)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        with SpeedProbe() as probe:
            spent = probe.spent
            wl, (t0, t1) = import_package()
            import_span = (t0, t1, probe.spent - spent)
            gate, metrics = measure(wl, probe, import_span, args.workload, args.seed, args.seconds)
        problems = []
        units = {name: unit for name, unit, _, _ in END_TO_END}
    problems = gate.problems + problems
    for line in problems[:20]:
        print(f"# FAIL {line}")
    result = {
        "correct": not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
