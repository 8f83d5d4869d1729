"""Command-line harness: gen | run | verify | ratio | embed.

Every command is a deterministic function of its inputs and --seed; reports
carry no timestamps so repeated runs are byte-identical.

Exit codes: 0 ok; 2 schema/usage error; 3 infeasible run; 4 bound or embedding
violation; 5 offline-oracle cap exceeded.  A traceback (exit 1) is a program fault.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .errors import OndesignError, SchemaError, TooLarge
from .generators import gen_diamond_lb, gen_euclidean, gen_graph_metric, gen_requests
from .metric import (
    PROBLEMS,
    RunTrace,
    check_feasible,
    instance_to_dict,
    load_instance,
    solution_cost,
)
from .verify import SPECS, embed_report, exact_optimum, run_problem, tree_points, verify_run


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _params(args) -> dict:
    return {"M": args.M, "R_max": args.rmax, "n_facilities": args.facilities}


def _load(args):
    """The instance of args, as a SchemaError (exit 2) if unreadable or not --algo's."""
    try:
        m, seq = load_instance(args.instance)
    except (OndesignError, OSError, json.JSONDecodeError) as exc:
        raise SchemaError(str(exc)) from exc
    algo = getattr(args, "algo", None)
    if algo is not None and algo != seq.problem:
        raise SchemaError(f"algo {algo} does not match instance problem {seq.problem}")
    return m, seq


def cmd_gen(args) -> int:
    if args.family == "diamond":
        m, seq, _ = gen_diamond_lb(args.depth)
    else:
        if args.family == "euclidean":
            m, _ = gen_euclidean(args.n, seed=args.seed)
        else:
            m = gen_graph_metric(args.n, density=args.density, seed=args.seed)
        if PROBLEMS[args.problem].facilities and args.facilities > m.n:
            raise SchemaError(f"--facilities {args.facilities} exceeds the {m.n} points")
        seq = gen_requests(args.problem, m, args.count, args.seed, _params(args))
    _write(args.out, _json(instance_to_dict(m, seq)))
    return 0


def cmd_run(args) -> int:
    m, seq = _load(args)
    sol, trace = run_problem(m, seq)
    cost = solution_cost(sol, seq, m)
    feas = check_feasible(sol, seq, m)
    prefix_ok = all(rec.feasible_now for rec in trace.records) and all(feas)
    trace_path = None
    if args.out not in (None, "-"):
        trace_path = args.out + ".trace.jsonl"
        trace.to_jsonl(trace_path)
    doc = {
        "problem": seq.problem,
        "cost": cost.as_dict(),
        "feasible_per_request": feas,
        "feasible": prefix_ok,
        "trace": trace_path,
        "seed": args.seed,
    }
    _write(args.out, _json(doc))
    return 0 if prefix_ok else 3


def cmd_verify(args) -> int:
    m, seq = _load(args)
    forged = None
    if args.trace:
        shape = SPECS[seq.problem].summary_shape
        forged = RunTrace.from_jsonl(args.trace, shape, m.n, len(seq.requests))
    report = verify_run(m, seq, trials=args.trials, seed=args.seed, forged_trace=forged)
    _write(args.out, _json(report))
    return 4 if report["violations"] else 0


def _fit_log_constant(rows):
    num = sum(r["ratio"] * math.log2(r["k"]) for r in rows if r["k"] > 1)
    den = sum(math.log2(r["k"]) ** 2 for r in rows if r["k"] > 1)
    return num / den if den else 0.0


def _ratio_row(m, seq, k, opt, seed) -> dict:
    sol, _ = run_problem(m, seq)
    cost = solution_cost(sol, seq, m).total
    return {
        "problem": seq.problem,
        "k": k,
        "n": m.n,
        "M": seq.M if seq.M is not None else "",
        "alg_cost": cost,
        "opt_cost": opt,
        "ratio": cost / opt if opt > 0 else (0.0 if cost <= 1e-12 else math.inf),
        "seed": seed,
    }


def cmd_ratio(args) -> int:
    points = max(min(args.sizes) + 1, args.n)  # the smallest metric drawn
    if args.family != "diamond" and PROBLEMS[args.problem].facilities and args.facilities > points:
        raise SchemaError(f"--facilities {args.facilities} exceeds the {points} points of the smallest size")
    rows = []
    try:
        if args.family == "diamond":
            for depth in args.sizes:
                m, seq, info = gen_diamond_lb(depth)
                rows.append(_ratio_row(m, seq, info["k"], info["opt"], depth))
        else:
            for k in args.sizes:
                for trial in range(args.trials):
                    seed = args.seed * 100003 + k * 1009 + trial
                    count = max(1, k // 2) if PROBLEMS[args.problem].paired else k
                    m, _ = gen_euclidean(max(k + 1, args.n), seed=seed)
                    seq = gen_requests(args.problem, m, count, seed, _params(args))
                    rows.append(_ratio_row(m, seq, seq.k, exact_optimum(m, seq), seed))
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["problem", "k", "n", "M", "alg_cost", "opt_cost", "ratio", "seed"])
    writer.writeheader()
    writer.writerows(rows)
    per_size = {}
    for row in rows:
        per_size[row["k"]] = max(per_size.get(row["k"], 0.0), row["ratio"])
    summary = {
        "per_size_max": {str(k): v for k, v in sorted(per_size.items())},
        "fitted_c": _fit_log_constant(rows),
    }
    buf.write("# summary " + json.dumps(summary, sort_keys=True) + "\n")
    _write(args.out, buf.getvalue())
    return 0


def cmd_embed(args) -> int:
    m, seq = _load(args)
    report = embed_report(m, tree_points(seq) or range(m.n), trials=args.trials, seed=args.seed)
    _write(args.out, _json(report))
    return 4 if report["invalid_trees"] else 0


def _count(text, low=0):
    """An argparse type: an integer >= low."""
    if int(text) < low:
        raise argparse.ArgumentTypeError(f"{text} is below {low}")
    return int(text)


def _positive(text):
    """An argparse type: an integer >= 1."""
    return _count(text, 1)


def _fraction(text):
    """An argparse type: a float in [0, 1], so not NaN."""
    if not 0.0 <= float(text) <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return float(text)


def build_parser():
    ap = argparse.ArgumentParser(prog="ondesign", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, trials=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        if trials:
            p.add_argument("--trials", type=_count, default=20)

    g = sub.add_parser("gen", help="generate an instance JSON")
    common(g, trials=False)
    g.add_argument("--family", choices=["euclidean", "graph", "diamond"], default="euclidean")
    g.add_argument("--problem", choices=list(PROBLEMS), default="SteinerTree")
    g.add_argument("--n", type=_count, default=16)
    g.add_argument("--count", type=_count, default=8)
    g.add_argument("--density", type=_fraction, default=0.3)
    g.add_argument("--depth", type=int, default=3)
    g.add_argument("--M", type=float, default=2.0)
    g.add_argument("--rmax", type=_positive, default=8)
    g.add_argument("--facilities", type=_positive, default=4)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run an algorithm on an instance")
    common(r, trials=False)
    r.add_argument("instance")
    r.add_argument("--algo", required=True)
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="verify every charging bound on sampled HSTs")
    common(v)
    v.add_argument("instance")
    v.add_argument("--algo", default=None)
    v.add_argument("--trace", default=None, help="replay a (possibly forged) trace file")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("ratio", help="empirical competitive ratios vs exact optima")
    common(c)
    c.add_argument("--family", choices=["euclidean", "diamond"], default="euclidean")
    c.add_argument("--problem", choices=list(PROBLEMS), default="SteinerTree")
    c.add_argument("--sizes", type=lambda s: [_count(x) for x in s.split(",")], default=[4, 6, 8, 10])
    c.add_argument("--n", type=_count, default=0)
    c.add_argument("--M", type=float, default=2.0)
    c.add_argument("--rmax", type=_positive, default=3)
    c.add_argument("--facilities", type=_positive, default=4)
    c.set_defaults(func=cmd_ratio)

    e = sub.add_parser("embed", help="HST sampling distortion report")
    common(e)
    e.add_argument("instance")
    e.set_defaults(func=cmd_embed)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
