"""The benchmark's workloads: instance generation from a workload seed, and
one call per instance into the package.

Every call into `ondesign` goes through a module attribute (`verify.verify_run`,
`metric.instance_from_dict`, `generators.gen_euclidean`, ...), so the traced
run's wrappers see it.  Seed 0 is the default seed: at seed 0 `battery` is the
acceptance battery's own recipe.  Any other seed shifts every instance seed by
`seed * SEED_STRIDE`, which moves the whole seed space.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from ondesign import generators, metric, verify

DEFAULT_SEED = 0
SEED_STRIDE = 1_000_000
PROBLEMS = ["SteinerTree", "SteinerForest", "SteinerNetwork", "SROB", "MROB", "PCST", "CFL"]
M_CYCLE = [0.0, 1.0, 2.0, 3.5, 6.0, 10.0]
SINGLE = ("SteinerTree", "SROB", "PCST", "CFL")

# battery: i < 37 per problem hits every k in 4..40 exactly once.
BATTERY_SLICE = 37
BATTERY_TRIALS = 20
VERIFY_LARGE_KS = (160, 320)
VERIFY_LARGE_TRIALS = 4
ONLINE_N = 601
ONLINE_COUNTS = {
    "SteinerTree": 2000,
    "SteinerForest": 600,
    "SteinerNetwork": 600,
    "SROB": 2000,
    "MROB": 600,
    "PCST": 2000,
    "CFL": 300,
}
ONLINE_FACILITIES = 100
ONLINE_R_MAX = 16
DIAMOND_DEPTH = 10

# Report keys that exist today.  The digest ignores any other key, so an
# additive block such as a future `stats` does not change it.
REPORT_KEYS = (
    "problem", "k", "n", "seed", "trials", "constants", "cost", "checks",
    "tree_checks", "max_ratios", "flags", "witness_seed", "violations",
)


@dataclass
class Instance:
    """One unit of work: `run()` returns the report that is checked and hashed."""

    label: str  # stable name, e.g. "SteinerTree/i=3"
    tag: str  # size class, e.g. "k160"; groups spans in the traced run
    requests: int  # online requests it serves
    trees: int  # HSTs it samples and checks
    run: Callable[[], dict]


def report_digest(report: dict) -> str:
    doc = {key: report[key] for key in REPORT_KEYS if key in report}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def workload_digest(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def _verify_instance(label, tag, m, seq, trials, seed):
    return Instance(
        label, tag, len(seq.requests), trials,
        lambda: verify.verify_run(m, seq, trials=trials, seed=seed),
    )


def battery_instance(problem, i, seed=DEFAULT_SEED):
    """`_instance` of tests/test_acceptance.py, with the seed space shifted."""
    inst_seed = (PROBLEMS.index(problem) + 1) * 100000 + i + seed * SEED_STRIDE
    k = 4 + (i * 5) % 37  # k in [4, 40]
    count = k if problem in SINGLE else max(1, k // 2)
    n = k + 1 + (i % 7)
    if i % 5 == 4:
        m = generators.gen_graph_metric(n, density=0.25, seed=inst_seed)
    else:
        m, _ = generators.gen_euclidean(n, seed=inst_seed)
    params = {
        "M": M_CYCLE[i % len(M_CYCLE)],
        "R_max": 1 + (i % 16),
        "n_facilities": 2 + (i % 5),
    }
    seq = generators.gen_requests(problem, m, count, inst_seed + 1, params)
    return m, seq, inst_seed


def battery(seed):
    out = []
    for problem in PROBLEMS:
        for i in range(BATTERY_SLICE):
            m, seq, inst_seed = battery_instance(problem, i, seed)
            out.append(_verify_instance(
                f"{problem}/i={i}", "", m, seq, BATTERY_TRIALS, inst_seed))
    return out


def verify_large(seed):
    out = []
    for k in VERIFY_LARGE_KS:
        for pidx, problem in enumerate(PROBLEMS):
            inst_seed = 800000 + 1000 * k + pidx + seed * SEED_STRIDE
            count = k if problem in SINGLE else k // 2
            m, _ = generators.gen_euclidean(k + 1, seed=inst_seed)
            params = {"M": 2.0, "R_max": ONLINE_R_MAX, "n_facilities": 8}
            seq = generators.gen_requests(problem, m, count, inst_seed + 1, params)
            out.append(_verify_instance(
                f"{problem}/k={k}", f"k{k}", m, seq, VERIFY_LARGE_TRIALS, inst_seed))
    return out


def _checks_doc(checks):
    return {name: {"fail": len(viol), "violations": viol[:10]} for name, viol in checks}


def _cost_doc(cost):
    return {
        "buy": cost.buy,
        "rent": cost.rent,
        "penalty": cost.penalty,
        "opening": cost.opening,
        "total": cost.total,
    }


def _run_report(m, seq, seed, expected_total=None):
    """What `ondesign run` computes, plus the per-run checks of `verify`."""
    sol, trace = verify.run_problem(m, seq)
    checks = verify.per_run_checks(m, seq, sol, trace)
    cost = metric.solution_cost(sol, seq, m)
    if expected_total is not None:
        checks.append(("expected_cost", [] if cost.total == expected_total else
                       [f"cost {cost.total:g} != expected {expected_total:g}"]))
    doc = _checks_doc(checks)
    return {
        "problem": seq.problem,
        "k": seq.k,
        "n": m.n,
        "seed": seed,
        "cost": _cost_doc(cost),
        "checks": doc,
        "violations": sum(c["fail"] for c in doc.values()),
    }


def _online_instance(problem, doc, inst_seed):
    def run():
        m, seq = metric.instance_from_dict(doc)
        return _run_report(m, seq, inst_seed)

    return Instance(problem, "", len(doc["requests"]), 0, run)


def _diamond_instance():
    # Built straight from the family, skipping build_metric's validation as
    # `ondesign ratio --family diamond` does.  Greedy pays 2^d (1 + d/2).
    m, seq, info = generators.gen_diamond_lb(DIAMOND_DEPTH)
    expected = info["opt"] * (1 + DIAMOND_DEPTH / 2)
    return Instance(
        f"diamond/depth={DIAMOND_DEPTH}", "", len(seq.requests), 0,
        lambda: _run_report(m, seq, DIAMOND_DEPTH, expected),
    )


def online(seed):
    # One point set serves all seven request sequences: generating it runs
    # build_metric's cubic check, which belongs to set-up once, while each
    # instance's own load (matrix form, as `ondesign gen` writes) is timed.
    base = 900000 + seed * SEED_STRIDE
    m, _ = generators.gen_euclidean(ONLINE_N, seed=base)
    out = []
    for pidx, problem in enumerate(PROBLEMS):
        params = {"M": 2.0, "R_max": ONLINE_R_MAX, "n_facilities": ONLINE_FACILITIES}
        seq = generators.gen_requests(problem, m, ONLINE_COUNTS[problem], base + 1 + pidx, params)
        out.append(_online_instance(problem, metric.instance_to_dict(m, seq), base))
    out.append(_diamond_instance())
    return out


WORKLOADS = {"battery": battery, "verify_large": verify_large, "online": online}
