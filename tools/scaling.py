"""Print two scaling curves of the package, in-process, best of REPEATS.

    python tools/scaling.py

verify: `verify_run` with 2 trees on an SROB instance of k requests on
n = k + 1 Euclidean points, k = 40 ... 1,280.  online: for each problem, the
run (`run_problem`) and its per-run checks (`per_run_checks`) on one
Euclidean metric of n points, n = 301 / 601 / 1,201, with 2n requests for
ST, SROB and PCST, n for SF, SN and MROB, and n/2 CFL clients with n/6
facilities.  The curves show where the next superlinear term sits; they are
printed only, no gate reads them.  The package is imported from this
checkout's `src`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ondesign.generators import gen_euclidean, gen_requests  # noqa: E402
from ondesign.verify import per_run_checks, run_problem, verify_run  # noqa: E402

VERIFY_KS = (40, 80, 160, 320, 640, 1280)
ONLINE_NS = (301, 601, 1201)
REPEATS = 3
SEED = 5


def _best(call, repeats):
    """(the fastest of `repeats` timed calls, the last call's result)."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        out = call()
        times.append(perf_counter() - start)
    return min(times), out


def online_counts(n: int) -> dict:
    """Problem -> its request count at n points."""
    return {"SteinerTree": 2 * n, "SteinerForest": n, "SteinerNetwork": n, "SROB": 2 * n, "MROB": n,
            "PCST": 2 * n, "CFL": n // 2}


def verify_curve(ks, repeats) -> dict:
    """k -> seconds of a 2-tree verify on SROB with k requests."""
    out = {}
    for k in ks:
        m, _ = gen_euclidean(k + 1, seed=SEED + k)
        seq = gen_requests("SROB", m, k, SEED + k + 1, {"M": 2.0})
        out[k] = _best(lambda: verify_run(m, seq, trials=2, seed=SEED), repeats)[0]
    return out


def online_curve(ns, repeats) -> dict:
    """(problem, n) -> (run seconds, per-run check seconds)."""
    out = {}
    for n in ns:
        m, _ = gen_euclidean(n, seed=SEED + n)
        params = {"M": 2.0, "R_max": 16, "n_facilities": n // 6}
        for x, (problem, count) in enumerate(online_counts(n).items()):
            seq = gen_requests(problem, m, count, SEED + n + 1 + x, params)
            run_s, (sol, trace) = _best(lambda: run_problem(m, seq), repeats)
            check_s = _best(lambda: per_run_checks(m, seq, sol, trace), repeats)[0]
            out[problem, n] = (run_s, check_s)
    return out


def main() -> int:
    print(f"verify: SROB, 2 trees, n = k + 1 Euclidean points (best of {REPEATS})")
    print(f"{'k':>6} {'seconds':>9}")
    for k, s in verify_curve(VERIFY_KS, REPEATS).items():
        print(f"{k:>6} {s:>9.4f}")
    print(f"\nonline: run and per-run checks (best of {REPEATS})")
    print(f"{'problem':<15} {'stage':<6}" + "".join(f"{f'n = {n}':>11}" for n in ONLINE_NS))
    curve = online_curve(ONLINE_NS, REPEATS)
    for problem in online_counts(1):
        for stage, col in (("run", 0), ("checks", 1)):
            cells = "".join(f"{curve[problem, n][col]:>11.4f}" for n in ONLINE_NS)
            print(f"{problem:<15} {stage:<6}" + cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
