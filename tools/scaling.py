"""Print four scaling curves of the package, in-process, best of REPEATS.

    python tools/scaling.py

verify: `verify_run` with 2 trees on an SROB instance of k requests on
n = k + 1 Euclidean points, k = 40 ... 1,280.  online: for each problem, the
run (`run_problem`) and its per-run checks (`per_run_checks`) on one
Euclidean metric of n points, n = 301 / 601 / 1,201, with 2n requests for
ST, SROB and PCST, n for SF, SN and MROB, and n/2 CFL clients with n/6
facilities.  diamond: the greedy Steiner tree run and its per-run checks on
the recursive diamond (`gen_diamond_lb`, unvalidated) at depth 8 / 9 / 10,
n = 512 / 1,024 / 2,048.  hst: at the acceptance battery's sizes, k = 5 /
10 / 20 / 40 Euclidean terminals, the microseconds per `sample_frt` tree and
the milliseconds per `validate_hst` call on a forest of 20 trees, where
fixed costs per numpy call dominate.  The curves show where the next
superlinear term sits; they are printed only, no gate reads them.  The
package is imported from this checkout's `src`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ondesign.generators import gen_diamond_lb, gen_euclidean, gen_requests  # noqa: E402
from ondesign.hst import Terminals, sample_frt, validate_hst  # noqa: E402
from ondesign.verify import per_run_checks, run_problem, verify_run  # noqa: E402

VERIFY_KS = (40, 80, 160, 320, 640, 1280)
ONLINE_NS = (301, 601, 1201)
DIAMOND_DEPTHS = (8, 9, 10)
HST_KS = (5, 10, 20, 40)
HST_TREES = 20
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


def _run_and_checks(m, seq, repeats) -> tuple:
    """(run seconds, per-run check seconds) of one instance."""
    run_s, (sol, trace) = _best(lambda: run_problem(m, seq), repeats)
    return run_s, _best(lambda: per_run_checks(m, seq, sol, trace), repeats)[0]


def online_curve(ns, repeats) -> dict:
    """(problem, n) -> (run seconds, per-run check seconds)."""
    out = {}
    for n in ns:
        m, _ = gen_euclidean(n, seed=SEED + n)
        params = {"M": 2.0, "R_max": 16, "n_facilities": n // 6}
        for x, (problem, count) in enumerate(online_counts(n).items()):
            seq = gen_requests(problem, m, count, SEED + n + 1 + x, params)
            out[problem, n] = _run_and_checks(m, seq, repeats)
    return out


def diamond_curve(depths, repeats) -> dict:
    """depth -> (n, run seconds, per-run check seconds)."""
    out = {}
    for depth in depths:
        m, seq, _ = gen_diamond_lb(depth)
        out[depth] = (m.n, *_run_and_checks(m, seq, repeats))
    return out


def hst_curve(ks, repeats) -> dict:
    """k -> (microseconds per sampled tree, milliseconds per validated
    forest of HST_TREES trees) on k Euclidean terminals."""
    out = {}
    for k in ks:
        m, _ = gen_euclidean(k, seed=SEED + k)
        terms = Terminals(m, range(k))
        sample_s, trees = _best(lambda: [sample_frt(terms, s) for s in range(HST_TREES)], repeats)
        out[k] = (1e6 * sample_s / HST_TREES, 1e3 * _best(lambda: validate_hst(trees, m), repeats)[0])
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
    print(f"\ndiamond: greedy Steiner tree run and per-run checks (best of {REPEATS})")
    print(f"{'depth':>6} {'n':>6} {'run':>9} {'checks':>9}")
    for depth, (n, run_s, check_s) in diamond_curve(DIAMOND_DEPTHS, REPEATS).items():
        print(f"{depth:>6} {n:>6} {run_s:>9.4f} {check_s:>9.4f}")
    print(f"\nhst: {HST_TREES} trees on k Euclidean terminals (best of {REPEATS})")
    print(f"{'k':>6} {'sample_us':>10} {'validate_ms':>12}")
    for k, (sample_us, validate_ms) in hst_curve(HST_KS, REPEATS).items():
        print(f"{k:>6} {sample_us:>10.1f} {validate_ms:>12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
