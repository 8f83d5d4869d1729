"""`ondesign run` output bytes, trace file included, pinned for all 7 problems.

Report digests cover costs and checks only; the trace file also holds every
record (classes, edges, witnesses, feasible_now) and the summaries (forest
occ/A/zero_merges, F_hat).  The instances sit on a 8 x 8 integer grid, so
coincident points (zero-length merges, auto requests) and equal distances
(scan-order ties) occur in every run.

The exit code is pinned with the bytes; every run exits 0.  The MROB run's
request 13 is a pair of distinct coincident points, recorded "auto" with no
edge, and served because its endpoints coincide.  A record's `cost` is what
its request paid, so each run's trace cost is its solution cost.
"""

import hashlib
import json

import numpy as np
import pytest

from ondesign.cli import main
from ondesign.generators import gen_requests
from ondesign.metric import PROBLEMS, RTOL, build_metric, instance_from_dict, instance_to_dict, solution_cost
from ondesign.verify import run_problem

N_POINTS = 60
PARAMS = {"M": 1.0, "R_max": 8, "n_facilities": 12}


def _instance(pidx, problem):
    pts = np.random.default_rng(4200 + pidx).integers(0, 8, size=(N_POINTS, 2)).astype(float)
    m = build_metric(pts, "points")
    count = N_POINTS // 2 if PROBLEMS[problem].paired else N_POINTS
    seq = gen_requests(problem, m, count, 4300 + pidx, PARAMS)
    return instance_to_dict(m, seq, points=pts)


def _run_bytes(tmp_path, pidx, problem):
    """The exit code, the run report without its (path-dependent) trace name,
    then the trace file."""
    inst = tmp_path / f"{problem}.json"
    inst.write_text(json.dumps(_instance(pidx, problem)))
    out = tmp_path / f"{problem}.out.json"
    rc = main(["run", str(inst), "--algo", problem, "--out", str(out)])
    report = json.loads(out.read_text())
    trace = open(report.pop("trace"), "rb").read()
    return f"{rc}\n{json.dumps(report, sort_keys=True)}\n".encode() + trace


# SHA-256 of each problem's _run_bytes.
DIGESTS = {
    "SteinerTree": "ea2fc5b0d0db5d3af989267b4cd3a478ef6b13a85270290d1fee71ce0544000e",
    "SteinerForest": "b9188b6067474ca4599e9be3da9ac73d50fc79764e49423a1e10ceb960026a55",
    "SteinerNetwork": "63ab1527ac966bfa1337b50858774882e212295490abf96b1e16d14c75c795a0",
    "SROB": "c0321892a923977f5f7194cc57e291c2b6217b9322bde8fbab9de4fe8ecd5325",
    "MROB": "fe7598584abc3ec4afdbd3ad269f699f1b4d2c51a85d35559a10a9a18559ff51",
    "CFL": "8d0f7f8a55baba90b4fb5447ecb4409e1e81bf96b18d9fa5fa402fcd8fa08d0f",
    "PCST": "8836d5db89c897ff97c65fe1abd8afd18aeff4aff8df428ba1ac342d4a05cb52",
}


@pytest.mark.parametrize("pidx, problem", list(enumerate(PROBLEMS)))
def test_run_trace_bytes_pinned(tmp_path, pidx, problem):
    assert hashlib.sha256(_run_bytes(tmp_path, pidx, problem)).hexdigest() == DIGESTS[problem]


@pytest.mark.parametrize("pidx, problem", list(enumerate(PROBLEMS)))
def test_trace_cost_is_solution_cost(pidx, problem):
    m, seq = instance_from_dict(_instance(pidx, problem))
    sol, trace = run_problem(m, seq)
    assert trace.total_cost() == pytest.approx(solution_cost(sol, seq, m).total, rel=RTOL)
