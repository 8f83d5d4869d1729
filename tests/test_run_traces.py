"""`ondesign run` output bytes, trace file included, pinned for all 7 problems.

Report digests cover costs and checks only; the trace file also holds every
record (decisions, classes, costs, witnesses, attach points, feasible_now)
and the summaries (forest occ/A/zero_merges, F_hat).  The instances sit on a 8 x 8 integer grid, so
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
    "SteinerTree": "ac91535f8962eb71355a4e88855ee51c813b0df5dd122e13acc8f3dad26dbcc0",
    "SteinerForest": "9e3c5c494d4d16a6599527a7bbb76b69940c32914ffe4c84630d9143250af5a3",
    "SteinerNetwork": "9a6472978e55b1551c4b4e4a14bd4f365fbcd04997d3c002b754decc2ade7cad",
    "SROB": "e683fdf60454f9a96db7775702162a73da24297ff4f0a8cab4bd10890cbe31cc",
    "MROB": "83b6518a46b56e0a2f139888b4188944b7fb8097bd545070e224ab51214d4956",
    "CFL": "36004472670005f3a0aee513c3be23bcb5d617c4bca2b23edb8252784910fc51",
    "PCST": "3f0a0f261340b651a52832f04f7efaba83ec1a8ff50351ed25e338c8638e8c53",
}


@pytest.mark.parametrize("pidx, problem", list(enumerate(PROBLEMS)))
def test_run_trace_bytes_pinned(tmp_path, pidx, problem):
    assert hashlib.sha256(_run_bytes(tmp_path, pidx, problem)).hexdigest() == DIGESTS[problem]


@pytest.mark.parametrize("pidx, problem", list(enumerate(PROBLEMS)))
def test_trace_cost_is_solution_cost(pidx, problem):
    m, seq = instance_from_dict(_instance(pidx, problem))
    sol, trace = run_problem(m, seq)
    assert trace.total_cost() == pytest.approx(solution_cost(sol, seq, m).total, rel=RTOL)
