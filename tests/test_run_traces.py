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
    "SteinerTree": "1d15d117d11fe5b6a9c4cbb622fb943bd3e920795c3cf349c703169ea4e376dd",
    "SteinerForest": "87ca9151193601d13ec9dcf9266cc73005a071b8f917f706e39cd590d168993a",
    "SteinerNetwork": "a8de0ff9885c9de14e7eb9eb0873583a7984b55043f26d5f840829579a31edde",
    "SROB": "7b214fcc0b6694add764563b081c043204abc87cd75ba42b9e6f210b2df00e78",
    "MROB": "d973ae15928fcc64be6b83cead8cf0e0dfc1f27e79aec21352e0459c11615f2e",
    "CFL": "e4330e5a1f11e881f4fda9dd13f1b61b06a3d232f44530ab3ae19bf3492f9834",
    "PCST": "79bf0c4e35d819d88526505fc89283addab1708802b8dc48c87d5a0d044b66f6",
}


@pytest.mark.parametrize("pidx, problem", list(enumerate(PROBLEMS)))
def test_run_trace_bytes_pinned(tmp_path, pidx, problem):
    assert hashlib.sha256(_run_bytes(tmp_path, pidx, problem)).hexdigest() == DIGESTS[problem]


@pytest.mark.parametrize("pidx, problem", list(enumerate(PROBLEMS)))
def test_trace_cost_is_solution_cost(pidx, problem):
    m, seq = instance_from_dict(_instance(pidx, problem))
    sol, trace = run_problem(m, seq)
    assert trace.total_cost() == pytest.approx(solution_cost(sol, seq, m).total, rel=RTOL)
