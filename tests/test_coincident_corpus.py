"""Own runs on instances rich in coincident points pass verify, and their
reports keep their bytes.

Every instance sits on a small integer grid (2 x 2 to 5 x 5, L1 or Euclidean
distances), so distinct indices share a position in almost every one.  Rooted
instances put the root on the position of a lower-index point, so a request
point below the root's index can sit on the root; CFL instances send every
third client to a facility's position.  Each instance is verified twice: the
algorithm's own run, and a replay of that run's trace.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from ondesign.generators import gen_requests
from ondesign.metric import PROBLEMS, build_metric
from ondesign.verify import run_problem, verify_run

PER_PROBLEM, TRIALS = 20, 3


def coincident_instance(pidx, problem, i):
    """(m, seq): instance i of `problem` (PROBLEMS position pidx) on a grid."""
    rng = np.random.default_rng([pidx, i])
    side, n = 2 + i % 4, int(rng.integers(3, 17))
    cells = rng.integers(0, side, size=(n, 2))
    params = {"M": float(rng.choice([0.5, 1.0, 2.0, 3.0])), "R_max": 4, "n_facilities": 4}
    if not PROBLEMS[problem].paired:
        params["root"] = root = int(rng.integers(1, n))
        cells[root] = cells[int(rng.integers(0, root))]  # the root on a lower index's position
    diff = np.abs(cells[:, None, :] - cells[None, :, :]).astype(float)
    m = build_metric(diff.sum(axis=-1) if i % 2 else np.sqrt((diff * diff).sum(axis=-1)), "matrix")
    count = int(rng.integers(2, 9))
    seq = gen_requests(problem, m, count, int(rng.integers(0, 2**31)), params)
    if PROBLEMS[problem].facilities:
        spots = [p for p, _ in seq.facilities]
        requests = [spots[int(rng.integers(0, len(spots)))] if r % 3 == 0 else c
                    for r, c in enumerate(seq.requests)]
        seq = dataclasses.replace(seq, requests=tuple(requests))
    return m, seq


def _reports():
    """[(problem, instance, "own" or "replay", report)] for the whole corpus."""
    out = []
    for pidx, problem in enumerate(PROBLEMS):
        for i in range(PER_PROBLEM):
            m, seq = coincident_instance(pidx, problem, i)
            _, trace = run_problem(m, seq)
            out.append((problem, i, "own", verify_run(m, seq, trials=TRIALS, seed=i)))
            out.append((problem, i, "replay", verify_run(m, seq, trials=TRIALS, seed=i, forged_trace=trace)))
    return out


@pytest.fixture(scope="module")
def reports():
    return _reports()


def test_corpus_is_coincident_rich():
    # instances where two distinct requested indices share a position, where a
    # request point below the root's index sits on the root, and where a CFL
    # client sits on a facility's position
    shared = below_root = on_facility = 0
    for pidx, problem in enumerate(PROBLEMS):
        for i in range(PER_PROBLEM):
            m, seq = coincident_instance(pidx, problem, i)
            pts = [p for pair in seq.pairs for p in pair[:1 if seq.root is not None else 2]]
            shared += bool(((m.d == 0.0) & ~np.eye(m.n, dtype=bool))[np.ix_(pts, pts)].any())
            if seq.root is not None:
                below_root += any(p < seq.root and m.coincident(p, seq.root) for p in pts)
            if seq.facilities:
                spots = [p for p, _ in seq.facilities]
                on_facility += bool((m.d[np.ix_(pts, spots)] == 0.0).any())
    assert (shared, below_root, on_facility) == (84, 48, PER_PROBLEM)


def test_every_report_passes(reports):
    assert [(p, i, kind) for p, i, kind, rep in reports if rep["violations"]] == []


# SHA-256 of the reports, json.dumps(sort_keys=True), one per line.
CORPUS_DIGEST = "b333623811ff491f7247b0a997f75619d2bf71810edfc77480380b6a5e64614b"


def test_report_digest_pinned(reports):
    text = "\n".join(json.dumps(list(entry), sort_keys=True) for entry in reports)
    assert len(reports) == 2 * PER_PROBLEM * len(PROBLEMS)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGEST
