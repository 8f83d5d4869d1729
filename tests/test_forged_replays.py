"""Forged replays through verify_run: each per-tree cut or cover message fires,
and a small fixed corpus of reports (own runs plus forged replays) keeps its
bytes.

The corpus is one instance per problem (k <= 20, n = 20 Euclidean points, a
few of them never requested) and, for the problems with per-tree cut or cover
checks, replays of the run's own trace with one defect each:

- "occ outside": a Berman-Coulston forest classifies a point no request names;
- "edge outside": an A_j edge ends at such a point;
- "level above root": an A level above every sampled tree's root level;
- "cycle": an A_j edge repeated, closing a meta-cycle;
- "rent twice": every rent record repeated (cut capacity: w(C) for one-point
  requests, |D(C)| for pairs);
- "share at root": the last positive PCST share given a class whose cuts
  are as wide as the metric, so the cut holding it can hold the root.

A record holds only what the run decided, so every forgery changes a
decision (a class, a repeated record, a forest entry) and never where a
request sits: checks read each request's endpoints from the instance.
"""

import dataclasses
import hashlib
import json
import re

import pytest

from ondesign.generators import gen_euclidean, gen_requests
from ondesign.metric import RunTrace, floor_log2
from ondesign.verify import run_problem, verify_run

N_POINTS, TRIALS = 20, 3
# problem -> (requests, request seed); the metric seed is 700 + table position
CASES = {"SteinerTree": (14, 800), "SteinerForest": (8, 801), "SteinerNetwork": (6, 802),
         "SROB": (16, 803), "MROB": (10, 806), "CFL": (14, 805), "PCST": (12, 806)}
PARAMS = {"M": 1.0, "R_max": 4, "n_facilities": 4}


def _unrequested(seq):
    named = {p for pair in seq.pairs for p in pair}
    return min(set(range(N_POINTS)) - named - {seq.root})


def _with_forest(trace, **change):
    """trace with its first forest's summary entries replaced by change[key](old)."""
    forests = [dict(f) for f in trace.summary["forests"]]
    forests[0] = {**forests[0], **{k: f(forests[0][k]) for k, f in change.items()}}
    return RunTrace(list(trace.records), {**trace.summary, "forests": forests})


def _forgeries(m, seq, trace):
    """(name, forged trace) replays of a run's own trace."""
    out = []
    if "forests" in trace.summary:
        q = _unrequested(seq)
        top, edges = trace.summary["forests"][0]["A"][-1]
        out += [
            ("occ outside", _with_forest(trace, occ=lambda occ: occ + [[q, top]])),
            ("edge outside", _with_forest(trace, A=lambda A: A[:-1] + [[top, edges + [[edges[0][0], q]]]])),
            ("level above root", _with_forest(trace, A=lambda A: A + [[40, [edges[0]]]])),
            ("cycle", _with_forest(trace, A=lambda A: A[:-1] + [[top, edges + [edges[0]]]])),
        ]
    rents = [r for r in trace.records if r.decision == "rent"]
    if rents:
        out.append(("rent twice", RunTrace(trace.records + rents, trace.summary)))
    shares = [r for r in trace.records if (r.rho or 0.0) > 0]
    if shares:
        # the last positive share moved up to a class whose cuts are as wide
        # as the metric, so that the cut holding it often holds the root too
        out.append(("share at root", _with_record(trace, shares[-1], klass=floor_log2(m.diameter()) + 2)))
    return out


def _with_record(trace, rec, **change):
    return RunTrace([dataclasses.replace(r, **change) if r is rec else r for r in trace.records], trace.summary)


def _corpus():
    """[(problem, replay name or "own", report)] for the fixed corpus."""
    out = []
    for pidx, (problem, (count, seed)) in enumerate(CASES.items()):
        m, _ = gen_euclidean(N_POINTS, seed=700 + pidx)
        seq = gen_requests(problem, m, count, seed, PARAMS)
        out.append((problem, "own", verify_run(m, seq, trials=TRIALS, seed=pidx)))
        for name, forged in _forgeries(m, seq, run_problem(m, seq)[1]):
            out.append((problem, name, verify_run(m, seq, trials=TRIALS, seed=pidx, forged_trace=forged)))
    return out


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _tree_violations(corpus, problem, name):
    (report,) = [rep for p, n, rep in corpus if (p, n) == (problem, name)]
    return report["tree_checks"]["violations"]


@pytest.mark.parametrize("problem, name, pattern", [
    ("SteinerForest", "occ outside", r"check error: level -?\d+: cover misses \[\d+\]"),
    ("SteinerNetwork", "occ outside", r"check error: level -?\d+: cover misses \[\d+\]"),
    ("MROB", "occ outside", r"check error: level -?\d+: cover misses \[\d+\]"),
    ("SteinerForest", "edge outside", r"check error: level -?\d+: edge endpoint outside the cover"),
    ("MROB", "edge outside", r"check error: level -?\d+: edge endpoint outside the cover"),
    ("SteinerForest", "level above root", r"check error: level 40 outside \[0, \d+\]"),
    ("MROB", "level above root", r"check error: level 40 outside \[-2, \d+\]"),
    ("SteinerForest", "cycle", r"level -?\d+: meta-cycle via edge \(\d+,\d+\)"),
    ("MROB", "rent twice", r"level -?\d+: \d+ rents > \|D\(C\)\|=\d+"),
    ("SROB", "rent twice", r"level -?\d+: \d+ class-\d+ rent occurrences > w\(C\)=\d+"),
    ("CFL", "rent twice", r"level -?\d+: \d+ class-\d+ rent occurrences > w\(C\)=\d+"),
    ("PCST", "share at root", r"level -?\d+: root cut carries class--?\d+ share [\d.e+-]+"),
])
def test_forged_replay_fires(corpus, problem, name, pattern):
    found = _tree_violations(corpus, problem, name)
    assert any(re.fullmatch(r"trial \d+: " + pattern, v) for v in found), found


def test_own_runs_pass(corpus):
    assert [p for p, n, rep in corpus if n == "own" and rep["violations"]] == []


# SHA-256 of the corpus reports, json.dumps(sort_keys=True), one per line.
CORPUS_DIGEST = "5da3e9ffc4c837bbf4cc060b840c3f7d40205fa19e1f6e2d8259a7a771040cc4"


def test_report_digest_pinned(corpus):
    text = "\n".join(json.dumps([p, n, rep], sort_keys=True) for p, n, rep in corpus)
    assert len(corpus) == 23
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGEST
