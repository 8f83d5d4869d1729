"""The two problem tables: `metric.PROBLEMS` (request formats) and
`verify.SPECS` (analysis).  Every problem must round-trip through the instance
JSON and keep its per-tree constants."""

import inspect
import json
import math

import pytest

from ondesign.generators import gen_euclidean, gen_requests
from ondesign.metric import PROBLEMS, exceeds, instance_from_dict, instance_to_dict
from ondesign.steiner import NearestSet
from ondesign.verify import SPECS, verify_run

CONSTANTS = {
    "SteinerTree": {"cost_vs_tree": 4.0},
    "SteinerForest": {"cost_vs_tree": 4.0},
    "SteinerNetwork": {"cost_vs_tree": 16.0},
    "SROB": {"cost_vs_tree": 16.0, "share_vs_tree": 8.0},
    "MROB": {"cost_vs_tree": 32.0, "share_vs_tree": 16.0},
    "PCST": {"cost_vs_tree": 16.0, "share_vs_tree": 8.0},
    "CFL": {"buyrent_vs_tree": 48.0, "share_vs_tree": 16.0},
}


def test_tables_cover_the_same_problems():
    assert list(PROBLEMS) == list(SPECS)
    assert set(PROBLEMS) == set(CONSTANTS)


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_generated_instance_roundtrips_through_json(problem):
    m, _ = gen_euclidean(9, seed=4)
    seq = gen_requests(problem, m, 6, 11, {"M": 1.5, "R_max": 4, "n_facilities": 3})
    doc = json.loads(json.dumps(instance_to_dict(m, seq)))
    m2, seq2 = instance_from_dict(doc)
    assert seq2 == seq
    assert m2.d.tolist() == m.d.tolist()


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_verify_constants_are_pinned(problem):
    m, _ = gen_euclidean(8, seed=5)
    seq = gen_requests(problem, m, 4, 2, {"M": 2.0, "R_max": 3, "n_facilities": 3})
    report = verify_run(m, seq, trials=2, seed=1)
    assert report["constants"] == CONSTANTS[problem]
    assert report["violations"] == 0


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_checks_share_one_signature(problem):
    # each spec names its checks directly: check(m, seq, trace), or
    # check(m, seq, sol, trace) for a solution check; no adapter in between.
    # The tree oracles read the sequence and the forest of valid trees, no
    # trace; the per-tree checks take the oracles' forest with its trees'
    # optima and its cut load, once per instance, and nothing else besides.
    spec = SPECS[problem]
    for checks, params in ((spec.run_checks, ["m", "seq", "trace"]),
                           (spec.solution_checks, ["m", "seq", "sol", "trace"])):
        for check in checks.values():
            assert check.__name__.startswith("check_"), check
            assert list(inspect.signature(check).parameters) == params, check.__name__
    assert list(inspect.signature(spec.tree_oracles).parameters) == ["seq", "f"]
    assert list(inspect.signature(spec.tree_checks).parameters) == ["tally", "m", "seq", "trace", "f", "opt", "load"]


def test_exceeds_tolerances():
    assert not exceeds(1.0 + 1e-10, 1.0)
    assert exceeds(1.0 + 1e-8, 1.0)
    assert not exceeds(5e-13, 0.0)  # the absolute slack
    assert exceeds(5e-13, 0.0, atol=0.0)
    assert exceeds(math.nan, 1.0) and exceeds(1.0, math.nan)


def _nearest(m, i, members):
    """(nearest member, distance) to i of the set built from `members` in order."""
    near = NearestSet(m, members[0])
    for c in members[1:]:
        near.add(c)
    return near.nearest(i)


def test_nearest_ties_go_to_the_first_candidate():
    m, _ = gen_euclidean(3, seed=0)
    assert _nearest(m, 0, [1, 1, 2])[0] == 1
    assert _nearest(m, 0, [2, 0, 0]) == (0, 0.0)
    assert _nearest(m, 1, [2, 0]) == min(((2, m.dist(1, 2)), (0, m.dist(1, 0))), key=lambda x: x[1])
