import contextlib
import dataclasses
import io
import json
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ondesign.cli import main
from ondesign.generators import gen_euclidean, gen_requests
from ondesign.metric import POINT, PROBLEMS, RequestRecord, RunTrace, instance_from_dict, instance_to_dict
from ondesign.verify import run_problem, verify_run

RECORD_FIELDS = [f.name for f in fields(RequestRecord)]
# the SteinerTree record of request 0 in a matrix [[0, 1], [1, 0]], root 0, requests [1]
OWN_ST_RECORD = {
    **dict.fromkeys(RECORD_FIELDS), "idx": 0, "decision": "buy", "klass": 0, "cost": 1.0,
    "witnesses": [], "witnesses_t": [], "attach": 0, "feasible_now": True,
}
# record keys of older trace files, with the values such a file held: instance
# facts (pi; SN's level and copies, computed from R; the request's points and
# their distance a) and what other fields give (CFL's sigma from decision,
# attach and sigma_hat; the bought edges from the forest summary or attach)
DROPPED_KEYS = {"pi": None, "sigma": None, "level": None, "copies": None,
                "points": [1], "a": 1.0, "edges": [[1, 0, None]]}


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sn_single_pair(tmp_path):
    return write_instance(
        tmp_path,
        {"matrix": [[0, 1], [1, 0]], "problem": "SteinerNetwork", "requests": [[0, 1, 5]]},
    )


def test_run_sn_cost_record(tmp_path):
    inst = sn_single_pair(tmp_path)
    out = tmp_path / "res.json"
    rc = main(["run", inst, "--algo", "SteinerNetwork", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["cost"]["total"] == 8.0
    assert doc["feasible"] is True
    assert (tmp_path / "res.json.trace.jsonl").exists()


def test_run_empty_requests(tmp_path):
    inst = write_instance(
        tmp_path, {"matrix": [[0, 1], [1, 0]], "problem": "SteinerForest", "requests": []}
    )
    out = tmp_path / "res.json"
    rc = main(["run", inst, "--algo", "SteinerForest", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["cost"]["total"] == 0.0


def test_run_wrong_algo_exit_2(tmp_path):
    inst = sn_single_pair(tmp_path)
    assert main(["run", inst, "--algo", "SteinerTree", "--out", str(tmp_path / "x.json")]) == 2


CFL_TWO_FACILITIES_AT_1 = {
    "matrix": [[0, 1], [1, 0]], "problem": "CFL", "root": 0, "M": 1.0, "requests": [1],
    "facilities": [{"point": 0, "cost": 0}, {"point": 1, "cost": 3}, {"point": 1, "cost": 5}],
}


@pytest.mark.parametrize("doc", [
    {"matrix": [[0, 1], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [1], "junk": 0},
    {"matrix": [[0, 1], [1, 0]], "problem": "SROB", "root": 0, "M": "x", "requests": [1]},
    {"matrix": [[0, 1], [1, 0]], "problem": "SteinerTree", "root": "0", "requests": [1]},
    {"matrix": [[0, 1], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [1.7, True]},
    CFL_TWO_FACILITIES_AT_1,
    {"matrix": [[0, 1], [1, 0]], "problem": "SROB", "root": 0, "M": float("nan"), "requests": [1]},
    {"matrix": [[0, 1], [1, 0]], "problem": "PCST", "root": 0, "requests": [[1, float("nan")]]},
    {"matrix": [[0, float("inf")], [float("inf"), 0]], "problem": "SteinerTree", "root": 0, "requests": [1]},
    {"matrix": [[0, 1], [1, 0]], "problem": "PCST", "root": 0, "requests": [[1, 10**400]]},
    {"matrix": [[0, 10**400], [10**400, 0]], "problem": "SteinerTree", "root": 0, "requests": [1]},
    {"points": [[0, "a"], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [1]},
], ids=["unknown-field", "M-string", "root-string", "request-float-bool", "facility-twice",
        "M-nan", "pi-nan", "matrix-infinity", "pi-past-float-range", "matrix-past-float-range",
        "points-string"])
def test_run_schema_error_exit_2(tmp_path, doc, capsys):
    inst = write_instance(tmp_path, doc)
    assert main(["run", inst, "--algo", doc["problem"], "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["run", "--algo", "SteinerTree"], ["verify", "--trials", "1"]])
@pytest.mark.parametrize("metric, message", [
    # run used to report a NaN total as feasible, and verify crashed in sample_frt
    ({"points": [[0, 0], [1e200, 0], [2e200, 0]]}, "d(0,1) is not finite"),
    # run used to report an infinite total as feasible
    ({"matrix": [[0, 5e-324, 1e300], [5e-324, 0, 1e300], [1e300, 1e300, 0]]},
     "d(0,2) is not finite once the minimum distance is scaled to 1"),
], ids=["points", "matrix"])
def test_distance_past_float_range_exit_2(tmp_path, command, metric, message, capsys):
    doc = {"problem": "SteinerTree", **metric, "root": 0, "requests": [1, 2]}
    argv = [command[0], write_instance(tmp_path, doc), *command[1:], "--out", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("points, far", [
    ([[0, 3], [4, 0]], 1.0),  # 2-D, zero diagonal: read as a matrix it was asymmetric
    ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 8 ** 0.5 / 3 ** 0.5),  # in R^3: read as a matrix, d(0,2) = 2
])
def test_run_square_point_list_is_euclidean(tmp_path, points, far):
    doc = {"points": points, "problem": "SteinerTree", "root": 0, "requests": [len(points) - 1]}
    out = tmp_path / "res.json"
    assert main(["run", write_instance(tmp_path, doc), "--algo", "SteinerTree", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["cost"]["total"] == pytest.approx(far)


def test_gen_then_verify_roundtrip(tmp_path):
    inst = tmp_path / "gen.json"
    rc = main([
        "gen", "--family", "euclidean", "--problem", "SROB", "--n", "12",
        "--count", "8", "--M", "2", "--seed", "5", "--out", str(inst),
    ])
    assert rc == 0
    out = tmp_path / "rep.json"
    rc = main(["verify", str(inst), "--trials", "6", "--seed", "1", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["violations"] == 0
    assert rep["max_ratios"]["share_vs_tree"] <= 8.0 + 1e-9


def test_verify_forged_trace_exit_4(tmp_path):
    inst = write_instance(
        tmp_path,
        {"matrix": [[0.0, 5.0, 6.0], [5.0, 0.0, 1.0], [6.0, 1.0, 0.0]],
         "problem": "SteinerTree", "root": 0, "requests": [1, 2]},
    )
    trace_path = tmp_path / "forged.jsonl"
    rows = [
        {"idx": 0, "decision": "buy", "klass": 1, "cost": 2.1, "witnesses": [], "witnesses_t": [], "attach": 0,
         "rho": None, "sigma_hat": None, "opened": None, "rent_endpoint": None, "feasible_now": True},
        {"idx": 1, "decision": "buy", "klass": 1, "cost": 2.2, "witnesses": [], "witnesses_t": [], "attach": 0,
         "rho": None, "sigma_hat": None, "opened": None, "rent_endpoint": None, "feasible_now": True},
    ]
    trace_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    rc = main([
        "verify", inst, "--trace", str(trace_path), "--trials", "2",
        "--out", str(tmp_path / "rep.json"),
    ])
    assert rc == 4  # two class-1 terminals at distance 1 violate separation


def test_ratio_diamond_monotone(tmp_path):
    out = tmp_path / "ratio.csv"
    rc = main(["ratio", "--family", "diamond", "--sizes", "1,2,3", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    ratios = [float(l.split(",")[6]) for l in lines[1:]]
    assert ratios == sorted(ratios) and ratios[0] < ratios[-1]


def test_ratio_cap_exceeded_exit_5(tmp_path):
    rc = main([
        "ratio", "--family", "euclidean", "--problem", "SteinerNetwork",
        "--sizes", "12", "--trials", "1", "--out", str(tmp_path / "r.csv"),
    ])
    assert rc == 5


def test_embed_two_point_exact_stretch(tmp_path):
    inst = write_instance(
        tmp_path,
        {"matrix": [[0, 1], [1, 0]], "problem": "SteinerForest", "requests": [[0, 1]]},
    )
    out = tmp_path / "emb.json"
    rc = main(["embed", inst, "--trials", "10", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["valid_rate"] == 1.0
    assert rep["max_mean_stretch"] == pytest.approx(2.0)


def test_determinism_repeated_runs(tmp_path):
    inst = tmp_path / "gen.json"
    main([
        "gen", "--family", "euclidean", "--problem", "MROB", "--n", "14",
        "--count", "7", "--M", "2", "--seed", "9", "--out", str(inst),
    ])
    outs = []
    for run in range(3):
        out = tmp_path / f"rep{run}.json"
        rc = main(["verify", str(inst), "--trials", "8", "--seed", "3", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_gen_diamond_instance(tmp_path):
    inst = tmp_path / "d.json"
    rc = main(["gen", "--family", "diamond", "--depth", "2", "--out", str(inst)])
    assert rc == 0
    rc = main(["run", str(inst), "--algo", "SteinerTree", "--out", str(tmp_path / "r.json")])
    assert rc == 0


def test_gen_graph_instance(tmp_path):
    inst = tmp_path / "g.json"
    rc = main(["gen", "--family", "graph", "--problem", "MROB", "--n", "15", "--count", "6",
               "--M", "2", "--seed", "4", "--out", str(inst)])
    assert rc == 0
    doc = json.loads(inst.read_text())
    assert len(doc["matrix"]) == 15 and len(doc["requests"]) == 6
    out = tmp_path / "r.json"
    assert main(["run", str(inst), "--algo", "MROB", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["feasible"] is True


def test_verify_greedy_three_collinear(tmp_path):
    # matrix [[0,1,3],[1,0,2],[3,2,0]]: ratios <= 4 across 20 trees, exit 0
    inst = write_instance(
        tmp_path,
        {"matrix": [[0, 1, 3], [1, 0, 2], [3, 2, 0]], "problem": "SteinerTree",
         "root": 0, "requests": [1, 2]},
    )
    out = tmp_path / "rep.json"
    rc = main(["verify", inst, "--trials", "20", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["max_ratios"]["cost_vs_tree"] <= 4.0 + 1e-9


def test_embed_single_point(tmp_path):
    inst = write_instance(
        tmp_path,
        {"matrix": [[0]], "problem": "SteinerTree", "root": 0, "requests": [0]},
    )
    out = tmp_path / "emb.json"
    rc = main(["embed", inst, "--trials", "5", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["pairs"] == 0 and rep["valid_rate"] == 1.0


def test_embed_without_requests_collapses_coincident_points(tmp_path):
    # no requests: every point is embedded, coincident ones as one terminal
    inst = write_instance(
        tmp_path,
        {"points": [[0, 0], [0, 0], [1, 0]], "problem": "SteinerForest", "requests": []},
    )
    out = tmp_path / "emb.json"
    assert main(["embed", inst, "--trials", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 2


def test_verify_forged_cfl_rent_without_class_reports(tmp_path):
    # a rent row with "klass": null is skipped by the share sum instead of crashing it
    inst = write_instance(
        tmp_path,
        {"matrix": [[0, 4, 5], [4, 0, 1], [5, 1, 0]], "problem": "CFL", "root": 0, "M": 2.0,
         "facilities": [{"point": 0, "cost": 0.0}, {"point": 2, "cost": 1.0}], "requests": [1, 2]},
    )
    base = {"witnesses": [], "witnesses_t": [], "rho": None, "opened": None,
            "rent_endpoint": None, "feasible_now": True, "decision": "rent", "attach": 0, "sigma_hat": 0}
    rows = [dict(base, idx=0, klass=None, cost=4.0), dict(base, idx=1, klass=2, cost=5.0)]
    trace_path = tmp_path / "forged.jsonl"
    trace_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "rep.json"
    rc = main(["verify", inst, "--trace", str(trace_path), "--trials", "2", "--out", str(out)])
    assert rc == 4
    rep = json.loads(out.read_text())
    assert rep["problem"] == "CFL" and rep["violations"] > 0


@pytest.mark.parametrize("command", ["gen", "ratio"])
def test_unknown_problem_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", "Nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _generated_instance(tmp_path, problem):
    m, _ = gen_euclidean(14, seed=23)
    seq = gen_requests(problem, m, 10, 5, {"M": 1.0, "R_max": 6, "n_facilities": 4})
    return write_instance(tmp_path, instance_to_dict(m, seq)), m, seq


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_verify_replays_own_trace_clean(tmp_path, problem):
    inst, m, seq = _generated_instance(tmp_path, problem)
    res = tmp_path / "res.json"
    assert main(["run", inst, "--algo", problem, "--out", str(res)]) == 0
    trace_path = json.loads(res.read_text())["trace"]
    out = tmp_path / "rep.json"
    rc = main(["verify", inst, "--trace", trace_path, "--trials", "6", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rc == 0 and rep["violations"] == 0, rep
    # the file holds all the run decided: it replays like the trace in memory
    _, trace = run_problem(m, seq)
    mem = verify_run(m, seq, trials=6, forged_trace=trace)
    for key in ("checks", "tree_checks", "max_ratios"):
        assert rep[key] == mem[key]


def test_verify_forged_forest_summary_cycle_exit_4(tmp_path):
    # the run's own trace, with its one level-1 edge duplicated in the summary line
    inst = write_instance(
        tmp_path,
        {"points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], "problem": "SteinerForest",
         "requests": [[0, 2]]},
    )
    res = tmp_path / "res.json"
    assert main(["run", inst, "--algo", "SteinerForest", "--out", str(res)]) == 0
    lines = (tmp_path / "res.json.trace.jsonl").read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["forests"][0]["A"] == [[1, [[0, 2]]]]
    summary["forests"][0]["A"][0][1].append([2, 0])
    forged = tmp_path / "forged.jsonl"
    forged.write_text("\n".join(lines[:-1] + [json.dumps({"summary": summary})]) + "\n")
    out = tmp_path / "rep.json"
    rc = main(["verify", inst, "--trace", str(forged), "--trials", "3", "--out", str(out)])
    assert rc == 4
    rep = json.loads(out.read_text())
    assert all(c["fail"] == 0 for c in rep["checks"].values())
    assert rep["tree_checks"]["fail"] == 3
    assert all("meta-cycle via edge (2,0)" in v for v in rep["tree_checks"]["violations"])


def test_verify_forged_srob_repeated_rent_exit_4(tmp_path):
    # the run's one rent row, repeated: two rents at the leaf of one request
    inst = write_instance(
        tmp_path, {"matrix": [[0, 1], [1, 0]], "problem": "SROB", "root": 0, "M": 4.0, "requests": [1]},
    )
    res = tmp_path / "res.json"
    assert main(["run", inst, "--algo", "SROB", "--out", str(res)]) == 0
    lines = (tmp_path / "res.json.trace.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["decision"] == "rent" and json.loads(lines[0])["klass"] == 0
    forged = tmp_path / "forged.jsonl"
    forged.write_text("\n".join(lines[:1] + lines) + "\n")
    out = tmp_path / "rep.json"
    rc = main(["verify", inst, "--trace", str(forged), "--trials", "3", "--out", str(out)])
    assert rc == 4
    rep = json.loads(out.read_text())
    assert all(c["fail"] == 0 for c in rep["checks"].values())
    assert rep["tree_checks"]["violations"] == [
        f"trial {i}: level -1: 2 class-0 rent occurrences > w(C)=1" for i in range(3)
    ]


# (trace file content, what stderr must also say); stale and missing keys are named
@pytest.mark.parametrize("content, named", [
    (None, ""),
    ('{"idx": 0, "decision": "buy"\n', ""),
    ('{"idx": 0}\n',
     f"line 1 is neither a record nor the summary: unknown keys [], missing keys {sorted(set(RECORD_FIELDS) - {'idx'})}\n"),
    (json.dumps({**dict.fromkeys(RECORD_FIELDS), "idx": 0, "junk": 1}) + "\n",
     "line 1 is neither a record nor the summary: unknown keys ['junk'], missing keys []\n"),
    (json.dumps({"summary": {"forests": 5}}) + "\n", ""),
    (json.dumps({**OWN_ST_RECORD, "klass": "1"}) + "\n", ""),
    (json.dumps({**OWN_ST_RECORD, "sigma_hat": 7}) + "\n", ""),
    (json.dumps({**OWN_ST_RECORD, "opened": -1}) + "\n", ""),
    (json.dumps({**OWN_ST_RECORD, "attach": -1}) + "\n", ""),
    (json.dumps({**OWN_ST_RECORD, "idx": 1}) + "\n", ""),
    (json.dumps({**OWN_ST_RECORD, "witnesses": [-1]}) + "\n", ""),
    *((json.dumps({**OWN_ST_RECORD, key: value}) + "\n",
       f"line 1 is neither a record nor the summary: unknown keys ['{key}'], missing keys []\n")
      for key, value in DROPPED_KEYS.items()),
], ids=["missing-file", "not-json", "missing-fields", "unknown-field", "summary-type", "field-type",
        "point-out-of-range", "negative-point", "negative-attach",
        "request-out-of-range", "negative-witness", *(f"dropped-{key}" for key in DROPPED_KEYS)])
def test_verify_bad_trace_file_exit_2(tmp_path, content, named, capsys):
    inst = write_instance(
        tmp_path,
        {"matrix": [[0, 1], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [1]},
    )
    trace_path = tmp_path / "trace.jsonl"
    if content is not None:
        trace_path.write_text(content)
    rc = main(["verify", inst, "--trace", str(trace_path), "--out", str(tmp_path / "rep.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: trace" in err and named in err


def test_verify_forged_cost_cannot_hide_behind_claimed_points(tmp_path):
    # pairs (0,1) and (200,201), record 0's cost forged to 60.  Claiming the
    # record's points as (0, 3) would hide the cost_vs_tree violation, so a
    # line that carries points (or a, edges) exits 2, and the checks read
    # the pairs from the instance
    inst = write_instance(tmp_path, {"points": [[0, 0], [1, 0], [200, 0], [201, 0]],
                                     "problem": "SteinerForest", "requests": [[0, 1], [2, 3]]})
    res = tmp_path / "res.json"
    assert main(["run", inst, "--algo", "SteinerForest", "--out", str(res)]) == 0
    lines = (tmp_path / "res.json.trace.jsonl").read_text().splitlines()
    row = {**json.loads(lines[0]), "cost": 60.0}
    older = {**row, "points": [0, 3], "a": 1.0, "edges": [[0, 1, 0]]}
    for forged_row, rc in [(older, 2), (row, 4)]:
        forged = tmp_path / "forged.jsonl"
        forged.write_text("\n".join([json.dumps(forged_row)] + lines[1:]) + "\n")
        out = tmp_path / "rep.json"
        assert main(["verify", inst, "--trace", str(forged), "--out", str(out)]) == rc
    rep = json.loads(out.read_text())
    assert rep["tree_checks"]["fail"] == rep["trials"] == 20
    assert all(v.startswith(f"trial {i}: cost_vs_tree: 61 > 4 * ") for i, v in enumerate(rep["tree_checks"]["violations"]))


@pytest.mark.parametrize("flag, value", [("--trials", "-3")])
def test_negative_trials_and_jobs_below_one_exit_2(tmp_path, flag, value, capsys):
    inst = write_instance(
        tmp_path,
        {"matrix": [[0, 1], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [1]},
    )
    with pytest.raises(SystemExit) as exc:
        main(["verify", inst, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("summary", [
    {"forests": 5},
    {"forests": [{"copies": 1, "A": [], "occ": [[-1, 1]], "zero_merges": []}]},
    {"forests": [{"copies": 1, "A": [[1, [[0, 3]]]], "occ": [], "zero_merges": []}]},
    {"f_hat": [0]},
], ids=["forests-number", "negative-point", "point-out-of-range", "other-problem"])
def test_verify_forest_summary_malformed_exit_2(tmp_path, summary, capsys):
    # a SteinerForest run's own records, then a summary of the wrong shape
    inst = write_instance(
        tmp_path,
        {"points": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], "problem": "SteinerForest",
         "requests": [[0, 2]]},
    )
    res = tmp_path / "res.json"
    assert main(["run", inst, "--algo", "SteinerForest", "--out", str(res)]) == 0
    lines = (tmp_path / "res.json.trace.jsonl").read_text().splitlines()
    forged = tmp_path / "forged.jsonl"
    forged.write_text("\n".join(lines[:-1] + [json.dumps({"summary": summary})]) + "\n")
    rc = main(["verify", inst, "--trace", str(forged), "--out", str(tmp_path / "rep.json")])
    assert rc == 2
    assert "malformed summary" in capsys.readouterr().err


def test_verify_pcst_run_violation_reported_once(tmp_path):
    inst = write_instance(
        tmp_path,
        {"matrix": [[0, 4], [4, 0]], "problem": "PCST", "root": 0, "requests": [[1, 1.0]]},
    )
    res = tmp_path / "res.json"
    assert main(["run", inst, "--algo", "PCST", "--out", str(res)]) == 0
    lines = (tmp_path / "res.json.trace.jsonl").read_text().splitlines()
    row = json.loads(lines[0])
    assert row["decision"] == "penalty" and row["rho"] == 1.0
    forged = tmp_path / "forged.jsonl"
    forged.write_text("\n".join([json.dumps({**row, "rho": 5.0})] + lines[1:]) + "\n")
    out = tmp_path / "rep.json"
    rc = main(["verify", inst, "--trace", str(forged), "--trials", "5", "--out", str(out)])
    assert rc == 4
    rep = json.loads(out.read_text())
    assert rep["checks"]["pcst_run_invariants"] == {"fail": 1, "violations": ["request 0: rho 5 > pi 1"]}
    # each tree still fails its own cut-share checks, two per tree
    assert rep["tree_checks"]["fail"] == 10
    assert not any("rho" in v for v in rep["tree_checks"]["violations"])


def test_verify_pcst_rho_over_instance_pi_exit_4(tmp_path):
    # every record a buy whose share rho = 2^(klass+1) exceeds the instance's
    # pi 0.5; the file has no field that could claim another pi
    inst = write_instance(
        tmp_path,
        {"points": [[0, 0], [1, 0], [5, 0], [9, 0]], "problem": "PCST", "root": 0,
         "requests": [[1, 0.5], [2, 0.5], [3, 0.5]]},
    )
    res = tmp_path / "res.json"
    assert main(["run", inst, "--algo", "PCST", "--out", str(res)]) == 0
    lines = (tmp_path / "res.json.trace.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    assert [row["klass"] for row in rows] == [0, 2, 3]
    forged = tmp_path / "forged.jsonl"
    forged.write_text("".join(
        json.dumps({**dict.fromkeys(RECORD_FIELDS), "idx": row["idx"], "decision": "buy",
                    "klass": row["klass"], "cost": row["cost"], "rho": 2.0 ** (row["klass"] + 1),
                    "witnesses": [], "witnesses_t": [], "feasible_now": True}) + "\n"
        for row in rows
    ) + lines[-1] + "\n")
    out = tmp_path / "rep.json"
    assert main(["verify", inst, "--trace", str(forged), "--trials", "2", "--out", str(out)]) == 4
    assert json.loads(out.read_text())["checks"]["pcst_run_invariants"] == {"fail": 3, "violations": [
        "request 0: rho 2 > pi 0.5", "request 1: rho 8 > pi 0.5", "request 2: rho 16 > pi 0.5",
    ]}


def _raise_type_error(*args, **kwargs):
    raise TypeError("boom")


def test_check_exception_is_a_program_fault_on_own_runs_only(tmp_path, monkeypatch):
    # an exception in a check of the algorithm's own run propagates (exit 1 from
    # the command line); a forged replay reports it as a "check error" violation
    doc = {"points": [[0, 0], [4, 0], [5, 0], [6, 0]], "problem": "SROB", "root": 0, "M": 1.0,
           "requests": [1, 2, 3]}
    m, seq = instance_from_dict(doc)
    _, trace = run_problem(m, seq)
    monkeypatch.setattr("ondesign.verify.check_cut_capacity", _raise_type_error)
    with pytest.raises(TypeError, match="boom"):
        verify_run(m, seq, trials=2)
    with pytest.raises(TypeError, match="boom"):
        main(["verify", write_instance(tmp_path, doc), "--trials", "2", "--out", str(tmp_path / "rep.json")])
    report = verify_run(m, seq, trials=2, forged_trace=trace)
    assert report["tree_checks"] == {"fail": 2, "violations": [f"trial {i}: check error: boom" for i in range(2)]}
    assert all(c["fail"] == 0 for c in report["checks"].values())


def test_forged_record_of_no_request_is_a_check_error():
    # a trace built in memory skips the file schema: a rent record whose idx
    # names no request cannot be read at its request's point
    doc = {"points": [[0, 0], [4, 0], [5, 0], [6, 0]], "problem": "SROB", "root": 0, "M": 1.0,
           "requests": [1, 2, 3]}
    m, seq = instance_from_dict(doc)
    _, trace = run_problem(m, seq)
    forged = RunTrace(trace.records + [dataclasses.replace(trace.records[0], idx=7)])
    report = verify_run(m, seq, trials=2, forged_trace=forged)
    assert report["tree_checks"]["violations"] == [f"trial {i}: check error: tuple index out of range" for i in range(2)]


@pytest.mark.parametrize("doc, check, violation", [
    ({"points": [[0, 0], [3, 0], [7, 0]], "problem": "SROB", "root": 0, "M": 1.0, "requests": [1, 2]},
     "witness_disjointness", "class None: buy request 0 has |W|=0 < M=1.0"),
    ({"points": [[0, 0], [3, 0], [7, 0], [8, 0]], "problem": "MROB", "M": 1.0, "requests": [[1, 2], [0, 3]]},
     "witness_disjointness", "check error: buy request 0 has klass None"),
    ({"points": [[0, 0], [3, 0], [7, 0]], "problem": "CFL", "root": 0, "M": 1.0, "requests": [1, 2],
      "facilities": [{"point": 0, "cost": 0}, {"point": 1, "cost": 1}]},
     "cfl_invariants", "check error: "),
], ids=["SROB", "MROB", "CFL"])
def test_verify_forged_buys_without_class_exit_4(tmp_path, doc, check, violation, capsys):
    # every record of the run's own trace made a buy with "klass": null
    inst = write_instance(tmp_path, doc)
    res = tmp_path / "res.json"
    assert main(["run", inst, "--algo", doc["problem"], "--out", str(res)]) == 0
    lines = (tmp_path / "res.json.trace.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    forged = tmp_path / "forged.jsonl"
    forged.write_text("".join(json.dumps({**row, "decision": "buy", "klass": None}) + "\n" for row in rows)
                      + lines[-1] + "\n")
    out = tmp_path / "rep.json"
    assert main(["verify", inst, "--trace", str(forged), "--out", str(out)]) == 4
    assert capsys.readouterr().err == ""
    assert any(v.startswith(violation) for v in json.loads(out.read_text())["checks"][check]["violations"])


def test_embed_report_pinned(tmp_path):
    _, pts = gen_euclidean(24, seed=5)
    inst = write_instance(
        tmp_path,
        {"points": pts.tolist(), "problem": "SteinerTree", "root": 0, "requests": list(range(1, 24, 2))},
    )
    out = tmp_path / "emb.json"
    assert main(["embed", inst, "--trials", "30", "--seed", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "invalid_trees": 0, "k": 13, "max_mean_stretch": 9.221641668299164,
        "mean_stretch": 4.197733268445467, "pairs": 78, "seed": 2, "trials": 30, "valid_rate": 1.0,
    }


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "0"],
    ["gen", "--n", "1", "--problem", "SteinerForest"],  # drew pairs forever
    ["gen", "--n", "-2"],
    ["gen", "--count", "-1"],
    ["gen", "--family", "diamond", "--depth", "11"],
    ["ratio", "--family", "diamond", "--sizes", "-1", "--trials", "1"],
    ["ratio", "--sizes", "-1", "--trials", "1"],  # an empty metric reached the greedy run
    ["ratio", "--problem", "SROB", "--M", "nan", "--sizes", "2", "--trials", "1"],
    ["gen", "--problem", "CFL", "--M", "inf"],
    ["gen", "--rmax", "0"],  # ran as 1
    ["ratio", "--problem", "CFL", "--facilities", "0", "--sizes", "2", "--trials", "1"],  # the root facility alone
    ["gen", "--family", "graph", "--density", "nan"],  # ran as given
    ["gen", "--family", "graph", "--density", "1.5"],
    ["gen", "--problem", "CFL", "--n", "6", "--facilities", "50"],  # wrote 6 facilities
    ["gen", "--family", "graph", "--problem", "CFL", "--n", "6", "--facilities", "7"],
    ["ratio", "--problem", "CFL", "--facilities", "50", "--sizes", "2", "--trials", "1"],  # ran on 3 facilities
    ["ratio", "--problem", "CFL", "--facilities", "6", "--sizes", "8,4", "--n", "5", "--trials", "1"],
])
def test_generator_arguments_out_of_range_exit_2(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert capsys.readouterr().err.startswith(("error: ", "usage: "))


def test_generator_arguments_at_their_bounds_exit_0(tmp_path):
    for density in ("0", "1"):
        argv = ["gen", "--family", "graph", "--problem", "CFL", "--n", "6", "--density", density,
                "--rmax", "1", "--facilities", "1", "--out", str(tmp_path / "inst.json")]
        assert main(argv) == 0
    out = tmp_path / "all.json"
    assert main(["gen", "--problem", "CFL", "--n", "6", "--facilities", "6", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["facilities"]) == 6
    # ratio's smallest metric, max(min(--sizes) + 1, --n) points, holds as many facilities
    for extra in (["--sizes", "2", "--facilities", "3"], ["--sizes", "8,4", "--n", "6", "--facilities", "6"]):
        assert main(["ratio", "--problem", "CFL", "--trials", "1", *extra, "--out", str(out)]) == 0


@pytest.mark.parametrize("doc", [None, [], 3, "x"])
def test_instance_not_an_object_exit_2(tmp_path, doc, capsys):
    inst = write_instance(tmp_path, doc)
    assert main(["run", inst, "--algo", "SteinerTree"]) == 2
    assert capsys.readouterr().err == "error: an instance is a JSON object\n"


# ---------------------------------------------------------------------------
# Property: any instance document and any argv end in a documented exit code
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# Hypothesis leans to the first entry of a sampled_from: a valid value, here
_MOSTLY = st.sampled_from([True] * 7 + [False])
_ODD = st.sampled_from([-1, 7, 2.5, float("nan"), float("inf"), 10**400, True, "1", None])
_FIELD_VALUES = {POINT: lambda n: st.integers(0, n - 1), int: lambda n: st.integers(1, 4),
                 float: lambda n: st.floats(0, 8) | st.integers(0, 8)}


@st.composite
def _instance_docs(draw):
    """(problem, document): a valid instance of the problem on 1..5 points
    with up to two fields dropped or replaced by odd values, or any JSON."""
    problem = draw(st.sampled_from(list(PROBLEMS)))
    if not draw(_MOSTLY):
        return problem, draw(_JSON)
    fmt = PROBLEMS[problem]
    n = draw(st.integers(1, 5))
    xs = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    doc = {"problem": problem}
    if draw(st.booleans()):
        doc["points"] = [[x, draw(st.integers(0, 3))] for x in xs]
    else:
        doc["matrix"] = [[abs(a - b) for b in xs] for a in xs]
    shapes = [_FIELD_VALUES[shape](n) for shape in fmt.fields.values()]
    request = shapes[0] if len(shapes) == 1 else st.tuples(*shapes).map(list)
    doc["requests"] = draw(st.lists(request, max_size=5))
    if not fmt.paired:
        doc["root"] = draw(st.integers(0, n - 1))
    if fmt.needs_M:
        doc["M"] = draw(st.floats(0, 4) | st.integers(0, 3))
    if fmt.facilities:
        others = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3))
        doc["facilities"] = [{"point": doc["root"], "cost": 0}] + [
            {"point": p, "cost": draw(st.floats(0, 5))} for p in others if p != doc["root"]]
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["points", "matrix", "problem", "root", "M", "facilities", "requests", "junk"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        elif key == "requests" and isinstance(doc.get("requests"), list) and doc["requests"]:
            doc["requests"][0] = draw(_ODD | _JSON)
        else:
            doc[key] = draw(_ODD | _JSON)
    return problem, doc


_FLAG_VALUES = {
    "--seed": ["0", "3", "-1", "x"],
    "--trials": ["0", "1", "2", "-1", "x"],
    "--algo": [*PROBLEMS, "Nope"],
    "--family": ["euclidean", "graph", "diamond", "x"],
    "--problem": [*PROBLEMS, "Nope"],
    "--n": ["3", "0", "1", "6", "-2", "x"],
    "--count": ["0", "1", "3", "-1"],
    "--depth": ["2", "0", "-1", "11"],
    "--density": ["0", "0.5", "2", "-1", "nan"],
    "--M": ["0", "1.5", "-1", "nan", "inf"],
    "--rmax": ["0", "1", "3", "-1"],
    "--facilities": ["0", "1", "3", "-1"],
    "--sizes": ["0", "1", "2", "1,3", "-1", "x", ""],
}
# each command's flags beyond the instance path and the ones _argvs always sets
_COMMAND_FLAGS = {
    "run": ["--seed", "--out"],
    "verify": ["--algo", "--trace", "--seed", "--out"],
    "embed": ["--seed", "--out"],
    "gen": ["--family", "--problem", "--n", "--count", "--density", "--depth", "--M", "--rmax",
            "--facilities", "--seed", "--out"],
    "ratio": ["--family", "--problem", "--n", "--M", "--rmax", "--facilities", "--seed", "--out"],
}


@st.composite
def _argvs(draw, problem, paths):
    """A command with its instance path, --algo, --trials and --sizes set as
    it needs them (most of the time), then a few more flags, now and then a
    flag of another command."""
    instance, trace, out = paths
    command = draw(st.sampled_from([*_COMMAND_FLAGS, "nope"]))
    needs = {"run": ["PATH", "--algo"], "verify": ["PATH", "--trials"], "embed": ["PATH", "--trials"],
             "ratio": ["--sizes", "--trials"]}.get(command, [])
    extra = draw(st.lists(st.sampled_from(_COMMAND_FLAGS.get(command, ["--out"])), max_size=3, unique=True))
    if not draw(_MOSTLY):
        extra.append(draw(st.sampled_from([*_FLAG_VALUES, "PATH"])))
    argv = [command]
    for flag in [f for f in needs if draw(_MOSTLY)] + [f for f in extra if f not in needs]:
        if flag == "PATH":
            argv.append(instance)
        elif flag == "--algo":
            argv += [flag, draw(st.just(problem) | st.sampled_from(_FLAG_VALUES[flag]))]
        elif flag == "--trace":
            argv += [flag, draw(st.sampled_from([trace, out + ".trace.jsonl", instance, out + ".missing"]))]
        elif flag == "--out":
            argv += [flag, out]
        else:
            argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes_on_arbitrary_input(fuzz_dir, data):
    """Whatever the instance document and the arguments, `main` returns (or
    argparse exits with) 0, 2, 3, 4 or 5, and prints no traceback."""
    paths = instance, trace, out = [str(fuzz_dir / name) for name in ("inst.json", "trace.jsonl", "out.json")]
    problem, doc = data.draw(_instance_docs())
    with open(instance, "w") as fh:
        json.dump(doc, fh)
    with open(trace, "w") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in data.draw(st.lists(_JSON, max_size=3)))
    argv = data.draw(_argvs(problem, paths))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3, 4, 5), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# Property: a schema-valid forged trace replays to a documented exit code
# ---------------------------------------------------------------------------

_DECISIONS = ["buy", "rent", "penalty", "virtual", "bc", "auto"]


@st.composite
def _forged_records(draw, trace, n_points, n_requests):
    """The own run's records, each field a check reads (decision, class,
    witnesses, points attached to, assigned or opened, rent endpoint, share
    and cost) redrawn within its schema or kept."""
    point, request = st.integers(0, n_points - 1), st.integers(0, n_requests - 1)
    amount = st.floats(-1, 64)
    redraws = {
        "decision": st.sampled_from(_DECISIONS), "klass": st.none() | st.integers(-3, 6),
        "witnesses": st.lists(request, max_size=3).map(tuple), "witnesses_t": st.lists(request, max_size=3).map(tuple),
        "attach": st.none() | point, "sigma_hat": st.none() | point, "opened": st.none() | point,
        "rent_endpoint": st.sampled_from([None, "s", "t"]), "rho": st.none() | amount, "cost": amount,
    }
    out = []
    for rec in trace.records:
        change = {name: draw(value) for name, value in redraws.items() if draw(st.booleans())}
        out.append(dataclasses.replace(rec, **change))
    return out


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_verify_forged_trace_exit_codes(fuzz_dir, data):
    """`verify --trace` on an own run's trace with records redrawn within
    their schema returns 0, 2, 3, 4 or 5 and prints no traceback."""
    problem = data.draw(st.sampled_from(list(PROBLEMS)))
    n = data.draw(st.integers(3, 6))
    m, pts = gen_euclidean(n, seed=data.draw(st.integers(0, 50)))
    params = {"M": data.draw(st.sampled_from([0.0, 1.0, 2.0])), "R_max": 3, "n_facilities": 3}
    seq = gen_requests(problem, m, data.draw(st.integers(1, 4)), data.draw(st.integers(0, 50)), params)
    doc = instance_to_dict(m, seq, points=pts)
    instance, trace_path, out = (str(fuzz_dir / name) for name in ("finst.json", "ftrace.jsonl", "fout.json"))
    with open(instance, "w") as fh:
        json.dump(doc, fh)
    m, seq = instance_from_dict(doc)
    _, trace = run_problem(m, seq)
    records = data.draw(_forged_records(trace, m.n, len(seq.requests)))
    RunTrace(records, trace.summary).to_jsonl(trace_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["verify", instance, "--trace", trace_path, "--trials", "2", "--out", out])
    assert rc in (0, 2, 3, 4, 5), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
