import json
from dataclasses import fields

import pytest

from ondesign.cli import main
from ondesign.generators import gen_euclidean, gen_requests
from ondesign.metric import PROBLEMS, RequestRecord, instance_to_dict
from ondesign.verify import run_problem, verify_run

RECORD_FIELDS = [f.name for f in fields(RequestRecord)]
# the SteinerTree record of request 0 in a matrix [[0, 1], [1, 0]], root 0, requests [1]
OWN_ST_RECORD = {
    **dict.fromkeys(RECORD_FIELDS), "idx": 0, "decision": "buy", "points": [1], "a": 1.0,
    "klass": 0, "cost": 1.0, "witnesses": [], "witnesses_t": [], "attach": 0,
    "edges": [[1, 0, None]], "feasible_now": True,
}


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
        {"idx": 0, "decision": "buy", "points": [1], "a": 2.1, "klass": 1, "cost": 2.1,
         "witnesses": [], "witnesses_t": [], "attach": 0, "edges": [[1, 0, None]],
         "rho": None, "pi": None, "sigma_hat": None, "sigma": None, "opened": None,
         "rent_endpoint": None, "level": None, "copies": None, "feasible_now": True},
        {"idx": 1, "decision": "buy", "points": [2], "a": 2.2, "klass": 1, "cost": 2.2,
         "witnesses": [], "witnesses_t": [], "attach": 0, "edges": [[2, 0, None]],
         "rho": None, "pi": None, "sigma_hat": None, "sigma": None, "opened": None,
         "rent_endpoint": None, "level": None, "copies": None, "feasible_now": True},
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
    base = {"witnesses": [], "witnesses_t": [], "edges": [], "rho": None, "pi": None,
            "opened": None, "rent_endpoint": None, "level": None, "copies": None,
            "feasible_now": True, "decision": "rent", "attach": 0, "sigma_hat": 0, "sigma": 0}
    rows = [dict(base, idx=0, points=[1], a=4.0, klass=None, cost=4.0),
            dict(base, idx=1, points=[2], a=5.0, klass=2, cost=5.0)]
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


@pytest.mark.parametrize("content", [
    None,
    '{"idx": 0, "decision": "buy"\n',
    '{"idx": 0}\n',
    json.dumps({**dict.fromkeys(RECORD_FIELDS), "idx": 0, "points": [1], "junk": 1}) + "\n",
    json.dumps({"summary": {"forests": 5}}) + "\n",
    json.dumps({**OWN_ST_RECORD, "klass": "1"}) + "\n",
    json.dumps({**OWN_ST_RECORD, "points": [7]}) + "\n",
    json.dumps({**OWN_ST_RECORD, "points": [-1]}) + "\n",
    json.dumps({**OWN_ST_RECORD, "edges": [[1, 2, None]]}) + "\n",
    json.dumps({**OWN_ST_RECORD, "attach": -1}) + "\n",
    json.dumps({**OWN_ST_RECORD, "idx": 1}) + "\n",
    json.dumps({**OWN_ST_RECORD, "witnesses": [-1]}) + "\n",
], ids=["missing-file", "not-json", "missing-fields", "unknown-field", "summary-type", "field-type",
        "point-out-of-range", "negative-point", "edge-out-of-range", "negative-attach",
        "request-out-of-range", "negative-witness"])
def test_verify_bad_trace_file_exit_2(tmp_path, content, capsys):
    inst = write_instance(
        tmp_path,
        {"matrix": [[0, 1], [1, 0]], "problem": "SteinerTree", "root": 0, "requests": [1]},
    )
    trace_path = tmp_path / "trace.jsonl"
    if content is not None:
        trace_path.write_text(content)
    rc = main(["verify", inst, "--trace", str(trace_path), "--out", str(tmp_path / "rep.json")])
    assert rc == 2
    assert "error: trace" in capsys.readouterr().err


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
    assert row["decision"] == "penalty" and row["rho"] == 1.0 and row["pi"] == 1.0
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
