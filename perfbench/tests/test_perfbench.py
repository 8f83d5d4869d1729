"""Tests of the benchmark itself: recipe parity with the acceptance battery,
the output gate and its negative controls, traced-run consistency, and the
contract of BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH, os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads as wl  # noqa: E402
from ondesign import verify  # noqa: E402


def battery_subset(step=37, offset=5):
    """One battery instance per problem (i = offset), k = 29 by default."""
    return lambda seed: wl.battery(seed)[offset::step]


def test_battery_recipe_parity_with_acceptance_suite():
    import test_acceptance as acc  # read-only: the acceptance suite's recipe

    assert wl.PROBLEMS == acc.PROBLEMS and wl.M_CYCLE == acc.M_CYCLE
    seeds = set()
    for problem in wl.PROBLEMS:
        for i in range(wl.BATTERY_SLICE):
            m, seq, seed = wl.battery_instance(problem, i)
            m_ref, seq_ref, seed_ref = acc._instance(problem, i)
            assert seed == seed_ref
            assert np.array_equal(m.d, m_ref.d) and m.scale == m_ref.scale
            assert seq == seq_ref
            seeds.add(seed)
    assert {4 + (i * 5) % 37 for i in range(wl.BATTERY_SLICE)} == set(range(4, 41))
    # another seed moves every instance seed out of the default seed space
    for problem in wl.PROBLEMS:
        for i in range(wl.BATTERY_SLICE):
            _, _, shifted = wl.battery_instance(problem, i, seed=1)
            assert shifted == acc._instance(problem, i)[2] + wl.SEED_STRIDE
            assert shifted not in seeds


def test_digest_covers_todays_keys_only():
    m, seq, seed = wl.battery_instance("SROB", 3)
    report = verify.verify_run(m, seq, trials=2, seed=seed)
    assert set(report) == set(wl.REPORT_KEYS)
    digest = wl.report_digest(report)
    assert wl.report_digest(dict(report, stats={"promoted": 1})) == digest
    text = json.dumps(report, sort_keys=True)
    pos = text.index('"total": ') + len('"total": ')
    flipped = "8" if text[pos] != "8" else "7"
    changed = json.loads(text[:pos] + flipped + text[pos + 1:])  # one byte differs
    assert wl.report_digest(changed) != digest


def _gate_pass(build, seed=0):
    instances = build(seed)
    gate = run.Gate(wl, instances, None)
    run.run_pass(instances, gate)
    return gate


def test_zeroed_tree_oracle_fails_the_gate(monkeypatch):
    build = lambda seed: [i for i in wl.battery(seed) if i.label.startswith("SteinerTree/")][:6]
    assert _gate_pass(build).failed == 0
    monkeypatch.setattr(verify, "opt_tree_steiner_tree", lambda t: 0.0)
    gate = _gate_pass(build)
    assert gate.failed / gate.attempted > 0


def test_changed_report_fails_against_record_and_first_report():
    with open(run.DIGESTS) as fh:
        recorded = json.load(fh)["battery"]["reports"]
    instances = wl.battery(0)[:3]
    _, report, _ = run.run_instance(instances[1])
    report["cost"]["total"] += 1e-9
    for reference, reason in ((recorded[:3], "recorded"), (None, "first")):
        gate = run.Gate(wl, instances, reference)
        run.run_pass(instances, gate)
        assert gate.failed == 0
        gate.check(1, report, None)
        assert gate.failed == 1 and reason in gate.problems[0]


def test_recorded_digests_cover_every_workload():
    with open(run.DIGESTS) as fh:
        doc = json.load(fh)
    assert set(doc) == set(wl.WORKLOADS)
    sizes = {"battery": 7 * wl.BATTERY_SLICE, "verify_large": 7 * len(wl.VERIFY_LARGE_KS), "online": 8}
    for name, entry in doc.items():
        assert len(entry["reports"]) == sizes[name]
        assert wl.workload_digest(entry["reports"]) == entry["digest"]


def test_traced_run_matches_untraced_and_repeats_counts():
    build = battery_subset()
    first = run.measure_traced(wl, "subset", 0, build)
    second = run.measure_traced(wl, "subset", 0, build)
    for gate, metrics, problems in (first, second):
        # three passes: traced, untraced, traced; equal digests across them
        assert gate.attempted == 3 * 7 and gate.failed == 0, gate.problems
        assert problems == []
        assert metrics["trace.residual_frac"] <= run.RESIDUAL_BOUND
        assert set(metrics) == {name for name, _, _ in run.PER_LAYER}
    for name in run.COUNTS:
        assert first[1][name] == second[1][name], name
    metrics = first[1]
    assert metrics["hst.sample_frt.calls"] == 7 * wl.BATTERY_TRIALS
    assert metrics["hst.tree_distance.calls"] > 0 and metrics["hst.nodes"] > 0
    assert metrics["cfl.OflState.arrive.calls"] > 0 and metrics["metric.max_flow.calls"] > 0
    assert metrics["metric.build_metric.calls"] == wl.BATTERY_SLICE * 7  # set-up only
    assert metrics["stage.sample_frt.s"] > 0 and metrics["generators.s"] > 0


def test_speed_probe_samples_on_wall_time_and_restores_the_handler():
    import signal
    import time

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
        time.sleep(0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 10 <= len(probe.times) <= 36  # one call per period at most
    assert 0 < probe.spent < 0.3 and probe.starts == sorted(probe.starts)
    assert probe.slowdown(t0, t1) > 0
    # an interval shorter than the period still gets the calls next to it
    middle = probe.starts[len(probe.starts) // 2]
    assert probe.slowdown(middle + 1e-6, middle + 2e-6) > 0


def test_tracer_restores_every_attribute():
    from spans import SPAN_TARGETS, Tracer
    import importlib

    before = [getattr(importlib.import_module(mod), attr) for mod, attr, _ in SPAN_TARGETS]
    with Tracer():
        assert verify.sample_frt is not before[[a for _, a, _ in SPAN_TARGETS].index("sample_frt")]
    after = [getattr(importlib.import_module(mod), attr) for mod, attr, _ in SPAN_TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--workload", "online", "--trace", "2"]])
def test_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code == 2
