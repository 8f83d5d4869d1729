import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"
_spec = importlib.util.spec_from_file_location("scaling", TOOL)
scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling)


def test_prints_both_curves_at_tiny_sizes(monkeypatch, capsys):
    monkeypatch.setattr(scaling, "VERIFY_KS", (6, 10))
    monkeypatch.setattr(scaling, "ONLINE_NS", (13, 19))
    monkeypatch.setattr(scaling, "REPEATS", 1)
    assert scaling.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:4]] == ["6", "10"]
    assert lines[6].split()[:2] == ["problem", "stage"]
    rows = lines[7:]
    assert len(rows) == 2 * 7
    for row, problem in zip(rows[::2], scaling.online_counts(1)):
        assert row.split()[:2] == [problem, "run"]
    for row in rows:
        assert len(row.split()) == 4 and all(float(x) >= 0 for x in row.split()[2:])


def test_request_counts_per_problem():
    assert scaling.online_counts(601) == {
        "SteinerTree": 1202, "SteinerForest": 601, "SteinerNetwork": 601, "SROB": 1202, "MROB": 601,
        "PCST": 1202, "CFL": 300,
    }
