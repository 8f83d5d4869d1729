import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"
_spec = importlib.util.spec_from_file_location("scaling", TOOL)
scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling)


def test_prints_all_four_curves_at_tiny_sizes(monkeypatch, capsys):
    monkeypatch.setattr(scaling, "VERIFY_KS", (6, 10))
    monkeypatch.setattr(scaling, "ONLINE_NS", (13, 19))
    monkeypatch.setattr(scaling, "DIAMOND_DEPTHS", (0, 2, 3))
    monkeypatch.setattr(scaling, "HST_KS", (1, 4))
    monkeypatch.setattr(scaling, "HST_TREES", 3)
    monkeypatch.setattr(scaling, "REPEATS", 1)
    assert scaling.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:4]] == ["6", "10"]
    assert lines[6].split()[:2] == ["problem", "stage"]
    rows = lines[7:21]
    for row, problem in zip(rows[::2], scaling.online_counts(1)):
        assert row.split()[:2] == [problem, "run"]
    for row in rows:
        assert len(row.split()) == 4 and all(float(x) >= 0 for x in row.split()[2:])
    assert lines[21] == "" and lines[22].startswith("diamond:")
    assert lines[23].split() == ["depth", "n", "run", "checks"]
    diamond = [row.split() for row in lines[24:27]]
    assert [row[:2] for row in diamond] == [["0", "2"], ["2", "8"], ["3", "16"]]
    assert all(float(x) >= 0 for row in diamond for x in row[2:])
    assert lines[27] == "" and lines[28].startswith("hst: 3 trees")
    assert lines[29].split() == ["k", "sample_us", "validate_ms"]
    hst_rows = [row.split() for row in lines[30:]]
    assert [row[0] for row in hst_rows] == ["1", "4"]
    assert all(len(row) == 3 and float(row[1]) > 0 and float(row[2]) > 0 for row in hst_rows)


def test_request_counts_per_problem():
    assert scaling.online_counts(601) == {
        "SteinerTree": 1202, "SteinerForest": 601, "SteinerNetwork": 601, "SROB": 1202, "MROB": 601,
        "PCST": 1202, "CFL": 300,
    }
