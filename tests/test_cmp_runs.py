"""What tools/cmp_runs.py says about two files that differ."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cmp_runs.py"
spec = importlib.util.spec_from_file_location("cmp_runs", TOOL)
cmp_runs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cmp_runs)

REPORT = """verification seed=1 sizes=[(1, 2)]
pass  frame-orthonormality       max error 4.441e-16 (tolerance 1.0e-10)
pass  evolution-reconstruction   max error 2.538e-08 (tolerance 1.0e-06)
pass  detuning-sensitivity       max error 9.614e-03 (tolerance 1.0e-03)
"""


def _pair(tmp_path, a, b, name="report.txt"):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / name).write_text(a)
    (tmp_path / "b" / name).write_text(b)
    return tmp_path / "a" / name, tmp_path / "b" / name


def test_a_report_names_the_suites_whose_lines_moved(tmp_path):
    moved = REPORT.replace("2.538e-08", "3.869e-13").replace("9.614e-03", "9.615e-03")
    a, b = _pair(tmp_path, REPORT, moved)
    assert cmp_runs.moves(a, b) == " (lines differ: evolution-reconstruction, detuning-sensitivity)"


def test_a_line_of_fewer_than_two_tokens_is_named_whole(tmp_path):
    a, b = _pair(tmp_path, "exit 1\nerror\n", "exit 1\nwarning\n", name="status.txt")
    assert cmp_runs.moves(a, b) == " (lines differ: error)"


def test_reports_of_different_line_counts_or_equal_lines_name_nothing(tmp_path):
    a, b = _pair(tmp_path, REPORT, REPORT + "FAIL  extra-suite  max error nan\n")
    assert cmp_runs.moves(a, b) == ""
    assert cmp_runs.moves(a, a) == ""


def test_a_csv_still_reports_its_largest_moves(tmp_path):
    a, b = _pair(tmp_path, "t,F\n0,1.0\n1,0.5\n", "t,F\n0,1.0\n1,0.25\n", name="run.csv")
    assert cmp_runs.moves(a, b) == " (max |Δ| F 2.5e-01)"


def test_the_comparison_ends_with_one_summary_line(tmp_path, capsys):
    a, b = _pair(tmp_path, REPORT, REPORT)
    (tmp_path / "a" / "run.csv").write_text("t,F\n0,1.0\n")
    (tmp_path / "b" / "run.csv").write_text("t,F\n0,0.5\n")
    (tmp_path / "b" / "extra.txt").write_text("exit 0\n")
    assert cmp_runs.report(a.parent, b.parent, {"bell-own-grid": 1}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["DIFF extra.txt (only in the working tree)", "same report.txt",
                     "DIFF run.csv (max |Δ| F 5.0e-01)", "FAIL bell-own-grid (exit 1)",
                     "1 same, 2 DIFF, 1 FAIL"]
    assert cmp_runs.report(a.parent, a.parent, {}) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 same, 0 DIFF, 0 FAIL"
