"""Compare every artifact of this working tree against those of a git revision.

Extracts the tree committed at REF into a temporary directory, then runs the
same commands in it and in this working tree, each with its own `src` first
on PYTHONPATH:

* `qpassage run` on every `configs/*.cfg`, at grid 513 and at the config's
  own grid.  513 intervals per step are one full span of Hamiltonian
  evaluations plus one interval up to d = 8 (512-interval spans) and two
  full spans plus one above (256-interval spans), so every config crosses a
  span edge;
* `qpassage sweep configs/bell.cfg --param kappa_T` at grid 513, and
  `--param grid --values 513,1024`, whose table has an integer first column;
* `qpassage verify --seed 1`, whose report is its standard output, and
  `qpassage verify --seed 7 --max-m 4 --max-n 5`, whose frames and drives
  span layouts beyond the default M <= 3, N <= 4.

Every CSV, manifest, sweep table and report is compared byte for byte, as is
each command's exit code and error output.  One `same` or `DIFF` line is
printed per artifact as soon as it is compared, one `FAIL` line per
command of the working tree that exits nonzero, and last one summary line,
`N same, M DIFF, F FAIL`; the exit code is 1 if anything differs or fails,
else 0.
A `DIFF` line of a CSV or JSON file of the same shape on both sides (same
header and row count, or same keys and list lengths) ends with the largest
absolute difference of each numeric column or field that moved, e.g.
`(max |Δ| F 4.4e-16, runs.final_fidelity 1.1e-16)`, then the names of the
non-numeric ones that differ; a JSON field is named by its keys, list
positions left out, so it spans every run of a manifest.  A `DIFF` line of
a text file (a report or a status) of the same line count on both sides ends
with the second token of each line that differs, e.g.
`(lines differ: evolution-reconstruction)`.
Comparing against `HEAD` with a clean tree checks that every command succeeds
and that two identical runs agree.

Run:  python tools/cmp_runs.py REF
"""

import argparse
import csv
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORK = Path(__file__).resolve().parents[1]
MAIN = "import sys; from qpassage.cli import main; sys.exit(main())"
GRID = "513"
SWEEP = ["sweep", "configs/bell.cfg", "--param", "kappa_T", "--values", "0.0145,0.0725,0.145"]
GRID_SWEEP = ["sweep", "configs/bell.cfg", "--param", "grid", "--values", f"{GRID},1024"]


def commands(tree: Path) -> dict:
    """{name: argv} for the runs compared, the configs being those of `tree`."""
    jobs = {}
    for config in sorted((tree / "configs").glob("*.cfg")):
        path = f"configs/{config.name}"
        jobs[f"{config.stem}-grid{GRID}"] = ["run", path, "--grid", GRID]
        jobs[f"{config.stem}-own-grid"] = ["run", path]
    jobs[f"sweep-kappa_T-grid{GRID}"] = SWEEP + ["--grid", GRID]
    jobs["sweep-grid"] = GRID_SWEEP
    jobs["verify-seed1"] = ["verify", "--seed", "1"]
    jobs["verify-seed7-m4-n5"] = ["verify", "--seed", "7", "--max-m", "4", "--max-n", "5"]
    return jobs


def run_all(tree: Path, out: Path) -> dict:
    """Run every command of `tree` from its root, each writing into its own
    directory under `out`: the artifacts, `report.txt` (standard output of
    verify only, since run and sweep print their output paths) and
    `status.txt` (exit code and error output).  Returns {name: exit code} of
    the commands that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    where = subprocess.run([sys.executable, "-c", "import qpassage; print(qpassage.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(tree / "src"):
        sys.exit(f"error: {tree} imports qpassage from {where.stdout.strip()}")
    failed = {}
    for name, argv in commands(tree).items():
        target = out / name
        if argv[0] != "verify":
            argv = argv + ["--out", str(target)]
        done = subprocess.run([sys.executable, "-c", MAIN] + argv, cwd=tree, env=env,
                              capture_output=True, text=True)
        target.mkdir(parents=True, exist_ok=True)
        if argv[0] == "verify":
            (target / "report.txt").write_text(done.stdout)
        # the output root differs between the trees; name it the same way
        status = f"exit {done.returncode}\n{done.stderr}".replace(str(out), "<out>")
        (target / "status.txt").write_text(status)
        (target / "timings.json").unlink(missing_ok=True)  # wall-clock time differs
        if done.returncode:
            failed[name] = done.returncode
    return failed


def _leaves(a, b, path: str = ""):
    """(path, a, b) for each pair of leaves of the JSON values a and b;
    ValueError if their keys or list lengths differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise ValueError("keys differ")
        for key in a:
            yield from _leaves(a[key], b[key], f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError("lengths differ")
        for x, y in zip(a, b):
            yield from _leaves(x, y, path)
    else:
        yield path, a, b


def _cells(a: Path, b: Path):
    """(column, a, b) for each pair of cells of the CSV files a and b;
    ValueError if their headers or row counts differ."""
    rows_a, rows_b = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        raise ValueError("shapes differ")
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(row_b):
            raise ValueError("shapes differ")
        yield from zip(rows_a[0], row_a, row_b)


def _number(x) -> float | None:
    """A CSV cell or JSON value as a float; None for a flag or a non-number."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _lines_differ(a: Path, b: Path) -> str:
    """' (lines differ: name, ...)' naming each line that differs between the
    text files a and b of one line count by its second token (a verify
    report's suite name), else ''."""
    lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
    if len(lines_a) != len(lines_b):
        return ""
    # the second token, or the whole line where it has fewer than two
    names = [(x.split() + [x, x])[1] for x, y in zip(lines_a, lines_b) if x != y]
    return f" (lines differ: {', '.join(names)})" if names else ""


def moves(a: Path, b: Path) -> str:
    """' (max |Δ| name value, ...)' over the numeric columns or fields that
    differ between the CSV or JSON files a and b of one shape, followed by
    '; also differ: name, ...' for the others that differ; for text files of
    one line count, the names of the lines that differ; else ''."""
    if a.suffix == ".txt":
        return _lines_differ(a, b)
    largest: dict = {}
    other: dict = {}  # an ordered set of the non-numeric names
    try:
        if a.suffix == ".csv":
            pairs = list(_cells(a, b))
        elif a.suffix == ".json":
            pairs = list(_leaves(json.loads(a.read_text()), json.loads(b.read_text())))
        else:
            return ""
    except ValueError:  # of different shapes, or not JSON
        return ""
    for name, x, y in pairs:
        if x == y:
            continue
        x, y = _number(x), _number(y)
        if x is None or y is None:
            other[name] = None
        else:
            largest[name] = max(largest.get(name, 0.0), abs(x - y))
    parts = []
    if largest:
        parts.append("max |Δ| " + ", ".join(f"{name} {d:.1e}" for name, d in largest.items()))
    if other:
        parts.append("also differ: " + ", ".join(other))
    return f" ({'; '.join(parts)})" if parts else ""


def compare(ref: Path, work: Path) -> tuple[int, int]:
    """Print one line per artifact of either side; return the numbers of
    `same` and `DIFF` lines."""
    names = sorted({p.relative_to(ref) for p in ref.rglob("*") if p.is_file()}
                   | {p.relative_to(work) for p in work.rglob("*") if p.is_file()})
    same = 0
    for name in names:
        a, b = ref / name, work / name
        if not (a.is_file() and b.is_file()):
            side = "the working tree" if b.is_file() else "REF"
            print(f"DIFF {name} (only in {side})", flush=True)
        elif filecmp.cmp(a, b, shallow=False):
            print(f"same {name}", flush=True)
            same += 1
        else:
            print(f"DIFF {name}{moves(a, b)}", flush=True)
    return same, len(names) - same


def report(ref: Path, work: Path, failed: dict) -> int:
    """Compare the outputs `ref` and `work` (`compare`), print one `FAIL`
    line per command of `failed`, {name: exit code}, then the summary line,
    and return the exit code."""
    same, differ = compare(ref, work)
    for name, code in failed.items():
        print(f"FAIL {name} (exit {code})")
    print(f"{same} same, {differ} DIFF, {len(failed)} FAIL")
    return 1 if differ or failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare against, e.g. HEAD or main")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="cmp_runs-") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.ref], cwd=WORK, capture_output=True)
        if archive.returncode:
            sys.exit(f"error: git archive {args.ref}: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive.stdout, check=True)
        run_all(ref_tree, tmp / "ref-out")
        failed = run_all(WORK, tmp / "work-out")
        return report(tmp / "ref-out", tmp / "work-out", failed)


if __name__ == "__main__":
    sys.exit(main())
