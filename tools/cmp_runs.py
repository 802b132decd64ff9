"""Compare every artifact of this working tree against those of a git revision.

Extracts the tree committed at REF into a temporary directory, then runs the
same commands in it and in this working tree, each with its own `src` first
on PYTHONPATH:

* `qpassage run` on every `configs/*.cfg`, at grid 257 (one full span of
  Hamiltonian evaluations plus one interval per step) and at the config's
  own grid;
* `qpassage sweep configs/bell.cfg --param kappa_T` at grid 257;
* `qpassage verify --seed 1`, whose report is its standard output.

Every CSV, manifest, sweep table and report is compared byte for byte, as is
each command's exit code and error output.  One `same` or `DIFF` line is
printed per artifact, and one `FAIL` line per command of the working tree
that exits nonzero; the exit code is 1 if anything differs or fails, else 0.
Comparing against `HEAD` with a clean tree checks that every command succeeds
and that two identical runs agree.

Run:  python tools/cmp_runs.py REF
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORK = Path(__file__).resolve().parents[1]
MAIN = "import sys; from qpassage.cli import main; sys.exit(main())"
GRID = "257"
SWEEP = ["sweep", "configs/bell.cfg", "--param", "kappa_T", "--values", "0.0145,0.0725,0.145"]


def commands(tree: Path) -> dict:
    """{name: argv} for the runs compared, the configs being those of `tree`."""
    jobs = {}
    for config in sorted((tree / "configs").glob("*.cfg")):
        path = f"configs/{config.name}"
        jobs[f"{config.stem}-grid{GRID}"] = ["run", path, "--grid", GRID]
        jobs[f"{config.stem}-own-grid"] = ["run", path]
    jobs[f"sweep-kappa_T-grid{GRID}"] = SWEEP + ["--grid", GRID]
    jobs["verify-seed1"] = ["verify", "--seed", "1"]
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


def compare(ref: Path, work: Path) -> bool:
    """Print one line per artifact of either side; True if all are the same."""
    names = sorted({p.relative_to(ref) for p in ref.rglob("*") if p.is_file()}
                   | {p.relative_to(work) for p in work.rglob("*") if p.is_file()})
    same = True
    for name in names:
        a, b = ref / name, work / name
        if not (a.is_file() and b.is_file()):
            print(f"DIFF {name} (only in {'the working tree' if b.is_file() else 'REF'})")
            same = False
        elif filecmp.cmp(a, b, shallow=False):
            print(f"same {name}")
        else:
            print(f"DIFF {name}")
            same = False
    return same


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
        same = compare(tmp / "ref-out", tmp / "work-out")
        for name, code in failed.items():
            print(f"FAIL {name} (exit {code})")
        return 0 if same and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
