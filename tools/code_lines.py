"""Count the code lines of `src/qpassage/*.py` at a git revision and in this working tree.

A code line is a line that is not blank, not a comment alone and not part
of the docstring of a module, class or function; this is the count the
ROADMAP's design aim tracks per change.  One row is printed per module,
then the total: the count at REF, in the working tree and the difference.
A module present on one side only counts 0 on the other.

Run:  python tools/code_lines.py REF
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

WORK = Path(__file__).resolve().parents[1]
PACKAGE = "src/qpassage"


def code_lines(source: str) -> int:
    """The number of code lines of one module's `source`."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and number not in docstrings)


def at_revision(ref: str) -> dict:
    """{module name: code lines} of the package as committed at `ref`."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=WORK, check=True, capture_output=True,
                              text=True).stdout
    names = git("ls-tree", "--name-only", f"{ref}:{PACKAGE}").split()
    return {name: code_lines(git("show", f"{ref}:{PACKAGE}/{name}"))
            for name in names if name.endswith(".py")}


def in_tree() -> dict:
    """{module name: code lines} of the package in the working tree."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in (WORK / PACKAGE).glob("*.py")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision to compare the working tree with")
    args = parser.parse_args()
    try:
        before = at_revision(args.ref)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.strip() or exc}", file=sys.stderr)
        return 2
    after = in_tree()
    rows = [(name, before.get(name, 0), after.get(name, 0)) for name in sorted(before | after)]
    rows.append(("total", sum(before.values()), sum(after.values())))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {args.ref[:12]:>12}  {'tree':>6}  {'change':>6}")
    for name, old, new in rows:
        print(f"{name:<{width}}  {old:>12,}  {new:>6,}  {new - old:>+6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
