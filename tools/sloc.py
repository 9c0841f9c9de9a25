"""Code lines of src/ per module, at a git revision and in the working tree.

A code line holds at least one token that is neither a comment nor part of
a docstring (a string that is the first statement of a module, class or
function).  Blank lines, comment lines and docstring lines do not count, so
deleting a comment is not a reduction.  A string that is not a docstring
counts on every line it spans.

For each .py file under src/, at REV and in the working tree (untracked
files included), it prints one JSON line, sorted by module:

    {"module": "deltic/core.py", "rev": 420, "tree": 401, "delta": -19}

A side that lacks the file reads 0.  A last line, with "module": "total",
sums the two sides and gives the total delta.  Standard library only.

    python3 tools/sloc.py [REV] [--root DIR]    # REV: HEAD, DIR: this repo

When git fails (REV names no commit, or DIR is not a git checkout), it
prints git's message and exits 2.
"""

import argparse
import ast
import io
import json
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree):
    """(first line, last line) of every docstring in tree."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.add((first.lineno, first.end_lineno))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    docs = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and (tok.start[0], tok.end[0]) in docs:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True, check=True).stdout


def at_rev(root: Path, rev: str) -> dict:
    """{module: code lines} for the .py files under src/ at rev."""
    paths = _git(root, "ls-tree", "-r", "--name-only", rev, "--", "src").split("\n")
    return {p[len("src/"):]: code_lines(_git(root, "show", f"{rev}:{p}"))
            for p in paths if p.endswith(".py")}


def in_tree(root: Path) -> dict:
    """{module: code lines} for the .py files under src/ in the working tree."""
    src = root / "src"
    return {p.relative_to(src).as_posix(): code_lines(p.read_text(encoding="utf-8"))
            for p in src.rglob("*.py")}


def rows(old: dict, new: dict):
    """One dict per module of either side, sorted, then the total."""
    out = [{"module": m, "rev": old.get(m, 0), "tree": new.get(m, 0),
            "delta": new.get(m, 0) - old.get(m, 0)} for m in sorted(old.keys() | new.keys())]
    a, b = sum(old.values()), sum(new.values())
    return out + [{"module": "total", "rev": a, "tree": b, "delta": b - a}]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev", nargs="?", default="HEAD")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args(argv)
    try:
        old = at_rev(args.root, args.rev)
    except subprocess.CalledProcessError as e:
        print(e.stderr.strip() or e, file=sys.stderr)
        return 2
    for row in rows(old, in_tree(args.root)):
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
