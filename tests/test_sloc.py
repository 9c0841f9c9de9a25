"""tools/sloc.py: code lines of src/ per module, at a revision and in the tree."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "sloc.py"

_spec = importlib.util.spec_from_file_location("sloc", TOOL)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

# the code lines are marked `# code`; every other line is blank, a comment
# or part of a docstring
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # code


class A:  # code
    """Class docstring."""

    x = """a string that is no docstring,  # code
    on three lines,  # code
    counts on each"""  # code

    def f(self):  # code
        """A docstring
        of three
        lines."""
        # a comment
        "a string statement after the first"  # code
        return (1,  # code
                2)  # code


def g(): "a docstring on the def line"  # code
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    marked = sum(line.rstrip().endswith("# code") for line in FIXTURE.splitlines())
    assert marked == 10
    assert sloc.code_lines(FIXTURE) == marked
    assert sloc.code_lines("") == 0
    assert sloc.code_lines("# only a comment\n\n") == 0


def _git(root, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def test_one_line_per_module_and_the_total_delta(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (pkg / "gone.py").write_text("z = 3\n")
    (tmp_path / "notes.py").write_text("outside = src\n")  # not under src/
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    # a deleted comment is no reduction; a deleted statement is
    (pkg / "a.py").write_text('"""Doc."""\n# a comment\nx = 1\n')
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("def f():\n    return 1\n")
    proc = subprocess.run([sys.executable, str(TOOL), "HEAD", "--root", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        {"module": "pkg/a.py", "rev": 2, "tree": 1, "delta": -1},
        {"module": "pkg/gone.py", "rev": 1, "tree": 0, "delta": -1},
        {"module": "pkg/new.py", "rev": 0, "tree": 2, "delta": 2},
        {"module": "total", "rev": 3, "tree": 3, "delta": 0},
    ]


def test_a_git_failure_prints_gits_message_and_exits_2(tmp_path):
    # a revision that names no commit, and a directory that is no checkout;
    # git looks for a checkout no higher than tmp_path
    repo, plain = tmp_path / "repo", tmp_path / "plain"
    repo.mkdir()
    plain.mkdir()
    _git(repo, "init", "-q")
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path)}
    for args, message in [(["nosuchrev", "--root", str(repo)], "nosuchrev"),
                          (["HEAD", "--root", str(plain)], "not a git repository")]:
        proc = subprocess.run([sys.executable, str(TOOL), *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr
