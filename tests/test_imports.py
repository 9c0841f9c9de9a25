"""Every import in the package's modules is used."""

import ast
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "deltic"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(text):
    """(line, name) for each name that text imports at any level and never
    reads as that import.  A read resolves as Python resolves it: inside a
    function where the name is local (a parameter, a loop variable) it
    reads the local, not the import.  Annotations count as reads, as
    `from __future__ import annotations` leaves them unevaluated; a
    `from __future__` import is a directive, not a name."""
    tree = ast.parse(text)
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        for ann in _annotations(node):
            read.update(n.id for n in ast.walk(ann) if isinstance(n, ast.Name))
    module = symtable.symtable(text, "<module>", "exec")
    tables = [(module, [])]
    while tables:
        table, outer = tables.pop()
        for sym in table.get_symbols():
            if sym.is_referenced() and _binder(sym, table, outer, module).is_imported():
                read.add(sym.get_name())
        inner = outer if table.get_type() == "class" else [table, *outer]
        tables += [(child, inner) for child in table.get_children()]
    return sorted((line, name) for name, line in bound.items() if name not in read)


def _binder(sym, table, outer, module):
    """The symbol that binds sym, read in table: its own, an enclosing
    function's (outer, innermost first) or the module's."""
    name = sym.get_name()
    if sym.is_free():  # __class__ (super()) has no binder but the class
        return next((t.lookup(name) for t in outer
                     if name in t.get_identifiers() and t.lookup(name).is_local()), sym)
    if sym.is_global() and name in module.get_identifiers():  # else a builtin
        return module.lookup(name)
    return sym


def _annotations(node):
    """The annotation expressions node holds directly."""
    if isinstance(node, ast.arg | ast.AnnAssign):
        return [node.annotation] if node.annotation else []
    if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
        return [node.returns] if node.returns else []
    return []


def test_the_guard_sees_an_unused_import():
    # count is read only as a local, Any only as an annotation, sep from a
    # closure over a function's own import; path is never read
    text = ("import ast\nfrom itertools import count, chain\nfrom typing import Any\n"
            "def f(xs: Any):\n    return chain(count for count in xs)\n"
            "def g():\n    from os import path, sep\n    return lambda: sep\n")
    assert unused_imports(text) == [(1, "ast"), (2, "count"), (7, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_imports_a_name_it_never_reads(path):
    # an `__init__` may import to re-export, so it is not checked
    assert MODULES and unused_imports(path.read_text()) == []


RUNNERS = {"exec", "eval", "compile"}


def code_runners(text):
    """(function, name) for each read of the builtin exec, eval or compile in
    text, as a name or as an attribute of builtins, by the innermost
    function it sits in (None at module level)."""
    found, todo = [], [(ast.parse(text), None)]
    while todo:
        node, fn = todo.pop()
        if isinstance(node, ast.Name) and node.id in RUNNERS:
            found.append((fn, node.id))
        elif (isinstance(node, ast.Attribute) and node.attr in RUNNERS
              and isinstance(node.value, ast.Name) and node.value.id == "builtins"):
            found.append((fn, node.attr))
        inner = node.name if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) else fn
        todo += [(child, inner) for child in ast.iter_child_nodes(node)]
    return sorted(found, key=lambda f: (f[0] or "", f[1]))


def test_the_guard_sees_every_code_runner():
    # a call, a bare read and builtins' attribute count; re.compile does not
    text = ("import builtins, re\nP = re.compile('x')\nrun = eval\n"
            "def f(s):\n    def g():\n        return builtins.exec(s)\n"
            "    return compile(s, 'f', 'eval')\n")
    assert code_runners(text) == [(None, "eval"), ("f", "compile"), ("g", "exec")]


def test_only_run_text_and_equi_code_run_generated_text():
    # every generated text runs through calculus._run_text's
    # exec(compile(...)), under a name whose lines linecache serves, and
    # relalg._equi_code evaluates its own equi-join lambda; no other
    # function of the package reaches exec, eval or compile, so no
    # surface-program text can
    found = [(str(p.relative_to(SRC)), *f) for p in sorted(SRC.rglob("*.py"))
             for f in code_runners(p.read_text())]
    assert found == [("calculus.py", "_run_text", "compile"), ("calculus.py", "_run_text", "exec"),
                     ("domains/relalg.py", "_equi_code", "eval")]
