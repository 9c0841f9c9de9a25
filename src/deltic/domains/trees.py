"""Path-indexed trees: documents as maps from paths to scalars.

Two flavors share the tree container: document trees over the null-scalar
base (replacement changes; node deletion = setting the scalar to null) and
numeric trees over the additive int base (used by the rose-tree aggregation
benchmark, where the sum fold is linear and therefore cache-free).
"""

from __future__ import annotations

import json
from importlib import resources

from ..calculus import (
    Cst, Filter, ID, Map, OpCall, OpDef, ProgramDef, Registry, Term,
    fanout, seq,
)
from ..core import DelticError, INT, SCALAR, TBase, TCont
from . import InstanceBundle
from .containers import DICT, TREE, dict_shape, tree_shape

S = TBase(SCALAR)
Z = TBase(INT)

DOC_TREE = TCont(tree_shape(), S)
INT_TREE = TCont(tree_shape(), Z)
BIB_TY = TCont(dict_shape("nat"), DOC_TREE)


class TreeStructureError(DelticError):
    """A path map does not describe a well-formed nested document."""


# ---------------------------------------------------------------------------
# Conversions between nested documents and path maps
# ---------------------------------------------------------------------------

def tree_to_map(doc) -> dict:
    """Flatten a nested dict/list/scalar document into a path map.

    Null leaves vanish (they are the container default); empty dicts/lists
    are not representable and are rejected.
    """
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            if not node:
                raise TreeStructureError(f"empty object at {path!r} is not representable")
            for k, sub in node.items():
                if not isinstance(k, str):
                    raise TreeStructureError(f"non-string field {k!r} at {path!r}")
                walk(sub, path + (k,))
        elif isinstance(node, list):
            if not node:
                raise TreeStructureError(f"empty array at {path!r} is not representable")
            for idx, sub in enumerate(node):
                walk(sub, path + (idx,))
        elif node is None:
            pass
        elif isinstance(node, (str, int, float)) and not isinstance(node, bool):
            out[path] = node
        else:
            raise TreeStructureError(f"unsupported leaf {node!r} at {path!r}")

    walk(doc, ())
    return out


class _LeafBox:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def map_to_tree(v: dict):
    """Rebuild the nested document; raises on conflicting or gapped paths."""
    if not v:
        return None
    if () in v:
        if len(v) > 1:
            raise TreeStructureError("root is both a leaf and an inner node")
        return v[()]
    root = {}
    for path, leaf in v.items():
        node = root
        for step in path[:-1]:
            child = node.get(step)
            if child is None:
                child = node[step] = {}
            elif isinstance(child, _LeafBox):
                raise TreeStructureError(f"{step!r} on {path!r} is both leaf and ancestor")
            node = child
        last = path[-1]
        if last in node:
            raise TreeStructureError(f"conflicting entries under {path!r}")
        node[last] = _LeafBox(leaf)

    def materialize(node, where):
        if isinstance(node, _LeafBox):
            return node.value
        keys = list(node.keys())
        if all(isinstance(k, int) for k in keys):
            if sorted(keys) != list(range(len(keys))):
                raise TreeStructureError(f"array at {where!r} has missing ancestors: {sorted(keys)}")
            return [materialize(node[i], where + (i,)) for i in range(len(keys))]
        if all(isinstance(k, str) for k in keys):
            return {k: materialize(node[k], where + (k,)) for k in sorted(keys)}
        raise TreeStructureError(f"mixed field/ordinal steps at {where!r}")

    return materialize(root, ())


def delete_tree_change(tree_value: dict) -> dict:
    """The change that erases every stored node of a document tree."""
    return {path: None for path in tree_value}


def insert_tree_change(tree_value: dict) -> dict:
    """The change that writes a document tree over an empty one."""
    return dict(tree_value)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def make_check_path(name: str, path: tuple, pred) -> OpDef:
    """Keep a document iff the scalar at `path` satisfies pred, else empty it."""
    def fn(v):
        return v if pred(v.get(path)) else {}

    return OpDef(
        name, lambda ty: DOC_TREE if ty == DOC_TREE else None, fn, "triv",
        sample_in_tys=(DOC_TREE,))


def make_fold(name: str, item_fn, merge_fn, zero, typer, linear: bool,
              sample_in_tys=()) -> OpDef:
    """Aggregate path/value entries with merge_fn (associative, commutative).

    With linear=True the fold is its own derivative (valid when the element
    changes are additive and item_fn is linear in them); otherwise it falls
    back to the trivial input-caching incrementalization.
    """
    def fn(v):
        acc = zero
        for path, val in v.items():
            acc = merge_fn(acc, item_fn(path, val))
        return acc

    return OpDef(name, typer, fn, fn if linear else "triv",
                 sample_in_tys=tuple(sample_in_tys))


def _num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def q1_elem_term() -> Term:
    """Per-book Q1: publisher check, year check, project to year/title."""
    project = seq(fanout(Cst(S, None), ID), Filter("year_title"))
    return seq(
        OpCall("pub_addison_wesley"),
        OpCall("year_after_1991"),
        project,
    )


def q1_term() -> Term:
    return Map(q1_elem_term())


def load_bibliography():
    """The stock 4-book bibliography as a dict-of-document-trees value."""
    text = resources.files("deltic.data").joinpath("bibliography.json").read_text()
    return parse_document(text)


def parse_document(text: str):
    """Structured-text ingestion: a JSON array of records -> (BIB_TY, value)."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise TreeStructureError("expected a top-level array of records")
    value = {}
    for idx, record in enumerate(data):
        tree = tree_to_map(record)
        if tree:
            value[idx] = tree
    return value


def tree_sum_term() -> Term:
    return OpCall("tree_sum")


def register_trees() -> InstanceBundle:
    reg = Registry()
    reg.register_base(SCALAR)
    reg.register_base(INT)
    reg.register_container(TREE)
    reg.register_container(DICT)

    reg.register_op(make_check_path(
        "pub_addison_wesley", ("publisher",), lambda v: v == "Addison-Wesley"))
    reg.register_op(make_check_path(
        "year_after_1991", ("year",), lambda v: _num(v) and v > 1991))

    reg.register_op(make_fold(
        "tree_sum", lambda _p, v: v, lambda a, b: a + b, 0,
        lambda ty: Z if ty == INT_TREE else None, linear=True,
        sample_in_tys=(INT_TREE,)))
    reg.register_op(make_fold(
        "tree_size", lambda _p, v: 0 if v is None else 1, lambda a, b: a + b, 0,
        lambda ty: Z if ty == DOC_TREE else None, linear=False,
        sample_in_tys=(DOC_TREE,)))
    reg.register_op(make_fold(
        "tree_max", lambda _p, v: v if _num(v) else None,
        lambda a, b: b if a is None else (a if b is None or a >= b else b), None,
        lambda ty: S if ty == DOC_TREE else None, linear=False,
        sample_in_tys=(DOC_TREE,)))

    reg.register_index_pred(
        "year_title", lambda path: path in (("year",), ("title",)))

    reg.register_program(ProgramDef(
        "q1", lambda ty: q1_term() if ty == BIB_TY else None))
    reg.register_program(ProgramDef(
        "tree_sum", lambda ty: tree_sum_term() if ty == INT_TREE else None))

    return InstanceBundle("trees", reg, INT)
