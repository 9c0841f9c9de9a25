"""Shared container definitions used by the domain instantiations.

arrays    shape = length n, positions 0..n-1 (finite)
relations shape = a schema (int | str | pair of schemata), positions = tuples
          of that schema (infinite)
dicts     a single shape per key kind, positions = keys (infinite)
trees     a single shape, positions = paths (tuples of field names and
          ordinals) (infinite)
nodes     shape = a tuple of participant ids, positions = those ids (finite)
"""

from __future__ import annotations

from ..core import ConformanceError, ContainerDef, Shape, TCont
from ..serialize import TextReader


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# --- arrays ---------------------------------------------------------------

def _array_length(text):
    try:
        return int(text)
    except ValueError:
        raise ConformanceError(f"bad array length: {text.strip()!r}") from None


_EXACT_INT = frozenset((int,))


def _array_indices(p, keys):
    """Bulk valid_index: every key an exact int in [0, p)."""
    return not keys or (_EXACT_INT.issuperset(map(type, keys))
                        and 0 <= min(keys) and max(keys) < p)


ARRAY = ContainerDef(
    id="arr",
    valid_shape=lambda p: _is_int(p) and p >= 0,
    valid_index=lambda p, i: _is_int(i) and 0 <= i < p,
    enum_indices=lambda p: list(range(p)),
    valid_indices=_array_indices,
    payload_to_text=str,
    payload_from_text=_array_length,
)


def arr_shape(n: int) -> Shape:
    return Shape(ARRAY, n)


def arr(n: int, elem) -> TCont:
    return TCont(arr_shape(n), elem)


# --- relations ------------------------------------------------------------

def schema_valid(s) -> bool:
    if s in ("int", "str"):
        return True
    return isinstance(s, tuple) and len(s) == 2 and schema_valid(s[0]) and schema_valid(s[1])


def tuple_of_schema(s, v) -> bool:
    if s == "int":
        return _is_int(v)
    if s == "str":
        return isinstance(v, str)
    return (isinstance(v, tuple) and len(v) == 2
            and tuple_of_schema(s[0], v[0]) and tuple_of_schema(s[1], v[1]))


def schema_to_text(s) -> str:
    if isinstance(s, str):
        return s
    def atom(x):
        t = schema_to_text(x)
        return f"({t})" if isinstance(x, tuple) else t
    return f"{atom(s[0])}*{atom(s[1])}"


def schema_from_text(text: str):
    r = TextReader(text, "schema")
    s = _read_schema(r)
    r.end()
    return s


def _read_schema(r):
    """schema := ('int' | 'str' | '(' schema ')') ['*' schema]"""
    if r.take("("):
        left = _read_schema(r)
        r.expect(")")
    else:
        left = r.ident()
        if left not in ("int", "str"):
            r.error(f"unknown schema {left!r}")
    return (left, _read_schema(r)) if r.take("*") else left


RELATION = ContainerDef(
    id="rel",
    valid_shape=schema_valid,
    valid_index=tuple_of_schema,
    enum_indices=None,
    payload_to_text=schema_to_text,
    payload_from_text=schema_from_text,
)


def rel_shape(schema) -> Shape:
    return Shape(RELATION, schema)


# --- dictionaries ---------------------------------------------------------

_DICT_KINDS = {
    "any": lambda i: True,
    "int": _is_int,
    "nat": lambda i: _is_int(i) and i >= 0,
    "str": lambda i: isinstance(i, str),
}

DICT = ContainerDef(
    id="dict",
    valid_shape=lambda p: p in _DICT_KINDS,
    valid_index=lambda p, i: _DICT_KINDS[p](i),
    enum_indices=None,
    payload_to_text=str,
    payload_from_text=lambda t: t.strip(),
)


def dict_shape(kind="any") -> Shape:
    return Shape(DICT, kind)


# --- path trees -----------------------------------------------------------

def _valid_path(p) -> bool:
    return isinstance(p, tuple) and all(
        isinstance(s, str) or (_is_int(s) and s >= 0) for s in p)


TREE = ContainerDef(
    id="tree",
    valid_shape=lambda p: p is None,
    valid_index=lambda p, i: _valid_path(i),
    enum_indices=None,
    payload_to_text=lambda p: "",
    payload_from_text=lambda t: None if t.strip() == "" else t,
)


def tree_shape() -> Shape:
    return Shape(TREE, None)


# --- participant vectors --------------------------------------------------

NODES = ContainerDef(
    id="nodes",
    valid_shape=lambda p: (isinstance(p, tuple) and len(p) > 0
                           and all(isinstance(i, str) for i in p)
                           and len(set(p)) == len(p)),
    valid_index=lambda p, i: i in p,
    enum_indices=lambda p: list(p),
    payload_to_text=lambda p: ",".join(p),
    payload_from_text=lambda t: tuple(s.strip() for s in t.split(",")),
)


def nodes_shape(ids) -> Shape:
    return Shape(NODES, tuple(sorted(ids)))
