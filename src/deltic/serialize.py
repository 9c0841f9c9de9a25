"""Textual formats for values, changes, types and shapes.

Everything is type-directed JSON.  Values and changes share one format, and
one writer and one reader, built as a pair once per (type, value or change)
and memoised, as core's ⊕ is, except at replacement scalars and sums:

  scalars        numbers / strings / null; a replacement-style scalar's
                 change is "keep" or {"set": s}
  mappings       sorted arrays of [index, payload] pairs
  pairs          two-element arrays
  injections     {"inl": v} / {"inr": v}
  sum changes    {"cl": d} / {"cr": d} / {"sl": v} / {"sr": v} / "null"
                 (the tags of core.SUM_FORMS)
  indices        numbers, strings, or arrays of indices (tuples)

Types use a prefix grammar: `real`, `int`, `nat`, `scalar` are bases,
`<container>[<payload>] <elem>` applies a container, `*` and `+` build
products and sums (right-associative, `*` binds tighter), parentheses group.
`TextReader` is the one cursor that reads type, shape, schema and term text,
left to right in one pass.
"""

from __future__ import annotations

import json
import re
from functools import cache

from .core import (
    KEEP, SUM_FORMS, SUM_NULL, ConformanceError, Shape, TBase, TCont, TProd, TSum, UsageError,
    index_sort_key,
)


# ---------------------------------------------------------------------------
# Indices
# ---------------------------------------------------------------------------

def index_to_json(i):
    if isinstance(i, tuple):
        return [index_to_json(x) for x in i]
    return i


def index_from_json(j):
    if isinstance(j, list):
        return tuple(index_from_json(x) for x in j)
    if isinstance(j, bool) or not isinstance(j, (int, str)):
        raise ConformanceError(f"bad index literal: {j!r}")
    return j


# ---------------------------------------------------------------------------
# Values and changes
# ---------------------------------------------------------------------------

# change=False reads or writes a value, change=True a change.

@cache
def _codec(ty, change):
    """(write, read) for ty's values or changes: Python value <-> JSON."""
    match ty:
        case TBase(base):
            if change and base.kind == "scalar":
                def read_scalar(j):
                    if j == "keep":
                        return KEEP
                    if isinstance(j, dict) and set(j) == {"set"}:
                        return j["set"]
                    raise ConformanceError(f"bad scalar change: {j!r}")
                return lambda x: "keep" if x is KEEP else {"set": x}, read_scalar
            if base.kind == "real":
                return (lambda x: x), lambda j: float(j) if type(j) is int else j
            return (lambda x: x), (lambda j: j)
        case TCont(_, elem):
            w, r = _codec(elem, change)
            kind = "change" if change else "mapping"

            def read_entries(j):
                if not isinstance(j, list):
                    raise ConformanceError(f"expected {kind} entries, got {j!r}")
                out = {}
                for entry in j:
                    if not (isinstance(entry, list) and len(entry) == 2):
                        raise ConformanceError(f"bad {kind} entry: {entry!r}")
                    out[index_from_json(entry[0])] = r(entry[1])
                return out
            return (lambda x: [[index_to_json(i), w(e)] for i, e in
                               sorted(x.items(), key=lambda kv: index_sort_key(kv[0]))],
                    read_entries)
        case TProd(a, b):
            (wa, ra), (wb, rb) = _codec(a, change), _codec(b, change)
            pair = " change" if change else ""

            def read_pair(j):
                if not (isinstance(j, list) and len(j) == 2):
                    raise ConformanceError(f"expected a pair{pair}, got {j!r}")
                return (ra(j[0]), rb(j[1]))
            return lambda x: [wa(x[0]), wb(x[1])], read_pair
        case TSum(a, b):
            forms = {cls: (tag, *_codec(b if side else a, sub), sub)
                     for cls, (tag, side, sub) in SUM_FORMS[change].items()}
            tags = {tag: (cls, r) for cls, (tag, _, r, _) in forms.items()}
            bad = "bad sum change:" if change else "expected an injection, got"

            def write_sum(x):
                form = forms.get(type(x))
                if form is not None:
                    tag, w, _, sub = form
                    return {tag: w(x.change if sub else x.value)}
                if change and x is SUM_NULL:
                    return "null"
                raise ConformanceError(f"bad sum change {x!r}" if change
                                       else f"expected an injection, got {x!r}")

            def read_sum(j):
                if isinstance(j, dict) and len(j) == 1:
                    [(tag, payload)] = j.items()
                    form = tags.get(tag)
                    if form is not None:
                        return form[0](form[1](payload))
                elif change and j == "null":
                    return SUM_NULL
                raise ConformanceError(f"{bad} {j!r}")
            return write_sum, read_sum
        case _:
            raise UsageError(f"not a type: {ty!r}")


def value_to_json(ty, v):
    return _codec(ty, False)[0](v)


def value_from_json(ty, j):
    return _codec(ty, False)[1](j)


def value_to_text(ty, v) -> str:
    return json.dumps(_codec(ty, False)[0](v), separators=(",", ":"))


def value_from_text(ty, text) -> object:
    return _codec(ty, False)[1](json.loads(text))


def change_to_text(ty, d) -> str:
    return json.dumps(_codec(ty, True)[0](d), separators=(",", ":"))


def change_from_text(ty, text) -> object:
    return _codec(ty, True)[1](json.loads(text))


# ---------------------------------------------------------------------------
# Types and shapes
# ---------------------------------------------------------------------------

def type_to_text(ty) -> str:
    def go(t, level):
        # level: 0 sum, 1 prod, 2 atom
        match t:
            case TBase(base):
                return base.tag
            case TCont(shape, elem):
                s = f"{shape!r} {go(elem, 2)}"
                return s if level <= 2 else f"({s})"
            case TProd(a, b):
                s = f"{go(a, 2)} * {go(b, 1)}"
                return s if level <= 1 else f"({s})"
            case TSum(a, b):
                s = f"{go(a, 1)} + {go(b, 0)}"
                return s if level <= 0 else f"({s})"
            case _:
                raise UsageError(f"not a type: {t!r}")
    return go(ty, 0)


_IDENT = re.compile(r"\w+")
_NAME_ARG = re.compile(r"[^,)]*")
_JSON = json.JSONDecoder()


class TextReader:
    """A cursor over text, read left to right by the type, shape, schema and
    term readers.  Each method skips whitespace before what it reads; a
    failure names `what` and the position it was read up to."""

    def __init__(self, text, what):
        self.text, self.what, self.pos = text, what, 0

    def error(self, msg):
        raise ConformanceError(f"{self.what} syntax error at {self.pos}: {msg} in {self.text!r}")

    def peek(self):
        text = self.text
        while text[self.pos:self.pos + 1].isspace():
            self.pos += 1
        return text[self.pos:self.pos + 1]

    def take(self, c):
        if self.peek() == c:
            self.pos += 1
            return True
        return False

    def expect(self, c):
        if not self.take(c):
            found = self.peek()
            self.error(f"expected {c!r}, found {repr(found) if found else 'end of input'}")

    def ident(self):
        self.peek()
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def name_arg(self):
        """A registered name as an argument: the stripped text up to the next
        `,` or `)`."""
        m = _NAME_ARG.match(self.text, self.pos)
        self.pos = m.end()
        return m.group().strip()

    @staticmethod
    def reads_name(name) -> bool:
        """True when name_arg reads name back in full: a non-empty string
        with no `,` or `)` and no surrounding whitespace."""
        return (isinstance(name, str) and name != "" and name == name.strip()
                and _NAME_ARG.fullmatch(name) is not None)

    def json(self):
        self.peek()
        try:
            value, self.pos = _JSON.raw_decode(self.text, self.pos)
        except json.JSONDecodeError as e:
            self.pos = e.pos
            self.error(f"bad JSON ({e.msg})")
        return value

    def bracket(self):
        """The payload of a `[...]` right at the cursor, up to its matching `]`."""
        self.expect("[")
        text, start, depth = self.text, self.pos, 0
        for pos in range(start, len(text)):
            if text[pos] == "[":
                depth += 1
            elif text[pos] == "]":
                if depth == 0:
                    self.pos = pos + 1
                    return text[start:pos]
                depth -= 1
        self.pos = start - 1
        self.error("unterminated '['")

    def end(self):
        if self.peek():
            self.error("trailing input")


def read_type(r: TextReader, registry):
    """sum := prod ['+' sum], prod := factor ['*' prod],
    factor := '(' sum ')' | base | shape factor."""
    left = _read_prod(r, registry)
    return TSum(left, read_type(r, registry)) if r.take("+") else left


def _read_prod(r, registry):
    left = _read_factor(r, registry)
    return TProd(left, _read_prod(r, registry)) if r.take("*") else left


def _read_factor(r, registry):
    if r.take("("):
        inner = read_type(r, registry)
        r.expect(")")
        return inner
    name = r.ident()
    # a base name is never a container: a `[` after it is left unread, as a
    # program body may start with one right after a param's type
    if name in registry.bases or r.peek() != "[":
        return TBase(registry.base(name))
    return TCont(_read_shape_of(r, registry, name), _read_factor(r, registry))


def read_shape(r: TextReader, registry) -> Shape:
    """container[payload]"""
    return _read_shape_of(r, registry, r.ident())


def _read_shape_of(r, registry, name):
    payload = r.bracket()
    cdef = registry.container(name)
    return Shape(cdef, cdef.payload_from_text(payload))


def type_from_text(text, registry):
    r = TextReader(text, "type")
    ty = read_type(r, registry)
    r.end()
    return ty
