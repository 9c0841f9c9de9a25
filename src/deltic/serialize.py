"""Textual formats for values, changes, types and shapes.

Everything is type-directed JSON:

  scalars        numbers / strings / null ("keep" and {"set": s} for
                 replacement-style scalar changes)
  mappings       sorted arrays of [index, payload] pairs
  pairs          two-element arrays
  injections     {"inl": v} / {"inr": v}
  sum changes    {"cl": d} / {"cr": d} / {"sl": v} / {"sr": v} / "null"
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

from .core import (
    KEEP, SUM_NULL, Cl, Cr, Left, Right, Sl, Sr,
    ConformanceError, Shape, TBase, TCont, TProd, TSum, UsageError,
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
# Values
# ---------------------------------------------------------------------------

def value_to_json(ty, v):
    match ty:
        case TBase():
            return v
        case TCont(_, elem):
            items = sorted(v.items(), key=lambda kv: index_sort_key(kv[0]))
            return [[index_to_json(i), value_to_json(elem, ev)] for i, ev in items]
        case TProd(a, b):
            return [value_to_json(a, v[0]), value_to_json(b, v[1])]
        case TSum(a, b):
            if type(v) is Left:
                return {"inl": value_to_json(a, v.value)}
            return {"inr": value_to_json(b, v.value)}
        case _:
            raise UsageError(f"not a type: {ty!r}")


def value_from_json(ty, j):
    match ty:
        case TBase(base):
            if base.kind == "real" and isinstance(j, int) and not isinstance(j, bool):
                return float(j)
            return j
        case TCont(_, elem):
            if not isinstance(j, list):
                raise ConformanceError(f"expected mapping entries, got {j!r}")
            out = {}
            for entry in j:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise ConformanceError(f"bad mapping entry: {entry!r}")
                out[index_from_json(entry[0])] = value_from_json(elem, entry[1])
            return out
        case TProd(a, b):
            if not (isinstance(j, list) and len(j) == 2):
                raise ConformanceError(f"expected a pair, got {j!r}")
            return (value_from_json(a, j[0]), value_from_json(b, j[1]))
        case TSum(a, b):
            if isinstance(j, dict) and len(j) == 1:
                if "inl" in j:
                    return Left(value_from_json(a, j["inl"]))
                if "inr" in j:
                    return Right(value_from_json(b, j["inr"]))
            raise ConformanceError(f"expected an injection, got {j!r}")
        case _:
            raise UsageError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# Changes
# ---------------------------------------------------------------------------

def change_to_json(ty, d):
    match ty:
        case TBase(base):
            if base.kind == "scalar":
                return "keep" if d is KEEP else {"set": d}
            return d
        case TCont(_, elem):
            items = sorted(d.items(), key=lambda kv: index_sort_key(kv[0]))
            return [[index_to_json(i), change_to_json(elem, di)] for i, di in items]
        case TProd(a, b):
            return [change_to_json(a, d[0]), change_to_json(b, d[1])]
        case TSum(a, b):
            if d is SUM_NULL:
                return "null"
            match d:
                case Cl(change=c):
                    return {"cl": change_to_json(a, c)}
                case Cr(change=c):
                    return {"cr": change_to_json(b, c)}
                case Sl(value=x):
                    return {"sl": value_to_json(a, x)}
                case Sr(value=x):
                    return {"sr": value_to_json(b, x)}
            raise ConformanceError(f"bad sum change {d!r}")
        case _:
            raise UsageError(f"not a type: {ty!r}")


def change_from_json(ty, j):
    match ty:
        case TBase(base):
            if base.kind == "scalar":
                if j == "keep":
                    return KEEP
                if isinstance(j, dict) and set(j) == {"set"}:
                    return j["set"]
                raise ConformanceError(f"bad scalar change: {j!r}")
            if base.kind == "real" and isinstance(j, int) and not isinstance(j, bool):
                return float(j)
            return j
        case TCont(_, elem):
            if not isinstance(j, list):
                raise ConformanceError(f"expected change entries, got {j!r}")
            out = {}
            for entry in j:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise ConformanceError(f"bad change entry: {entry!r}")
                out[index_from_json(entry[0])] = change_from_json(elem, entry[1])
            return out
        case TProd(a, b):
            if not (isinstance(j, list) and len(j) == 2):
                raise ConformanceError(f"expected a pair change, got {j!r}")
            return (change_from_json(a, j[0]), change_from_json(b, j[1]))
        case TSum(a, b):
            if j == "null":
                return SUM_NULL
            if isinstance(j, dict) and len(j) == 1:
                if "cl" in j:
                    return Cl(change_from_json(a, j["cl"]))
                if "cr" in j:
                    return Cr(change_from_json(b, j["cr"]))
                if "sl" in j:
                    return Sl(value_from_json(a, j["sl"]))
                if "sr" in j:
                    return Sr(value_from_json(b, j["sr"]))
            raise ConformanceError(f"bad sum change: {j!r}")
        case _:
            raise UsageError(f"not a type: {ty!r}")


def value_to_text(ty, v) -> str:
    return json.dumps(value_to_json(ty, v), separators=(",", ":"))


def value_from_text(ty, text) -> object:
    return value_from_json(ty, json.loads(text))


def change_to_text(ty, d) -> str:
    return json.dumps(change_to_json(ty, d), separators=(",", ":"))


def change_from_text(ty, text) -> object:
    return change_from_json(ty, json.loads(text))


# ---------------------------------------------------------------------------
# Types and shapes
# ---------------------------------------------------------------------------

def shape_to_text(shape: Shape) -> str:
    return f"{shape.container.id}[{shape.container.payload_to_text(shape.payload)}]"


def type_to_text(ty) -> str:
    def go(t, level):
        # level: 0 sum, 1 prod, 2 atom
        match t:
            case TBase(base):
                return base.tag
            case TCont(shape, elem):
                s = f"{shape_to_text(shape)} {go(elem, 2)}"
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
            self.error(f"expected {c!r}")

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
        self.pos = len(text)
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
    if r.peek() == "[":
        return TCont(_read_shape_of(r, registry, name), _read_factor(r, registry))
    return TBase(registry.base(name))


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
