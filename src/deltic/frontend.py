"""Named-variable surface syntax: parser and lowering to the point-free calculus.

Surface form:

    bundle linalg
    param m : arr[2] arr[3] real
    param v : arr[3] real

    map sum # (map2 (map2 mul) # (replicate 2 # v, m))

`#` applies a head to a runtime argument; heads are op/program names or the
generic operations, with static arguments by juxtaposition (`map relu`,
`map2 (map2 mul)`, `replicate 2`, `replicate rel[int*str]`, `get 0`, `filter p`,
`reshape r arr[4]`).
`let x = e; e` binds; `(a, b)` and `[a, b, ...]` build right-nested tuples.
`--` starts a comment anywhere outside a string; in a string a backslash
takes the next character as it is.

One cursor, a serialize.TextReader over the whole file, reads the header and
the body in one pass: param types by serialize.read_type and head shapes by
TextReader.bracket.  A syntax error, or a type or shape the bundle rejects,
names its line and column.

Lowering turns contexts into right-nested products, a variable into one
projection path, and `let` into `dup ; (e1 × keep) ; e2`: keep projects the
context onto the bindings a later bind or the body reads (`id` when all are;
with none, the let is `e1 ; e2`), found by one backward pass per let chain.
Kept bindings that run to the end of the context are its tail, taken by one
`Proj((1,) * t)`, so keeping the params costs one node, not a path each.
It reads names itself: one walk keeps the binding level of each name in
scope and lowers a name to the projection path of its level (eval_named, the
reference, keeps every binding).

A chain of `let`s is one flat NLet node and a `#` pipeline one NApp node,
each parsed, lowered and evaluated in a loop, so neither recurses along its
length.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

from .calculus import (
    NULLARY_TERMS, Cst, Dup, Filter, Get, ID, Map, OpCall, Par, Plus, Proj,
    Registry, RegistryError, Replicate, Reshape, SetAt, Term, TermTypeError,
    TypedTerm, denote, fanout, map2, seq, typecheck,
)
from .core import ConformanceError, DelticError, Shape, TBase, TCont, TProd
from .domains import get_bundle
from .serialize import TextReader, read_type


class SurfaceSyntaxError(DelticError):
    def __init__(self, msg, line, col):
        super().__init__(f"syntax error at line {line}, column {col}: {msg}")
        self.line, self.col = line, col


class NameResolutionError(DelticError):
    pass


def _unbound(v):
    return NameResolutionError(f"unbound name {v.name!r} at line {v.line}, column {v.col}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class HName:
    name: str


@dataclass
class HApply:
    fn: Any
    arg: Any  # HName | HApply | int | HShape


@dataclass
class HShape:
    container: str
    payload: str  # the text between the brackets, read by the container
    line: int = 0
    col: int = 0


@dataclass
class NVar:
    name: str
    line: int = 0
    col: int = 0


@dataclass
class NLet:
    binds: list  # [(name, bound), ...]: each bound sees the names before it
    body: Any
    line: int = 0
    col: int = 0


@dataclass
class NApp:
    heads: list  # as written: the last head is applied to arg first
    arg: Any
    line: int = 0
    col: int = 0


@dataclass
class NTuple:
    items: tuple
    line: int = 0
    col: int = 0


@dataclass
class NLit:
    raw: Any
    line: int = 0
    col: int = 0


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_SPACE = re.compile(r"(?:\s+|--[^\n]*)*")
_NAME = re.compile(r"[^\W\d]\w*")
# a name, a number or a string literal, each in its own group
_ATOM = re.compile(r'([^\W\d]\w*)|(-?\d+(?:\.\d*)?)|"((?:[^"\\]|\\.)*)"', re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)
_VAR_ENDS = frozenset((",", ";", ")", "]", ""))  # after a name, these make it a variable


class _Reader(TextReader):
    """The serialize cursor over a whole program text, where `--` comments
    read as space and an error names a line and column."""

    def __init__(self, text):
        super().__init__(text, "program")
        self.starts = [0, *(m.end() for m in re.finditer("\n", text))]  # line starts

    def peek(self):
        text, pos = self.text, self.pos
        c = text[pos:pos + 1]
        if c == " ":  # the common gap between tokens, skipped without a regex
            pos = self.pos = pos + 1
            c = text[pos:pos + 1]
        if c.isspace() or c == "-":
            pos = self.pos = _SPACE.match(text, pos).end()
            c = text[pos:pos + 1]
        return c

    def where(self, pos):
        """The line and column of a text offset, both counted from 1."""
        line = bisect_right(self.starts, pos)
        return line, pos - self.starts[line - 1] + 1

    def error(self, msg):
        raise SurfaceSyntaxError(msg, *self.where(self.pos))


def _name(r, missing="expected a name"):
    r.peek()
    m = _NAME.match(r.text, r.pos)
    if m is None:
        r.error(missing)
    r.pos = m.end()
    return m.group()


def _number(lit):
    return float(lit) if "." in lit else int(lit)


def _read_expr(r):
    """expr := ('let' NAME '=' expr ';' | head '#')* primary

    Each run of lets is one NLet and each run of heads one NApp, read in a
    loop; the body or argument of each comes last.  A name is read once: it
    is a variable when `,` `;` `)` `]` or the end follows."""
    text, prefixes = r.text, []
    while True:
        r.peek()
        start = r.pos
        m = _NAME.match(text, start)
        if m is not None:
            r.pos = m.end()
            name = m.group()
            if name == "let":
                name = _name(r)
                r.expect("=")
                bound = _read_expr(r)
                r.expect(";")
                if not (prefixes and type(prefixes[-1]) is NLet):
                    prefixes.append(NLet([], None, *r.where(start)))
                prefixes[-1].binds.append((name, bound))
                continue
            if r.peek() in _VAR_ENDS:
                e = NVar(name, *r.where(start))
                break
        head = _read_head(r, m and HName(name))
        if head is not None and r.peek() == "#":
            r.pos += 1
            if not (prefixes and type(prefixes[-1]) is NApp):
                prefixes.append(NApp([], None, *r.where(start)))
            prefixes[-1].heads.append(head)
            continue
        r.pos = start
        e = _read_primary(r)
        break
    for p in reversed(prefixes):
        if type(p) is NLet:
            p.body = e
        else:
            p.arg = e
        e = p
    return e


def _read_primary(r):
    """primary := NAME | NUMBER | STRING | '(' expr (',' expr)* ')'
                | '[' expr (',' expr)* ']'"""
    c = r.peek()
    start = r.pos
    if c == "(" or c == "[":
        r.pos += 1
        items = [_read_expr(r)]
        while r.take(","):
            items.append(_read_expr(r))
        r.expect(")" if c == "(" else "]")
        if c == "(" and len(items) == 1:
            return items[0]
        return NTuple(tuple(items), *r.where(start))
    m = _ATOM.match(r.text, start)
    if m is None:
        r.error("unterminated string" if c == '"' else
                f"unexpected {c!r}" if c else "unexpected end of input")
    r.pos = m.end()
    name, number, string = m.groups()
    if name is not None:
        return NVar(name, *r.where(start))
    # in a string, a backslash takes the next character as it is
    raw = _number(number) if string is None else _ESCAPE.sub(r"\1", string)
    return NLit(raw, *r.where(start))


def _read_head(r, head=None):
    """head := (NAME | '(' head ')') arg*
    arg  := NAME | NAME '[' payload ']' | NUMBER | '(' head ')'

    Reads the args that follow `head`, if given.  A '(' only extends a head
    if it encloses a head; None if no head starts at the cursor."""
    while True:
        c = r.peek()
        start = r.pos
        if c == "(":
            r.pos += 1
            arg = _read_head(r)
            if arg is None or not r.take(")"):
                r.pos = start
                return head
        else:
            m = _ATOM.match(r.text, start)
            name, number, _ = m.groups() if m else (None, None, None)
            if name is None and (number is None or head is None):
                return head  # a head starts with a name, and a string is no arg
            r.pos = m.end()
            if name is None:
                arg = _number(number)
            elif head is not None and r.peek() == "[":
                arg = HShape(name, r.bracket(), *r.where(start))
            else:
                arg = HName(name)
        head = arg if head is None else HApply(head, arg)


def parse_expr_text(text: str):
    r = _Reader(text)
    e = _read_expr(r)
    r.end()
    return e


# ---------------------------------------------------------------------------
# Heads -> terms
# ---------------------------------------------------------------------------

_CORE_NULLARY: dict[str, Term] = {**NULLARY_TERMS, "add": Plus()}


def _static_index(arg):
    if isinstance(arg, int):
        return arg
    if isinstance(arg, HName):
        return arg.name
    raise TermTypeError(f"bad index argument: {arg!r}")


def _static_shape(arg, registry):
    if isinstance(arg, int):
        return Shape(registry.container("arr"), arg)
    if isinstance(arg, HShape):
        try:
            cdef = registry.container(arg.container)
            return Shape(cdef, cdef.payload_from_text(arg.payload))
        except (ConformanceError, RegistryError) as e:
            raise SurfaceSyntaxError(str(e), arg.line, arg.col) from None
    raise TermTypeError(f"bad shape argument: {arg!r}")


def head_to_term(head, arg_ty, registry: Registry) -> Term:
    """Elaborate a surface head against the actual argument type."""
    match head:
        case HName(name):
            if name in _CORE_NULLARY:
                return _CORE_NULLARY[name]
            if name in registry.ops:
                return OpCall(name)
            if name in registry.programs:
                term = registry.programs[name].build(arg_ty)
                if term is None:
                    raise TermTypeError(
                        f"program {name!r} does not accept input {arg_ty!r}")
                return term
            raise TermTypeError(f"unknown operation or program: {name!r}")
        case HApply(HName("map"), inner):
            if not isinstance(arg_ty, TCont):
                raise TermTypeError("map needs a container argument")
            return Map(head_to_term(inner, arg_ty.elem, registry))
        case HApply(HName("map2"), inner):
            ok = (isinstance(arg_ty, TProd) and isinstance(arg_ty.left, TCont)
                  and isinstance(arg_ty.right, TCont))
            if not ok:
                raise TermTypeError("map2 needs a pair of containers")
            elem_ty = TProd(arg_ty.left.elem, arg_ty.right.elem)
            return map2(head_to_term(inner, elem_ty, registry))
        case HApply(HName("replicate"), arg):
            return Replicate(_static_shape(arg, registry))
        case HApply(HName("get"), arg):
            return Get(_static_index(arg))
        case HApply(HName("set"), arg):
            return SetAt(_static_index(arg))
        case HApply(HName("filter"), HName(pname)):
            return Filter(pname)
        case HApply(HApply(HName("reshape"), HName(fname)), sarg):
            return Reshape(fname, _static_shape(sarg, registry))
        case _:
            raise TermTypeError(f"bad head: {head!r}")


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def _right_nested(items, pair):
    """pair(items[0], pair(items[1], ... items[-1])): contexts, tuples and
    their types are right-nested."""
    out = items[-1]
    for x in reversed(items[:-1]):
        out = pair(x, out)
    return out


def _var_term(index: int, width: int) -> Term:
    """Projection path to position `index` in a right-nested product."""
    return Proj((1,) * index + ((0,) if index < width - 1 else ()))


def _literal(raw, literal_base, registry):
    if isinstance(raw, str):
        if "scalar" in registry.bases:
            return Cst(TBase(registry.bases["scalar"]), raw)
        raise TermTypeError("string literals need the scalar base")
    if literal_base.kind == "real":
        return Cst(TBase(literal_base), float(raw))
    if isinstance(raw, float):
        raise TermTypeError(f"non-integer literal {raw!r} for base {literal_base.tag}")
    return Cst(TBase(literal_base), raw)


def _liveness(nt, afters) -> set:
    """The names nt reads and does not bind itself.  One backward pass over
    each let chain in nt puts in afters[id(chain)] a stack of the names read
    after each of its binds, the first bind's on top."""
    match nt:
        case NVar(name):
            return {name}
        case NLet(binds, body):
            live, after = _liveness(body, afters), []
            for name, bound in reversed(binds):
                after.append(live)
                live = (live - {name}) | _liveness(bound, afters)
            afters[id(nt)] = after
            return live
        case NApp(_, arg):
            return _liveness(arg, afters)
        case NTuple(items):
            return set().union(*(_liveness(e, afters) for e in items))
    return set()


def lower(nt, params, registry: Registry, literal_base, memo=None) -> tuple[Term, Any]:
    """Translate a named term over params ((name, type), ...) into the calculus.

    Returns (term, output type); the term's input is the right-nested
    product of the param types.  Each head is typechecked at its argument's
    type with memo, the typecheck table of the build (see calculus.typecheck).
    """
    # binding levels: the last param is level 0 and each let takes the next
    # one, so a name at level l is at index len(tys) - 1 - l of the context
    def walk(nt, levels, tys):
        match nt:
            case NVar(name):
                if name not in levels:
                    raise _unbound(nt)
                level = levels[name]
                return _var_term(len(tys) - 1 - level, len(tys)), tys[level]
            case NLet(binds, body):
                after = afters[id(nt)]
                levels, tys, stages = dict(levels), list(tys), []
                for name, bound in binds:
                    t1, ty1 = walk(bound, levels, tys)
                    # the context keeps the old levels read later, and the new one
                    kept = sorted({levels[n] for n in after.pop() if n != name and n in levels})
                    width, keep = len(tys), ID
                    if len(kept) < width:
                        # the run of levels 0, 1, ... is the context's tail: one Proj
                        tail = next((k for k, level in enumerate(kept) if level != k), len(kept))
                        paths = [_var_term(width - 1 - level, width) for level in reversed(kept[tail:])]
                        if tail:
                            paths.append(Proj((1,) * (width - tail)))
                        keep = _right_nested(paths, fanout) if paths else None
                        rank = {level: k for k, level in enumerate(kept)}
                        levels = {n: rank[level] for n, level in levels.items() if level in rank}
                        tys = [tys[level] for level in kept]
                    stages += [t1] if keep is None else [Dup(), Par(t1, keep)]
                    levels[name] = len(tys)
                    tys.append(ty1)
                term, ty = walk(body, levels, tys)
                return seq(*stages, term), ty
            case NApp(heads, arg):
                term, ty = walk(arg, levels, tys)
                stages = [term]
                for head in reversed(heads):
                    stages.append(head_to_term(head, ty, registry))
                    ty = typecheck(stages[-1], ty, registry, memo).out_ty
                return seq(*stages), ty
            case NTuple(items):
                terms, item_tys = zip(*[walk(e, levels, tys) for e in items])
                return _right_nested(terms, fanout), _right_nested(item_tys, TProd)
            case NLit(raw):
                cst = _literal(raw, literal_base, registry)
                return cst, cst.ty

    afters = {}
    _liveness(nt, afters)
    levels = {name: level for level, (name, _) in enumerate(reversed(params))}
    return walk(nt, levels, [ty for _, ty in reversed(params)])


# ---------------------------------------------------------------------------
# Program files
# ---------------------------------------------------------------------------

@dataclass
class SurfaceProgram:
    bundle_name: str
    params: tuple          # ((name, TypeExpr), ...)
    body: Any              # NamedTerm
    in_ty: Any


def parse_program_file(text: str, bundle_lookup=get_bundle):
    """Parse a program file; returns (bundle, SurfaceProgram).

    program := 'bundle' NAME ('param' NAME ':' type)+ expr, read by one
    cursor; types are read by serialize.read_type."""
    r = _Reader(text)
    bundle_name, bundle, params = None, None, []
    while True:
        r.peek()
        m = _NAME.match(text, r.pos)
        word = m and m.group()
        if word == "bundle":
            if bundle is not None:
                r.error("a second 'bundle' header")
            r.pos = m.end()
            bundle_name = _name(r, "expected a bundle name")
            bundle = bundle_lookup(bundle_name)
        elif word == "param":
            if bundle is None:
                r.error("'param' before 'bundle'")
            r.pos = m.end()
            name = _name(r, "param needs 'name : type'")
            if not r.take(":"):
                r.error("param needs 'name : type'")
            r.peek()
            start = r.pos
            try:
                params.append((name, read_type(r, bundle.registry)))
            except (ConformanceError, RegistryError) as e:
                # a name or shape payload the bundle rejects: point at the type
                r.pos = start
                r.error(str(e))
        else:
            break
    if bundle is None:
        r.error("missing 'bundle' header")
    if not params:
        r.error("missing 'param' declarations")
    body = _read_expr(r)
    r.end()
    prog = SurfaceProgram(
        bundle_name=bundle_name,
        params=tuple(params),
        body=body,
        in_ty=_right_nested([t for _, t in params], TProd),
    )
    return bundle, prog


def compile_program(prog: SurfaceProgram, registry: Registry, literal_base) -> TypedTerm:
    """Lower and typecheck a program.  Lowering's typechecks of its heads and
    the final one share one memo, so each head is checked once."""
    memo = {}
    term, _ = lower(prog.body, prog.params, registry, literal_base, memo)
    return typecheck(term, prog.in_ty, registry, memo)


# ---------------------------------------------------------------------------
# Reference environment-passing evaluator (the lowering oracle)
# ---------------------------------------------------------------------------

def eval_named(nt, env: dict, registry: Registry, literal_base):
    """Direct interpreter over (type, value) environments."""
    match nt:
        case NVar(name):
            if name not in env:
                raise _unbound(nt)
            return env[name]
        case NLet(binds, body):
            env = dict(env)
            for name, bound in binds:
                env[name] = eval_named(bound, env, registry, literal_base)
            return eval_named(body, env, registry, literal_base)
        case NApp(heads, arg):
            ty, v = eval_named(arg, env, registry, literal_base)
            for head in reversed(heads):
                tt = typecheck(head_to_term(head, ty, registry), ty, registry)
                ty, v = tt.out_ty, denote(tt, v)
            return ty, v
        case NTuple(items):
            tys, vs = zip(*[eval_named(e, env, registry, literal_base) for e in items])
            return _right_nested(tys, TProd), _right_nested(vs, lambda a, b: (a, b))
        case NLit(raw):
            cst = _literal(raw, literal_base, registry)
            return cst.ty, cst.value
        case _:
            raise NameResolutionError(f"bad surface node: {nt!r}")
