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
`--` starts a comment.  Lowering turns contexts into right-nested products,
a variable into one projection path, and `let` into `dup ; (e1 × id) ; e2`.
It reads names itself: one walk keeps the binding level of each name in
scope and lowers a name to the projection path of its level.

A chain of `let`s is one flat NLet node and a `#` pipeline one NApp node,
each parsed, lowered and evaluated in a loop, so neither recurses along its
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .calculus import (
    NULLARY_TERMS, Cst, Dup, Filter, Get, ID, Map, OpCall, Par, Plus, Proj,
    Registry, Replicate, Reshape, SetAt, Term, TermTypeError, TypedTerm,
    denote, fanout, map2, seq, typecheck,
)
from .core import DelticError, TBase, TCont, TProd
from .serialize import type_from_text


class SurfaceSyntaxError(DelticError):
    def __init__(self, msg, line=None, col=None):
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"syntax error{where}: {msg}")
        self.line = line
        self.col = col


class NameResolutionError(DelticError):
    pass


def _unbound(v):
    return NameResolutionError(f"unbound name {v.name!r} at line {v.line}, column {v.col}")


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str  # name | number | string | punct | eof
    value: Any
    line: int
    col: int


_PUNCT = set("()[],#;=:*")


def tokenize(text: str) -> list[Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            lit = text[i:j]
            toks.append(Tok("number", float(lit) if "." in lit else int(lit), line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise SurfaceSyntaxError("unterminated string", line, start_col)
            toks.append(Tok("string", "".join(out), line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c in _PUNCT:
            toks.append(Tok("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        raise SurfaceSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(Tok("eof", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class HName:
    name: str


@dataclass
class HApply:
    fn: Any
    arg: Any  # HName | HApply | int | str | ("shape", container, payload_text)


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
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise SurfaceSyntaxError(msg, tok.line, tok.col)

    def expect(self, kind, value=None):
        t = self.next()
        if t.kind != kind or (value is not None and t.value != value):
            found = "end of input" if t.kind == "eof" else repr(t.value)
            self.fail(f"expected {value or kind}, found {found}", t)
        return t

    def parse_expr(self):
        # `let x = e;` and `head #` prefixes are read in a loop; each run of
        # lets is one NLet and each run of heads one NApp, and the body or
        # argument of each comes last
        prefixes = []
        while True:
            t = self.peek()
            if t.kind == "name" and t.value == "let":
                self.next()
                name = self.expect("name").value
                self.expect("punct", "=")
                bound = self.parse_expr()
                self.expect("punct", ";")
                if not (prefixes and isinstance(prefixes[-1], NLet)):
                    prefixes.append(NLet([], None, t.line, t.col))
                prefixes[-1].binds.append((name, bound))
                continue
            save = self.pos
            head = self._try_head()
            if head is None or self.peek().kind != "punct" or self.peek().value != "#":
                self.pos = save
                break
            self.next()
            if not (prefixes and isinstance(prefixes[-1], NApp)):
                prefixes.append(NApp([], None, t.line, t.col))
            prefixes[-1].heads.append(head)
        e = self.parse_primary()
        for p in reversed(prefixes):
            if isinstance(p, NLet):
                p.body = e
            else:
                p.arg = e
            e = p
        return e

    def parse_primary(self):
        t = self.next()
        if t.kind == "number" or t.kind == "string":
            return NLit(t.value, t.line, t.col)
        if t.kind == "name":
            return NVar(t.value, t.line, t.col)
        if t.kind == "punct" and t.value in "([":
            close = ")" if t.value == "(" else "]"
            items = [self.parse_expr()]
            while self.peek().kind == "punct" and self.peek().value == ",":
                self.next()
                items.append(self.parse_expr())
            self.expect("punct", close)
            if len(items) == 1 and t.value == "(":
                return items[0]
            return NTuple(tuple(items), t.line, t.col)
        self.fail(f"unexpected {t.value!r}", t)

    def _try_head(self):
        try:
            return self._parse_head()
        except SurfaceSyntaxError:
            return None

    def _parse_head(self):
        head = self._parse_head_atom()
        while True:
            t = self.peek()
            if t.kind in ("name", "number") or (t.kind == "punct" and t.value == "("):
                # a '(' only extends the head if it encloses a head
                if t.kind == "punct":
                    save = self.pos
                    self.next()
                    try:
                        inner = self._parse_head()
                    except SurfaceSyntaxError:
                        self.pos = save
                        return head
                    if not (self.peek().kind == "punct" and self.peek().value == ")"):
                        self.pos = save
                        return head
                    self.next()
                    head = HApply(head, inner)
                    continue
                self.next()
                if t.kind == "number":
                    head = HApply(head, t.value)
                    continue
                # name: could be a shape literal name[...]
                if self.peek().kind == "punct" and self.peek().value == "[":
                    self.next()
                    payload = self._bracket_payload()
                    head = HApply(head, ("shape", t.value, payload))
                else:
                    head = HApply(head, HName(t.value))
                continue
            return head

    def _parse_head_atom(self):
        t = self.next()
        if t.kind == "name":
            return HName(t.value)
        if t.kind == "punct" and t.value == "(":
            inner = self._parse_head()
            self.expect("punct", ")")
            return inner
        self.fail("expected a head", t)

    def _bracket_payload(self):
        # collects raw text tokens up to the matching ']'
        parts = []
        depth = 0
        while True:
            t = self.next()
            if t.kind == "eof":
                self.fail("unterminated '['", t)
            if t.kind == "punct" and t.value == "[":
                depth += 1
            if t.kind == "punct" and t.value == "]":
                if depth == 0:
                    return "".join(parts)
                depth -= 1
            parts.append(str(t.value))


def parse_expr_text(text: str):
    p = _Parser(tokenize(text))
    e = p.parse_expr()
    if p.peek().kind != "eof":
        p.fail("trailing input")
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
        return registry.container("arr"), arg
    if isinstance(arg, tuple) and arg and arg[0] == "shape":
        cdef = registry.container(arg[1])
        return cdef, cdef.payload_from_text(arg[2])
    raise TermTypeError(f"bad shape argument: {arg!r}")


def head_to_term(head, arg_ty, registry: Registry) -> Term:
    """Elaborate a surface head against the actual argument type."""
    from .core import Shape
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
            cdef, payload = _static_shape(arg, registry)
            return Replicate(Shape(cdef, payload))
        case HApply(HName("get"), arg):
            return Get(_static_index(arg))
        case HApply(HName("set"), arg):
            return SetAt(_static_index(arg))
        case HApply(HName("filter"), HName(pname)):
            return Filter(pname)
        case HApply(HApply(HName("reshape"), HName(fname)), sarg):
            cdef, payload = _static_shape(sarg, registry)
            return Reshape(fname, Shape(cdef, payload))
        case _:
            raise TermTypeError(f"bad head: {head!r}")


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def _context_product(tys):
    out = tys[-1]
    for t in reversed(tys[:-1]):
        out = TProd(t, out)
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


def lower(nt, params, registry: Registry, literal_base) -> tuple[Term, Any]:
    """Translate a named term over params ((name, type), ...) into the calculus.

    Returns (term, output type); the term's input is the right-nested
    product of the param types.
    """
    # binding levels: the last param is level 0 and each let takes the next
    # one, so a name at level l is at index len(tys) - 1 - l of the context
    tys = [ty for _, ty in reversed(params)]

    def walk(nt, levels):
        match nt:
            case NVar(name):
                if name not in levels:
                    raise _unbound(nt)
                level = levels[name]
                return _var_term(len(tys) - 1 - level, len(tys)), tys[level]
            case NLet(binds, body):
                levels, lets = dict(levels), []
                for name, bound in binds:
                    t1, ty1 = walk(bound, levels)
                    lets.append(t1)
                    levels[name] = len(tys)
                    tys.append(ty1)
                term, ty = walk(body, levels)
                del tys[-len(binds):]
                return seq(*[s for t1 in lets for s in (Dup(), Par(t1, ID))], term), ty
            case NApp(heads, arg):
                term, ty = walk(arg, levels)
                stages = [term]
                for head in reversed(heads):
                    stages.append(head_to_term(head, ty, registry))
                    ty = typecheck(stages[-1], ty, registry).out_ty
                return seq(*stages), ty
            case NTuple(items):
                lowered = [walk(e, levels) for e in items]
                term, ty = lowered[-1]
                for t, t_ty in reversed(lowered[:-1]):
                    term = fanout(t, term)
                    ty = TProd(t_ty, ty)
                return term, ty
            case NLit(raw):
                cst = _literal(raw, literal_base, registry)
                return cst, cst.ty

    return walk(nt, {name: level for level, (name, _) in enumerate(reversed(params))})


# ---------------------------------------------------------------------------
# Program files
# ---------------------------------------------------------------------------

@dataclass
class SurfaceProgram:
    bundle_name: str
    params: tuple          # ((name, TypeExpr), ...)
    body: Any              # NamedTerm
    in_ty: Any


def parse_program_file(text: str, bundle_lookup=None):
    """Parse a program file; returns (bundle, SurfaceProgram)."""
    if bundle_lookup is None:
        from .domains import get_bundle
        bundle_lookup = get_bundle
    bundle_name = None
    params = []
    body_lines = []     # header lines kept blank so positions match the file
    in_body = False
    bundle = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("--", 1)[0].strip()
        if not in_body and not stripped:
            body_lines.append("")
            continue
        if not in_body and stripped.startswith("bundle "):
            bundle_name = stripped[len("bundle "):].strip()
            bundle = bundle_lookup(bundle_name)
            body_lines.append("")
            continue
        if not in_body and stripped.startswith("param "):
            if bundle is None:
                raise SurfaceSyntaxError("'param' before 'bundle'", lineno, 1)
            rest = stripped[len("param "):]
            if ":" not in rest:
                raise SurfaceSyntaxError("param needs 'name : type'", lineno, 1)
            name, ty_text = rest.split(":", 1)
            params.append((name.strip(), type_from_text(ty_text.strip(), bundle.registry)))
            body_lines.append("")
            continue
        in_body = True
        body_lines.append(line)  # the tokenizer skips `--` comments
    if bundle is None:
        raise SurfaceSyntaxError("missing 'bundle' header", 1, 1)
    if not params:
        raise SurfaceSyntaxError("missing 'param' declarations", 1, 1)
    body = parse_expr_text("\n".join(body_lines))
    prog = SurfaceProgram(
        bundle_name=bundle_name,
        params=tuple(params),
        body=body,
        in_ty=_context_product([t for _, t in params]),
    )
    return bundle, prog


def compile_program(prog: SurfaceProgram, registry: Registry, literal_base) -> TypedTerm:
    term, _ = lower(prog.body, prog.params, registry, literal_base)
    return typecheck(term, prog.in_ty, registry)


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
            parts = [eval_named(e, env, registry, literal_base) for e in items]
            ty, v = parts[-1]
            for pty, pv in reversed(parts[:-1]):
                ty, v = TProd(pty, ty), (pv, v)
            return ty, v
        case NLit(raw):
            cst = _literal(raw, literal_base, registry)
            return cst.ty, cst.value
        case _:
            raise NameResolutionError(f"bad surface node: {nt!r}")
