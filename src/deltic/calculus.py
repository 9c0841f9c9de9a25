"""The point-free term language: syntax, typing rules, registry, interpreter.

Terms are plain syntax; `typecheck` produces a TypedTerm tree annotated with
input/output types and resolved registry entries, and `denote` evaluates a
TypedTerm on a value by compiling it to a closure once.  `Proj(path)` is the
one projection: `()` is id, `(0,)` fst, `(1,)` snd, and a longer path (how
the frontend lowers a variable) prints as `proj(1, 1, 0)`.

`Seq` holds two or more stages; a `Seq` given as the first stage is spliced
in, so `Seq(Seq(a, b), c) == Seq(a, b, c)` prints as `seq(seq(a, b), c)`.
`typecheck` flattens nested stages too, into one node whose children are the
stages in order, and the compiled seq runs them in a loop, so a long chain
neither recurses nor nests closures.  Nesting of par, map and case still
recurses, one or two frames per level.

The container ops zip, get, set, tp, reshape, replicate and filter compile
through `container_kernel`, which reads a given element wherever a position
is absent.  The batch passes the default ε; as the ops are linear, incr
passes the nil change and uses the same kernel as the op's derivative.

`fusion` matches the runs of seq stages built as one stage, for denote and
incr alike, and `_FUSED` builds a run's batch by rule name.  An op may
register `join_index`, the index of `op ; σ_p`: the compiled seq runs a join
run `op ; ⟨cst ε, id⟩ ; filter p` as join_index(p).batch, with no index made,
so relalg's join tests p on each pair before making it, in place of building
the whole cross product and filtering it.  An add run, `zip ; map g` with g
pointwise ⊕, is ⊕ on the container and runs as one add_fn, with no zipped
dict in between; every other stage is compiled alone.  `map op` runs the
op's `mapped` batch.  `unfused` runs a seq stage by stage and a map entry by
entry: the reference the join, add and map kernels are checked against.

Shape transformations (reshape) and index predicates (filter) are registered
named functions, so terms stay serializable; `map2 f` and `⟨f, g⟩` are
construction-time sugar for `zip ; map f` and `dup ; (f × g)`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .core import (
    ConformanceError, DelticError, Left, Right, Shape, SupportError,
    TBase, TCont, TProd, TSum, UsageError,
    add_fn, check_value, default_value, plus_capable,
)
from .serialize import (
    TextReader, index_from_json, index_to_json, read_shape, read_type,
    type_to_text, value_from_json, value_to_json,
)


class TermTypeError(DelticError):
    """A term violates its typing rule."""


class RegistryError(DelticError):
    """Bad registration: duplicate name, unresolved name, or frozen registry."""


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------

class Term:
    __slots__ = ()


@dataclass(frozen=True, init=False)
class Seq(Term):
    stages: tuple

    def __init__(self, *stages: Term):
        if len(stages) < 2:
            raise UsageError(f"seq needs two or more stages, got {len(stages)}")
        if type(stages[0]) is Seq:
            stages = stages[0].stages + stages[1:]
        object.__setattr__(self, "stages", stages)


@dataclass(frozen=True)
class Par(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Proj(Term):
    """Projection along an index path into nested pairs (0 left, 1 right)."""
    path: tuple


@dataclass(frozen=True)
class Dup(Term):
    pass


@dataclass(frozen=True)
class Plus(Term):
    pass


@dataclass(frozen=True)
class Cst(Term):
    ty: Any
    value: Any


@dataclass(frozen=True)
class Map(Term):
    body: Term


@dataclass(frozen=True)
class Zip(Term):
    pass


@dataclass(frozen=True)
class Get(Term):
    index: Any


@dataclass(frozen=True)
class SetAt(Term):
    index: Any


@dataclass(frozen=True)
class Reshape(Term):
    fn: str
    out_shape: Shape


@dataclass(frozen=True)
class Replicate(Term):
    shape: Shape


@dataclass(frozen=True)
class Tp(Term):
    pass


@dataclass(frozen=True)
class Filter(Term):
    pred: str


@dataclass(frozen=True)
class Fuse(Term):
    pass


@dataclass(frozen=True)
class Distr(Term):
    pass


@dataclass(frozen=True)
class Inl(Term):
    right_ty: Any


@dataclass(frozen=True)
class Inr(Term):
    left_ty: Any


@dataclass(frozen=True)
class CasePar(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class OpCall(Term):
    name: str


ID, FST, SND = Proj(()), Proj((0,)), Proj((1,))


# one batch function each for id, fst and snd, by which incr knows their machines
PROJ_FNS = {(): lambda x: x, (0,): itemgetter(0), (1,): itemgetter(1)}


def seq(*terms: Term) -> Term:
    """Left-to-right composition of one or more terms."""
    return Seq(*terms) if len(terms) > 1 else terms[0]


def map2(body: Term) -> Term:
    return Seq(Zip(), Map(body))


def fanout(f: Term, g: Term) -> Term:
    """⟨f, g⟩ = dup ; (f × g)."""
    return Seq(Dup(), Par(f, g))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class MapKernel(NamedTuple):
    """The kernels of `map op`, for an op with fn(ε_in) = ε_out.  batch(x)
    is {i: fn(xi)} over x's keys, in x's order, without the entries equal to
    ε_out, as run_map gives.  step(dx, c) is the Triv step on the cache c
    (index -> input element, owned, updated in place; a dict, or over a
    finite array of reals a packed array('d'), see incr._keeper): for each
    (i, di) of dx, in order, it reads old = c[i], ε_in when c is a dict
    without i (KeyError), stores c[i] = old ⊕ di and emits fn(new) ⊖ fn(old)
    when not nil; it returns (dy, c)."""

    batch: Callable[[dict], dict]
    step: Callable[[dict, dict], tuple]


@dataclass
class OpDef:
    """A user operation: batch semantics plus a cached incrementalization.

    typer maps an actual input type to the output type (None rejects).
    comb names the combinator incr builds the op's machine with, from fn:
    "triv", "triv2", "lin" or "bilin"; for a Self op it is the derivative
    (change -> change) itself.  sample_in_tys are representative input
    types for the law validator.  join_index, when given, serves the seq
    stages `op ; ⟨cst ε, id⟩ ; filter p` (the join rule of fusion):
    join_index(p) is the BilinIndex of the one bilinear stage that incr
    builds for them, and denote runs them as its batch.
    Left None, the stages run one by one.
    mapped (a MapKernel) runs `map op` when fn(ε) = ε: batch in denote,
    both in incr over a Triv body of fn.
    """

    name: str
    typer: Callable[[Any], Optional[Any]]
    fn: Callable[[Any], Any]
    comb: str | Callable[[Any], Any]
    sample_in_tys: tuple = ()
    join_index: Optional[Callable[[Callable], Any]] = None
    mapped: Optional[MapKernel] = None


@dataclass
class IndexFn:
    """A named index transformation pos(s_out) -> pos(s_in) for reshape.

    fibers, when given, maps an input index to the finitely many output
    indices it comes from; required to evaluate reshape over infinite-index
    containers.
    """

    name: str
    fn: Callable[[Any], Any]
    fibers: Optional[Callable[[Any], Iterable]] = None


@dataclass
class IndexPred:
    name: str
    fn: Callable[[Any], bool]


@dataclass
class ProgramDef:
    """A named derived program; build returns a Term for an input type."""

    name: str
    build: Callable[[Any], Optional[Term]]


class Registry:
    """Named bases, containers, ops, index functions/predicates, programs."""

    def __init__(self):
        self.bases = {}
        self.containers = {}
        self.ops = {}
        self.index_fns = {}
        self.index_preds = {}
        self.programs = {}
        self.frozen = False

    def _add(self, table, name, item, what):
        if self.frozen:
            raise RegistryError(f"registry is frozen; cannot register {what} {name!r}")
        if name in table:
            raise RegistryError(f"duplicate {what} name: {name!r}")
        table[name] = item
        return item

    def _get(self, table, name, what):
        if name not in table:
            raise RegistryError(f"unknown {what}: {name!r}")
        return table[name]

    def register_base(self, base):
        return self._add(self.bases, base.tag, base, "base")

    def register_container(self, cdef):
        return self._add(self.containers, cdef.id, cdef, "container")

    def _add_term_name(self, table, name, item, what):
        """_add for a name that term text carries as an argument."""
        if not TextReader.reads_name(name):
            raise RegistryError(f"{what} name {name!r} does not read back from term text")
        return self._add(table, name, item, what)

    def register_op(self, opdef: OpDef):
        return self._add_term_name(self.ops, opdef.name, opdef, "op")

    def register_index_fn(self, name, fn, fibers=None):
        return self._add_term_name(self.index_fns, name, IndexFn(name, fn, fibers),
                                   "index function")

    def register_index_pred(self, name, fn):
        return self._add_term_name(self.index_preds, name, IndexPred(name, fn),
                                   "index predicate")

    def register_program(self, progdef: ProgramDef):
        return self._add(self.programs, progdef.name, progdef, "program")

    def freeze(self):
        self.frozen = True
        return self

    def base(self, tag):
        return self._get(self.bases, tag, "base type")

    def container(self, cid):
        return self._get(self.containers, cid, "container")

    def op(self, name):
        return self._get(self.ops, name, "op")

    def index_fn(self, name):
        return self._get(self.index_fns, name, "index function")

    def index_pred(self, name):
        return self._get(self.index_preds, name, "index predicate")

    def program(self, name):
        return self._get(self.programs, name, "program")


def monomorphic(in_ty, out_ty):
    """typer for an op usable at exactly one signature."""
    return lambda ty: out_ty if ty == in_ty else None


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

class TypedTerm:
    __slots__ = ("term", "in_ty", "out_ty", "children", "info", "_fn")

    def __init__(self, term, in_ty, out_ty, children=(), info=None):
        self.term = term
        self.in_ty = in_ty
        self.out_ty = out_ty
        self.children = children
        self.info = info
        self._fn = None

    def __repr__(self):
        return f"TypedTerm({self.term!r} : {self.in_ty!r} ~> {self.out_ty!r})"


def _mismatch(t, in_ty, why):
    raise TermTypeError(f"{type(t).__name__} at input {type_to_text(in_ty)}: {why}")


def typecheck(t: Term, in_ty, registry: Registry, memo=None) -> TypedTerm:
    """Check t against the typing rules at input type in_ty.

    Equal subterms at equal input types get one TypedTerm, which sits at
    every position that holds one of them.  memo is the table of one build,
    from each node's key (see _check) to its TypedTerm: by default a fresh
    one per call, or one that the checks of a single build share, as in
    frontend.compile_program.  It must not outlive that build.
    """
    return _check(t, in_ty, registry, {} if memo is None else memo)


def _exact(v):
    """A key for a payload value: equal only for equal values of one type,
    floats of one sign included (0.0 == -0.0 and 1 == True, but their keys
    differ); any other object is keyed by its identity."""
    tv = type(v)
    if tv is float:
        return tv, v, math.copysign(1.0, v)
    if tv is int or tv is str or tv is bool or v is None:
        return tv, v
    if tv is tuple:
        return tv, tuple(map(_exact, v))
    return "id", id(v)


def _check(t, in_ty, registry, memo):
    """typecheck with a memo.  A node's key is O(1): a composite (seq, par,
    case, map) is checked child first and keyed by its children's
    TypedTerms, compared by identity (map also by its input type, for the
    shape); a leaf is keyed by itself and its input type, with its payload
    (cst, get, set) keyed by _exact.  Types are interned, so they hash and
    compare by identity, in O(1)."""
    kind = type(t)
    if kind is Seq:
        # a stack, not recursion, so chains of any length fit the recursion limit
        stages = []
        ty = in_ty
        todo = [t]
        while todo:
            s = todo.pop()
            if type(s) is Seq:
                todo += reversed(s.stages)
            else:
                f = _check(s, ty, registry, memo)
                stages.append(f)
                ty = f.out_ty
        key = (Seq, *stages)
        tt = memo.get(key)
        if tt is None:
            tt = memo[key] = TypedTerm(t, in_ty, ty, tuple(stages))
        return tt
    if kind is Par or kind is CasePar:
        pair = TProd if kind is Par else TSum
        if not isinstance(in_ty, pair):
            _mismatch(t, in_ty, "parallel composition needs a product input"
                      if kind is Par else "case needs a sum input")
        f = _check(t.left, in_ty.left, registry, memo)
        g = _check(t.right, in_ty.right, registry, memo)
        key = (kind, f, g)
        tt = memo.get(key)
        if tt is None:
            tt = memo[key] = TypedTerm(t, in_ty, pair(f.out_ty, g.out_ty), (f, g))
        return tt
    if kind is Map:
        if not isinstance(in_ty, TCont):
            _mismatch(t, in_ty, "map needs a container input")
        f = _check(t.body, in_ty.elem, registry, memo)
        key = (Map, f, in_ty)
        tt = memo.get(key)
        if tt is None:
            tt = memo[key] = TypedTerm(t, in_ty, TCont(in_ty.shape, f.out_ty), (f,))
        return tt
    if kind is Cst:
        key = (Cst, t.ty, _exact(t.value), in_ty)
    elif kind is Get or kind is SetAt:
        key = (kind, _exact(t.index), in_ty)
    else:
        key = (t, in_ty)
    tt = memo.get(key)
    if tt is None:
        tt = memo[key] = _check_leaf(t, in_ty, registry)
    return tt


def _check_leaf(t, in_ty, registry) -> TypedTerm:
    """The typing rule of a term with no subterms."""
    match t:
        case Proj(path):
            ty = in_ty
            for i in path:
                if not isinstance(ty, TProd) or i not in (0, 1):
                    _mismatch(t, in_ty, "projection needs a product input")
                ty = ty.right if i else ty.left
            return TypedTerm(t, in_ty, ty)
        case Dup():
            return TypedTerm(t, in_ty, TProd(in_ty, in_ty))
        case Plus():
            if not (isinstance(in_ty, TProd) and in_ty.left == in_ty.right):
                _mismatch(t, in_ty, "plus needs a pair of equal types")
            if not plus_capable(in_ty.left):
                _mismatch(t, in_ty, "plus needs values=changes with commutative/associative ⊕")
            return TypedTerm(t, in_ty, in_ty.left)
        case Cst(ty, value):
            try:
                check_value(ty, value)
            except ConformanceError as e:
                _mismatch(t, in_ty, f"literal does not conform: {e}")
            return TypedTerm(t, in_ty, ty)
        case Zip():
            ok = (isinstance(in_ty, TProd)
                  and isinstance(in_ty.left, TCont) and isinstance(in_ty.right, TCont)
                  and in_ty.left.shape == in_ty.right.shape)
            if not ok:
                _mismatch(t, in_ty, "zip needs two containers of the same shape")
            out = TCont(in_ty.left.shape, TProd(in_ty.left.elem, in_ty.right.elem))
            return TypedTerm(t, in_ty, out)
        case Get(index):
            if not isinstance(in_ty, TCont):
                _mismatch(t, in_ty, "get needs a container input")
            if not in_ty.shape.valid_index(index):
                _mismatch(t, in_ty, f"index {index!r} outside the shape's positions")
            return TypedTerm(t, in_ty, in_ty.elem)
        case SetAt(index):
            ok = (isinstance(in_ty, TProd) and isinstance(in_ty.right, TCont)
                  and in_ty.right.elem == in_ty.left)
            if not ok:
                _mismatch(t, in_ty, "set needs an (element, container) pair")
            if not in_ty.right.shape.valid_index(index):
                _mismatch(t, in_ty, f"index {index!r} outside the shape's positions")
            return TypedTerm(t, in_ty, in_ty.right)
        case Reshape(fn, out_shape):
            if not isinstance(in_ty, TCont):
                _mismatch(t, in_ty, "reshape needs a container input")
            ifn = registry.index_fn(fn)
            return TypedTerm(t, in_ty, TCont(out_shape, in_ty.elem), info=ifn)
        case Replicate(shape):
            return TypedTerm(t, in_ty, TCont(shape, in_ty))
        case Tp():
            ok = isinstance(in_ty, TCont) and isinstance(in_ty.elem, TCont)
            if not ok:
                _mismatch(t, in_ty, "transpose needs a nested container input")
            out = TCont(in_ty.elem.shape, TCont(in_ty.shape, in_ty.elem.elem))
            return TypedTerm(t, in_ty, out)
        case Filter(pred):
            ok = (isinstance(in_ty, TProd) and isinstance(in_ty.right, TCont)
                  and in_ty.right.elem == in_ty.left)
            if not ok:
                _mismatch(t, in_ty, "filter needs a (default, container) pair")
            p = registry.index_pred(pred)
            return TypedTerm(t, in_ty, in_ty.right, info=p)
        case Fuse():
            if not (isinstance(in_ty, TSum) and in_ty.left == in_ty.right):
                _mismatch(t, in_ty, "fuse needs a sum of equal types")
            return TypedTerm(t, in_ty, in_ty.left)
        case Distr():
            ok = isinstance(in_ty, TProd) and isinstance(in_ty.right, TSum)
            if not ok:
                _mismatch(t, in_ty, "distr needs an (A, B + C) pair")
            a, s = in_ty.left, in_ty.right
            out = TSum(TProd(a, s.left), TProd(a, s.right))
            return TypedTerm(t, in_ty, out)
        case Inl(right_ty):
            return TypedTerm(t, in_ty, TSum(in_ty, right_ty))
        case Inr(left_ty):
            return TypedTerm(t, in_ty, TSum(left_ty, in_ty))
        case OpCall(name):
            opdef = registry.op(name)
            out_ty = opdef.typer(in_ty)
            if out_ty is None:
                _mismatch(t, in_ty, f"op {name!r} does not accept this input type")
            return TypedTerm(t, in_ty, out_ty, info=opdef)
        case _:
            raise TermTypeError(f"unknown term constructor: {t!r}")




# ---------------------------------------------------------------------------
# Denotational evaluation (compiled to closures)
# ---------------------------------------------------------------------------

# fusion's rules, by the kind of a run's first stage: what fusion returns,
# and the kinds of the stages after it
_RULES = {Zip: (("map2", 2), (Map,)), Dup: (("fanout", 2), (Par,)),
          OpCall: (("join", 4), (Dup, Par, Filter))}


def fusion(stages, k):
    """(rule name, width) of the fused run of typed seq stages that starts at
    stages[k], or None: ("map2", 2) is `zip ; map f`, ("add", 2) is
    `zip ; map g` with g pointwise ⊕, ("fanout", 2) is `dup ; par` and
    ("join", 4) is `op ; dup ; (cst ε × id) ; filter p`, with ε the element
    default so that σ_p is linear.  Either layer builds a join as one stage
    only when the op registers join_index (_FUSED, incr._FUSED)."""
    rule = _RULES.get(type(stages[k].term))
    if rule is None or k + len(rule[1]) >= len(stages):
        return None
    found, tail = rule
    for j, kind in enumerate(tail, k + 1):
        if type(stages[j].term) is not kind:
            return None
    if found[0] == "join":
        cst, ident = stages[k + 2].children
        if not (type(cst.term) is Cst and ident.term == ID
                and cst.term.value == default_value(cst.out_ty)):
            return None
    elif found[0] == "map2" and _is_pointwise_add(stages[k + 1].children[0]):
        return ("add", 2)
    return found


def _is_pointwise_add(tt):
    """True when tt is ⊕: plus, or a two-stage seq that fusion reads as add."""
    if type(tt.term) is Seq:
        return len(tt.children) == 2 and fusion(tt.children, 0) == ("add", 2)
    return type(tt.term) is Plus


def chain(fns):
    """One function running fns in order: the identity for none."""
    if len(fns) <= 1:
        return fns[0] if fns else PROJ_FNS[()]

    def run_seq(x):
        for f in fns:
            x = f(x)
        return x
    return run_seq


def _batch_add(zip_tt, _map):
    add = add_fn(zip_tt.in_ty.left)  # plus typed both inputs alike
    return lambda xy: add(xy[0], xy[1])


def _batch_join(op, _dup, _par, fil):
    index = op.info.join_index  # None when the op registers none
    return index and index(fil.info.fn).batch


# The batch of the fused runs, by fusion's rule name (incr._FUSED is its
# twin): each builds the run's one function from its typed stages, or
# returns None to run them one by one.  map2 and fanout have no entry, so
# mvmul's batch, which its step/batch ratios divide by, stays unfused.
_FUSED = {"add": _batch_add, "join": _batch_join}


def _compile(tt: TypedTerm, kernels=True):
    t = tt.term
    match t:
        case Seq():
            # a fused run (fusion, built by _FUSED) runs as one stage
            kids, stages, k = tt.children, [], 0
            while k < len(kids):
                rule = fusion(kids, k)
                build = rule and _FUSED.get(rule[0])
                run = build and build(*kids[k:k + rule[1]])
                stages.append(run or compiled(kids[k]))
                k += rule[1] if run else 1
            return chain(tuple(stages))
        case Par():
            f = compiled(tt.children[0])
            g = compiled(tt.children[1])
            return lambda xy: (f(xy[0]), g(xy[1]))
        case Proj(path) if path in PROJ_FNS:
            return PROJ_FNS[path]
        case Proj(path):
            def run_proj(x):
                for i in path:
                    x = x[i]
                return x
            return run_proj
        case Dup():
            return lambda x: (x, x)
        case Plus():
            add = add_fn(tt.out_ty)
            return lambda xy: add(xy[0], xy[1])
        case Cst(_, value):
            return lambda _x: value
        case Map():
            if kernels and (kernel := map_kernel(tt)):
                return kernel.batch
            # canonical-sparse: absent positions evaluate fn(ε) exactly over
            # finite shapes; over infinite-index shapes fn must preserve ε
            fn = compiled(tt.children[0])
            shape = tt.in_ty.shape
            din = default_value(tt.in_ty.elem)
            dout = default_value(tt.children[0].out_ty)

            def run_map(x):
                out = {}
                for i, xi in map_inputs(x, fn(din), shape, din, dout):
                    fv = fn(xi)
                    if fv != dout:
                        out[i] = fv
                return out
            return run_map
        case Zip() | Get() | SetAt() | Reshape() | Replicate() | Tp() | Filter():
            return container_kernel(tt, default_value)
        case Fuse():
            return lambda s: s.value
        case Distr():
            def run_distr(xs):
                x, s = xs
                if type(s) is Left:
                    return Left((x, s.value))
                return Right((x, s.value))
            return run_distr
        case Inl():
            return lambda x: Left(x)
        case Inr():
            return lambda x: Right(x)
        case CasePar():
            f = compiled(tt.children[0])
            g = compiled(tt.children[1])

            def run_case(s):
                if type(s) is Left:
                    return Left(f(s.value))
                return Right(g(s.value))
            return run_case
        case OpCall():
            return tt.info.fn
        case _:
            raise TermTypeError(f"unknown term constructor: {t!r}")


def map_kernel(tt):
    """The MapKernel of a typed `map op` whose op registers one and maps ε to ε."""
    body = tt.children[0]
    op = body.info if type(body.term) is OpCall else None
    if op and op.mapped and op.fn(default_value(tt.in_ty.elem)) == default_value(body.out_ty):
        return op.mapped


def map_inputs(x, fe, shape, din, dout):
    """The (index, element) pairs a map visits given fe = f(ε): x's support
    if f(ε)=ε, else every index of the shape, which must then be finite."""
    if fe == dout:
        return x.items()
    indices = shape.indices()
    if indices is None:
        raise SupportError(
            f"map over {shape!r} needs f(ε)=ε; got {fe!r} for an infinite index set")
    return ((i, x.get(i, din)) for i in indices)


def container_kernel(tt: TypedTerm, dft_of):
    """The kernel of zip, get, set, tp, reshape, replicate or filter.

    dft_of(ty) gives the element every absent position reads as.  The batch
    semantics passes default_value; these ops are linear, so incr passes
    nil_change and the same kernel is the op's derivative.
    """
    t = tt.term
    match t:
        case Zip():
            da = dft_of(tt.in_ty.left.elem)
            db = dft_of(tt.in_ty.right.elem)

            def run_zip(xy):
                x, y = xy
                if x.keys() == y.keys():
                    # one key set: a C-level pass, in x's key order
                    return dict(zip(x, zip(x.values(), map(y.__getitem__, x))))
                return {i: (x.get(i, da), y.get(i, db)) for i in x.keys() | y.keys()}
            return run_zip
        case Get(index):
            # one shared default: values are immutable
            dft = dft_of(tt.out_ty)
            return lambda x, _i=index: x[_i] if _i in x else dft
        case SetAt(index):
            dft = dft_of(tt.in_ty.left)

            def run_set(xa, _i=index):
                v, a = xa
                out = dict(a)
                if v == dft:
                    out.pop(_i, None)
                else:
                    out[_i] = v
                return out
            return run_set
        case Reshape():
            # walks the input's support and reads no default; over a finite
            # output shape the inverse of r is built once, and an index that
            # r maps outside in_shape raises on the first non-empty input only
            ifn = tt.info
            r = ifn.fn
            in_shape = tt.in_ty.shape
            out_shape = tt.out_ty.shape
            indices = out_shape.indices()
            if indices is not None:
                inv = {}
                bad = None
                for j in indices:
                    i = r(j)
                    if bad is None and not in_shape.valid_index(i):
                        bad = j
                    inv.setdefault(i, []).append(j)

                def run_reshape(x):
                    if not x:
                        return {}
                    if bad is not None:
                        raise UsageError(
                            f"index function {ifn.name!r} maps {bad!r} outside {in_shape!r}")
                    out = {}
                    for i, v in x.items():
                        for j in inv.get(i, ()):
                            out[j] = v
                    return out
                return run_reshape

            def run_fibers(x):
                if not x:
                    return {}
                if ifn.fibers is None:
                    raise SupportError(
                        f"reshape {ifn.name!r} over {out_shape!r} needs registered fibers")
                out = {}
                for i, v in x.items():
                    for j in ifn.fibers(i):
                        if r(j) != i:
                            raise UsageError(
                                f"fibers of {ifn.name!r} are inconsistent at {i!r}")
                        out[j] = v
                return out
            return run_fibers
        case Replicate(shape):
            dft = dft_of(tt.in_ty)

            def run_replicate(x):
                if x == dft:
                    return {}
                indices = shape.indices()
                if indices is None:
                    raise SupportError(
                        f"replicate of a non-default value over {shape!r} has infinite support")
                return {i: x for i in indices}
            return run_replicate
        case Tp():
            def run_tp(x):
                out = {}
                for j, row in x.items():
                    for i, v in row.items():
                        out.setdefault(i, {})[j] = v
                return out
            return run_tp
        case Filter():
            p = tt.info.fn
            shape = tt.out_ty.shape
            dft = dft_of(tt.in_ty.left)

            def run_filter(xa):
                x, a = xa
                if x == dft:
                    return {i: v for i, v in a.items() if p(i)}
                indices = shape.indices()
                if indices is None:
                    raise SupportError(
                        f"filter with a non-default fallback over {shape!r} has infinite support")
                out = {}
                for i in indices:
                    v = a.get(i, dft) if p(i) else x
                    if v != dft:
                        out[i] = v
                return out
            return run_filter
        case _:
            raise TermTypeError(f"not a container op: {t!r}")


def compiled(tt: TypedTerm):
    if tt._fn is None:
        tt._fn = _compile(tt)
    return tt._fn


def denote(tt: TypedTerm, v):
    """Evaluate the batch semantics of a typechecked term."""
    return compiled(tt)(v)


def unfused(tt: TypedTerm):
    """The batch semantics of a typed seq run one stage at a time, a map
    stage (or a map) entry by entry: the reference the fused join
    (join_index), add (add_fn) and map (OpDef.mapped) kernels are checked
    against."""
    stages = tt.children if type(tt.term) is Seq else (tt,)
    return chain(tuple(_compile(c, kernels=False) for c in stages))


# ---------------------------------------------------------------------------
# Term serialization
# ---------------------------------------------------------------------------

def term_to_text(t: Term) -> str:
    match t:
        case Seq(stages):
            # left-nested text in one pass; only a nested stage recurses
            first, *rest = map(term_to_text, stages)
            return "seq(" * len(rest) + first + "".join(f", {s})" for s in rest)
        case Par(a, b):
            return f"par({term_to_text(a)}, {term_to_text(b)})"
        case Proj(path) if len(path) > 1:
            return f"proj({', '.join(map(str, path))})"
        case Proj() | Dup() | Plus() | Zip() | Tp() | Fuse() | Distr():
            # only nullary kinds are hashed: a composite's hash walks its subtree
            return _NULLARY_NAMES[t]
        case Cst(ty, value):
            return f"cst({type_to_text(ty)}, {json.dumps(value_to_json(ty, value))})"
        case Map(body):
            return f"map({term_to_text(body)})"
        case Get(index):
            return f"get({json.dumps(index_to_json(index))})"
        case SetAt(index):
            return f"set({json.dumps(index_to_json(index))})"
        case Reshape(fn, out_shape):
            return f"reshape({fn}, {out_shape!r})"
        case Replicate(shape):
            return f"replicate({shape!r})"
        case Filter(pred):
            return f"filter({pred})"
        case Inl(right_ty):
            return f"inl({type_to_text(right_ty)})"
        case Inr(left_ty):
            return f"inr({type_to_text(left_ty)})"
        case CasePar(a, b):
            return f"case({term_to_text(a)}, {term_to_text(b)})"
        case OpCall(name):
            return f"op({name})"
        case _:
            raise UsageError(f"unknown term constructor: {t!r}")


# the terms written as a bare name in term text (and in the surface syntax)
NULLARY_TERMS: dict[str, Term] = {
    "id": ID, "dup": Dup(), "fst": FST, "snd": SND, "plus": Plus(),
    "zip": Zip(), "tp": Tp(), "fuse": Fuse(), "distr": Distr(),
}
_NULLARY_NAMES = {t: name for name, t in NULLARY_TERMS.items()}


def term_from_text(text: str, registry: Registry) -> Term:
    r = TextReader(text, "term")
    t = _read_term(r, registry)
    r.end()
    return t


def _read_term(r: TextReader, registry: Registry) -> Term:
    """One term at the cursor; only a nested argument recurses."""
    name, links = r.ident(), 0
    while name == "seq":
        # n leading `seq(` open one chain: `stage, stage), stage) …`, read below
        r.expect("(")
        links += 1
        name = r.ident()
    if not r.take("("):
        if name not in NULLARY_TERMS:
            r.error(f"{name!r} needs arguments or is unknown")
        t = NULLARY_TERMS[name]
    else:
        match name:
            case "par" | "case":
                a = _read_term(r, registry)
                r.expect(",")
                t = (Par if name == "par" else CasePar)(a, _read_term(r, registry))
            case "map":
                t = Map(_read_term(r, registry))
            case "cst":
                ty = read_type(r, registry)
                r.expect(",")
                t = Cst(ty, value_from_json(ty, r.json()))
            case "get":
                t = Get(index_from_json(r.json()))
            case "set":
                t = SetAt(index_from_json(r.json()))
            case "reshape":
                fn = r.name_arg()
                r.expect(",")
                t = Reshape(fn, read_shape(r, registry))
            case "replicate":
                t = Replicate(read_shape(r, registry))
            case "filter":
                t = Filter(r.name_arg())
            case "inl":
                t = Inl(read_type(r, registry))
            case "inr":
                t = Inr(read_type(r, registry))
            case "op":
                t = OpCall(r.name_arg())
            case "proj":
                path = [r.json()]
                while r.take(","):
                    path.append(r.json())
                if not all(type(i) is int and i in (0, 1) for i in path):
                    r.error(f"proj expects indices 0 or 1, got {path!r}")
                t = Proj(tuple(path))
            case _:
                r.error(f"unknown term constructor: {name!r}")
        r.expect(")")
    stages = [t]
    for _ in range(links):
        r.expect(",")
        stages.append(_read_term(r, registry))
        r.expect(")")
    return Seq(*stages) if links else t
