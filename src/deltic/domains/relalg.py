"""Relational algebra instantiation: tables as maps from tuples to integers.

Multiplicities live in ℤ so deletions are negative entries.  The Cartesian
product is the one genuinely bilinear op (its derivative is the discrete
product rule a'·b + (a + a')·b', one step per side); count and groupBy are
linear in the multiplicities and need no cache at all.

A selection σ_p = ⟨cst 0, id⟩ ; filter p drops rows to the default 0, so it
is linear and σ_p ∘ cross is bilinear too.  A join `cross ; σ_p` is the join
rule of calculus.fusion, and cross registers one hook for it, join_index:
given p and the input type, the BilinIndex of the one bilinear stage that
incr builds for it (the "bilin" combinator, which cross names too).  Its
batch is the join's batch, which calculus.denote runs.  p is tested on each
candidate pair before the pair is made, so no cross product is built and
filtered afterwards.  The stage caches the two input relations, as the
unfused cross does, and a third part, which depends on p.

When p is an equi-join, a plain function of one argument whose code is
`ij[0][a] == ij[1][b]` (or `ij[1][b] == ij[0][a]`) with a and b columns of
the two schemas, the columns are read off that code (_key_columns): no
caller declares them.  The third part is then one group per key that the
right relation holds: its right tuples and the left tuples with that key
(_keyed_index).  A changed left tuple visits its key's group only, and
skips the join when no right tuple holds its key; a right tuple reads its
key's group, and a key new to the join scans the left relation once.  The
key only narrows the candidates: p still decides every pair.

Any other p is opaque.  The third part then holds, for each cached right
tuple, the cached left tuples it matches, and the pairs come from one
C-level stream, filter(p, product(r, s)), in batch and in each leg of the
step: a change to a right tuple the join already holds reads its matches,
and p is tested for a right tuple new to the join, against the whole left
relation, and for a changed left tuple, against the right relation.  The
unfused run of the stages (calculus.unfused) is the reference both are
checked against.
"""

from __future__ import annotations

import dis
from functools import cache
from inspect import CO_VARARGS, CO_VARKEYWORDS
from itertools import chain, product
from types import FunctionType

from ..calculus import (
    Cst, Filter, ID, Map, OpCall, OpDef, Plus, ProgramDef, Registry, Term,
    fanout, map2, monomorphic, seq,
)
from ..core import INT, TBase, TCont, TProd
from .. import incr
from . import InstanceBundle, pair_program
from .containers import DICT, RELATION, dict_shape, rel_shape

Z = TBase(INT)


def rel(schema) -> TCont:
    return TCont(rel_shape(schema), Z)


def _is_rel(ty):
    return isinstance(ty, TCont) and ty.shape.container is RELATION and ty.elem == Z


def _intmul(xy):
    return xy[0] * xy[1]


def _intsub(xy):
    return xy[0] - xy[1]


def _cross(xy):
    r, s = xy
    out = {}
    for i, a in r.items():
        for j, b in s.items():
            out[(i, j)] = a * b
    return out


def _code(f):
    """f's signature (positional and keyword-only arguments, * and **
    flags, defaults and closure), then its instructions, each as its name
    and argument: a local's (the argument's) by its slot, so its name does
    not matter, and any other's by type and value."""
    code = f.__code__
    stars = code.co_flags & (CO_VARARGS | CO_VARKEYWORDS)
    return [(code.co_argcount, code.co_kwonlyargcount, stars, f.__defaults__, f.__closure__),
            *((ins.opname, ins.arg if ins.opcode in dis.haslocal
               else (type(ins.argval), ins.argval)) for ins in dis.get_instructions(f))]


@cache
def _equi_code(s, a, b):
    """_code of `lambda ij: ij[s][a] == ij[1 - s][b]`, as the running
    interpreter compiles it."""
    return _code(eval(f"lambda ij: ij[{s}][{a}] == ij[{1 - s}][{b}]"))


def _key_columns(p, ty):
    """(a, b) when p is an equi-join predicate over ty, the (left, right)
    relation pair: a plain function of one positional argument, with no
    closure and no defaults, whose code is `ij[0][a] == ij[1][b]` or
    `ij[1][b] == ij[0][a]`, with a a column of the left schema and b one of
    the right (a relation of scalars has none).  Else None: p is opaque."""
    got = type(p) is FunctionType and _code(p)
    width = [len(s) if type(s := t.shape.payload) is tuple else 0 for t in (ty.left, ty.right)]
    return next(((a, b) for a, b in product(range(width[0]), range(width[1]))
                 if got in (_equi_code(0, a, b), _equi_code(1, b, a))), None)


def _join_index(p, ty) -> incr.BilinIndex:
    """The index of σ_p ∘ cross over ty, the (left, right) relation pair.

    When p's code is `ij[0][a] == ij[1][b]` or `ij[1][b] == ij[0][a]`, with a
    a column of the left schema and b one of the right (_key_columns), it is
    the keyed index (_keyed_index): one group per key of the cached right
    relation, its right tuples and the cached left tuples with that key,
    and p is still the final test of every candidate pair.

    Else p is opaque, and the index is the matches of each right tuple j of
    the cached right relation: the left tuples i of the cached left relation
    with p((i, j)), in four buckets picked by hash(i), so that a deletion
    scans a quarter of them.  The buckets hold the tuples the left relation
    holds.  Only pairs that satisfy p are made, batch (which init runs) and
    each leg walking filter(p, product(…)) in C.  batch, σ_p ∘ cross, gives
    the keys, in the same order, that cross followed by the filter gives.
    A right tuple already cached reads its matches instead of testing p; one
    new to the right relation walks the left relation with p, and its hits
    become its matches.  A left step updates the matches of the pairs
    its own term finds: i is new in x iff x'[i] == dx[i], and gone iff
    i ∉ x'.
    """
    if keys := _key_columns(p, ty):
        return _keyed_index(p, *keys)

    def batch(xy):
        r, s = xy
        return {ij: r[ij[0]] * s[ij[1]] for ij in filter(p, product(r, s))}

    def init(xy):
        out, ix = batch(xy), {j: ([], [], [], []) for j in xy[1]}
        for i, j in out:
            ix[j][hash(i) & 3].append(i)
        return out, ix

    def left(dr, s, r2, ix):
        out = {}
        get = r2.get
        for ij in filter(p, product(dr, s)):
            i, j = ij
            a = dr[i]
            out[ij] = a * s[j]
            now = get(i)
            if now is None:
                ix[j][hash(i) & 3].remove(i)
            elif now == a:
                ix[j][hash(i) & 3].append(i)
        return out

    def right(r, ds, s2, ix):
        out = {}
        for j, b in ds.items():
            bk = ix.get(j)
            if bk is None:
                bk = ix[j] = ([], [], [], [])
                for ij in filter(p, product(r, (j,))):
                    i = ij[0]
                    out[ij] = r[i] * b
                    bk[hash(i) & 3].append(i)
                continue
            for i in chain.from_iterable(bk):
                out[(i, j)] = r[i] * b
            if j not in s2:
                del ix[j]
        return out

    return incr.BilinIndex(incr.CMatches(), init, left, right, batch)


def _keyed_index(p, a, b) -> incr.BilinIndex:
    """The index of σ_p ∘ cross when p is the key equality i[a] == j[b]:
    for each key k that the cached right relation holds, a group (right,
    left) of the right tuples j with j[b] == k and the cached left tuples i
    with i[a] == k, these in four buckets picked by hash(i), as the matches
    of _join_index.  A left tuple whose key no right tuple holds is in no
    group.

    The key only narrows the candidate pairs, and p decides each one.  That
    is sound as a == b implies hash(a) == hash(b); a key unequal to itself
    (a NaN) pairs with nothing, as p says, found or not.  init (and batch)
    groups the right relation and walks the left one in order, so it gives
    the keys that cross followed by the filter gives, in that order.  A left
    step visits the group of each changed tuple's key only, and keeps that
    group's left part (i is new in x iff x'[i] == dx[i], and gone iff
    i ∉ x').  A right tuple reads its key's group; a key new to the join
    scans the left relation once by key for its group, and a group is
    dropped with its last right tuple.
    """
    def init(xy):
        # the groups of the right relation, then a left step that inserts r
        r, s = xy
        ix = {}
        for j in s:
            ix.setdefault(j[b], ([], ([], [], [], [])))[0].append(j)
        return left(r, s, r, ix), ix

    def left(dr, s, r2, ix):
        out = {}
        for i, m in dr.items():
            if (g := ix.get(i[a])) is None:
                continue
            for j in g[0]:
                if p(ij := (i, j)):
                    out[ij] = m * s[j]
            now = r2.get(i)
            if now is None:
                g[1][hash(i) & 3].remove(i)
            elif now == m:
                g[1][hash(i) & 3].append(i)
        return out

    def right(r, ds, s2, ix):
        out = {}
        for j, m in ds.items():
            k = j[b]
            if (g := ix.get(k)) is None:
                g = ix[k] = ([], ([], [], [], []))
                for i in [i for i in r if i[a] == k]:
                    g[1][hash(i) & 3].append(i)
            for ij in filter(p, product(chain.from_iterable(g[1]), (j,))):
                out[ij] = r[ij[0]] * m
            if j not in s2:
                g[0].remove(j)
                if not g[0]:
                    del ix[k]
            elif s2[j] == m:
                g[0].append(j)
        return out

    return incr.BilinIndex(incr.CGroups(), init, left, right, lambda xy: init(xy)[0])


def _cross_typer(ty):
    if (isinstance(ty, TProd) and _is_rel(ty.left) and _is_rel(ty.right)):
        return rel((ty.left.shape.payload, ty.right.shape.payload))
    return None


def _count(v):
    return sum(v.values())


def _count_typer(ty):
    return Z if _is_rel(ty) else None


def make_groupby(key_name: str, key_fn, sample_in_tys=()) -> OpDef:
    """groupBy over a key function on tuples; linear, so cache-free."""
    def fn(v):
        out = {}
        for i, mult in v.items():
            out.setdefault(key_fn(i), {})[i] = mult
        return out

    def typer(ty):
        if _is_rel(ty):
            return TCont(dict_shape("any"), ty)
        return None

    return OpDef(f"groupby_{key_name}", typer, fn, fn,
                 sample_in_tys=tuple(sample_in_tys))


def selection_term(pred_name: str) -> Term:
    """σ_p as ⟨cst 0, id⟩ ; filter p (zeroed-out rows vanish)."""
    return seq(fanout(Cst(Z, 0), ID), Filter(pred_name))


def join_term(pred_name: str) -> Term:
    return seq(OpCall("cross"), selection_term(pred_name))


def union_term() -> Term:
    return map2(Plus())


def difference_term() -> Term:
    return map2(OpCall("intsub"))


def intersection_term() -> Term:
    return map2(OpCall("intmul"))


def proj_term(key_name: str) -> Term:
    return seq(OpCall(f"groupby_{key_name}"), Map(OpCall("count")))


def register_relalg() -> InstanceBundle:
    reg = Registry()
    reg.register_base(INT)
    reg.register_container(RELATION)
    reg.register_container(DICT)

    pair_z = TProd(Z, Z)
    reg.register_op(OpDef(
        "intmul", monomorphic(pair_z, Z), _intmul, "triv", sample_in_tys=(pair_z,),
        expr="x * y"))
    reg.register_op(OpDef(
        "intsub", monomorphic(pair_z, Z), _intsub, "lin", sample_in_tys=(pair_z,)))
    reg.register_op(OpDef(
        "cross", _cross_typer, _cross, "bilin",
        sample_in_tys=(TProd(rel("int"), rel("str")),), join_index=_join_index))
    reg.register_op(OpDef(
        "count", _count_typer, _count, _count, sample_in_tys=(rel("int"),)))

    reg.register_op(make_groupby(
        "fst", lambda t: t[0],
        sample_in_tys=(rel(("int", "str")), rel(("int", "int")))))

    reg.register_program(ProgramDef("union", pair_program(_is_rel, union_term)))
    reg.register_program(ProgramDef("difference", pair_program(_is_rel, difference_term)))
    reg.register_program(ProgramDef("intersection", pair_program(_is_rel, intersection_term)))

    return InstanceBundle("relalg", reg, INT)
