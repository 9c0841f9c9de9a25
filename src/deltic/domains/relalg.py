"""Relational algebra instantiation: tables as maps from tuples to integers.

Multiplicities live in ℤ so deletions are negative entries.  The Cartesian
product is the one genuinely bilinear op (its derivative is the discrete
product rule a'·b + (a + a')·b', one step per side); count and groupBy are
linear in the multiplicities and need no cache at all.

A selection σ_p = ⟨cst 0, id⟩ ; filter p drops rows to the default 0, so it
is linear and σ_p ∘ cross is bilinear too.  A join `cross ; σ_p` is the join
rule of calculus.fusion, and cross registers one hook for it, join_index:
the BilinIndex of the one bilinear stage that incr builds for it (the
"bilin" combinator, which cross names too).  Its batch, init's output with
no matches made, is the join's batch, which calculus.denote runs.  p is
tested on each pair before the pair is made, so no cross product is built
and filtered afterwards: the pairs come from one C-level stream, filter(p,
product(r, s)), in batch (so in init) and in each leg of the step.  The
stage caches the two input relations, as the unfused cross does, and a
third part: for each cached right tuple, the cached left tuples it
matches.  So a change to a right tuple the join already holds reads its
matches, and p is tested only for a right tuple new to the join, against
the whole left relation, or for a changed left tuple, against the right
relation.  p stays opaque.  The unfused run of the stages
(calculus.unfused) is the reference both are checked against.
"""

from __future__ import annotations

from itertools import chain, product

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


def _join_index(p) -> incr.BilinIndex:
    """The matches of σ_p ∘ cross, kept for each right tuple j of the cached
    right relation: the left tuples i of the cached left relation with
    p((i, j)), in four buckets picked by hash(i), so that a deletion scans a
    quarter of them.  The buckets hold the tuples the left relation holds.

    Only pairs that satisfy p are made, batch (which init runs) and each leg
    walking filter(p, product(…)) in C.  batch, σ_p ∘ cross, gives the keys,
    in the same order, that cross followed by the filter gives.
    A right tuple already cached reads its matches instead of testing
    p; one new to the right relation walks the left relation with p, and its
    hits become its matches.  A left step updates the matches of the pairs
    its own term finds: i is new in x iff x'[i] == dx[i], and gone iff
    i ∉ x'.
    """
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
        "intmul", monomorphic(pair_z, Z), _intmul, "triv", sample_in_tys=(pair_z,)))
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
