"""Relational algebra instantiation: tables as maps from tuples to integers.

Multiplicities live in ℤ so deletions are negative entries.  The Cartesian
product is the one genuinely bilinear op (its derivative is the discrete
product rule a·b' + a'·b + a'·b'); count and groupBy are linear in the
multiplicities and need no cache at all.

A selection σ_p = ⟨cst 0, id⟩ ; filter p drops rows to the default 0, so it
is linear and σ_p ∘ cross is bilinear too.  cross registers that fused
operation as its make_selected, and incr builds a join `cross ; σ_p` as one
bilinear stage whose kernel tests p on each pair before making it: no cross
product is built and filtered afterwards.  The stage caches the two input
relations, exactly as the unfused cross does, so the join's cache layout is
unchanged; batch evaluation (calculus.denote) stays the unfused reference.
"""

from __future__ import annotations

from ..calculus import (
    Cst, Filter, ID, Map, OpCall, OpDef, Plus, ProgramDef, Registry, Term,
    fanout, map2, monomorphic, seq,
)
from ..core import INT, TBase, TCont, TProd
from .. import incr
from . import InstanceBundle
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


def _selected_cross(p):
    """σ_p ∘ cross: only pairs that satisfy p are made.

    The right relation is the outer loop: on a right-side change the large
    left relation is walked once per changed right tuple.
    """
    def fn(xy):
        r, s = xy
        out = {}
        for j, b in s.items():
            for i, a in r.items():
                if p((i, j)):
                    out[(i, j)] = a * b
        return out

    return fn


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

    return OpDef(
        f"groupby_{key_name}", typer, fn,
        lambda i, o: incr.comb_self(fn, fn, i, o),
        sample_in_tys=tuple(sample_in_tys),
    )


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


def _binary_rel_build(term_fn):
    def build(ty):
        if isinstance(ty, TProd) and _is_rel(ty.left) and ty.left == ty.right:
            return term_fn()
        return None
    return build


def register_relalg() -> InstanceBundle:
    reg = Registry()
    reg.register_base(INT)
    reg.register_container(RELATION)
    reg.register_container(DICT)

    pair_z = TProd(Z, Z)
    reg.register_op(OpDef(
        "intmul", monomorphic(pair_z, Z), _intmul,
        lambda i, o: incr.comb_triv(_intmul, i, o),
        sample_in_tys=(pair_z,)))
    reg.register_op(OpDef(
        "intsub", monomorphic(pair_z, Z), _intsub,
        lambda i, o: incr.comb_lin(_intsub, i, o),
        sample_in_tys=(pair_z,)))
    reg.register_op(OpDef(
        "cross", _cross_typer, _cross,
        lambda i, o: incr.comb_bilin(_cross, i, o),
        sample_in_tys=(TProd(rel("int"), rel("str")),),
        make_selected=lambda p, i, o: incr.comb_bilin(_selected_cross(p), i, o)))
    reg.register_op(OpDef(
        "count", _count_typer, _count,
        lambda i, o: incr.comb_self(_count, _count, i, o),
        sample_in_tys=(rel("int"),)))

    reg.register_op(make_groupby(
        "fst", lambda t: t[0],
        sample_in_tys=(rel(("int", "str")), rel(("int", "int")))))

    reg.register_program(ProgramDef("union", _binary_rel_build(union_term)))
    reg.register_program(ProgramDef("difference", _binary_rel_build(difference_term)))
    reg.register_program(ProgramDef("intersection", _binary_rel_build(intersection_term)))

    return InstanceBundle("relalg", reg, INT)
