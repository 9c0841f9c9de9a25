"""Grow-only counter CRDT: per-participant naturals, merge by pointwise max.

Running the programs batch gives the state-based CRDT; running them through
the incrementalization gives the delta-state variant for free, since only
the change vectors travel.
"""

from __future__ import annotations

from ..calculus import (
    Cst, Get, ID, OpCall, OpDef, Plus, ProgramDef, Registry, SetAt, Term,
    fanout, map2, monomorphic, seq,
)
from ..core import NAT, TBase, TCont, TProd
from . import InstanceBundle
from .containers import NODES, nodes_shape

N = TBase(NAT)


def counter_ty(ids) -> TCont:
    return TCont(nodes_shape(ids), N)


def _nat_max(xy):
    return xy[0] if xy[0] >= xy[1] else xy[1]


def _nat_sum(v):
    return sum(v.values())


def value_term() -> Term:
    return OpCall("natsum")


def inc_nat_term() -> Term:
    """x -> x + 1 as ⟨id, cst 1⟩ ; +."""
    return seq(fanout(ID, Cst(N, 1)), Plus())


def inc_term(node_id: str) -> Term:
    """Bump one participant's slot: ⟨get i ; incNat, id⟩ ; set i."""
    return seq(fanout(seq(Get(node_id), inc_nat_term()), ID), SetAt(node_id))


def merge_term() -> Term:
    return map2(OpCall("max"))


def register_gcounter(participants) -> InstanceBundle:
    ids = tuple(sorted(participants))
    if not ids:
        raise ValueError("a GCounter needs at least one participant")
    reg = Registry()
    reg.register_base(NAT)
    reg.register_container(NODES)

    cty = counter_ty(ids)
    pair_n = TProd(N, N)
    reg.register_op(OpDef(
        "max", monomorphic(pair_n, N), _nat_max, "triv", sample_in_tys=(pair_n,),
        expr="x if x >= y else y"))
    reg.register_op(OpDef(
        "natsum",
        lambda ty: N if isinstance(ty, TCont) and ty.shape.container is NODES
        and ty.elem == N else None,
        _nat_sum, "lin", sample_in_tys=(cty,)))

    reg.register_program(ProgramDef(
        "value", lambda ty: value_term() if ty == cty else None))
    reg.register_program(ProgramDef(
        "merge", lambda ty: merge_term()
        if ty == TProd(cty, cty) else None))
    reg.register_program(ProgramDef(
        "incnat", lambda ty: inc_nat_term() if ty == N else None))
    for node in ids:
        reg.register_program(ProgramDef(
            f"inc_{node}",
            lambda ty, _n=node: inc_term(_n) if ty == cty else None))

    return InstanceBundle("gcounter", reg, NAT)
