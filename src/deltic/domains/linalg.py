"""Linear algebra instantiation: additive reals over arrays.

Primitive ops are relu and scalar multiplication (trivial incrementalization,
input caching) and vector summation (linear, cache-free); relu also registers
`map relu`'s kernels (OpDef.mapped).  The rest is derived from generic ops.
"""

from __future__ import annotations

from ..calculus import (
    Cst, ID, Map, MapKernel, OpCall, OpDef, Par, Plus, ProgramDef, Registry, Replicate,
    Reshape, SetAt, Term, Tp, fanout, map2, monomorphic, seq,
)
from ..core import REAL, TBase, TCont, TProd
from . import InstanceBundle, pair_program
from .containers import ARRAY, arr, arr_shape

R = TBase(REAL)


def _relu(x):
    return x if x > 0 else 0.0


def _relu_batch(v):
    return {i: x for i, x in v.items() if x > 0}


def _relu_step(dx, c):
    """`map relu`'s Triv step (MapKernel.step) with _relu, ⊕ and ⊖ inlined."""
    out = {}
    for i, di in dx.items():
        try:
            x = c[i]
        except KeyError:
            x = 0.0
        c[i] = x2 = x + di
        dy = (x2 if x2 > 0 else 0.0) - (x if x > 0 else 0.0)
        if dy:
            out[i] = dy
    return out, c


def _mul(xy):
    return xy[0] * xy[1]


def _vsum(v):
    return float(sum(v.values()))


def _is_vec(ty):
    return isinstance(ty, TCont) and ty.shape.container is ARRAY and ty.elem == R


def _is_mat(ty):
    return (isinstance(ty, TCont) and ty.shape.container is ARRAY
            and _is_vec(ty.elem))


def _sum_typer(ty):
    return R if _is_vec(ty) else None


def mvmul_term(n: int, m: int) -> Term:
    """(M, v) -> M v as (id × replicate n) ; map2 (map2 *) ; map sum."""
    return seq(
        Par(ID, Replicate(arr_shape(n))),
        map2(map2(OpCall("mul"))),
        Map(OpCall("sum")),
    )


def mmmul_term(k: int, m: int, n: int) -> Term:
    """(M1: k×m, M2: m×n) -> M1 M2 as replicate n × tp ; map2 mvmul ; tp."""
    return seq(
        Par(Replicate(arr_shape(n)), Tp()),
        map2(mvmul_term(k, m)),
        Tp(),
    )


def svmul_term(n: int) -> Term:
    """(c, v) -> c·v as (replicate n × id) ; map2 *."""
    return seq(Par(Replicate(arr_shape(n)), ID), map2(OpCall("mul")))


def dot_term() -> Term:
    return seq(map2(OpCall("mul")), OpCall("sum"))


def vadd_term() -> Term:
    return map2(Plus())


def madd_term() -> Term:
    return map2(map2(Plus()))


def hadamard_term() -> Term:
    return map2(OpCall("mul"))


def append_term(n: int) -> Term:
    """(x, v) -> x prepended to v; reshape shifts old entries up by one.

    The index map is the (truncated) predecessor, total on naturals; the
    duplicate it writes at position 0 is immediately overwritten by set 0.
    """
    return seq(Par(ID, Reshape("pred", arr_shape(n + 1))), SetAt(0))


def dense_term(n: int, m: int, weights, bias) -> Term:
    """x -> map relu (M·x + b) with the weights and bias baked in as literals."""
    mat_ty = arr(n, arr(m, R))
    vec_n = arr(n, R)
    return seq(
        fanout(Cst(mat_ty, weights), ID),
        mvmul_term(n, m),
        fanout(Cst(vec_n, bias), ID),
        map2(Plus()),
        Map(OpCall("relu")),
    )


def _build_svmul(ty):
    if isinstance(ty, TProd) and ty.left == R and _is_vec(ty.right):
        return svmul_term(ty.right.shape.payload)
    return None


def _build_mvmul(ty):
    if (isinstance(ty, TProd) and _is_mat(ty.left) and _is_vec(ty.right)
            and ty.left.elem == ty.right):
        return mvmul_term(ty.left.shape.payload, ty.right.shape.payload)
    return None


def _build_mmmul(ty):
    if (isinstance(ty, TProd) and _is_mat(ty.left) and _is_mat(ty.right)
            and ty.left.elem.shape == ty.right.shape):
        k = ty.left.shape.payload
        m = ty.right.shape.payload
        n = ty.right.elem.shape.payload
        return mmmul_term(k, m, n)
    return None


def _build_append(ty):
    if (isinstance(ty, TProd) and isinstance(ty.right, TCont)
            and ty.right.shape.container is ARRAY and ty.right.elem == ty.left):
        return append_term(ty.right.shape.payload)
    return None


def register_linalg() -> InstanceBundle:
    reg = Registry()
    reg.register_base(REAL)
    reg.register_container(ARRAY)

    pair_r = TProd(R, R)
    reg.register_op(OpDef(
        "relu", monomorphic(R, R), _relu, "triv",
        sample_in_tys=(R,), mapped=MapKernel(_relu_batch, _relu_step)))
    reg.register_op(OpDef(
        "mul", monomorphic(pair_r, R), _mul, "triv", sample_in_tys=(pair_r,)))
    reg.register_op(OpDef(
        "sum", _sum_typer, _vsum, "lin",
        sample_in_tys=(arr(3, R), arr(1, R))))

    reg.register_index_fn("pred", lambda i: i - 1 if i > 0 else 0)

    reg.register_program(ProgramDef("vadd", pair_program(_is_vec, vadd_term)))
    reg.register_program(ProgramDef("madd", pair_program(_is_mat, madd_term)))
    reg.register_program(ProgramDef("hadamard", pair_program(_is_vec, hadamard_term)))
    reg.register_program(ProgramDef("dot", pair_program(_is_vec, dot_term)))
    reg.register_program(ProgramDef("svmul", _build_svmul))
    reg.register_program(ProgramDef("mvmul", _build_mvmul))
    reg.register_program(ProgramDef("mmmul", _build_mmmul))
    reg.register_program(ProgramDef("append", _build_append))

    return InstanceBundle("linalg", reg, REAL)
