"""Change-structure algebra on the universal value representation."""

import copy
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import deltic
from deltic import core
from deltic.calculus import Cst, TermTypeError, typecheck
from deltic.core import (
    INT, KEEP, NAT, REAL, SCALAR, SUM_NULL, Cl, Cr, Left, Right, Sl, Sr,
    ConformanceError, Shape, TBase, TCont, TProd, TSum, UsageError,
    _merge_fn, add_fn, apply_change, check_change, check_value, default_value, diff_values,
    apply_fn, is_nil, nil_change, own_copy, support, update_fn, values_equal,
)
from deltic.domains.containers import ARRAY, arr, rel_shape, tree_shape
from deltic.oracle import (
    GenConfig, gen_change, gen_type, gen_value, oracle_registry, reachable_pair, stable_rng,
)

R = TBase(REAL)
Z = TBase(INT)
SUM_RR = TSum(R, R)


def test_apply_sum_local_change():
    assert apply_change(SUM_RR, Left(5.0), Cl(2.0)) == Left(7.0)


def test_apply_nil_scalar():
    assert apply_change(R, 3.5, 0.0) == 3.5


def test_apply_container_elementwise():
    ty = arr(3, R)
    v = {0: 1.0, 1: 2.0, 2: 3.0}
    assert apply_change(ty, v, {1: 10.0}) == {0: 1.0, 1: 12.0, 2: 3.0}
    assert v == {0: 1.0, 1: 2.0, 2: 3.0}  # inputs never mutated


def test_apply_sum_all_cases():
    # the full case table, including the replacement fixes
    assert apply_change(SUM_RR, Left(1.0), Cr(5.0)) == Left(1.0)
    assert apply_change(SUM_RR, Right(1.0), Cl(5.0)) == Right(1.0)
    assert apply_change(SUM_RR, Right(2.0), Cr(3.0)) == Right(5.0)
    assert apply_change(SUM_RR, Left(1.0), Sl(9.0)) == Left(9.0)
    assert apply_change(SUM_RR, Left(1.0), Sr(9.0)) == Right(9.0)
    assert apply_change(SUM_RR, Right(1.0), Sl(9.0)) == Left(9.0)
    assert apply_change(SUM_RR, Right(1.0), Sr(9.0)) == Right(9.0)
    assert apply_change(SUM_RR, Left(1.0), SUM_NULL) == Left(1.0)
    assert apply_change(SUM_RR, Right(1.0), SUM_NULL) == Right(1.0)


def test_diff_base():
    assert diff_values(R, 7.0, 3.0) == 4.0


def test_diff_sum_cross_side():
    assert diff_values(SUM_RR, Right(2.0), Left(9.0)) == Sr(2.0)
    assert diff_values(SUM_RR, Left(2.0), Right(9.0)) == Sl(2.0)


def test_diff_self_is_effective_nil():
    rng = stable_rng(3, "diff-self")
    cfg = GenConfig()
    for _ in range(50):
        ty = gen_type(cfg, rng, containers=("arr", "rel"), bases=("real", "int", "scalar"))
        v = gen_value(rng, ty)
        d = diff_values(ty, v, v)
        assert values_equal(ty, apply_change(ty, v, d), v)


def test_nil_changes():
    assert nil_change(R) == 0.0
    assert nil_change(arr(3, R)) == {}
    assert nil_change(SUM_RR) is SUM_NULL
    assert nil_change(TBase(SCALAR)) is KEEP


def test_is_nil():
    assert is_nil(R, 0.0)
    assert is_nil(arr(2, R), {})
    assert not is_nil(SUM_RR, Cl(0.0))  # effectively nil but not canonically


def test_support():
    assert support({0: 1.0, 2: 5.0}) == {0, 2}
    assert support({}) == set()
    with pytest.raises(UsageError):
        support(3.0)


def test_cancellation_restores_empty_support():
    ty = arr(3, R)
    out = apply_change(ty, {0: 1.0}, {0: -1.0})
    assert support(out) == set()
    # an explicit nil entry for an index new to v is not stored either, at
    # the top level of a nested container too, and not by ⊕-add
    assert apply_change(ty, {0: 1.0}, {0: -1.0, 1: 0.0, 2: -0.0}) == {}
    assert apply_change(arr(2, ty), {}, {0: {}, 1: {2: 1.0}}) == {1: {2: 1.0}}
    assert add_fn(ty)({0: 1.0}, {1: 0.0, 2: 2.0}) == {0: 1.0, 2: 2.0}


def test_sum_element_back_at_default_is_dropped():
    # Left(1.0) ⊕ Cl(-1.0) == Left(0.0), the element default, by the sum classes' ==
    assert apply_change(arr(2, SUM_RR), {0: Left(1.0)}, {0: Cl(-1.0)}) == {}
    # where an element's values are not its changes, an index new to v
    # takes ε ⊕ dᵢ, not dᵢ: Cl(0.0) and KEEP onto ε are ε, and not stored
    assert apply_change(arr(2, SUM_RR), {}, {0: Cl(0.0), 1: Cl(2.0)}) == {1: Left(2.0)}
    assert apply_change(arr(2, TBase(SCALAR)), {}, {0: KEEP, 1: "a"}) == {1: "a"}


SUM_CLASSES = (Left, Right, Cl, Cr, Sl, Sr)


def _sum_payload(x):
    match x:
        case Left(value=p):
            return "Left", p
        case Right(value=p):
            return "Right", p
        case Cl(change=p):
            return "Cl", p
        case Cr(change=p):
            return "Cr", p
        case Sl(value=p):
            return "Sl", p
        case Sr(value=p):
            return "Sr", p


@pytest.mark.parametrize("cls", SUM_CLASSES, ids=lambda c: c.__name__)
def test_sum_classes(cls):
    x = cls(1.0)
    others = [c for c in SUM_CLASSES if c is not cls]
    assert len(others) == 5
    assert all(type(x) is not c for c in others)
    assert x == cls(1.0) and cls({0: 1.0}) == cls({0: 1.0})
    assert x != cls(2.0)
    assert all(x != c(1.0) for c in others)
    with pytest.raises(TypeError):
        hash(x)
    assert not hasattr(x, "__dict__")
    assert repr(x) == f"{cls.__name__}(1.0)"
    assert _sum_payload(cls(2.5)) == (cls.__name__, 2.5)


def test_completeness_randomized():
    cfg = GenConfig()
    rng = stable_rng(5, "completeness-core")
    for _ in range(150):
        ty = gen_type(cfg, rng, depth=3,
                      containers=("arr", "rel", "dict", "tree"),
                      bases=("real", "int", "scalar"))
        x, y = gen_value(rng, ty), gen_value(rng, ty)
        assert values_equal(ty, apply_change(ty, x, diff_values(ty, y, x)), y, 1e-9)


def test_completeness_nat_reachable():
    cfg = GenConfig()
    rng = stable_rng(6, "completeness-nat")
    for _ in range(100):
        ty = gen_type(cfg, rng, depth=3, containers=("arr", "rel"),
                      bases=("nat", "int"))
        x, y = reachable_pair(rng, ty)
        assert values_equal(ty, apply_change(ty, x, diff_values(ty, y, x)), y)


def test_nil_law_randomized():
    cfg = GenConfig()
    rng = stable_rng(7, "nil-law")
    for _ in range(100):
        ty = gen_type(cfg, rng, depth=3, containers=("arr", "rel", "tree"),
                      bases=("real", "int", "nat", "scalar"))
        v = gen_value(rng, ty)
        assert values_equal(ty, apply_change(ty, v, nil_change(ty)), v)


def test_canonicality_of_apply_and_diff():
    cfg = GenConfig()
    rng = stable_rng(8, "canonical")
    for _ in range(100):
        ty = gen_type(cfg, rng, depth=3, containers=("arr", "rel"),
                      bases=("real", "int"))
        x = gen_value(rng, ty)
        d = gen_change(rng, ty)
        check_value(ty, apply_change(ty, x, d))
        y = gen_value(rng, ty)
        check_change(ty, diff_values(ty, y, x))


def test_tree_scalar_change_structure():
    S = TBase(SCALAR)
    assert apply_change(S, "a", KEEP) == "a"
    assert apply_change(S, "a", "b") == "b"
    assert apply_change(S, "a", None) is None  # deletion to the default
    assert diff_values(S, "a", "a") is KEEP
    assert diff_values(S, None, "a") is None
    assert apply_change(S, "a", diff_values(S, None, "a")) is None


def test_scalar_deletion_cancels_container_entry():
    ty = TCont(tree_shape(), TBase(SCALAR))
    v = {("title",): "x", ("year",): 1999}
    out = apply_change(ty, v, {("title",): None})
    assert support(out) == {("year",)}


def test_conformance_errors():
    with pytest.raises(ConformanceError):
        check_value(arr(2, R), {5: 1.0})  # index out of shape
    with pytest.raises(ConformanceError):
        check_value(arr(2, R), {0: 0.0})  # stored default
    with pytest.raises(ConformanceError):
        check_value(TProd(R, R), (1.0,))
    with pytest.raises(ConformanceError):
        check_value(SUM_RR, 1.0)


N = TBase(NAT)
S = TBase(SCALAR)
REL_II = TCont(rel_shape(("int", "int")), Z)

# One row per failure kind and nesting depth: (type, value, exact message).
CONFORMANCE_MESSAGES = [
    (R, True, "value: True is not a real scalar"),
    (Z, False, "value: False is not a int scalar"),
    (N, -1, "value: -1 is not a nat scalar"),
    (S, [1], "value: [1] is not a scalar scalar"),
    (arr(2, R), [1.0], "value: expected a mapping, got [1.0]"),
    (TProd(R, R), (1.0,), "value: expected a pair, got (1.0,)"),
    (SUM_RR, 1.0, "value: expected an injection, got 1.0"),
    (arr(2, R), {7: "a"}, "value[7]: invalid index for arr[2]"),
    (arr(3, R), {2: 0.0}, "value[2]: stored default breaks canonical form"),
    (REL_II, {(1, "a"): 1}, "value[(1, 'a')]: invalid index for rel[int*int]"),
    (REL_II, {(1, 2): 0}, "value[(1, 2)]: stored default breaks canonical form"),
    (REL_II, {(1, 2): 1.0}, "value[(1, 2)]: 1.0 is not a int scalar"),
    (TSum(R, Z), Right(1.5), "value.inr: 1.5 is not a int scalar"),
    (arr(2, arr(2, R)), {1: {0: "a"}}, "value[1][0]: 'a' is not a real scalar"),
    (arr(2, arr(2, R)), {0: {5: 1.0}}, "value[0][5]: invalid index for arr[2]"),
    (arr(2, arr(2, R)), {0: {}}, "value[0]: stored default breaks canonical form"),
    (arr(2, TProd(R, Z)), {0: (1.0, 2.5)}, "value[0].1: 2.5 is not a int scalar"),
    (TProd(R, arr(2, Z)), (1.0, {1: 0}), "value.1[1]: stored default breaks canonical form"),
    (TSum(arr(2, R), R), Left({0: 0.0}), "value.inl[0]: stored default breaks canonical form"),
    (arr(2, TSum(TProd(R, R), R)), {1: Left((1.0, "b"))},
     "value[1].inl.1: 'b' is not a real scalar"),
]


@pytest.mark.parametrize("ty, v, msg", CONFORMANCE_MESSAGES)
def test_conformance_message_table(ty, v, msg):
    with pytest.raises(ConformanceError) as e:
        check_value(ty, v)
    assert str(e.value) == msg


# The change side of the table above: one row per failure kind and path part.
CHANGE_MESSAGES = [
    (R, True, "change: True is not a real change"),
    (R, "a", "change: 'a' is not a real change"),
    (R, KEEP, "change: KEEP is not a real change"),
    (Z, 1.5, "change: 1.5 is not a int change"),
    (N, -5, "change: -5 is not a nat change"),
    (S, True, "change: True is not a scalar change"),
    (S, [1], "change: [1] is not a scalar change"),
    (arr(2, R), [1.0], "change: expected a change mapping, got [1.0]"),
    (TProd(R, R), (1.0,), "change: expected a pair change, got (1.0,)"),
    (SUM_RR, 1.0, "change: bad sum change 1.0"),
    (SUM_RR, Left(1.0), "change: bad sum change Left(1.0)"),
    (arr(2, R), {7: 1.0}, "change[7]: invalid index for arr[2]"),
    (arr(3, R), {2: 0.0}, "change[2]: stored nil breaks canonical form"),
    (REL_II, {(1, "a"): 1}, "change[(1, 'a')]: invalid index for rel[int*int]"),
    (arr(2, S), {0: KEEP}, "change[0]: stored nil breaks canonical form"),
    (arr(2, SUM_RR), {1: SUM_NULL}, "change[1]: stored nil breaks canonical form"),
    (arr(2, TProd(R, Z)), {0: (0.0, 0)}, "change[0]: stored nil breaks canonical form"),
    (arr(2, arr(2, R)), {0: {}}, "change[0]: stored nil breaks canonical form"),
    (arr(2, arr(2, R)), {1: {0: "a"}}, "change[1][0]: 'a' is not a real change"),
    (arr(2, TProd(R, Z)), {0: (1.0, 2.5)}, "change[0].1: 2.5 is not a int change"),
    (TProd(R, R), ("a", 1.0), "change.0: 'a' is not a real change"),
    (TProd(R, arr(2, N)), (1.0, {1: 0}), "change.1[1]: stored nil breaks canonical form"),
    (TSum(arr(2, R), R), Cl({0: 0.0}), "change.cl[0]: stored nil breaks canonical form"),
    (TSum(R, Z), Cr(1.5), "change.cr: 1.5 is not a int change"),
    (SUM_RR, Sl("a"), "change.sl: 'a' is not a real scalar"),
    (TSum(R, arr(2, R)), Sr({0: 0.0}), "change.sr[0]: stored default breaks canonical form"),
    (TSum(S, R), Sl(KEEP), "change.sl: KEEP is not a scalar scalar"),
]


@pytest.mark.parametrize("ty, d, msg", CHANGE_MESSAGES)
def test_change_conformance_message_table(ty, d, msg):
    with pytest.raises(ConformanceError) as e:
        check_change(ty, d)
    assert str(e.value) == msg


@pytest.mark.parametrize("ty, d", [
    (S, KEEP), (S, None), (S, "x"), (S, 3), (S, 2.5), (N, 0), (N, 4), (R, 3),
    (SUM_RR, SUM_NULL), (SUM_RR, Cl(0.0)), (TSum(S, R), Cl(KEEP)),
    (TSum(S, R), Sl(None)), (arr(2, S), {0: None, 1: "x"}),
    (arr(2, SUM_RR), {0: Sr(1.0)}), (TProd(R, arr(2, Z)), (0.0, {})),
])
def test_change_conformance_accepts(ty, d):
    check_change(ty, d)


def test_conformance_messages_with_a_path_and_from_changes():
    with pytest.raises(ConformanceError) as e:
        check_value(R, "x", "input")
    assert str(e.value) == "input: 'x' is not a real scalar"
    with pytest.raises(ConformanceError) as e:
        check_change(arr(2, R), {0: "x"}, "changes.jsonl:3")
    assert str(e.value) == "changes.jsonl:3[0]: 'x' is not a real change"
    with pytest.raises(ConformanceError) as e:
        check_change(SUM_RR, Sl("a"))
    assert str(e.value) == "change.sl: 'a' is not a real scalar"
    with pytest.raises(ConformanceError) as e:
        check_change(arr(2, SUM_RR), {0: Sr(True)})
    assert str(e.value) == "change[0].sr: True is not a real scalar"


class _Idx(int):
    """An int subclass: a valid array index that is not an exact int."""


def _deep_matrix(bad):
    """A 400×400 matrix of nonzero reals with entry (237, 311) set to bad."""
    m = {i: {j: 1.0 + (i * 400 + j) % 7 for j in range(400)} for i in range(400)}
    m[237][311] = bad
    return m


# Arrays of scalars pass a bulk test before the per-entry loop: one row per
# input the bulk test must hand back to the loop, with the loop's message,
# or None where the loop accepts.  The messages are those of the per-entry
# loop alone (a checker with no bulk test prints the same).
A4, Z4, N4, M4 = arr(4, R), arr(4, Z), arr(4, N), arr(4, arr(4, R))
BULK_CASES = [
    (A4, {True: 1.0}, "[True]: invalid index for arr[4]", None),
    (A4, {1.0: 1.0}, "[1.0]: invalid index for arr[4]", None),
    (A4, {-1: 1.0}, "[-1]: invalid index for arr[4]", None),
    (A4, {4: 1.0}, "[4]: invalid index for arr[4]", None),
    (A4, {0: 1.0, _Idx(3): 2.0}, None, None),
    (A4, {0: 1.0, 1: 0.0}, "[1]: stored default breaks canonical form",
     "[1]: stored nil breaks canonical form"),
    (A4, {2: -0.0}, "[2]: stored default breaks canonical form",
     "[2]: stored nil breaks canonical form"),
    (A4, {3: 0}, "[3]: stored default breaks canonical form",
     "[3]: stored nil breaks canonical form"),
    (A4, {0: True}, "[0]: True is not a real scalar", "[0]: True is not a real change"),
    (A4, {1: "a"}, "[1]: 'a' is not a real scalar", "[1]: 'a' is not a real change"),
    (A4, {0: "a", 9: 1.0}, "[0]: 'a' is not a real scalar", "[0]: 'a' is not a real change"),
    (A4, {0: 1.0, 3: 2}, None, None),
    (A4, {}, None, None),
    (Z4, {0: 1.5}, "[0]: 1.5 is not a int scalar", "[0]: 1.5 is not a int change"),
    (Z4, {1: False}, "[1]: False is not a int scalar", "[1]: False is not a int change"),
    (Z4, {2: 0}, "[2]: stored default breaks canonical form",
     "[2]: stored nil breaks canonical form"),
    (Z4, {_Idx(1): 5, 4: 1}, "[4]: invalid index for arr[4]", None),
    (Z4, {0: 3, 3: -2}, None, None),
    (N4, {0: -1}, "[0]: -1 is not a nat scalar", "[0]: -1 is not a nat change"),
    (N4, {1: 0}, "[1]: stored default breaks canonical form",
     "[1]: stored nil breaks canonical form"),
    (N4, {True: 1}, "[True]: invalid index for arr[4]", None),
    (N4, {0: 2, 3: 1}, None, None),
    (M4, {1: {True: 1.0}}, "[1][True]: invalid index for arr[4]", None),
    (M4, {0: {0: 1.0}, 2: {1: -0.0}}, "[2][1]: stored default breaks canonical form",
     "[2][1]: stored nil breaks canonical form"),
    (M4, {3: {2: "a"}}, "[3][2]: 'a' is not a real scalar", "[3][2]: 'a' is not a real change"),
    (M4, {0: {0: 1.0}, 3: {_Idx(3): 2.0}}, None, None),
    (arr(400, arr(400, R)), _deep_matrix(0.0),
     "[237][311]: stored default breaks canonical form",
     "[237][311]: stored nil breaks canonical form"),
    (arr(400, arr(400, R)), _deep_matrix(False),
     "[237][311]: False is not a real scalar", "[237][311]: False is not a real change"),
]


@pytest.mark.parametrize("ty, v, value_msg, change_msg", BULK_CASES)
def test_bulk_conformance_accepts_exactly_what_the_loop_accepts(ty, v, value_msg, change_msg):
    # a change's message differs from a value's only at scalars and stored
    # zeros; elsewhere the change row repeats the value row's tail
    change_msg = change_msg or value_msg
    for check, side, msg in [(check_value, "value", value_msg),
                             (check_change, "change", change_msg)]:
        if msg is None:
            check(ty, v)
            continue
        with pytest.raises(ConformanceError) as e:
            check(ty, v)
        assert str(e.value) == side + msg


def _loop_only(ty):
    """ty with every array shape's bulk index test removed."""
    if isinstance(ty, TCont):
        c = dataclasses.replace(ty.shape.container, valid_indices=None)
        return TCont(Shape(c, ty.shape.payload), _loop_only(ty.elem))
    return ty


def test_array_valid_indices_accepts_only_valid_key_sets():
    # valid_indices may reject a valid key set, never accept an invalid one;
    # and checking with it gives the message of the loop alone
    rng = stable_rng(60, "array-valid-indices")
    n = 5
    pool = [*range(-2, n + 2), True, False, 1.0, 0.0, _Idx(2), _Idx(n), 10 ** 20, "1", (1,)]
    accepted = 0
    for _ in range(2000):
        keys = dict.fromkeys(rng.sample(pool, rng.randint(0, 4))).keys()
        ok = ARRAY.valid_indices(n, keys)
        assert not ok or all(ARRAY.valid_index(n, i) for i in keys), list(keys)
        accepted += ok
        ty = arr(n, R)
        v = dict.fromkeys(keys, rng.choice([1.0, 2, 0.0, -0.0, True, "a"]))
        outs = []
        for t in (ty, _loop_only(ty)):
            try:
                check_value(t, v)
                outs.append(None)
            except ConformanceError as e:
                outs.append(str(e))
        assert outs[0] == outs[1]
    assert accepted > 200


def test_bad_literal_message_and_no_memo_across_builds():
    reg = oracle_registry()
    with pytest.raises(TermTypeError) as e:
        typecheck(Cst(arr(2, R), {0: "a"}), R, reg)
    assert str(e.value) == ("Cst at input real: literal does not conform: "
                            "value[0]: 'a' is not a real scalar")
    # each typecheck checks every entry again: a literal that passed once
    # and was then broken is caught on the next build
    w = {0: 1.0, 1: 2.0}
    typecheck(Cst(arr(2, R), w), R, reg)
    w[1] = 0.0
    with pytest.raises(TermTypeError, match=r"value\[1\]: stored default"):
        typecheck(Cst(arr(2, R), w), R, reg)


def test_default_values():
    assert default_value(R) == 0.0
    assert default_value(arr(2, R)) == {}
    assert default_value(TProd(R, Z)) == (0.0, 0)
    assert default_value(SUM_RR) == Left(0.0)


def test_base_flags_hold_on_samples():
    # declared flags are sampled, not taken on faith
    rng = stable_rng(9, "flags")
    for base in (REAL, INT, NAT):
        ty = TBase(base)
        assert base.values_are_changes
        for _ in range(200):
            x, y, z = (gen_value(rng, ty) for _ in range(3))
            xy = apply_change(ty, x, y)
            assert values_equal(ty, xy, apply_change(ty, y, x), 1e-9)
            assert values_equal(ty, apply_change(ty, xy, z),
                                apply_change(ty, x, apply_change(ty, y, z)), 1e-9)
    # the replacement base has no flags: ⊕ is not commutative there
    a = apply_change(TBase(SCALAR), "x", "y")
    b = apply_change(TBase(SCALAR), "y", "x")
    assert a != b


def test_update_fn_is_apply_fn_written_in_place():
    ty = TCont(rel_shape("int"), Z)
    rng = stable_rng(91, "update-fn")
    for _ in range(50):
        v = gen_value(rng, ty)
        d = gen_change(rng, ty)
        want = apply_fn(ty)(v, d)
        mine = own_copy(v)
        got = update_fn(ty)(mine, d)
        assert got == want
    assert update_fn(R) is apply_fn(R)
    # a nested container's elements are combined functionally, so two new
    # entries never share the element default they both started from
    nested = TCont(rel_shape("int"), arr(2, R))
    v = update_fn(nested)(own_copy({}), {(1,): {0: 1.0}, (2,): {1: 2.0}})
    assert v == {(1,): {0: 1.0}, (2,): {1: 2.0}}
    assert update_fn(nested)(v, {(3,): {0: 3.0}})[(1,)] == {0: 1.0}
    # an index new to v stores ε ⊕ dᵢ: dᵢ itself at a scalar element, and a
    # canonical copy at a nested one; an index v holds gets a fresh element
    for ty, v, d in [(arr(3, R), {0: 1.0}, {0: 2.0, 2: 1.0 / 3.0}),
                     (arr(3, arr(2, R)), {0: {1: 1.0}}, {0: {0: 2.0}, 2: {1: 5.0}})]:
        got = apply_fn(ty)(v, d)
        assert got[2] == d[2] and got[0] is not d[0]
        assert (got[2] is d[2]) == (ty.elem == R)
        assert got == {0: apply_change(ty.elem, v[0], d[0]), 2: d[2]}
    # a nested element change that carries an explicit nil comes out canonical
    nested = arr(2, arr(2, R))
    for v in [{}, {1: {0: 1.0}}]:
        got = apply_change(nested, v, {0: {1: 0.0}})
        assert got == v
        check_value(nested, got)
        got = update_fn(nested)(own_copy(v), {0: {1: 0.0, 0: 2.0}})
        assert got == {**v, 0: {0: 2.0}}
        check_value(nested, got)


@pytest.mark.parametrize("ty, x, y", [
    (arr(6, R), {0: 1.0, 2: 2.0, 4: -1.0}, {5: 3.0, 2: -2.0, 1: 0.5, 4: 1.5}),
    (arr(4, arr(3, R)), {0: {0: 1.0}, 2: {1: 2.0}, 3: {2: 1.0}},
     {1: {0: 3.0}, 2: {1: -2.0}, 0: {2: 4.0}, 3: {2: 1.0}}),
], ids=["arr-real", "arr-arr-real"])
def test_add_fn_is_the_merge_on_a_copy_of_x(ty, x, y):
    # x ⊕ y keeps x's keys in order, cancelled ones dropped, then y's new
    # keys in y's order, each holding y's own entry; neither side is written
    then = copy.deepcopy((x, y))
    out = add_fn(ty)(x, y)
    assert (x, y) == then
    ap = apply_fn(ty.elem)
    want = {i: ap(xi, y[i]) if i in y else xi for i, xi in x.items()}
    want = {i: v for i, v in want.items() if v != default_value(ty.elem)}
    assert list(out) == [*want, *(i for i in y if i not in x)]
    assert all(out[i] == v for i, v in want.items())
    assert all(out[i] is y[i] for i in y if i not in x)
    assert add_fn(ty)(x, {}) is x and add_fn(ty)({}, y) is y


def test_update_fn_compacts_a_relation_that_lost_half_its_tuples():
    ty = TCont(rel_shape("int"), Z)
    v = own_copy({(i,): 1 for i in range(1_000)})
    held = v
    v = update_fn(ty)(v, {(i,): -1 for i in range(400)})
    assert v is held  # 600 of 1,000 left: kept in place
    v = update_fn(ty)(v, {(i,): -1 for i in range(400, 520)})
    assert v is not held  # 480 < 500: copied
    assert v == {(i,): 1 for i in range(520, 1_000)}


def _fresh(rng, elem):
    """A random element other than the default."""
    while True:
        e = gen_value(rng, elem)
        if e != default_value(elem):
            return e


def _churn_change(rng, elem, v, keys, k):
    """A canonical change that inserts k entries, deletes k and updates k."""
    dft = default_value(elem)
    d = {i: diff_values(elem, _fresh(rng, elem), dft)
         for i in rng.sample([i for i in keys if i not in v], k)}
    old = rng.sample(list(v), 2 * k)
    d.update((i, diff_values(elem, dft, v[i])) for i in old[:k])
    d.update((i, diff_values(elem, _fresh(rng, elem), v[i])) for i in old[k:])
    return {i: di for i, di in d.items() if not is_nil(elem, di)}


@pytest.mark.parametrize("ty, keys", [
    (TCont(rel_shape(("int", "int")), Z), [(i, j) for i in range(30) for j in range(30)]),
    (arr(400, R), range(400)),
    (arr(60, arr(4, R)), range(60)),
])
def test_functional_apply_on_a_clone_is_the_merge_on_a_rebuilt_dict(ty, keys):
    # apply_fn's container ⊕ clones v and updates the clone; it must give
    # what the ⊕ loop gives on dict(v), entry for entry and in key order,
    # and leave v as it was, also when v carries deleted slots
    rng = stable_rng(24, f"clone-apply:{ty!r}")
    keys, elem = list(keys), ty.elem
    merge = _merge_fn(elem, isinstance(elem, TBase))  # as update_fn shares at R and Z
    for dropped in (0.2, 0.5):  # a clone of the table, and a compacting copy
        v = {i: _fresh(rng, elem) for i in rng.sample(keys, len(keys) // 2)}
        for i in rng.sample(list(v), int(dropped * len(v))):
            del v[i]  # leaves a deleted slot in v's table
        for _ in range(20):
            d = _churn_change(rng, elem, v, keys, 5)
            then = copy.deepcopy(v)
            want = merge(dict(v), d)
            got = apply_fn(ty)(v, d)
            assert list(got.items()) == list(want.items())
            assert list(v.items()) == list(then.items())
            v = got


def test_functional_apply_keeps_a_churned_table_right_sized():
    ty = TCont(rel_shape(("int", "int")), Z)
    ap = apply_fn(ty)
    y = {(i, 0): 1 for i in range(2_000)}
    for k in range(3_000):
        # the 50 oldest tuples out, 50 new ones in
        lo, hi = 50 * k, 2_000 + 50 * k
        d = {(i, 0): -1 for i in range(lo, lo + 50)}
        d.update({(i, 0): 1 for i in range(hi, hi + 50)})
        y = ap(y, d)
        assert len(y) == 2_000
        assert sys.getsizeof(y) == sys.getsizeof(dict(y)), k
    # shrinking 20,000 -> 1,000 tuples, 100 a step, stays within 2x
    y = {(i, 0): 1 for i in range(20_000)}
    worst = 1.0
    for lo in range(0, 19_000, 100):
        y = ap(y, {(i, 0): -1 for i in range(lo, lo + 100)})
        worst = max(worst, sys.getsizeof(y) / sys.getsizeof(dict(y)))
    assert len(y) == 1_000 and worst <= 2.0, worst


def _wide_product(k):
    ty = R
    for i in range(k - 1):
        ty = TProd(Z if i % 2 else R, ty)
    return ty


def test_a_type_hashes_once_however_deep():
    # types are interned: a 2,000-component product built twice is one
    # object, which hashes by identity without recursing (800 used to fail)
    assert sys.getrecursionlimit() <= 1000
    a, b = _wide_product(2_000), _wide_product(2_000)
    assert a is b and hash(a) == hash(b)
    assert a.right is _wide_product(1_999) and hash(a) != hash(a.right)
    assert TSum(R, Z) is TSum(R, Z) and TSum(R, Z) is not TSum(Z, R)
    assert arr(3, R) is TCont(Shape(ARRAY, 3), R)
    assert rel_shape(("int", "str")) is rel_shape(("int", "str"))


def test_products_compare_without_recursion():
    # at the default recursion limit, 2,000-component products built apart
    # are one object, so they compare by identity (400 used to fail)
    assert sys.getrecursionlimit() <= 1000
    a, b = _wide_product(2_000), _wide_product(2_000)
    assert a is b and a == b and not a != b and {a: 1}[b] == 1
    assert a != _wide_product(1_999) and _wide_product(1_999) != a
    for k in (0, 1_000, 1_998):
        # one component differs: the k-th left, or the innermost right
        spine, ty = [], b
        for _ in range(k):
            spine.append(ty.left)
            ty = ty.right
        ty = TProd(TSum(R, Z), ty.right) if k < 1_998 else TProd(ty.left, Z)
        for left in reversed(spine):
            ty = TProd(left, ty)
        assert ty is not a and a != ty and ty != a and not a == ty


@pytest.mark.parametrize("nest", [lambda ty, c: TSum(c, ty), lambda ty, c: TProd(ty, c)],
                         ids=["right-nested-sum", "left-nested-product"])
def test_sums_and_left_nested_products_compare_without_recursion(nest):
    # at the default recursion limit, 2,000-wide sums and left-nested
    # products built apart are one object, which hashes and compares by
    # identity (400 used to fail); one differing component, first, middle or
    # last, makes another object
    assert sys.getrecursionlimit() <= 1000

    def wide(odd=None):
        ty = R
        for i in range(1, 2_000):
            ty = nest(ty, Z if i == odd else R)
        return ty
    a, b = wide(), wide()
    assert a is b and a == b and not a != b and {a: 1}[b] == 1
    for odd in (1, 1_000, 1_999):
        other = wide(odd)
        assert other is not a and a != other and other != a and not a == other


def test_equal_types_built_apart_hit_one_cache_entry():
    calls = []

    @cache
    def made(ty):
        calls.append(ty)
        return len(calls)

    for build in (lambda: TProd(arr(3, R), TSum(R, Z)),
                  lambda: TCont(rel_shape(("int", "int")), Z)):
        assert made(build()) == made(build()) == len(calls)
    assert len(calls) == 2


def test_a_pickled_type_hashes_as_one_built_here():
    # a str's hash differs per process, so a pickle carries the fields and
    # the constructor hands back the one type built here
    src = str(Path(deltic.__file__).resolve().parents[1])
    code = ("import pickle, sys; from deltic.core import *; "
            "sys.stdout.write(pickle.dumps(TProd(TBase(REAL), TSum(TBase(INT), TBase(REAL)))).hex())")
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    here = TProd(R, TSum(Z, R))
    assert pickle.loads(bytes.fromhex(proc.stdout)) is here
    assert pickle.loads(pickle.dumps(here)) is here
    # a container's shape holds its functions, so it copies but does not pickle
    for ty in (here, arr(3, R), rel_shape(("int", "str"))):
        assert copy.copy(ty) is ty and copy.deepcopy(ty) is ty


def test_a_type_cannot_change():
    # every holder shares the one interned object, so no field may change
    ty = TCont(Shape(ARRAY, 3), TProd(R, TSum(Z, R)))
    for obj, name in [(ty, "elem"), (ty.shape, "payload"), (ty.elem, "left"),
                      (ty.elem.right, "right"), (R, "base"), (ty, "extra")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, Z)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert ty.elem.left is R and ty.shape.payload == 3 and ty is arr(3, TProd(R, TSum(Z, R)))


def test_dead_types_leave_the_intern_table():
    gc.collect()
    before = len(core._INTERNED)
    alive = [TProd(arr(n, R), Z) for n in range(10_000)]
    assert len(core._INTERNED) >= before + 10_000
    del alive
    gc.collect()
    assert len(core._INTERNED) == before


@pytest.mark.parametrize("one", [SUM_NULL, KEEP], ids=repr)
def test_singletons_survive_copy_and_pickle(one):
    # both are compared by identity, so a copy must be the one instance
    assert copy.copy(one) is one and copy.deepcopy(one) is one
    assert pickle.loads(pickle.dumps(one)) is one
    assert copy.deepcopy([one, (one,)]) == [one, (one,)]


def test_a_deep_copied_keep_keeps_the_value():
    scalar = TBase(SCALAR)
    assert apply_change(scalar, "a", copy.deepcopy(KEEP)) == "a"
    assert apply_change(TSum(R, R), Left(1.0), copy.deepcopy(SUM_NULL)) == Left(1.0)
    tree = TCont(tree_shape(), scalar)
    assert apply_change(tree, {(): "a"}, pickle.loads(pickle.dumps({(): KEEP}))) == {(): "a"}
