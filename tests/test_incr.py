"""Combinators, the incrementalization transformation, and iterated updates."""

import copy
import json
import pickle
import sys
import traceback
import tracemalloc
from array import array
from contextlib import nullcontext
from dataclasses import fields, replace
from itertools import groupby

import pytest

from deltic import calculus as ca
from deltic import frontend as fe
from deltic import incr
from deltic.calculus import (
    CasePar, Cst, Dup, ID, Map, OpCall, Plus, Seq, denote, map2, seq, typecheck,
)
from deltic.core import (
    INT, NAT, REAL, SCALAR, Cl, Cr, Left, Right, Sl, Sr, SUM_NULL, SupportError, TBase,
    TCont, TProd, TSum, UsageError, apply_change, apply_fn, default_value, diff_fn, is_nil,
    is_nil_fn, index_sort_key, nil_change, values_equal,
)
from deltic.domains import gcounter, linalg, relalg, trees
from deltic.domains.containers import ARRAY, RELATION, arr, arr_shape, dict_shape, rel_shape
from deltic.incr import (
    CUnit, cache_entry_count, cache_equal, cache_to_json, comb_add,
    comb_bilin, comb_lin, comb_self, comb_triv, comb_triv2,
    incrementalize, UNIT,
)
from deltic.oracle import (
    COMBINATORS, TERM_CONSTRUCTS, GenConfig, _combinator_instances, _construct_term,
    _TermGen, _run_stream, check_machine_laws, check_term_laws, gen_change, gen_index,
    gen_term, gen_type, gen_value, inject_fault, oracle_registry, stable_rng,
)
from deltic.serialize import change_to_text, index_to_json, value_to_text
from helpers import call_codes, step_through

R = TBase(REAL)
Z = TBase(INT)
N = TBase(NAT)


def relu(x):
    return x if x > 0 else 0.0


def mul(xy):
    return xy[0] * xy[1]


def test_triv_relu_example():
    m = comb_triv(relu, R, R)
    y, c = m.init(-1.0)
    assert (y, c) == (0.0, -1.0)
    dy, c = m.step(3.0, c)
    assert (dy, c) == (2.0, 2.0)


def test_triv_nil_step_is_effective_nil():
    m = comb_triv(relu, R, R)
    y, c = m.init(4.0)
    dy, c2 = m.step(0.0, c)
    assert dy == 0.0 and c2 == 4.0


def test_triv_mul_example():
    m = comb_triv(mul, TProd(R, R), R)
    y, c = m.init((3.0, 4.0))
    assert y == 12.0 and c == (3.0, 4.0)
    dy, c = m.step((1.0, 0.0), c)
    assert dy == 4.0 and c == (4.0, 4.0)


def test_triv2_relu_example():
    m = comb_triv2(relu, R, R)
    y, c = m.init(-1.0)
    assert y == 0.0 and c == (-1.0, 0.0)
    dy, c = m.step(3.0, c)
    assert dy == 2.0 and c == (2.0, 2.0)


def test_triv2_matches_triv_outputs():
    rng = stable_rng(31, "triv2")
    m1 = comb_triv(mul, TProd(R, R), R)
    m2 = comb_triv2(mul, TProd(R, R), R)
    for _ in range(100):
        x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        dx = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        d1, _ = m1.step(dx, m1.init(x)[1])
        d2, _ = m2.step(dx, m2.init(x)[1])
        assert abs(d1 - d2) < 1e-9


def test_self_zip_derivative():
    reg = oracle_registry()
    ty = TProd(arr(3, R), arr(3, R))
    tt = typecheck(ca.Zip(), ty, reg)
    m = incrementalize(tt)
    assert isinstance(m.cache, CUnit)
    dy, _ = m.step(({0: 1.0}, {2: 5.0}), UNIT)
    assert dy == {0: (1.0, 0.0), 2: (0.0, 5.0)}


def test_self_cst_derivative_is_nil():
    reg = oracle_registry()
    tt = typecheck(Cst(arr(2, R), {0: 7.0}), R, reg)
    m = incrementalize(tt)
    y, c = m.init(1.0)
    assert y == {0: 7.0}
    dy, _ = m.step(5.0, c)
    assert dy == {}


def test_self_dup_derivative():
    reg = oracle_registry()
    tt = typecheck(Dup(), R, reg)
    m = incrementalize(tt)
    dy, _ = m.step(2.5, UNIT)
    assert dy == (2.5, 2.5)


def test_lin_sum_example():
    vsum = lambda v: float(sum(v.values()))
    m = comb_lin(vsum, arr(4, R), R)
    y, c = m.init({0: 1.0, 1: 2.0})
    assert y == 3.0 and c is UNIT
    dy, _ = m.step({1: 5.0}, c)
    assert dy == 5.0


def test_lin_rejects_unflagged_types():
    from deltic.core import SCALAR, TBase as TB
    with pytest.raises(ca.TermTypeError):
        comb_lin(lambda x: x, TB(SCALAR), TB(SCALAR))


def test_lin_identity():
    m = comb_lin(lambda x: x, Z, Z)
    dy, _ = m.step(7, UNIT)
    assert dy == 7


def test_bilin_cross_example():
    bundle = relalg.register_relalg()
    cross = bundle.registry.ops["cross"]
    in_ty = TProd(relalg.rel("str"), relalg.rel("str"))
    m = incr.op_machine(cross, in_ty, cross.typer(in_ty))
    y, c = m.init(({"t": 1}, {"u": 1}))
    assert y == {("t", "u"): 1}
    dy, c = m.step(({"t2": 1}, {}), c)
    assert dy == {("t2", "u"): 1}
    assert c == ({"t": 1, "t2": 1}, {"u": 1}, UNIT)
    # both-nil step: effective nil out, cache unchanged
    dy, c = m.step(({}, {}), c)
    assert dy == {}
    assert c == ({"t": 1, "t2": 1}, {"u": 1}, UNIT)


@pytest.mark.parametrize("comb", ["trivial", "self", None, ["triv"]])
def test_an_unknown_combinator_is_a_named_usage_error(comb):
    reg = oracle_registry()
    reg.register_op(ca.OpDef("v_bad", ca.monomorphic(R, R), relu, comb, (R,)))
    tt = typecheck(OpCall("v_bad"), R, reg)
    with pytest.raises(UsageError) as err:
        incrementalize(tt)
    assert "'v_bad'" in str(err.value) and repr(comb) in str(err.value)


def test_domains_declare_combinators_and_build_no_machine():
    # a bundle names its op's combinator (OpDef.comb); only incr builds machines
    import ast
    from pathlib import Path
    from deltic import domains
    paths = sorted(Path(domains.__file__).parent.glob("*.py"))
    assert {"linalg.py", "relalg.py", "trees.py", "gcounter.py"} <= {p.name for p in paths}
    calls = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if name.startswith("comb_"):
                    calls.append((path.name, node.lineno, name))
    assert calls == []


def test_add_examples():
    m = comb_add(Z)
    y, c = m.init((1, 2))
    assert y == 3
    dy, _ = m.step((10, 20), c)
    assert dy == 30
    assert m.step((0, 0), UNIT)[0] == 0
    mn = comb_add(N)
    assert mn.init((2, 3))[0] == 5
    assert mn.step((1, 0), UNIT)[0] == 1


def test_incrementalize_mvmul_column_change():
    bundle = linalg.register_linalg()
    in_ty = TProd(arr(2, arr(2, R)), arr(2, R))
    tt = typecheck(linalg.mvmul_term(2, 2), in_ty, bundle.registry)
    m = incrementalize(tt)
    M = {0: {0: 1.0, 1: 2.0}, 1: {0: 3.0, 1: 4.0}}
    v = {0: 5.0, 1: 6.0}
    y, c = m.init((M, v))
    assert y == {0: 17.0, 1: 39.0}
    dy, c = m.step(({}, {0: 1.0}), c)
    assert values_equal(arr(2, R), dy, {0: 1.0, 1: 3.0}, 1e-12)


def test_incrementalize_dup_plus():
    reg = oracle_registry()
    tt = typecheck(Seq(Dup(), Plus()), Z, reg)
    m = incrementalize(tt)
    y, c = m.init(5)
    assert y == 10
    dy, _ = m.step(3, c)
    assert dy == 6


def test_case_branch_switch_uses_fresh_init():
    reg = oracle_registry()
    tt = typecheck(CasePar(OpCall("o_relu"), OpCall("o_shift5")), TSum(R, R), reg)
    m = incrementalize(tt)
    y, c = m.init(Right(1.0))
    assert y == Right(6.0)
    dy, c = m.step(Sl(-2.0), c)
    # switching to the left branch initializes relu there
    assert dy == Sl(0.0)
    assert type(c) is Left and c.value[1] == 0.0
    # switching within the same side emits a local change against the cache
    dy, c = m.step(Sl(4.0), c)
    assert dy == Cl(4.0)
    dy, c = m.step(SUM_NULL, c)
    assert dy is SUM_NULL


def test_case_cache_json_on_each_side():
    # the live side's (sub-cache, previous output), tagged with its side
    reg = oracle_registry()
    tt = typecheck(CasePar(OpCall("o_relu"), Map(OpCall("o_shift5"))),
                   TSum(R, arr(3, R)), reg)
    m = incrementalize(tt)
    _, c = m.init(Left(-1.0))
    dy, c = m.step(Cl(3.0), c)
    assert dy == Cl(2.0)
    assert cache_to_json(m.cache, c) == {
        "case_left": [[{"value": 2.0}, {"value": 2.0}], 2.0]}
    dy, c = m.step(Sr({0: 1.0, 2: -5.0}), c)
    assert dy == Sr({0: 6.0, 1: 5.0})
    assert cache_to_json(m.cache, c) == {"case_right": ["unit", [[0, 6.0], [1, 5.0]]]}
    dy, c = m.step(Cr({2: 5.0}), c)
    assert dy == Cr({2: 5.0})
    assert cache_to_json(m.cache, c) == {
        "case_right": ["unit", [[0, 6.0], [1, 5.0], [2, 5.0]]]}


@pytest.mark.parametrize("build", ["fuse", "distr"])
def test_an_untouched_sum_side_steps_in_memory_flat_in_n(build):
    # a step that leaves the live side as it is hands out a nil built once:
    # fuse stepped by Cr on a Left, distr by SUM_NULL, over arr[n] real
    reg = oracle_registry()
    peaks = []
    for n in (1_000, 10_000):
        side = arr(n, R)
        live = {i: float(i + 1) for i in range(n)}
        if build == "fuse":
            tt = typecheck(ca.Fuse(), TSum(side, side), reg)
            x, d, want = Left(live), Cr({0: 1.0}), {}
        else:
            tt = typecheck(ca.Distr(), TProd(R, TSum(side, side)), reg)
            x, d, want = (1.0, Left(live)), (0.0, SUM_NULL), SUM_NULL
        m = incrementalize(tt)
        _, c = m.init(x)
        tracemalloc.start()
        try:
            dy, c = m.step(d, c)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert dy == want
    # under 1 KB at both sizes: a nil dict of 1,000 entries alone is 36 KB
    assert max(peaks) < 1024, peaks


def _one_entry_sum_machines(n):
    """(name, machine, input, change at k) for the sum machines over arr[n]
    real, each stepped by a one-entry change to its live side."""
    side = arr(n, R)
    reg = linalg.register_linalg().registry
    relu = Map(OpCall("relu"))
    live = {i: float(i + 1) for i in range(n)}
    builds = [
        ("fuse", ca.Fuse(), TSum(side, side), Left(live), lambda k: Cl({k: 1.0})),
        ("case", CasePar(relu, relu), TSum(side, side), Left(live), lambda k: Cl({k: 1.0})),
        ("distr ; case", seq(ca.Distr(), CasePar(ca.SND, ca.SND)), TProd(R, TSum(side, side)),
         (1.0, Left(live)), lambda k: (0.0, Cl({k: 1.0}))),
    ]
    return [(name, incrementalize(typecheck(t, ty, reg)), x, d) for name, t, ty, x, d in builds]


def test_a_live_sum_side_steps_in_memory_flat_in_n():
    # case, distr and fuse ⊕ a live-side change into the container they own,
    # so a one-entry step allocates no copy of it at any size
    peaks = {}
    for n in (1_000, 10_000, 100_000):
        for name, m, x, d in _one_entry_sum_machines(n):
            _, c = m.init(x)
            top = 0
            for k in range(5):
                tracemalloc.start()
                try:
                    _, c = m.step(d(k * 7), c)
                    top = max(top, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks[name, n] = top
    # under 4 KB at every size: a copy of the 1,000-entry side alone is 36 KB
    assert max(peaks.values()) < 4096, peaks


def test_distr_passes_an_untouched_side_on_as_sum_null():
    side = arr(3, R)
    reg = oracle_registry()
    m = incrementalize(typecheck(seq(ca.Distr(), CasePar(ca.SND, ca.SND)),
                                 TProd(R, TSum(side, side)), reg))
    _, c = m.init((1.0, Left({0: 1.0})))
    for d in [(0.0, SUM_NULL), (0.0, Cr({1: 2.0}))]:
        held = c[1]  # the case stage's cache
        dy, c = m.step(d, c)
        assert dy is SUM_NULL
        # the case after distr hands SUM_NULL on without stepping its branch,
        # which would make it a new cache
        assert c[1] is held
    # a map over distr keeps no entry for such an element
    elem = TProd(R, TSum(R, R))
    mm = incrementalize(typecheck(Map(ca.Distr()), arr(2, elem), reg))
    _, c = mm.init({0: (1.0, Left(2.0)), 1: (3.0, Right(4.0))})
    dy, c = mm.step({0: (0.0, Cr(5.0)), 1: (1.0, SUM_NULL)}, c)
    assert dy == {1: Cr((1.0, 0.0))}


def _owned_triv2_op(reg, ty):
    """Register v_same, a triv2 op whose fn returns its input, so the
    machine's init output is the input itself and also sits in its cache."""
    reg.register_op(ca.OpDef("v_same", ca.monomorphic(ty, ty), lambda v: v, "triv2", (ty,)))
    return OpCall("v_same")


@pytest.mark.parametrize("build", ["fuse", "distr", "case", "distr ; case"])
def test_sum_machines_own_what_they_cache(build):
    # a stream of live-side steps, untouched-side steps and switches writes
    # into no input, change or output that the machine was given or gave out
    a = arr(3, R)
    reg = oracle_registry()
    stream = [Cl({0: 1.0, 2: -3.0}), Cr({1: 5.0}), Sr({0: 2.0}), Cr({0: 1.0, 1: 1.0}),
              Sr({2: 4.0}), Sl({1: 7.0}), Cl({1: -7.0, 2: 6.0}), Sl({0: 8.0}),
              Cl({0: 1.0}), SUM_NULL, Cl({2: 1.0})]
    if build == "fuse":
        term, in_ty, x, ds = ca.Fuse(), TSum(a, a), Left({0: 1.0, 1: 2.0}), stream
    elif build == "case":
        term, in_ty = CasePar(ID, _owned_triv2_op(reg, a)), TSum(a, a)
        x, ds = Left({0: 1.0, 1: 2.0}), stream
    else:
        term = ca.Distr() if build == "distr" else seq(ca.Distr(), CasePar(ca.SND, ca.SND))
        in_ty, x = TProd(a, TSum(a, a)), ({0: 3.0}, Left({0: 1.0, 1: 2.0}))
        ds = [({1: 1.0} if k % 3 else {}, d) for k, d in enumerate(stream)]
    tt = typecheck(term, in_ty, reg)
    m, fn, out_ty = incrementalize(tt), ca.compiled(tt), tt.out_ty

    def text(ty, x, ds):
        return [value_to_text(ty, x)] + [change_to_text(ty, d) for d in ds]

    given = text(in_ty, x, ds)
    y, c = m.init(x)
    out = [y]
    out_then = [value_to_text(out_ty, y)]
    for d in ds:
        dy, c = m.step(d, c)
        out.append(dy)
        out_then.append(change_to_text(out_ty, dy))
    assert text(in_ty, x, ds) == given
    assert text(out_ty, out[0], out[1:]) == out_then
    for d, dy in zip(ds, out[1:]):
        x = apply_change(in_ty, x, d)
        y = apply_change(out_ty, y, dy)
    assert y == fn(x)
    assert cache_equal(m.cache, c, m.init(x)[1])


@pytest.mark.parametrize("term, in_ty, x, d", [
    (ca.Fuse(), TSum(R, R), Left(1.0), Left(2.0)),
    (ca.Distr(), TProd(R, TSum(R, R)), (1.0, Right(2.0)), (0.0, 3.0)),
    (CasePar(OpCall("o_relu"), OpCall("o_shift5")), TSum(R, R), Left(1.0), Right(2.0)),
])
def test_sum_machines_reject_a_malformed_sum_change(term, in_ty, x, d):
    m = incrementalize(typecheck(term, in_ty, oracle_registry()))
    _, c = m.init(x)
    with pytest.raises(UsageError, match="bad sum change"):
        m.step(d, c)


def test_a_two_sided_cross_change_calls_fn_twice():
    # the product rule f(dx, y) ⊕ f(x ⊕ dx, dy): one call per changed side
    calls = []

    def cross(xy):
        calls.append(xy)
        return relalg._cross(xy)

    in_ty = TProd(relalg.rel("str"), relalg.rel("str"))
    m = comb_bilin(cross, in_ty, relalg.rel(("str", "str")))
    _, c = m.init(({"t": 1}, {"u": 1}))
    calls.clear()
    dy, c = m.step(({"t2": 1}, {"u2": 2}), c)
    assert len(calls) == 2
    assert dy == {("t2", "u"): 1, ("t", "u2"): 2, ("t2", "u2"): 2}
    assert c == ({"t": 1, "t2": 1}, {"u": 1, "u2": 2}, UNIT)


def test_iter_matches_batch_on_dense():
    bundle = linalg.register_linalg()
    rng = stable_rng(32, "iter-dense")
    n = 4
    M = {i: {j: rng.uniform(-1, 1) for j in range(n)} for i in range(n)}
    b = {i: rng.uniform(-1, 1) for i in range(n)}
    tt = typecheck(linalg.dense_term(n, n, M, b), arr(n, R), bundle.registry)
    m = incrementalize(tt)
    x = {i: rng.uniform(-1, 1) for i in range(n)}
    ds = [{rng.randrange(n): rng.uniform(-1, 1)} for _ in range(3)]
    got, _, x2 = step_through(m, x, ds)
    assert values_equal(arr(n, R), got, denote(tt, x2), 1e-6)


def test_self_maintainable_closure_has_unit_cache():
    # terms from the cache-free set compose to cache-free machines
    from deltic.domains.containers import arr_shape
    reg = oracle_registry()
    term = seq(Dup(), ca.Par(ID, Cst(R, 1.0)), Plus(), ca.Replicate(arr_shape(3)))
    tt = typecheck(term, R, reg)
    m = incrementalize(tt)
    assert m.cache == CUnit() and m.deriv is not None
    assert cache_to_json(m.cache, m.init(2.0)[1]) == "unit"
    assert cache_entry_count(m.cache, m.init(2.0)[1]) == 0


def test_sparse_step_equals_dense_step():
    """Stepping only the change's support matches stepping every index."""
    bundle = linalg.register_linalg()
    reg = bundle.registry
    n = 4
    tt = typecheck(map2(OpCall("mul")), TProd(arr(n, R), arr(n, R)), reg)
    rng = stable_rng(33, "sparse-dense")
    for _ in range(30):
        x = ({i: rng.uniform(-3, 3) for i in range(n)},
             {i: rng.uniform(-3, 3) for i in range(n)})
        sparse = ({1: rng.uniform(-1, 1)}, {})
        dense = ({i: sparse[0].get(i, 0.0) for i in range(n)},
                 {i: 0.0 for i in range(n)})
        m1 = incrementalize(tt)
        m2 = incrementalize(tt)
        y1, c1 = m1.init(x)
        y2, c2 = m2.init(x)
        d1, c1 = m1.step(sparse, c1)
        d2, c2 = m2.step(dense, c2)  # nil entries materialized: the dense oracle
        assert values_equal(arr(n, R), apply_change(arr(n, R), y1, d1),
                            apply_change(arr(n, R), y2, d2), 1e-12)
        assert cache_equal(m1.cache, c1, c2, 1e-12)


def test_effective_nils_flow_through_downstream():
    # a Triv stage emits x ⊖ x (often 0.0) rather than omitting it; downstream
    # machines must treat it exactly like the canonical nil
    reg = oracle_registry()
    tt = typecheck(seq(OpCall("o_relu"), OpCall("o_relu")), R, reg)
    m = incrementalize(tt)
    y, c = m.init(-5.0)
    dy, c = m.step(1.0, c)  # still negative: inner change is effectively nil
    assert y == 0.0 and dy == 0.0
    dy, c = m.step(10.0, c)
    assert dy == 6.0


def test_laws_hold_for_random_terms_quick():
    cfg = GenConfig()
    rng = stable_rng(34, "laws-quick")
    reg = oracle_registry()
    for _ in range(40):
        in_ty = gen_type(cfg, rng, depth=2)
        tt = gen_term(cfg, rng, reg, in_ty)
        m = incrementalize(tt)
        rep = check_machine_laws("quick", m, ca.compiled(tt), rng, samples=5,
                                 rel_tol=1e-9)
        assert rep.passed, (ca.term_to_text(tt.term), rep.failures)


def test_dense_machine_laws_200_samples():
    # the dense layer machine against the full-reevaluation oracle
    bundle = linalg.register_linalg()
    rng = stable_rng(35, "dense-laws")
    n = 3
    M = {i: {j: rng.uniform(-1, 1) for j in range(n)} for i in range(n)}
    b = {i: rng.uniform(-1, 1) for i in range(n)}
    tt = typecheck(linalg.dense_term(n, n, M, b), arr(n, R), bundle.registry)
    m = incrementalize(tt)
    rep = check_machine_laws("dense", m, ca.compiled(tt), rng, samples=200,
                             rel_tol=1e-9)
    assert rep.passed, rep.failures


def test_distinct_machine_instances_run_concurrently():
    # one machine's step sequence is sequential state; distinct instances
    # (even of the same term) must not interfere
    import threading
    bundle = linalg.register_linalg()
    in_ty = TProd(arr(3, arr(3, R)), arr(3, R))
    tt = typecheck(linalg.mvmul_term(3, 3), in_ty, bundle.registry)
    rng = stable_rng(36, "threads")
    M = {i: {j: rng.uniform(-1, 1) for j in range(3)} for i in range(3)}
    v = {i: rng.uniform(-1, 1) for i in range(3)}
    results = {}

    def worker(k):
        m = incrementalize(tt)
        y, c = m.init((M, v))
        for s in range(40):
            dy, c = m.step(({}, {s % 3: 0.5 + k}), c)
            y = apply_change(arr(3, R), y, dy)
        results[k] = y

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k, got in results.items():
        x = (M, v)
        for s in range(40):
            x = apply_change(in_ty, x, ({}, {s % 3: 0.5 + k}))
        assert values_equal(arr(3, R), got, denote(tt, x), 1e-9)


def _let_chain(stages, n):
    """Surface program: `stages` lets of h_i = relu(h_{i-1} + b) over (x, b)."""
    lines = ["bundle linalg", f"param x : arr[{n}] real", f"param b : arr[{n}] real", ""]
    prev = "x"
    for i in range(1, stages + 1):
        lines.append(f"let h{i} = map relu # map2 add # ({prev}, b);")
        prev = f"h{i}"
    lines.append(prev)
    bundle, prog = fe.parse_program_file("\n".join(lines) + "\n")
    return fe.compile_program(prog, bundle.registry, bundle.literal_base)


def _one_step_calls(m, x, d):
    """Python calls made by one step of m on the change d after init(x)."""
    return len(call_codes(m.step, d, m.init(x)[1])[1])


def _step_calls(stages, n=8):
    """Python calls made by one step of a `stages`-long let chain."""
    m = incrementalize(_let_chain(stages, n))
    rng = stable_rng(37, "let-calls")
    x = ({i: rng.uniform(-1, 1) for i in range(n)},
         {i: rng.uniform(-1, 1) for i in range(n)})
    return _one_step_calls(m, x, ({0: 0.5, 3: -0.25}, {}))


def test_let_chain_step_cost_is_linear_in_stages():
    # a let keeps only the bindings read later, so b stays at a fixed depth;
    # a step whose calls per stage grew with the stage index would make this
    # ratio grow past the stage ratio
    assert _step_calls(100) <= 4.5 * _step_calls(25)


def test_let_chain_step_calls_fell():
    # 1,204 calls per step when every let kept its whole context and a seq
    # stepped each dup, id and projection derivative (the same program,
    # change and count), 399 when the seq and par steps were hand-written
    # closures that called each stage; the staged chain inlines its stages
    assert _step_calls(100, n=10) <= 110


def test_the_generated_step_of_a_let_chain():
    # three lets of h = relu(h + b): the first two are one shared fanout
    # machine, ⟨body, snd⟩, stepped by one loop over their slots, 1 and 3,
    # with the body's add rule and map relu's Triv step inlined, and the
    # last let's body inlined after it; the step makes no other call
    tt = _let_chain(3, 4)
    m = incrementalize(tt)
    text, free = incr._fragment(m)
    assert text == """\
s = c
for k in k0:
    c = s[k]
    s0_p, s0_q = (d, c)
    c = s0_q[0]
    s0_p0_s = c
    s0_p0_s0_x, s0_p0_s0_y = d
    d = s0_p0_s0_y if not s0_p0_s0_x else s0_p0_s0_x if not s0_p0_s0_y else s0_p0_s0_add(s0_p0_s0_x, s0_p0_s0_y)
    c = s0_p0_s[4]
    s0_p0_s1_out = {}
    for s0_p0_s1_i, s0_p0_s1_e in d.items():
        try:
            s0_p0_s1_x = c[s0_p0_s1_i]
        except KeyError:
            s0_p0_s1_x = s0_p0_s1_ex
        c[s0_p0_s1_i] = s0_p0_s1_x2 = s0_p0_s1_x + s0_p0_s1_e
        s0_p0_s1_dz = (s0_p0_s1_x2 if s0_p0_s1_x2 > 0.0 else 0.0) - (s0_p0_s1_x if s0_p0_s1_x > 0.0 else 0.0)
        if s0_p0_s1_dz:
            s0_p0_s1_out[s0_p0_s1_i] = s0_p0_s1_dz
    d = s0_p0_s1_out
    s0_p0_s[4] = c
    c = s0_p0_s
    s0_e0, s0_u0 = (d, c)
    d = s0_p
    d = d[1]
    s0_e1 = d
    d = (s0_e0, s0_e1)
    c = (s0_u0, UNIT)
    s[k] = c
s1_x, s1_y = d
d = s1_y if not s1_x else s1_x if not s1_y else s1_add(s1_x, s1_y)
c = s[8]
s2_out = {}
for s2_i, s2_e in d.items():
    try:
        s2_x = c[s2_i]
    except KeyError:
        s2_x = s2_ex
    c[s2_i] = s2_x2 = s2_x + s2_e
    s2_dz = (s2_x2 if s2_x2 > 0.0 else 0.0) - (s2_x if s2_x > 0.0 else 0.0)
    if s2_dz:
        s2_out[s2_i] = s2_dz
d = s2_out
s[8] = c
c = s"""
    assert free["k0"] == (1, 3) and free["s2_ex"] == 0.0
    x = ({i: 1.0 for i in range(4)}, {i: 0.5 for i in range(4)})
    _, codes = call_codes(m.step, ({0: 0.5, 3: -0.25}, {}), m.init(x)[1])
    assert codes == [m.step.__code__]


def test_a_traceback_through_a_generated_step_shows_its_line():
    # each generated text runs under a file name of its own that linecache
    # serves, so an exception raised inside a let chain's staged step shows
    # the line it was raised on: here the inlined relu step's ⊕ of a str
    m = incrementalize(_let_chain(3, 4))
    _, c = m.init(({i: 1.0 for i in range(4)}, {i: 0.5 for i in range(4)}))
    try:
        m.step(({0: "0.5"}, {}), c)
    except TypeError:
        text, frame = traceback.format_exc(), traceback.extract_tb(sys.exc_info()[2])[-1]
    assert frame.filename.startswith("<step ") and frame.filename != "<step>"
    assert frame.line == "c[s0_p0_s1_i] = s0_p0_s1_x2 = s0_p0_s1_x + s0_p0_s1_e"
    assert frame.line in text


def test_staged_steps_build_and_step_at_the_default_recursion_limit():
    # map nested 30 deep, par right-nested 30 deep and perfbench's deepest
    # let chain (400 stages) build and step; inlining stops at a fixed size
    # and depth, so nested runs of shared stages never nest more blocks
    assert sys.getrecursionlimit() <= 1000
    reg = linalg.register_linalg().registry
    relu = Map(OpCall("relu"))
    term, ty, x, d = OpCall("relu"), R, 0.5, -1.0
    cases = []
    for _ in range(30):
        term, ty, x, d = Map(term), arr(1, ty), {0: x}, {0: d}
    cases.append((term, ty, x, d))
    term, ty, x, d = relu, arr(2, R), {0: 1.0, 1: -1.0}, {0: -2.0, 1: 3.0}
    for _ in range(30):
        term, ty, x, d = ca.Par(relu, term), TProd(arr(2, R), ty), ({1: 0.5}, x), ({1: -1.0}, d)
    cases.append((term, ty, x, d))
    for term, ty, x, d in cases:
        tt = typecheck(term, ty, reg)
        y, c, x = step_through(incrementalize(tt), x, [d, d])
        assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)
    tt = _let_chain(400, 8)
    x = ({i: 0.5 for i in range(8)}, {i: 0.25 for i in range(8)})
    y, c, x = step_through(incrementalize(tt), x, [({0: 0.5}, {}), ({1: -1.0, 5: 2.0}, {3: 1.0})])
    assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)
    term, ty, depths = relu, arr(3, R), []
    for _ in range(12):
        # each level a run of two shared stages, whose loop nests the last
        term, ty = ca.Par(Seq(ID, term, term), ID), TProd(ty, R)
        depths.append(incr._tagged(incrementalize(typecheck(term, ty, reg)).frag[1], "")[1])
    # a par adds no block, so the pars nest one block more per level until
    # their seq nests more than _INLINE_DEPTH, which the par then calls
    assert incr._INLINE_DEPTH == 6 and depths == [3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0]


def test_swap_fst_snd_still_breaks_a_lowered_let_chain():
    # each let reads (h, b) as a fanout of fst and snd, which a seq folds to
    # the identity; the fold looks at the built machines, so a sabotaged fst
    # is stepped, not folded away, and Law-2 fails
    n = 4
    tt = _let_chain(5, n)
    ty = tt.in_ty
    x = ({i: 1.0 for i in range(n)}, {i: 0.5 for i in range(n)})
    d = ({0: 1.0}, {})
    want = denote(tt, apply_change(ty, x, d))

    def law_2_holds(m):
        y, c = m.init(x)
        dy, _ = m.step(d, c)
        return values_equal(tt.out_ty, apply_change(tt.out_ty, y, dy), want, 1e-9)

    assert law_2_holds(incrementalize(tt))
    with inject_fault("swap-fst-snd"):
        m = incrementalize(tt)
    assert not law_2_holds(m)


@pytest.mark.parametrize("f, g, ty", [
    (Map(OpCall("relu")), Map(OpCall("relu")), arr(5, R)),  # both cached
    (Map(OpCall("relu")), OpCall("sum"), arr(5, R)),        # one side cache-free
    (OpCall("sum"), Map(OpCall("relu")), arr(5, R)),
    (OpCall("sum"), ID, arr(5, R)),                          # both cache-free
    (ca.FST, ca.SND, TProd(arr(5, R), R)),                   # the identity
])
def test_fanout_fold_matches_the_unfolded_pair(f, g, ty):
    # dup ; (f × g) builds one fanout machine; the reference composes the
    # dup and par machines built on their own, as an unfolded seq did
    reg = linalg.register_linalg().registry
    tt = typecheck(seq(Dup(), ca.Par(f, g)), ty, reg)
    folded = incrementalize(tt)
    unfolded = incr._seq_machine(tt, [incrementalize(c) for c in tt.children])
    rng = stable_rng(45, "fanout-fold")
    x = gen_value(rng, ty)
    (y1, c1), (y2, c2) = folded.init(x), unfolded.init(x)
    assert y1 == y2 and cache_to_json(folded.cache, c1) == cache_to_json(unfolded.cache, c2)
    for _ in range(50):
        d = gen_change(rng, ty)
        (d1, c1), (d2, c2) = folded.step(d, c1), unfolded.step(d, c2)
        assert d1 == d2
        assert cache_equal(folded.cache, c1, c2)


# A cached stage and a cache-free one, over arr[4] real (_staging_registry):
# map o_relu keeps a per-entry cache and steps by the generic map's loop,
# which calls o_relu's step per entry; map relu steps by its generated Triv
# step; map (dup ; +), x ↦ 2x, is self-maintainable, steps by the generic
# map's loop with its body inlined, and its derivative is not the identity.
# A generated step inlines each of their loops.
_CACHED, _INLINED, _FREE = Map(OpCall("o_relu")), Map(OpCall("relu")), Map(Seq(Dup(), Plus()))


def _staging_registry():
    reg = oracle_registry()
    reg.register_op(linalg.register_linalg().registry.ops["relu"])
    return reg


@pytest.mark.parametrize("sides", ["cached, cached", "cached, free", "free, cached", "free, free"])
@pytest.mark.parametrize("fan", [False, True], ids=["par", "fanout"])
def test_each_par_step_shape_keeps_the_laws(fan, sides):
    # the par step is generated per shape (which sides hold a cache, and
    # whether both read one input), each side's map loop inlined, a cached
    # generic map's (map o_relu) reading a missing index's sub-cache from
    # dft; each steps 50 changes under Laws 1-3
    ty = arr(4, R)
    for cached in (_CACHED, _INLINED):
        f, g = (cached if s == "cached" else _FREE for s in sides.split(", "))
        term, in_ty = (ca.fanout(f, g), ty) if fan else (ca.Par(f, g), TProd(ty, ty))
        tt = typecheck(term, in_ty, _staging_registry())
        m = _assert_stream_laws(tt, f"par {fan} {sides} {cached}", "cached" in sides)
        text = incr._fragment(m)[0]
        assert text.count("for ") == 2
        assert ("dft()" in text) == ("cached" in sides and cached is _CACHED)


@pytest.mark.parametrize("stages", [
    (_FREE, _CACHED),          # a cache-free run, then one cached stage
    (_CACHED, _FREE),
    (_FREE, _CACHED, _FREE),
    (ID, _CACHED),             # one cached stage
    (_CACHED, _FREE, _CACHED, _FREE, _CACHED),
    (_CACHED, _CACHED, _CACHED),  # a run of one shared machine
    (_CACHED, _CACHED, _INLINED, _CACHED, _CACHED),  # a run broken by another
    (_FREE, _FREE, _FREE, _CACHED),
], ids=["free;cached", "cached;free", "free;cached;free", "cached", "alternating", "run",
        "broken-run", "free-run;cached"])
def test_each_seq_step_shape_keeps_the_laws(stages):
    # each plan steps 50 changes under Laws 1-3, its cached stages inlined
    # (map relu) or called (map o_relu), and a run of stages that hold one
    # machine steps as one loop over their slots
    for cached, other in ((_CACHED, _INLINED), (_INLINED, _CACHED)):
        swap = {_CACHED: cached, _INLINED: other}
        tt = typecheck(Seq(*(swap.get(t, t) for t in stages)), arr(4, R), _staging_registry())
        assert len(tt.children) == len(stages)
        m = _assert_stream_laws(tt, f"seq {stages} {cached}")
        loops = sum(len(list(run)) > 1 for _, run in groupby(stages))
        assert incr._fragment(m)[0].count("for k in") == loops


def _assert_stream_laws(tt, label, cached=True):
    m = incrementalize(tt)
    # a cached stage: the machine steps, not its derivative
    assert (m.deriv is None) == cached
    rng = stable_rng(35, label)
    failure = _run_stream(m, ca.compiled(tt), gen_value(rng, tt.in_ty), 50,
                          lambda _x: gen_change(rng, tt.in_ty), 1e-9)
    assert failure is None, failure
    return m


def test_let_chain_laws_over_a_change_stream():
    n = 6
    ty = TProd(arr(n, R), arr(n, R))
    tt = _let_chain(30, n)
    m = incrementalize(tt)
    rng = stable_rng(38, "let-chain-laws")
    x = gen_value(rng, ty)
    ds = [gen_change(rng, ty) for _ in range(50)]
    got, cache, x_final = step_through(m, x, ds)
    assert values_equal(arr(n, R), got, denote(tt, x_final), 1e-9)
    assert cache_equal(m.cache, cache, m.init(x_final)[1], 1e-9)


@pytest.mark.parametrize("term, in_ty, d", [
    (Cst(R, 2.0), R, 1.5),
    (ca.Get(1), arr(3, R), {0: 1.0}),
    (ca.Get(1), arr(3, arr(2, R)), {0: {1: 1.0}}),
])
def test_constant_derivatives_build_nil_once(monkeypatch, term, in_ty, d):
    m = incrementalize(typecheck(term, in_ty, oracle_registry()))
    nil = nil_change(m.out_ty)
    calls = []
    monkeypatch.setattr(incr, "nil_change", lambda ty: calls.append(ty))
    dy, _ = m.step(d, UNIT)
    assert dy == nil and calls == []


S = TBase(SCALAR)
U = TSum(Z, S)


def _linear_registry():
    reg = ca.Registry()
    for b in (INT, SCALAR):
        reg.register_base(b)
    reg.register_container(ARRAY)
    reg.register_container(RELATION)
    reg.register_index_fn("half", lambda j: j // 2)
    reg.register_index_pred("odd", lambda i: i % 2 == 1)
    return reg


def _linear_cases():
    for name, e in (("scalar", S), ("sum", U)):
        for op, term, ty in [
            ("zip", ca.Zip(), TProd(arr(3, e), arr(3, e))),
            ("get", ca.Get(1), arr(3, e)),
            ("set", ca.SetAt(1), TProd(e, arr(3, e))),
            ("tp", ca.Tp(), arr(2, arr(3, e))),
            ("reshape", ca.Reshape("half", arr_shape(4)), arr(2, e)),
            ("replicate", ca.Replicate(arr_shape(3)), e),
            ("filter", ca.Filter("odd"), TProd(e, arr(3, e))),
            ("dup", Dup(), arr(3, e)),
        ]:
            yield pytest.param(term, ty, id=f"{name}-{op}")


@pytest.mark.parametrize("term, ty", _linear_cases())
def test_linear_ops_step_by_their_kernel_read_at_nil(term, ty):
    # scalar's nil is KEEP, not its default None, and a sum's is SUM_NULL,
    # not Left(ε): a derivative that read ε where the batch does breaks Law 2
    # or maps the nil change to a non-nil one
    tt = typecheck(term, ty, _linear_registry())
    rep = check_term_laws(tt, stable_rng(8, repr(tt)), samples=80)
    assert rep.passed, rep.failures
    assert is_nil(tt.out_ty, incrementalize(tt).step(nil_change(ty), UNIT)[0])


@pytest.mark.parametrize("elem, x, dx", [(S, "a", "a"), (U, Right("a"), Sr("a"))],
                         ids=["scalar", "sum"])
def test_linear_ops_raise_the_batch_support_error(elem, x, dx):
    reg = _linear_registry()
    rel = TCont(rel_shape("int"), elem)
    for term, ty, v, d in [(ca.Replicate(rel.shape), elem, x, dx),
                           (ca.Filter("odd"), TProd(elem, rel), (x, {}), (dx, {}))]:
        tt = typecheck(term, ty, reg)
        with pytest.raises(SupportError) as batch:
            denote(tt, v)
        with pytest.raises(SupportError) as step:
            incrementalize(tt).step(d, UNIT)
        assert str(step.value) == str(batch.value)


def test_ten_thousand_stage_seq_runs_without_recursion():
    # typecheck, denote, init and step all loop over a flat seq's stages
    assert sys.getrecursionlimit() <= 1000
    reg = linalg.register_linalg().registry
    tt = typecheck(seq(*[OpCall("relu")] * 10_000), R, reg)
    assert len(tt.children) == 10_000
    assert all(c.term == OpCall("relu") for c in tt.children)
    m = incrementalize(tt)
    x = 0.5
    y, c = m.init(x)
    assert y == denote(tt, x) == 0.5
    for dx in (0.25, -1.0, 2.0):
        dy, c = m.step(dx, c)
        x += dx
        assert y + dy == denote(tt, x)  # Law-2
        y += dy


def test_seq_cache_has_one_slot_per_stage():
    reg = linalg.register_linalg().registry
    term = seq(Dup(), ca.FST, OpCall("relu"), ID, Dup(), ca.Par(OpCall("relu"), ID))
    tt = typecheck(term, R, reg)
    m = incrementalize(tt)
    x = 0.5
    _, c = m.init(x)
    assert cache_to_json(m.cache, c) == [
        "unit", "unit", {"value": 0.5}, "unit", "unit", [{"value": 0.5}, "unit"]]
    assert cache_entry_count(m.cache, c) == 2
    dy, c = m.step(1.0, c)
    assert dy == (1.0, 1.0)
    assert cache_equal(m.cache, c, m.init(1.5)[1])


def test_nested_par_depth_bound():
    # par, map and case still recurse one frame or two per level; 300
    # levels fit the default recursion limit through every phase
    assert sys.getrecursionlimit() <= 1000
    reg = linalg.register_linalg().registry
    term, in_ty, x, dx = OpCall("relu"), R, 0.5, -1.0
    for _ in range(300):
        term, in_ty = ca.Par(term, ID), TProd(in_ty, R)
        x, dx = (x, 1.0), (dx, 0.25)
    tt = typecheck(term, in_ty, reg)
    m = incrementalize(tt)
    y, c = m.init(x)
    assert y == denote(tt, x)
    dy, c = m.step(dx, c)
    for _ in range(300):
        (dy, d_id), (y, y_id) = dy, y
        assert d_id == 0.25 and y_id == 1.0
    assert (y, dy) == (0.5, -0.5)


def _map2_cases():
    lin = linalg.register_linalg().registry
    rel = relalg.register_relalg().registry
    vec, table = arr(4, R), relalg.rel(("int", "str"))
    return [pytest.param(name, reg, side, body, id=name) for name, reg, side, body in [
        ("mul", lin, vec, OpCall("mul")),
        ("relu-add", lin, vec, seq(Plus(), OpCall("relu"))),
        ("plus", lin, vec, Plus()),
        ("rel-intmul", rel, table, OpCall("intmul")),
        ("rel-plus", rel, table, Plus()),
        ("madd", lin, arr(3, arr(2, R)), map2(Plus())),
    ]]


@pytest.mark.parametrize("name, reg, side, body", _map2_cases())
def test_fused_map2_laws(name, reg, side, body):
    # Laws 1-3 of the fused `zip ; map f` stage, with the change on the
    # left only, the right only, both sides and neither
    in_ty = TProd(side, side)
    tt = typecheck(map2(body), in_ty, reg)
    m = incrementalize(tt)
    free = name.endswith(("plus", "madd"))
    assert (m.deriv is not None) == free
    rng = stable_rng(39, f"map2-{name}")
    for k in range(60):
        x = gen_value(rng, in_ty)
        y, c = m.init(x)
        assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)  # Law-1
        for it in range(3):
            dx, dy = gen_change(rng, side), gen_change(rng, side)
            d = [(dx, {}), ({}, dy), (dx, dy), ({}, {})][(k + it) % 4]
            dout, c = m.step(d, c)
            x = apply_change(in_ty, x, d)
            y = apply_change(tt.out_ty, y, dout)
            assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)  # Law-2
            assert cache_equal(m.cache, c, m.init(x)[1], 1e-9)  # Law-3


def test_fused_map2_cache_layout_is_unchanged():
    # recorded before zip ; map was fused: the zip slot stays "unit" and the
    # map slot keeps its per-index caches
    reg = linalg.register_linalg().registry
    M = {0: {0: 1.0, 1: -2.0}, 1: {0: 0.5, 1: 3.0}}
    b = {0: 0.25, 1: -1.0}
    tt = typecheck(linalg.dense_term(2, 2, M, b), arr(2, R), reg)
    m = incrementalize(tt)
    y, c = m.init({0: 1.0, 1: 2.0})
    assert y == {1: 5.5}
    stages_before_map2 = "unit", "unit", "unit", "unit"  # dup, par, par, zip
    assert cache_to_json(m.cache, c) == [
        *stages_before_map2,
        {"indexed": [
            [0, ["unit", {"indexed": [[0, {"value": [1.0, 1.0]}], [1, {"value": [-2.0, 2.0]}]]}]],
            [1, ["unit", {"indexed": [[0, {"value": [0.5, 1.0]}], [1, {"value": [3.0, 2.0]}]]}]]]},
        "unit", "unit", "unit", "unit", "unit",
        {"indexed": [[0, {"value": -2.75}], [1, {"value": 5.5}]]}]
    assert cache_entry_count(m.cache, c) == 2 * 2 * 2 + 2
    dy, c = m.step({1: -0.5}, c)
    assert dy == {1: -1.5}
    assert cache_to_json(m.cache, c) == [
        *stages_before_map2,
        {"indexed": [
            [0, ["unit", {"indexed": [[0, {"value": [1.0, 1.0]}], [1, {"value": [-2.0, 1.5]}]]}]],
            [1, ["unit", {"indexed": [[0, {"value": [0.5, 1.0]}], [1, {"value": [3.0, 1.5]}]]}]]]},
        "unit", "unit", "unit", "unit", "unit",
        {"indexed": [[0, {"value": -1.75}], [1, {"value": 4.0}]]}]


@pytest.mark.parametrize("sides", ["left", "right", "both"])
def test_fused_map2_step_builds_no_zipped_change(sides):
    # one step of map2 mul over k changed entries runs the seq's generated
    # step once, with the pair kernel's step, mul, ⊕, ⊖ and the nil test
    # inlined: no _mul call, no Triv step, and never the standalone zip
    # derivative (or any dict comprehension); it is the only call
    reg = linalg.register_linalg().registry
    n, k = 50, 7
    in_ty = TProd(arr(n, R), arr(n, R))
    m = incrementalize(typecheck(map2(OpCall("mul")), in_ty, reg))
    zip_code = incrementalize(typecheck(ca.Zip(), in_ty, reg)).deriv.__code__
    triv_step = comb_triv(mul, TProd(R, R), R).step.__code__
    rng = stable_rng(40, "map2-calls")
    x = gen_value(rng, in_ty)
    _, c = m.init(x)
    ch = {i: rng.uniform(-1, 1) for i in rng.sample(range(n), k)}
    d = {"left": (ch, {}), "right": ({}, ch), "both": (ch, ch)}[sides]
    _, codes = call_codes(m.step, d, c)
    assert zip_code not in codes
    assert not [f for f in codes if f.co_name == "<dictcomp>"]
    assert codes.count(triv_step) == 0
    assert linalg._mul.__code__ not in codes
    assert codes == [m.step.__code__] and m.step.__code__.co_filename.startswith("<step ")
    if sides != "both":
        # a one-sided change ⊕s only its side of each cached pair
        assert apply_fn(TProd(R, R)).__code__ not in codes


def _fused_init_cases():
    lin = linalg.register_linalg().registry
    rel = relalg.register_relalg().registry
    vec, table = arr(6, R), relalg.rel("int")
    full = {i: 0.5 * i - 1.0 for i in range(6) if i != 2}
    sparse = {1: 2.0, 4: -1.5}
    tuples = {1: 2, 5: -1, 7: 3}
    return [pytest.param(reg, body, side, xy, id=f"{name}-{keys}") for name, reg, body, side in [
        ("mul", lin, OpCall("mul"), vec),
        ("relu-add", lin, seq(Plus(), OpCall("relu")), vec),
        ("intmul", rel, OpCall("intmul"), table),
    ] for keys, xy in [
        ("equal", (full, dict(reversed(full.items()))) if side is vec
         else (tuples, {7: 1, 1: -1, 5: 4})),
        ("sparse", (full, sparse) if side is vec else (tuples, {5: 2, 9: 1})),
        ("empty", (sparse, {}) if side is vec else ({}, tuples)),
    ]]


@pytest.mark.parametrize("reg, body, side, xy", _fused_init_cases())
def test_fused_map2_init_equals_zip_then_map(reg, body, side, xy):
    # the fused init is the compiled zip (one C-level pass when both inputs
    # have one key set) followed by the map's init, which may own the zipped
    # dict, and one step from either init keeps Laws 2-3
    in_ty = TProd(side, side)
    tt = typecheck(map2(body), in_ty, reg)
    zip_tt = typecheck(ca.Zip(), in_ty, reg)
    map_tt = typecheck(Map(body), zip_tt.out_ty, reg)
    fused, unfused = incrementalize(tt), incrementalize(map_tt)
    zf, zd = ca.compiled(zip_tt), incrementalize(zip_tt).deriv
    snapshot = (dict(xy[0]), dict(xy[1]))
    y, c = fused.init(xy)
    yu, cu = unfused.init(zf(xy))
    assert y == yu
    assert cache_to_json(fused.cache, c) == ["unit", cache_to_json(unfused.cache, cu)]
    assert cache_entry_count(fused.cache, c) == cache_entry_count(unfused.cache, cu)
    rng = stable_rng(43, f"fused-init-{body!r}")
    d = (gen_change(rng, side, nonnil=True), gen_change(rng, side, nonnil=True))
    x2 = apply_change(in_ty, xy, d)
    for m, cache, out, step in [(fused, c, y, lambda c: fused.step(d, c)),
                                (unfused, cu, yu, lambda c: unfused.step(zd(d), c))]:
        dout, cache = step(cache)
        y2 = apply_change(tt.out_ty, out, dout)
        assert values_equal(tt.out_ty, y2, denote(tt, x2), 1e-9)  # Law-2
        assert cache_equal(m.cache, cache, m.init(x2 if m is fused else zf(x2))[1], 1e-9)  # Law-3
    assert xy == snapshot  # the step wrote into the fused init's own dict


def test_map2_add_steps_as_one_container_add():
    # map2 ⊕, at any nesting, is ⊕ on the container: with one side's change
    # nil, a step hands back the other side's change in a fixed number of
    # calls, however many entries or rows it holds
    reg = linalg.register_linalg().registry
    rng = stable_rng(41, "map2-add-calls")

    def calls(body, side, ch):
        in_ty = TProd(side, side)
        m = incrementalize(typecheck(map2(body), in_ty, reg))
        x = gen_value(rng, in_ty)
        return [_one_step_calls(m, x, d) for d in [(ch, {}), ({}, ch)]]

    vec, mat, row = arr(50, R), arr(20, arr(2, R)), {0: 0.5, 1: -0.25}
    assert calls(Plus(), vec, {3: 0.5}) == calls(Plus(), vec, dict.fromkeys(range(20), 0.5))
    assert calls(map2(Plus()), mat, {3: row}) == \
        calls(map2(Plus()), mat, dict.fromkeys(range(20), row))


# ---------------------------------------------------------------------------
# The Triv kernel of map
# ---------------------------------------------------------------------------

def _with_op(reg, name, ty, fn, out_ty=None):
    """reg with one more Triv op `name` of signature ty -> out_ty (or ty)."""
    reg.register_op(ca.OpDef(name, ca.monomorphic(ty, out_ty or ty), fn, "triv",
                             sample_in_tys=(ty,)))
    return reg


def _kernel_and_generic(monkeypatch, tt):
    """tt's machine, and the one built with Triv bodies stepped per entry."""
    kernel = incrementalize(tt)
    triv = incr._COMBINATORS["triv"]
    with monkeypatch.context() as mp:
        mp.setitem(incr._COMBINATORS, "triv",
                   lambda *args, **kw: replace(triv(*args, **kw), triv=None))
        generic = incrementalize(tt)
    return kernel, generic


def _dense_change(rng, ty, x):
    """A change at every index of a container (x's keys and three fresh
    ones over an infinite shape), or of both containers of a pair."""
    if isinstance(ty, TProd):
        return (_dense_change(rng, ty.left, x[0]), _dense_change(rng, ty.right, x[1]))
    keys = ty.shape.indices()
    if keys is None:
        keys = [*x, *(gen_index(rng, ty.shape) for _ in range(3))]
    return {i: gen_change(rng, ty.elem, nonnil=True) for i in keys}


TRIV_STEP = comb_triv(relu, R, R).step.__code__


def _kernel_cases():
    ids = ("a", "b", "c")
    cty = gcounter.counter_ty(ids)
    lin = linalg.register_linalg().registry
    return [pytest.param(reg, term, ty, id=name) for name, reg, term, ty in [
        # f(ε) = ε: init visits x's entries only
        ("linalg-relu", lin, Map(OpCall("relu")), arr(8, R)),
        # a real array of 64: the cache is packed from 8 entries, and draws
        # and changes cross that support both ways
        ("linalg-relu-packed", lin, Map(OpCall("relu")), arr(64, R)),
        ("generic-packed", _with_op(linalg.register_linalg().registry, "halve", R,
                                    lambda x: 0.5 * x), Map(OpCall("halve")), arr(64, R)),
        ("linalg-mul", lin, map2(OpCall("mul")), TProd(arr(8, R), arr(8, R))),
        # each side of the pair kept apart, packed from 8 entries of 64 or not
        ("linalg-mul-packed", lin, map2(OpCall("mul")), TProd(arr(64, R), arr(64, R))),
        ("relalg-intmul", relalg.register_relalg().registry, map2(OpCall("intmul")),
         TProd(relalg.rel("int"), relalg.rel("int"))),
        ("gcounter-max", gcounter.register_gcounter(ids).registry, map2(OpCall("max")),
         TProd(cty, cty)),
        # f(ε) ≠ ε over a finite shape: init visits every index
        ("finite-index", _with_op(linalg.register_linalg().registry, "inc", R,
                                  lambda x: x + 1.0), Map(OpCall("inc")), arr(6, R)),
        ("finite-index-pair", _with_op(linalg.register_linalg().registry, "fma", TProd(R, R),
                                       lambda xy: xy[0] * xy[1] + 1.0, R),
         map2(OpCall("fma")), TProd(arr(6, R), arr(6, R))),
    ]]


@pytest.mark.parametrize("reg, term, ty", _kernel_cases())
def test_triv_kernel_laws_and_caches(monkeypatch, reg, term, ty):
    # Laws 1-3 against denote over nil, sparse and dense changes (and, on a
    # pair, a change on the left only and on the right only), and every
    # output change and cache equal to those of the per-entry Triv machines
    tt = typecheck(term, ty, reg)
    m, generic = _kernel_and_generic(monkeypatch, tt)
    # every case steps by one generated step per step (map2's is its seq's,
    # with the pair kernel's inlined); an op that declares
    # its body as an expression (all but halve, inc and fma) is inlined
    # there, so its fn is never called
    op = reg.ops[(term if type(term) is Map else term.stages[1]).body.name]
    rng = stable_rng(41, repr(term))
    for _ in range(20):
        x = gen_value(rng, ty)
        y, c = m.init(x)
        yg, cg = generic.init(x)
        # init's output is the map's batch, keys in its order
        batch = ca.compiled(tt)(x)
        assert y == batch and list(y) == list(batch)
        assert y == yg
        assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)  # Law-1
        assert cache_to_json(m.cache, c) == cache_to_json(generic.cache, cg)
        ds = [nil_change(ty), gen_change(rng, ty), _dense_change(rng, ty, x)]
        if isinstance(ty, TProd):
            ds += [(gen_change(rng, ty.left, nonnil=True), nil_change(ty.right)),
                   (nil_change(ty.left), gen_change(rng, ty.right, nonnil=True))]
        for d in ds:
            (dy, c), codes = call_codes(m.step, d, c)
            (dyg, cg), generic_codes = call_codes(generic.step, d, cg)
            assert TRIV_STEP not in codes
            assert (TRIV_STEP in generic_codes) == (d != nil_change(ty))
            assert len([f for f in codes if f.co_filename.startswith("<step ")]) == 1
            assert (op.fn.__code__ in codes) == (op.expr is None and d != nil_change(ty))
            assert dy == dyg
            x = apply_change(ty, x, d)
            y = apply_change(tt.out_ty, y, dy)
            assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)  # Law-2
            assert cache_equal(m.cache, c, m.init(x)[1], 1e-9)  # Law-3
            assert cache_to_json(m.cache, c) == cache_to_json(generic.cache, cg)
            assert cache_entry_count(m.cache, c) == cache_entry_count(generic.cache, cg)


def test_triv_kernel_keeps_the_support_error_over_a_relation(monkeypatch):
    # f(ε) ≠ ε over an infinite index set has infinite support
    reg = _with_op(relalg.register_relalg().registry, "succ", Z, lambda x: x + 1)
    tt = typecheck(Map(OpCall("succ")), relalg.rel("int"), reg)
    text = "map over rel[int] needs f(ε)=ε; got 1 for an infinite index set"
    with pytest.raises(SupportError) as e:
        denote(tt, {3: 1})
    assert str(e.value) == text
    for m in _kernel_and_generic(monkeypatch, tt):
        with pytest.raises(SupportError) as e:
            m.init({3: 1})
        assert str(e.value) == text


@pytest.mark.parametrize("op", ["relu", "halve"])
def test_a_triv_map_over_a_real_array_packs_from_n_over_8(op):
    # relu steps by its registered kernel, halve by the generic Triv kernel.
    # init packs the cache when x holds at least n/8 entries, else keeps a
    # dict (an empty x too); a step keeps the layout it is handed, so
    # streams that cross n/8 up and down make Law-3 compare a packed cache
    # with a dict one
    n = 64
    ty = arr(n, R)
    reg = _with_op(linalg.register_linalg().registry, "halve", R, lambda x: 0.5 * x)
    tt = typecheck(Map(OpCall(op)), ty, reg)
    m = incrementalize(tt)
    rng = stable_rng(38, f"packed-{op}")
    dense = {i: round(rng.uniform(0.5, 4.0), 3) * rng.choice([-1, 1]) for i in range(n)}
    first = list(dense.items())
    eighth, below = dict(first[:n // 8]), dict(first[:n // 8 - 1])
    for x, packed in [(dense, True), (eighth, True), (below, False), ({}, False)]:
        _, c = m.init(x)
        assert (type(c) is array) == packed
        if packed:
            assert c.tolist() == [x.get(i, 0.0) for i in range(n)]
        else:
            assert c == x and c is not x
    up = {i: 1.5 for i in range(n // 8 - 1, n // 4)}
    back = {i: -1.5 for i in up}
    down = {i: -v for i, v in first[n // 8 - 1:]}
    for x, d1, d2 in [(below, up, back), (dense, down, up)]:
        y, c, x = step_through(m, x, [d1])
        c2 = m.init(x)[1]
        assert type(c) is not type(c2)
        assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)  # Law-2
        assert cache_equal(m.cache, c, c2) and cache_equal(m.cache, c2, c)  # Law-3
        assert cache_to_json(m.cache, c) == cache_to_json(m.cache, c2)
        assert cache_entry_count(m.cache, c) == cache_entry_count(m.cache, c2) == len(x)
        # and back across n/8, the stepped cache still in its first layout
        dy, c = m.step(d2, c)
        x = apply_change(ty, x, d2)
        assert values_equal(tt.out_ty, apply_change(tt.out_ty, y, dy), denote(tt, x), 1e-9)
        assert cache_equal(m.cache, c, m.init(x)[1])


def test_a_fused_map2_packs_each_side_from_n_over_8():
    # map2 mul keeps the two sides of its cached pairs apart, each packed
    # when that side's input holds at least n/8 entries, else a dict copy
    # (an empty side too), so the sides mix layouts; a step keeps the
    # layouts it is handed, so streams that cross n/8 on either side, or on
    # both, make Law-3 compare a packed side with a dict one
    n = 64
    in_ty = TProd(arr(n, R), arr(n, R))
    tt = typecheck(map2(OpCall("mul")), in_ty, linalg.register_linalg().registry)
    m = incrementalize(tt)
    rng = stable_rng(40, "packed-map2")
    dense = {i: round(rng.uniform(0.5, 4.0), 3) * rng.choice([-1, 1]) for i in range(n)}
    first = list(dense.items())
    eighth, below = dict(first[:n // 8]), dict(first[:n // 8 - 1])
    layouts = [(dense, True), (eighth, True), (below, False), ({}, False)]
    for (xl, pl), (xr, pr) in [(l, r) for l in layouts for r in layouts]:
        _, (zip_slot, c) = m.init((xl, xr))  # the zip slot stays UNIT
        assert zip_slot is UNIT and type(c) is tuple and len(c) == 2
        for x, side, packed in [(xl, c[0], pl), (xr, c[1], pr)]:
            assert (type(side) is array) == packed
            if packed:
                assert side.tolist() == [x.get(i, 0.0) for i in range(n)]
            else:
                assert side == x and side is not x
    up = {i: 1.5 for i in range(n // 8 - 1, n // 4)}
    back = {i: -1.5 for i in up}
    down = {i: -v for i, v in first[n // 8 - 1:]}
    for x, d1, d2 in [((below, dense), (up, {}), (back, {})),
                      (({}, dense), ({}, down), ({}, up)),
                      ((below, dense), (up, down), (back, up))]:
        y, c, x = step_through(m, x, [d1])
        c2 = m.init(x)[1]
        for side, side2, d in zip(c[1], c2[1], d1):
            assert (type(side) is type(side2)) == (not d)
        assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)  # Law-2
        assert cache_equal(m.cache, c, c2) and cache_equal(m.cache, c2, c)  # Law-3
        assert cache_to_json(m.cache, c) == cache_to_json(m.cache, c2)
        assert cache_entry_count(m.cache, c) == cache_entry_count(m.cache, c2) == \
            2 * len(x[0].keys() | x[1].keys())
        # and back across n/8, the stepped sides still in their first layouts
        dy, c = m.step(d2, c)
        x = apply_change(in_ty, x, d2)
        assert values_equal(tt.out_ty, apply_change(tt.out_ty, y, dy), denote(tt, x), 1e-9)
        assert cache_equal(m.cache, c, m.init(x)[1])


def test_a_fused_map2_counts_the_union_of_its_sides():
    # the cache of map2 mul counts 2 scalars per index that either side of
    # (cl, cr) holds, as _entries reads the pairs, over every layout mix of
    # the packing test above, with packed sides that hold zero slots, -0.0
    # slots and tiny slots (whose high byte is 0x00, as a zero slot's is),
    # before and after steps that zero some slots and fill others
    n = 64
    in_ty = TProd(arr(n, R), arr(n, R))
    tt = typecheck(map2(OpCall("mul")), in_ty, linalg.register_linalg().registry)
    m = incrementalize(tt)
    rng = stable_rng(41, "pair-count")
    dense = {i: round(rng.uniform(0.5, 4.0), 3) * rng.choice([-1, 1]) for i in range(n)}
    first = list(dense.items())
    holes = dict(first[::2])
    odd = [{**dense, 3: -0.0}, {**dense, 5: 1e-310}, {**dense, 7: -5e-324}]
    layouts = [dense, dict(first[:n // 8]), dict(first[:n // 8 - 1]), {}, holes, *odd]
    for xl, xr in [(l, r) for l in layouts for r in layouts]:
        c = m.init((xl, xr))[1]
        for d in [({}, {}), ({1: -xl.get(1, 0.0), 2: 1.0}, {}),
                  ({}, {i: 1.0 for i in range(0, n, 3)}), ({0: 2.0}, {0: -xr.get(0, 0.0)})]:
            c = m.step(d, c)[1]
            assert cache_entry_count(m.cache, c) == 2 * len(incr._entries(c[1], (0.0, 0.0)))


def _reference_equal(desc, c1, c2, rel_tol):
    """cache_equal of two indexed caches as every layout was compared before
    packed sides compared slot by slot: both read as _entries' dicts."""
    dft = desc.default
    e1, e2 = incr._entries(c1, dft), incr._entries(c2, dft)
    return all(cache_equal(desc.elem, e1.get(i, dft), e2.get(i, dft), rel_tol)
               for i in e1.keys() | e2.keys())


def _layout_mix_caches(pair, extra=()):
    """(descriptor, caches) of `map relu`'s or map2 mul's indexed cache over
    every layout mix of the packing tests, with ±0.0, tiny and nearly equal
    slots and the layouts extra, inited and stepped."""
    n = 64
    vec = arr(n, R)
    reg = linalg.register_linalg().registry
    tt = typecheck(map2(OpCall("mul")) if pair else Map(OpCall("relu")),
                   TProd(vec, vec) if pair else vec, reg)
    m = incrementalize(tt)
    desc = m.cache.parts[1] if pair else m.cache
    rng = stable_rng(42, "cache-equal-layouts")
    dense = {i: round(rng.uniform(0.5, 4.0), 3) * rng.choice([-1, 1]) for i in range(n)}
    first = list(dense.items())
    layouts = [dense, dict(first[:n // 8]), dict(first[:n // 8 - 1]), {}, dict(first[4:]),
               {**dense, 3: -0.0}, {**dense, 5: 1e-310}, {**dense, 9: dense[9] * (1 + 1e-12)},
               *extra]
    xs = [(l, r) for l in layouts for r in layouts[::3]] if pair else layouts
    d = ({n // 8: 1.0}, {}) if pair else {n // 8: 1.0}
    caches = []
    for x in xs:
        # init at x and at x ⊕ d, and the step by d from x, which keeps
        # x's layout where init at x ⊕ d crosses n/8
        for c in (m.init(x)[1], m.init(apply_change(tt.in_ty, x, d))[1], m.step(d, m.init(x)[1])[1]):
            caches.append(c[1] if pair else c)
    kinds = {type(side) for c in caches for side in (c if pair else [c])}
    assert kinds == {array, dict}
    return desc, caches


@pytest.mark.parametrize("pair", [False, True], ids=["map relu", "map2 mul"])
def test_cache_equal_compares_every_layout_mix_as_its_entries(pair):
    # a packed cache and a fused map2's packed sides are compared slot by
    # slot, and other layouts entry by entry; every pair of caches over the
    # layout mixes of the packing tests compares as the dicts of their
    # entries did
    desc, caches = _layout_mix_caches(pair)
    equal = []
    for rel_tol in (0.0, 1e-9):
        got = [[cache_equal(desc, a, b, rel_tol) for b in caches] for a in caches]
        assert got == [[_reference_equal(desc, a, b, rel_tol) for b in caches] for a in caches]
        equal.append(sum(map(sum, got)))
    # caches of other layouts compare equal, and more at a rel_tol
    assert len(caches) < equal[0] < equal[1]


def _reference_json(desc, c):
    """cache_to_json of an indexed cache as every layout was written before
    the writer was compiled per descriptor: _entries' dict, sorted, entries
    equal to the default elided, each written as its descriptor says."""
    dft = desc.default
    e = incr._entries(c, dft)
    return {"indexed": [[index_to_json(k), cache_to_json(desc.elem, e[k])]
                        for k in sorted(e, key=index_sort_key)
                        if not cache_equal(desc.elem, e[k], dft, 0.0)]}


@pytest.mark.parametrize("pair", [False, True], ids=["map relu", "map2 mul"])
def test_cache_to_json_writes_every_layout_mix_as_its_entries(pair):
    # a packed cache and a fused map2's two packed sides are written slot by
    # slot, other layouts entry by entry; every cache over the layout mixes
    # of the test above, and over layouts with NaN and -inf slots, is
    # written to the very text its entries were (-0.0 slots as absent)
    odd = {3: float("nan"), 5: -0.0, 60: -float("inf"), **dict.fromkeys(range(9, 20), 1.0)}
    desc, caches = _layout_mix_caches(pair, [odd])
    for c in caches:
        assert json.dumps(cache_to_json(desc, c)) == json.dumps(_reference_json(desc, c))


def _arrays(c):
    """Every array reachable from a cache through tuples, lists and dicts."""
    found, todo = [], [c]
    while todo:
        o = todo.pop()
        if type(o) is array:
            found.append(o)
        elif type(o) in (tuple, list, dict):
            todo.extend(o.values() if type(o) is dict else o)
    return found


def test_a_let_chain_keeps_each_relu_cache_in_one_buffer():
    # 100 stages at n = 1,000: every `map relu` caches its dense input in
    # one array of 8·n bytes plus the array header, before and after steps
    stages, n = 100, 1000
    tt = _let_chain(stages, n)
    m = incrementalize(tt)
    rng = stable_rng(38, "let-chain-packed")
    x = ({i: rng.uniform(-1, 1) for i in range(n)}, {i: rng.uniform(-1, 1) for i in range(n)})
    ds = [({i: rng.uniform(-1, 1) for i in rng.sample(range(n), 10)}, {}) for _ in range(3)]
    y, c, x = step_through(m, x, ds)
    assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)
    assert cache_equal(m.cache, c, m.init(x)[1], 1e-9)
    for cache in (m.init(x)[1], c):
        buffers = _arrays(cache)
        assert len(buffers) == stages
        assert {(len(a), sys.getsizeof(a)) for a in buffers} == {
            (n, sys.getsizeof(array("d")) + 8 * n)}


def test_dense_keeps_each_row_cache_in_two_buffers():
    # relu(M x + b) at n = 64: each row's `map2 mul` caches its constant row
    # and its own copy of x in two arrays of 8·n bytes plus the array header,
    # before and after steps, beside relu's one buffer
    n = 64
    term, ty, x = _dense(n)
    tt = typecheck(term, ty, linalg.register_linalg().registry)
    m = incrementalize(tt)
    rng = stable_rng(40, "dense-packed")
    ds = [{i: rng.uniform(-1, 1) for i in rng.sample(range(n), 3)} for _ in range(3)]
    y, c, x = step_through(m, x, ds)
    assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)
    assert cache_equal(m.cache, c, m.init(x)[1], 1e-9)
    for cache in (m.init(x)[1], c):
        buffers = _arrays(cache)
        assert len({id(a) for a in buffers}) == len(buffers) == 2 * n + 1
        assert {(len(a), sys.getsizeof(a)) for a in buffers} == {
            (n, sys.getsizeof(array("d")) + 8 * n)}


@pytest.mark.parametrize("op", ["relu", "halve"])
def test_a_sparse_real_array_keeps_a_dict_cache(op):
    # 10 entries of 10**9 are far below n/8: the cache is a 10-entry dict,
    # and building and init allocate nothing that grows with n
    reg = _with_op(linalg.register_linalg().registry, "halve", R, lambda x: 0.5 * x)
    x = {i * 99_991: (-1.0) ** i * (i + 0.5) for i in range(10)}
    dx = {1: 2.0, 99_991: 5.0}
    tracemalloc.start()
    try:
        tt = typecheck(Map(OpCall(op)), arr(10**9, R), reg)
        m = incrementalize(tt)
        y, c = m.init(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert type(c) is dict and c == x and len(c) == 10
    dy, c = m.step(dx, c)
    x2 = apply_change(m.in_ty, x, dx)
    assert values_equal(tt.out_ty, apply_change(tt.out_ty, y, dy), denote(tt, x2), 0.0)
    assert type(c) is dict and len(c) == 11
    assert cache_equal(m.cache, c, m.init(x2)[1])


def test_a_sparse_fused_map2_keeps_dict_sides():
    # 10 entries a side of 10**9 are far below n/8: each side is a dict
    # copy, and building and init allocate nothing that grows with n
    reg = linalg.register_linalg().registry
    x = ({i * 99_991: (-1.0) ** i * (i + 0.5) for i in range(10)},
         {i * 99_991: i + 1.0 for i in range(0, 20, 2)})
    d = ({1: 2.0, 99_991: 5.0}, {99_991: -3.0, 3: 1.0})
    tracemalloc.start()
    try:
        tt = typecheck(map2(OpCall("mul")), TProd(arr(10**9, R), arr(10**9, R)), reg)
        m = incrementalize(tt)
        y, c = m.init(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    pair = c[1]
    assert [type(side) for side in pair] == [dict, dict]
    assert pair == x and pair[0] is not x[0] and pair[1] is not x[1]
    dy, c = m.step(d, c)
    x2 = apply_change(m.in_ty, x, d)
    assert values_equal(tt.out_ty, apply_change(tt.out_ty, y, dy), denote(tt, x2), 0.0)
    assert [len(side) for side in c[1]] == [11, 12]
    assert cache_equal(m.cache, c, m.init(x2)[1])


def test_map_relu_over_a_string_keyed_dict_steps_new_keys():
    # an infinite index set always keeps the dict layout; a key new to the
    # cache reads as ε = 0.0 in relu's step
    ty = TCont(dict_shape("str"), R)
    tt = typecheck(Map(OpCall("relu")), ty, linalg.register_linalg().registry)
    m = incrementalize(tt)
    x = {"a": 1.0, "b": -2.0}
    ds = [{"c": 3.0, "d": -1.0}, {"a": -2.0, "e": 0.5, "c": -3.0}]
    y, c, x = step_through(m, x, ds)
    assert type(c) is dict and set(c) == {"a", "b", "c", "d", "e"}
    assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)
    assert cache_equal(m.cache, c, m.init(x)[1])


def test_unit_stays_the_one_instance_through_copy_and_pickle():
    # a seq cache keeps UNIT at its cache-free stages; a copy, a deep copy
    # and a pickle round trip of that cache keep the very same UNIT there
    body = seq(ca.fanout(Cst(R, 1.0), ID), Plus(), OpCall("relu"))
    tt = typecheck(body, R, linalg.register_linalg().registry)
    _, c = incrementalize(tt).init(2.0)
    assert c == [UNIT, UNIT, UNIT, 3.0]
    for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert clone == c and clone is not c
        assert all(a is UNIT for a in clone[:3])
    assert copy.copy(UNIT) is copy.deepcopy(UNIT) is UNIT
    assert repr(UNIT) == "UNIT"
    assert repr(c) == "[UNIT, UNIT, UNIT, 3.0]"


def test_a_map_reads_an_absent_index_as_its_body_cache_at_epsilon():
    # a map's absent index reads as the body's cache at init(ε), not as a
    # default read off the descriptor's structure: here relu's cached input
    # at ε is 1 + ε = 1.0.  A key new to the cache takes that sub-cache in
    # the generated loop; with ε in relu's slot the step would put out {}
    ty = TCont(dict_shape("any"), R)
    body = seq(ca.fanout(Cst(R, 1.0), ID), Plus(), OpCall("relu"),
               ca.fanout(Cst(R, -1.0), ID), Plus())
    tt = typecheck(Map(body), ty, linalg.register_linalg().registry)
    m = incrementalize(tt)
    assert m.cache.default == [UNIT, UNIT, UNIT, 1.0, UNIT, UNIT, UNIT]
    assert "dft()" in incr._fragment(m)[0]
    x, d = {"a": 2.0}, {"b": -0.5}
    y, c = m.init(x)
    assert y == denote(tt, x)  # Law-1
    dy, c = m.step(d, c)
    assert dy == {"b": -0.5}
    x = apply_change(ty, x, d)
    assert values_equal(tt.out_ty, apply_change(tt.out_ty, y, dy), denote(tt, x), 0.0)  # Law-2
    assert cache_equal(m.cache, c, m.init(x)[1])  # Law-3


def _descriptors(desc):
    """desc and every cache descriptor it holds."""
    yield desc
    match desc:
        case incr.CTuple(parts):
            for part in parts:
                yield from _descriptors(part)
        case incr.CIndexed(_, elem, _):
            yield from _descriptors(elem)
        case incr.CCase(left, _, right, _):
            yield from _descriptors(left)
            yield from _descriptors(right)


def test_rebuilds_of_a_program_leave_the_descriptor_memos_as_they_are():
    # no descriptor holds a callable, so every build of one program gives
    # equal descriptors, and _counter and _printer, memoised per descriptor,
    # gain no entry after the first build's caches are read
    reg = linalg.register_linalg().registry
    n = 8
    sizes = []
    for _ in range(20):
        tt = typecheck(linalg.mvmul_term(n, n), TProd(arr(n, arr(n, R)), arr(n, R)), reg)
        m = incrementalize(tt)
        c = m.init(gen_value(stable_rng(46, "rebuild"), tt.in_ty))[1]
        cache_entry_count(m.cache, c)
        cache_to_json(m.cache, c)
        sizes.append((incr._counter.cache_info().currsize, incr._printer.cache_info().currsize))
    assert sizes[1:] == sizes[:1] * 19
    nested = typecheck(Map(Map(OpCall("o_relu"))), arr(3, arr(3, R)), _staging_registry())
    for tt in [typecheck(*_dense(4)[:2], reg), nested]:
        for desc in _descriptors(incrementalize(tt).cache):
            assert not [f.name for f in fields(desc) if callable(getattr(desc, f.name))]


@pytest.mark.parametrize("term, ty", [
    (Map(OpCall("o_relu")), arr(4, R)),                             # a cached body
    (Map(Seq(Dup(), Plus())), arr(4, R)),                           # a cache-free body
    (map2(seq(Plus(), OpCall("o_relu"))), TProd(arr(4, R), arr(4, R))),  # a fused map2
], ids=["cached", "free", "map2"])
def test_a_generic_map_steps_by_its_own_generated_loop(term, ty):
    # every map that is not a Triv kernel has a fragment of its own, one
    # loop over the changed indices with its body placed in it, not the
    # call of a hand-written step; its step runs that text
    tt = typecheck(term, ty, _staging_registry())
    m = incr._incr_map2(*tt.children) if type(term) is Seq else incrementalize(tt)
    text, free = incr._fragment(m)
    assert (text, free) != incr._call(m)
    assert "for i, d in items(d):" in text and free["items"] is not None
    assert (m.deriv or m.step).__code__.co_filename.startswith("<step ")
    _assert_stream_laws(tt, f"own loop {term}", m.deriv is None)


def _dense(n):
    rng = stable_rng(42, "dense-kernel")
    w = {i: {j: rng.uniform(-1, 1) for j in range(n)} for i in range(n)}
    b = {i: rng.uniform(-1, 1) for i in range(n)}
    return linalg.dense_term(n, n, w, b), arr(n, R), {i: rng.uniform(-1, 1) for i in range(n)}


@pytest.mark.parametrize("case", ["map relu", "map2 mul", "map2 mul left", "dense"])
def test_triv_stale_cache_fault_reaches_the_kernel(case):
    reg = linalg.register_linalg().registry
    vec = arr(6, R)
    mul2 = (map2(OpCall("mul")), TProd(vec, vec), ({0: 1.0, 2: 2.0}, {0: 3.0}))
    term, ty, x = {
        "map relu": (Map(OpCall("relu")), vec, {0: 1.0, 2: -3.0}),
        "map2 mul": mul2,
        "map2 mul left": mul2,
        "dense": _dense(6),
    }[case]
    dx = {"map relu": {0: 2.0, 1: 1.5}, "map2 mul": ({}, {2: 1.0}),
          "map2 mul left": ({0: 1.0}, {}), "dense": {1: 0.5}}[case]
    tt = typecheck(term, ty, reg)
    for faulty in (False, True):
        with inject_fault("triv-stale-cache") if faulty else nullcontext():
            m = incrementalize(tt)
        y, c = m.init(x)
        dy, c = m.step(dx, c)
        x2 = apply_change(ty, x, dx)
        assert values_equal(tt.out_ty, apply_change(tt.out_ty, y, dy), denote(tt, x2), 1e-9)
        assert cache_equal(m.cache, c, m.init(x2)[1], 1e-9) != faulty  # Law-3


def test_dense_step_runs_the_kernel():
    # one dense step over 3 changed entries of x runs the top seq's
    # generated step once, with the map over rows, each row's seq, its map2
    # mul step, map sum's loop and relu's step inlined, and the ops, ⊕, ⊖
    # and the nil test inlined: no _mul or _relu call, no Triv step and no
    # zip derivative (a row's step, called, would be one more `<step n>`).
    # Per row it also runs sum's derivative, so 3n + 20 calls at most, where
    # the 2·n·3 _mul calls alone made 72 of the 160 allowed when the ops
    # were called
    n = 12
    term, ty, x = _dense(n)
    reg = linalg.register_linalg().registry
    m = incrementalize(typecheck(term, ty, reg))
    _, c = m.init(x)
    _, codes = call_codes(m.step, {i: 0.5 for i in (1, 4, 9)}, c)
    zip_ty = TProd(arr(n, R), arr(n, R))
    zip_code = incrementalize(typecheck(ca.Zip(), zip_ty, reg)).deriv.__code__
    assert TRIV_STEP not in codes and zip_code not in codes
    assert linalg._mul.__code__ not in codes and linalg._relu.__code__ not in codes
    assert codes.count(m.step.__code__) == 1
    assert len([f for f in codes if f.co_filename.startswith("<step ")]) == 1
    assert codes.count(linalg._vsum.__code__) == n
    assert len(codes) <= 3 * n + 20


def test_a_dense_step_at_perfbench_size_inlines_its_row_kernel():
    # at perfbench's n = 400 the row kernel (each row's seq, with map2 mul's
    # three-branch Triv fragment) still fits within _INLINE_LINES, so a step
    # runs one generated step and makes no call into a row; besides it only
    # replicate's derivative, the rows' map2 walk (_incr_map2's `entries`)
    # and map sum's _vsum run (a called row kernel is a second `<step n>`)
    n = 400
    term, ty, x = _dense(n)
    reg = linalg.register_linalg().registry
    m = incrementalize(typecheck(term, ty, reg))
    _, c = m.init(x)
    d = {i: 0.5 for i in (1, 4, 9)}
    _, codes = call_codes(m.step, d, c)
    _, replicate = call_codes(incrementalize(typecheck(ca.Replicate(arr_shape(n)), ty, reg)).deriv, d)
    walk, = (k for k in incr._incr_map2.__code__.co_consts if getattr(k, "co_name", "") == "entries")
    assert [f for f in codes if f.co_filename.startswith("<step ")] == [m.step.__code__]
    assert set(codes) <= {m.step.__code__, walk, linalg._vsum.__code__, *replicate}
    assert codes.count(linalg._vsum.__code__) == n


def _expr_ops():
    """Every registered op that declares its body as an expression."""
    regs = [linalg.register_linalg().registry, relalg.register_relalg().registry,
            gcounter.register_gcounter(("a", "b")).registry, oracle_registry()]
    return [pytest.param(op, id=op.name)
            for reg in regs for op in reg.ops.values() if op.expr is not None]


def test_the_ops_that_declare_an_expression():
    assert [p.id for p in _expr_ops()] == [
        "relu", "mul", "intmul", "max", "o_mul", "o_imul", "o_nmax"]


def _op_and_fallback_kernels(op, n, elems):
    """The Triv kernels of `map op` (one element type) or of the fused
    `map2 op` (two) over arrays of n, built as incr builds them, and the
    same of a twin of op that declares no expression, whose step calls fn."""
    reg = ca.Registry()
    for base in dict.fromkeys(e.base for e in elems):
        reg.register_base(base)
    reg.register_container(ARRAY)
    one = len(elems) == 1
    in_ty = arr(n, elems[0]) if one else TProd(*(arr(n, e) for e in elems))
    kernels = []
    for o in (op, replace(op, name=op.name + "_fn", expr=None)):
        reg.register_op(o)
        tt = typecheck((Map if one else map2)(OpCall(o.name)), in_ty, reg)
        map_tt = tt if one else tt.children[1]
        kernels.append(incr._triv_kernel(map_tt, o.fn, in_ty, ca.compiled(tt), *elems))
    return kernels


@pytest.mark.parametrize("op", _expr_ops())
def test_an_inlined_triv_step_equals_the_fallback(op):
    # the kernel's generated step with op's expression and its bases' ⊕, ⊖
    # and nil test inlined, and that of a twin op with no expression (whose
    # step calls fn), step one stream alike: equal output changes, and
    # caches equal at rel_tol 0.  relu runs at arity 1 (map), the pair ops
    # at arity 2 (the fused map2).  Each side starts full, at n/8 (packed
    # when real), just below n/8 (a dict) or empty, and the stream crosses
    # n/8 up and back down; at arity 2 it holds left-only, right-only and
    # two-sided changes
    n = 64
    in_ty = op.sample_in_tys[0]
    elems = (in_ty.left, in_ty.right) if type(in_ty) is TProd else (in_ty,)
    steps = [m.step for m in _op_and_fallback_kernels(op, n, elems)]
    assert steps[0].__code__ is not steps[1].__code__
    shape, pair = arr_shape(n), len(elems) == 2
    dft = tuple(map(default_value, elems)) if pair else default_value(in_ty)
    desc = incr.CIndexed(shape, incr.CValue(in_ty), dft)
    rng = stable_rng(41, f"inline-{op.name}")
    draw = {"real": lambda: rng.choice([-1, 1]) * round(rng.uniform(0.5, 4.0), 3),
            "int": lambda: rng.choice([-3, -1, 1, 2]), "nat": lambda: rng.randint(1, 3)}

    def change(e, keys):
        return {i: draw[e.base.kind]() for i in keys}

    def down(e, x):  # back below n/8: zero every entry past the first few
        keys = sorted(x)[n // 8 - 2:]
        return change(e, keys) if e.base.kind == "nat" else {i: -x[i] for i in keys}

    sizes = [n, n // 8, n // 8 - 1, 0]
    for starts in [(k,) for k in sizes] if not pair else [(a, b) for a in sizes for b in sizes]:
        xs = [change(e, range(k)) for e, k in zip(elems, starts)]
        caches = [[incr._keeper(shape, e)(x) for e, x in zip(elems, xs)] for _ in steps]
        assert [type(c) for c in caches[0]] == [
            array if k >= n // 8 and e == R else dict for e, k in zip(elems, starts)]
        small = [lambda e=e: change(e, rng.sample(range(n), 5)) for e in elems]
        up = [lambda e=e: change(e, range(n // 8 - 1, n // 4)) for e in elems]
        stream = [[f() for f in small], [f() for f in up], None]
        if pair:
            stream = [[small[0](), {}], [{}, small[1]()], *stream, [up[0](), {}], [{}, up[1]()]]
        for ds in stream:
            ds = ds or [down(e, x) for e, x in zip(elems, xs)]
            results = []
            for step, c in zip(steps, caches):
                dz, c2 = step(tuple(ds), tuple(c)) if pair else step(ds[0], c[0])
                assert c2 == (tuple(c) if pair else c[0])  # updated in place
                results.append(dz)
            assert results[0] == results[1] and list(results[0]) == list(results[1])
            inline, fallback = (tuple(c) if pair else c[0] for c in caches)
            assert cache_equal(desc, inline, fallback, rel_tol=0.0)
            xs = [apply_change(TCont(shape, e), x, d) for e, x, d in zip(elems, xs, ds)]
            assert cache_equal(desc, inline, tuple(xs) if pair else xs[0], rel_tol=0.0)


def test_map2_mul_steps_each_mix_of_changed_sides_by_the_product_rule():
    # the fused map2 mul's step, one branch per mix of changed sides (left
    # only, right only, both, neither), against a reference that never
    # reaches _triv_source: per changed key fn((x ⊕ dx, y ⊕ dy)) ⊖ fn((x, y)),
    # by apply_fn and diff_fn over dicts of its own.  Each side starts packed
    # (n or n/8 entries) or a dict (n/8 - 1 or none), and inputs and changes
    # hold ±0.0, ±inf and NaN.  Outputs are compared by repr (NaN and the
    # sign of a zero count), caches by cache_equal at rel_tol 0 with NaN read
    # as a value no input holds, as NaN ≠ NaN
    n, inf, nan = 64, float("inf"), float("nan")
    reg = linalg.register_linalg().registry
    m = incrementalize(typecheck(map2(OpCall("mul")), TProd(arr(n, R), arr(n, R)), reg))
    desc = m.cache.parts[1]
    fn, ap, df, nil = reg.ops["mul"].fn, apply_fn(R), diff_fn(R), is_nil_fn(R)
    rng = stable_rng(49, "map2-sides")
    vals = [1.5, -2.0, 0.25, 3.0, -0.5, 0.0, -0.0, inf, -inf, nan]

    def draw(keys):
        return {i: rng.choice(vals) for i in keys}

    def unnan(c):
        return tuple(type(s)("d", (7777.0 if v != v else v for v in s)) if type(s) is array
                     else {i: 7777.0 if v != v else v for i, v in s.items()} for s in c)

    sizes = [n, n // 8, n // 8 - 1, 0]
    for kx, ky in [(a, b) for a in sizes for b in sizes]:
        ref = (draw(range(kx)), draw(range(n - ky, n)))
        _, cache = m.init(tuple(s.copy() for s in ref))
        c = cache[1]
        layouts = [type(s) for s in c]
        assert layouts == [array if k >= n // 8 else dict for k in (kx, ky)]
        keys = rng.sample(range(n), 6)
        stream = [(draw(keys[:4]), {}), ({}, draw(keys[2:])), ({}, {}),
                  (draw(keys[:3]), draw(keys[1:])),  # keys in dx alone, in both, in dy alone
                  (draw(keys[:2]), draw(keys[4:])),  # two sides, disjoint keys
                  (draw(range(n // 8 - 1, n // 4)), {}), ({}, draw(range(n // 4, n // 2)))]
        for d in stream:
            dz, cache = m.step(d, cache)
            assert cache[1] is c and [type(s) for s in c] == layouts  # in place, layout kept
            want = {}
            for i in d[0].keys() | d[1].keys():
                old = tuple(s.get(i, 0.0) for s in ref)
                new = tuple(ap(v, dv[i]) if i in dv else v for v, dv in zip(old, d))
                if not nil(z := df(fn(new), fn(old))):
                    want[i] = z
                for s, dv, v in zip(ref, d, new):
                    if i in dv:
                        s[i] = v
            assert repr(sorted(dz.items())) == repr(sorted(want.items())), d
            assert cache_equal(desc, unnan(c), unnan(ref), rel_tol=0.0), d


def test_the_generated_steps_of_relu_and_mul():
    # the fragment of map relu's arity-1 step and map2 mul's arity-2 step,
    # which every machine of them runs
    assert incr._triv_source("x if x > 0.0 else 0.0", R, R) == """\
out = {}
for i, e in d.items():
    try:
        x = c[i]
    except KeyError:
        x = ex
    c[i] = x2 = (x + e)
    dz = ((x2 if x2 > 0.0 else 0.0) - (x if x > 0.0 else 0.0))
    if dz:
        out[i] = dz
d = out"""
    # at arity 2, one loop per changed side: left only, right only, both
    assert incr._triv_source("x * y", R, R, R) == """\
dx, dy = d
cx, cy = c
out = {}
if not dy:
    for i, e in dx.items():
        try:
            x = cx[i]
        except KeyError:
            x = ex
        try:
            y = cy[i]
        except KeyError:
            y = ey
        cx[i] = x2 = (x + e)
        dz = ((x2 * y) - (x * y))
        if dz:
            out[i] = dz
elif not dx:
    for i, e in dy.items():
        try:
            x = cx[i]
        except KeyError:
            x = ex
        try:
            y = cy[i]
        except KeyError:
            y = ey
        cy[i] = y2 = (y + e)
        dz = ((x * y2) - (x * y))
        if dz:
            out[i] = dz
else:
    for i in dx.keys() | dy.keys():
        try:
            x = cx[i]
        except KeyError:
            x = ex
        try:
            y = cy[i]
        except KeyError:
            y = ey
        x2, y2 = x, y
        if i in dx:
            cx[i] = x2 = (x + dx[i])
        if i in dy:
            cy[i] = y2 = (y + dy[i])
        dz = ((x2 * y2) - (x * y))
        if dz:
            out[i] = dz
d = out"""
    reg = linalg.register_linalg().registry
    for term, ty, text in [(Map(OpCall("relu")), arr(8, R), None),
                           (map2(OpCall("mul")), TProd(arr(8, R), arr(8, R)),
                            incr._triv_source("x * y", R, R, R))]:
        m = incrementalize(typecheck(term, ty, reg))
        _, codes = call_codes(m.step, nil_change(ty), m.init(gen_value(stable_rng(0, "src"), ty))[1])
        assert codes == [m.step.__code__] and m.step.__code__.co_filename.startswith("<step ")
        if text is None:  # map relu's machine is its kernel, its step the fragment's
            assert incr._fragment(m)[0] == incr._triv_source(reg.ops["relu"].expr, R, R)
        else:  # map2 mul's seq runs the arity-2 fragment inlined in its own step
            body = incr._tagged(text, "s0_")[0]
            assert "\n".join(body) in incr._fragment(m)[0]


@pytest.mark.parametrize("op", ["tree_size", "tree_max"])
def test_a_triv_fold_with_no_expression_steps_through_the_fallback(op):
    # a trees Triv fold declares no expression: map's generated step calls
    # its fn, ⊕s each document with apply_fn, and takes ⊖ and the nil test
    # of its output inlined (int, tree_size) or called (scalar, tree_max)
    reg = trees.register_trees().registry
    tt = typecheck(Map(OpCall(op)), trees.BIB_TY, reg)
    m = incrementalize(tt)
    out = tt.children[0].out_ty
    text = incr._triv_source(None, out, trees.DOC_TREE)
    assert "fn(x2)" in text and "fn(x)" in text and "ax(x, e)" in text
    assert ("df(" in text and "nil(dz)" in text) == (out == trees.S)
    assert incr._fragment(m)[0] == text
    rng = stable_rng(41, f"fold-{op}")
    x = trees.load_bibliography()
    y, c = m.init(x)
    for _ in range(20):
        d = gen_change(rng, trees.BIB_TY)
        (dy, c), codes = call_codes(m.step, d, c)
        assert codes[0] is m.step.__code__ and codes[0].co_filename.startswith("<step ")
        assert (reg.ops[op].fn.__code__ in codes) == bool(d)
        x = apply_change(trees.BIB_TY, x, d)
        y = apply_change(tt.out_ty, y, dy)
        assert y == denote(tt, x)  # Law-2
        assert cache_equal(m.cache, c, m.init(x)[1])  # Law-3


def _reference_count(desc, c):
    """The recursive cache_entry_count: one call per scalar."""
    def scalars(ty, v):
        match ty:
            case TBase():
                return 1
            case TCont(_, elem):
                return sum(scalars(elem, ev) for ev in v.values())
            case TProd(a, b):
                return scalars(a, v[0]) + scalars(b, v[1])
            case TSum(a, b):
                return scalars(a if type(v) is Left else b, v.value)
    match desc:
        case incr.CUnit():
            return 0
        case incr.CTuple(parts):
            return sum(_reference_count(p, x) for p, x in zip(parts, c))
        case incr.CValue(ty):
            return scalars(ty, c)
        case incr.CIndexed(_, elem, _):
            # a packed Triv cache counts its non-zero slots
            subs = c.values() if type(c) is dict else [v for v in c if v]
            return sum(_reference_count(elem, sub) for sub in subs)
        case incr.CCase(left, left_out, right, right_out):
            sub, out_ty = (left, left_out) if type(c) is Left else (right, right_out)
            return _reference_count(sub, c.value[0]) + scalars(out_ty, c.value[1])


def test_cache_entry_count_matches_the_recursive_count():
    CV, CT, CI, CC = incr.CValue, incr.CTuple, incr.CIndexed, incr.CCase
    a2, a3 = arr_shape(2), arr_shape(3)
    cases = [
        (CUnit(), UNIT, 0),
        (CV(R), 3.0, 1),
        (CV(arr(3, R)), {0: 1.0, 2: 2.0}, 2),
        (CV(arr(3, TProd(R, Z))), {0: (1.0, 0), 1: (0.0, 2)}, 4),
        (CV(arr(2, arr(3, R))), {0: {0: 1.0}, 1: {1: 1.0, 2: 2.0}}, 3),
        (CV(TProd(R, arr(2, R))), (1.0, {0: 1.0, 1: 2.0}), 3),
        (CV(TSum(R, R)), Right(1.0), 1),
        (CV(TSum(R, arr(2, R))), Left(1.0), 1),
        (CV(TSum(R, arr(2, R))), Right({0: 1.0, 1: 2.0}), 2),
        (CV(arr(3, TSum(R, TProd(R, R)))), {0: Left(1.0), 2: Right((1.0, 2.0))}, 3),
        (CT((CUnit(), CV(R), CV(TProd(R, Z)))), (UNIT, 1.0, (1.0, 2)), 3),
        (CT((CV(R), CV(arr(3, R)))), (1.0, {0: 1.0, 1: 2.0}), 3),
        (CI(a3, CV(R), 0.0), {0: 1.0, 2: 2.0}, 2),
        (CI(a3, CV(R), 0.0), array("d", [1.0, 0.0, 2.0]), 2),
        (CI(a3, CUnit(), UNIT), {0: UNIT, 1: UNIT}, 0),
        (CI(a3, CV(arr(2, R)), {}), {0: {0: 1.0}, 1: {0: 1.0, 1: 2.0}}, 3),
        (CI(a2, CI(a3, CV(R), 0.0), {}), {0: {0: 1.0}, 1: {1: 1.0, 2: 2.0}}, 3),
        (CC(CV(R), arr(2, R), CUnit(), R), Left((1.0, {0: 1.0, 1: 2.0})), 3),
        (CC(CV(R), arr(2, R), CUnit(), R), Right((UNIT, 5.0)), 1),
        (CC(CV(R), R, CV(Z), Z), Right((1, 2)), 2),
        (CT((CC(CV(R), R, CV(R), arr(2, R)), CI(a2, CV(R), 0.0))),
         (Right((1.0, {1: 1.0})), {0: 1.0, 1: 2.0}), 4),
    ]
    for desc, c, want in cases:
        assert _reference_count(desc, c) == want, desc
        assert cache_entry_count(desc, c) == want, desc
    kinds = {type(d) for d, _, _ in cases}
    assert kinds == {CUnit, CV, CT, CI, CC}
    # and on the caches of random machines, before and after a step
    cfg = GenConfig()
    rng = stable_rng(93, "entry-count")
    reg = oracle_registry()
    for _ in range(60):
        tt = gen_term(cfg, rng, reg, gen_type(cfg, rng, depth=2))
        m = incrementalize(tt)
        x = gen_value(rng, tt.in_ty)
        _, c = m.init(x)
        assert cache_entry_count(m.cache, c) == _reference_count(m.cache, c)
        _, c = m.step(gen_change(rng, tt.in_ty), c)
        assert cache_entry_count(m.cache, c) == _reference_count(m.cache, c)


# ---------------------------------------------------------------------------
# Nil in, nil out: a nil change steps to one that is_nil reads as nil
# ---------------------------------------------------------------------------

def test_map_over_an_injection_keeps_no_entry_for_a_nil_payload_change():
    # cst 0.0 steps any change to 0.0; inl wraps it as SUM_NULL, not Cl(0.0)
    m = incrementalize(typecheck(Map(seq(Cst(R, 0.0), ca.Inl(R))), arr(3, R),
                                 oracle_registry()))
    _, c = m.init({0: 1.0})
    dy, c = m.step({0: 2.0}, c)
    assert dy == {}


@pytest.mark.parametrize("side", [Left, Right])
def test_case_hands_on_a_nil_branch_change_as_sum_null(side):
    m = incrementalize(typecheck(CasePar(Cst(R, 1.0), Cst(R, 2.0)), TSum(R, R),
                                 oracle_registry()))
    _, c = m.init(side(0.5))
    dy, c = m.step((Cl if side is Left else Cr)(1.5), c)
    assert dy is SUM_NULL
    assert c.value[1] == (1.0 if side is Left else 2.0)


@pytest.mark.parametrize("name", TERM_CONSTRUCTS + COMBINATORS)
def test_a_nil_step_after_init_steps_to_nil(name):
    # 40 random instances of each construct and combinator, as the laws draw
    # them, each stepped once by the canonical nil of its input
    cfg = GenConfig()
    rng = stable_rng(16, f"nil-in-nil-out:{name}")
    for k in range(40):
        if name in COMBINATORS:
            m, _ = _combinator_instances(name, cfg, rng)
        else:
            reg = oracle_registry()
            term, in_ty = _construct_term(name, cfg, rng, _TermGen(cfg, rng, reg))
            m = incrementalize(typecheck(term, in_ty, reg))
        _, c = m.init(gen_value(rng, m.in_ty))
        dy, _ = m.step(nil_change(m.in_ty), c)
        assert is_nil(m.out_ty, dy), (k, change_to_text(m.out_ty, dy))
