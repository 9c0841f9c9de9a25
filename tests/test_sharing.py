"""One build shares what it has built: equal subterms at equal input types
get one TypedTerm and one machine, while every position keeps its own cache."""

import gc
import math
import random
from collections import Counter

import pytest

from deltic import calculus as ca
from deltic import incr
from deltic.core import REAL, TBase, TProd, apply_fn, values_equal
from deltic.domains import get_bundle, linalg, relalg
from deltic.domains.containers import arr
from deltic.frontend import compile_program, parse_program_file
from deltic.oracle import inject_fault

R = TBase(REAL)


def _chain_text(stages, n):
    lines = ["bundle linalg", f"param x : arr[{n}] real", f"param b : arr[{n}] real", ""]
    prev = "x"
    for i in range(1, stages + 1):
        lines.append(f"let h{i} = map relu # map2 add # ({prev}, b);")
        prev = f"h{i}"
    return "\n".join(lines + [prev]) + "\n"


def _compile(text):
    bundle, prog = parse_program_file(text, get_bundle)
    return compile_program(prog, bundle.registry, bundle.literal_base)


def _relu_builds(monkeypatch):
    """The machines each build makes for `map relu`, as they are made."""
    made = []
    build_map = incr._BUILDERS[ca.Map]

    def recording(tt):
        m = build_map(tt)
        if tt.children[0].term == ca.OpCall("relu"):
            made.append(m)
        return m

    monkeypatch.setitem(incr._BUILDERS, ca.Map, recording)
    return made


def test_equal_lets_are_one_typed_term():
    # the last let's fanout is spliced into the chain; the five before it
    # each keep b, and are one `dup ; (e × snd)` typed once
    tt = _compile(_chain_text(6, 4))
    pars = [s for s in tt.children if isinstance(s.term, ca.Par)]
    assert len(pars) == 6 and len({id(p) for p in pars[:5]}) == 1
    assert pars[5] is not pars[0]


def test_equal_lets_share_one_machine_and_keep_their_own_caches(monkeypatch):
    made = _relu_builds(monkeypatch)
    tt = _compile(_chain_text(6, 4))
    m = incr.incrementalize(tt)
    # `map relu` at arr[4] real is one typed subterm in all six lets
    assert len(made) == 1
    rng = random.Random(7)
    x = ({i: rng.uniform(-1, 1) for i in range(4)}, {i: rng.uniform(-1, 1) for i in range(4)})
    y, c = m.init(x)
    caches = [c[k][0][-1] for k in range(1, 10, 2)]  # each kept let's `map relu` cache
    assert len({id(s) for s in caches}) == 5 and caches[0] != caches[1]
    ap_in, ap_out = apply_fn(tt.in_ty), apply_fn(tt.out_ty)
    for _ in range(25):
        d = ({i: rng.uniform(-1, 1) for i in rng.sample(range(4), 2)},
             {i: rng.uniform(-1, 1) for i in rng.sample(range(4), 1)} if rng.random() < 0.3 else {})
        dy, c = m.step(d, c)
        x, y = ap_in(x, d), ap_out(y, dy)
        assert values_equal(tt.out_ty, y, ca.denote(tt, x), 1e-9)               # Law-2
        assert incr.cache_equal(m.cache, c, m.init(x)[1], 1e-9)                  # Law-3


def test_a_thousand_lets_keep_few_objects_alive():
    # objects the collector tracks that compile and incrementalize leave
    # alive, per let: 114 when every let was typed and built on its own
    bundle, prog = parse_program_file(_chain_text(1_000, 8), get_bundle)
    gc.collect()
    before = len(gc.get_objects())
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    m = incr.incrementalize(tt)
    gc.collect()
    per_let = (len(gc.get_objects()) - before) / 1_000
    assert per_let <= 40, per_let
    assert m.out_ty == tt.out_ty


def test_constants_of_opposite_sign_stay_apart():
    # 0.0 == -0.0 and they hash alike, but cst(real, -0.0) denotes -0.0
    reg = linalg.register_linalg().registry
    text = "seq(dup, par(cst(real, 0.0), cst(real, -0.0)))"
    tt = ca.typecheck(ca.term_from_text(text, reg), R, reg)
    a, b = tt.children[1].children
    assert a is not b
    for out in [ca.denote(tt, 1.0), incr.incrementalize(tt).init(1.0)[0]]:
        assert [math.copysign(1.0, v) for v in out] == [1.0, -1.0]


def test_get_true_beside_get_one_still_fails():
    # Get(1) == Get(True), with one hash, but an array index is no bool
    reg = linalg.register_linalg().registry
    assert ca.Get(1) == ca.Get(True)
    ca.typecheck(ca.fanout(ca.Get(1), ca.Get(1)), arr(3, R), reg)
    with pytest.raises(ca.TermTypeError, match="index True outside"):
        ca.typecheck(ca.fanout(ca.Get(1), ca.Get(True)), arr(3, R), reg)


def test_each_call_is_its_own_build():
    reg = linalg.register_linalg().registry
    term = ca.seq(ca.Dup(), ca.Par(ca.Map(ca.OpCall("relu")), ca.ID), ca.Plus())
    tt = ca.typecheck(term, arr(2, R), reg)
    assert ca.typecheck(term, arr(2, R), reg) is not tt
    good = incr.incrementalize(tt)
    assert incr.incrementalize(tt) is not good
    # a fault swapped in between two builds of one typed term takes effect
    x, d = {0: 1.0}, {1: 2.0}
    with inject_fault("seq-drop-propagation"):
        bad = incr.incrementalize(tt)
    assert good.step(d, good.init(x)[1])[0] == {1: 4.0}
    assert bad.step(d, bad.init(x)[1])[0] == {}
    # and no table is left behind, also by a build that raised
    with pytest.raises(incr.UsageError):
        incr.incrementalize(ca.TypedTerm(object(), R, R))
    assert incr._BUILT.get() is None


def test_a_wide_product_keys_in_constant_time():
    # a 2,000-component context: each type's hash is stored, so keying a
    # node on its input type neither recurses nor walks the product
    k = 2_000
    text = "\n".join(["bundle linalg"] + [f"param x{i} : real" for i in range(k)]
                     + ["", "add # (x0, x1)"]) + "\n"
    tt = _compile(text)
    assert isinstance(tt.in_ty, TProd) and tt.out_ty == R


def _fused_runs(tt):
    """calculus.fusion's runs in the distinct typed seqs under tt, each seq's
    stages walked as incr builds them: (rule name, stages), per position."""
    runs, seen, todo = [], set(), [tt]
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen.add(t)
        todo += t.children
        if type(t.term) is not ca.Seq:
            continue
        k = 0
        while k < len(t.children):
            rule = ca.fusion(t.children, k)
            if rule:
                runs.append((rule[0], t.children[k:k + rule[1]]))
            k += rule[1] if rule else 1
    return runs


def _dense_tt(n):
    reg = linalg.register_linalg().registry
    w = {i: {j: (i - j + 0.5) / n for j in range(n)} for i in range(n)}
    b = {i: (i + 1) / n for i in range(n)}
    return ca.typecheck(linalg.dense_term(n, n, w, b), arr(n, R), reg)


def _join_tt():
    bundle = relalg.register_relalg()
    bundle.registry.register_index_pred("key-eq", lambda ij: ij[0][0] == ij[1][0])
    pair_rel = relalg.rel(("int", "int"))
    return ca.typecheck(relalg.join_term("key-eq"), TProd(pair_rel, pair_rel),
                        bundle.registry)


def _mvmul_tt(n, m):
    reg = linalg.register_linalg().registry
    return ca.typecheck(linalg.mvmul_term(n, m), TProd(arr(n, arr(m, R)), arr(m, R)), reg)


@pytest.mark.parametrize("make, want", [
    (lambda: _dense_tt(8), {"map2": 2, "add": 1, "fanout": 2}),
    (_join_tt, {"join": 1}),
    (lambda: _compile(_chain_text(100, 8)), {"fanout": 101, "add": 2}),
    (lambda: _mvmul_tt(8, 8), {"map2": 2}),
], ids=["dense", "rel-join", "let-chain", "mvmul"])
def test_each_fusion_rule_fires_as_counted(make, want):
    # per rule, the runs fusion matches over the distinct typed seqs of the
    # three benchmark terms and mvmul; a rule taken out of fusion reads 0
    # here, and mvmul, with no ⊕, fires map2 alone
    assert Counter(name for name, _ in _fused_runs(make())) == want


def test_each_fused_run_is_built_once_per_build(monkeypatch):
    # the five kept lets share one `dup ; (e × snd)` run, which the build
    # makes once; the next build makes it again, once
    built = []
    fanout = incr._FUSED["fanout"]
    monkeypatch.setitem(incr._FUSED, "fanout", lambda *run: built.append(run) or fanout(*run))
    tt = _compile(_chain_text(6, 4))
    runs = [stages for name, stages in _fused_runs(tt) if name == "fanout"]
    assert len(runs) > len(set(runs)) > 1
    for _ in range(2):
        built.clear()
        incr.incrementalize(tt)
        assert len(built) == len(set(built)) and set(built) == set(runs)
