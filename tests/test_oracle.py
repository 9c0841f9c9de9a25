"""The oracle itself: determinism, coverage, and mutation sensitivity."""

import copy
import json
import operator
import re
from dataclasses import replace
from pathlib import Path

import pytest

from deltic import calculus as ca
from deltic import frontend as fe
from deltic import incr
from deltic.core import Cl, Cr, Left, REAL, Sl, Sr, SUM_NULL, TBase, TProd, TSum
from deltic.domains import get_bundle, linalg, relalg
from deltic.domains.containers import RELATION, arr
from deltic.oracle import (
    COMBINATORS, FAULTS, GenConfig, GenerationFailure, _SABOTAGE, _fused_join, _run_stream,
    check_construct_laws, check_finite_support, check_frontend_lowering, check_fused_join,
    check_machine_laws, check_op_laws, check_value_preservation_suite, gen_change,
    gen_term, gen_type, gen_value, inject_fault, oracle_registry, stable_rng,
)
from deltic.serialize import change_from_text, change_to_text, type_from_text, value_from_text

R = TBase(REAL)


def test_generators_are_deterministic():
    cfg = GenConfig()
    a = [gen_value(stable_rng(5, "d"), TProd(R, R)) for _ in range(10)]
    b = [gen_value(stable_rng(5, "d"), TProd(R, R)) for _ in range(10)]
    assert a == b
    ta = gen_term(cfg, stable_rng(5, "t"), oracle_registry(), R)
    tb = gen_term(cfg, stable_rng(5, "t"), oracle_registry(), R)
    assert ca.term_to_text(ta.term) == ca.term_to_text(tb.term)


def test_sum_change_generator_covers_all_variants():
    rng = stable_rng(6, "variants")
    ty = TSum(R, R)
    seen = set()
    for _ in range(100):
        d = gen_change(rng, ty)
        if d is SUM_NULL:
            seen.add("null")
        else:
            seen.add(type(d).__name__)
    assert seen == {"Cl", "Cr", "Sl", "Sr", "null"}


def test_term_generator_covers_every_constructor():
    cfg = GenConfig(max_term_size=14)
    rng = stable_rng(7, "coverage")
    reg = oracle_registry()
    seen = set()

    def visit(t):
        seen.add(("Proj", t.path) if isinstance(t, ca.Proj) else type(t).__name__)
        match t:
            case ca.Seq(stages):
                for s in stages:
                    visit(s)
            case ca.Par(a, b) | ca.CasePar(a, b):
                visit(a)
                visit(b)
            case ca.Map(body):
                visit(body)
            case _:
                pass

    for k in range(600):
        in_ty = gen_type(cfg, rng, depth=2)
        visit(gen_term(cfg, rng, reg, in_ty).term)
    expected = {"Seq", "Par", ("Proj", ()), "Dup", ("Proj", (0,)), ("Proj", (1,)), "Plus",
                "Cst", "Map", "Zip", "Get", "SetAt", "Reshape", "Replicate", "Tp",
                "Filter", "Fuse", "Distr", "Inl", "Inr", "CasePar", "OpCall"}
    assert expected <= seen, expected - seen


def test_gen_term_identity_request():
    cfg = GenConfig()
    reg = oracle_registry()
    tt = gen_term(cfg, stable_rng(8, "id"), reg, R, out_ty=R, size=1)
    assert tt.out_ty == R


def test_gen_term_unreachable_goal_fails_loudly():
    cfg = GenConfig()
    reg = oracle_registry()
    with pytest.raises(GenerationFailure):
        gen_term(cfg, stable_rng(9, "fail"), reg, R,
                 out_ty=TSum(TProd(R, R), R), size=1, attempts=10)


def test_corrupted_triv_yields_law3_counterexample():
    # the documented mutation fixture, exercised directly
    rng = stable_rng(10, "mut")
    fn = lambda x: x if x > 0 else 0.0
    m = incr.comb_triv(fn, R, R)
    good_step = m.step
    m.step = lambda dx, c: (good_step(dx, c)[0], c)  # drop the cache update
    rep = check_machine_laws("corrupted-triv", m, fn, rng, samples=60)
    assert not rep.passed
    assert rep.failures[0]["law"] in ("Law-2", "Law-3")
    assert rep.samples == rep.failures[0]["sample"] + 1  # the samples drawn
    assert "x" in rep.failures[0]


def test_a_nil_step_to_a_non_nil_change_fails_the_nil_law():
    # inl stepping its payload change as Cl(d) keeps Laws 1-3 on every
    # change, but maps the nil change 0.0 to Cl(0.0), which is not nil
    m = incr.IncrMachine(R, TSum(R, R), incr.CUnit(),
                         lambda x: (Left(x), incr.UNIT), lambda d, c: (Cl(d), c))
    rep = check_machine_laws("inl-cl-nil", m, Left, stable_rng(10, "nil"), samples=5)
    assert not rep.passed
    assert rep.failures[0]["law"] == "nil-change"
    assert rep.failures[0]["ds"] == [change_to_text(R, 0.0)]


def test_a_witness_shows_each_change_as_drawn():
    # a step that clears its change in place must not blank the witness
    reg = oracle_registry()
    tt = ca.typecheck(ca.Map(ca.OpCall("o_relu")), arr(3, R), reg)
    m = incr.incrementalize(tt)
    seen = []

    def clearing(dx, c):
        seen.append(change_to_text(m.in_ty, dx))
        out = m.step(dx, c)
        dx.clear()
        return out

    rep = check_machine_laws("clearing", replace(m, step=clearing), ca.compiled(tt),
                             stable_rng(11, "clear"), samples=20)
    assert not rep.passed
    assert rep.failures[0]["ds"][-1] == seen[-1] != "[]"


# failing golden records the replay cannot rebuild from their text:
# combinator instances, which carry no term, and terms naming an index
# function or predicate drawn at generation time (cfn/cpred, gfn/gpred)
_UNREPLAYABLE = {
    ("bilin-aliased-cache", "laws:bilin"),
    ("bilin-missing-term", "laws:bilin"),
    ("triv-stale-cache", "laws:triv"),
}
_DRAWN_NAME = re.compile(r"\b[cg](fn|pred)\d")


def _rebuild(check, failure):
    """(machine, fn, runner options) of a failing record, built under the
    active fault, or None when its text cannot rebuild it."""
    if check == "relalg:fused-join":
        machine, fn = _fused_join(failure["pred"])
        return machine, fn, dict(same=operator.eq)
    if ":op:" in check:
        bname, _, opname = check.split(":")
        bundle = get_bundle(bname)
        opdef = bundle.registry.ops[opname]
        in_ty = type_from_text(failure["in_ty"], bundle.registry)
        return incr.op_machine(opdef, in_ty, opdef.typer(in_ty)), opdef.fn, dict(rel_tol=1e-9)
    if check.removeprefix("laws:") in COMBINATORS or _DRAWN_NAME.search(failure["term"]):
        return None
    reg = oracle_registry()
    reg.register_container(RELATION)
    term = ca.term_from_text(failure["term"], reg)
    tt = ca.typecheck(term, type_from_text(failure["in_ty"], reg), reg)
    cfg = GenConfig()
    tol = cfg.tol_iter if check == "value-preservation" else cfg.tol_real
    return incr.incrementalize(tt), ca.compiled(tt), dict(rel_tol=tol)


def _golden_file(fault):
    name = "seq_drop" if fault == "seq-drop-propagation" else fault
    return Path(__file__).parent / "data" / f"laws_seed42_{name}.jsonl"


@pytest.mark.parametrize("fault", FAULTS)
def test_golden_failures_replay_from_their_witness(fault):
    # rebuild the machine under the fault, step the recorded changes after
    # init and the nil step, and fail the recorded law at the last change
    skipped = set()
    for line in _golden_file(fault).read_text().splitlines():
        rec = json.loads(line)
        for failure in rec["failures"]:
            if "in_ty" not in failure:  # not a change-stream record
                continue
            with inject_fault(fault):
                built = _rebuild(rec["check"], failure)
                if built is None:
                    skipped.add((fault, rec["check"]))
                    continue
                machine, fn, opts = built
                changes = iter(failure["ds"])
                got = _run_stream(
                    machine, fn, value_from_text(machine.in_ty, failure["x"]),
                    len(failure["ds"]),
                    lambda _x: change_from_text(machine.in_ty, next(changes)), **opts)
            assert got is not None, rec["check"]
            for key in ("law", "ds", "error"):
                assert got.get(key) == failure.get(key), (rec["check"], key)
    assert skipped == {r for r in _UNREPLAYABLE if r[0] == fault}


def test_reports_are_reproducible():
    lb = linalg.register_linalg()
    op = lb.registry.ops["mul"]
    r1 = check_op_laws(op, op.sample_in_tys[0], samples=30, seed=3)
    r2 = check_op_laws(op, op.sample_in_tys[0], samples=30, seed=3)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_is_caught(fault):
    with inject_fault(fault):
        if fault == "triv-stale-cache":
            lb = linalg.register_linalg()
            op = lb.registry.ops["mul"]
            rep = check_op_laws(op, op.sample_in_tys[0], samples=50)
        elif fault == "swap-fst-snd":
            rep = check_construct_laws("fst", samples=50, instances=5)
        elif fault == "seq-drop-propagation":
            rep = check_construct_laws("seq", samples=80, instances=10)
        elif fault in ("bilin-missing-term", "bilin-aliased-cache"):
            rb = relalg.register_relalg()
            op = rb.registry.ops["cross"]
            rep = check_op_laws(op, op.sample_in_tys[0], samples=50)
        elif fault in ("join-stale-matches", "join-batch-drops-pair"):
            rep = check_fused_join(samples=20)
        elif fault == "case-aliased-output":
            rep = check_construct_laws("case", samples=50, instances=10)
        else:
            rep = check_frontend_lowering(samples=20)
        assert not rep.passed, fault
        assert rep.failures  # a printed witness exists


def _map_builds(monkeypatch):
    """The Map machines each build makes, recorded as the builder makes them."""
    built = []
    build_map = incr._BUILDERS[ca.Map]

    def counting(t):
        built.append(build_map(t))
        return built[-1]

    monkeypatch.setitem(incr._BUILDERS, ca.Map, counting)
    return built


def test_faults_reach_ops_through_the_combinator_table():
    # every engine fault swaps an entry of an engine table (a combinator, a
    # builder or a fused batch), so every op or run that uses it is
    # sabotaged; only lowering's fault swaps a module global
    spaces = {name: space for name, (space, _, _) in _SABOTAGE.items()}
    assert spaces.pop("debruijn-off-by-one") is vars(fe)
    tables = (incr._COMBINATORS, incr._BUILDERS, ca._FUSED)
    assert all(any(space is t for t in tables) for space in spaces.values())
    assert get_bundle("relalg").registry.ops["cross"].join_index is relalg._join_index
    regs = [get_bundle(b).registry for b in ("linalg", "relalg", "trees", "gcounter")]
    trivs = [(op, in_ty) for reg in (*regs, oracle_registry()) for op in reg.ops.values()
             if op.comb == "triv" for in_ty in op.sample_in_tys]
    assert {op.name for op, _ in trivs} >= {"relu", "mul", "intmul", "max", "o_mul"}
    rng = stable_rng(0, "fault-table")
    for op, in_ty in trivs:
        out_ty = op.typer(in_ty)
        assert incr.op_machine(op, in_ty, out_ty).triv is op.fn
        with inject_fault("triv-stale-cache"):
            bad = incr.op_machine(op, in_ty, out_ty)
        _, c = bad.init(gen_value(rng, in_ty))
        assert bad.triv is None and bad.step(gen_change(rng, in_ty), c)[1] is c

    b = relalg.register_relalg()
    b.registry.register_index_pred("key-eq", lambda ij: ij[0][0] == ij[1][0])
    cross, pairs = b.registry.ops["cross"], TProd(*[relalg.rel(("int", "int"))] * 2)
    join = ca.typecheck(relalg.join_term("key-eq"), pairs, b.registry)
    x, d = ({(1, 1): 1}, {(1, 2): 1}), ({(1, 3): 1}, {(1, 4): 1})

    def both_sides():
        # cross alone, and the keyed fused join, whose index keeps one group
        # per key: the output changes, and the left tuples of key 1's group
        m = incr.op_machine(cross, pairs, cross.typer(pairs))
        mj = incr.incrementalize(join)
        assert type(mj.cache.parts[0].parts[2]) is incr.CGroups
        (_, c), (_, cj) = m.init(x), mj.init(x)
        (dy, _), (dyj, cj) = m.step(d, c), mj.step(d, cj)
        return dy, dyj, incr._sets(cj[0][2][1])[1]

    # the left term, then the right term's pairs with the old left tuple
    # and with the new one
    left_term, with_old = {((1, 3), (1, 2)): 1}, {((1, 1), (1, 4)): 1}
    full = {**left_term, **with_old, ((1, 3), (1, 4)): 1}
    assert both_sides() == (full, full, {(1, 1), (1, 3)})
    with inject_fault("bilin-missing-term"):
        assert both_sides() == (left_term, left_term, {(1, 1), (1, 3)})
    with inject_fault("join-stale-matches"):
        # the unfused cross has no index to sabotage; the join's left step
        # makes the new tuple's pairs but leaves it out of key 1's group,
        # so the right step then misses its pair with (1, 4)
        assert both_sides() == (full, {**left_term, **with_old}, {(1, 1)})

    s = relalg.rel("str")
    b.registry.register_index_pred("always", lambda ij: True)
    x2 = ({"a": 1, "a2": 2}, {"b": 1})
    with inject_fault("join-batch-drops-pair"):
        fresh = ca.typecheck(relalg.join_term("always"), TProd(s, s), b.registry)
        batch, ref = ca.compiled(fresh)(x2), ca.unfused(fresh)(x2)
        out = incr.incrementalize(fresh).init(x2)[0]
    assert ref == out == {("a", "b"): 1, ("a2", "b"): 2}
    assert len(batch) == 1 and batch.items() < ref.items()


def test_seq_fault_builds_each_stage_once(monkeypatch):
    # equal stages are one typed subterm with one machine; distinct ones
    # are built one each.  Either way the fault deafens every stage after
    # the first, so a change moves the first stage's cache only.
    lb = linalg.register_linalg()
    built = _map_builds(monkeypatch)
    x, dx = {0: 1.0, 1: -2.0}, {1: 3.0, 2: 0.5}
    for equal, builds in [(True, 1), (False, 12)]:
        stages = [ca.Map(ca.seq(*[ca.OpCall("relu")] * (1 if equal else k + 1)))
                  for k in range(12)]
        tt = ca.typecheck(ca.seq(*stages), arr(3, R), lb.registry)
        built.clear()
        good = incr.incrementalize(tt)
        assert len(built) == builds
        with inject_fault("seq-drop-propagation"):
            bad = incr.incrementalize(tt)
        assert len(built) == 2 * builds
        for m, moved, out in [(good, set(range(12)), {1: 1.0, 2: 0.5}), (bad, {0}, {})]:
            _, c = m.init(x)
            before = copy.deepcopy(c)
            dy, c = m.step(dx, c)
            assert {k for k in range(12) if c[k] != before[k]} == moved
            assert dy == out


def test_seq_fault_reaches_a_composed_derivative():
    # a cache-free seq under a cache-free par: the par composes the seq's
    # derivative and never calls its step, so the fault must sabotage both
    reg = oracle_registry()
    term = ca.Par(ca.seq(ca.Dup(), ca.Plus()), ca.ID)
    tt = ca.typecheck(term, TProd(R, R), reg)
    d = (1.5, 0.0)
    good = incr.incrementalize(tt)
    with inject_fault("seq-drop-propagation"):
        bad = incr.incrementalize(tt)
    assert good.deriv is not None and bad.deriv is not None
    assert good.step(d, incr.UNIT)[0] == (3.0, 0.0)
    assert bad.step(d, incr.UNIT)[0] == (0.0, 0.0)
    # a cached middle stage: the output is the last stage's response to a
    # nil change, whatever the first two stages do with d
    term = ca.seq(ca.Dup(), ca.Par(ca.OpCall("o_relu"), ca.ID), ca.Plus())
    tt = ca.typecheck(term, R, reg)
    good = incr.incrementalize(tt)
    with inject_fault("seq-drop-propagation"):
        bad = incr.incrementalize(tt)
    assert good.deriv is None and bad.deriv is None
    last = incr.incrementalize(tt.children[2])
    assert good.step(1.5, good.init(2.0)[1])[0] == 3.0
    dz, c = bad.step(1.5, bad.init(2.0)[1])
    assert dz == last.deriv((0.0, 0.0)) == 0.0
    # the cached stage stepped on nil too: its input and output stay at 2.0
    assert incr.cache_to_json(bad.cache, c) == [
        "unit", [[{"value": 2.0}, {"value": 2.0}], "unit"], "unit"]


def test_suite_healthy_without_faults():
    assert check_construct_laws("fst", samples=30, instances=3).passed
    assert check_construct_laws("seq", samples=30, instances=3).passed
    assert check_frontend_lowering(samples=5).passed
    assert check_value_preservation_suite(GenConfig(), terms=15).passed


def test_finite_support_catches_a_stray_zip_key(monkeypatch):
    kernel = ca.container_kernel

    def stray(tt, dft_of):
        run = kernel(tt, dft_of)
        if not isinstance(tt.term, ca.Zip):
            return run
        return lambda xy: {**run(xy), "stray": (0, 0)}
    monkeypatch.setattr(ca, "container_kernel", stray)
    reports = {r.name: r for r in check_finite_support()}
    bad = reports.pop("finite-support:zip")
    assert not bad.passed
    assert [set(f) for f in bad.failures] == [{"sample", "error"}]
    assert bad.failures[0]["sample"] == 0
    assert all(r.passed for r in reports.values()), [r.name for r in reports.values()]


def test_finite_support_catches_an_undetected_violation(monkeypatch):
    # a map that never checks f(ε)=ε evaluates plus5 over a relation silently
    monkeypatch.setattr(ca, "map_inputs", lambda x, fe, shape, din, dout: x.items())
    reports = {r.name: r for r in check_finite_support()}
    bad = reports.pop("finite-support:violations-detected")
    assert not bad.passed
    assert bad.failures == [dict(case="map-non-default-preserving")]
    assert all(r.passed for r in reports.values())
