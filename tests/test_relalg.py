"""Relational algebra over multiplicity maps vs nested-loop oracles."""

import copy
import operator
import sys
import tracemalloc
from dataclasses import replace

import pytest

from deltic import incr
from deltic.calculus import (
    Cst, Dup, Filter, ID, OpCall, TermTypeError, compiled, denote, fanout, seq, typecheck, unfused,
)
from deltic.core import INT, TBase, TProd, apply_change
from deltic.domains import relalg
from deltic.frontend import compile_program, eval_named, parse_program_file
from deltic.incr import (
    cache_entry_count, cache_equal, cache_to_json, incrementalize,
)
from deltic.oracle import (
    _join_side_change, _run_stream, check_op_laws, inject_fault, stable_rng,
)

from helpers import (
    call_codes, oracle_join, oracle_proj, oracle_union, rand_relation, step_through,
)

Z = TBase(INT)


@pytest.fixture(scope="module")
def bundle():
    b = relalg.register_relalg()
    b.validate(samples=30)
    return b


def test_union_example(bundle):
    ty = TProd(relalg.rel("str"), relalg.rel("str"))
    tt = typecheck(relalg.union_term(), ty, bundle.registry)
    assert denote(tt, ({"t": 1}, {"t": 2, "u": 1})) == {"t": 3, "u": 1}


def test_proj_example(bundle):
    tt = typecheck(relalg.proj_term("fst"), relalg.rel(("int", "str")),
                   bundle.registry)
    v = {(1, "a"): 1, (1, "b"): 2, (2, "c"): 1}
    assert denote(tt, v) == {1: 3, 2: 1}


def test_join_example(bundle):
    b = relalg.register_relalg()
    b.registry.register_index_pred("p_tu", lambda ij: ij == ("t", "u"))
    ty = TProd(relalg.rel("str"), relalg.rel("str"))
    tt = typecheck(relalg.join_term("p_tu"), ty, b.registry)
    assert denote(tt, ({"t": 1}, {"u": 1, "v": 3})) == {("t", "u"): 1}


def test_table2_vs_oracles_randomized(bundle):
    b = relalg.register_relalg()
    b.registry.register_index_pred("eqkey", lambda ij: ij[0][0] == ij[1][0])
    reg = b.registry
    rng = stable_rng(51, "relalg-oracles")
    pair_rel = relalg.rel(("int", "int"))
    for _ in range(30):
        r = rand_relation(rng, rng.randint(0, 20))
        s = rand_relation(rng, rng.randint(0, 20))

        tt = typecheck(relalg.union_term(), TProd(pair_rel, pair_rel), reg)
        assert denote(tt, (r, s)) == oracle_union(r, s)

        tt = typecheck(relalg.difference_term(), TProd(pair_rel, pair_rel), reg)
        assert denote(tt, (r, s)) == oracle_union(r, {t: -m for t, m in s.items()})

        tt = typecheck(relalg.intersection_term(), TProd(pair_rel, pair_rel), reg)
        want = {t: r[t] * s[t] for t in r.keys() & s.keys() if r[t] * s[t] != 0}
        assert denote(tt, (r, s)) == want

        tt = typecheck(relalg.join_term("eqkey"), TProd(pair_rel, pair_rel), reg)
        assert denote(tt, (r, s)) == oracle_join(r, s, lambda ij: ij[0][0] == ij[1][0])

        tt = typecheck(relalg.proj_term("fst"), pair_rel, reg)
        assert denote(tt, r) == oracle_proj(r, lambda t: t[0])


def test_cross_bilinearity_and_aggregation_self_maintainability(bundle):
    # the combinator preconditions, checked not assumed
    for opname in ("cross", "count", "groupby_fst"):
        opdef = bundle.registry.ops[opname]
        for in_ty in opdef.sample_in_tys:
            rep = check_op_laws(opdef, in_ty, samples=60)
            assert rep.passed, (opname, rep.failures)


def test_incremental_join_matches_batch(bundle):
    b = relalg.register_relalg()
    b.registry.register_index_pred("eqkey2", lambda ij: ij[0][0] == ij[1][0])
    pair_rel = relalg.rel(("int", "int"))
    in_ty = TProd(pair_rel, pair_rel)
    tt = typecheck(relalg.join_term("eqkey2"), in_ty, b.registry)
    m = incrementalize(tt)
    rng = stable_rng(52, "join-incr")
    for _ in range(15):
        r = rand_relation(rng, 12)
        s = rand_relation(rng, 8)
        ds = []
        for _ in range(rng.randint(0, 4)):
            dr = {(rng.randrange(6), rng.randrange(40)): rng.choice((-1, 1, 2))}
            dside = rng.random() < 0.5
            ds.append((dr, {}) if dside else ({}, dr))
        got, _, x2 = step_through(m, (r, s), ds)
        assert got == unfused(tt)(x2)


def test_negative_multiplicities_encode_deletion(bundle):
    tt = typecheck(relalg.proj_term("fst"), relalg.rel(("int", "int")),
                   bundle.registry)
    m = incrementalize(tt)
    r = {(1, 10): 2, (2, 20): 1}
    y, c = m.init(r)
    assert y == {1: 2, 2: 1}
    dy, c = m.step({(1, 10): -2}, c)
    assert dy == {1: -2}


@pytest.mark.parametrize("name", ["union", "difference", "intersection"])
def test_surface_binary_programs_reject_unequal_relations(bundle, name):
    text = f"bundle relalg\nparam r : rel[int] int\nparam s : rel[str] int\n\n{name} # (r, s)\n"
    _, prog = parse_program_file(text, lambda _n: bundle)
    with pytest.raises(TermTypeError, match=f"program '{name}' does not accept input"):
        compile_program(prog, bundle.registry, bundle.literal_base)


@pytest.mark.parametrize("name", ["union", "difference", "intersection"])
def test_surface_binary_programs_step_as_they_denote(name):
    # each program is built from text by domains.pair_program; union is the add
    # rule over an infinite-index shape, the other two a map2 of an op
    b = relalg.register_relalg()
    text = f"bundle relalg\nparam r : rel[int] int\nparam s : rel[int] int\n\n{name} # (r, s)\n"
    _, prog = parse_program_file(text, lambda _n: b)
    tt = compile_program(prog, b.registry, b.literal_base)
    rng = stable_rng(64, f"surface-{name}")

    def rel():
        return {rng.randrange(8): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 5))}

    x = (rel(), rel())
    rel_ty = prog.in_ty.left
    env = {"r": (rel_ty, x[0]), "s": (rel_ty, x[1])}
    assert denote(tt, x) == unfused(tt)(x) == eval_named(
        prog.body, env, b.registry, b.literal_base)[1]
    m = incrementalize(tt)
    y, c = m.init(x)
    for k in range(30):
        d = [(rel(), {}), ({}, rel()), (rel(), rel())][k % 3]
        dy, c = m.step(d, c)
        y = apply_change(tt.out_ty, y, dy)
        x = apply_change(tt.in_ty, x, d)
        assert y == denote(tt, x) == unfused(tt)(x)


# ---------------------------------------------------------------------------
# cross ; σ_p fused into one bilinear join stage
# ---------------------------------------------------------------------------

PAIR_REL = relalg.rel(("int", "int"))
JOIN_IN = TProd(PAIR_REL, PAIR_REL)


def _closing_over(col):
    return lambda ij: ij[0][col] == ij[1][col]


JOIN_PREDS = {
    "key-eq": lambda ij: ij[0][0] == ij[1][0],
    # key-eq's twin that closes over its column, so that relalg does not
    # read it as a key equality: its index is the plain one, which keeps
    # nothing
    "key-eq-opaque": _closing_over(0),
    "non-key": lambda ij: (ij[0][1] + ij[1][1]) % 3 == 0,
}


def _join(pred_name):
    b = relalg.register_relalg()
    b.registry.register_index_pred(pred_name, JOIN_PREDS[pred_name])
    return typecheck(relalg.join_term(pred_name), JOIN_IN, b.registry)


def _unfused(tt):
    # the seq of the join's four stages, each built on its own
    return incr._seq_machine(tt, [incrementalize(s) for s in tt.children])


def _rel_change(rng, rel):
    # deletions of present tuples, multiplicity edits and fresh tuples
    d = {}
    for t in rng.sample(sorted(rel), min(len(rel), rng.randint(0, 2))):
        d[t] = rng.choice((-rel[t], 1, -1))
    for _ in range(rng.randint(1, 3)):
        d[(rng.randrange(10), rng.randrange(60))] = rng.choice((-2, -1, 1, 2))
    return {t: m for t, m in d.items() if m}


@pytest.mark.parametrize("pred_name", sorted(JOIN_PREDS))
def test_fused_join_laws(pred_name):
    # Laws 1-3 of the fused stage against the stages run one by one, with
    # the change on the left only, the right only, both sides and neither
    tt = _join(pred_name)
    m, ref = incrementalize(tt), unfused(tt)
    rng = stable_rng(53, f"fused-join-{pred_name}")
    for k in range(40):
        x = (rand_relation(rng, rng.randint(0, 20)), rand_relation(rng, rng.randint(0, 8)))
        y, c = m.init(x)
        assert y == ref(x)  # Law-1
        for it in range(4):
            dx, dy = _rel_change(rng, x[0]), _rel_change(rng, x[1])
            d = [(dx, {}), ({}, dy), (dx, dy), ({}, {})][(k + it) % 4]
            dout, c = m.step(d, c)
            x = apply_change(JOIN_IN, x, d)
            y = apply_change(tt.out_ty, y, dout)
            assert y == ref(x)  # Law-2
            assert cache_equal(m.cache, c, m.init(x)[1])  # Law-3


def test_fused_join_cache_is_the_unfused_one():
    # an opaque join keeps the unfused cross's cache, (x, y, unit), in
    # descriptor and in JSON, after init and after a left, a right and a
    # two-sided step
    for pred_name in ("key-eq-opaque", "non-key"):
        tt = _join(pred_name)
        fused, unfused = incrementalize(tt), _unfused(tt)
        assert fused.cache == unfused.cache
        assert fused.cache.parts[0] == incr.CTuple(
            (incr.CValue(PAIR_REL), incr.CValue(PAIR_REL), incr.CUnit()))
        rng = stable_rng(54, "fused-join-cache")
        x = (rand_relation(rng, 15), rand_relation(rng, 6))
        (y1, c1), (y2, c2) = fused.init(x), unfused.init(x)
        assert y1 == y2
        assert cache_to_json(fused.cache, c1) == cache_to_json(unfused.cache, c2)
        for d in [(_rel_change(rng, x[0]), {}), ({}, _rel_change(rng, x[1])),
                  (_rel_change(rng, x[0]), _rel_change(rng, x[1]))]:
            (d1, c1), (d2, c2) = fused.step(d, c1), unfused.step(d, c2)
            assert d1 == d2
            assert cache_to_json(fused.cache, c1) == cache_to_json(unfused.cache, c2)


def test_fused_join_cache_json_after_a_left_and_a_right_step():
    # the x and y parts as printed, and the plain index's unit
    tt = _join("key-eq-opaque")
    m = incrementalize(tt)
    _, c = m.init(({(1, 2): 1, (2, 5): 2}, {(1, 9): 1, (2, 7): 3}))
    selection = "unit", "unit", "unit"
    dout, c = m.step(({(1, 4): 1, (2, 5): -2}, {}), c)
    assert dout == {((1, 4), (1, 9)): 1, ((2, 5), (2, 7)): -6}
    assert cache_to_json(m.cache, c) == [
        [{"value": [[[1, 2], 1], [[1, 4], 1]]},
         {"value": [[[1, 9], 1], [[2, 7], 3]]},
         "unit"],
        *selection]
    dout, c = m.step(({}, {(1, 8): 2, (2, 7): -3}), c)
    assert dout == {((1, 2), (1, 8)): 2, ((1, 4), (1, 8)): 2}
    assert cache_to_json(m.cache, c) == [
        [{"value": [[[1, 2], 1], [[1, 4], 1]]},
         {"value": [[[1, 8], 2], [[1, 9], 1]]},
         "unit"],
        *selection]


@pytest.mark.parametrize("fallback, fused", [(0, True), (1, False)])
def test_selection_fuses_only_with_the_default_fallback(fallback, fused):
    # ⟨cst 1, id⟩ ; filter p keeps failing rows at 1, which is not linear;
    # the machine and the batch fuse alike, through the op's one join hook:
    # a fused join calls join_index from incrementalize and from compiled
    b = relalg.register_relalg()
    p = JOIN_PREDS["key-eq"]
    b.registry.register_index_pred("key-eq", p)
    called = []
    cross = b.registry.ops["cross"]
    b.registry.ops["cross"] = replace(
        cross, join_index=lambda q, ty: called.append(q) or cross.join_index(q, ty))
    term = seq(OpCall("cross"), fanout(Cst(relalg.Z, fallback), ID), Filter("key-eq"))
    tt = typecheck(term, JOIN_IN, b.registry)
    incrementalize(tt)
    assert called == ([p] if fused else [])
    run = compiled(tt)
    assert called == ([p, p] if fused else [])
    if fused:  # a fallback of 1 over relations has infinite support
        x = ({(1, 2): 1, (2, 5): 2}, {(1, 9): 3, (3, 7): 1})
        assert run(x) == unfused(tt)(x) == {((1, 2), (1, 9)): 3}


ALWAYS = {"always": lambda ij: True, "never": lambda ij: False}


@pytest.mark.parametrize("pred_name", sorted(JOIN_PREDS) + sorted(ALWAYS))
@pytest.mark.parametrize("sizes", [(20, 8), (0, 8), (20, 0), (0, 0)],
                         ids=["both", "empty-left", "empty-right", "empty"])
def test_fused_batch_equals_the_stage_by_stage_run(pred_name, sizes):
    # same values in the same key order, over relations with negative
    # multiplicities, and the cross product is never built
    p = {**JOIN_PREDS, **ALWAYS}[pred_name]
    b = relalg.register_relalg()
    b.registry.register_index_pred(pred_name, p)
    tt = typecheck(relalg.join_term(pred_name), JOIN_IN, b.registry)
    rng = stable_rng(61, f"fused-batch-{pred_name}-{sizes}")
    negative = False
    for _ in range(10):
        x = tuple(rand_relation(rng, n, key_range=4, val_range=12) for n in sizes)
        negative |= any(m < 0 for v in x for m in v.values())
        got, codes = call_codes(denote, tt, x)
        want = unfused(tt)(x)
        assert got == want == oracle_join(*x, p)
        assert list(got) == list(want)
        assert relalg._cross.__code__ not in codes
    assert negative or sizes == (0, 0)


def test_fused_join_right_step_never_builds_the_cross_product():
    tt = _join("key-eq")
    m = incrementalize(tt)
    rng = stable_rng(55, "fused-join-calls")
    x = (rand_relation(rng, 200, key_range=20, val_range=1000), rand_relation(rng, 10))
    _, c = m.init(x)
    _, codes = call_codes(m.step, ({}, {(3, 7): 1, (4, 8): -1}), c)
    assert codes
    assert relalg._cross.__code__ not in codes
    assert not [f for f in codes if f.co_name == "<dictcomp>"]


def test_bilin_fault_reaches_the_fused_join():
    # a right-side change needs the dropped f(x, dy) term, so Law-2 breaks
    tt = _join("key-eq")
    x = ({(1, 2): 1, (2, 5): 2}, {(1, 9): 1})
    d = ({}, {(2, 7): 1})
    want = unfused(tt)(apply_change(JOIN_IN, x, d))
    for faulty in (False, True):
        if faulty:
            with inject_fault("bilin-missing-term"):
                m = incrementalize(tt)
        else:
            m = incrementalize(tt)
        y, c = m.init(x)
        dy, _ = m.step(d, c)
        assert (apply_change(tt.out_ty, y, dy) == want) != faulty


# ---------------------------------------------------------------------------
# The opaque join: the plain product rule, σ_p(dx × y) ⊕ σ_p((x ⊕ dx) × dy)
# ---------------------------------------------------------------------------

def test_opaque_steps_test_p_once_per_pair_of_each_product_rule_leg():
    calls = [0]

    def p(ij):
        calls[0] += 1
        return ij[0][0] == ij[1][0]

    b = relalg.register_relalg()
    b.registry.register_index_pred("counted", p)
    tt = typecheck(relalg.join_term("counted"), JOIN_IN, b.registry)
    m = incrementalize(tt)
    x = ({(i % 20, i): 1 for i in range(200)}, {(k, 7): 1 for k in range(10)})
    y, c = m.init(x)
    assert calls[0] == 200 * 10
    # a right change of k tuples tests p k·|x ⊕ dx| times, whether a tuple
    # is new to the join or already in it
    for k in (1, 2, 5):
        calls[0] = 0
        d = ({}, {**{j: -1 for j in sorted(x[1])[:k - 1]}, (k, 8): 1})
        dout, c = m.step(d, c)
        assert calls[0] == k * len(x[0])
        x = apply_change(JOIN_IN, x, d)
        y = apply_change(tt.out_ty, y, dout)
        assert y == unfused(tt)(x)
    # a left change of k tuples tests p k·|y| times
    for k in (1, 3, 7):
        calls[0] = 0
        d = ({(i % 20, i): 1 for i in range(1_000 * k, 1_000 * k + k)}, {})
        dout, c = m.step(d, c)
        assert calls[0] == k * len(x[1])
        x = apply_change(JOIN_IN, x, d)
        y = apply_change(tt.out_ty, y, dout)
        assert y == unfused(tt)(x)


def _join_slot(c):
    # the fused join's (x, y, index) among the seq's stage slots
    return next(slot for slot in c if type(slot) is tuple and len(slot) == 3)


@pytest.mark.parametrize("pred_name", ["key-eq-opaque", "non-key"])
@pytest.mark.parametrize("self_join", [False, True], ids=["join", "dup-join"])
def test_opaque_join_keeps_the_laws_after_every_step(pred_name, self_join):
    # Laws 1-3 against the stages run one by one, and the plain index's
    # unit, over the oracle's changes, for a join and a self-join
    b = relalg.register_relalg()
    b.registry.register_index_pred(pred_name, JOIN_PREDS[pred_name])
    term = relalg.join_term(pred_name)
    tt = (typecheck(seq(Dup(), term), PAIR_REL, b.registry) if self_join
          else typecheck(term, JOIN_IN, b.registry))
    m, ref = incrementalize(tt), unfused(tt)
    rng = stable_rng(60, f"join-opaque-{pred_name}-{self_join}")
    for k in range(10):
        x = rand_relation(rng, 15, key_range=4, val_range=8)
        if not self_join:
            x = (x, rand_relation(rng, 5, key_range=4, val_range=8))
        y, c = m.init(x)
        assert y == ref(x)  # Law-1
        assert _join_slot(c)[2] is incr.UNIT
        gone = ([], [])
        for it in range(8):
            if self_join:
                d = _join_side_change(rng, x, gone[0])
            else:
                dx, dy = (_join_side_change(rng, v, g) for v, g in zip(x, gone))
                d = [(dx, {}), ({}, dy), (dx, dy)][(k + it) % 3]
            dout, c = m.step(d, c)
            x = apply_change(tt.in_ty, x, d)
            y = apply_change(tt.out_ty, y, dout)
            assert y == ref(x)  # Law-2
            assert cache_equal(m.cache, c, m.init(x)[1])  # Law-3
            assert _join_slot(c)[2] is incr.UNIT
            assert cache_entry_count(m.cache, c) == sum(map(len, _join_slot(c)[:2]))


def test_stale_matches_fault_leaves_a_new_left_tuple_out():
    tt = _join("key-eq")
    x = ({(1, 2): 1}, {(1, 9): 1, (2, 9): 1})
    d = ({(2, 5): 1}, {})  # a new left tuple that pairs with (2, 9)
    for faulty in (False, True):
        if faulty:
            with inject_fault("join-stale-matches"):
                m = incrementalize(tt)
        else:
            m = incrementalize(tt)
        _, c = m.init(x)
        dout, c = m.step(d, c)
        assert dout == {((2, 5), (2, 9)): 1}  # the term is still made
        x2 = apply_change(JOIN_IN, x, d)
        assert cache_equal(m.cache, c, m.init(x2)[1]) != faulty  # Law-3
        # deleting (2, 9) then reads its key's group, which misses (2, 5)
        dout, _ = m.step(({}, {(2, 9): -1}), c)
        assert (dout == {((2, 5), (2, 9)): -1}) != faulty


# ---------------------------------------------------------------------------
# The keyed equi-join: p read as ij[0][a] == ij[1][b], stepped by key groups
# ---------------------------------------------------------------------------

def _key_eq_def(ij):
    return ij[0][1] == ij[1][0]


def _with_default(ij=((0,), (0,))):
    return ij[0][0] == ij[1][0]


# (predicate, the (left, right) key columns relalg reads off its code, or
# None when it stays opaque), over JOIN_IN, two columns a side
RECOGNIZER = {
    "lambda": (lambda ij: ij[0][0] == ij[1][0], (0, 0)),
    "def": (_key_eq_def, (1, 0)),
    "eval": (eval("lambda t: t[1][1] == t[0][0]"), (0, 1)),
    "swapped": (lambda ij: ij[1][0] == ij[0][1], (1, 0)),
    "ne": (lambda ij: ij[0][0] != ij[1][0], None),
    "lt": (lambda ij: ij[0][0] < ij[1][0], None),
    "same-side": (lambda ij: ij[0][0] == ij[0][1], None),
    "extra-op": (lambda ij: ij[0][0] + 0 == ij[1][0], None),
    "closure": (_closing_over(0), None),
    "default-arg": (lambda ij, k=0: ij[0][0] == ij[1][0], None),
    "default": (_with_default, None),
    "out-of-schema": (lambda ij: ij[0][2] == ij[1][1], None),
    "builtin": (bool, None),
}


def _join_index_desc(m):
    # the third cache part of the fused join, the seq's first slot
    return m.cache.parts[0].parts[2]


@pytest.mark.parametrize("name", sorted(RECOGNIZER))
def test_the_key_columns_are_read_off_the_predicates_code(name):
    p, cols = RECOGNIZER[name]
    assert relalg._key_columns(p, JOIN_IN) == cols
    b = relalg.register_relalg()
    b.registry.register_index_pred(name, p)
    m = incrementalize(typecheck(relalg.join_term(name), JOIN_IN, b.registry))
    assert _join_index_desc(m) == (incr.CUnit() if cols is None else incr.CGroups())


# the key-eq code over scalars, and a column past a pair: each indexes past
# the tuple, so it stays opaque; the input that shows it, and the error
PAST = {
    "scalars": ("int", lambda ij: ij[0][0] == ij[1][0], ({1: 1}, {1: 2}), TypeError),
    "pairs": (("int", "int"), lambda ij: ij[0][2] == ij[1][1], ({(1, 2): 1}, {(1, 3): 1}),
              IndexError),
}


@pytest.mark.parametrize("name", sorted(PAST))
def test_a_predicate_past_the_tuple_still_raises_where_it_raised(name):
    # p raises at the first pair, in batch, in the stage-by-stage run and in
    # init, and not while one side is empty
    schema, p, x, error = PAST[name]
    rel_ty = relalg.rel(schema)
    assert relalg._key_columns(p, TProd(rel_ty, rel_ty)) is None
    b = relalg.register_relalg()
    b.registry.register_index_pred(name, p)
    tt = typecheck(relalg.join_term(name), TProd(rel_ty, rel_ty), b.registry)
    m = incrementalize(tt)
    assert _join_index_desc(m) == incr.CUnit()
    for run in (compiled(tt), unfused(tt), m.init):
        with pytest.raises(error):
            run(x)
    assert compiled(tt)(({}, x[1])) == {} and m.init((x[0], {}))[0] == {}


def _groups_equal_a_rebuild(a, b, c):
    # each key that y holds has one group: the tuples of y with that key,
    # and, in four buckets by hash, those of x, pointing at the tuples x holds
    x, y, ix = _join_slot(c)
    assert ix.keys() == {j[b] for j in y}
    held = {i: i for i in x}
    for k, (right, buckets) in ix.items():
        assert sorted(right) == sorted(j for j in y if j[b] == k)
        live = [i for bucket in buckets for i in bucket]
        assert sorted(live) == sorted(i for i in x if i[a] == k)
        assert all(held[i] is i for i in live)
        assert all(hash(i) & 3 == n for n, bucket in enumerate(buckets) for i in bucket)


def _row(rng, schema):
    return rng.randrange(3) if schema == "int" else tuple(_row(rng, s) for s in schema)


def _schema_change(rng, rel, schema):
    # deletions, multiplicity edits and rows that may be new
    d = {t: rng.choice((-rel[t], -1, 1)) for t in rng.sample(sorted(rel), min(len(rel), 2))}
    for _ in range(rng.randint(0, 3)):
        d.setdefault(_row(rng, schema), rng.choice((-1, 1, 2)))
    return {t: m for t, m in d.items() if m}


TRIPLE_L, TRIPLE_R = ("int", ("int", "int")), (("int", "int"), "int")
# (left schema, right schema, predicate, its key columns): int*int*int is
# int*(int*int), so a three-int tuple has two columns, the second a pair
KEYED = {
    "0-0": (("int", "int"), ("int", "int"), lambda ij: ij[0][0] == ij[1][0], (0, 0)),
    "1-0": (("int", "int"), ("int", "int"), lambda ij: ij[0][1] == ij[1][0], (1, 0)),
    "swapped-0-1": (("int", "int"), ("int", "int"), lambda ij: ij[1][1] == ij[0][0], (0, 1)),
    "triple-0-1": (TRIPLE_L, TRIPLE_R, lambda ij: ij[0][0] == ij[1][1], (0, 1)),
    "triple-1-0": (TRIPLE_L, TRIPLE_R, lambda ij: ij[0][1] == ij[1][0], (1, 0)),
}


def _keyed_join(name, self_join=False):
    left, right, p, cols = KEYED[name]
    b = relalg.register_relalg()
    b.registry.register_index_pred(name, p)
    term = relalg.join_term(name)
    if self_join:
        return typecheck(seq(Dup(), term), relalg.rel(left), b.registry), cols
    return typecheck(term, TProd(relalg.rel(left), relalg.rel(right)), b.registry), cols


@pytest.mark.parametrize("sides", ["left", "right", "both"])
@pytest.mark.parametrize("name", sorted(KEYED))
def test_keyed_join_laws_over_one_and_two_sided_streams(name, sides):
    # Laws 1-3, the nil step and the fused batch against the stages run one
    # by one, in key order too, through the oracle's change stream
    tt, (a, b) = _keyed_join(name)
    m, ref = incrementalize(tt), unfused(tt)
    assert _join_index_desc(m) == incr.CGroups()
    schemas = [ty.shape.payload for ty in (tt.in_ty.left, tt.in_ty.right)]
    rng = stable_rng(62, f"keyed-join-{name}-{sides}")

    def reference(x):
        want = ref(x)
        assert list(compiled(tt)(x)) == list(want)
        return want

    def draw(x):
        dx, dy = (_schema_change(rng, v, s) for v, s in zip(x, schemas))
        return {"left": (dx, {}), "right": ({}, dy), "both": (dx, dy)}[sides]

    for _ in range(15):
        x = tuple({_row(rng, s): rng.choice((-1, 1, 2)) for _ in range(rng.randint(0, 12))}
                  for s in schemas)
        assert _run_stream(m, reference, x, 6, draw, same=operator.eq) is None
        for d in [draw(x) for _ in range(3)]:
            _, c = m.step(d, m.init(x)[1])
            _groups_equal_a_rebuild(a, b, c)


@pytest.mark.parametrize("name", ["0-0", "1-0"])
def test_keyed_self_join_laws(name):
    # dup ; cross ; σ_p: one relation on both sides, each change to both
    tt, (a, b) = _keyed_join(name, self_join=True)
    m = incrementalize(tt)
    rng = stable_rng(63, f"keyed-self-join-{name}")
    schema = tt.in_ty.shape.payload
    for _ in range(15):
        x = {_row(rng, schema): rng.choice((-1, 1, 2)) for _ in range(rng.randint(0, 12))}
        draw = lambda x: _schema_change(rng, x, schema)  # noqa: E731
        assert _run_stream(m, unfused(tt), x, 6, draw, same=operator.eq) is None
        _, c = m.step(draw(x), m.init(x)[1])
        _groups_equal_a_rebuild(a, b, c)


def test_a_keys_group_follows_its_right_tuples():
    # three right tuples share key 1; the group goes with the last of them,
    # a left tuple with key 1 then joins no group, and when key 1 comes back
    # its group is scanned from the left relation again
    tt = _join("key-eq")
    m, ref = incrementalize(tt), unfused(tt)
    x = ({(1, 0): 1, (1, 1): 2, (2, 0): 1}, {(1, 5): 1, (1, 6): 2})
    y, c = m.init(x)
    keys = [[1]]
    for d, held in [(({}, {(1, 7): 1}), [1]),
                    (({}, {(1, 5): -1, (1, 6): -2}), [1]),
                    (({(1, 2): 3}, {}), [1]),
                    (({}, {(1, 7): -1}), []),
                    (({(1, 3): 1, (1, 0): -1}, {}), []),
                    (({}, {(1, 9): 2, (2, 9): 1}), [1, 2])]:
        dout, c = m.step(d, c)
        x, y = apply_change(JOIN_IN, x, d), apply_change(tt.out_ty, y, dout)
        assert y == ref(x)
        assert cache_equal(m.cache, c, m.init(x)[1])
        _groups_equal_a_rebuild(0, 0, c)
        keys.append(sorted(_join_slot(c)[2]))
        assert keys[-1] == held
    assert y == {((1, 1), (1, 9)): 4, ((1, 2), (1, 9)): 6, ((1, 3), (1, 9)): 2,
                 ((2, 0), (2, 9)): 1}


def test_keyed_join_cache_json_after_a_left_and_a_right_step():
    # the x, y and groups parts as printed: per key its right tuples and its
    # left tuples, sorted; a group whose last right tuple left is gone
    tt = _join("key-eq")
    m = incrementalize(tt)
    _, c = m.init(({(1, 2): 1, (2, 5): 2, (3, 1): 1}, {(1, 9): 1, (2, 7): 3}))
    selection = "unit", "unit", "unit"
    dout, c = m.step(({(1, 4): 1, (2, 5): -2, (3, 2): 1}, {}), c)
    assert dout == {((1, 4), (1, 9)): 1, ((2, 5), (2, 7)): -6}
    assert cache_to_json(m.cache, c) == [
        [{"value": [[[1, 2], 1], [[1, 4], 1], [[3, 1], 1], [[3, 2], 1]]},
         {"value": [[[1, 9], 1], [[2, 7], 3]]},
         {"groups": [[1, [[1, 9]], [[1, 2], [1, 4]]], [2, [[2, 7]], []]]}],
        *selection]
    dout, c = m.step(({}, {(1, 8): 2, (2, 7): -3, (3, 0): 1}), c)
    assert dout == {((1, 2), (1, 8)): 2, ((1, 4), (1, 8)): 2,
                    ((3, 1), (3, 0)): 1, ((3, 2), (3, 0)): 1}
    assert cache_to_json(m.cache, c) == [
        [{"value": [[[1, 2], 1], [[1, 4], 1], [[3, 1], 1], [[3, 2], 1]]},
         {"value": [[[1, 8], 2], [[1, 9], 1], [[3, 0], 1]]},
         {"groups": [[1, [[1, 8], [1, 9]], [[1, 2], [1, 4]]],
                     [3, [[3, 0]], [[3, 1], [3, 2]]]]}],
        *selection]
    # the groups hold no scalars: the count is the unfused one
    assert cache_entry_count(m.cache, c) == 4 + 3


def test_keyed_steps_call_p_only_on_a_keys_candidates():
    # p is the recognized lambda, counted by its code object: a left tuple
    # whose key no right tuple holds costs no call, one whose key two right
    # tuples hold costs two, and a right tuple with a new key one per left
    # tuple that holds its key
    p = JOIN_PREDS["key-eq"]
    tt = _join("key-eq")
    m = incrementalize(tt)
    x = ({(i % 20, i): 1 for i in range(200)}, {(3, 7): 1, (3, 8): 1, (4, 9): 1})
    _, c = m.init(x)
    (dout, c), codes = call_codes(m.step, ({(k, 1_000 + k): 1 for k in range(5, 15)}, {}), c)
    assert dout == {} and codes.count(p.__code__) == 0
    (dout, c), codes = call_codes(m.step, ({(3, 2_000): 1, (9, 2_001): -1}, {}), c)
    assert len(dout) == 2 and codes.count(p.__code__) == 2
    (dout, c), codes = call_codes(m.step, ({}, {(5, 1): 1}), c)
    assert len(dout) == 11 and codes.count(p.__code__) == 11
    x = apply_change(JOIN_IN, x, ({(k, 1_000 + k): 1 for k in range(5, 15)}, {}))
    x = apply_change(JOIN_IN, x, ({(3, 2_000): 1, (9, 2_001): -1}, {}))
    x = apply_change(JOIN_IN, x, ({}, {(5, 1): 1}))
    assert cache_equal(m.cache, c, m.init(x)[1])


@pytest.mark.parametrize("self_join", [False, True], ids=["join", "dup-join"])
def test_live_groups_equal_a_rebuild_after_every_step(self_join):
    # the keyed index's live groups against a rebuild, over the oracle's changes
    b = relalg.register_relalg()
    b.registry.register_index_pred("key-eq", JOIN_PREDS["key-eq"])
    term = relalg.join_term("key-eq")
    tt = (typecheck(seq(Dup(), term), PAIR_REL, b.registry) if self_join
          else typecheck(term, JOIN_IN, b.registry))
    m = incrementalize(tt)
    rng = stable_rng(60, f"join-groups-{self_join}")
    for k in range(10):
        x = rand_relation(rng, 15, key_range=4, val_range=8)
        if not self_join:
            x = (x, rand_relation(rng, 5, key_range=4, val_range=8))
        _, c = m.init(x)
        _groups_equal_a_rebuild(0, 0, c)
        gone = ([], [])
        for it in range(8):
            if self_join:
                d = _join_side_change(rng, x, gone[0])
            else:
                dx, dy = (_join_side_change(rng, v, g) for v, g in zip(x, gone))
                d = [(dx, {}), ({}, dy), (dx, dy)][(k + it) % 3]
            _, c = m.step(d, c)
            x = apply_change(tt.in_ty, x, d)
            _groups_equal_a_rebuild(0, 0, c)
            assert cache_equal(m.cache, c, m.init(x)[1])
            assert cache_entry_count(m.cache, c) == sum(map(len, _join_slot(c)[:2]))


# ---------------------------------------------------------------------------
# Owned bilinear caches: step ⊕s the cached relations in place
# ---------------------------------------------------------------------------

def _cross():
    b = relalg.register_relalg()
    return typecheck(OpCall("cross"), JOIN_IN, b.registry)


def _mixed_changes(rng, x, count):
    # left-only, right-only and both-sides changes, with deletions
    for k in range(count):
        dx, dy = _rel_change(rng, x[0]), _rel_change(rng, x[1])
        d = [(dx, {}), ({}, dy), (dx, dy)][k % 3]
        yield d
        x = apply_change(JOIN_IN, x, d)


@pytest.mark.parametrize("build", [lambda: _join("key-eq"), _cross], ids=["fused", "cross"])
def test_bilin_steps_never_write_into_the_callers_input(build):
    tt = build()
    for faulty in (False, True):
        rng = stable_rng(56, "bilin-owned")
        x = (rand_relation(rng, 30), rand_relation(rng, 10))
        before = copy.deepcopy(x)
        if faulty:
            with inject_fault("bilin-aliased-cache"):
                m = incrementalize(tt)
        else:
            m = incrementalize(tt)
        _, c = m.init(x)
        for d in _mixed_changes(rng, x, 50):
            _, c = m.step(d, c)
        # the fault caches x itself, so its in-place ⊕ shows up in x
        assert (x == before) != faulty


def test_self_join_keeps_both_sides_apart():
    # dup ; cross hands one relation to both sides of the bilinear step
    b = relalg.register_relalg()
    tt = typecheck(seq(Dup(), OpCall("cross")), PAIR_REL, b.registry)
    m = incrementalize(tt)
    rng = stable_rng(57, "bilin-self-join")
    x = rand_relation(rng, 20)
    before = copy.deepcopy(x)
    y, c = m.init(x)
    assert y == denote(tt, x)  # Law-1
    x0 = x
    for _ in range(50):
        d = _rel_change(rng, x)
        dout, c = m.step(d, c)
        x = apply_change(PAIR_REL, x, d)
        y = apply_change(tt.out_ty, y, dout)
        assert y == denote(tt, x)  # Law-2
        assert cache_equal(m.cache, c, m.init(x)[1])  # Law-3
    assert x0 == before


def _cached_left(c):
    return c[0][0]  # the fused stage holds the cross slot of the seq cache


def test_left_step_allocates_no_copy_of_the_cached_relation():
    tt = _join("key-eq")
    m = incrementalize(tt)
    x = ({(i % 100, i): 1 for i in range(20_000)}, {(k, 7): 1 for k in range(20)})
    _, c = m.init(x)
    d = ({**{(i % 100, i): -1 for i in range(5)},
          **{(i % 100, i): 1 for i in range(30_000, 30_005)}}, {})
    tracemalloc.start()
    try:
        _, c = m.step(d, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(_cached_left(c)) == 20_000
    assert peak < sys.getsizeof(_cached_left(c)) / 10


def test_in_place_churn_keeps_the_cached_relation_compact():
    # 50 deletions and 50 fresh tuples per step make CPython resize the
    # cached dict in place, to about twice the size of a copy of it
    tt = _join("key-eq")
    m = incrementalize(tt)
    rng = stable_rng(58, "bilin-compaction")
    x = ({(i % 50, i): 1 for i in range(2_000)}, {(k, 3): 1 for k in range(3)})
    _, c = m.init(x)
    fresh = iter(range(10_000, 100_000))
    copies = 0
    for _ in range(200):
        gone = rng.sample(sorted(x[0]), 50)
        dx = {t: -x[0][t] for t in gone}
        dx.update(((n % 50, n), 1) for n in (next(fresh) for _ in range(50)))
        held = _cached_left(c)
        _, c = m.step((dx, {}), c)
        x = apply_change(JOIN_IN, x, (dx, {}))
        cached = _cached_left(c)
        copies += cached is not held
        assert sys.getsizeof(cached) <= sys.getsizeof(dict(cached))
        assert cache_equal(m.cache, c, m.init(x)[1])  # Law-3
    # compaction copies now and then, not on every step
    assert 1 <= copies <= 200 // 5
