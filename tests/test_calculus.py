"""Typing rules and batch interpreter."""

import traceback

import pytest

from deltic.calculus import (
    CasePar, Cst, Distr, Dup, Filter, FST, Fuse, Get, ID, Inl, Map, OpCall,
    OpDef, Par, Plus, ProgramDef, Proj, Registry, RegistryError, Replicate, Reshape, SetAt,
    Seq, SND, TermTypeError, Tp, Zip, _map_batch, compiled, denote, fanout, fusion, map2,
    monomorphic, seq, term_from_text, term_to_text, typecheck, unfused,
)
from deltic.core import (
    INT, NAT, REAL, SCALAR, ConformanceError, Left, Right, TBase, TCont, TProd, TSum, UsageError,
    apply_change, default_value, values_equal,
)
from deltic.domains import get_bundle, linalg, relalg
from deltic.domains.containers import ARRAY, arr, arr_shape
from deltic.frontend import compile_program, parse_program_file
from deltic.incr import incrementalize
from deltic.oracle import GenConfig, gen_term, gen_type, gen_value, oracle_registry, stable_rng

R = TBase(REAL)
Z = TBase(INT)


@pytest.fixture()
def reg():
    return linalg.register_linalg().registry


def test_typecheck_dup_gives_product(reg):
    tt = typecheck(Dup(), R, reg)
    assert (tt.in_ty, tt.out_ty) == (R, TProd(R, R))


def test_typecheck_dup_projections(reg):
    # par splits the product, so fst/snd under par need a product input
    tt = typecheck(Seq(Dup(), Par(FST, SND)), TProd(R, R), reg)
    assert tt.out_ty == TProd(R, R)
    with pytest.raises(TermTypeError):
        typecheck(Seq(Dup(), Par(FST, SND)), R, reg)


def test_typecheck_map_relu(reg):
    tt = typecheck(Map(OpCall("relu")), arr(3, R), reg)
    assert tt.in_ty == arr(3, R)
    assert tt.out_ty == arr(3, R)


def test_typecheck_negative(reg):
    with pytest.raises(TermTypeError):
        typecheck(Seq(FST, Map(ID)), TProd(R, arr(2, R)), reg)


def test_plus_needs_flags(reg):
    S = TBase(SCALAR)
    r2 = Registry()
    r2.register_base(SCALAR)
    with pytest.raises(TermTypeError):
        typecheck(Plus(), TProd(S, S), r2)
    # sums have structurally different change semantics: also rejected
    with pytest.raises(TermTypeError):
        typecheck(Plus(), TProd(TSum(R, R), TSum(R, R)), reg)


def test_get_set_index_bounds(reg):
    with pytest.raises(TermTypeError):
        typecheck(Get(5), arr(3, R), reg)
    with pytest.raises(TermTypeError):
        typecheck(SetAt(3), TProd(R, arr(3, R)), reg)


def test_denote_reshape_reversal(reg):
    n = 3
    r2 = linalg.register_linalg().registry
    r2.register_index_fn("rev3", lambda i: n - 1 - i)
    tt = typecheck(Reshape("rev3", arr_shape(3)), arr(3, R), r2)
    assert denote(tt, {0: 1.0, 1: 2.0, 2: 3.0}) == {0: 3.0, 1: 2.0, 2: 1.0}


def test_denote_reshape_outside_the_input_shape_raises_on_non_empty_input(reg):
    r2 = linalg.register_linalg().registry
    r2.register_index_fn("shift1", lambda i: i + 1)
    tt = typecheck(Reshape("shift1", arr_shape(3)), arr(3, R), r2)
    assert denote(tt, {}) == {}
    with pytest.raises(UsageError) as e:
        denote(tt, {0: 1.0})
    assert str(e.value) == "index function 'shift1' maps 2 outside arr[3]"


def test_denote_set(reg):
    tt = typecheck(SetAt(0), TProd(R, arr(2, R)), reg)
    assert denote(tt, (9.0, {0: 1.0, 1: 2.0})) == {0: 9.0, 1: 2.0}


def test_denote_filter(reg):
    r2 = linalg.register_linalg().registry
    r2.register_index_pred("only1", lambda i: i == 1)
    tt = typecheck(Filter("only1"), TProd(R, arr(2, R)), r2)
    assert denote(tt, (0.0, {0: 5.0, 1: 7.0})) == {1: 7.0}


def test_denote_filter_nonzero_default(reg):
    r2 = linalg.register_linalg().registry
    r2.register_index_pred("only0", lambda i: i == 0)
    tt = typecheck(Filter("only0"), TProd(R, arr(3, R)), r2)
    # positions failing the predicate take the fallback value
    assert denote(tt, (9.0, {0: 5.0})) == {0: 5.0, 1: 9.0, 2: 9.0}


def test_denote_distr(reg):
    tt = typecheck(Distr(), TProd(R, TSum(R, R)), reg)
    assert denote(tt, (4.0, Right(6.0))) == Right((4.0, 6.0))
    assert denote(tt, (4.0, Left(6.0))) == Left((4.0, 6.0))


def test_denote_case_fuse(reg):
    tt = typecheck(Seq(CasePar(OpCall("relu"), ID), Fuse()), TSum(R, R), reg)
    assert denote(tt, Left(-3.0)) == 0.0
    assert denote(tt, Right(-3.0)) == -3.0


def test_denote_map_non_default_preserving_finite(reg):
    # cst 5 maps ε to 5, so absent positions of a finite shape materialize
    tt = typecheck(Map(Cst(R, 5.0)), arr(3, R), reg)
    assert denote(tt, {}) == {0: 5.0, 1: 5.0, 2: 5.0}


def test_denote_get_absent_returns_default(reg):
    tt = typecheck(Get(1), arr(3, R), reg)
    assert denote(tt, {0: 4.0}) == 0.0


def test_register_duplicate_op():
    reg = Registry()
    reg.register_base(REAL)
    op = OpDef("relu", monomorphic(R, R), lambda x: max(x, 0.0), "triv")
    reg.register_op(op)
    with pytest.raises(RegistryError):
        reg.register_op(OpDef("relu", monomorphic(R, R), lambda x: x, "triv"))


@pytest.mark.parametrize("lookup, what", [
    ("base", "base type"), ("container", "container"), ("op", "op"),
    ("index_fn", "index function"), ("index_pred", "index predicate"),
    ("program", "program"),
])
def test_each_registry_lookup_names_what_it_lacks(lookup, what):
    # one entry in each of the six tables, found by its name; a name no
    # table holds raises with the message of its lookup
    reg = Registry()
    items = {"base": ("real", reg.register_base(REAL)),
             "container": ("arr", reg.register_container(ARRAY)),
             "op": ("relu", reg.register_op(OpDef("relu", monomorphic(R, R), abs, "triv"))),
             "index_fn": ("ix", reg.register_index_fn("ix", abs)),
             "index_pred": ("p", reg.register_index_pred("p", bool)),
             "program": ("prog", reg.register_program(ProgramDef("prog", lambda ty: None)))}
    find = getattr(reg, lookup)
    name, item = items[lookup]
    assert find(name) is item
    with pytest.raises(RegistryError) as e:
        find("nope")
    assert str(e.value) == f"unknown {what}: 'nope'"


def test_frozen_registry_rejects_registration():
    reg = Registry()
    reg.register_base(REAL)
    reg.freeze()
    with pytest.raises(RegistryError):
        reg.register_base(INT)


@pytest.mark.parametrize("name", ["max(a,b)", "key)", "a,b", "", " key", "key\t", 3])
def test_registered_names_must_read_back_from_term_text(name):
    reg = Registry()
    reg.register_base(REAL)
    for register in (lambda: reg.register_op(OpDef(name, monomorphic(R, R), abs, None)),
                     lambda: reg.register_index_fn(name, abs),
                     lambda: reg.register_index_pred(name, bool)):
        with pytest.raises(RegistryError, match="does not read back from term text"):
            register()
    assert not (reg.ops or reg.index_fns or reg.index_preds)


def test_registered_names_round_trip_through_term_text():
    reg = Registry()
    reg.register_base(REAL)
    reg.register_op(OpDef("max-of (a b]", monomorphic(R, R), abs, None))
    reg.register_index_pred("key-eq", bool)
    for t in (OpCall("max-of (a b]"), Filter("key-eq")):
        assert term_from_text(term_to_text(t), reg) == t


def test_append_identity_vs_prepend_oracle(reg):
    rng = stable_rng(21, "append")
    for _ in range(40):
        n = rng.randint(0, 5)
        xs = [round(rng.uniform(-5, 5), 3) for _ in range(n)]
        x = round(rng.uniform(-5, 5), 3)
        tt = typecheck(linalg.append_term(n), TProd(R, arr(n, R)), reg)
        got = denote(tt, (x, {i: v for i, v in enumerate(xs) if v != 0.0}))
        want = [x] + xs
        assert values_equal(arr(n + 1, R), got,
                            {i: v for i, v in enumerate(want) if v != 0.0}, 1e-12)


def test_plus_agrees_with_apply_change():
    cfg = GenConfig()
    rng = stable_rng(22, "plus-apply")
    reg = oracle_registry()
    for _ in range(50):
        ty = gen_type(cfg, rng, depth=2, bases=("real", "int"))
        from deltic.core import plus_capable
        if not plus_capable(ty):
            continue
        tt = typecheck(Plus(), TProd(ty, ty), reg)
        x, y = gen_value(rng, ty), gen_value(rng, ty)
        assert values_equal(ty, denote(tt, (x, y)), apply_change(ty, x, y), 1e-12)


def _let_stage(n):
    bundle, prog = parse_program_file(
        f"bundle linalg\nparam x : arr[{n}] real\nparam b : arr[{n}] real\n\n"
        "let h = map relu # map2 add # (x, b);\nh\n", get_bundle)
    return compile_program(prog, bundle.registry, bundle.literal_base)


def _linalg_add(term, ty):
    tt = typecheck(term, TProd(ty, ty), linalg.register_linalg().registry)
    return tt, unfused(tt)


def _union():
    rel = relalg.rel("str")
    tt = typecheck(relalg.union_term(), TProd(rel, rel), relalg.register_relalg().registry)
    return tt, unfused(tt)


def _one_let_stage():
    tt = _let_stage(4)
    return tt, unfused(tt)


@pytest.mark.parametrize("make, x, y, cancelled", [
    (lambda: _linalg_add(linalg.vadd_term(), arr(4, R)),
     {0: 1.5, 2: 2.0}, {0: -1.5, 1: 3.0, 3: 0.25}, {0}),
    (lambda: _linalg_add(linalg.madd_term(), arr(3, arr(3, R))),
     {0: {0: 1.0, 1: 2.0}, 1: {2: 4.0}},
     {0: {0: -1.0, 1: -2.0}, 1: {0: 1.0, 2: -4.0}, 2: {1: 5.0}}, {0}),
    (_union, {"t": 1, "u": 2}, {"t": -1, "v": 3}, {"t"}),
    (_one_let_stage, {0: 1.5, 2: -2.0}, {0: -1.5, 1: 3.0, 2: 0.5, 3: 1.0}, {0}),
], ids=["vadd", "madd", "union", "let-stage"])
def test_fused_add_is_the_stagewise_batch(make, x, y, cancelled):
    # `zip ; map g` with g pointwise ⊕ runs as one container ⊕ (add_fn),
    # which comb_add shares: it must equal the zip and maps run one by one
    # (the reference), on unequal supports both ways, empty sides and
    # entries that cancel, whose keys the output must not hold
    tt, ref = make()
    assert ("add", 2) in [fusion(tt.children, k) for k in range(len(tt.children))]
    for xy in [(x, y), (y, x), ({}, y), (x, {}), ({}, {})]:
        assert compiled(tt)(xy) == ref(xy), xy
    assert not cancelled & compiled(tt)((x, y)).keys()


def _entrywise_expr_ops():
    """(registry, op) for every registered op that declares its body as an
    expression over a non-pair argument and maps ε to ε: `map op` runs the
    batch generated from that expression."""
    regs = [get_bundle(name).registry for name in ("linalg", "relalg", "trees", "gcounter")]
    return [(reg, op) for reg in [*regs, oracle_registry()] for op in reg.ops.values()
            if op.expr is not None and type(ty := op.sample_in_tys[0]) is not TProd
            and op.fn(default_value(ty)) == default_value(op.typer(ty))]


def test_relu_map_kernel_is_the_entrywise_map():
    # `map op`, for every op that _entrywise_expr_ops names (relu among
    # them), runs the batch generated from op's expression; it must equal
    # the map run entry by entry with op's fn (unfused, the reference), in
    # keys and their order.  Over reals the inputs hold both signs, zeros of
    # both signs, inf, NaN of both signs and {}; over any element type, 20
    # drawn arrays
    inf, nan = float("inf"), float("nan")
    reals = [{}, {5: 1.5, 0: -2.0, 3: 0.25}, {2: 0.0, 7: 3.0, 4: -0.0, 1: -1e-300},
             {6: inf, 1: -inf, 0: 2.0}, {3: -0.0}, {1: 0.0}, {4: nan, 0: 1.0, 2: -nan, 6: -1.0}]
    ops = _entrywise_expr_ops()
    assert "relu" in [op.name for _, op in ops]
    for reg, op in ops:
        ty = arr(8, op.sample_in_tys[0])
        tt = typecheck(Map(OpCall(op.name)), ty, reg)
        assert compiled(tt) is _map_batch(op.expr, tt.children[0].out_ty)
        rng = stable_rng(44, op.name)
        for x in (reals if ty.elem == R else []) + [gen_value(rng, ty) for _ in range(20)]:
            out, want = compiled(tt)(x), unfused(tt)(x)
            assert out == want and list(out) == list(want), x


def test_a_traceback_through_a_generated_map_batch_shows_its_line(reg):
    # `map relu`'s batch is generated text, run under a file name of its own
    # that linecache serves, so an exception raised inside it (relu's
    # compare of a str) shows the line it was raised on
    tt = typecheck(Map(OpCall("relu")), arr(8, R), reg)
    with pytest.raises(TypeError) as raised:
        compiled(tt)({0: "0.5"})
    frame = traceback.extract_tb(raised.tb)[-1]
    assert frame.filename.startswith("<map ") and frame.filename != "<map>"
    assert frame.line == \
        "return {i: y for i, x in v.items() if (y := (x if x > 0.0 else 0.0)) != dout}"
    assert frame.line in "".join(traceback.format_exception(raised.value))


def _pair_expr_ops():
    """(registry, op) for every registered op that declares its body as an
    expression over a pair (x, y) and maps (ε, ε) to ε: the fused
    `zip ; map op` inits by the batch generated from that expression."""
    regs = [get_bundle(name).registry for name in ("linalg", "relalg", "trees", "gcounter")]
    return [(reg, op) for reg in [*regs, oracle_registry()] for op in reg.ops.values()
            if op.expr is not None and type(ty := op.sample_in_tys[0]) is TProd
            and op.fn(default_value(ty)) == default_value(op.typer(ty))]


def test_every_pair_expression_op_is_listed():
    assert {"mul", "intmul", "max"} <= {op.name for _, op in _pair_expr_ops()}


@pytest.mark.parametrize("reg, op", [pytest.param(*p, id=p[1].name) for p in _pair_expr_ops()])
def test_the_generated_map2_batch_is_the_zip_then_the_map(reg, op):
    # the fused `zip ; map op`'s init output is the batch generated from
    # op's expression over x and y; it must equal the zip then the map run
    # entry by entry with op's fn (unfused, the reference), in values (by
    # repr, so NaN and the sign of a zero count), keys and their order, over
    # equal key sets in either order, unequal and disjoint ones and {}, each
    # way round; over reals with ±0.0, ±inf and NaN, else 20 drawn arrays
    inf, nan = float("inf"), float("nan")
    ex, ey = op.sample_in_tys[0].left, op.sample_in_tys[0].right
    tt = typecheck(map2(OpCall(op.name)), TProd(arr(8, ex), arr(8, ey)), reg)
    batch = _map_batch(op.expr, op.typer(op.sample_in_tys[0]), ex, ey)
    init = incrementalize(tt).init
    rng = stable_rng(45, op.name)
    keys = [([3, 0, 5], [3, 0, 5]), ([3, 0, 5], [5, 3, 0]), ([1, 2, 6], [2, 7]),
            ([0, 1], [4, 5]), ([], [2]), ([], [])]
    xys = [({i: gen_value(rng, ex) for i in kx}, {i: gen_value(rng, ey) for i in ky})
           for kx, ky in keys * 4]
    if ex == ey == R:
        xys += [({5: 1.5, 0: -2.0, 3: 0.25}, {0: 4.0, 3: -0.0, 5: 2.0}),
                ({2: 0.0, 7: 3.0, 4: -0.0}, {4: 5.0, 1: -1e-300, 7: -2.0}),
                ({6: inf, 1: -inf}, {6: 0.0, 1: -inf, 0: 2.0}),
                ({4: nan, 0: 1.0}, {0: -nan, 2: -1.0}), ({3: -0.0}, {5: inf}), ({}, {1: nan})]
    for x, y in xys:
        for xy in [(x, y), (y, x)] if ex == ey else [(x, y)]:
            want = list(map(repr, unfused(tt)(xy).items()))
            assert list(map(repr, batch(xy).items())) == want, xy
            assert list(map(repr, init(xy)[0].items())) == want, xy


def test_a_traceback_through_a_generated_map2_batch_shows_its_line(reg):
    # the fused map2 mul's init runs the batch generated from mul's
    # expression, under a file name of its own that linecache serves, so an
    # exception raised inside it (a str times a str) shows its line
    tt = typecheck(map2(OpCall("mul")), TProd(arr(8, R), arr(8, R)), reg)
    with pytest.raises(TypeError) as raised:
        incrementalize(tt).init(({0: "a"}, {0: "b"}))
    frame = traceback.extract_tb(raised.tb)[-1]
    assert frame.filename.startswith("<map ") and frame.filename != "<map>"
    assert frame.line == \
        "return {i: z for i, x in vx.items() if (z := (x * vy[i])) != dout}"
    assert frame.line in "".join(traceback.format_exception(raised.value))


def _map2_inputs(term):
    """Inputs of `zip ; map mul` (term "zip") or of mvmul 8×8 ("mvmul") whose
    zipped sides hold equal key sets (in either order), left-only keys,
    right-only keys, disjoint keys or nothing, each way round, with ±0.0,
    ±inf and NaN."""
    inf, nan = float("inf"), float("nan")
    pairs = [({3: 1.5, 0: -0.0, 5: inf}, {3: 2.0, 0: 4.0, 5: -1.0}),
             ({3: 1.5, 0: -2.0, 5: 0.25}, {5: -inf, 3: 0.0, 0: nan}),
             ({1: 2.0, 4: nan, 6: -inf}, {1: 3.0}),
             ({2: -1.0}, {2: 0.5, 7: inf, 0: nan}),
             ({0: 1.0, 1: -0.0}, {5: -inf, 6: 2.0}),
             ({}, {4: inf}), ({7: -inf}, {}), ({}, {})]
    if term == "zip":
        return pairs + [(y, x) for x, y in pairs]
    # mvmul zips each row of M with v: every side of every pair is a row of
    # one of two Ms (empty rows left out), each run against every v
    rows = [x for x, _ in pairs] + [y for _, y in pairs]
    return [({i: r for i, r in enumerate(m) if r}, v)
            for m in (rows[:8], rows[8:]) for _, v in pairs]


@pytest.mark.parametrize("term, in_ty", [
    ("zip", TProd(arr(8, R), arr(8, R))),
    ("mvmul", TProd(arr(8, arr(8, R)), arr(8, R))),
], ids=["zip ; map mul", "mvmul"])
def test_denote_runs_a_map2_as_the_generated_batch(reg, term, in_ty):
    # `zip ; map mul`, alone or as mvmul's row product, runs in denote as
    # the batch generated from mul's expression over x and y (_FUSED's map2
    # entry, which the fused map2's init shares): some node compiles to a
    # `<map n>` batch, and denote equals the zip then the map run entry by
    # entry at every depth (unfused, the reference), in values (by repr, so
    # NaN and the sign of a zero count), keys and their order
    tt = typecheck(map2(OpCall("mul")) if term == "zip" else linalg.mvmul_term(8, 8),
                   in_ty, reg)
    nodes, files = [tt], []
    while nodes:
        node = nodes.pop()
        nodes += node.children
        files.append(getattr(getattr(compiled(node), "__code__", None), "co_filename", ""))
    assert any(f.startswith("<map ") for f in files), files
    ref = unfused(tt)
    for xy in _map2_inputs(term):
        want = list(map(repr, ref(xy).items()))
        assert list(map(repr, denote(tt, xy).items())) == want, xy


def test_interpreter_totality_on_random_terms():
    cfg = GenConfig()
    rng = stable_rng(23, "totality")
    reg = oracle_registry()
    for _ in range(80):
        in_ty = gen_type(cfg, rng, depth=2)
        tt = gen_term(cfg, rng, reg, in_ty)
        v = gen_value(rng, in_ty)
        out = denote(tt, v)
        from deltic.core import check_value
        check_value(tt.out_ty, out)  # conforms, canonical, shape-valid indices


def test_seq_spine_of_any_nesting_types_to_flat_stages(reg):
    a, b, c, d = ID, Dup(), FST, OpCall("relu")
    left = Seq(Seq(a, b), Seq(c, d))
    right = Seq(a, Seq(b, Seq(c, d)))
    for t in (left, right):
        tt = typecheck(t, R, reg)
        assert [s.term for s in tt.children] == [a, b, c, d]
        assert (tt.in_ty, tt.out_ty) == (R, R)
        assert denote(tt, -2.0) == 0.0 and denote(tt, 3.0) == 3.0
    assert term_from_text(term_to_text(left), reg) == left


@pytest.mark.parametrize("term, text, size", [
    (seq(OpCall("relu"), ID, OpCall("relu")), "seq(seq(op(relu), id), op(relu))", 5),
    (Seq(OpCall("relu"), Seq(ID, OpCall("relu"))), "seq(op(relu), seq(id, op(relu)))", 5),
    (Par(Seq(Dup(), Seq(FST, OpCall("relu"))), Map(seq(Zip(), Map(Plus())))),
     "par(seq(dup, seq(fst, op(relu))), map(seq(zip, map(plus))))", 11),
    (Seq(Seq(OpCall("relu"), OpCall("relu")), Seq(ID, Seq(OpCall("relu"), ID))),
     "seq(seq(op(relu), op(relu)), seq(id, seq(op(relu), id)))", 9),
])
def test_seq_text_and_size_of_short_chains(term, text, size):
    from deltic.oracle import term_size
    assert term_to_text(term) == text
    assert term_size(term) == size


def test_long_seq_prints_and_sizes_without_recursion(reg):
    # one Seq node per chain: printing, reading, sizing, == and hash loop over it
    import sys
    from deltic.oracle import term_size
    assert sys.getrecursionlimit() <= 1000
    t = seq(*[OpCall("relu")] * 10_000)
    assert term_size(t) == 19_999
    text = term_to_text(t)
    assert text.count("op(relu)") == 10_000
    assert text == "seq(" * 9_999 + "op(relu)" + ", op(relu))" * 9_999
    back = term_from_text(text, reg)
    assert back == t and hash(back) == hash(t) and len(back.stages) == 10_000


def test_seq_splices_only_a_first_stage_seq():
    a, b, c = ID, Dup(), OpCall("relu")
    assert Seq(Seq(a, b), c) == Seq(a, b, c) == seq(a, b, c)
    assert hash(Seq(Seq(a, b), c)) == hash(Seq(a, b, c))
    assert Seq(a, b, c).stages == (a, b, c)
    assert Seq(a, Seq(b, c)).stages == (a, Seq(b, c))
    assert Seq(a, Seq(b, c)) != Seq(a, b, c)
    assert seq(a) is a
    for stages in ((), (a,)):
        with pytest.raises(UsageError, match="two or more stages"):
            Seq(*stages)


def _best_read_times(texts, reg):
    """Best of 15 reads of each text.  The sizes' runs alternate, so a change
    in host speed during the test reaches every size alike."""
    import time
    term_from_text(texts[-1], reg)  # warm up
    times = [[] for _ in texts]
    for _ in range(15):
        for text, runs in zip(texts, times):
            t0 = time.perf_counter()
            term_from_text(text, reg)
            runs.append(time.perf_counter() - t0)
    return [min(runs) for runs in times]


def test_reading_a_seq_chain_is_linear(reg):
    t1, t2 = _best_read_times([term_to_text(seq(*[OpCall("relu")] * n))
                               for n in (1_000, 2_000)], reg)
    assert t2 <= 2.5 * t1, (t1, t2)


def _nest(levels):
    # par(·, cst(real, 1.0)), map(·) and case(·, id) in turn around op(o_relu)
    wraps = (lambda t: Par(t, Cst(R, 1.0)), Map, lambda t: CasePar(t, ID))
    t = OpCall("o_relu")
    for k in range(levels):
        t = wraps[k % 3](t)
    return t


def test_reading_nested_term_text_is_linear(reg):
    t1, t2 = _best_read_times([term_to_text(_nest(n)) for n in (150, 300)], reg)
    assert t2 <= 2.5 * t1, (t1, t2)


def test_deep_nest_round_trips_at_the_default_recursion_limit(reg):
    import sys
    assert sys.getrecursionlimit() <= 1000
    t = _nest(300)
    assert term_from_text(term_to_text(t), reg) == t


@pytest.mark.parametrize("text", [
    "seq(id, dup",                # unterminated
    "seq(seq(id, dup), fst",      # unterminated outer link
    "seq(id, dup))",              # an extra )
    "seq(id, dup) fst",           # trailing text
    "seq(seq(id, dup), fst) )",
    "seq(id, )",                  # empty stage
    "seq(, id)",
    "seq(seq(id, dup), , fst)",
    "seq(id, dup, fst)",          # three stages in one link
    "seq(id)",
    "seq()",
    "seq(seq(id, dup))",
])
def test_malformed_seq_chain_text_is_rejected(text, reg):
    with pytest.raises(ConformanceError):
        term_from_text(text, reg)


@pytest.mark.parametrize("term, text", [
    (ID, "id"), (FST, "fst"), (SND, "snd"),
    (Seq(Dup(), Par(FST, SND)), "seq(dup, par(fst, snd))"),
    (Proj((1, 0)), "proj(1, 0)"),
    (Proj((1, 1, 0)), "proj(1, 1, 0)"),
    (Seq(Proj((0, 0)), Map(Proj((1,) * 12))),
     "seq(proj(0, 0), map(proj(" + ", ".join(["1"] * 12) + ")))"),
])
def test_projection_texts_round_trip(term, text, reg):
    assert term_to_text(term) == text
    assert term_from_text(text, reg) == term


def test_projection_paths_type_and_evaluate(reg):
    ty = TProd(R, TProd(arr(2, R), TProd(R, R)))
    v = (1.0, ({0: 2.0}, (3.0, 4.0)))
    for path, out_ty, out in [((), ty, v), ((0,), R, 1.0), ((1, 0), arr(2, R), {0: 2.0}),
                              ((1, 1, 1), R, 4.0)]:
        tt = typecheck(Proj(path), ty, reg)
        assert tt.out_ty == out_ty and denote(tt, v) == out
    for bad in ((1, 0, 0), (0, 1), (2,)):
        with pytest.raises(TermTypeError, match="projection needs a product input"):
            typecheck(Proj(bad), ty, reg)
    for text in ("proj(2)", "proj(1, x)", "proj()"):
        with pytest.raises(ConformanceError):
            term_from_text(text, reg)
