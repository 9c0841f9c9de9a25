"""Surface syntax: parsing, lowering, and the reference evaluator."""

import re
import sys
from operator import add, mul
from pathlib import Path

import pytest

from deltic.calculus import (
    FST, ID, Dup, Par, Proj, SND, Seq, TermTypeError, denote, fanout, seq,
    term_from_text, term_to_text, typecheck,
)
from deltic.core import REAL, TBase, TProd, apply_change, apply_fn, values_equal
from deltic.domains import linalg
from deltic.frontend import (
    HApply, HName, HShape, NApp, NLet, NLit, NTuple, NVar, NameResolutionError,
    SurfaceSyntaxError, compile_program, eval_named, lower,
    parse_expr_text, parse_program_file, _var_term,
)
from deltic.incr import cache_equal, incrementalize
from deltic.oracle import (
    DENSE_TEXT, LET_TEXT, MVMUL_TEXT, gen_change, gen_value, stable_rng, term_size,
)
from deltic.domains.containers import arr

from helpers import (
    list_to_vec, lists_to_mat, mat_to_lists, oracle_dot, oracle_mmmul, vec_to_list,
)

R = TBase(REAL)


def _linalg_lookup(_name):
    return linalg.register_linalg()


def test_parse_dense_listing_shape():
    e = parse_expr_text("map relu # map2 add # (mvmul # [m, x], b)")
    # the pipeline is one node holding its heads as written
    assert isinstance(e, NApp)
    assert e.heads == [HApply(HName("map"), HName("relu")),
                       HApply(HName("map2"), HName("add"))]
    tup = e.arg
    assert isinstance(tup, NTuple) and len(tup.items) == 2
    mv = tup.items[0]
    assert isinstance(mv, NApp) and mv.heads == [HName("mvmul")]
    assert isinstance(mv.arg, NTuple)
    assert [v.name for v in mv.arg.items] == ["m", "x"]
    assert tup.items[1] == NVar("b", tup.items[1].line, tup.items[1].col)


def test_head_shape_keeps_its_payload_and_position():
    e = parse_expr_text("replicate arr[2] # x")
    assert e.heads == [HApply(HName("replicate"), HShape("arr", "2", 1, 11))]


def test_parse_let():
    e = parse_expr_text("let y = relu # x; mul # (y, y)")
    assert isinstance(e, NLet) and [name for name, _ in e.binds] == ["y"]
    assert isinstance(e.binds[0][1], NApp)
    assert isinstance(e.body, NApp)


def test_let_chain_parses_to_one_flat_node():
    e = parse_expr_text("let a = x; let b = relu # a; let c = b; c")
    assert isinstance(e, NLet) and [name for name, _ in e.binds] == ["a", "b", "c"]
    assert e.body == NVar("c", 1, 41)
    # a `#` between two lets splits the chain
    e = parse_expr_text("let a = x; relu # let b = a; b")
    assert [name for name, _ in e.binds] == ["a"]
    assert isinstance(e.body, NApp) and e.body.heads == [HName("relu")]
    assert isinstance(e.body.arg, NLet) and [name for name, _ in e.body.arg.binds] == ["b"]


def test_parse_error_position():
    with pytest.raises(SurfaceSyntaxError) as exc:
        parse_expr_text("mul # (x, ")
    assert "line 1" in str(exc.value)


def test_resolve_positions():
    bundle = linalg.register_linalg()

    def lowered(text, names):
        params = tuple((name, R) for name in names)
        return lower(parse_expr_text(text), params, bundle.registry, bundle.literal_base)[0]

    assert lowered("y", ["x", "y"]) == SND
    assert lowered("x", ["x", "y"]) == FST
    with pytest.raises(NameResolutionError) as exc:
        lowered("z", ["x", "y"])
    assert str(exc.value) == "unbound name 'z' at line 1, column 1"
    # a let shadows and then goes out of scope; positions span lines
    with pytest.raises(NameResolutionError) as exc:
        lowered("let x = y;\nlet y = x;\n  mul # (x, (y, z))", ["x", "y"])
    assert str(exc.value) == "unbound name 'z' at line 3, column 17"
    # a repeated context name resolves to its first position
    assert lowered("x", ["x", "x", "y"]) == FST
    # the bound y is the context's second position; the outer x is read no
    # more, so the let keeps only y: in the body, the let's x is the first
    # position and the outer y the second
    shadowed = lowered("let x = y; (x, y)", ["x", "y"])
    assert shadowed == seq(Dup(), Par(SND, SND), fanout(FST, SND))
    with pytest.raises(NameResolutionError) as exc:
        eval_named(parse_expr_text("let a = x;\n relu # b"), {"x": (R, 1.0)},
                   bundle.registry, bundle.literal_base)
    assert str(exc.value) == "unbound name 'b' at line 2, column 9"


def test_lowering_reports_the_first_error_in_evaluation_order():
    # lower elaborates a bound's heads before it reads the body's names, so
    # it reports the error that the reference evaluator meets first
    bundle = linalg.register_linalg()
    e = parse_expr_text("let a = nosuchop # x; z")
    with pytest.raises(TermTypeError) as lowered:
        lower(e, (("x", R),), bundle.registry, bundle.literal_base)
    with pytest.raises(TermTypeError) as evaluated:
        eval_named(e, {"x": (R, 1.0)}, bundle.registry, bundle.literal_base)
    assert str(lowered.value) == str(evaluated.value) == "unknown operation or program: 'nosuchop'"


def test_var_lowering_projections():
    assert _var_term(1, 2) == SND
    assert _var_term(0, 2) == FST
    assert _var_term(0, 1) == ID
    assert _var_term(1, 3) == Proj((1, 0))
    assert _var_term(2, 3) == Proj((1, 1))


def _matches_reference(text, names):
    """Lower text over real params named by the letters of names and compare
    its denotation with eval_named on 50 inputs."""
    bundle = linalg.register_linalg()
    e = parse_expr_text(text)
    params = tuple((name, R) for name in names)
    term, out_ty = lower(e, params, bundle.registry, bundle.literal_base)
    in_ty = R
    for _ in names[1:]:
        in_ty = TProd(R, in_ty)
    tt = typecheck(term, in_ty, bundle.registry)
    assert tt.out_ty == out_ty
    rng = stable_rng(81, "let-lower")
    for _ in range(50):
        xs = [round(rng.uniform(-5, 5), 3) for _ in names]
        v = xs[-1]
        for x in reversed(xs[:-1]):
            v = (x, v)
        _, ref = eval_named(e, {name: (R, x) for name, x in zip(names, xs)},
                            bundle.registry, bundle.literal_base)
        assert values_equal(out_ty, denote(tt, v), ref)


def test_let_lowering_matches_reference():
    _matches_reference("let y = relu # x; mul # (y, x)", "x")


@pytest.mark.parametrize("text, names", [
    # the let keeps one old level, then two that are not adjacent
    ("let a = mul # (x, z); (a, x)", "xyz"),
    ("let a = mul # (x, y); (a, (x, z))", "xyz"),
    # the second let keeps nothing of the old context
    ("let a = relu # x; let b = mul # (a, a); b", "xy"),
    # a let inside a bound trims the context it sees, not the outer one
    ("let a = (let b = y; b); (a, x)", "xy"),
    ("let a = (let b = mul # (x, z); (b, y)); let c = relu # z; (c, (a, x))", "xyz"),
])
def test_trimmed_let_lowering_matches_reference(text, names):
    _matches_reference(text, names)


def test_mvmul_text_equals_catalog():
    bundle, prog = parse_program_file(MVMUL_TEXT.format(n=2, m=3), _linalg_lookup)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    cat = typecheck(linalg.mvmul_term(2, 3), prog.in_ty, bundle.registry)
    rng = stable_rng(82, "mvmul-surface")
    for _ in range(30):
        v = gen_value(rng, prog.in_ty)
        assert values_equal(tt.out_ty, denote(tt, v), denote(cat, v), 1e-9)


def test_dense_text_compiles_and_runs():
    bundle, prog = parse_program_file(DENSE_TEXT.format(n=2, m=2), _linalg_lookup)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    M = {0: {0: 1.0}, 1: {1: 1.0}}
    got = denote(tt, (M, ({0: -10.0}, {0: 3.0, 1: 4.0})))
    assert values_equal(arr(2, R), got, {1: 4.0}, 1e-12)


def test_weakening_ignores_unused_params():
    text = """
bundle linalg
param unused : arr[3] real
param x : real

relu # x
"""
    bundle, prog = parse_program_file(text, _linalg_lookup)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    a = denote(tt, ({0: 1.0}, 5.0))
    b = denote(tt, ({2: -9.0}, 5.0))
    assert a == b == 5.0


def test_literal_typing_follows_bundle_base():
    text = """
bundle linalg
param x : real

mul # (x, 2)
"""
    bundle, prog = parse_program_file(text, _linalg_lookup)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    assert denote(tt, 3.0) == 6.0


def test_double_dash_in_a_string_literal_is_not_a_comment():
    from deltic.domains import trees
    text = """
bundle trees
param d : int

fst # ("a--b", d)  -- a trailing comment is still ignored
"""
    bundle, prog = parse_program_file(text, lambda _n: trees.register_trees())
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    assert denote(tt, 5) == "a--b"


def test_gcounter_surface_inc():
    from deltic.domains import gcounter
    bundle = gcounter.register_gcounter(("r1", "r2"))
    text = """
bundle gcounter
param s : nodes[r1,r2] nat

inc_r1 # s
"""
    b, prog = parse_program_file(text, lambda _n: bundle)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    assert denote(tt, {"r2": 4}) == {"r1": 1, "r2": 4}


def test_pair_schema_shape_literal():
    from deltic.domains import relalg
    text = """
bundle relalg
param r : rel[int*str] int

count # map2 add # (replicate rel[int*str] # 0, r)
"""
    bundle, prog = parse_program_file(text, lambda _n: relalg.register_relalg())
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    assert denote(tt, {(1, "a"): 2}) == 2


def test_nested_let_shadowing():
    bundle = linalg.register_linalg()
    text = "let x = mul # (x, x); let x = relu # x; x"
    e = parse_expr_text(text)
    term, _ = lower(e, (("x", R),), bundle.registry, bundle.literal_base)
    tt = typecheck(term, R, bundle.registry)
    assert denote(tt, -2.0) == 4.0
    assert denote(tt, 3.0) == 9.0


def test_wide_tuples_right_associate():
    bundle = linalg.register_linalg()
    text = """
bundle linalg
param a : real
param b : real
param c : real

fst # (a, b, c)
"""
    b, prog = parse_program_file(text, _linalg_lookup)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    # (a, b, c) is a * (b * c); fst projects a
    assert denote(tt, (1.0, (2.0, 3.0))) == 1.0
    text2 = text.replace("fst #", "snd #")
    b, prog2 = parse_program_file(text2, _linalg_lookup)
    tt2 = compile_program(prog2, bundle.registry, bundle.literal_base)
    assert denote(tt2, (1.0, (2.0, 3.0))) == (2.0, 3.0)


def _chain_text(stages, body):
    """`stages` lets, each binding body.format(prev=<previous name>)."""
    lines = ["bundle linalg", "param x : arr[8] real", "param b : arr[8] real", ""]
    prev = "x"
    for i in range(1, stages + 1):
        lines.append(f"let h{i} = {body.format(prev=prev)};")
        prev = f"h{i}"
    return "\n".join(lines + [f"map2 add # ({prev}, x)"]) + "\n"


def _run_with_laws(text, seed):
    """Build a program text end to end; 3 steps, Law-2 against denote."""
    bundle, prog = parse_program_file(text, _linalg_lookup)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    m = incrementalize(tt)
    rng = stable_rng(seed, "long-program")
    x = gen_value(rng, prog.in_ty)
    y, c = m.init(x)
    assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)
    ap_in, ap_out = apply_fn(prog.in_ty), apply_fn(tt.out_ty)
    for _ in range(3):
        dx = gen_change(rng, prog.in_ty)
        dy, c = m.step(dx, c)
        x, y = ap_in(x, dx), ap_out(y, dy)
        assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)  # Law-2
    return tt


def test_ten_thousand_lets_run_without_recursion():
    # parser, lower and eval_named loop over a flat let chain
    assert sys.getrecursionlimit() <= 1000
    text = _chain_text(10_000, "map relu # {prev}")
    tt = _run_with_laws(text, 91)
    # each let keeps only x of the old context, so every variable is fst or snd
    assert term_size(tt.term) == 9 * 10_000 + 10
    _, prog = parse_program_file(text, _linalg_lookup)
    assert isinstance(prog.body, NLet) and len(prog.body.binds) == 10_000
    bundle = linalg.register_linalg()
    # the let chain lowers to one flat Seq: `dup ; (t_i × id)` per let, then the body
    assert isinstance(tt.term, Seq) and len(tt.term.stages) == 2 * 10_000 + 1
    assert term_from_text(term_to_text(tt.term), bundle.registry) == tt.term
    x = {0: -1.0, 3: 2.0}
    env = {"x": (arr(8, R), x), "b": (arr(8, R), {})}
    assert eval_named(prog.body, env, bundle.registry, bundle.literal_base)[1] == {0: -1.0, 3: 4.0}


def test_ten_thousand_step_pipeline_runs_without_recursion():
    assert sys.getrecursionlimit() <= 1000
    text = "bundle linalg\nparam x : arr[8] real\n\n" + "map relu # " * 10_000 + "x\n"
    tt = _run_with_laws(text, 92)
    assert len(tt.children) == 10_001
    _, prog = parse_program_file(text, _linalg_lookup)
    bundle = linalg.register_linalg()
    env = {"x": (arr(8, R), {0: -1.0, 3: 2.0})}
    assert eval_named(prog.body, env, bundle.registry, bundle.literal_base)[1] == {3: 2.0}


def test_let_chain_term_size_is_linear():
    # every let reads the parameter b; the term grows by a constant per let
    body = "map relu # map2 add # ({prev}, b)"
    sizes = []
    for stages in (1_000, 2_000):
        bundle, prog = parse_program_file(_chain_text(stages, body), _linalg_lookup)
        term, _ = lower(prog.body, prog.params, bundle.registry, bundle.literal_base)
        sizes.append(term_size(term))
    assert sizes[1] <= 2.05 * sizes[0], sizes


def test_let_chain_reading_a_param_keeps_paths_short():
    # every let reads b and the body reads x, so each let keeps both at the
    # back of a three-wide context and drops the binding before its own;
    # they are the context's tail, kept by one Proj((1,)) per let
    text = _chain_text(2_000, "map relu # map2 add # ({prev}, b)")
    bundle, prog = parse_program_file(text, _linalg_lookup)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    paths, todo = [], [tt]
    while todo:
        t = todo.pop()
        todo += t.children
        if isinstance(t.term, Proj):
            paths.append(t.term.path)
    assert len(paths) == 3 * 2_000 + 2 and max(map(len, paths)) == 2


def _wide_sum_text(k):
    """k real params summed by a let chain that reads each param once."""
    lines = ["bundle linalg"] + [f"param x{i} : real" for i in range(1, k + 1)]
    lines += ["", "let s1 = x1;"]
    lines += [f"let s{i} = add # (s{i - 1}, x{i});" for i in range(2, k + 1)]
    return "\n".join(lines + [f"s{k}"]) + "\n"


def test_a_let_keeps_the_context_tail_as_one_projection():
    # the params not read yet are the tail of every let's context; kept path
    # by path, 300 of them lowered to 181,795 nodes
    bundle, prog = parse_program_file(_wide_sum_text(300), _linalg_lookup)
    term, _ = lower(prog.body, prog.params, bundle.registry, bundle.literal_base)
    assert term_size(term) <= 4_000
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    x = 300.0
    for i in range(299, 0, -1):
        x = (float(i), x)
    assert denote(tt, x) == sum(range(1, 301))


def test_perfbench_let_chain_term_is_unchanged():
    # the 100-stage `map relu # map2 add # (h, b)` chain keeps only b of the
    # params, a one-element tail, so its term is the one it was
    lines = ["bundle linalg", "param x : arr[1000] real", "param b : arr[1000] real", ""]
    prev = "x"
    for i in range(1, 101):
        lines.append(f"let h{i} = map relu # map2 add # ({prev}, b);")
        prev = f"h{i}"
    bundle, prog = parse_program_file("\n".join(lines + [prev]) + "\n", _linalg_lookup)
    term, _ = lower(prog.body, prog.params, bundle.registry, bundle.literal_base)
    assert term_size(term) == 1_797


# (program text, message, line, column): every surface error names a place
# in the file, param types included
SURFACE_ERRORS = [
    ("bundle linalg\nparam x : real\n\nmul # (x, ", "unexpected end of input", 4, 11),
    ("bundle linalg\nparam x : real\n\nlet a = x", "expected ';', found end of input", 4, 10),
    ('bundle linalg\nparam x : real\n\nfst # ("ab, x)\n', "unterminated string", 4, 8),
    ("bundle linalg\nparam x : arr[2 real\n\nx\n", "unterminated '['", 2, 14),
    ("bundle linalg\nparam x : (real\n\nx\n", "expected ')', found 'x'", 4, 1),
    ("bundle linalg\nparam x : real *\n", "expected a name", 3, 1),
    # a type that runs short reads on into the body
    ("bundle linalg\nparam x : arr[2]\n\nmap relu # x\n", "unknown base type: 'map'", 2, 11),
    ("bundle linalg\nparam x : arr[x] real\n\nx\n", "bad array length: 'x'", 2, 11),
    # a head's shape is resolved with the bundle when the head is elaborated
    ("bundle linalg\nparam x : arr[2] real\n\nreplicate arr[two] # x\n",
     "bad array length: 'two'", 4, 11),
    ("bundle linalg\nparam x : arr[2] real\n\nreplicate vec[2] # x\n",
     "unknown container: 'vec'", 4, 11),
    # a `[...]` after a head without a `#` is not a shape
    ("bundle linalg\nparam x : real\n\nmap relu [x, x]\n", "trailing input", 4, 5),
    ("param x : real\n\nx\n", "'param' before 'bundle'", 1, 1),
    ("-- no header\n  relu # x\n", "missing 'bundle' header", 2, 3),
    ("bundle linalg\n\nrelu # x\n", "missing 'param' declarations", 3, 1),
    ("bundle linalg\nparam x real\n\nx\n", "param needs 'name : type'", 2, 9),
    ("bundle linalg\nparam : real\n\nx\n", "param needs 'name : type'", 2, 7),
    ("bundle\n", "expected a bundle name", 2, 1),
    # the params would be typed under linalg and the body compiled under relalg
    ("bundle linalg\nparam x : arr[2] real\nbundle relalg\nx\n", "a second 'bundle' header", 3, 1),
    ("bundle linalg\nparam x : real\n\nx y\n", "trailing input", 4, 3),
    ("bundle linalg\nparam x : real\n\nmul # (x, @)\n", "unexpected '@'", 4, 11),
    ("bundle linalg\nparam x : real\n\nmul # (x, x]\n", "expected ')', found ']'", 4, 12),
]


@pytest.mark.parametrize("text, msg, line, col", SURFACE_ERRORS)
def test_surface_error_table(text, msg, line, col):
    with pytest.raises(SurfaceSyntaxError) as exc:
        bundle, prog = parse_program_file(text)
        compile_program(prog, bundle.registry, bundle.literal_base)
    assert str(exc.value) == f"syntax error at line {line}, column {col}: {msg}"
    assert (exc.value.line, exc.value.col) == (line, col)


def test_one_reader_for_header_and_body():
    # comments anywhere, a header spread over lines, and a body that starts
    # with `[` right after a param type
    text = """\
bundle -- the instantiation
  linalg
param x -- a vector
  : arr[2] -- its shape
    real
param y : real
[x, y]  -- a pair
"""
    bundle, prog = parse_program_file(text, _linalg_lookup)
    assert prog.bundle_name == "linalg" and [n for n, _ in prog.params] == ["x", "y"]
    assert prog.params[0][1] == arr(2, R) and prog.params[1][1] == R
    assert prog.body == NTuple((NVar("x", 7, 2), NVar("y", 7, 5)), 7, 1)


def test_a_backslash_in_a_string_takes_the_next_character():
    e = parse_expr_text(r'("a\"b", "c\\d", "e\-f", "--")')
    assert [item.raw for item in e.items] == ['a"b', "c\\d", "e-f", "--"]


def _readme_programs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return [b for b in re.findall(r"```[a-z]*\n(.*?)```", readme, re.S) if b.startswith("bundle")]


def test_readme_programs_parse_and_compile():
    programs = _readme_programs()
    assert programs
    for text in programs:
        bundle, prog = parse_program_file(text)
        tt = compile_program(prog, bundle.registry, bundle.literal_base)
        assert tt.in_ty == prog.in_ty


# ---------------------------------------------------------------------------
# Surface heads and linalg programs, from text to machine
# ---------------------------------------------------------------------------

def _vec(xs):
    return list_to_vec([float(x) for x in xs])


# name -> (params, body, the value the body denotes at the params' values)
SURFACE_PATHS = {
    "get": ("v : arr[3] real", "get 1 # v", lambda v: v.get(1, 0.0)),
    "set": ("c : real\nparam v : arr[3] real", "set 1 # (c, v)",
            lambda cv: _vec([vec_to_list(cv[1], 3)[0], cv[0], vec_to_list(cv[1], 3)[2]])),
    "filter": ("v : arr[5] real", "filter even # (0, v)",
               lambda v: {i: x for i, x in v.items() if i % 2 == 0}),
    "reshape": ("v : arr[3] real", "reshape pred arr[4] # v",
                lambda v: _vec([vec_to_list(v, 3)[i] for i in (0, 0, 1, 2)])),
    "vadd": ("x : arr[3] real\nparam y : arr[3] real", "vadd # (x, y)",
             lambda xy: _vec(map(add, *(vec_to_list(v, 3) for v in xy)))),
    "madd": ("a : arr[2] arr[3] real\nparam b : arr[2] arr[3] real", "madd # (a, b)",
             lambda ab: lists_to_mat([list(map(add, *rows)) for rows in zip(
                 *(mat_to_lists(m, 2, 3) for m in ab))])),
    "hadamard": ("x : arr[3] real\nparam y : arr[3] real", "hadamard # (x, y)",
                 lambda xy: _vec(map(mul, *(vec_to_list(v, 3) for v in xy)))),
    "dot": ("x : arr[3] real\nparam y : arr[3] real", "dot # (x, y)",
            lambda xy: oracle_dot(*(vec_to_list(v, 3) for v in xy))),
    "svmul": ("c : real\nparam v : arr[3] real", "svmul # (c, v)",
              lambda cv: _vec(cv[0] * x for x in vec_to_list(cv[1], 3))),
    "mmmul": ("a : arr[2] arr[3] real\nparam b : arr[3] arr[2] real", "mmmul # (a, b)",
              lambda ab: lists_to_mat(oracle_mmmul(mat_to_lists(ab[0], 2, 3),
                                                   mat_to_lists(ab[1], 3, 2)))),
    "append": ("c : real\nparam v : arr[3] real", "append # (c, v)",
               lambda cv: _vec([cv[0], *vec_to_list(cv[1], 3)])),
}


@pytest.mark.parametrize("name", list(SURFACE_PATHS))
def test_surface_path_denotes_its_oracle_and_keeps_laws_2_and_3(name):
    params, body, want = SURFACE_PATHS[name]
    bundle = linalg.register_linalg()
    bundle.registry.register_index_pred("even", lambda i: i % 2 == 0)
    _, prog = parse_program_file(f"bundle linalg\nparam {params}\n\n{body}\n",
                                 lambda _n: bundle)
    tt = compile_program(prog, bundle.registry, bundle.literal_base)
    rng = stable_rng(27, f"surface-path:{name}")
    for _ in range(10):
        x = gen_value(rng, tt.in_ty)
        assert values_equal(tt.out_ty, denote(tt, x), want(x), 1e-9)
    # Laws 1-3 over a 5-change stream
    m = incrementalize(tt)
    y, c = m.init(x)
    assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)
    for _ in range(5):
        d = gen_change(rng, tt.in_ty)
        dy, c = m.step(d, c)
        x, y = apply_change(tt.in_ty, x, d), apply_change(tt.out_ty, y, dy)
        assert values_equal(tt.out_ty, y, denote(tt, x), 1e-9)
        assert cache_equal(m.cache, c, m.init(x)[1], 1e-9)
